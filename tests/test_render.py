import json
import math
import re
import xml.etree.ElementTree as ET

import pytest

from ngonspiral.lengthfns import power_law
from ngonspiral.render import (
    Scene,
    export_table,
    render_svg,
    sample_curve_adaptive,
    view_transform,
)
from ngonspiral.spiral import polygon, vertex_at

SVG_NS = "{http://www.w3.org/2000/svg}"


def _marker_coords(svg_text: str, group_id: str) -> list[tuple[float, float]]:
    root = ET.fromstring(svg_text)
    for g in root.iter(f"{SVG_NS}g"):
        if g.get("id") == group_id:
            return [
                (float(c.get("cx")), float(c.get("cy")))
                for c in g.iter(f"{SVG_NS}circle")
            ]
    raise AssertionError(f"group {group_id} not found")


def _demo_scene() -> tuple[Scene, list[complex]]:
    f = power_law(1.0)
    polys = [polygon(f, n) for n in range(3, 8)]
    verts = vertex_at(f, range(2, 8))
    points = [verts[n] for n in range(2, 8)]
    return Scene(polygons=polys, point_sequences={"vertices": points}), points


class TestRenderSvg:
    def test_well_formed_and_deterministic(self):
        scene, _ = _demo_scene()
        a = render_svg(scene)
        b = render_svg(scene)
        assert a == b
        ET.fromstring(a)  # parses

    def test_markers_invert_to_source_points(self):
        scene, points = _demo_scene()
        svg = render_svg(scene)
        tr = view_transform(scene)
        got = _marker_coords(svg, "points-vertices")
        assert len(got) == len(points)
        for (cx, cy), z in zip(got, points):
            px, py = tr.to_px(z)
            assert math.hypot(cx - px, cy - py) < 0.5
            back = tr.to_complex(cx, cy)
            # inverse mapping recovers the point far below pixel scale
            assert abs(back - z) < 1e-9 * (tr.width / tr.scale)

    def test_viewport_margin(self):
        scene, points = _demo_scene()
        tr = view_transform(scene)
        xs = [p.real for p in scene.all_points()]
        ys = [p.imag for p in scene.all_points()]
        span = max(max(xs) - min(xs), max(ys) - min(ys))
        assert tr.x0 <= min(xs) - 0.049 * span
        assert tr.y0 <= min(ys) - 0.049 * span

    def test_y_axis_points_up(self):
        scene = Scene(point_sequences={"p": [0j, 1j]})
        tr = view_transform(scene)
        _, y_low = tr.to_px(0j)
        _, y_high = tr.to_px(1j)
        assert y_high < y_low

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            render_svg(Scene())

    def test_single_point_scene(self):
        svg = render_svg(Scene(point_sequences={"p": [1 + 2j]}))
        (coords,) = _marker_coords(svg, "points-p")
        tr = view_transform(Scene(point_sequences={"p": [1 + 2j]}))
        assert abs(coords[0] - tr.width / 2.0) < 1.0
        assert abs(coords[1] - tr.height / 2.0) < 1.0

    def test_degenerate_polygon_rendered_as_marker(self):
        from ngonspiral.lengthfns import telescoping
        from ngonspiral.spiral import polygon as poly_fn

        pg = poly_fn(telescoping(), 4)
        svg = render_svg(Scene(polygons=[pg], point_sequences={"v": [pg.center]}))
        assert 'class="degenerate"' in svg

    def test_non_finite_rejected(self):
        scene = Scene(point_sequences={"p": [complex(float("inf"), 0.0)]})
        with pytest.raises(ValueError):
            render_svg(scene)


class TestAdaptiveSampling:
    def test_chord_deviation_bound(self):
        circle = lambda t: complex(math.cos(t), math.sin(t))
        px_scale = 100.0
        pts = sample_curve_adaptive(circle, 0.0, 2.0 * math.pi, px_scale)
        assert len(pts) >= 64
        for a, b in zip(pts, pts[1:]):
            # no chord long enough to deviate visibly at this scale
            assert abs(b - a) * px_scale < 40.0

    def test_line_needs_no_refinement(self):
        pts = sample_curve_adaptive(lambda t: complex(t, 0.0), 0.0, 1.0, 100.0, initial=8)
        assert len(pts) == 8


class TestExportTable:
    def test_seed_row_spelling(self):
        text = export_table({"vertices": [(2.0, 0j)]}, "csv")
        assert text.splitlines()[0] == "name,n,re,im"
        assert text.splitlines()[1] == "vertices,2,0,0"

    def test_full_digits_round_trip(self):
        z = complex(1.2171196025655378, 2.6854140487169539)
        text = export_table({"center": [(0.0, z)]}, "csv")
        _, n, re_s, im_s = text.splitlines()[1].split(",")
        assert float(re_s) == z.real
        assert float(im_s) == z.imag

    def test_json_round_trip(self):
        z = complex(0.1, -1.0 / 3.0)
        rows = json.loads(export_table({"w": [(0.5, z)]}, "json"))
        assert rows == [{"name": "w", "n": 0.5, "re": z.real, "im": z.imag}]
        assert rows[0]["im"] == z.imag

    def test_empty_is_header_only(self):
        assert export_table({}, "csv") == "name,n,re,im\n"

    def test_bad_format(self):
        with pytest.raises(ValueError):
            export_table({}, "xml")

    def test_determinism(self):
        data = {"a": [(1.0, 1 + 1j)], "b": [(2.0, 2 - 2j)]}
        assert export_table(data, "csv") == export_table(data, "csv")
        assert export_table(data, "json") == export_table(data, "json")
