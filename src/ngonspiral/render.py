"""Deterministic SVG figures and CSV/JSON point tables.

Scenes collect polygons, named point sequences and named sampled curves;
rendering maps the complex plane onto pixel coordinates with the y axis
pointing up and emits byte-stable SVG 1.1 text.  Tables carry 17
significant digits so every float round-trips exactly.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .spiral import PolygonGeometry

__all__ = [
    "HEIGHT",
    "Scene",
    "ViewTransform",
    "WIDTH",
    "export_table",
    "render_svg",
    "sample_curve_adaptive",
    "view_transform",
]

WIDTH = 900
HEIGHT = 900
_MARGIN_FRACTION = 0.05
_STROKE_WIDTH = 1.2
_MARKER_RADIUS = 2.5
_POLYGON_COLOR = "#444444"
_BACKGROUND = "#ffffff"
_MAX_DEVIATION_PX = 0.2
_MAX_DEPTH = 12

_SERIES_COLORS = (
    "#1f6fb2",
    "#c23b22",
    "#2e8b57",
    "#8a2be2",
    "#b8860b",
    "#d81b60",
)


@dataclass(frozen=True)
class Scene:
    """Renderable content: polygons, named point sets, named curves."""

    polygons: Sequence[PolygonGeometry] = ()
    point_sequences: Mapping[str, Sequence[complex]] = field(default_factory=dict)
    curves: Mapping[str, Sequence[complex]] = field(default_factory=dict)

    def all_points(self) -> list[complex]:
        pts: list[complex] = []
        for poly in self.polygons:
            pts.extend(poly.vertices)
            pts.append(poly.center)
        for seq in self.point_sequences.values():
            pts.extend(seq)
        for seq in self.curves.values():
            pts.extend(seq)
        return pts


@dataclass(frozen=True)
class ViewTransform:
    """Affine map from the complex plane to pixel coordinates (y up)."""

    x0: float
    y0: float
    scale: float
    width: int
    height: int

    def to_px(self, z: complex) -> tuple[float, float]:
        return (
            (z.real - self.x0) * self.scale,
            self.height - (z.imag - self.y0) * self.scale,
        )

    def to_complex(self, px: float, py: float) -> complex:
        return complex(
            self.x0 + px / self.scale,
            self.y0 + (self.height - py) / self.scale,
        )


def view_transform(scene: Scene) -> ViewTransform:
    """Fit the scene with a 5% margin into the WIDTH x HEIGHT pixel box,
    preserving aspect ratio."""
    pts = scene.all_points()
    if not pts:
        raise ValueError("cannot render an empty scene")
    xs = [p.real for p in pts]
    ys = [p.imag for p in pts]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    for v in (x_min, x_max, y_min, y_max):
        if not math.isfinite(v):
            raise ValueError("scene contains non-finite coordinates")
    span_x = x_max - x_min
    span_y = y_max - y_min
    pad = _MARGIN_FRACTION * max(span_x, span_y, 1e-9)
    x_min -= pad
    x_max += pad
    y_min -= pad
    y_max += pad
    span_x = x_max - x_min
    span_y = y_max - y_min
    scale = min(WIDTH / span_x, HEIGHT / span_y)
    # center the content inside the pixel box
    extra_x = WIDTH / scale - span_x
    extra_y = HEIGHT / scale - span_y
    return ViewTransform(
        x0=x_min - extra_x / 2.0,
        y0=y_min - extra_y / 2.0,
        scale=scale,
        width=WIDTH,
        height=HEIGHT,
    )


def _fmt(v: float) -> str:
    return f"{v:.9f}"


def render_svg(scene: Scene) -> str:
    """Serialize the scene as SVG 1.1 text; identical scenes give identical
    bytes.  Point markers carry enough digits to invert to their source
    coordinates far below pixel resolution."""
    tr = view_transform(scene)
    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="{_BACKGROUND}"/>'
    )
    for poly in scene.polygons:
        if poly.degenerate:
            px, py = tr.to_px(poly.center)
            out.append(
                f'<circle class="degenerate" cx="{_fmt(px)}" cy="{_fmt(py)}" '
                f'r="{_fmt(_MARKER_RADIUS)}" fill="{_POLYGON_COLOR}"/>'
            )
            continue
        coords = " ".join(
            f"{_fmt(px)},{_fmt(py)}"
            for px, py in (tr.to_px(v) for v in poly.vertices)
        )
        out.append(
            f'<polygon class="ngon ngon-{poly.n}" points="{coords}" fill="none" '
            f'stroke="{_POLYGON_COLOR}" stroke-width="{_fmt(_STROKE_WIDTH)}"/>'
        )
    for idx, (name, seq) in enumerate(scene.curves.items()):
        if not seq:
            continue
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        coords = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (tr.to_px(z) for z in seq)
        )
        out.append(
            f'<polyline id="curve-{name}" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="{_fmt(_STROKE_WIDTH)}"/>'
        )
    for idx, (name, seq) in enumerate(scene.point_sequences.items()):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        out.append(f'<g id="points-{name}" fill="{color}">')
        for z in seq:
            px, py = tr.to_px(z)
            out.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                f'r="{_fmt(_MARKER_RADIUS)}"/>'
            )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def sample_curve_adaptive(
    fn: Callable[[float], complex],
    lo: float,
    hi: float,
    px_scale: float,
    initial: int = 64,
) -> list[complex]:
    """Sample fn on [lo, hi], subdividing until the midpoint of every
    parameter interval deviates from its chord by under ``_MAX_DEVIATION_PX``
    at the given pixels-per-unit scale, or ``_MAX_DEPTH`` bisections."""
    if initial < 2:
        raise ValueError("need at least two initial samples")
    tol = _MAX_DEVIATION_PX / px_scale

    params = [lo + (hi - lo) * i / (initial - 1) for i in range(initial)]
    values = [fn(t) for t in params]
    out_z: list[complex] = []

    def refine(t0: float, z0: complex, t1: float, z1: complex, depth: int) -> None:
        tm = 0.5 * (t0 + t1)
        zm = fn(tm)
        if depth >= _MAX_DEPTH or abs(zm - 0.5 * (z0 + z1)) <= tol:
            out_z.append(z1)
            return
        refine(t0, z0, tm, zm, depth + 1)
        refine(tm, zm, t1, z1, depth + 1)

    out_z.append(values[0])
    for i in range(len(params) - 1):
        refine(params[i], values[i], params[i + 1], values[i + 1], 0)
    return out_z


def export_table(
    named_points: Mapping[str, Sequence[tuple[float, complex]]],
    format: str = "csv",
) -> str:
    """Tabulate named (n, point) rows as CSV or JSON.

    CSV columns are name,n,re,im with 17 significant digits, so parsing the
    text recovers every float bit-exactly; JSON mirrors the same rows.  A
    non-finite number in any row raises ValueError: it is never emitted.
    """
    fmt = format.lower()
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    rows = []
    for name, seq in named_points.items():
        for n, z in seq:
            if not (math.isfinite(n) and cmath.isfinite(z)):
                raise ValueError(f"non-finite value in row {name},{n:g}: {z}")
            rows.append((name, float(n), z))
    if fmt == "json":
        return json.dumps(
            [
                {"name": name, "n": n, "re": z.real, "im": z.imag}
                for name, n, z in rows
            ],
            indent=2,
        )
    lines = ["name,n,re,im"]
    for name, n, z in rows:
        lines.append(f"{name},{n:.17g},{z.real:.17g},{z.imag:.17g}")
    return "\n".join(lines) + "\n"
