"""Scene assembly for the standard figures.

Each builder returns (scene, tables): the scene renders to SVG, the tables
are the named point rows echoed by the CLI in the CSV/JSON schema.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import telescoping as tele
from .convergence import CurveSample, convergence_curve, orbit_center
from .lengthfns import LengthFunction, power_law, telescoping as telescoping_fn
from .numerics import AccelerationSettings
from .render import Scene, Style, sample_curve_adaptive
from .spiral import interpolated_vertex, polygon_from_vertex, vertex_at

__all__ = [
    "fig_orbit",
    "fig_q",
    "fig_spiral",
    "fig_telescope",
    "fig_wcurve",
]

Tables = dict[str, list[tuple[float, complex]]]


def _px_scale_guess(points: Sequence[complex], style: Style) -> float:
    xs = [p.real for p in points]
    ys = [p.imag for p in points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    return style.width / span


def fig_spiral(
    f: LengthFunction,
    max_n: int,
    settings: AccelerationSettings | None = None,
    with_interpolant: bool = True,
) -> tuple[Scene, Tables]:
    """Polygons 3..max_n with shared vertices and the smooth interpolant."""
    if max_n < 3:
        raise ValueError(f"max_n must be >= 3, got {max_n}")
    settings = settings or AccelerationSettings(target_tolerance=1e-9)
    verts = vertex_at(f, range(2, max_n + 1))
    polys = [polygon_from_vertex(f, n, verts[n]) for n in range(3, max_n + 1)]
    vert_rows = [(float(n), verts[n]) for n in range(2, max_n + 1)]
    center_rows = [(float(p.n), p.center) for p in polys]
    style = Style()
    curves = {}
    if with_interpolant:
        scale = _px_scale_guess([z for _, z in vert_rows], style)

        def interp(t: float) -> complex:
            return interpolated_vertex(f, t, settings).value

        curves["interpolant"] = sample_curve_adaptive(
            interp, 2.0, float(max_n), scale, initial=16 * (max_n - 1)
        )
    scene = Scene(
        polygons=polys,
        point_sequences={"vertices": [z for _, z in vert_rows]},
        curves=curves,
        style=style,
    )
    return scene, {"vertices": vert_rows, "centers": center_rows}


def fig_orbit(
    settings: AccelerationSettings | None = None,
    max_polygon: int = 10,
    max_vertex: int = 140,
) -> tuple[Scene, Tables]:
    """The s = 0 spiral: vertices accumulating on the diameter-1 circle."""
    settings = settings or AccelerationSettings(target_tolerance=1e-9)
    f = power_law(0.0)
    verts = vertex_at(f, range(2, max(max_polygon, max_vertex) + 1))
    polys = [polygon_from_vertex(f, n, verts[n]) for n in range(3, max_polygon + 1)]
    vert_rows = [(float(n), verts[n]) for n in range(2, max_vertex + 1)]
    oc = orbit_center(settings)
    circle = [
        oc.value + 0.5 * complex(math.cos(a), math.sin(a))
        for a in (2.0 * math.pi * i / 256 for i in range(257))
    ]
    style = Style()
    scale = _px_scale_guess([z for _, z in vert_rows], style)

    def interp(t: float) -> complex:
        return interpolated_vertex(f, t, settings).value

    scene = Scene(
        polygons=polys,
        point_sequences={
            "vertices": [z for _, z in vert_rows],
            "orbit-center": [oc.value],
        },
        curves={
            "interpolant": sample_curve_adaptive(
                interp, 2.0, float(max_vertex), scale, initial=8 * max_vertex
            ),
            "orbit-circle": circle,
        },
        style=style,
    )
    tables: Tables = {
        "vertices": vert_rows,
        "orbit-center": [(0.0, oc.value)],
    }
    return scene, tables


def fig_wcurve(
    s_min: float,
    s_max: float,
    samples: int,
    settings: AccelerationSettings | None = None,
) -> tuple[Scene, Tables, list[CurveSample]]:
    """The curve of convergence points W(s) for s in [s_min, s_max]."""
    settings = settings or AccelerationSettings(target_tolerance=1e-10)
    picked = convergence_curve(s_min, s_max, samples, settings)
    dense = convergence_curve(s_min, s_max, max(4 * samples, 64), settings)
    scene = Scene(
        point_sequences={"W": [c.result.value for c in picked]},
        curves={"W-curve": [c.result.value for c in dense]},
    )
    tables: Tables = {"W": [(c.s, c.result.value) for c in picked]}
    return scene, tables, picked


def fig_telescope(
    max_n: int = 12,
    centers_from: float = 1.05,
    settings: AccelerationSettings | None = None,
) -> tuple[Scene, Tables]:
    """The telescoping spiral up to max_n with the continued centers curve."""
    if max_n < 3:
        raise ValueError(f"max_n must be >= 3, got {max_n}")
    f = telescoping_fn()
    verts = vertex_at(f, range(2, max_n + 1))
    polys = [polygon_from_vertex(f, n, verts[n]) for n in range(3, max_n + 1)]
    vert_rows = [(float(n), verts[n]) for n in range(2, max_n + 1)]
    center_rows = [(float(p.n), p.center) for p in polys]
    style = Style()
    scale = _px_scale_guess([z for _, z in vert_rows], style)
    centers_curve = sample_curve_adaptive(
        tele.center_closed, centers_from, float(max_n), scale, initial=48 * max_n
    )
    scene = Scene(
        polygons=polys,
        point_sequences={
            "vertices": [z for _, z in vert_rows],
            "centers": [z for _, z in center_rows],
        },
        curves={"centers-curve": centers_curve},
        style=style,
    )
    return scene, {"vertices": vert_rows, "centers": center_rows}


def fig_q(
    lo: float = 1.02,
    hi: float = 35.0,
    settings: AccelerationSettings | None = None,
) -> tuple[Scene, Tables]:
    """The center-offset spiral Q_L(n) on [lo, hi]."""
    marker_rows = [(float(n), tele.q_closed(float(n))) for n in range(2, int(hi) + 1)]
    style = Style()
    scale = _px_scale_guess([z for _, z in marker_rows], style)
    curve = sample_curve_adaptive(tele.q_closed, lo, hi, scale, initial=2048)
    scene = Scene(
        point_sequences={"q": [z for _, z in marker_rows]},
        curves={"q-curve": curve},
        style=style,
    )
    return scene, {"q": marker_rows}
