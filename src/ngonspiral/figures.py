"""Scene assembly for the standard figures.

Each builder returns (scene, tables): the scene renders to SVG, the tables
are the named point rows echoed by the CLI in the CSV/JSON schema.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from . import telescoping as tele
from .convergence import CurveSample, convergence_curve, orbit_center
from .lengthfns import LengthFunction, power_law, telescoping as telescoping_fn
from .numerics import AccelerationSettings, _index
from .render import WIDTH, Scene, _sample_levels, sample_curve_adaptive
from .spiral import _FLOAT_STEPS, PolygonGeometry, continuation, polygon_from_vertex, vertex_at

__all__ = [
    "fig_orbit",
    "fig_q",
    "fig_spiral",
    "fig_telescope",
    "fig_wcurve",
]

Tables = dict[str, list[tuple[float, complex]]]

# Largest polygon a figure draws: memory grows with the square of max_n (at
# 2,000 fig_spiral peaks near 125 MB in ~0.6 s, and `spiral build` near 310 MB
# in ~4 s with its 55 MB SVG; 2-vCPU x86-64 VM), so more is refused.
_MAX_POLYGON = 2000


def _px_scale_guess(points: Sequence[complex]) -> float:
    xs = [p.real for p in points]
    ys = [p.imag for p in points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    return WIDTH / span


def _spiral(
    f: LengthFunction, max_polygon: int, max_vertex: int
) -> tuple[list[PolygonGeometry], list[tuple[float, complex]], float]:
    """Polygons 3..max_polygon and vertex rows 2..max_vertex from one vertex
    stream, with a pixel scale fitted to the vertices."""
    if max_polygon < 3:
        raise ValueError(f"max_n must be >= 3, got {max_polygon}")
    if max_polygon > _MAX_POLYGON:
        raise ValueError(f"max_n must be <= {_MAX_POLYGON}, got {max_polygon}")
    verts = vertex_at(f, range(2, max(max_polygon, max_vertex) + 1))
    polys = [polygon_from_vertex(f, n, verts[n]) for n in range(3, max_polygon + 1)]
    vert_rows = [(float(n), verts[n]) for n in range(2, max_vertex + 1)]
    return polys, vert_rows, _px_scale_guess([z for _, z in vert_rows])


def _curve(fn: Callable, max_n: int) -> Callable[[list[float]], list[complex]]:
    """A figure's curve read a list at a time, ts -> [fn(t) for t in ts]: one
    float at a time, without numpy, when every polygon of the figure takes
    the float steps (max_n <= spiral._FLOAT_STEPS), else fn at the whole list,
    whose entries carry the float calls' bits.  fig2's 269 interpolant
    points take ~11-14 ms one at a time and fig4a's 1,717 centers ~7 ms,
    less than numpy's import (~70-85 ms), but orbit's 8,785 take ~250-310 ms,
    against ~25-45 ms as arrays (2-vCPU x86-64 VM)."""
    if max_n <= _FLOAT_STEPS:
        return lambda ts: [fn(t) for t in ts]
    return lambda ts: fn(ts).tolist()


def _interpolant(f: LengthFunction, settings: AccelerationSettings, max_n: int) -> Callable:
    """The smooth spiral to max_n read a list at a time (_curve), with G_f read
    once for the whole curve (summed once per family and settings, by
    continuation())."""
    v = continuation(f, settings)
    return _curve(lambda t: v(t).value, max_n)


def fig_spiral(
    f: LengthFunction,
    max_n: int,
    settings: AccelerationSettings | None = None,
    with_interpolant: bool = True,
) -> tuple[Scene, Tables]:
    """Polygons 3..max_n with shared vertices and the smooth interpolant; up
    to max_n = 16 its vertices, rings and curve take the float steps, so fig2
    (max_n = 9) never imports numpy."""
    max_n = _index(max_n, "max_n must be an integer, got {}")
    polys, vert_rows, scale = _spiral(f, max_n, max_n)
    settings = settings or AccelerationSettings(target_tolerance=1e-9)
    curves = {}
    if with_interpolant:
        curves["interpolant"] = _sample_levels(
            _interpolant(f, settings, max_n), 2.0, float(max_n), scale, initial=16 * (max_n - 1)
        )
    scene = Scene(
        polygons=polys,
        point_sequences={"vertices": [z for _, z in vert_rows]},
        curves=curves,
    )
    center_rows = [(float(p.n), p.center) for p in polys]
    return scene, {"vertices": vert_rows, "centers": center_rows}


def fig_orbit(settings: AccelerationSettings | None = None) -> tuple[Scene, Tables]:
    """The s = 0 spiral: vertices accumulating on the diameter-1 circle."""
    settings = settings or AccelerationSettings(target_tolerance=1e-9)
    f = power_law(0.0)
    polys, vert_rows, scale = _spiral(f, 10, 140)
    oc = orbit_center(settings)
    circle = [
        oc.value + 0.5 * complex(math.cos(a), math.sin(a))
        for a in (2.0 * math.pi * i / 256 for i in range(257))
    ]
    scene = Scene(
        polygons=polys,
        point_sequences={
            "vertices": [z for _, z in vert_rows],
            "orbit-center": [oc.value],
        },
        curves={
            "interpolant": _sample_levels(
                _interpolant(f, settings, 140), 2.0, 140.0, scale, initial=8 * 140
            ),
            "orbit-circle": circle,
        },
    )
    return scene, {"vertices": vert_rows, "orbit-center": [(0.0, oc.value)]}


def fig_wcurve(
    s_min: float,
    s_max: float,
    samples: int,
    settings: AccelerationSettings | None = None,
) -> tuple[Scene, Tables, list[CurveSample]]:
    """The curve of convergence points W(s) for s in [s_min, s_max]."""
    settings = settings or AccelerationSettings(target_tolerance=1e-10)
    # dense grid first, so its size cap refuses before any sample is computed
    dense = convergence_curve(s_min, s_max, max(4 * samples, 64), settings)
    picked = convergence_curve(s_min, s_max, samples, settings)
    scene = Scene(
        point_sequences={"W": [c.result.value for c in picked]},
        curves={"W-curve": [c.result.value for c in dense]},
    )
    tables: Tables = {"W": [(c.s, c.result.value) for c in picked]}
    return scene, tables, picked


def fig_telescope(max_n: int = 12) -> tuple[Scene, Tables]:
    """The telescoping spiral up to max_n with the continued centers curve,
    read one float at a time up to max_n = 16 (_curve): the default figure
    (fig4a, max_n = 12) never imports numpy."""
    max_n = _index(max_n, "max_n must be an integer, got {}")
    polys, vert_rows, scale = _spiral(telescoping_fn(), max_n, max_n)
    center_rows = [(float(p.n), p.center) for p in polys]
    centers_curve = _sample_levels(
        _curve(tele.center_closed, max_n), 1.05, float(max_n), scale, initial=48 * max_n
    )
    scene = Scene(
        polygons=polys,
        point_sequences={
            "vertices": [z for _, z in vert_rows],
            "centers": [z for _, z in center_rows],
        },
        curves={"centers-curve": centers_curve},
    )
    return scene, {"vertices": vert_rows, "centers": center_rows}


def fig_q() -> tuple[Scene, Tables]:
    """The center-offset spiral Q_L(n) on [1.02, 35], read one float at a
    time whatever its size, as the small figures' curves are (_curve):
    `spiral telescope --fig q` never imports numpy."""
    marker_rows = [(float(n), tele.q_closed(float(n))) for n in range(2, 36)]
    scale = _px_scale_guess([z for _, z in marker_rows])
    curve = sample_curve_adaptive(tele.q_closed, 1.02, 35.0, scale, initial=2048)
    scene = Scene(
        point_sequences={"q": [z for _, z in marker_rows]},
        curves={"q-curve": curve},
    )
    return scene, {"q": marker_rows}
