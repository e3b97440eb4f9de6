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

    def to_px(self, z: complex) -> tuple[float, float]:
        return (
            (z.real - self.x0) * self.scale,
            HEIGHT - (z.imag - self.y0) * self.scale,
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
    at the given pixels-per-unit scale, or ``_MAX_DEPTH`` bisections.

    The intervals are refined breadth-first, one level at a time, and each
    level's points are read in one call; the output is the points in
    parameter order, as a depth-first walk emits them.  Raises
    ``ValueError``, before any call of fn, unless lo and hi are finite,
    px_scale is finite and positive and initial is an int of at least 2.
    """
    return _sample_levels(lambda ts: [fn(t) for t in ts], lo, hi, px_scale, initial)


def _sample_levels(
    batch: Callable[[list[float]], list[complex]],
    lo: float,
    hi: float,
    px_scale: float,
    initial: int,
) -> list[complex]:
    """sample_curve_adaptive over a curve read a list of parameters at a
    time, ``batch(ts) -> [fn(t) for t in ts]``: at most _MAX_DEPTH calls,
    the first for the initial samples and their midpoints."""
    if not (isinstance(initial, int) and initial >= 2):
        raise ValueError(f"need an int of at least two initial samples, got {initial!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < px_scale < math.inf):
        raise ValueError(f"need finite lo and hi and a finite px_scale > 0, got {lo!r}, {hi!r}, {px_scale!r}")
    tol = _MAX_DEVIATION_PX / px_scale

    ts = [lo + (hi - lo) * i / (initial - 1) for i in range(initial)]
    mids = [0.5 * (t0 + t1) for t0, t1 in zip(ts, ts[1:])]
    zs = batch(ts + mids)
    ends = list(zip(ts, zs))
    # the pending intervals of a level: its two ends and its midpoint, each (t, z)
    level = list(zip(ends, ends[1:], zip(mids, zs[initial:])))
    out = ends[:1]
    for depth in range(_MAX_DEPTH):
        halves = []
        for a, b, m in level:
            if abs(m[1] - 0.5 * (a[1] + b[1])) <= tol:
                out.append(b)
            else:  # a NaN deviation splits too
                halves += ((a, m), (m, b))
        if not halves or depth + 1 == _MAX_DEPTH:
            out += [b for _, b in halves]  # bisected _MAX_DEPTH times: no midpoint read
            break
        mids = [0.5 * (a[0] + b[0]) for a, b in halves]
        level = [(a, b, m) for (a, b), m in zip(halves, zip(mids, batch(mids)))]
    # the points in parameter order, lo to hi
    out.sort(key=lambda p: p[0], reverse=hi < lo)
    return [z for _, z in out]


def export_table(
    named_points: Mapping[str, Sequence[tuple[float, complex]]],
    format: str = "csv",
) -> str:
    """Tabulate named (n, point) rows as CSV or JSON.

    CSV columns are name,n,re,im with 17 significant digits, so parsing the
    text recovers every float bit-exactly; JSON mirrors the same rows.  A
    non-finite number in any row raises ValueError: it is never emitted.
    """
    fmt = format.lower() if isinstance(format, str) else format
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
