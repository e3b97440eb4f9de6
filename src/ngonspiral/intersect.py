"""Self-intersection finder for parametric curves in the complex plane.

Used on the telescoping centers curve C_L(n) (golden-ratio crossing at
(phi, phi+1)) and on Q_L(n) (which passes through the origin at both of
its zeros, n = 4/3 and n = 4).  The method is plain: sample the curve into
a polyline and find the segment pairs that may cross: their bounding
boxes overlap on the sweep axis by a sort and a binary search (the
Shamos-Hoey / Bentley-Ottmann sweep, here only as a box filter), then on
the cross axis by one mask, and only then are the orientation tests run.
Each candidate is polished with a damped two-variable Newton iteration
using a central finite-difference Jacobian.  A candidate Newton cannot
close to the tolerance is dropped.

A curve maps a float parameter to a complex point, the same point for the
same parameter.  It may also map a float array to a complex array of the
same shape, as the closed forms of the telescoping module do; the sample
grid, read-only, is then read in one call.  A curve that raises on the
array, or returns anything else for it, is read one point at a time.
Refinement always calls the curve at single floats, and reports the
readings of its last step rather than reading the curve again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .numerics import _number

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Intersection", "self_intersections"]

# Newton finite-difference step and iteration limits.
_FD_STEP = 1e-6
_NEWTON_ITERS = 60

# Segment pairs the sweep expands and tests per numpy block, so the scan's
# memory stays bounded however many pairs overlap.
_PAIR_BUDGET = 1 << 15

# Hits closer than this in parameter are dropped (nearby parameters always
# nearly meet on a continuous curve) or merged as duplicates.
_SEPARATION = 1e-3

# Largest sample grid self_intersections builds; a finer step is refused
# before anything is allocated.
_MAX_SAMPLES = 10**6

# Most crossing segment pairs a grid may have, at ~30-60 us of Newton each on
# the closed forms' crossings and ~0.3 ms on a coarse Q_L grid's (2-vCPU x86-64
# VM); Q_L at step 1, whose sign flips at every integer, has ~2e6 and is refused.
_MAX_CANDIDATES = 2048


@dataclass(frozen=True)
class Intersection:
    """A parameter pair (a < b) where the curve meets itself.

    ``residual`` is |curve(a) - curve(b)| at the reported parameters:
    within the tolerance, or within the rounding of large parameters.
    """

    a: float
    b: float
    point: complex
    residual: float


def _sample(
    curve: Callable[[float], complex], lo: float, hi: float, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """The grid ts on [lo, hi] and the curve there, read in one call
    ``curve(ts)`` when that gives an array of the grid's shape, else one
    point at a time."""
    import numpy as np

    count = max(2, int(math.ceil((hi - lo) / step)) + 1)
    ts = np.linspace(lo, hi, count)
    ts.flags.writeable = False  # a curve that shifts its parameter in place refuses the array
    try:
        pts = curve(ts)
    except Exception:  # scalar-only, or a real error the loop raises again
        pts = None
    if isinstance(pts, np.ndarray) and pts.shape == ts.shape:
        pts = pts.astype(complex, copy=False)
    else:
        pts = np.array([curve(t) for t in ts.tolist()], dtype=complex)
    bad = np.flatnonzero(~np.isfinite(pts))
    if len(bad):
        i = bad[0]
        raise ValueError(f"curve is not finite at parameter {ts[i]!r}: {complex(pts[i])!r}")
    return ts, pts


def _segments_cross(p0, p1, q0, q1):
    """Whether segments p0-p1 and q0-q1, whose bounding boxes overlap on
    both axes, may meet, elementwise.

    Takes complex scalars or numpy complex arrays.  The orientation tests
    are inclusive (touching counts) so crossings that pass exactly through
    a sample point are not lost.  The caller's box test rejects the
    collinear segments that do not meet, which the orientation tests alone
    accept; for any other pair it rejects nothing the tests pass.
    """
    r = p1 - p0
    s = q1 - q0
    d1 = r.real * (q0.imag - p0.imag) - r.imag * (q0.real - p0.real)
    d2 = r.real * (q1.imag - p0.imag) - r.imag * (q1.real - p0.real)
    d3 = s.real * (p0.imag - q0.imag) - s.imag * (p0.real - q0.real)
    d4 = s.real * (p1.imag - q0.imag) - s.imag * (p1.real - q0.real)
    return (d1 * d2 <= 0.0) & (d3 * d4 <= 0.0)


def _crossing_candidates(pts: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs (i, j), j > i + 1, sorted, whose segments may cross.

    Segments are sorted by their lower end on the sweep axis, the one where
    the samples spread wider, so a straight run along either axis is swept
    along its length.  Each segment is paired with the later ones whose
    extents overlap it on that axis (found by binary search), and those
    pairs are expanded at most ``_PAIR_BUDGET`` at a time.  A pair that is
    adjacent or whose extents miss on the cross axis is dropped by one
    mask; ``_segments_cross`` decides the rest.  Duplicates are cleaned up
    after refinement.  More than ``_MAX_CANDIDATES`` crossing pairs raise
    ``ValueError``.
    """
    import numpy as np

    p0, p1 = pts[:-1], pts[1:]
    x, y = pts.real, pts.imag
    sweep, cross = (x, y) if np.ptp(x) >= np.ptp(y) else (y, x)
    lows = np.minimum(sweep[:-1], sweep[1:])
    order = np.argsort(lows)
    lower, upper = lows[order], np.maximum(sweep[:-1], sweep[1:])[order]
    # each segment's extent on the cross axis, in the same order
    below, above = np.minimum(cross[:-1], cross[1:])[order], np.maximum(cross[:-1], cross[1:])[order]
    # sorted segment k overlaps sorted segments k + 1 .. stop[k] - 1 on the sweep axis
    stop = np.searchsorted(lower, upper, side="right")
    counts = np.maximum(stop - np.arange(len(order)) - 1, 0)
    ends = np.cumsum(counts)
    starts = ends - counts
    firsts, seconds = [], []
    found = 0
    r0 = 0
    while r0 < len(order):
        r1 = max(r0 + 1, int(np.searchsorted(ends, starts[r0] + _PAIR_BUDGET, side="right")))
        c = counts[r0:r1]
        k = np.repeat(np.arange(r0, r1), c)
        m = k + 1 + np.arange(len(k)) - np.repeat(starts[r0:r1] - starts[r0], c)
        ok, om = order[k], order[m]
        i, j = np.minimum(ok, om), np.maximum(ok, om)
        keep = (j > i + 1) & (below[m] <= above[k]) & (below[k] <= above[m])
        i, j = i[keep], j[keep]
        hit = _segments_cross(p0[i], p1[i], p0[j], p1[j])
        firsts.append(i[hit])
        seconds.append(j[hit])
        found += len(firsts[-1])
        if found > _MAX_CANDIDATES:
            raise ValueError(f"the grid crosses itself at more than {_MAX_CANDIDATES} segment pairs: too coarse")
        r0 = r1
    i = np.concatenate(firsts)
    j = np.concatenate(seconds)
    rank = np.lexsort((j, i))
    return list(zip(i[rank].tolist(), j[rank].tolist()))


def _segment_params(
    p0: complex, p1: complex, q0: complex, q1: complex
) -> tuple[float, float]:
    """Parameters (t, u) in [0,1] of the crossing of segments p and q;
    falls back to midpoints when the segments are near-parallel."""
    r = p1 - p0
    s = q1 - q0
    denom = r.real * s.imag - r.imag * s.real
    if denom == 0.0:
        return 0.5, 0.5
    w = q0 - p0
    t = (w.real * s.imag - w.imag * s.real) / denom
    u = (w.real * r.imag - w.imag * r.real) / denom
    return min(max(t, 0.0), 1.0), min(max(u, 0.0), 1.0)


def _newton_refine(
    curve: Callable[[float], complex],
    a: float,
    b: float,
    lo: float,
    hi: float,
    tolerance: float,
) -> tuple[float, float, complex, float] | None:
    """Drive curve(a) - curve(b) to zero by damped Newton: (a, b, midpoint,
    residual) from the curve's last readings at (a, b), or None on failure,
    as where a difference step vanishes in the rounding of a parameter.
    A gap is accepted within the tolerance, or within the rounding of the
    parameters, 4 (ulp(a) |curve'(a)| + ulp(b) |curve'(b)|), where that is
    larger (a large parameter), so the residual may then exceed the tolerance."""

    def slope(t: float) -> complex:
        """curve'(t) as a central difference of step _FD_STEP, clamped to
        [lo, hi]; nan where t +- _FD_STEP rounds back to t."""
        up, down = min(t + _FD_STEP, hi), max(t - _FD_STEP, lo)
        return (curve(up) - curve(down)) / (up - down) if up > down else complex(math.nan)

    pa, pb = curve(a), curve(b)
    g = pa - pb
    within = tolerance
    for _ in range(_NEWTON_ITERS):
        if abs(g) <= within:
            break
        da, db = slope(a), slope(b)
        # the gap the rounding of (a, b) leaves, read by the next check (the
        # tolerance alone where a slope is nan or inf)
        floor = 4.0 * (math.ulp(a) * abs(da) + math.ulp(b) * abs(db))
        within = max(tolerance, floor) if floor < math.inf else tolerance
        # solve [da, -db] [sa, sb]^T = -g as a real 2x2 system
        j11, j21 = da.real, da.imag
        j12, j22 = -db.real, -db.imag
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            break
        sa = (-g.real * j22 + g.imag * j12) / det
        sb = (-j11 * g.imag + j21 * g.real) / det
        damp = 1.0
        for _ in range(20):
            na = min(max(a + damp * sa, lo), hi)
            nb = min(max(b + damp * sb, lo), hi)
            qa, qb = curve(na), curve(nb)
            ng = qa - qb
            if abs(ng) < abs(g):
                a, b, pa, pb, g = na, nb, qa, qb, ng
                break
            damp *= 0.5
        else:
            break  # no damped step reduced the gap
    if not abs(g) <= within:  # a nan gap fails too
        return None
    return a, b, 0.5 * (pa + pb), abs(g)


def self_intersections(
    curve: Callable[[float], complex],
    lo: float,
    hi: float,
    step: float = 1e-3,
    tolerance: float = 1e-10,
) -> list[Intersection]:
    """All detected self-intersections of ``curve`` on [lo, hi].

    The curve is sampled every ``step`` in parameter (in one call if it
    takes an array, see the module docstring), crossing segment pairs seed
    Newton refinement, and results closer than ``_SEPARATION`` in
    parameter, to each other or to the diagonal a = b, are merged or
    dropped; the rest come back sorted by the first parameter.  Where a
    parameter's rounding moves the curve by more than ``tolerance`` (about
    ulp(t) |curve'(t)|, at large t), a crossing is kept within that
    rounding, and its residual may exceed ``tolerance``.  A retraced arc,
    where the curve runs again over a stretch of itself, is no crossing,
    yet it comes back as arbitrary points of the overlap, one per
    surviving candidate pair (the limacon (1 + 2 cos t) e^{it} on
    [0, 6.3] at step 0.01 gives three besides its one crossing).
    Raises ``ValueError`` if any argument after ``curve`` is not finite,
    if the grid would exceed ``_MAX_SAMPLES`` samples, if the curve is
    non-finite anywhere on the sample grid, or if the grid crosses itself
    at more than ``_MAX_CANDIDATES`` segment pairs.
    """
    lo, hi, step, tolerance = (
        float(_number(x, "lo, hi, step and tolerance")) for x in (lo, hi, step, tolerance)
    )
    if not all(map(math.isfinite, (lo, hi, step, tolerance))):
        raise ValueError(
            f"lo, hi, step and tolerance must be finite, got {lo}, {hi}, {step}, {tolerance}"
        )
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    if step <= 0.0 or tolerance <= 0.0:
        raise ValueError("step and tolerance must be positive")
    if (hi - lo) / step > _MAX_SAMPLES - 1:
        raise ValueError(
            f"step {step} on [{lo}, {hi}] needs more than {_MAX_SAMPLES} samples"
        )
    ts, pts = _sample(curve, lo, hi, step)
    found: list[Intersection] = []
    for i, j in _crossing_candidates(pts):
        t0, u0 = _segment_params(pts[i], pts[i + 1], pts[j], pts[j + 1])
        a0 = float(ts[i] + t0 * (ts[i + 1] - ts[i]))
        b0 = float(ts[j] + u0 * (ts[j + 1] - ts[j]))
        refined = _newton_refine(curve, a0, b0, lo, hi, tolerance)
        if refined is None:
            continue
        a, b, point, residual = refined
        if a > b:
            a, b = b, a
        if b - a < _SEPARATION:
            continue
        duplicate = False
        for idx, known in enumerate(found):
            if abs(known.a - a) < _SEPARATION and abs(known.b - b) < _SEPARATION:
                duplicate = True
                if residual < known.residual:
                    found[idx] = Intersection(a, b, point, residual)
                break
        if not duplicate:
            found.append(Intersection(a, b, point, residual))
    found.sort(key=lambda it: (it.a, it.b))
    return found
