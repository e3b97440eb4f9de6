"""Limit behavior of the vertex sequence: point, circular orbit, or divergence.

Every limit here is one series over a catalog length function f = l,

    G_f = sum_{k>=3} (-1)^k l(k) e^{2 pi i (1/k - 2 H_k)},

summed by spiral._limit_series as one CVZ weighted sum of ~25-40 terms,
whose phases u(k) come from one table shared by every family (the spiral
turns alike whatever its sides), so each limit costs its l(k) and products.
For l(k) = k^-s it is W(s), a point for s > 0.  For sides tending to a
nonzero constant (exponent 0) it diverges by oscillation, and its
regularised sum (CVZ, like Euler's, is a regular method) is the orbit
center; at s = 0 that is
lim_{s->0+} W(s).  Growing sides diverge.  The class is decided from the
catalog's asymptotic exponent, never by watching partial sums fail.  The
paper's absolute-convergence argument (the paired terms F(j), their
bounds A(j, s) and B(j)) is checked in the tests only.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple, Union

from .lengthfns import LengthFunction, power_law
from .numerics import (_DEFAULT_SETTINGS, TWO_PI, AccelerationSettings, SummationResult, _index,
                        _number, _refuse)
from .spiral import _limit_series, vertex_at

__all__ = [
    "CircularOrbit",
    "ConvergenceClass",
    "CurveSample",
    "Divergent",
    "Point",
    "classify",
    "convergence_curve",
    "limit_point",
    "orbit_center",
    "orbit_distance_law",
]

# Largest convergence_curve grid (one accelerated limit, ~30 us, per sample,
# 2,500 samples on [1e-8, 30], 2-vCPU x86-64 VM).
_MAX_CURVE_SAMPLES = 10**4


@dataclass(frozen=True)
class Point:
    """Vertex sequence converges to a single point."""

    value: complex
    error_estimate: float
    converged: bool


@dataclass(frozen=True)
class CircularOrbit:
    """Vertex sequence accumulates on a circle instead of a point."""

    center: complex
    radius: float
    converged: bool


@dataclass(frozen=True)
class Divergent:
    """Vertex sequence has no bounded limit set."""

    reason: str


ConvergenceClass = Union[Point, CircularOrbit, Divergent]


@functools.lru_cache(maxsize=64)
def _orbit_settings(settings: AccelerationSettings) -> AccelerationSettings:
    """``settings`` with the tolerance tightened to 1e-12 (see orbit_center), kept per settings."""
    return replace(settings, target_tolerance=min(settings.target_tolerance, 1e-12))


def limit_point(
    s: float, settings: AccelerationSettings | None = None
) -> SummationResult:
    """W(s) for s > 0, the limit point of the power-law spiral.

    A tolerance not met within ``settings.max_terms`` gives a not-converged
    result carrying the best estimate, which callers must check.
    """
    s = _number(s, "s")
    if not s > 0.0:
        raise ValueError(f"limit_point requires s > 0, got {s}")
    return _limit_series(power_law(s), settings or _DEFAULT_SETTINGS)


def orbit_center(settings: AccelerationSettings | None = None) -> SummationResult:
    """Center of the s = 0 orbit: W(0) summed in the regularised sense,
    which equals lim_{s -> 0+} W(s).

    The tolerance is tightened to at least 1e-12: the center is a constant
    reported to ~13 digits, and ~31 terms reach 1e-12, so a looser sum
    would lose digits for no saving.
    """
    return _limit_series(power_law(0.0), _orbit_settings(settings or _DEFAULT_SETTINGS))


def classify(
    f: LengthFunction, settings: AccelerationSettings | None = None
) -> ConvergenceClass:
    """Limit behavior of V_f(n) as n grows, decided from the asymptote.

    Positive exponent: the series converges absolutely after pairing, to
    the point G_f.  Exponent zero (side lengths tending to a nonzero
    constant c): the even-indexed vertices trace the circle of radius c/2
    around the regularised G_f, summed at orbit_center's tolerance.
    Negative exponent: the terms grow, so the sequence diverges.  Point and
    CircularOrbit carry the sum's convergence flag.
    """
    settings = settings or _DEFAULT_SETTINGS
    asym = f.asymptote()
    if asym.exponent < 0.0:
        return Divergent(
            "terms do not approach 0: side lengths grow like "
            f"n^{-asym.exponent:g}"
        )
    if asym.exponent > 0.0:
        res = _limit_series(f, settings)
        return Point(res.value, res.error_estimate, res.converged)
    res = _limit_series(f, _orbit_settings(settings))
    return CircularOrbit(res.value, 0.5 * asym.scale, res.converged)


def orbit_distance_law(
    r: float, n: int
) -> tuple[float, float]:
    """Empirical versus predicted distance between orbit points U(nr), U(n).

    U(m) = V(PowerLaw{0}, 2m); the prediction is |sin(2 pi ln r)|.  Requires
    finite n >= 10 and r >= 1 with n*r finite and integral (within 1e-9).  One
    vertex_at call reads both vertices, each in O(1) once nr is above 1,024
    and more than 32 past n, U(n) too for n above 257.
    """
    r, n = _number(r, "r"), n if isinstance(n, int) else _number(n)  # a larger int n: see n*r
    if not 10 <= n < math.inf:
        raise ValueError(f"orbit_distance_law requires a finite n >= 10, got {n}")
    if not 1.0 <= r < math.inf:
        raise ValueError(f"orbit_distance_law requires a finite r >= 1, got {r}")
    nr = n * r if n <= sys.float_info.max else math.inf  # a larger int n raises in n * r
    if not nr < math.inf:
        raise ValueError(f"orbit_distance_law requires a finite n*r, got n = {n}, r = {r}")
    if abs(nr - round(nr)) > 1e-9:
        raise ValueError(f"n*r must be integral, got {nr}")
    m = int(round(nr))
    predicted = abs(math.sin(TWO_PI * math.log(r)))
    if m == n:
        return 0.0, predicted
    f0 = power_law(0.0)
    v = vertex_at(f0, (2 * n, 2 * m))
    return abs(v[2 * m] - v[2 * n]), predicted


class CurveSample(NamedTuple):
    """One (s, W(s)) sample of the convergence-point curve."""

    s: float
    result: SummationResult


def convergence_curve(
    s_min: float,
    s_max: float,
    samples: int,
    settings: AccelerationSettings | None = None,
) -> list[CurveSample]:
    """W(s) along a uniform grid of ``samples`` points on [s_min, s_max].

    Non-converged samples stay in the list with their flag set; nothing is
    dropped.  A single sample degenerates to limit_point at s_min.  More
    than ``_MAX_CURVE_SAMPLES`` samples raise ``ValueError`` before any work.
    """
    s_min, s_max = float(_number(s_min, "s_min")), float(_number(s_max, "s_max"))
    if not 0.0 < s_min <= s_max < math.inf:
        raise ValueError(f"need 0 < s_min <= s_max with s_max finite, got [{s_min}, {s_max}]")
    message = f"samples must be an integer in [1, {_MAX_CURVE_SAMPLES}], got {{}}"
    samples = _index(samples, message)
    _refuse(not 1 <= samples <= _MAX_CURVE_SAMPLES, samples, message)
    settings = settings or _DEFAULT_SETTINGS
    step = (s_max - s_min) / (samples - 1) if samples > 1 else 0.0
    grid = (s_min + i * step for i in range(samples))
    return [CurveSample(s, limit_point(s, settings)) for s in grid]
