"""Limit behavior of the vertex sequence: point, circular orbit, or divergence.

For the power-law family the limit of V(n) is the alternating exponential
sum

    W(s) = sum_{k>=3} (-1)^k e^{2 pi i (1/k - 2 H_k)} / k^s,

convergent to a point for s > 0, to a circular orbit of diameter 1 for
s = 0, and divergent for s < 0.  Classification is decided analytically
from the catalog's asymptotic exponent, never by watching partial sums
fail.  The bound functions A(j, s) and B(j) and the paired terms F(j)
underlying the absolute-convergence argument are exposed as testable
numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

from .lengthfns import LengthFunction, power_law
from .numerics import (
    TWO_PI,
    AccelerationSettings,
    SummationResult,
    Strategy,
    harmonic_number,
    head_tail_sum,
    richardson,
)
from .spiral import harmonic_phases, unit_phase, vertex_at

__all__ = [
    "CircularOrbit",
    "ConvergenceClass",
    "CurveSample",
    "Divergent",
    "PairedSeriesTerm",
    "Point",
    "bound_A",
    "bound_B",
    "classify",
    "convergence_curve",
    "limit_point",
    "orbit_center",
    "orbit_distance_law",
    "paired_term",
    "paired_terms",
]

# Surrogate grid for the one-sided s -> 0+ limit of W(s).
_ORBIT_S_GRID = (1e-6, 1e-7, 1e-8)
_ORBIT_CONSISTENCY = 1e-7
# Largest convergence_curve grid (one accelerated limit, ~0.5 ms, per sample).
_MAX_CURVE_SAMPLES = 10**4


@dataclass(frozen=True)
class Point:
    """Vertex sequence converges to a single point."""

    value: complex
    error_estimate: float


@dataclass(frozen=True)
class CircularOrbit:
    """Vertex sequence accumulates on a circle instead of a point."""

    center: complex
    radius: float


@dataclass(frozen=True)
class Divergent:
    """Vertex sequence has no bounded limit set."""

    reason: str


ConvergenceClass = Union[Point, CircularOrbit, Divergent]


class PairedSeriesTerm(NamedTuple):
    """Consecutive-pair term F(j) of the accelerated power-law series."""

    j: int
    value: complex


def limit_point(
    s: float, settings: AccelerationSettings | None = None
) -> SummationResult:
    """W(s) for s > 0: a direct head, then the tail by Euler transform
    (default) or the paired/direct strategies carried in ``settings``.

    The Euler route reaches ~1e-13; the paired and direct routes decay like
    powers of the term count and will report not-converged at tight
    tolerances, which callers must check.
    """
    if not s > 0.0:
        raise ValueError(f"limit_point requires s > 0, got {s}")
    terms = (fk * k ** (-s) for k, _, fk in harmonic_phases())
    return head_tail_sum(terms, settings or AccelerationSettings())


def paired_terms(s: float) -> Iterator[PairedSeriesTerm]:
    """F(j) = f(2j)/(2j)^s - f(2j-1)/(2j-1)^s for j = 2, 3, ...

    Both phases come from the harmonic_phases() stream, so streaming N
    terms costs O(N), not O(N^2).
    """
    phases = harmonic_phases()
    for j, ((k_odd, _, f_odd), (k_even, _, f_even)) in enumerate(zip(phases, phases), 2):
        yield PairedSeriesTerm(
            j, f_even * k_even ** (-s) - f_odd * k_odd ** (-s)
        )


def paired_term(j: int, s: float) -> PairedSeriesTerm:
    """Single paired term F(j), j >= 2, s >= 0."""
    if j < 2:
        raise ValueError(f"paired_term requires j >= 2, got {j}")
    if s < 0.0:
        raise ValueError(f"paired_term requires s >= 0, got {s}")
    h_odd = harmonic_number(2 * j - 1)
    f_odd = unit_phase(float(2 * j - 1), h_odd)
    f_even = unit_phase(float(2 * j), h_odd + 1.0 / (2 * j))
    return PairedSeriesTerm(
        j, f_even * (2 * j) ** (-s) - f_odd * (2 * j - 1) ** (-s)
    )


def bound_A(j: int, s: float) -> float:
    """A(j, s) = (2j-1)(1 - (1 - 1/(2j))^s); strictly inside (0, s).

    Written via expm1/log1p so the cancellation at large j costs nothing.
    """
    if j < 2:
        raise ValueError(f"bound_A requires j >= 2, got {j}")
    return -(2 * j - 1) * math.expm1(s * math.log1p(-1.0 / (2 * j)))


def bound_B(j: int) -> float:
    """B(j) = 2(2j-1) sin(pi (1/(2j-1) + 1/(2j))); increasing toward 4 pi."""
    if j < 2:
        raise ValueError(f"bound_B requires j >= 2, got {j}")
    x = math.pi * (1.0 / (2 * j - 1) + 1.0 / (2 * j))
    return 2.0 * (2 * j - 1) * math.sin(x)


def orbit_center(settings: AccelerationSettings | None = None) -> SummationResult:
    """Center of the s = 0 circular orbit, lim_{s -> 0+} W(s).

    W(s) is linear in s near zero to very high accuracy (the measured slope
    is about -1.32 - 3.77i), so the raw surrogate W(1e-8) sits ~4e-8 from
    the limit.  The limit is therefore realized by Richardson extrapolation
    over s in {1e-6, 1e-7, 1e-8}, with a consistency check that the
    stage-one extrapolants and the surrogate all fall within 1e-7 of the
    extrapolated value.
    """
    settings = settings or AccelerationSettings()
    tight = AccelerationSettings(
        target_tolerance=min(settings.target_tolerance, 1e-12),
        max_terms=settings.max_terms,
        strategy=Strategy.EULER_TRANSFORM,
    )
    results = [limit_point(s, tight) for s in _ORBIT_S_GRID]
    values = [r.value for r in results]
    extrapolated = richardson(values, ratio=10.0)
    stage_one = [
        (10.0 * values[i + 1] - values[i]) / 9.0 for i in range(len(values) - 1)
    ]
    consistent = all(
        abs(v - extrapolated) <= _ORBIT_CONSISTENCY for v in stage_one
    ) and abs(values[-1] - extrapolated) <= _ORBIT_CONSISTENCY
    converged = consistent and all(r.converged for r in results)
    err = max(
        max(r.error_estimate for r in results),
        max(abs(v - extrapolated) for v in stage_one),
    )
    return SummationResult(
        value=extrapolated,
        error_estimate=err,
        converged=converged,
        terms_used=sum(r.terms_used for r in results),
    )


def classify(
    f: LengthFunction, settings: AccelerationSettings | None = None
) -> ConvergenceClass:
    """Limit behavior of V_f(n) as n grows, decided from the asymptote.

    Positive exponent: the series converges absolutely after pairing, to a
    point evaluated by acceleration.  Exponent zero (side lengths tending
    to a nonzero constant c): the even-indexed vertices trace the circle of
    radius c/2 around c * lim W(s) + p, where p is the convergent limit of
    the residual series with c subtracted from every side length.  Negative
    exponent: the terms grow, so the sequence diverges.
    """
    settings = settings or AccelerationSettings()
    asym = f.asymptote()
    if asym.exponent < 0.0:
        return Divergent(
            "terms do not approach 0: side lengths grow like "
            f"n^{-asym.exponent:g}"
        )
    lf = f.as_callable()
    if asym.exponent > 0.0:
        terms = (fk * lf(float(k)) for k, _, fk in harmonic_phases())
        res = head_tail_sum(terms, settings)
        return Point(value=res.value, error_estimate=res.error_estimate)
    c = asym.scale
    base = orbit_center(settings)
    terms = (fk * (lf(float(k)) - c) for k, _, fk in harmonic_phases())
    residual = head_tail_sum(terms, settings)
    return CircularOrbit(center=c * base.value + residual.value, radius=0.5 * c)


def orbit_distance_law(
    r: float, n: int
) -> tuple[float, float]:
    """Empirical versus predicted distance between orbit points U(nr), U(n).

    U(m) = V(PowerLaw{0}, 2m); the prediction is |sin(2 pi ln r)|.  Requires
    n >= 10 and n*r integral (within 1e-9).
    """
    if n < 10:
        raise ValueError(f"orbit_distance_law requires n >= 10, got {n}")
    if r < 1.0:
        raise ValueError(f"orbit_distance_law requires r >= 1, got {r}")
    nr = n * r
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
    if not 0.0 < s_min <= s_max:
        raise ValueError(f"need 0 < s_min <= s_max, got [{s_min}, {s_max}]")
    if not 1 <= samples <= _MAX_CURVE_SAMPLES:
        raise ValueError(f"samples must be in [1, {_MAX_CURVE_SAMPLES}], got {samples}")
    settings = settings or AccelerationSettings()
    step = (s_max - s_min) / (samples - 1) if samples > 1 else 0.0
    grid = (s_min + i * step for i in range(samples))
    return [CurveSample(s, limit_point(s, settings)) for s in grid]
