"""Special functions and series acceleration kernels.

Everything lives in ordinary double precision.  The pieces here are the
numerical bedrock for the spiral modules: the error-free addition two_sum
that every compensated sum is built on, digamma (and through it H_x for
real x > -1), and the Euler transform, the one accelerator for
alternating complex series, whose "not converged" outcome is a value,
never an exception.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

__all__ = [
    "EULER_GAMMA",
    "TWO_PI",
    "AccelerationSettings",
    "SummationResult",
    "digamma",
    "euler_transform_sum",
    "harmonic_continued",
    "richardson",
    "two_sum",
]

EULER_GAMMA = 0.5772156649015328606
TWO_PI = 2.0 * math.pi
# Below this the Euler transform's corrections drown in double rounding
# and a "converged" flag would mean nothing.
_MIN_TOLERANCE = 1e-13


@dataclass(frozen=True)
class AccelerationSettings:
    """Tolerance and term budget for the Euler-transformed series tails.

    ``target_tolerance`` is absolute, measured on the complex modulus of the
    correction being monitored; it must be finite and at least
    ``_MIN_TOLERANCE`` (1e-13).  ``max_terms`` caps the tail terms: read as
    an index (an int, a numpy integer or an integral float, stored as an
    int), from 4 to ``sys.maxsize``.
    """

    target_tolerance: float = 1e-10
    max_terms: int = 4000

    def __post_init__(self) -> None:
        if not _MIN_TOLERANCE <= self.target_tolerance < math.inf:
            raise ValueError(
                "target_tolerance must be finite and positive, at least "
                f"{_MIN_TOLERANCE:g}, got {self.target_tolerance}"
            )
        max_terms = _index(self.max_terms, "max_terms must be an integer, got {!r}")
        if not 4 <= max_terms <= sys.maxsize:
            raise ValueError(f"max_terms must be an integer from 4 to {sys.maxsize}")
        object.__setattr__(self, "max_terms", max_terms)


@dataclass(frozen=True)
class SummationResult:
    """Outcome of an accelerated summation.

    ``converged`` is False when the term budget ran out before the tolerance
    was met; ``value`` then carries the best estimate seen, so callers can
    degrade gracefully instead of catching exceptions.
    """

    value: complex
    error_estimate: float
    converged: bool
    terms_used: int


def two_sum(a, b):
    """(a + b, its exact rounding error), Knuth's TwoSum: the one error-free
    addition behind every compensated sum here.  Floats, complex numbers
    (each part rounds separately) and numpy arrays of either."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _number(n, name: str = "n"):
    """One number as the scalar paths read it: a Python int if it has __index__, else
    a float (a numpy scalar takes the Python steps); ``ValueError`` past the doubles."""
    if type(n) is float:  # the common case, ~0.1 us sooner
        return n
    try:
        x = float(n)
    except OverflowError:
        raise ValueError(f"{name} must fit in a double (magnitude at most 1.8e308)") from None
    return int(n) if hasattr(n, "__index__") else x


def _index(n, message: str = "indices must be integers, got {!r}") -> int:
    """An index or a count as an int: an int, a numpy integer or an integral
    float; 3.5, inf, nan and a string raise ``ValueError(message)``."""
    if not (isinstance(n, int) or (hasattr(n, "__float__") and float(n).is_integer())):
        raise ValueError(message.format(n))
    return int(n)


def _refuse(bad, x, message: str) -> None:
    """ValueError(message) at the first x where ``bad`` holds: a bool and a number, or arrays."""
    if bad is True or (bad is not False and bad.any()):
        raise ValueError(message.format(x[bad][0] if hasattr(x, "__len__") else x))


# psi(x) ~ ln x - 1/(2x) - sum B_{2k}/(2k x^{2k}); coefficients of u = x^{-2}.
_DIGAMMA_SHIFT = 12.0
_DIGAMMA_ASYMPTOTIC = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def _bernoulli_tail(u):
    """sum_k B_{2k}/(2k) u^(k-1), k = 1..7, at u = x^{-2} (Horner): a float
    or a numpy array."""
    c0, c1, c2, c3, c4, c5, c6 = _DIGAMMA_ASYMPTOTIC
    return c0 + u * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * c6)))))


def digamma(x: float) -> float:
    """psi(x) for finite x > 0, absolute error below 1e-13.

    Upward recurrence psi(x+1) = psi(x) + 1/x shifts the argument to at
    least 12, after which a seven-term Bernoulli asymptotic series applies.
    """
    x, shift = float(_number(x, "x")), 0.0
    if not 0.0 < x < math.inf:
        raise ValueError(f"digamma requires a finite x > 0, got {x}")
    while x < _DIGAMMA_SHIFT:
        shift -= 1.0 / x
        x += 1.0
    u = 1.0 / (x * x)
    return shift + math.log(x) - 0.5 / x - u * _bernoulli_tail(u)


def harmonic_continued(x: float) -> float:
    """H_x = gamma + psi(x+1) for finite real x > -1, the continuation of the
    harmonic numbers and the library's one H_x outside a running stream.

    At the integers k <= 3,000 it is within 3e-15 of the exact H_k.
    """
    if not -1.0 < x < math.inf:
        raise ValueError(f"harmonic_continued requires a finite x > -1, got {x}")
    return EULER_GAMMA + digamma(_number(x, "x") + 1.0)


def euler_transform_sum(
    terms: Iterable[complex], settings: AccelerationSettings
) -> SummationResult:
    """Euler transform of the alternating series sum_{j>=0} (-1)^j a_j.

    ``terms`` yields the a_j with the alternating sign already extracted.
    The transform accumulates forward-difference corrections
    (-1)^j D^j a_0 / 2^(j+1); the reported error estimate is the modulus of
    the last correction.  Exhausting ``max_terms`` before the tolerance is
    reached produces a not-converged result carrying the best estimate.
    """
    tol = settings.target_tolerance
    diag: list[complex] = []
    total = 0j
    best = 0j
    best_err = math.inf
    last_err = math.inf
    used = 0
    for j, a in enumerate(islice(terms, settings.max_terms)):
        a = complex(a)
        new_diag = [a]
        prev = diag
        for p in range(1, j + 1):
            new_diag.append(new_diag[p - 1] - prev[p - 1])
        diag = new_diag
        head = diag[j]
        if not (math.isfinite(head.real) and math.isfinite(head.imag)):
            break
        correction = head * math.ldexp(1.0, -(j + 1))
        if j % 2:
            correction = -correction
        total += correction
        last_err = abs(correction)
        used = j + 1
        if last_err < best_err:
            best_err = last_err
            best = total
        if used >= 4 and last_err <= tol:
            return SummationResult(total, last_err, True, used)
    return SummationResult(best, best_err, False, used)


def richardson(values: Sequence[complex]) -> complex:
    """Richardson extrapolation of approximations whose steps shrink tenfold.

    ``values`` are ordered from the coarsest step to the finest; the error
    is assumed to expand in integer powers of the step.  Returns the fully
    extrapolated estimate.
    """
    if len(values) < 2:
        raise ValueError("richardson needs at least two values")
    v = [complex(x) for x in values]
    stage = 1
    while len(v) > 1:
        factor = 10.0**stage
        v = [(factor * v[i + 1] - v[i]) / (factor - 1.0) for i in range(len(v) - 1)]
        stage += 1
    return v[0]
