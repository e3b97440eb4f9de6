"""Special functions and series acceleration kernels.

Everything lives in ordinary double precision.  The pieces here are the
numerical bedrock for the spiral modules: the error-free addition two_sum
that every compensated sum is built on, digamma (and through it H_x for
real x > -1), and the two accelerators for alternating complex series,
the CVZ weights (where the terms still swing) and the Euler transform
(where they are smooth), whose "not converged" outcome is a value, never
an exception.
"""

from __future__ import annotations

import functools
import math
import operator
import reprlib
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

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
# Below this the sums' own rounding (a few 1e-14 for terms of modulus ~1)
# would drown the tolerance and a "converged" flag would mean nothing.
_MIN_TOLERANCE = 1e-13


@dataclass(frozen=True)
class AccelerationSettings:
    """Tolerance and term budget of the accelerated alternating sums.

    ``target_tolerance`` is absolute, met by the error estimate: for a CVZ
    sum |S_n - S_{n-4}| plus its rounding term, met too within 64 ulps of a
    value too large for the tolerance; for an Euler sum the modulus of the
    last correction.  Read as one number and stored as a float, it must be
    finite and at least ``_MIN_TOLERANCE`` (1e-13).  ``max_terms`` caps the
    terms of either sum (the CVZ order, at most 256): read as an index (an
    int, a numpy integer or an integral float, stored as an int), from 4 to
    ``sys.maxsize``.
    """

    target_tolerance: float = 1e-10
    max_terms: int = 4000

    def __post_init__(self) -> None:
        tol = float(_number(self.target_tolerance, "target_tolerance"))
        if not _MIN_TOLERANCE <= tol < math.inf:
            raise ValueError(
                f"target_tolerance must be finite and positive, at least {_MIN_TOLERANCE:g}, got {tol}"
            )
        object.__setattr__(self, "target_tolerance", tol)
        max_terms = _index(self.max_terms, "max_terms must be an integer, got {}")
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

    def __init__(self, value: complex, error_estimate: float, converged: bool, terms_used: int) -> None:
        # fields stored directly: a frozen dataclass's own __init__, one
        # object.__setattr__ a field, took ~0.7 us, as long as 3 Euler terms
        # (2-vCPU x86-64 VM)
        fields = self.__dict__
        fields["value"], fields["error_estimate"] = value, error_estimate
        fields["converged"], fields["terms_used"] = converged, terms_used


def two_sum(a, b):
    """(a + b, its exact rounding error), Knuth's TwoSum: the one error-free
    addition behind every compensated sum here.  Floats, complex numbers
    (each part rounds separately) and numpy arrays of either."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _number(n, name: str = "n"):
    """One number as the scalar paths read it: a Python int if it has __index__, else
    a float (a numpy scalar takes the Python steps).  ``ValueError`` names it past
    the doubles, and for anything float() refuses or has a length: a complex
    number, a str, bytes, a sequence or an array, even a 0-d one."""
    if type(n) is float:  # the common case: q_closed(2.5) takes 0.2-0.5 us (~10 %) longer without it
        return n
    if not hasattr(n, "__len__"):  # float('2.5') parses it; int(np.array(5.5)), below, is 5
        try:
            x = float(n)
        except OverflowError:
            raise ValueError(f"{name} must fit in a double (magnitude at most 1.8e308)") from None
        except TypeError:
            pass
        else:
            return int(n) if hasattr(n, "__index__") else x
    raise ValueError(f"{name} must be one real number, got type {type(n).__name__}")


def _index(n, message: str = "indices must be integers, got n = {}") -> int:
    """An index or a count as an int: an int, a numpy integer, an integral
    float or a 0-d array of one; 3.5, inf, nan, a string and a 1-d array
    raise ``ValueError(message)``, formatted with n's repr, abridged."""
    if not (isinstance(n, int) or (hasattr(n, "__float__") and not getattr(n, "shape", ())
                                   and float(n).is_integer())):
        raise ValueError(message.format(reprlib.repr(n)))
    return int(n)


def _refuse(bad, x, message: str) -> None:
    """ValueError(message) at the first x where ``bad`` holds: a bool and a number, or arrays."""
    if bad is True or (bad is not False and bad.any()):
        raise ValueError(message.format(x[bad][0] if hasattr(x, "__len__") else x))


# What a sum reads when the caller passes no settings: frozen, so one serves every call.
_DEFAULT_SETTINGS = AccelerationSettings()


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
    """sum_k B_{2k}/(2k) u^(k-1), k = 1..7, at u = x^{-2} (Horner): a float,
    or a numpy array, stepped in place after its first product."""
    c0, c1, c2, c3, c4, c5, c6 = _DIGAMMA_ASYMPTOTIC
    t = u * c6
    t += c5
    t *= u
    t += c4
    t *= u
    t += c3
    t *= u
    t += c2
    t *= u
    t += c1
    t *= u
    t += c0
    return t


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
    x = _number(x, "x")
    if not -1.0 < x < math.inf:
        raise ValueError(f"harmonic_continued requires a finite x > -1, got {x}")
    return EULER_GAMMA + digamma(x + 1.0)


def euler_transform_sum(
    terms: Iterable[complex], settings: AccelerationSettings
) -> SummationResult:
    """Euler transform of the alternating series sum_{j>=0} (-1)^j a_j.

    ``terms`` yields the a_j with the alternating sign already extracted.
    The transform accumulates forward-difference corrections
    (-1)^j D^j a_0 / 2^(j+1) and stops by _euler_rule: the reported error
    estimate is the modulus of the last correction.  Exhausting
    ``max_terms`` before the tolerance is reached produces a not-converged
    result carrying the best estimate, as does a finite ``terms`` that runs out.
    """
    diag: list[complex] = []
    total, best = 0j, (0j, math.inf)
    tol, last = settings.target_tolerance, settings.max_terms - 1
    scale = 1.0  # 2^-(j+1) once halved: exact down to the subnormals, 0.0 past them, as ldexp is
    for j, a in enumerate(terms):
        # diag[p]: the p-th backward difference at a_j, from the last row,
        # left to right, in place (a new list per term cost ~20 % of a jump's
        # transform, 2-vCPU x86-64 VM)
        head = a if type(a) is complex else complex(a)
        for p, d in enumerate(diag):
            diag[p] = head
            head = head - d
        diag.append(head)
        scale *= 0.5
        correction = head * scale
        if j % 2:
            correction = -correction
        total += correction
        best, met, used, done = _euler_rule(j, total, correction, best, tol, last)
        if done:
            return SummationResult(*best, met, used)
    return SummationResult(*best, False, len(diag))


def _euler_rule(j: int, total, correction, best: tuple, tol: float, last: int,
                pick=operator.getitem, modulus=abs) -> tuple:
    """The Euler transform's stopping rule at its j-th term (from 0), for
    one sum (complex numbers) or a column array of them (complex arrays,
    with the pick and modulus of _arrays, each entry with the bits of the
    complex call).  ``total`` is the sum with its last ``correction``,
    ``best`` the (value, estimate) of the best sum before it, (0j, inf) at
    j = 0, and ``last`` the last term the budget allows.  Returns (best,
    converged, terms used, done).  The estimate is the correction's
    modulus.  A sum is done when its estimate is within ``tol`` from the
    fourth term on (converged: best is then this sum), at a non-finite
    difference, whose estimate is inf or nan (the best sum before it, that
    term not counted), or once the budget is spent (the best sum seen, not
    converged).  ``pick(pair, c)`` is pair[c]."""
    err = modulus(correction)
    met = (err <= tol) & (j >= 3)
    finite = err < math.inf
    # ^ True negates a bool and a bool array alike (~True is -2)
    done = met | (finite ^ True) | (j == last)
    return pick((best, (total, err)), (err < best[1]) | met), met, j + finite, done


# Algorithm 1 of Cohen, Rodriguez Villegas and Zagier ("Convergence acceleration
# of alternating series", Exp. Math. 9, 2000): sum_{j>=0} (-1)^j a_j is read as
# the weighted sum S_n = sum_{j<n} w_j a_j of order n, whose error falls as
# (3 + sqrt 8)^-n for smooth a_j.  The first order tried is the one at which
# S_n - S_{n-4}, the truncation estimate, meets tol on the library's families
# (~1e8 (3 + sqrt 8)^(4-n)); each next order adds _CVZ_STEP terms.
_CVZ_RATE = 3.0 + math.sqrt(8.0)
_CVZ_STEP = 4
# Orders stop at 256: the float recurrence of the weights overflows from
# n = 399 on, and no sum in doubles gains past ~60 terms (its estimate stops
# falling first).
_CVZ_MAX_ORDER = 256
# The rounding term counts _CVZ_ROUNDING ulps of sqrt(sum |w_j a_j|^2), the
# terms' own rounding, which adds up like a random walk, and of |S_n|, the
# rounding of the harmonic number each stream starts from, which turns the
# whole sum; measured against 40-digit sums of the 12 catalog families
# (tests/test_convergence.py::TestHonestEstimates).
_CVZ_ROUNDING = 20.0
# No sum is held to less than _CVZ_ULPS ulps of its value: near a pole of a
# side length (n -> 1) the value can pass 1e15, where no double is within an
# absolute 1e-8 of it.
_CVZ_ULPS = 64.0
_EPS = sys.float_info.epsilon


@functools.lru_cache(maxsize=None)
def _cvz_weights(n: int, size: int = 0) -> tuple[float, ...]:
    """w_0, ..., w_{n-1} of order n, from the float recurrence of Algorithm 1,
    then zeros up to ``size`` entries."""
    d = _CVZ_RATE**n
    d = (d + 1.0 / d) / 2.0
    b, c, w = -1.0, -d, []
    for k in range(n):
        c = b - c
        w.append(c / d)
        b = b * (k + n) * (k - n) / ((k + 0.5) * (k + 1))
    return tuple(w) + (0.0,) * (size - n)


@functools.lru_cache(maxsize=64)
def _cvz_orders(settings: AccelerationSettings) -> range:
    """The orders a CVZ sum tries at ``settings``, kept per settings: from the
    tolerance's first order, _CVZ_STEP apart, none above max_terms (or _CVZ_MAX_ORDER)."""
    cap = min(settings.max_terms, _CVZ_MAX_ORDER)
    first = 4 + math.ceil(math.log(1e8 / settings.target_tolerance, _CVZ_RATE))
    return range(min(first, cap), cap + 1, _CVZ_STEP)


def _cvz_transform_sum(terms: Iterator[complex], settings: AccelerationSettings) -> SummationResult:
    """sum_{j>=0} (-1)^j a_j by CVZ weights, ``terms`` yielding the a_j with the
    sign extracted: S_n at each order of _cvz_orders until _cvz_order is done."""
    a: list[complex] = []
    best, orders = (0j, math.inf), _cvz_orders(settings)
    for n in orders:
        a += islice(terms, n - len(a))
        best, met, done = _cvz_order(a, n, orders, best, settings.target_tolerance)
        if done:
            return SummationResult(*best, met, n)


def _cvz_order(a, n: int, orders: range, best: tuple, tol: float, sqrt=math.sqrt,
               pick=operator.getitem) -> tuple:
    """S_n over the first n entries of ``a``, the a_j with the alternating
    sign extracted, and CVZ's stopping rule at the order n of ``orders``,
    for one sum (complex numbers) or a column array of them (complex
    arrays, with np.sqrt and the pick of _arrays, each entry with the bits
    of the complex call).  ``best`` is the (S, estimate) of the order
    before, (0j, inf) at the first.  Returns (best, converged, done), the
    terms used being n.  S_n is summed left to right with two_sum; its
    estimate is |S_n - S_{n-4}| plus the rounding term.  A sum is done when
    the estimate is met, within tol or within _CVZ_ULPS ulps of |S_n|
    (converged: best is S_n), when it stops falling after the first order
    (stalled: the order before's), or at the last order (S_n, not
    converged).  ``pick(pair, c)`` is pair[c]."""
    # the weights of order n - 4, padded with zeros to n (0.0 * a_j adds nothing)
    w, v = _cvz_weights(n), _cvz_weights(max(n - _CVZ_STEP, 0), n)
    s = c = low = 0j
    q = 0.0
    for wj, vj, aj in zip(w, v, a):
        p = wj * aj
        # two_sum(s, p) inlined: the call made a term ~25 % slower (2-vCPU x86-64 VM)
        t = s + p
        z = t - s
        c = c + ((s - (t - z)) + (p - z))
        s = t
        q = q + (p.real * p.real + p.imag * p.imag)
        low = low + vj * aj
    value, gap = s + c, s + c - low
    size = sqrt(value.real * value.real + value.imag * value.imag)
    err = sqrt(gap.real * gap.real + gap.imag * gap.imag) + _CVZ_ROUNDING * _EPS * (sqrt(q) + size)
    met = (err <= tol) | (err <= _CVZ_ULPS * _EPS * size)
    falling = met | (err < best[1]) | (n == orders[0])  # not stalled
    # done: met, stalled (falling ^ True, a negation as in _euler_rule) or at the last order
    return pick((best, (value, err)), falling), met, met | (falling ^ True) | (n == orders[-1])


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
