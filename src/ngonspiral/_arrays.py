"""The array kernels of the vertex series and _ARRAY, the array steps of
spiral._space: the one module that imports numpy, which the scalar modules
import only for array work (the dense runs, and _space at an array).

_ARRAY mirrors each float step of _space, and math's cos, sin, sqrt, tan
and pow, at a float array of any shape, each entry with the float step's
bits at that entry, because five rules hold throughout:
- phases are reduced in turns, as phase_of_turns does (_turns);
- H_x takes digamma's steps with math.log (_harmonic_exact), as np.log is
  an ulp off on ~1e-4 of arguments; only the dense runs read the faster
  harmonic_array, whose bits are their own;
- complex products are formed as CPython forms them (_product);
- moduli come from np.hypot, as abs() of a Python complex does;
- side lengths use a numpy ufunc only where it has math's bits (cos, sin
  and sqrt), and math per entry elsewhere (tan and pow).
"""

from __future__ import annotations

import math
from itertools import repeat
from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np

from .lengthfns import LengthFunction, _formula, telescoping
from .numerics import (
    _DIGAMMA_SHIFT,
    EULER_GAMMA,
    TWO_PI,
    AccelerationSettings,
    SummationResult,
    _bernoulli_tail,
    digamma,
    two_sum,
)
from .spiral import _HEAD_STOP, _side


def _turns(t: np.ndarray) -> np.ndarray:
    """e^{2 pi i t} at each entry of the float array t, reduced mod 1 in turns."""
    ang = TWO_PI * (t - np.rint(t))
    out = np.empty(t.shape, dtype=complex)
    out.real = np.cos(ang)
    out.imag = np.sin(ang)
    return out


def _signed_phases(n: np.ndarray) -> np.ndarray:
    """signed_phase at each entry of the float array n, exact +-1 at the integers."""
    sign = _turns(0.5 * n)
    ints = np.floor(n) == n
    sign[ints] = np.where(np.fmod(n[ints], 2.0) != 0.0, -1.0, 1.0)
    return sign


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for complex arrays, each product formed as CPython forms it."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _half_angles(n: np.ndarray) -> tuple:
    """half_angle at each entry of the float array n > 1, its two branches as masks."""
    below = n < 2.0
    y = np.where(below, math.pi * (n - 1.0) / n, math.pi / n)
    return np.sin(y), np.where(below, -np.cos(y), np.cos(y))


def _alternate(k0: int, z: np.ndarray) -> np.ndarray:
    """(-1)^k z for k = k0, k0 + 1, ...: z negated in place at odd k."""
    odd = z[1 - k0 % 2 :: 2]
    np.negative(odd, out=odd)
    return z


def _digamma_array(x):
    """digamma at each entry of a float array x > 0: the asymptotic series
    at once, then the scalar digamma at each entry below 12."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # x^2 -> inf, u -> 0 past 1e154, as in digamma
        u = 1.0 / (x * x)
    out = np.asarray(np.log(x) - 0.5 / x - u * _bernoulli_tail(u))
    small = x < _DIGAMMA_SHIFT
    out[small] = [digamma(v) for v in x[small].tolist()]
    return out


def harmonic_array(x):
    """harmonic_continued at each entry of a float array x > -1 through
    _digamma_array: its bits below x = 11, an ulp off now and then above."""
    return EULER_GAMMA + _digamma_array(x + 1.0)


def _harmonic_exact(x):
    """harmonic_continued at each entry of a float array x > -1, bit for bit:
    digamma's recurrence as masked array steps, then math.log per entry."""
    x = np.asarray(x, dtype=float) + 1.0
    shift = np.zeros_like(x)
    small = x < _DIGAMMA_SHIFT
    while small.any():
        shift -= np.where(small, 1.0 / x, 0.0)
        x += small
        small = x < _DIGAMMA_SHIFT
    with np.errstate(over="ignore"):  # as in _digamma_array
        u = 1.0 / (x * x)
    return EULER_GAMMA + (shift + _each(math.log, x) - 0.5 / x - u * _bernoulli_tail(u))


def _each(fn: Callable, x: np.ndarray, *args) -> np.ndarray:
    """fn(entry, *args) at each entry of the float array x, one call per entry."""
    return np.fromiter(map(fn, x.ravel().tolist(), *map(repeat, args)), float, x.size).reshape(x.shape)


def _terms(f: LengthFunction, k: np.ndarray, h: np.ndarray) -> np.ndarray:
    """l(k) u(k) at each entry of the float array k given H_k, with l from
    f's formula at the whole array; a side length past the doubles raises
    ``ValueError``, naming f and its k."""
    try:
        lengths = _formula(f.kind, f.s, _ARRAY)(k)
    except OverflowError:
        for x in k.tolist():
            _side(f, x)  # raises at the first length past the doubles
        raise
    return lengths * _turns(1.0 / k - 2.0 * h)  # l promoted to complex(l, 0), as CPython < 3.14 does


# _tails sums this many columns at a time, so its working set stays flat
# however many points a curve asks for.
_COLUMNS = 256


def _tails(f: LengthFunction, x: np.ndarray, settings: AccelerationSettings) -> SummationResult:
    """spiral._tail(f, x, settings) at each entry of the float array x,
    column by column in chunks of _COLUMNS: a SummationResult of arrays."""
    flat = x.ravel()
    # an empty x is one empty chunk, so the fields are empty arrays
    starts = range(0, len(flat) or 1, _COLUMNS)
    chunks = [_tail_columns(f, flat[i : i + _COLUMNS], settings) for i in starts]
    return SummationResult(*(np.concatenate(field).reshape(x.shape) for field in zip(*chunks)))


def _tail_columns(f: LengthFunction, x: np.ndarray, settings: AccelerationSettings) -> tuple:
    """The steps of spiral._tail over the columns x, each an elementwise
    copy of its scalar expression: (value, error estimate, converged,
    terms used).  The head runs in lockstep over j; the Euler transform
    then aligns every column at its first Euler term, keeps one difference
    row per column, and drops each column once it stops.
    """
    m = len(x)
    h = _harmonic_exact(x - 1.0)
    hc = np.zeros(m)

    def step(k, h, hc):
        """harmonic_phases' step from H_{k-1} to H_k, and l(k) u(k)."""
        h, e = two_sum(h, 1.0 / k)
        hc = hc + e
        return h, hc, _terms(f, k, h + hc)

    # the head, x + j < _HEAD_STOP; heads ends as each column's j of its first Euler term
    s, c = np.zeros((2, m), dtype=complex)
    heads = np.zeros(m, dtype=int)
    for j in range(_HEAD_STOP):
        i = np.flatnonzero(x + j < _HEAD_STOP)
        if not len(i):
            break
        h[i], hc[i], term = step(x[i] + j, h[i], hc[i])
        s[i], e = two_sum(s[i], -term if j % 2 else term)
        c[i] += e
        heads[i] += 1
    # euler_transform_sum per column: rest (value, estimate, converged, used)
    value, err, used = np.empty(m, dtype=complex), np.empty(m), np.empty(m, dtype=int)
    done = np.zeros(m, dtype=bool)
    col, first = np.arange(m), heads
    diag = np.empty((m, 0), dtype=complex)
    total, best = np.zeros((2, m), dtype=complex)
    best_err = np.full(m, math.inf)
    tol = settings.target_tolerance
    for j in range(settings.max_terms):
        if not len(col):
            break
        h, hc, a = step(x + (first + j), h, hc)
        # new_diag[p] = new_diag[p - 1] - diag[p - 1], left to right
        diag = np.subtract.accumulate(np.column_stack((a, diag)), axis=1)
        head = diag[:, j]
        correction = head * 2.0 ** -(j + 1)
        if j % 2:
            correction = -correction
        total = total + correction
        last_err = np.hypot(correction.real, correction.imag)
        better = last_err < best_err
        best = np.where(better, total, best)
        best_err = np.where(better, last_err, best_err)
        broken = ~np.isfinite(head)
        met = (last_err <= tol) & (j >= 3)
        if broken.any() or met.any():
            value[col[broken]], err[col[broken]], used[col[broken]] = best[broken], best_err[broken], j
            value[col[met]], err[col[met]], used[col[met]] = total[met], last_err[met], j + 1
            done[col[met]] = True
            keep = ~(broken | met)
            col, x, first, h, hc = col[keep], x[keep], first[keep], h[keep], hc[keep]
            diag, total, best, best_err = diag[keep], total[keep], best[keep], best_err[keep]
    # the term budget is spent: the best estimate seen, not converged
    value[col], err[col], used[col] = best, best_err, settings.max_terms
    odd = heads % 2 == 1
    return (s + c) + np.where(odd, -value, value), err, done, heads + used


# The array steps of spiral._space, under the float steps' names, and the namespace
# lengthfns._formula reads l with at an array (tests/test_lengthfns.py checks the fifth rule).
_ARRAY = SimpleNamespace(turns=_turns, signed=_signed_phases, harmonic=_harmonic_exact, mul=_product,
                         half_angle=_half_angles, tail=_tails, cos=np.cos, sin=np.sin, sqrt=np.sqrt,
                         tan=lambda x: _each(math.tan, x), pow=lambda x, y: _each(math.pow, x, y))


# The dense kernel works in chunks of _CHUNK terms, so its working set
# stays near 0.6 MB however long the run (chunks of 2^12 would double it).
_CHUNK = 1 << 11


class _RunningSum:
    """Compensated running sums of a long real or complex series fed in
    chunks: Sum2 of Ogita, Rump and Oishi ("Accurate sum and dot product",
    SIAM J. Sci. Comput. 26(6), 2005) over each chunk, continued from a
    carried two_sum head and correction, so each sum is rounded once.
    """

    def __init__(self, start: float | complex) -> None:
        self._s, self._c = start, 0.0

    def extend(self, terms: np.ndarray) -> np.ndarray:
        """The running sums, continued from the last, after each entry of
        the numpy array ``terms`` (float or complex, as at the start)."""
        p = np.add.accumulate(terms)
        fix = np.add.accumulate(two_sum(np.concatenate(([0.0], p[:-1])), terms)[1])
        head, err = two_sum(self._s, p)
        sums = head + ((self._c + fix) + err)
        self._s, e = two_sum(self._s, p[-1].item())
        self._c = self._c + fix[-1].item() + e
        return sums


def _dense_series(
    f: LengthFunction, start: int, base: complex, end: int, harmonic: Callable[[np.ndarray], np.ndarray]
) -> Iterator[tuple]:
    """The vertex series over k = start+1..end in chunks of _CHUNK terms:
    (first k, k as floats, H_k = harmonic(ks), (-1)^k l(k) u(k), V(k)) per
    chunk, V(start) = base, V from one _RunningSum.  The signs come from
    the int k, so they hold past 2^53, where consecutive floats coincide.
    """
    acc = _RunningSum(base)
    for lo in range(start + 1, end + 1, _CHUNK):
        ks = float(lo) + np.arange(min(_CHUNK, end + 1 - lo), dtype=float)
        hs = harmonic(ks)
        terms = _alternate(lo, _terms(f, ks, hs))
        yield lo, ks, hs, terms, acc.extend(terms)


def _identity_residual(n_max: int) -> float:
    """verify_telescoping_identity's largest residual over 3 <= k <= n_max."""
    direct = _RunningSum(1.5)  # H_2
    h_prev, worst = 1.5, 0.0
    for k0, ks, hs, terms, sums in _dense_series(
        telescoping(), 2, 0j, n_max, lambda ks: direct.extend(1.0 / ks)
    ):
        rot = _turns(-2.0 * np.concatenate(([h_prev], hs)))  # e^{-4 pi i H_{k-1}}, then H_k
        h_prev = hs[-1]
        pairs = _alternate(k0, rot[:-1] + rot[1:])
        closed = _alternate(k0, _turns(-2.0 * harmonic_array(ks))) - 1.0
        worst = max(worst, np.abs(terms - pairs).max(), np.abs(sums - closed).max())
    return float(worst)
