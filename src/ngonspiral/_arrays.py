"""The array kernels of the vertex series and of a polygon's ring, and _ARRAY,
the array steps of spiral._space: the one module that imports numpy, which the
scalar modules import only for array work (the dense runs, the identity
check, the rings, and _space at an array).

_ARRAY mirrors each float step of _space, and math's cos, sin, sqrt, tan
and pow, at a float array of any shape, each entry with the float step's
bits at that entry, because five rules hold throughout (save at -0.0 turns,
which no library path forms: _turns gives (1+0j) there and phase_of_turns
(1-0j), as np.rint(-0.0) cancels the sign that round(-0.0), the int 0, keeps):
- phases are reduced in turns, as phase_of_turns does (_turns), and
  1/k - 2 H_k, H_k = s + c, as spiral._phases reduces it (_reduced);
- H_x takes digamma's steps with math.log (_harmonic_exact), as np.log is
  an ulp off on ~1e-4 of arguments; the runs step H_k = s + c with
  spiral._phases' own steps (_run_phases) from H_2 = 3/2, or from
  harmonic_continued after a jump, as the tails do, and only the identity
  check's closed side reads harmonic_array, whose bits are their own, as
  it is faster there (~30 vs ~310 us for 2,048 terms near 1e5) and slower
  below x = 11 (~6 vs ~0.9 ms on a crossing grid); one Sum2 cascade
  (_cascade) carries both running sums of a run across its chunks, H_k
  over 1/k and V(k) over the terms, each chunk one _chunk step; each
  family's first 4,096 terms and sums from V(2) come from a table of its
  own (_first_run, that step from V(2)), built by its first run from V(2)
  of more than 16 terms in ~0.3-1 ms (spiral._float_run sums the shorter
  ones one float at a time, and polygon_from_vertex forms _ring's rings of
  at most 16 corners so);
- complex products are formed as CPython forms them (_product);
- moduli come from np.hypot, as abs() of a Python complex does;
- side lengths use a numpy ufunc only where it has math's bits (cos, sin
  and sqrt), and math per entry elsewhere (tan and pow).
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np

from .lengthfns import LengthFunction, _formula, telescoping
from .numerics import (
    _DIGAMMA_ASYMPTOTIC,
    _DIGAMMA_SHIFT,
    EULER_GAMMA,
    TWO_PI,
    AccelerationSettings,
    SummationResult,
    _bernoulli_tail,
    _cvz_orders,
    _cvz_sum,
    digamma,
    harmonic_continued,
    two_sum,
)
from .spiral import _EULER_FROM, _side


def _turns(t: np.ndarray) -> np.ndarray:
    """e^{2 pi i t} at each entry of the float array t, reduced mod 1 in turns."""
    ang = t - np.rint(t)  # a numpy scalar at a 0-d t, so *= rebinds it there
    ang *= TWO_PI
    out = np.empty(t.shape, dtype=complex)
    np.cos(ang, out=out.real)
    np.sin(ang, out=out.imag)
    return out


def _signed_phases(n: np.ndarray) -> np.ndarray:
    """signed_phase at each entry of the float array n, exact +-1 at the integers."""
    sign = _turns(0.5 * n)
    ints = np.floor(n) == n
    sign[ints] = np.where(np.fmod(n[ints], 2.0) != 0.0, -1.0, 1.0)
    return sign


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for complex arrays, each product formed as CPython forms it; a
    numpy scalar for 0-d arrays, as numpy's own arithmetic gives."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out if out.ndim else out[()]


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


def _reduced(inv: np.ndarray, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """u = e^{2 pi i t} at each entry, t = (1/k - (2 s mod 1)) - 2 c: spiral._phases'
    reduction of 1/k - 2 H_k, H_k = s + c, in turns before 2 H_k rounds."""
    r = 2.0 * s  # r - floor(r) is r % 1.0, exactly, at a third of the cost
    return _turns((inv - (r - np.floor(r))) - 2.0 * c)


def _cascade(s, c, x: np.ndarray) -> tuple:
    """(heads, corrections): the running Sum2 of Ogita, Rump and Oishi
    ("Accurate sum and dot product", SIAM J. Sci. Comput. 26(6), 2005) of
    the float or complex array x, continued from the carry s + c, so the
    sum after each entry is heads + corrections, rounded once, and the
    carry after the last is (heads[-1], corrections[-1]); its sequential
    steps are two np.add.accumulate: the heads, then c and each step's
    two_sum error."""
    h = np.add.accumulate(np.concatenate(([s], x)))
    prev, h = h[:-1], h[1:]
    v = h - prev
    err = h - v
    np.subtract(prev, err, out=err)
    np.subtract(x, v, out=v)
    err += v
    err[0] += c
    np.add.accumulate(err, out=err)
    return h, err


def _run_phases(ks: np.ndarray, s: float, c: float) -> tuple:
    """(u, (s, c)): u(k) at the consecutive k of the float array ks, given
    H_{ks[0] - 1} = s + c, and the carry (s, c) at H_{ks[-1]}, bit for bit
    spiral._phases' steps: s sums 1/k and c gathers each step's two_sum
    error (_cascade), then _reduced."""
    inv = 1.0 / ks
    h, err = _cascade(s, c, inv)
    return _reduced(inv, h, err), (h.item(-1), err.item(-1))


def harmonic_array(x):
    """harmonic_continued at each entry of a float array x > -1: digamma's
    asymptotic series at once, then the scalar digamma at each entry below
    x = 11, so its bits there and an ulp off now and then above."""
    x = np.asarray(x + 1.0, dtype=float)
    with np.errstate(over="ignore"):  # x^2 -> inf, u -> 0 past 1e154, as in digamma
        u = 1.0 / (x * x)
    # log(x) - 0.5 / x - u * _bernoulli_tail(u), step for step, each in place
    # (a 0-d x gives numpy scalars, which the augmented steps rebind)
    c0, c1, c2, c3, c4, c5, c6 = _DIGAMMA_ASYMPTOTIC
    tail = u * c6
    for c in (c5, c4, c3, c2, c1, c0):
        tail += c
        tail *= u
    psi = np.log(x)
    psi -= 0.5 / x
    psi -= tail
    small = x < _DIGAMMA_SHIFT
    if small.any():
        psi = np.asarray(psi)
        psi[small] = [digamma(v) for v in x[small].tolist()]
    psi += EULER_GAMMA
    return psi if psi.ndim else psi[()]  # a numpy scalar at a 0-d x, as before


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
    with np.errstate(over="ignore"):  # as in harmonic_array
        u = 1.0 / (x * x)
    return EULER_GAMMA + (shift + _each(math.log, x) - 0.5 / x - u * _bernoulli_tail(u))


def _each(fn: Callable, x: np.ndarray, *args) -> np.ndarray:
    """fn(entry, *args) at each entry of the float array x, one call per entry."""
    return np.fromiter(map(fn, x.ravel().tolist(), *map(repeat, args)), float, x.size).reshape(x.shape)


def _terms(f: LengthFunction, k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """l(k) u at each entry of the float array k given the phases u (complex,
    of k's shape), with l from f's formula at the whole array; a side length
    past the doubles raises ``ValueError``, naming f and its k."""
    try:
        lengths = _formula(f.kind, f.s, _ARRAY)(k)
    except OverflowError:
        for x in k.tolist():
            _side(f, x)  # raises at the first length past the doubles
        raise
    return lengths * u  # l promoted to complex(l, 0), as CPython < 3.14 does


# _tails sums this many columns at a time, so its working set stays near
# 0.4 MB however many points a curve asks for.  With fewer, numpy's cost per
# call outweighs the work: fig_orbit takes ~34 ms at 256 columns, ~24 ms at
# 1,024 and at 2,048 (2-vCPU x86-64 VM).  Columns are independent, so bits hold at any width.
_COLUMNS = 1024


def _tails(f: LengthFunction, x: np.ndarray, settings: AccelerationSettings) -> SummationResult:
    """spiral._tail(f, x, settings) at each entry of the float array x,
    column by column in chunks of _COLUMNS: a SummationResult of arrays.
    3,000 points of a power:0 curve take ~5 ms, ~70-90 ms one _tail at a time (2-vCPU x86-64 VM)."""
    flat = x.ravel()
    # an empty x is one empty chunk, so the fields are empty arrays
    starts = range(0, len(flat) or 1, _COLUMNS)
    chunks = [_tail_columns(f, flat[i : i + _COLUMNS], settings) for i in starts]
    return SummationResult(*(np.concatenate(field).reshape(x.shape) for field in zip(*chunks)))


class _TailTerms:
    """spiral._tail_terms at each entry of the float array x, a row of terms
    per next(); keep(mask) drops the columns a sum is done with."""

    def __init__(self, f: LengthFunction, x: np.ndarray) -> None:
        self.f, self.x, self.j = f, x, 0
        self.s, self.c = _harmonic_exact(x - 1.0), np.zeros(len(x))

    def __next__(self) -> np.ndarray:
        k = self.x + self.j
        inv = 1.0 / k
        self.s, e = two_sum(self.s, inv)
        self.c = self.c + e
        self.j += 1
        return _terms(self.f, k, _reduced(inv, self.s, self.c))

    def keep(self, mask: np.ndarray) -> None:
        self.x, self.s, self.c = self.x[mask], self.s[mask], self.c[mask]


def _tail_columns(f: LengthFunction, x: np.ndarray, settings: AccelerationSettings) -> tuple:
    """spiral._tail over the columns x: (value, error estimate, converged,
    terms used), each an elementwise copy of its scalar expression, the
    columns below _EULER_FROM by the CVZ steps and the others by Euler's."""
    m = len(x)
    out = np.empty(m, dtype=complex), np.empty(m), np.zeros(m, dtype=bool), np.empty(m, dtype=int)
    below = x < _EULER_FROM
    _cvz_columns(f, x, np.flatnonzero(below), settings, out)
    _euler_columns(f, x, np.flatnonzero(~below), settings, out)
    return out


def _cvz_columns(f: LengthFunction, x: np.ndarray, col: np.ndarray, settings: AccelerationSettings,
                 out: tuple) -> None:
    """numerics._cvz_transform_sum at the columns col of x, into out: every
    column tries the same orders, so one order's weights serve all, and each
    is dropped once its estimate is met or stops falling."""
    value, err, done, used = out
    stream, rows, orders = _TailTerms(f, x[col]), [], _cvz_orders(settings)
    best, best_err = np.zeros(len(col), dtype=complex), np.full(len(col), math.inf)
    for n in orders:
        if not len(col):
            return
        rows += [next(stream) for _ in range(n - len(rows))]
        now, now_err, met = _cvz_sum(rows, n, settings.target_tolerance, np.sqrt)
        # the first order only records its sum, as the scalar loop does
        stall = ~met & ~(now_err < best_err) & (n > orders[0])
        value[col[met]], err[col[met]], done[col[met]] = now[met], now_err[met], True
        value[col[stall]], err[col[stall]] = best[stall], best_err[stall]
        used[col[met | stall]] = n
        keep = ~(met | stall)
        best, best_err, col, rows = now[keep], now_err[keep], col[keep], [row[keep] for row in rows]
        stream.keep(keep)
    # the orders ran out: the best sum seen, not converged
    value[col], err[col], used[col] = best, best_err, n


def _euler_columns(f: LengthFunction, x: np.ndarray, col: np.ndarray, settings: AccelerationSettings,
                   out: tuple) -> None:
    """numerics.euler_transform_sum at the columns col of x, into out: one
    difference row per column, each column dropped once it stops."""
    value, err, done, used = out
    stream, diag = _TailTerms(f, x[col]), np.empty((len(col), 0), dtype=complex)
    total, best = np.zeros((2, len(col)), dtype=complex)
    best_err = np.full(len(col), math.inf)
    tol = settings.target_tolerance
    for j in range(settings.max_terms):
        if not len(col):
            return
        # euler_transform_sum's row a, a - d_0, (a - d_0) - d_1, ..., one per column
        diag = np.subtract.accumulate(np.column_stack((next(stream), diag)), axis=1)
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
            col, diag, total, best, best_err = col[keep], diag[keep], total[keep], best[keep], best_err[keep]
            stream.keep(keep)
    # the term budget is spent: the best estimate seen, not converged
    value[col], err[col], used[col] = best, best_err, settings.max_terms


# The array steps of spiral._space, under the float steps' names, and the namespace
# lengthfns._formula reads l with at an array (tests/test_lengthfns.py checks the fifth rule).
_ARRAY = SimpleNamespace(turns=_turns, signed=_signed_phases, harmonic=_harmonic_exact, mul=_product,
                         half_angle=_half_angles, tail=_tails, cos=np.cos, sin=np.sin, sqrt=np.sqrt,
                         tan=lambda x: _each(math.tan, x), pow=lambda x, y: _each(math.pow, x, y))


# Runs, rings and the identity check work in chunks of _CHUNK terms, so
# their working set stays near 0.6-0.7 MB however long the run
# (vertex(power:-1, 10^5)) or the identity (n_max = 10^6).
_CHUNK = 1 << 12


def _chunk(f: LengthFunction, lo: int, n: int, h: tuple, v: tuple) -> tuple:
    """(terms, V(lo..lo + n - 1), h, v): the n terms (-1)^k l(k) u(k) from
    k = lo and their running sums, the phases from the H carry h (_run_phases)
    and the sums from the V carry v (_cascade), with both carries after the
    last k."""
    ks = float(lo) + np.arange(n, dtype=float)
    u, h = _run_phases(ks, *h)
    terms = _alternate(lo, _terms(f, ks, u))
    heads, fixes = _cascade(*v, terms)
    return terms, heads + fixes, h, (heads.item(-1), fixes.item(-1))


# _first_run's entries, one per family (equal by value, so power:0.0 and
# power:-0.0 share one, with the same bits): ~128 KB each, the terms and the
# running sums of 4,096 complex entries, so 16 entries hold at most ~2 MB and
# twice the 7 families a series-queries pass reads from V(2).
@functools.lru_cache(maxsize=16)
def _first_run(f: LengthFunction) -> tuple | None:
    """_chunk(f, 3, _CHUNK, (3/2, 0), (0, 0)), the first _CHUNK of f's run
    from V(2) = 0: its terms and V(3..4,098), read-only, and the H and V
    carries after k = 4,098.  Sum2's only sequential steps are
    np.add.accumulate, so the first m sums are those of a chunk of m terms,
    bit for bit.  None, and no table, when a side length or a sum of the
    chunk is past the doubles (power:-100 at k = 1,210): such a family
    keeps the live chunk, so a short run keeps its value and a long one its
    error.  Built by f's first run from V(2), never at import."""
    try:
        with np.errstate(all="ignore"):  # a non-finite chunk is refused below
            run = _chunk(f, 3, _CHUNK, (1.5, 0.0), (0j, 0j))
    except ValueError:
        return None
    if not np.isfinite(run[1]).all():  # finite sums leave finite carries
        return None
    for a in run[:2]:
        a.flags.writeable = False
    return run


def _dense_series(f: LengthFunction, start: int, base: complex, end: int) -> Iterator[tuple]:
    """The vertex series over k = start+1..end in chunks of _CHUNK terms:
    (first k, terms, V(k)) per chunk from _chunk, V(start) = base, the
    phases seeded with H_2 = 3/2 from V(2), or with
    harmonic_continued(start), the seed of the tail E(start + 1), after a
    jump, summed only when a chunk needs it.  A run from V(2) = 0 reads its
    first chunk from f's _first_run() table and goes on from the table's
    carries.  The signs come from the int k, so they hold past 2^53, where
    consecutive floats coincide.
    """
    lo, h, v = start + 1, None, (base, 0j)
    if lo == 3 <= end and (first := _first_run(f)) is not None:
        terms, sums, h, v = first
        yield 3, terms[: end - 2], sums[: end - 2]
        lo += _CHUNK
    for lo in range(lo, end + 1, _CHUNK):
        if h is None:  # H_start, summed only once a chunk is live
            h = 1.5 if start == 2 else harmonic_continued(start), 0.0
        terms, sums, h, v = _chunk(f, lo, min(_CHUNK, end + 1 - lo), h, v)
        yield lo, terms, sums


def _ring(c: complex, spoke: complex, n: int) -> list[complex]:
    """[c + spoke * cmath.exp(2j * math.pi * k / n) for k = 0..n-1], bit for bit,
    one list extended _CHUNK corners at a time, so only the n Python complex
    numbers grow with n:
    y = (2 pi k) / n as that complex division forms it, its cos and sin the
    parts of e^{iy} (rule 5), and the product by _product.  That is
    c + spoke * complex(cos(y), sin(y)) with y = TWO_PI * k / n, which
    spiral.polygon_from_vertex forms corner by corner for n <= 16."""
    corners = []
    for lo in range(0, n, _CHUNK):
        y = TWO_PI * np.arange(lo, min(lo + _CHUNK, n), dtype=float) / n
        e = np.empty(len(y), dtype=complex)
        np.cos(y, out=e.real)
        np.sin(y, out=e.imag)
        corners += (c + _product(spoke, e)).tolist()
    return corners


def _identity_residual(n_max: int) -> float:
    """verify_telescoping_identity's largest residual over 3 <= k <= n_max.
    The direct side is the telescoping family's run from V(2)
    (_dense_series); the closed side's rotations r_k = e^{-4 pi i H_k},
    H_k from harmonic_array, serve both checks: V(k) against
    -1 + (-1)^k r_k, and each term against (-1)^k (r_{k-1} + r_k), r_{k-1}
    carried across chunks from r_2 = 1."""
    last, worst = 1 + 0j, 0.0  # r_2 = e^{-6 pi i}, exactly 1
    for lo, terms, sums in _dense_series(telescoping(), 2, 0j, n_max):
        rot = _turns(-2.0 * harmonic_array(float(lo) + np.arange(len(sums), dtype=float)))
        pairs = np.empty_like(rot)  # r_{k-1} + r_k
        pairs[0] = last + rot.item(0)
        np.add(rot[:-1], rot[1:], out=pairs[1:])
        last = rot.item(-1)
        np.subtract(terms, _alternate(lo, pairs), out=pairs)
        np.subtract(sums, _alternate(lo, rot) - 1.0, out=rot)
        worst = max(worst, np.abs(pairs).max(), np.abs(rot).max())
    return float(worst)
