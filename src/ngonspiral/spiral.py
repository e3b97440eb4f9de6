"""Geometric core of the n-gon spiral.

The construction places a regular n-gon for every n >= 3 so that
consecutive polygons share a vertex and touch along a side.  The heading
followed from one shared vertex to the next has the closed form

    theta_n = 2 pi (n/2 + 1/n - 2 H_n),     theta_2 = -3 pi,

and the shared vertices are the running sums V(n) = sum l(k) e^{i theta_k}
from k = 3, with V(2) = 0 seeding the spiral at the origin.  For integer k
the phase reduces to (-1)^k u(k), u(x) = e^{2 pi i (1/x - 2 H_x)}, whose
reduced angle stays O(log x) instead of O(x), dodging the argument-reduction
error of the raw closed form.  Dense runs of the series (vertex_at, and the
telescoping identity check) read u from one numpy kernel, _dense_series(),
in chunks; the scalar tail below reads it term by term from
harmonic_phases(), and the batched tails column by column.  As the whole
series minus its tail, the vertices and their smooth continuation to real
n are one formula,

    V(n) = G_f + e^{i pi n} E(n+1),   G_f = -E(3),   E(x) = sum_{j>=0} (-1)^j l(x+j) u(x+j),

with one kernel for E.  G_f is the limit (a point, or the orbit center when
the sides tend to a constant) and depends only on the family and the
settings, so continuation() sums it once and returns n -> V(n).  At one n
it sums one tail, in Python: interpolated_vertex reads it at one real n,
and vertex_at at deep indices, in O(1), summing only short gaps.  At an
array of n, the points of a figure's curve, it sums all their tails at
once, column by column in numpy (_tails), with the scalar tail's steps
and bits.

Fractional powers (-1)^x are always read as e^{i pi x}, the continuous
branch; that is the only choice under which the analytic continuations in
the telescoping module are smooth.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .lengthfns import LengthFunction
from .numerics import (
    TWO_PI,
    _harmonic_exact,
    AccelerationSettings,
    SummationResult,
    euler_transform_sum,
    harmonic_array,
    harmonic_continued,
    two_sum,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PolygonGeometry",
    "center",
    "continuation",
    "interpolated_vertex",
    "phase_of_turns",
    "polygon",
    "polygon_from_vertex",
    "q_term",
    "signed_phase",
    "unit_phase",
    "vertex",
    "vertex_at",
]

# Side lengths at or below this are treated as a degenerate (point) polygon.
DEGENERATE_SIDE = 1e-13


def phase_of_turns(t: float) -> complex:
    """e^{2 pi i t} with t in turns, reduced mod 1 before the trig call.

    The reduction t - round(t) is exact in IEEE double, so phases built
    from large angle budgets (the harmonic sums) keep full precision and
    independently derived phases agree to a few ulps.
    """
    t = t - round(t)
    ang = TWO_PI * t
    return complex(math.cos(ang), math.sin(ang))


def unit_phase(k: float, harmonic_k: float) -> complex:
    """e^{2 pi i (1/k - 2 H_k)} given H_k; the sign-reduced phase factor."""
    return phase_of_turns(1.0 / k - 2.0 * harmonic_k)


def half_angle(n: float) -> tuple[float, float]:
    """(sin, cos) of pi/n for n > 1, accurate through both endpoints.

    Near n = 1 the angle approaches pi, where direct evaluation loses the
    tiny sine to argument rounding; reducing through pi (n-1)/n keeps full
    relative accuracy, which the center-offset denominator needs.
    """
    if n < 2.0:
        y = math.pi * (n - 1.0) / n  # pi - pi/n, small when n ~ 1
        return math.sin(y), -math.cos(y)
    x = math.pi / n
    return math.sin(x), math.cos(x)


def signed_phase(n: float) -> complex:
    """(-1)^n = e^{i pi n}: exact +-1 at integers, else n/2 turns reduced exactly."""
    if float(n).is_integer():
        return complex(-1.0 if int(n) % 2 else 1.0, 0.0)
    return phase_of_turns(0.5 * n)


def harmonic_phases(start: float = 3) -> Iterator[tuple[float, float, complex]]:
    """(x, H_x, u(x)) for x = start + j, j = 0, 1, ...: the phases of
    E(start) = sum_{j>=0} (-1)^j l(x) u(x), u(x) = e^{2 pi i (1/x - 2 H_x)}.

    ``start`` may be real; each x is start + j, an int when ``start`` is.
    H_x starts from the digamma continuation of H_{start-1}, so a deep or
    real stream starts in O(1), and advances by compensated increments 1/x
    (two_sum), so N terms cost O(N).
    """
    s, c = harmonic_continued(start - 1), 0.0
    cos, sin = math.cos, math.sin  # locals: this loop is the hot path
    for j in itertools.count():
        k = start + j
        inv = 1.0 / k
        # two_sum(s, inv) inlined: the call made a term 10-30 % slower (2-vCPU x86-64 VM)
        t = s + inv
        v = t - s
        s, c = t, c + ((s - (t - v)) + (inv - v))
        hk = s + c
        t = inv - 2.0 * hk
        ang = TWO_PI * (t - round(t))
        yield k, hk, complex(cos(ang), sin(ang))


# E sums directly while x < _HEAD_STOP, where the phase still swings hard,
# and hands the smooth rest to the Euler transform.
_HEAD_STOP = 48


def _tail(f: LengthFunction, x: float, settings: AccelerationSettings) -> SummationResult:
    """E(x) = sum_{j>=0} (-1)^j l(x+j) u(x+j), the one alternating series
    behind every limit, deep vertex and interpolated vertex: terms with
    x + j < _HEAD_STOP summed with compensation, the rest by
    euler_transform_sum, whose outcome the result carries.
    """
    lf = f.as_callable()
    stream = harmonic_phases(x)
    s = c = 0j
    for j, (k, _, phase) in enumerate(stream):
        term = lf(float(k)) * phase
        if k >= _HEAD_STOP:
            break
        s, e = two_sum(s, -term if j % 2 else term)
        c += e
    rest = euler_transform_sum(
        itertools.chain((term,), (lf(float(k)) * phase for k, _, phase in stream)), settings
    )
    value = (s + c) + (-rest.value if j % 2 else rest.value)
    return replace(rest, value=value, terms_used=j + rest.terms_used)


# _tails sums this many columns at a time, so its working set stays flat
# however many points a curve asks for.
_COLUMNS = 256


def _tails(f: LengthFunction, xs: np.ndarray, settings: AccelerationSettings) -> SummationResult:
    """_tail(f, x, settings) at each x of the 1-D float array xs, summed
    column by column in chunks of _COLUMNS: a SummationResult of arrays
    whose entries carry the bits of the scalar results."""
    import numpy as np

    lf = f.as_callable()
    # an empty xs is one empty chunk, so the fields are empty arrays
    starts = range(0, len(xs) or 1, _COLUMNS)
    chunks = [_tail_columns(lf, xs[i : i + _COLUMNS], settings) for i in starts]
    return SummationResult(*(np.concatenate(field) for field in zip(*chunks)))


def _tail_columns(
    lf: Callable[[float], float], x: np.ndarray, settings: AccelerationSettings
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The steps of _tail over the columns x, each an elementwise copy of
    its scalar expression: (value, error estimate, converged, terms used).

    H_{x-1} is seeded with harmonic_continued's bits, as harmonic_phases
    seeds it (harmonic_array's np.log is an ulp off math.log on ~1e-4 of
    arguments), and complex products and moduli are formed as CPython
    forms them.  The head runs in lockstep over j; the Euler transform then
    aligns every column at its first Euler term, keeps one difference row
    per column, and drops each column once it stops.
    """
    import numpy as np

    m = len(x)
    h = _harmonic_exact(x - 1.0)
    hc = np.zeros(m)

    def terms(k, h, hc):
        """harmonic_phases' step from H_{k-1} to H_k, and l(k) u(k)."""
        inv = 1.0 / k
        t = h + inv
        v = t - h
        hc = hc + ((h - (t - v)) + (inv - v))
        lu = _turns(inv - 2.0 * (t + hc))
        lengths = np.fromiter(map(lf, k.tolist()), float, len(k))
        lu.real *= lengths
        lu.imag *= lengths
        return t, hc, lu

    # the head, x + j < _HEAD_STOP; heads ends as each column's j of its first Euler term
    s = np.zeros(m, dtype=complex)
    c = np.zeros(m, dtype=complex)
    heads = np.zeros(m, dtype=int)
    for j in range(_HEAD_STOP):
        i = np.flatnonzero(x + j < _HEAD_STOP)
        if not len(i):
            break
        h[i], hc[i], term = terms(x[i] + j, h[i], hc[i])
        s[i], e = two_sum(s[i], -term if j % 2 else term)
        c[i] += e
        heads[i] += 1
    # euler_transform_sum per column: rest (value, estimate, converged, used)
    value = np.empty(m, dtype=complex)
    err = np.empty(m)
    done = np.zeros(m, dtype=bool)
    used = np.empty(m, dtype=int)
    col, first = np.arange(m), heads
    diag = np.empty((m, 0), dtype=complex)
    total = np.zeros(m, dtype=complex)
    best = np.zeros(m, dtype=complex)
    best_err = np.full(m, math.inf)
    tol = settings.target_tolerance
    for j in range(settings.max_terms):
        if not len(col):
            break
        h, hc, a = terms(x + (first + j), h, hc)
        # new_diag[p] = new_diag[p - 1] - diag[p - 1], left to right
        diag = np.subtract.accumulate(np.column_stack((a, diag)), axis=1)
        head = diag[:, j]
        w = math.ldexp(1.0, -(j + 1))
        correction = np.empty_like(head)
        correction.real = head.real * w
        correction.imag = head.imag * w
        if j % 2:
            correction = -correction
        total = total + correction
        last_err = np.hypot(correction.real, correction.imag)  # abs() of a Python complex
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


def _limit_series(f: LengthFunction, settings: AccelerationSettings) -> SummationResult:
    """G_f = -E(3) = sum_{k>=3} (-1)^k l(k) u(k), the whole vertex series
    (the regularised sum when the sides tend to a constant): the limits of
    the convergence module and the base of every continued vertex."""
    whole = _tail(f, 3, settings)
    return replace(whole, value=-whole.value)


def continuation(f: LengthFunction, settings: AccelerationSettings) -> Callable[[float], SummationResult]:
    """n -> V(n) = G_f + e^{i pi n} E(n+1) for real n > 1, with G_f summed
    here, once, and each point summing only its tail E(n+1), both at
    ``settings``.  The error estimates add, and a value is converged only
    when both sums are.  Growing side lengths are refused before any sum.

    A single n (an int or a float) is summed by the scalar _tail, without
    numpy.  A sequence or array of n is summed column-wise by _tails, and
    the result then holds arrays of n's shape, entry for entry the bits
    of the scalar results; such n must all be finite with n + 1 > 2.
    """
    if f.asymptote().exponent < 0.0:
        raise ValueError(f"interpolant refused: {f} diverges (growing side lengths)")
    whole = _limit_series(f, settings)

    def at(n: float) -> SummationResult:
        if isinstance(n, (int, float)):
            tail = _tail(f, n + 1, settings)
            return SummationResult(
                whole.value + signed_phase(n) * tail.value,
                whole.error_estimate + tail.error_estimate,
                whole.converged and tail.converged,
                whole.terms_used + tail.terms_used,
            )
        import numpy as np

        n = np.asarray(n, dtype=float)
        ns = n.ravel()
        if not np.all((ns + 1.0 > 2.0) & (ns < math.inf)):
            raise ValueError("continuation requires finite n > 1 with n + 1 > 2")
        tail = _tails(f, ns + 1.0, settings)
        value = whole.value + _product(_signed_phases(ns), tail.value)
        return SummationResult(
            value.reshape(n.shape),
            (whole.error_estimate + tail.error_estimate).reshape(n.shape),
            (tail.converged & whole.converged).reshape(n.shape),
            (whole.terms_used + tail.terms_used).reshape(n.shape),
        )

    return at


# The dense kernel works in chunks of _CHUNK terms, so its working set
# stays near 0.6 MB however long the run (chunks of 2^12 would double it).
_CHUNK = 1 << 11


class _RunningSum:
    """Compensated running sums of a long real or complex series fed in
    chunks: Sum2 of Ogita, Rump and Oishi ("Accurate sum and dot product",
    SIAM J. Sci. Comput. 26(6), 2005) over each chunk, a numpy cumulative
    sum with the two_sum error of each of its additions summed beside it,
    continued from a carried two_sum head and correction, so no run of
    terms is added naively and each sum is rounded once.
    """

    def __init__(self, start: float | complex) -> None:
        self._s, self._c = start, 0.0

    def extend(self, terms: np.ndarray) -> np.ndarray:
        """The running sums, continued from the last, after each entry of
        the numpy array ``terms`` (float or complex, as at the start)."""
        import numpy as np

        p = np.add.accumulate(terms)
        fix = np.add.accumulate(two_sum(np.concatenate(([0.0], p[:-1])), terms)[1])
        head, err = two_sum(self._s, p)
        sums = head + ((self._c + fix) + err)
        self._s, e = two_sum(self._s, p[-1].item())
        self._c = self._c + fix[-1].item() + e
        return sums


def _turns(t: np.ndarray) -> np.ndarray:
    """e^{2 pi i t} at each entry of the float array t, reduced mod 1 in
    turns as phase_of_turns does."""
    import numpy as np

    ang = TWO_PI * (t - np.rint(t))
    out = np.empty(len(t), dtype=complex)
    out.real = np.cos(ang)
    out.imag = np.sin(ang)
    return out


def _signed_phases(n: np.ndarray) -> np.ndarray:
    """signed_phase at each entry of the float array n: e^{i pi n} through
    _turns, exact +-1 at the integers."""
    import numpy as np

    sign = _turns(0.5 * n)
    ints = np.floor(n) == n
    sign[ints] = np.where(np.fmod(n[ints], 2.0) != 0.0, -1.0, 1.0)
    return sign


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for complex arrays, as CPython forms each product: numpy's
    complex multiply differs in the last bits."""
    import numpy as np

    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _alternate(k0: int, z: np.ndarray) -> np.ndarray:
    """(-1)^k z for k = k0, k0 + 1, ...: z with the entries at odd k
    negated in place."""
    import numpy as np

    odd = z[1 - k0 % 2 :: 2]
    np.negative(odd, out=odd)
    return z


def _dense_series(
    f: LengthFunction,
    start: int,
    base: complex,
    end: int,
    harmonic: Callable[[np.ndarray], np.ndarray],
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The vertex series over k = start+1..end in chunks of _CHUNK terms:
    (first k, k as floats, H_k, (-1)^k l(k) u(k), V(k)) per chunk,
    V(start) = base, with u(k) = e^{2 pi i (1/k - 2 H_k)} reduced in
    turns, H_k = harmonic(ks), l(k) from scalar calls of f's evaluator, and
    V from one _RunningSum whose chunks count from start + 1.  The signs
    come from the int k, so they hold past 2^53, where the floats of
    consecutive k coincide.  A side length past the doubles raises
    ``ValueError``, naming f and its k.
    """
    import numpy as np

    lf = f.as_callable()
    acc = _RunningSum(base)
    for lo in range(start + 1, end + 1, _CHUNK):
        ks = float(lo) + np.arange(min(_CHUNK, end + 1 - lo), dtype=float)
        hs = harmonic(ks)
        try:
            lengths = np.fromiter(map(lf, ks.tolist()), float, len(ks))
        except OverflowError:
            for k in ks.tolist():
                _side(f, k)  # raises at the first length past the doubles
            raise
        terms = _alternate(lo, lengths * _turns(1.0 / ks - 2.0 * hs))
        yield lo, ks, hs, terms, acc.extend(terms)


# vertex_at sums runs of consecutive indices, except that an index above
# _TAIL_FROM and more than _JUMP_GAP past its predecessor jumps: it is read
# as G_f plus a signed Euler-summed tail, ~36 us, about the cost of summing
# 130 terms of a run.  _TAIL_FROM lies above figures._MAX_POLYGON, so the
# figures and every shallow index keep the bits of one run from V(2).
_TAIL_FROM = 2048
_JUMP_GAP = 64
_TAIL_SETTINGS = AccelerationSettings(1e-13)
# Work cap of one vertex_at call in summed terms (~4 s for power:-1 on a
# shared 2-vCPU x86-64 VM); a jump counts as _JUMP_GAP terms.
_MAX_STREAM = 10**7


def _index(n: float) -> int:
    """A vertex or polygon index as an int; 3.0 passes, 3.5, inf and nan raise."""
    if not (isinstance(n, int) or float(n).is_integer()):
        raise ValueError(f"indices must be integers, got {n!r}")
    return int(n)


def _check_work(deepest: int, jumps: dict[int, int]) -> None:
    """Refuse a walk to ``deepest`` that costs more than _MAX_STREAM terms.

    Every gap is summed except those of ``jumps`` ({n: gap}), which cost
    _JUMP_GAP each; the summed gaps telescope to deepest - 2 minus the
    jumped ones.
    """
    cost = deepest - 2 - sum(gap - _JUMP_GAP for gap in jumps.values())
    if cost > _MAX_STREAM:
        raise ValueError(
            f"vertex_at allows {_MAX_STREAM} streamed terms, these indices need {cost}"
        )


def vertex_at(f: LengthFunction, indices: Iterable[int]) -> dict[int, complex]:
    """Shared vertices V_f(n) for several indices in one ascending walk.

    V_f(2) = 0 and V_f(n) = sum_{k=3}^{n} (-1)^k l(k) e^{2 pi i (1/k - 2H_k)}.
    Each run of indices is summed by one numpy kernel from V(2) (or from a
    jump): H_k from the vectorised digamma, l(k) from scalar calls, phases
    reduced in turns, and compensated running sums over chunks of 2,048
    terms counted from the run's start, so dense ranges and every index up
    to 2,048 are direct sums whose bits do not depend on the other indices
    asked for.  An index above 2,048 more than 64 past the previous one
    instead jumps, in O(1), to V(n) = G_f + (-1)^n E(n+1), G_f = -E(3)
    (regularised for exponent 0),
    E(x) = sum_{j>=0} (-1)^j l(x+j) u(x+j), both at tolerance 1e-13.  It
    sums the run after all when the sides grow or a sum does not converge.

    Raises ``ValueError`` before any work for an index that is not integral
    or whose n + 1 does not fit in a double, and before any run when the
    walk would sum more than 10^7 terms (~4 s), counting each jump as 64.
    """
    wanted = set(map(_index, indices))
    order = sorted(wanted)
    if not order:
        return {}
    if order[0] < 2:
        raise ValueError(f"vertex indices must be >= 2, got {order[0]}")
    try:
        float(order[-1] + 1)
    except OverflowError:
        raise ValueError(f"vertex index n + 1 must fit in a double, got n = {order[-1]}") from None
    # deep: {n: gap} for the indices above _TAIL_FROM more than _JUMP_GAP past
    # the previous one (or 2); gaps are >= 1, so a dense range skips the scan
    i = bisect.bisect_right(order, _TAIL_FROM)
    prev = order[i - 1] if i else 2
    deep = {}
    if f.asymptote().exponent >= 0.0 and order[-1] - prev > len(order) - i - 1 + _JUMP_GAP:
        deep = {n: n - p for p, n in zip([prev, *order[i:]], order[i:]) if n - p > _JUMP_GAP}
    _check_work(order[-1], deep)
    jumps = {}
    if deep:
        v = continuation(f, _TAIL_SETTINGS)  # G_f summed once for every jump
        jumps = {n: res.value for n in deep if (res := v(n)).converged}
    _check_work(order[-1], {n: deep[n] for n in jumps})
    # runs (start, V(start), end): one from each start to the index before
    # the next start, the last one to the deepest index
    starts = [(2, 0j), *jumps.items()]
    ends = [n - deep[n] for n in jumps] + [order[-1]]
    out = {}
    for (start, base), end in zip(starts, ends):
        if start in wanted:
            out[start] = base
        i = bisect.bisect_right(order, start)
        for lo, ks, _, _, sums in _dense_series(f, start, base, end, harmonic_array):
            j = bisect.bisect_right(order, lo + len(ks) - 1, i)
            values = sums.tolist()
            out.update((n, values[n - lo]) for n in order[i:j])
            i = j
    return out


def vertex(f: LengthFunction, n: int) -> complex:
    """Shared vertex V_f(n) of the n-gon and (n+1)-gon, n >= 2."""
    return vertex_at(f, (n,))[n]


def _side(f: LengthFunction, x: float) -> float:
    """f(x), with a length past the doubles refused as a ``ValueError``."""
    try:
        return f(x)
    except OverflowError:
        raise ValueError(
            f"the side length of {f} at n = {x!r} is non-finite (overflows a double)"
        ) from None


def q_term(f: LengthFunction, n: float) -> complex:
    """Center-minus-vertex offset Q_f(n) of the n-gon, for real n > 1.

    Q_f(n) = (-1)^n l(n) e^{2 pi i (1/n - 2 H_n)} / (e^{2 pi i / n} - 1),
    with (-1)^n = e^{i pi n} off the integers.  Its modulus is the
    circumradius |l(n)| / (2 sin(pi/n)).  A side length or an offset
    past the doubles raises ``ValueError``.
    """
    if not 1.0 < n < math.inf:
        raise ValueError(f"q_term requires a finite n > 1, got {n}")
    num = signed_phase(n) * _side(f, n) * unit_phase(n, harmonic_continued(n))
    # e^{2 pi i / n} - 1 = 2 sin(pi/n) (-sin(pi/n) + i cos(pi/n)), which
    # avoids the cos - 1 cancellation at both ends of the domain
    s, c = half_angle(n)
    den = (2.0 * s) * complex(-s, c)
    q = num / den
    if not cmath.isfinite(q):
        raise ValueError(f"the offset Q(n) of {f} at n = {n!r} is non-finite (overflows a double)")
    return q


def center(f: LengthFunction, n: int) -> complex:
    """Center C_f(n) = V_f(n) + Q_f(n) of the n-gon, n >= 3."""
    if n < 3:
        raise ValueError(f"center requires n >= 3, got {n}")
    return vertex(f, n) + q_term(f, n)


@dataclass(frozen=True)
class PolygonGeometry:
    """A fully enumerated regular n-gon of the construction.

    vertices[0] is the shared vertex V(n) (shared with the (n+1)-gon) and
    vertices[1] is V(n-1) (shared with the (n-1)-gon); the remaining
    vertices follow counterclockwise.  ``degenerate`` marks zero side
    length, where every vertex collapses onto the center.
    """

    n: int
    side_length: float
    interior_angle: float
    center: complex
    vertices: tuple[complex, ...]
    degenerate: bool

    @property
    def circumradius(self) -> float:
        return abs(self.side_length) / (2.0 * math.sin(math.pi / self.n))


# Largest polygon enumerated (one complex per vertex, ~0.5 s).
_MAX_SIDES = 10**6


def _sides(n: int) -> int:
    """A polygon index as an int; ``ValueError`` unless integral, 3 <= n <= 10^6."""
    n = _index(n)
    if not 3 <= n <= _MAX_SIDES:
        raise ValueError(f"polygon requires 3 <= n <= {_MAX_SIDES}, got {n}")
    return n


def polygon(f: LengthFunction, n: int) -> PolygonGeometry:
    """Enumerate the n-gon of the construction, 3 <= n <= 10^6 (checked first)."""
    return polygon_from_vertex(f, n, vertex(f, _sides(n)))


def polygon_from_vertex(f: LengthFunction, n: int, v: complex) -> PolygonGeometry:
    """Enumerate the n-gon from its shared vertex v = V(n), e.g. one entry of
    a vertex_at pass: vertices C + (v - C) e^{2 pi i k / n}, C = v + Q(n).
    Raises ``ValueError`` before any work unless n is integral, 3 <= n <= 10^6."""
    n = _sides(n)
    side = _side(f, float(n))
    c = v + q_term(f, n)
    spoke = v - c
    verts = tuple(
        c + spoke * cmath.exp(2j * math.pi * k / n) for k in range(n)
    )
    return PolygonGeometry(
        n=n,
        side_length=side,
        interior_angle=math.pi * (n - 2) / n,
        center=c,
        vertices=verts,
        degenerate=abs(side) <= DEGENERATE_SIDE,
    )


def interpolated_vertex(
    f: LengthFunction, n: float, settings: AccelerationSettings | None = None
) -> SummationResult:
    """Smooth continuation of the vertex sequence at real n > 1: the one
    point continuation(f, settings)(n), V(n) = G_f + e^{i pi n} E(n+1).

    n must be finite with n + 1 > 2 in doubles, so the tail never starts
    at x = 2; it is checked first, then growing side lengths are refused,
    both before any sum runs.
    """
    if not 2.0 < n + 1.0 < math.inf:
        raise ValueError(f"interpolated_vertex requires a finite n > 1, n + 1 > 2, got n = {n!r}")
    return continuation(f, settings or AccelerationSettings())(n)
