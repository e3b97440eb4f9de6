"""Geometric core of the n-gon spiral.

The construction places a regular n-gon for every n >= 3 so that
consecutive polygons share a vertex and touch along a side.  The heading
followed from one shared vertex to the next has the closed form

    theta_n = 2 pi (n/2 + 1/n - 2 H_n),     theta_2 = -3 pi,

and the shared vertices are the running sums V(n) = sum l(k) e^{i theta_k}
from k = 3, with V(2) = 0 seeding the spiral at the origin.  For integer k
the phase reduces to (-1)^k u(k), u(x) = e^{2 pi i (1/x - 2 H_x)}, whose
reduced angle stays O(log x) instead of O(x), dodging the argument-reduction
error of the raw closed form.  The shared vertex and side fix theta_k, so
u(k) at the integers is the same for every family: only l(k) is free.  One
phase stream serves every sum: H_k = s + c stepped by two_sum and each
phase reduced in turns before 2 H_k rounds (_phases).  The scalar tail
below reads its terms one by one from _tail_terms(), G_f's phases from one
table of u(3), u(4), ... built on first use; dense runs (vertex_at, the
telescoping identity check) and batched tails take the same steps in the
numpy kernels of _arrays, where one Sum2 cascade carries a run's H_k and
its vertices across chunks; a run of at most 16 terms, and a ring of at most
16 corners, take those steps one float at a time here, with their bits,
without numpy.  V(3), ..., V(4,098) depend only on the family, so every
longer vertex_at run from V(2) reads them from one table per family there,
summed by its first such run in a process, and sums only past them.  As
the whole series minus its tail, the vertices and their smooth
continuation to real n are one formula,

    V(n) = G_f + e^{i pi n} E(n+1),   G_f = -E(3),   E(x) = sum_{j>=0} (-1)^j l(x+j) u(x+j),

with one kernel for E: CVZ weights below x = 48, the Euler transform from
there on.  G_f is the limit (a point, or the orbit center when
the sides tend to a constant) and depends only on the family and the
settings, so continuation() sums it once per family and settings in a
process, kept in a bounded cache, and returns n -> V(n).  At one n
it sums one tail, in Python: interpolated_vertex reads it at one real n,
and vertex_at at deep indices and, beside them, past long shallow gaps, in
O(1), summing only short gaps.  At an array of n, the points of a figure's
curve, it sums all their tails at once, column by column, with the scalar
tail's steps and bits.

Fractional powers (-1)^x are always read as e^{i pi x}, the continuous
branch; that is the only choice under which the analytic continuations in
the telescoping module are smooth.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import math
import operator
import reprlib
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator

from .lengthfns import LengthFunction
from .numerics import (
    TWO_PI,
    AccelerationSettings,
    SummationResult,
    _CVZ_MAX_ORDER,
    _DEFAULT_SETTINGS,
    _cvz_transform_sum,
    _index,
    _number,
    _refuse,
    euler_transform_sum,
    harmonic_continued,
    two_sum,
)

__all__ = [
    "PolygonGeometry",
    "center",
    "continuation",
    "interpolated_vertex",
    "polygon",
    "polygon_from_vertex",
    "q_term",
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
    return cmath.rect(1.0, TWO_PI * (t - round(t)))  # complex(cos(a), sin(a)), bit for bit


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


def _phases(x: float, lf: Callable[[float], float] | None = None) -> Iterator[complex]:
    """u(x+j), j = 0, 1, ...: the phases of E(x), whatever the side lengths;
    given the length formula lf, the terms l(x+j) u(x+j) of E(x) instead.
    One loop (a nested generator made 28 terms ~12 % slower, 2-vCPU x86-64
    VM) steps H_{x+j} = s + c from the digamma continuation of H_{x-1}, so
    a deep or real x starts in O(1), each x + j formed from x (an int when x
    is), c gathering each step's exact rounding error (two_sum).  A phase is
    reduced in turns before 2 H rounds: 2 s sheds its whole turns exactly
    (% 1.0), then 1/x and 2 c join the fraction, so a phase is within an ulp
    or two of a turn, where 1/x - 2 H_x would round at the ulp of 2 H_x
    (2e-15 turns at x = 48, 4e-15 at x = 10^6).  Against 40-digit sums, that
    takes a limit of the families whose terms tend to 2 pi from ~1e-13 off to ~1e-14,
    and a run to 2 x 10^4 from ~5e-12 to ~5e-13 (_arrays._run_phases takes
    these steps over a chunk at once).
    """
    # locals: this loop is the hot path.  Below, t = (1/k - m) - 2 c lies in
    # (-1, 1) (0 <= m < 1, c tiny), so t + rnd lies in [2^52, 2^53), where the
    # doubles are the integers, and (t + rnd) - rnd is round(t), half to even
    rect, rnd = cmath.rect, 1.5 * 2.0**52
    s, c = harmonic_continued(x - 1), 0.0
    for j in itertools.count():
        k = x + j
        inv = 1.0 / k
        # two_sum(s, inv) inlined: the call made a term 10-30 % slower (2-vCPU x86-64 VM)
        t = s + inv
        v = t - s
        s, c = t, c + ((s - (t - v)) + (inv - v))
        t = (inv - (2.0 * s) % 1.0) - 2.0 * c
        # rect(1.0, a) is complex(cos(a), sin(a)), bit for bit, in one call, and
        # lf reads an int k as float(k): ~0.15 us a term less (2-vCPU x86-64 VM)
        u = rect(1.0, TWO_PI * (t - ((t + rnd) - rnd)))
        yield u if lf is None else lf(k) * u


@functools.lru_cache(maxsize=None)
def _limit_phases() -> tuple[complex, ...]:
    """u(3), ..., u(_CVZ_MAX_ORDER + 2), the first entries of _phases(3): the
    shared sides fix the spiral's turns, so every G_f reads these phases.
    Built by the first G_f summed, never at import."""
    return tuple(itertools.islice(_phases(3), _CVZ_MAX_ORDER))


def _tail_terms(f: LengthFunction, x: float) -> Iterator[complex]:
    """l(x+j) u(x+j), j = 0, 1, ...: the terms of E(x) with the sign
    extracted.  At x = 3, the tail of G_f, they are the table
    _limit_phases()'s terms alone, so a G_f sum costs only its side lengths
    and products: it is a CVZ sum, whose orders stop at the table's length;
    every other x streams them."""
    lf = f.as_callable()
    if x != 3:
        return _phases(x, lf)
    table = _limit_phases()
    return map(operator.mul, map(lf, map(float, range(3, 3 + len(table)))), table)


# Below x = _EULER_FROM, where the phases still swing hard, E(x) is one CVZ
# weighted sum (~24-40 terms); from there on the terms are smooth and the Euler
# transform stops after 4-16.
_EULER_FROM = 48


def _tail(f: LengthFunction, x: float, settings: AccelerationSettings) -> SummationResult:
    """E(x) = sum_{j>=0} (-1)^j l(x+j) u(x+j), the one alternating series
    behind every limit, deep vertex and interpolated vertex: by CVZ weights
    (_cvz_transform_sum) while x < _EULER_FROM, else by euler_transform_sum;
    the result carries the accelerator's outcome.
    """
    terms = _tail_terms(f, x)
    if x < _EULER_FROM:
        return _cvz_transform_sum(terms, settings)
    return euler_transform_sum(terms, settings)


def _limit_series(f: LengthFunction, settings: AccelerationSettings) -> SummationResult:
    """G_f = -E(3) = sum_{k>=3} (-1)^k l(k) u(k), the whole vertex series
    (the regularised sum when the sides tend to a constant): the limits of
    the convergence module and the base of every continued vertex."""
    whole = _tail(f, 3, settings)
    return SummationResult(-whole.value, whole.error_estimate, whole.converged, whole.terms_used)


# continuation()'s G_f, one entry per (family, settings): both are frozen
# dataclasses, equal by value (power:0.0 and power:-0.0 share an entry, and
# their formulas and sums are the same).  64 entries hold several times over
# what one task reads (a series-queries pass: 11 families at one setting);
# an entry holds a result, a family and a setting, ~0.3 kB.  A miss looks
# _limit_series up per call, so a replaced spiral._limit_series serves it
# too; a sum that raises stores nothing.  The limits of the convergence
# module (limit_point, classify, orbit_center) sum G_f on every call and
# skip this cache: they return G_f itself, so it would only hold repeated
# identical calls.
@functools.lru_cache(maxsize=64)
def _cached_limit_series(f: LengthFunction, settings: AccelerationSettings) -> SummationResult:
    return _limit_series(f, settings)


# The float steps of the formulas written once for one number or many,
# without numpy; _arrays._ARRAY holds their array mirrors under these names.
_FLOAT = SimpleNamespace(turns=phase_of_turns, signed=signed_phase, harmonic=harmonic_continued,
                         mul=operator.mul, half_angle=half_angle)


def _space(n) -> tuple:
    """(n, steps) for a formula written once for one number or many: one
    number (anything without a length, and a str or bytes, which it refuses)
    read by _number, with the float steps; a sequence or array read as a float
    array, with _arrays' array steps, whose entries carry the float steps' bits.
    ``ValueError`` names n for an array of other than bools, integers and floats,
    or for an entry past the doubles.  A domain check on such n joins
    comparisons with |, which reads a number and an array alike (~ would not: ~True is -2)."""
    # the common cases, as _number returns them (an int below 2^1000 fits the doubles):
    # q_closed(2.5) takes 0.2-0.5 us (~10 %) longer without it, a vertex_at jump ~0.4 us
    if type(n) is float or type(n) is int and n.bit_length() < 1000:
        return n, _FLOAT
    if not hasattr(n, "__len__") or isinstance(n, (str, bytes)):
        return _number(n), _FLOAT
    from ._arrays import _ARRAY, np

    x = np.asarray(n)
    if x.dtype.kind == "O" and not isinstance(n, np.ndarray):  # a sequence with ints past int64
        x = np.array([_number(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"n must hold bools, integers or floats, got an array of {x.dtype}")
    return np.asarray(x, dtype=float), _ARRAY


def continuation(f: LengthFunction, settings: AccelerationSettings) -> Callable[[float], SummationResult]:
    """n -> V(n) = G_f + e^{i pi n} E(n+1) for real n > 1, with G_f summed
    once per family and settings in a process (the first continuation of
    each sums it, later ones read it from a cache of 64) and each point
    summing only its tail E(n+1), both at ``settings``.  The error estimates
    add, and a value is converged only when both sums are.  Growing side
    lengths are refused before any sum.

    n is read by _space: one number is summed by the scalar _tail, without
    numpy; a sequence or array of n is summed column-wise by _arrays._tails,
    and the result then holds arrays of n's shape, entry for entry the bits
    of the scalar results.  One check, for both, refuses n unless it is
    finite with n + 1 > 2, so a tail never starts at x = 2.
    """
    if f.asymptote().exponent < 0.0:
        raise ValueError(f"interpolant refused: {f} diverges (growing side lengths)")
    whole = _cached_limit_series(f, settings)

    def at(n: float) -> SummationResult:
        n, xp = _space(n)
        _refuse((n + 1.0 <= 2.0) | (n >= math.inf) | (n != n), n,
                "continuation requires finite n > 1 with n + 1 > 2")
        # _tail is looked up per call, so a replaced spiral._tail serves it too
        tail = _tail(f, n + 1, settings) if xp is _FLOAT else xp.tail(f, n + 1, settings)
        return SummationResult(
            whole.value + xp.mul(xp.signed(n), tail.value),
            whole.error_estimate + tail.error_estimate,
            tail.converged & whole.converged,
            whole.terms_used + tail.terms_used,
        )

    return at


# vertex_at sums runs of consecutive indices, except that an index above
# _TAIL_FROM and more than _JUMP_GAP past its predecessor jumps: it is read
# as G_f plus a signed Euler-summed tail, ~13-25 us, the cost of summing 60-250
# terms of a deep run (2-vCPU x86-64 VM).  Once G_f is summed for such a jump, an
# index at or below _TAIL_FROM jumps too when it lies more than _SHALLOW_GAP past
# its predecessor.  _SHALLOW_GAP is where a jump beat a run of ~0.04-0.21 us
# terms (~350-450 of them; at a gap of 64,
# vertex_at(power:0, [*range(100, 2001, 100), 10**5]) took 3.5x as long).  A run
# from V(2) to k <= 4,098 now reads its family's table (_arrays._first_run) at
# no cost per term once the family's first run has built it, so such a jump
# saves nothing there; it stays for accuracy: a jump is within 3.7e-14 of 40
# digits at k <= 2,048, a run from V(2) up to 7.5e-14 off (circumscribed:-1).
# _TAIL_FROM lies above figures._MAX_POLYGON, and a call that asks for nothing
# above it jumps nothing, so the figures and every such call keep the bits of
# one run from V(2).
_TAIL_FROM = 2048
_JUMP_GAP = 64
_SHALLOW_GAP = 512
_TAIL_SETTINGS = AccelerationSettings(1e-13)
# A run of at most _FLOAT_STEPS terms, and a ring of at most _FLOAT_STEPS
# corners, takes the float steps of the array kernels, with their bits: numpy's
# import (~70-85 ms) and _first_run's 4,096-entry table dwarf such work (a cold
# vertex(f, 12) takes ~35-60 us, 0.3-1 ms through the table; 2-vCPU x86-64 VM).
# The paper's small figures (fig2: n <= 9, fig4a: n <= 12) stay within it.
_FLOAT_STEPS = 16
# Work cap of one vertex_at call in summed terms (~4 s for power:-1 on a
# shared 2-vCPU x86-64 VM); a jump counts as _JUMP_GAP terms.
_MAX_STREAM = 10**7


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


def _gaps(order: list[int], lo: int, hi: int, gap: int) -> dict[int, int]:
    """{n: n - p} for the indices n of order[lo:hi] more than ``gap`` past the
    previous index p (or 2); gaps are >= 1, so a dense range skips the scan."""
    prev = order[lo - 1] if lo else 2
    if hi == lo or order[hi - 1] - prev <= hi - lo - 1 + gap:
        return {}
    part = order[lo:hi]
    return {n: n - p for p, n in zip([prev, *part], part) if n - p > gap}


def _float_run(f: LengthFunction, start: int, base: complex, end: int) -> list[complex]:
    """V(start + 1), ..., V(end) from V(start) = base, a short run by the float
    steps of _arrays._dense_series, with its bits below 2^53: the terms
    l(k) u(k) of _phases(start + 1), whose H is seeded with H_start (exactly
    3/2 at start 2), the sign from the int k, and V = s + c by _cascade's
    Sum2 steps, c gathering each step's two_sum error.  A side length past
    the doubles raises the run's ``ValueError``.  Past 2^53 the two read l
    and 1/k at other doubles: here at float(k), the double nearest each k,
    there at float(start + 1) + j; their seeds, signs and sums agree."""
    s, c, sums = base, 0j, []
    try:
        for k, t in zip(range(start + 1, end + 1), _phases(start + 1, f.as_callable())):
            s, e = two_sum(s, -t if k % 2 else t)
            c += e
            sums.append(s + c)
    except OverflowError:
        for k in range(start + 1, end + 1):
            _side(f, float(k))  # raises at the first length past the doubles
        raise
    return sums


def vertex_at(f: LengthFunction, indices: Iterable[int]) -> dict[int, complex]:
    """Shared vertices V_f(n) for several indices in one ascending walk.

    V_f(2) = 0 and V_f(n) = sum_{k=3}^{n} (-1)^k l(k) e^{2 pi i (1/k - 2H_k)}.
    Each run of indices is summed by one numpy kernel from V(2) (or from a
    jump): H_k = s + c stepped from H_2 = 3/2 (or from H_n at a jump at n)
    and phases reduced in turns, as the tails' are, l(k) from the array
    formula, and V by the same Sum2 cascade as H_k, each carried across
    chunks of 4,096 terms counted from the run's start, so V(k) is rounded
    once from the run's start; dense ranges, and every index of a
    call that asks for nothing above 2,048, are direct sums whose bits do
    not depend on the other indices asked for.  A run of at most 16 terms
    takes the same steps one float at a time (_float_run), without numpy,
    with the kernel's bits below 2^53.  A longer run from V(2) reads
    V(3), ..., V(4,098) and the carries past them from one table per
    family, built by the family's first such run in a process (unless a
    side length or sum there is past the doubles), so a warm family sums
    only past k = 4,098; only the asked entries become Python numbers.  An
    index above 2,048 more than 64 past the previous one (the first counted
    from 2) instead jumps, in O(1), to V(n) = G_f + (-1)^n E(n+1),
    G_f = -E(3) (regularised for exponent 0),
    E(x) = sum_{j>=0} (-1)^j l(x+j) u(x+j), both at tolerance 1e-13; once
    one does, so does an index up to 2,048 more than 512 past the previous
    one.  A jump sums the run after
    all when the sides grow or a sum does not converge.

    Raises ``ValueError`` before any work for an index that is not integral
    or whose n + 1 does not fit in a double, and before any run when the
    walk would sum more than 10^7 terms (~4 s), counting each jump as 64.
    """
    wanted = set(map(_index, indices))
    order = sorted(wanted)
    if not order:
        return {}
    _refuse(order[0] < 2, order[0], "vertex indices must be >= 2, got {}")
    _number(order[-1] + 1, f"vertex index n + 1, n = {order[-1]},")
    # deep: {n: gap} for the indices above _TAIL_FROM more than _JUMP_GAP past
    # the previous one (or 2), then, once G_f is summed for them, for those at
    # or below it more than _SHALLOW_GAP past theirs, in ascending order
    i = bisect.bisect_right(order, _TAIL_FROM)
    deep = _gaps(order, i, len(order), _JUMP_GAP) if f.asymptote().exponent >= 0.0 else {}
    if deep:
        deep = {**_gaps(order, 0, i, _SHALLOW_GAP), **deep}
    _check_work(order[-1], deep)
    jumps = {}
    if deep:
        v = continuation(f, _TAIL_SETTINGS)  # one G_f for every jump, summed once per family
        jumps = {n: res.value for n in deep if (res := v(n)).converged}
    if len(jumps) < len(deep):  # a refused jump is summed after all
        _check_work(order[-1], {n: deep[n] for n in jumps})
    # runs (start, V(start), end): one from each start to the index before
    # the next start, the last one to the deepest index
    starts = [(2, 0j), *jumps.items()]
    ends = [n - deep[n] for n in jumps] + [order[-1]]
    out = {}
    for (start, base), end in zip(starts, ends):
        if start in wanted:
            out[start] = base
        if start == end:  # an empty run: the next asked index jumps too
            continue
        i = bisect.bisect_right(order, start)
        if end - start <= _FLOAT_STEPS:
            sums = _float_run(f, start, base, end)
            out.update((n, sums[n - start - 1]) for n in order[i : bisect.bisect_right(order, end, i)])
            continue
        from ._arrays import _dense_series

        for lo, _, sums in _dense_series(f, start, base, end):
            j = bisect.bisect_right(order, lo + len(sums) - 1, i)
            if i < j:  # only the asked entries become Python complex numbers
                span = sums[order[i] - lo : order[j - 1] + 1 - lo]
                if len(span) > j - i:
                    span = span[[n - order[i] for n in order[i:j]]]
                out.update(zip(order[i:j], span.tolist()))
            i = j
    return out


def vertex(f: LengthFunction, n: int) -> complex:
    """Shared vertex V_f(n) of the n-gon and (n+1)-gon, integral n >= 2."""
    n = _index(n)
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
    n = _number(n)
    _refuse(not 1.0 < n < math.inf, n, "q_term requires a finite n > 1, got {}")
    num = signed_phase(n) * _side(f, n) * phase_of_turns(1.0 / n - 2.0 * harmonic_continued(n))
    # e^{2 pi i / n} - 1 = 2 sin(pi/n) (-sin(pi/n) + i cos(pi/n)), which
    # avoids the cos - 1 cancellation at both ends of the domain
    s, c = half_angle(n)
    den = (2.0 * s) * complex(-s, c)
    q = num / den
    if not cmath.isfinite(q):
        raise ValueError(f"the offset Q(n) of {f} at n = {n!r} is non-finite (overflows a double)")
    return q


def center(f: LengthFunction, n: int) -> complex:
    """Center C_f(n) = V_f(n) + Q_f(n) of the n-gon, integral n >= 3."""
    n = _index(n)
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


# Largest polygon enumerated: one complex per vertex, ~0.15 s and ~40 MB at
# 10^6 (2-vCPU x86-64 VM), the ring built _arrays._CHUNK corners at a time.
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


def _point(v) -> complex:
    """v as one finite complex number; ``ValueError`` naming v for anything
    else: a str, bytes or array (even of one entry), nan, inf or no number."""
    if not hasattr(v, "__len__"):  # complex() would parse a str; an array has a length
        try:
            z = complex(v)
        except (TypeError, OverflowError):
            pass
        else:
            if cmath.isfinite(z):
                return z
    raise ValueError(f"v must be one finite complex number, got {reprlib.repr(v)}")


def polygon_from_vertex(f: LengthFunction, n: int, v: complex) -> PolygonGeometry:
    """Enumerate the n-gon from its shared vertex v = V(n), e.g. one entry of
    a vertex_at pass: vertices C + (v - C) e^{2 pi i k / n}, C = v + Q(n),
    corner by corner up to n = 16, without numpy, else by _arrays._ring, with
    the same bits.  Raises ``ValueError`` before any work unless n is
    integral, 3 <= n <= 10^6, and v one finite complex number."""
    n = _sides(n)
    v = _point(v)
    side = _side(f, float(n))
    c = v + q_term(f, n)
    spoke = v - c
    if n <= _FLOAT_STEPS:  # _ring's formula, corner by corner
        angles = (TWO_PI * k / n for k in range(n))
        verts = tuple(c + spoke * complex(math.cos(y), math.sin(y)) for y in angles)
    else:
        from ._arrays import _ring

        verts = tuple(_ring(c, spoke, n))
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
    G_f is summed by the first call for each family and settings and read
    from continuation()'s cache after, so a later call sums only E(n+1).

    n must be finite with n + 1 > 2 in doubles, so the tail never starts
    at x = 2; it is checked first, then growing side lengths are refused,
    both before any sum runs.
    """
    if not 2.0 < _number(n) + 1.0 < math.inf:
        raise ValueError(f"interpolated_vertex requires a finite n > 1, n + 1 > 2, got n = {n!r}")
    return continuation(f, settings or _DEFAULT_SETTINGS)(n)
