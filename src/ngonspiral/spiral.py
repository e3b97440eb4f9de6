"""Geometric core of the n-gon spiral.

The construction places a regular n-gon for every n >= 3 so that
consecutive polygons share a vertex and touch along a side.  The heading
followed from one shared vertex to the next has the closed form

    theta_n = 2 pi (n/2 + 1/n - 2 H_n),     theta_2 = -3 pi,

and the shared vertices are the running sums V(n) = sum l(k) e^{i theta_k}
from k = 3, with V(2) = 0 seeding the spiral at the origin.  For integer k
the phase reduces to (-1)^k u(k), u(x) = e^{2 pi i (1/x - 2 H_x)}, whose
reduced angle stays O(log x) instead of O(x), dodging the argument-reduction
error of the raw closed form.  The scalar tail below reads u term by term
from harmonic_phases(); dense runs (vertex_at, the telescoping identity
check) and batched tails read it in the numpy kernels of _arrays.  As the
whole series minus its tail, the vertices and their smooth continuation to real
n are one formula,

    V(n) = G_f + e^{i pi n} E(n+1),   G_f = -E(3),   E(x) = sum_{j>=0} (-1)^j l(x+j) u(x+j),

with one kernel for E.  G_f is the limit (a point, or the orbit center when
the sides tend to a constant) and depends only on the family and the
settings, so continuation() sums it once and returns n -> V(n).  At one n
it sums one tail, in Python: interpolated_vertex reads it at one real n,
and vertex_at at deep indices, in O(1), summing only short gaps.  At an
array of n, the points of a figure's curve, it sums all their tails at
once, column by column, with the scalar tail's steps and bits.

Fractional powers (-1)^x are always read as e^{i pi x}, the continuous
branch; that is the only choice under which the analytic continuations in
the telescoping module are smooth.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
import operator
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator

from .lengthfns import LengthFunction
from .numerics import (
    TWO_PI,
    AccelerationSettings,
    SummationResult,
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


def _limit_series(f: LengthFunction, settings: AccelerationSettings) -> SummationResult:
    """G_f = -E(3) = sum_{k>=3} (-1)^k l(k) u(k), the whole vertex series
    (the regularised sum when the sides tend to a constant): the limits of
    the convergence module and the base of every continued vertex."""
    whole = _tail(f, 3, settings)
    return replace(whole, value=-whole.value)


# The float steps of the formulas written once for one number or many,
# without numpy; _arrays._ARRAY holds their array mirrors under these names.
# The tail looks _tail up per call, so a replaced spiral._tail serves it too.
_FLOAT = SimpleNamespace(turns=phase_of_turns, signed=signed_phase, harmonic=harmonic_continued,
                         mul=operator.mul, half_angle=half_angle, tail=lambda *args: _tail(*args))


def _space(n) -> tuple:
    """(n, steps) for a formula written once for one number or many: one
    number (anything without a length) read by _number, with the float
    steps; a sequence or array read as a float array, with _arrays' array
    steps, whose entries carry the float steps' bits.  A domain check on such
    n joins comparisons with |, which reads a number and an array alike (~ would not: ~True is -2)."""
    if type(n) is float:  # the common case, ~0.1 us sooner
        return n, _FLOAT
    if hasattr(n, "__len__"):
        from ._arrays import _ARRAY, np

        return np.asarray(n, dtype=float), _ARRAY
    return _number(n), _FLOAT


def continuation(f: LengthFunction, settings: AccelerationSettings) -> Callable[[float], SummationResult]:
    """n -> V(n) = G_f + e^{i pi n} E(n+1) for real n > 1, with G_f summed
    here, once, and each point summing only its tail E(n+1), both at
    ``settings``.  The error estimates add, and a value is converged only
    when both sums are.  Growing side lengths are refused before any sum.

    n is read by _space: one number is summed by the scalar _tail, without
    numpy; a sequence or array of n is summed column-wise by _arrays._tails,
    and the result then holds arrays of n's shape, entry for entry the bits
    of the scalar results.  One check, for both, refuses n unless it is
    finite with n + 1 > 2, so a tail never starts at x = 2.
    """
    if f.asymptote().exponent < 0.0:
        raise ValueError(f"interpolant refused: {f} diverges (growing side lengths)")
    whole = _limit_series(f, settings)

    def at(n: float) -> SummationResult:
        n, xp = _space(n)
        _refuse((n + 1.0 <= 2.0) | (n >= math.inf) | (n != n), n,
                "continuation requires finite n > 1 with n + 1 > 2")
        tail = xp.tail(f, n + 1, settings)
        return SummationResult(
            whole.value + xp.mul(xp.signed(n), tail.value),
            whole.error_estimate + tail.error_estimate,
            tail.converged & whole.converged,
            whole.terms_used + tail.terms_used,
        )

    return at


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
    jump): H_k from the vectorised digamma, l(k) from the array formula, phases
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
    _refuse(order[0] < 2, order[0], "vertex indices must be >= 2, got {}")
    _number(order[-1] + 1, f"vertex index n + 1, n = {order[-1]},")
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
    from ._arrays import _dense_series, harmonic_array

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
    n = _number(n)
    _refuse(not 1.0 < n < math.inf, n, "q_term requires a finite n > 1, got {}")
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
    if not 2.0 < _number(n) + 1.0 < math.inf:
        raise ValueError(f"interpolated_vertex requires a finite n > 1, n + 1 > 2, got n = {n!r}")
    return continuation(f, settings or AccelerationSettings())(n)
