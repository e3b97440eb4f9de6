"""Geometric core of the n-gon spiral.

The construction places a regular n-gon for every n >= 3 so that
consecutive polygons share a vertex and touch along a side.  The heading
followed from one shared vertex to the next has the closed form

    theta_n = 2 pi (n/2 + 1/n - 2 H_n),     theta_2 = -3 pi,

and the shared vertices are the running sums V(n) = sum l(k) e^{i theta_k}
from k = 3, with V(2) = 0 seeding the spiral at the origin.  For integer k
the phase reduces to (-1)^k e^{2 pi i (1/k - 2 H_k)}.  Every series over
integer k (vertices, limits, the interpolant and the telescoping check)
reads that phase from the one stream harmonic_phases(): its reduced angle
stays O(log k) instead of O(k), dodging the argument-reduction error of
the raw closed form, so no kernel evaluates theta_n itself.

A deep vertex costs O(1), not O(n): when the sides do not grow, V(n) is
the whole series G_f (a point, or the orbit center when the sides tend to
a constant) minus its tail beyond n, and both are Euler-summed in a
handful of terms.  vertex_at streams only the short gaps between the
indices it is asked for, and every index up to 2,048.

Fractional powers (-1)^x are always read as e^{i pi x}, the continuous
branch; that is the only choice under which the analytic continuations in
the telescoping module are smooth.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .lengthfns import LengthFunction
from .numerics import (
    TWO_PI,
    AccelerationSettings,
    ComplexCompensatedSum,
    CompensatedSum,
    SummationResult,
    euler_transform_sum,
    harmonic_continued,
    harmonic_number,
    harmonic_real,
    head_tail_sum,
)

__all__ = [
    "PolygonGeometry",
    "center",
    "harmonic_phases",
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
    """(-1)^n on the continuous branch e^{i pi n}; exact +-1 at integers."""
    if float(n).is_integer():
        return complex(-1.0 if int(n) % 2 else 1.0, 0.0)
    return cmath.exp(1j * math.pi * n)


def harmonic_phases(start: int = 3) -> Iterator[tuple[int, float, complex]]:
    """(k, H_k, e^{2 pi i (1/k - 2 H_k)}) for k = start, start + 1, ...

    H_k advances by compensated increments, so streaming N terms costs O(N);
    the phase equals unit_phase(k, H_k).  From start = 3 the increments
    begin at the memoized H_2; from any later start, at the digamma
    continuation of H_{start-1}, so a deep stream starts in O(1).
    """
    h = CompensatedSum(harmonic_number(2) if start == 3 else harmonic_continued(start - 1))
    add, cos, sin = h.add, math.cos, math.sin  # locals: this loop is the hot path
    for k in itertools.count(start):
        inv = 1.0 / k
        add(inv)
        hk = h.value
        t = inv - 2.0 * hk
        ang = TWO_PI * (t - round(t))
        yield k, hk, complex(cos(ang), sin(ang))


def _limit_series(f: LengthFunction, settings: AccelerationSettings) -> SummationResult:
    """G_f = sum_{k>=3} (-1)^k l(k) e^{2 pi i (1/k - 2 H_k)}, the whole vertex
    series: a direct head plus an Euler-transformed tail, the regularised
    sum when the sides tend to a constant.  The one place it is summed: the
    limits of the convergence module and the deep vertices here."""
    lf = f.as_callable()
    return head_tail_sum((fk * lf(float(k)) for k, _, fk in harmonic_phases()), settings)


# vertex_at streams from one wanted index to the next, except that an index
# above _TAIL_FROM and more than _JUMP_GAP past its predecessor jumps: it is
# read as G_f minus an Euler-summed tail, ~0.1 ms, about the cost of
# streaming 50 terms.  _TAIL_FROM lies above figures._MAX_POLYGON, so the
# figures and every shallow index keep their streamed bits.
_TAIL_FROM = 2048
_JUMP_GAP = 64
_TAIL_SETTINGS = AccelerationSettings(1e-13)
# Work cap of one vertex_at call in streamed terms (~25 s); a jump counts
# as _JUMP_GAP terms.
_MAX_STREAM = 10**7


def _deep_gaps(order: list[int]) -> dict[int, int]:
    """{n: gap} over the indices of ascending ``order`` above _TAIL_FROM
    whose gap to the previous index (2 for the first) exceeds _JUMP_GAP.

    Bisects: the gaps of order[i:j] sum to order[j-1] - order[i-1] and are
    each >= 1, so a block whose span is at most (j - i - 1) + _JUMP_GAP
    holds none, and a dense range costs O(1).
    """
    out = {}
    blocks = [(bisect.bisect_right(order, _TAIL_FROM), len(order))]
    while blocks:
        i, j = blocks.pop()
        prev = order[i - 1] if i else 2
        if i == j or order[j - 1] - prev <= j - i - 1 + _JUMP_GAP:
            continue
        if j - i == 1:
            out[order[i]] = order[i] - prev
            continue
        mid = (i + j) // 2
        blocks += [(mid, j), (i, mid)]  # left block first: ascending output
    return out


def _check_work(deepest: int, jumps: dict[int, int]) -> None:
    """Refuse a walk to ``deepest`` that costs more than _MAX_STREAM terms.

    Every gap streams except those of ``jumps`` ({n: gap}), which cost
    _JUMP_GAP each; the streamed gaps telescope to deepest - 2 minus the
    jumped ones.
    """
    cost = deepest - 2 - sum(gap - _JUMP_GAP for gap in jumps.values())
    if cost > _MAX_STREAM:
        raise ValueError(
            f"vertex_at allows {_MAX_STREAM} streamed terms, these indices need {cost}"
        )


def _jump(f: LengthFunction, deep: dict[int, int]) -> dict[int, complex]:
    """{n: V(n)} with V(n) = G_f - (-1)^{n+1} E(n+1) for the indices n of
    ``deep`` ({n: gap}), where E(n+1) = sum_{j>=0} (-1)^j l(k) u(k) with
    k = n+1+j is the Euler-summed tail (4-8 terms).  An index whose tail
    misses _TAIL_SETTINGS is left out, and all are when G_f misses it.
    """
    if not deep:
        return {}
    whole = _limit_series(f, _TAIL_SETTINGS)
    if not whole.converged:
        return {}
    lf = f.as_callable()
    out = {}
    for n in deep:
        tail = euler_transform_sum(
            (lf(float(k)) * phase for k, _, phase in harmonic_phases(n + 1)), _TAIL_SETTINGS
        )
        if tail.converged:
            out[n] = whole.value - tail.value if n % 2 else whole.value + tail.value
    return out


def vertex_at(f: LengthFunction, indices: Iterable[int]) -> dict[int, complex]:
    """Shared vertices V_f(n) for several indices in one ascending walk.

    V_f(2) = 0 and V_f(n) = sum_{k=3}^{n} (-1)^k l(k) e^{2 pi i (1/k - 2H_k)}.
    Each index streams from the previous one (from V(2) for the first)
    over harmonic_phases() with compensated complex summation, so dense
    ranges and every index up to 2,048 are direct sums.  An index above
    2,048 more than 64 past the previous one instead jumps, in O(1):
    V(n) = G_f - sum_{k>n} (-1)^k l(k) u(k), the whole series (the
    regularised one for exponent 0) minus its Euler-summed tail, both at
    tolerance 1e-13.  It streams after all when the family's sides grow,
    or when G_f or the tail does not converge.

    Raises ``ValueError`` before any streaming when the walk would stream
    more than 10^7 terms (~25 s), counting each jump as 64.
    """
    wanted = set(map(int, indices))
    order = sorted(wanted)
    if not order:
        return {}
    if order[0] < 2:
        raise ValueError(f"vertex indices must be >= 2, got {order[0]}")
    deep = _deep_gaps(order) if f.asymptote().exponent >= 0.0 else {}
    _check_work(order[-1], deep)
    jumps = _jump(f, deep)
    _check_work(order[-1], {n: deep[n] for n in jumps})
    # runs (start, V(start), end): one stream from each start to the index
    # before the next start, the last one to the deepest index
    starts = [(2, 0j), *jumps.items()]
    ends = [n - deep[n] for n in jumps] + [order[-1]]
    out = {}
    lf = f.as_callable()
    for (start, base), end in zip(starts, ends):
        if start in wanted:
            out[start] = base
        acc = ComplexCompensatedSum()
        add = acc.add
        add(base)
        for k, _, phase in itertools.islice(harmonic_phases(start + 1), end - start):
            scale = lf(float(k))
            add(-scale * phase if k % 2 else scale * phase)
            if k in wanted:
                out[k] = acc.value
    return out


def vertex(f: LengthFunction, n: int) -> complex:
    """Shared vertex V_f(n) of the n-gon and (n+1)-gon, n >= 2."""
    return vertex_at(f, (n,))[n]


def q_term(f: LengthFunction, n: float) -> complex:
    """Center-minus-vertex offset Q_f(n) of the n-gon, for real n > 1.

    Q_f(n) = (-1)^n l(n) e^{2 pi i (1/n - 2 H_n)} / (e^{2 pi i / n} - 1),
    with (-1)^n = e^{i pi n} off the integers.  Its modulus is the
    circumradius |l(n)| / (2 sin(pi/n)).
    """
    if not n > 1.0:
        raise ValueError(f"q_term requires n > 1, got {n}")
    h = harmonic_real(n)
    num = signed_phase(n) * f(n) * unit_phase(n, h)
    # e^{2 pi i / n} - 1 = 2 sin(pi/n) (-sin(pi/n) + i cos(pi/n)), which
    # avoids the cos - 1 cancellation at both ends of the domain
    s, c = half_angle(n)
    den = (2.0 * s) * complex(-s, c)
    return num / den


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


def polygon(f: LengthFunction, n: int) -> PolygonGeometry:
    """Enumerate the n-gon of the construction, n >= 3."""
    return polygon_from_vertex(f, n, vertex(f, n))


def polygon_from_vertex(f: LengthFunction, n: int, v: complex) -> PolygonGeometry:
    """Enumerate the n-gon from its shared vertex v = V(n), e.g. one entry of
    a vertex_at pass: vertices C + (v - C) e^{2 pi i k / n}, C = v + Q(n)."""
    if n < 3:
        raise ValueError(f"polygon requires n >= 3, got {n}")
    side = f(float(n))
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


def _interpolant_terms(f: LengthFunction, n: float) -> Iterator[complex]:
    """Unsigned magnitudes g(k) of the interpolant series from k = 3.

    The series is sum_{k>=3} (-1)^k g(k) with
    g(k) = l(k) e^{2 pi i (1/k - 2 H_k)}
           - e^{i pi (n-2)} l(k-2+n) e^{2 pi i (1/x - 2 H_x)},  x = k-2+n;
    the integer side reads harmonic_phases(), and the real side starts from
    one digamma evaluation of H_{n+1} and advances by compensated increments.
    """
    lf = f.as_callable()
    offset_phase = signed_phase(n - 2.0)
    h_real = CompensatedSum(harmonic_continued(1.0 + n))
    for k, _, phase in harmonic_phases():
        x = k - 2.0 + n
        if k > 3:
            h_real.add(1.0 / x)
        a = lf(float(k)) * phase
        b = offset_phase * lf(x) * unit_phase(x, h_real.value)
        yield a - b


def interpolated_vertex(
    f: LengthFunction,
    n: float,
    settings: AccelerationSettings | None = None,
) -> SummationResult:
    """Smooth continuation of the vertex sequence at real n > 1.

    Evaluates sum_{k>=3} [ l(k) e^{i theta_k} - l(k-2+n) e^{i theta_{k-2+n}} ]
    by the configured acceleration; at integers with vanishing side lengths
    this reproduces vertex(f, n).  Length functions whose sides grow
    (negative asymptotic exponent) are refused outright.
    """
    if not n > 1.0:
        raise ValueError(f"interpolated_vertex requires n > 1, got {n}")
    if f.asymptote().exponent < 0.0:
        raise ValueError(
            f"interpolant refused: {f} diverges (growing side lengths)"
        )
    return head_tail_sum(_interpolant_terms(f, n), settings or AccelerationSettings())
