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

Fractional powers (-1)^x are always read as e^{i pi x}, the continuous
branch; that is the only choice under which the analytic continuations in
the telescoping module are smooth.
"""

from __future__ import annotations

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


def harmonic_phases() -> Iterator[tuple[int, float, complex]]:
    """(k, H_k, e^{2 pi i (1/k - 2 H_k)}) for k = 3, 4, 5, ...

    H_k advances by compensated increments from the memoized H_2, so
    streaming N terms costs O(N); the phase equals unit_phase(k, H_k).
    """
    h = CompensatedSum(harmonic_number(2))
    add, cos, sin = h.add, math.cos, math.sin  # locals: this loop is the hot path
    for k in itertools.count(3):
        inv = 1.0 / k
        add(inv)
        hk = h.value
        t = inv - 2.0 * hk
        ang = TWO_PI * (t - round(t))
        yield k, hk, complex(cos(ang), sin(ang))


def vertex_at(f: LengthFunction, indices: Iterable[int]) -> dict[int, complex]:
    """Shared vertices V_f(n) for several indices in one streaming pass.

    V_f(2) = 0 and V_f(n) = sum_{k=3}^{n} (-1)^k l(k) e^{2 pi i (1/k - 2H_k)},
    accumulated left to right over harmonic_phases() with compensated
    complex summation.
    """
    wanted = {int(n) for n in indices}
    if wanted and min(wanted) < 2:
        raise ValueError(f"vertex indices must be >= 2, got {min(wanted)}")
    out = {2: 0j} if 2 in wanted else {}
    lf = f.as_callable()
    acc = ComplexCompensatedSum()
    add = acc.add
    for k, _, phase in itertools.islice(harmonic_phases(), max(wanted, default=2) - 2):
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
