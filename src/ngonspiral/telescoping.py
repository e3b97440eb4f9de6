"""Closed forms for the telescoping spiral, L(k) = 2 cos(2 pi / k).

Written in exponential form, that length collapses the vertex series into
a telescoping sum with the closed-form continuation

    V_L(n) = -1 + (-1)^n e^{-4 pi i (gamma + psi(n+1))},
    Q_L(n) = (-1)^n e^{-4 pi i (gamma + psi(n+1))}
             (z + (z+1)/(z-1)),   z = e^{2 pi i / n},

valid for real n > 1 with (-1)^n = e^{i pi n}.  The vertices live on the
unit circle centered at -1; the centers curve C_L = V_L + Q_L crosses
itself at the golden ratio pair (phi, phi + 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import islice

from .lengthfns import telescoping
from .numerics import (
    EULER_GAMMA,
    ComplexCompensatedSum,
    digamma,
    harmonic_real,
    richardson,
)
from .spiral import half_angle, harmonic_phases, phase_of_turns, signed_phase

__all__ = [
    "CONSTANTS",
    "PHI",
    "TelescopingConstants",
    "center_closed",
    "q_closed",
    "q_real_limit_estimate",
    "golden_intersection_point",
    "vertex_closed",
    "verify_telescoping_identity",
]

PHI = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class TelescopingConstants:
    """Landmark values of the telescoping spiral."""

    phi: float = PHI
    zero_low: float = 4.0 / 3.0
    zero_high: float = 4.0
    q_limit_at_1: float = 4.0 * (1.0 - math.pi**2 / 6.0)


CONSTANTS = TelescopingConstants()

# Largest n_max verify_telescoping_identity streams (about 10 s of work).
_MAX_IDENTITY_N = 10**6


def _rotation(n: float) -> complex:
    """(-1)^n e^{-4 pi i H_n} with H continued through gamma + psi(n+1).

    Computed in reduced turns so that the factor agrees with the phases of
    the generic vertex/center formulas to a few ulps even when n is large.
    """
    return signed_phase(n) * phase_of_turns(-2.0 * harmonic_real(n))


def vertex_closed(n: float) -> complex:
    """Analytic continuation of the telescoping vertices, real n > 1.

    Equals the direct series sum at integers; |V_L(n) + 1| = 1 identically.
    """
    if not n > 1.0:
        raise ValueError(f"vertex_closed requires n > 1, got {n}")
    return -1.0 + _rotation(n)


def q_closed(n: float) -> complex:
    """Analytic continuation of the center offset Q_L, real n > 1.

    Vanishes at n = 4/3 and n = 4; as n -> 1+ the real part tends to
    4 (1 - pi^2 / 6) while the imaginary part runs off to -infinity.
    """
    if not n > 1.0:
        raise ValueError(f"q_closed requires n > 1, got {n}")
    z = phase_of_turns(1.0 / n)
    # (z+1)/(z-1) = -i cot(pi/n) exactly; the explicit quotient squanders
    # the real part near n = 1 where z - 1 is almost purely imaginary
    s, c = half_angle(n)
    return _rotation(n) * (z - 1j * (c / s))


def center_closed(n: float) -> complex:
    """Continuation of the polygon centers, C_L(n) = V_L(n) + Q_L(n)."""
    return vertex_closed(n) + q_closed(n)


def golden_intersection_point() -> complex:
    """The self-intersection point of the centers curve in its compact
    spelling, -i e^{-pi i (4 (gamma + psi(phi)) + phi)} cot(pi phi) - 1.

    Note the inner psi(phi), not psi(phi + 1): the two spellings agree
    because 1/phi = phi - 1 shifts the phase by a whole number of turns.
    Evaluated independently of center_closed so tests can report the
    residual between the two routes.
    """
    arg = math.pi * (4.0 * (EULER_GAMMA + digamma(PHI)) + PHI)
    cot = math.cos(math.pi * PHI) / math.sin(math.pi * PHI)
    return -1j * cmath.exp(-1j * arg) * cot - 1.0


def verify_telescoping_identity(n_max: int) -> float:
    """Largest residual between the direct vertex series and the closed form
    over integer 3 <= n <= n_max.

    The same pass also checks the termwise pairing identity
    L(k) e^{i theta_k} = (-1)^k (e^{-4 pi i H_{k-1}} + e^{-4 pi i H_k});
    the returned maximum covers both checks.  The closed-form side goes
    through digamma, independent of the summation's running harmonic.
    Raises ``ValueError`` unless 3 <= n_max <= ``_MAX_IDENTITY_N``.
    """
    if n_max < 3:
        raise ValueError(f"verify_telescoping_identity requires n_max >= 3, got {n_max}")
    if n_max > _MAX_IDENTITY_N:
        raise ValueError(
            f"verify_telescoping_identity allows n_max <= {_MAX_IDENTITY_N}, got {n_max}"
        )
    lf = telescoping().as_callable()
    acc = ComplexCompensatedSum()
    worst = 0.0
    prev_exp = phase_of_turns(-2.0 * 1.5)  # e^{-4 pi i H_2}
    for k, hk, phase in islice(harmonic_phases(), n_max - 2):
        term = lf(float(k)) * phase
        # pairing identity, termwise (the (-1)^k factor cancels on both sides)
        cur_exp = phase_of_turns(-2.0 * hk)
        worst = max(worst, abs(term - (prev_exp + cur_exp)))
        prev_exp = cur_exp
        # direct sum vs closed form (theta-reduced form carries the sign)
        acc.add(-term if k % 2 else term)
        worst = max(worst, abs(acc.value - vertex_closed(float(k))))
    return worst


def q_real_limit_estimate() -> float:
    """Re Q_L(n -> 1+) by Richardson extrapolation of n = 1 + 10^-k, k=3..6.

    The closed form is singular at n = 1 itself; the extrapolated value
    should sit within 1e-3 of the constant 4 (1 - pi^2 / 6).
    """
    values = [q_closed(1.0 + 10.0**-k).real for k in range(3, 7)]
    return richardson(values, ratio=10.0).real
