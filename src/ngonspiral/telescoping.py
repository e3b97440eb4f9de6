"""Closed forms for the telescoping spiral, L(k) = 2 cos(2 pi / k).

Written in exponential form, that length collapses the vertex series into
a telescoping sum with the closed-form continuation

    V_L(n) = -1 + (-1)^n e^{-4 pi i (gamma + psi(n+1))},
    Q_L(n) = (-1)^n e^{-4 pi i (gamma + psi(n+1))}
             (z + (z+1)/(z-1)),   z = e^{2 pi i / n},

valid for real n > 1 with (-1)^n = e^{i pi n}.  The vertices live on the
unit circle centered at -1; the centers curve C_L = V_L + Q_L crosses
itself at the golden ratio pair (phi, phi + 1).

Each closed form is written once and reads n through spiral._space: one
number (anything without a length) as a Python int or float, with the float
steps and without numpy, or an array or sequence of n as a float array,
with the array steps of _arrays, into a complex array of n's shape whose
entries carry the bits of the float calls.  One domain check serves both.
"""

from __future__ import annotations

import math

from .numerics import _index, _refuse, richardson
from .spiral import _space

__all__ = [
    "PHI",
    "Q_LIMIT_AT_1",
    "center_closed",
    "q_closed",
    "q_real_limit_estimate",
    "vertex_closed",
    "verify_telescoping_identity",
]

PHI = (1.0 + math.sqrt(5.0)) / 2.0
# Re Q_L(n) as n -> 1+, the target of q_real_limit_estimate.
Q_LIMIT_AT_1 = 4.0 * (1.0 - math.pi**2 / 6.0)

# Largest n_max verify_telescoping_identity sums (0.18-0.27 s on a shared
# 2-vCPU x86-64 VM).  10^7 took 3.4 s there, and its residual, 1.7e-10,
# fails the 1e-10 check of `spiral telescope --check`.
_MAX_IDENTITY_N = 10**6


def _rotation(n, xp, name: str):
    """(-1)^n e^{-4 pi i H_n}, H_n = gamma + psi(n+1), at real n > 1 (checked
    for ``name``), with the steps xp of _space.

    Computed in reduced turns so that the factor agrees with the phases of
    the generic vertex/center formulas to a few ulps even when n is large.
    """
    _refuse((n <= 1.0) | (n >= math.inf) | (n != n), n, f"{name} requires a finite n > 1, got {{}}")
    return xp.mul(xp.signed(n), xp.turns(-2.0 * xp.harmonic(n)))


def _offset(n, xp):
    """Q_L(n) over the rotation, z + (z+1)/(z-1) = z - i cot(pi/n) exactly,
    z = e^{2 pi i / n}; the explicit quotient squanders the real part near
    n = 1 where z - 1 is almost purely imaginary."""
    s, c = xp.half_angle(n)
    return xp.turns(1.0 / n) - 1j * (c / s)  # 1j * cot multiplies by 0 and 1 only: exact


def vertex_closed(n: float) -> complex:
    """Analytic continuation of the telescoping vertices, real n > 1.

    Equals the direct series sum at integers; |V_L(n) + 1| = 1 identically.
    """
    n, xp = _space(n)
    return -1.0 + _rotation(n, xp, "vertex_closed")


def q_closed(n: float) -> complex:
    """Analytic continuation of the center offset Q_L, real n > 1.

    Vanishes at n = 4/3 and n = 4; as n -> 1+ the real part tends to
    4 (1 - pi^2 / 6) while the imaginary part runs off to -infinity.
    """
    n, xp = _space(n)
    return xp.mul(_rotation(n, xp, "q_closed"), _offset(n, xp))


def center_closed(n: float) -> complex:
    """Continuation of the polygon centers, C_L(n) = V_L(n) + Q_L(n)."""
    n, xp = _space(n)
    r = _rotation(n, xp, "center_closed")
    return (-1.0 + r) + xp.mul(r, _offset(n, xp))


def verify_telescoping_identity(n_max: int) -> float:
    """Largest residual between the direct vertex series and the closed form
    over integer 3 <= n <= n_max.

    Two array checks per chunk of the dense kernel: the termwise pairing
    identity L(k) e^{i theta_k} = (-1)^k (e^{-4 pi i H_{k-1}} + e^{-4 pi i H_k}),
    and the compensated prefix sums against -1 + (-1)^k e^{-4 pi i H_k};
    the returned maximum covers both.  The two sides compute H_k
    independently: the direct side as the kernel's compensated running sum
    of 1/k from H_2 = 3/2, the closed form from the vectorised digamma, so
    every k checks one against the other.
    Raises ``ValueError`` unless n_max is integral, 3 <= n_max <= ``_MAX_IDENTITY_N``.
    """
    n_max = _index(n_max)
    if n_max < 3:
        raise ValueError(f"verify_telescoping_identity requires n_max >= 3, got {n_max}")
    if n_max > _MAX_IDENTITY_N:
        raise ValueError(
            f"verify_telescoping_identity allows n_max <= {_MAX_IDENTITY_N}, got {n_max}"
        )
    from ._arrays import _identity_residual

    return _identity_residual(n_max)


def q_real_limit_estimate() -> float:
    """Re Q_L(n -> 1+) by Richardson extrapolation of n = 1 + 10^-k, k=3..6.

    The closed form is singular at n = 1 itself; the extrapolated value
    should sit within 1e-3 of Q_LIMIT_AT_1 = 4 (1 - pi^2 / 6).
    """
    values = [q_closed(1.0 + 10.0**-k).real for k in range(3, 7)]
    return richardson(values).real
