"""Closed forms for the telescoping spiral, L(k) = 2 cos(2 pi / k).

Written in exponential form, that length collapses the vertex series into
a telescoping sum with the closed-form continuation

    V_L(n) = -1 + (-1)^n e^{-4 pi i (gamma + psi(n+1))},
    Q_L(n) = (-1)^n e^{-4 pi i (gamma + psi(n+1))}
             (z + (z+1)/(z-1)),   z = e^{2 pi i / n},

valid for real n > 1 with (-1)^n = e^{i pi n}.  The vertices live on the
unit circle centered at -1; the centers curve C_L = V_L + Q_L crosses
itself at the golden ratio pair (phi, phi + 1).

Each closed form takes one number (a Python or numpy scalar), read
without numpy, or an array or sequence of n, read in one pass of array
steps into a complex array of n's shape whose entries carry the bits of
the float calls.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .lengthfns import telescoping
from .numerics import _harmonic_exact, harmonic_array, harmonic_continued, richardson
from .spiral import (
    _alternate,
    _dense_series,
    _product,
    _RunningSum,
    _signed_phases,
    _turns,
    half_angle,
    phase_of_turns,
    signed_phase,
)

if TYPE_CHECKING:
    import numpy as np

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

# Largest n_max verify_telescoping_identity sums (0.3-0.6 s on a shared
# 2-vCPU x86-64 VM).  10^7 took 3.4 s there, and its residual, 1.7e-10,
# fails the 1e-10 check of `spiral telescope --check`.
_MAX_IDENTITY_N = 10**6


def _rotation(n: float, name: str) -> complex:
    """(-1)^n e^{-4 pi i H_n}, H_n = gamma + psi(n+1), at real n > 1 (checked for ``name``).

    Computed in reduced turns so that the factor agrees with the phases of
    the generic vertex/center formulas to a few ulps even when n is large.
    """
    if not 1.0 < n < math.inf:
        raise ValueError(f"{name} requires a finite n > 1, got {n}")
    return signed_phase(n) * phase_of_turns(-2.0 * harmonic_continued(n))


def _offset(n: float) -> complex:
    """Q_L(n) over the rotation, z + (z+1)/(z-1) = z - i cot(pi/n) exactly,
    z = e^{2 pi i / n}; the explicit quotient squanders the real part near
    n = 1 where z - 1 is almost purely imaginary."""
    s, c = half_angle(n)
    return phase_of_turns(1.0 / n) - 1j * (c / s)


def _rotations(n: np.ndarray, name: str) -> np.ndarray:
    """_rotation at each entry of the flat float array n, checked for
    ``name``: H_n with digamma's bits, the phases through _turns and the
    product as CPython forms it."""
    bad = ~((1.0 < n) & (n < math.inf))
    if bad.any():
        raise ValueError(f"{name} requires a finite n > 1, got {n[bad][0].item()}")
    return _product(_signed_phases(n), _turns(-2.0 * _harmonic_exact(n)))


def _offsets(n: np.ndarray) -> np.ndarray:
    """_offset at each entry of the flat float array n, half_angle's two
    branches as masks."""
    import numpy as np

    below = n < 2.0
    y = np.where(below, math.pi * (n - 1.0) / n, math.pi / n)
    cot = np.where(below, -np.cos(y), np.cos(y)) / np.sin(y)
    return _turns(1.0 / n) - 1j * cot  # 1j * cot multiplies by 0 and 1 only: exact


def _flat(n) -> tuple[np.ndarray, tuple[int, ...]]:
    """An array or sequence of n as a flat float array, and its shape."""
    import numpy as np

    n = np.asarray(n, dtype=float)
    return n.ravel(), n.shape


def vertex_closed(n: float) -> complex:
    """Analytic continuation of the telescoping vertices, real n > 1.

    Equals the direct series sum at integers; |V_L(n) + 1| = 1 identically.
    """
    if not hasattr(n, "__len__"):
        return -1.0 + _rotation(n, "vertex_closed")
    ns, shape = _flat(n)
    return (-1.0 + _rotations(ns, "vertex_closed")).reshape(shape)


def q_closed(n: float) -> complex:
    """Analytic continuation of the center offset Q_L, real n > 1.

    Vanishes at n = 4/3 and n = 4; as n -> 1+ the real part tends to
    4 (1 - pi^2 / 6) while the imaginary part runs off to -infinity.
    """
    if not hasattr(n, "__len__"):
        return _rotation(n, "q_closed") * _offset(n)
    ns, shape = _flat(n)
    return _product(_rotations(ns, "q_closed"), _offsets(ns)).reshape(shape)


def center_closed(n: float) -> complex:
    """Continuation of the polygon centers, C_L(n) = V_L(n) + Q_L(n)."""
    if not hasattr(n, "__len__"):
        r = _rotation(n, "center_closed")
        return (-1.0 + r) + r * _offset(n)
    ns, shape = _flat(n)
    r = _rotations(ns, "center_closed")
    return ((-1.0 + r) + _product(r, _offsets(ns))).reshape(shape)


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
    Raises ``ValueError`` unless 3 <= n_max <= ``_MAX_IDENTITY_N``.
    """
    if n_max < 3:
        raise ValueError(f"verify_telescoping_identity requires n_max >= 3, got {n_max}")
    if n_max > _MAX_IDENTITY_N:
        raise ValueError(
            f"verify_telescoping_identity allows n_max <= {_MAX_IDENTITY_N}, got {n_max}"
        )
    import numpy as np

    direct = _RunningSum(1.5)  # H_2
    h_prev = 1.5
    worst = 0.0
    for k0, ks, hs, terms, sums in _dense_series(
        telescoping(), 2, 0j, n_max, lambda ks: direct.extend(1.0 / ks)
    ):
        rot = _turns(-2.0 * np.concatenate(([h_prev], hs)))  # e^{-4 pi i H_{k-1}}, then H_k
        h_prev = hs[-1]
        pairs = _alternate(k0, rot[:-1] + rot[1:])
        closed = _alternate(k0, _turns(-2.0 * harmonic_array(ks))) - 1.0
        worst = max(worst, np.abs(terms - pairs).max(), np.abs(sums - closed).max())
    return float(worst)


def q_real_limit_estimate() -> float:
    """Re Q_L(n -> 1+) by Richardson extrapolation of n = 1 + 10^-k, k=3..6.

    The closed form is singular at n = 1 itself; the extrapolated value
    should sit within 1e-3 of Q_LIMIT_AT_1 = 4 (1 - pi^2 / 6).
    """
    values = [q_closed(1.0 + 10.0**-k).real for k in range(3, 7)]
    return richardson(values).real
