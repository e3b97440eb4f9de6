"""Test-only oracles for the paper's claims.

These restate what the paper proves with tools that no library path needs:
the heading theta_n, the phase factor u(k) from a given H_k, the harmonic
numbers as a compensated running sum, the paired terms F(j) with their
bounds A(j, s) and B(j), the compact
spelling of the golden intersection point, the convex-clipping area that
shows consecutive n-gons do not overlap, 40-digit mpmath values of deep
vertices, of the limits G_f and W(s), of the tails E(x), of the
interpolant and of the center offsets Q(n), the adaptive curve sampler as
a recursive depth-first walk, and earlier forms of three kernels: a dense
run with every chunk computed live, the telescoping identity check with its
pairing side read from the direct H_k, and the Euler transform with a new
difference row per term.  The tests check the library against them; the
library never calls them.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from typing import Callable, Iterator, NamedTuple, Sequence

from ngonspiral.numerics import (
    EULER_GAMMA,
    TWO_PI,
    AccelerationSettings,
    SummationResult,
    digamma,
    harmonic_continued,
)
from ngonspiral.spiral import phase_of_turns
from ngonspiral.telescoping import PHI


def _harmonic_steps(start: float) -> Iterator[tuple[float, float, float, float]]:
    """(x, 1/x, s, c) for x = start + j, j = 0, 1, ..., with H_x = s + c:
    the steps spiral._phases takes inline.  s runs over the increments 1/x
    from the digamma continuation of H_{start-1} and c gathers each step's
    exact rounding error (two_sum).  ``start`` may be real; each x is
    start + j, an int when ``start`` is."""
    s, c = harmonic_continued(start - 1), 0.0
    for j in itertools.count():
        k = start + j
        inv = 1.0 / k
        t = s + inv
        v = t - s
        s, c = t, c + ((s - (t - v)) + (inv - v))
        yield k, inv, s, c


def unit_phase(k: float, harmonic_k: float) -> complex:
    """e^{2 pi i (1/k - 2 H_k)} given H_k; the sign-reduced phase factor, as
    spiral.q_term forms it."""
    return phase_of_turns(1.0 / k - 2.0 * harmonic_k)


def harmonic_phases(start: float = 3) -> Iterator[tuple[float, float, complex]]:
    """(x, H_x, u(x)) for x = start + j, j = 0, 1, ...: the phases of
    E(start) = sum_{j>=0} (-1)^j l(x) u(x), u(x) = e^{2 pi i (1/x - 2 H_x)},
    with u(x) = unit_phase(x, H_x) bit for bit, over the library's steps
    of H_x = s + c (_harmonic_steps).
    """
    for k, inv, s, c in _harmonic_steps(start):
        hk = s + c
        yield k, hk, phase_of_turns(inv - 2.0 * hk)


def theta(n: float) -> float:
    """Heading angle theta_n = 2 pi (n/2 + 1/n - 2 H_n) for real n > 1.

    theta(2) = -3 pi fixes the canonical orientation (no constant net
    rotation of the whole construction).
    """
    if not n > 1.0:
        raise ValueError(f"theta requires n > 1, got {n}")
    return TWO_PI * (0.5 * n + 1.0 / n - 2.0 * harmonic_continued(n))


# H_0, H_1, ... so far, and the Neumaier state (sum, correction) after the last
_harmonic_table = [0.0]
_harmonic_state = [0.0, 0.0]


def harmonic_number(n: int) -> float:
    """H_n = sum_{k<=n} 1/k by a Neumaier-compensated running sum over 1/k,
    memoised, for integer n >= 1.

    Built on its own, not from the library's stream that harmonic_phases
    reads, so the tests can check that stream against it.
    """
    if n < 1:
        raise ValueError(f"harmonic_number requires n >= 1, got {n}")
    s, c = _harmonic_state
    for k in range(len(_harmonic_table), n + 1):
        x = 1.0 / k
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
        _harmonic_table.append(s + c)
    _harmonic_state[:] = s, c
    return _harmonic_table[n]


def polygon_area(vertices: Sequence[complex]) -> float:
    """Unsigned shoelace area of a simple polygon."""
    total = 0.0
    m = len(vertices)
    for i in range(m):
        a = vertices[i]
        b = vertices[(i + 1) % m]
        total += a.real * b.imag - b.real * a.imag
    return abs(total) / 2.0


def _clip_convex(subject: Sequence[complex], clip: Sequence[complex]) -> list[complex]:
    """Sutherland-Hodgman clip of ``subject`` by convex ``clip`` (CCW)."""
    output = list(subject)
    m = len(clip)
    for i in range(m):
        if not output:
            return []
        a = clip[i]
        b = clip[(i + 1) % m]
        edge = b - a
        inputs = output
        output = []
        prev = inputs[-1]
        prev_in = (edge.real * (prev.imag - a.imag) - edge.imag * (prev.real - a.real)) >= 0.0
        for cur in inputs:
            cur_in = (edge.real * (cur.imag - a.imag) - edge.imag * (cur.real - a.real)) >= 0.0
            if cur_in != prev_in:
                d = cur - prev
                denom = edge.real * d.imag - edge.imag * d.real
                if denom != 0.0:
                    t = (edge.real * (a.imag - prev.imag) - edge.imag * (a.real - prev.real)) / denom
                    output.append(prev + t * d)
            if cur_in:
                output.append(cur)
            prev = cur
            prev_in = cur_in
    return output


def convex_intersection_area(
    a: Sequence[complex], b: Sequence[complex]
) -> float:
    """Area of the intersection of two convex polygons (CCW vertex lists)."""
    clipped = _clip_convex(a, b)
    if len(clipped) < 3:
        return 0.0
    return polygon_area(clipped)


class PairedSeriesTerm(NamedTuple):
    """Consecutive-pair term F(j) of the power-law series."""

    j: int
    value: complex


def paired_terms(s: float) -> Iterator[PairedSeriesTerm]:
    """F(j) = f(2j)/(2j)^s - f(2j-1)/(2j-1)^s for j = 2, 3, ...

    Both phases come from the harmonic_phases() stream, so streaming N
    terms costs O(N), not O(N^2).
    """
    phases = harmonic_phases()
    for j, ((k_odd, _, f_odd), (k_even, _, f_even)) in enumerate(zip(phases, phases), 2):
        yield PairedSeriesTerm(
            j, f_even * k_even ** (-s) - f_odd * k_odd ** (-s)
        )


def paired_term(j: int, s: float) -> PairedSeriesTerm:
    """Single paired term F(j), j >= 2, s >= 0."""
    if j < 2:
        raise ValueError(f"paired_term requires j >= 2, got {j}")
    if s < 0.0:
        raise ValueError(f"paired_term requires s >= 0, got {s}")
    h_odd = harmonic_number(2 * j - 1)
    f_odd = unit_phase(float(2 * j - 1), h_odd)
    f_even = unit_phase(float(2 * j), h_odd + 1.0 / (2 * j))
    return PairedSeriesTerm(
        j, f_even * (2 * j) ** (-s) - f_odd * (2 * j - 1) ** (-s)
    )


def bound_A(j: int, s: float) -> float:
    """A(j, s) = (2j-1)(1 - (1 - 1/(2j))^s); strictly inside (0, s).

    Written via expm1/log1p so the cancellation at large j costs nothing.
    """
    if j < 2:
        raise ValueError(f"bound_A requires j >= 2, got {j}")
    return -(2 * j - 1) * math.expm1(s * math.log1p(-1.0 / (2 * j)))


def bound_B(j: int) -> float:
    """B(j) = 2(2j-1) sin(pi (1/(2j-1) + 1/(2j))); increasing toward 4 pi."""
    if j < 2:
        raise ValueError(f"bound_B requires j >= 2, got {j}")
    x = math.pi * (1.0 / (2 * j - 1) + 1.0 / (2 * j))
    return 2.0 * (2 * j - 1) * math.sin(x)


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


def _mp_length(mp, spec: str):
    """The side length of CLI spec ``spec`` as an mpmath function."""
    if spec == "telescoping":
        return lambda x: 2 * mp.cos(2 * mp.pi / x)
    kind, _, arg = spec.partition(":")
    s = mp.mpf(arg)
    return {
        "power": lambda x: x ** (-s),
        "inscribed": lambda x: 2 * x ** (-s) * mp.sin(mp.pi / x),
        "circumscribed": lambda x: 2 * x ** (-s) * mp.tan(mp.pi / x),
        "area": lambda x: mp.sqrt(4 * x ** (-s) * mp.tan(mp.pi / x) / x),
    }[kind]


def _mp_unit_phase(mp, x):
    """u(x) = e^{2 pi i (1/x - 2 H_x)} in mpmath."""
    return mp.expjpi(2 * (1 / x - 2 * mp.harmonic(x)))


def _mp_tail_from(mp, g, start: int, terms: int = 64):
    """sum_{k>=start} (-1)^k g(k) by Cohen-Villegas-Zagier (Algorithm 1 of
    Cohen, Rodriguez Villegas and Zagier, 2000) with ``terms`` terms."""
    d = (3 + mp.sqrt(8)) ** terms
    d = (d + 1 / d) / 2
    b, c, total = mp.mpf(-1), -d, mp.mpc(0)
    for j in range(terms):
        c = b - c
        total += c * g(start + j)
        b = b * (j + terms) * (j - terms) / ((j + mp.mpf(1) / 2) * (j + 1))
    return (-1 if start % 2 else 1) * total / d


def _mp_full_sum(mp, g):
    """sum_{k>=3} (-1)^k g(k): direct head k < 40, 64-term CVZ tail."""
    return sum((-1) ** k * g(k) for k in range(3, 40)) + _mp_tail_from(mp, g, 40)


def mp_vertices(spec: str, indices: Sequence[int]) -> dict[int, complex]:
    """V_f(n) at 40 digits for the family of CLI spec ``spec``, rounded to
    complex doubles: the whole series minus its tail from n + 1, each
    summed as a direct head (k < 40) and Cohen-Villegas-Zagier tails of 64
    terms.  Needs mpmath, which the library never imports.
    """
    import mpmath as mp

    with mp.workdps(40):
        length = _mp_length(mp, spec)

        def g(k):
            x = mp.mpf(k)
            return length(x) * _mp_unit_phase(mp, x)

        whole = _mp_full_sum(mp, g)
        return {n: complex(whole - _mp_tail_from(mp, g, n + 1)) for n in indices}


def mp_limit(spec: str) -> complex:
    """G_f = sum_{k>=3} (-1)^k l(k) u(k) at 40 digits for the family of CLI
    spec ``spec``, rounded to a complex double, summed like mp_vertices (the
    regularised sum when the sides tend to a constant).  Needs mpmath."""
    import mpmath as mp

    with mp.workdps(40):
        length = _mp_length(mp, spec)
        return complex(_mp_full_sum(mp, lambda k: length(mp.mpf(k)) * _mp_unit_phase(mp, mp.mpf(k))))


def mp_w(s: float) -> complex:
    """W(s) = sum_{k>=3} (-1)^k k^-s u(k) at 40 digits at the double s >= 0,
    rounded to a complex double: the power-law limit (at s = 0 the orbit
    center, the regularised sum), summed like mp_vertices.  Needs mpmath."""
    import mpmath as mp

    with mp.workdps(40):
        s = mp.mpf(s)
        return complex(_mp_full_sum(mp, lambda k: mp.mpf(k) ** -s * _mp_unit_phase(mp, mp.mpf(k))))


def mp_tail(spec: str, x: float) -> complex:
    """E(x) = sum_{j>=0} (-1)^j l(x+j) u(x+j) at 40 digits at the real
    double x > 2, rounded to a complex double: a direct head j < 40, then
    the 64-term CVZ tail of _mp_tail_from from the even offset j = 40.
    Needs mpmath."""
    import mpmath as mp

    with mp.workdps(40):
        length, x = _mp_length(mp, spec), mp.mpf(x)

        def g(j):
            return length(x + j) * _mp_unit_phase(mp, x + j)

        return complex(sum((-1) ** j * g(j) for j in range(40)) + _mp_tail_from(mp, g, 40))


def mp_interpolant(spec: str, n: float) -> complex:
    """The interpolant at real n at 40 digits, rounded to a complex double,
    in its combined-series form
    sum_{k>=3} (-1)^k [l(k) u(k) - e^{i pi (n-2)} l(k-2+n) u(k-2+n)]
    (as the benchmark's reference table writes it), summed like
    mp_vertices.  Needs mpmath.
    """
    import mpmath as mp

    with mp.workdps(40):
        length = _mp_length(mp, spec)
        n = mp.mpf(n)
        rot = mp.expjpi(n - 2)

        def g(k):
            k = mp.mpf(k)
            x = k - 2 + n
            return length(k) * _mp_unit_phase(mp, k) - rot * length(x) * _mp_unit_phase(mp, x)

        return complex(_mp_full_sum(mp, g))


def mp_q(spec: str, n: float) -> complex:
    """The center offset Q_f(n) = e^{i pi n} l(n) u(n) / (e^{2 pi i / n} - 1)
    at real n > 1 at 40 digits, rounded to a complex double (as the
    benchmark's reference table writes it).  Needs mpmath.
    """
    import mpmath as mp

    with mp.workdps(40):
        x = mp.mpf(n)
        num = mp.expjpi(x) * _mp_length(mp, spec)(x) * _mp_unit_phase(mp, x)
        return complex(num / (mp.expjpi(2 / x) - 1))


def sample_depth_first(
    fn: Callable[[float], complex],
    lo: float,
    hi: float,
    px_scale: float,
    initial: int = 64,
    max_deviation_px: float = 0.2,
    max_depth: int = 12,
) -> list[complex]:
    """render.sample_curve_adaptive as a recursive walk, one point at a
    time: bisect each interval depth first until its midpoint is within
    max_deviation_px of the chord at px_scale pixels per unit, or after
    max_depth bisections, and emit each accepted interval's right end.
    """
    tol = max_deviation_px / px_scale
    params = [lo + (hi - lo) * i / (initial - 1) for i in range(initial)]
    values = [fn(t) for t in params]
    out = [values[0]]

    def refine(t0: float, z0: complex, t1: float, z1: complex, depth: int) -> None:
        tm = 0.5 * (t0 + t1)
        zm = fn(tm)
        if depth >= max_depth or abs(zm - 0.5 * (z0 + z1)) <= tol:
            out.append(z1)
            return
        refine(t0, z0, tm, zm, depth + 1)
        refine(tm, zm, t1, z1, depth + 1)

    for i in range(initial - 1):
        refine(params[i], values[i], params[i + 1], values[i + 1], 0)
    return out


def _run_harmonics(ks, s: float, c: float) -> tuple:
    """(1/k, s, c) at each k of the consecutive float array ks, with
    H_k = s + c from H_{ks[0] - 1} = s + c given: spiral._phases' steps as
    plain array expressions (_sum2)."""
    inv = 1.0 / ks
    return (inv, *_sum2(inv, s, c))


def _sum2(x, s, c) -> tuple:
    """(s, c) after each entry of the float or complex array x, the running
    sum s + c continued from s + c given: Sum2 as plain array expressions,
    s an np.add.accumulate of x and c one of the numerics.two_sum errors."""
    import numpy as np

    from ngonspiral.numerics import two_sum

    hs = np.add.accumulate(np.concatenate(([s], x)))
    _, err = two_sum(hs[:-1], x)
    return hs[1:], np.add.accumulate(np.concatenate(([c], err)))[1:]


def live_run(f, end: int) -> list[complex]:
    """V(2), ..., V(end) of one run from V(2) with every chunk of the dense
    kernel computed live: per chunk of _arrays._CHUNK terms, H_k = s + c
    stepped from H_2 = 3/2 (_run_harmonics), u(k) with the phase
    t = (1/k - (2 s mod 1)) - 2 c, and V = s + c by the same plain Sum2
    (_sum2) from V(2) = 0: the bits a run through f's _first_run table
    must keep."""
    import numpy as np

    from ngonspiral import _arrays

    sums, s, c, vs, vc = [0j], 1.5, 0.0, 0j, 0j
    for lo in range(3, end + 1, _arrays._CHUNK):
        ks = float(lo) + np.arange(min(_arrays._CHUNK, end + 1 - lo), dtype=float)
        inv, hs, cs = _run_harmonics(ks, s, c)
        s, c = hs[-1], cs[-1]
        u = _arrays._turns((inv - np.mod(2.0 * hs, 1.0)) - 2.0 * cs)
        heads, fixes = _sum2(_arrays._alternate(lo, _arrays._terms(f, ks, u)), vs, vc)
        vs, vc = heads[-1], fixes[-1]
        sums += (heads + fixes).tolist()
    return sums


def identity_residual_two_sided(n_max: int, closed: bool = False) -> float:
    """verify_telescoping_identity's residual with both sides of the pairing
    identity read from the direct H_k: in chunks of 2,048 terms, the vertex
    series (summed by the plain Sum2, _sum2) and
    (-1)^k (e^{-4 pi i H_{k-1}} + e^{-4 pi i H_k}) from H_k = s + c stepped
    from H_2 = 3/2 (_run_harmonics), each phase reduced as (2 s mod 1) + 2 c,
    the prefix sums against the closed form from harmonic_array.  With
    ``closed``, each term is also checked against the pair of closed
    rotations, r_{k-1} read from harmonic_array at k - 1 (r_2 = 1), as the
    library's check does."""
    import numpy as np

    from ngonspiral import _arrays
    from ngonspiral.lengthfns import telescoping

    f, chunk = telescoping(), 2048
    s, c, vs, vc = 1.5, 0.0, 0j, 0j
    worst = 0.0
    for k0 in range(3, n_max + 1, chunk):
        ks = float(k0) + np.arange(min(chunk, n_max + 1 - k0), dtype=float)
        inv, hs, cs = _run_harmonics(ks, s, c)
        frac = np.mod(2.0 * hs, 1.0)
        u = _arrays._turns((inv - frac) - 2.0 * cs)
        turns = np.empty(len(ks) + 1)  # 2 H_{k-1}, then 2 H_k, in reduced turns
        turns[0] = (2.0 * s) % 1.0 + 2.0 * c
        turns[1:] = frac + 2.0 * cs
        s, c = hs[-1], cs[-1]
        terms = _arrays._alternate(k0, _arrays._terms(f, ks, u))
        heads, fixes = _sum2(terms, vs, vc)
        vs, vc = heads[-1], fixes[-1]
        sums = heads + fixes
        rot = _arrays._turns(-turns)
        pairs = _arrays._alternate(k0, rot[:-1] + rot[1:])
        both = _arrays.harmonic_array(np.concatenate(([ks[0] - 1.0], ks)), np.log)  # H_{k-1}, then H_k
        both *= -2.0
        rot = _arrays._turns(both)
        if closed:
            worst = max(worst, np.abs(terms - _arrays._alternate(k0, rot[:-1] + rot[1:])).max())
        rot = _arrays._alternate(k0, rot[1:])
        rot -= 1.0
        np.subtract(terms, pairs, out=pairs)
        np.subtract(sums, rot, out=rot)
        worst = max(worst, np.abs(pairs).max(), np.abs(rot).max())
    return float(worst)


def euler_transform_rows(terms, settings: AccelerationSettings) -> SummationResult:
    """numerics.euler_transform_sum with its difference row built anew for
    every term, list(accumulate(row, sub, initial=a_j)): the same
    subtractions in the same order."""
    tol = settings.target_tolerance
    diag: list[complex] = []
    total = best = 0j
    best_err, used, scale = math.inf, 0, 1.0
    for j, a in enumerate(itertools.islice(terms, settings.max_terms)):
        diag = list(itertools.accumulate(diag, operator.sub, initial=complex(a)))
        head = diag[j]
        if not cmath.isfinite(head):
            break
        scale *= 0.5
        correction = head * scale
        if j % 2:
            correction = -correction
        total += correction
        last_err = abs(correction)
        used = j + 1
        if last_err < best_err:
            best_err, best = last_err, total
        if used >= 4 and last_err <= tol:
            return SummationResult(total, last_err, True, used)
    return SummationResult(best, best_err, False, used)
