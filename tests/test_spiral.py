import cmath
import dataclasses
import functools
import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from ngonspiral import _arrays, spiral
from ngonspiral.convergence import classify, limit_point, orbit_center
from ngonspiral.lengthfns import (
    area_normalized,
    circumscribed,
    inscribed,
    parse_length,
    power_law,
    telescoping,
)
from ngonspiral.numerics import EULER_GAMMA, AccelerationSettings, SummationResult, harmonic_continued
from ngonspiral.spiral import (
    center,
    interpolated_vertex,
    phase_of_turns,
    polygon,
    q_term,
    vertex,
    vertex_at,
)
from oracles import (
    _harmonic_steps,
    convex_intersection_area,
    harmonic_number,
    harmonic_phases,
    live_run,
    mp_interpolant,
    mp_vertices,
    polygon_area,
    theta,
    unit_phase,
)

import scipy.special as sp

TIGHT = AccelerationSettings(target_tolerance=1e-12, max_terms=600)


class TestTheta:
    def test_seed_is_minus_three_pi(self):
        assert abs(theta(2.0) + 3.0 * math.pi) < 1e-14

    def test_theta_three(self):
        # one recurrence step from theta_2: -3pi + 0 + pi/3 - pi
        assert abs(theta(3.0) + 11.0 * math.pi / 3.0) < 1e-13

    def test_theta_four(self):
        assert abs(theta(4.0) + 23.0 * math.pi / 6.0) < 1e-13

    def test_recurrence_bulk(self):
        worst = 0.0
        for n in range(2, 2001):
            res = (
                theta(n + 1.0)
                - theta(float(n))
                - (n - 2) * math.pi / n
                - (n - 1) * math.pi / (n + 1)
                + math.pi
            )
            worst = max(worst, abs(res))
        assert worst < 1e-9

    def test_sign_identity(self):
        # e^{i theta_k} = (-1)^k e^{2 pi i (1/k - 2 H_k)}
        worst = 0.0
        for k in range(2, 2001):
            lhs = cmath.exp(1j * theta(float(k)))
            rhs = unit_phase(float(k), harmonic_number(k))
            if k % 2:
                rhs = -rhs
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10

    def test_real_arguments_interpolate(self):
        # continued theta is continuous and bracketed by its neighbors'
        # trend between 10 and 11
        t_low, t_mid, t_high = theta(10.0), theta(10.5), theta(11.0)
        assert min(t_low, t_high) < t_mid < max(t_low, t_high)

    def test_domain(self):
        with pytest.raises(ValueError):
            theta(1.0)


class TestVertex:
    def test_seed(self):
        assert vertex(power_law(1.0), 2) == 0j

    def test_first_triangle_vertex(self):
        v = vertex(power_law(1.0), 3)
        assert abs(v - complex(1.0 / 6.0, math.sqrt(3.0) / 6.0)) < 1e-14

    def test_telescoping_single_term(self):
        v = vertex(telescoping(), 3)
        assert abs(v - complex(-0.5, -math.sqrt(3.0) / 2.0)) < 1e-14

    def test_against_vectorized_oracle(self):
        # independent numpy route: cumulative sums in float64
        n = 20_000
        k = np.arange(1, n + 1, dtype=np.float64)
        hs = np.cumsum(1.0 / k)
        ang = 2.0 * np.pi * (1.0 / k - 2.0 * hs)
        sign = np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0)
        terms = sign * np.exp(1j * ang) / k
        terms[:2] = 0.0
        oracle = terms.sum()
        assert abs(vertex(power_law(1.0), n) - oracle) < 1e-11

    def test_vertex_at_matches_single_calls(self):
        f = power_law(0.5)
        got = vertex_at(f, [2, 5, 17, 40])
        for n, value in got.items():
            assert value == vertex(f, n)

    def test_domain(self, monkeypatch):
        with pytest.raises(ValueError):
            vertex(power_law(1.0), 1)
        # an integral float is its int; 3.5, inf and nan are refused by
        # every function that takes an index, before any work
        f = power_law(1.0)
        assert vertex(f, 3.0) == vertex(f, 3)
        assert center(f, 4.0) == center(f, 4)
        assert polygon(f, 3.0) == polygon(f, 3)
        assert spiral.polygon_from_vertex(f, 5.0, 1j) == spiral.polygon_from_vertex(f, 5, 1j)

        def refuse(*args):
            raise AssertionError("the work was started")

        monkeypatch.setattr(_arrays, "_dense_series", refuse)
        monkeypatch.setattr(spiral, "q_term", refuse)
        for n in (3.5, math.inf, math.nan):
            for call in (
                lambda: vertex_at(f, [3, n]),
                lambda: vertex(f, n),
                lambda: polygon(f, n),
                lambda: center(f, n),
                lambda: spiral.polygon_from_vertex(f, n, 0j),
            ):
                with pytest.raises(ValueError, match="integers"):
                    call()
        # a polygon's size is checked before V(n) is summed
        for call in (lambda: polygon(power_law(-1.0), 5 * 10**6), lambda: polygon(f, 2)):
            with pytest.raises(ValueError, match="3 <= n"):
                call()

    @pytest.mark.parametrize("n", [2**53, 10**17, 10**20, 10**200])
    def test_short_run_past_exact_floats(self, n):
        # k + 1 and k round to one float there (and k^2 overflows at
        # 1e200); the sign of each term still follows the int k: a run of
        # 3 from a jump lands where the jump to n + 3 does
        f = power_law(0.0)
        both = vertex_at(f, [n, n + 1, n + 3])
        assert len(both) == 3
        assert abs(both[n + 3] - vertex(f, n + 3)) < 1e-9

    def test_side_lengths_past_the_doubles_are_refused(self):
        # x ** 300 overflows at n = 11: a ValueError naming the family and
        # n, not an OverflowError
        for call, name in (
            (lambda: vertex(inscribed(-300), 200), "inscribed:-300"),
            (lambda: vertex(power_law(-300), 20), "power:-300"),
            (lambda: center(circumscribed(-300), 300), "circumscribed:-300"),
            (lambda: vertex_at(circumscribed(-300), [5, 300]), "circumscribed:-300"),
            (lambda: polygon(circumscribed(-300), 300), "circumscribed:-300"),
            (lambda: spiral.polygon_from_vertex(power_law(-300), 300, 0j), "power:-300"),
        ):
            with pytest.raises(ValueError, match=f"{name} at n = .* is non-finite"):
                call()
        with pytest.raises(ValueError, match=re.escape("inscribed:-300 at n = 11.0 is non-finite")):
            vertex(inscribed(-300), 200)
        # 3^700 overflows in a run on the float steps: its ValueError is the
        # array run's, not the float step's OverflowError
        message = "the side length of power:-700 at n = 3.0 is non-finite (overflows a double)"
        for call in (lambda: vertex(power_law(-700), 5),
                     lambda: list(_arrays._dense_series(power_law(-700), 2, 0j, 5))):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
        assert cmath.isfinite(vertex(power_law(-300), 10))

    def test_index_beyond_the_double_range_is_refused(self):
        # n + 1 must fit in a double; 2**1023 + 1 does, 2**1024 does not
        assert cmath.isfinite(vertex(power_law(1.0), 2**1023))
        for n in (2**1024, 10**400):
            with pytest.raises(ValueError, match=f"n = {n}"):
                vertex(power_law(1.0), n)


# Catalog families whose sides do not grow, so deep indices jump; the first
# seven vanish, the last five tend to a constant (exponent 0).
VANISHING = ("power:1", "power:0.5", "power:2", "power:1e-3", "inscribed:0",
             "circumscribed:1", "area:0")
CONSTANT = ("power:0", "inscribed:-1", "circumscribed:-1", "area:-2", "telescoping")
DEEP_N = (2049, 4097, 10**5 + 1, 10**6, 10**7, 10**7 + 1)


@functools.lru_cache(maxsize=None)
def _summed_moduli(spec: str, n_max: int) -> tuple[float, ...]:
    """sum_{k=3}^{n} |l(k)| for n = 2, ..., n_max."""
    f = parse_length(spec)
    return (0.0, *itertools.accumulate(abs(f(float(k))) for k in range(3, n_max + 1)))


@functools.lru_cache(maxsize=None)
def _dense(spec: str, n_max: int) -> tuple[complex, ...]:
    """V(2), ..., V(n_max) from one dense vertex_at run, the reference that
    every summed index must equal bit for bit."""
    v = vertex_at(parse_length(spec), range(2, n_max + 1))
    return tuple(v[n] for n in range(2, n_max + 1))


# The chunk edges of a run from V(2), whose first term is k = 3 (chunks of
# 4,096 terms, and of 2,048 before), n = 258 and 259 (kept as inputs), and a
# dense sample of n <= 2e4.
EDGES = (258, 259, 2050, 2051, 4098, 4099, 4100, 8195)
DENSE_N = sorted({3, 4, 12, 50, 257, 260, 513, 2047, 2048, 4097, 8196, 12291, *EDGES,
                  *range(1000, 20_001, 1000)})
# A run's indices up to _TAIL_FROM: DENSE_N's, a stride of 97 and the shallow jumps'.
RUN_N = sorted({*(n for n in DENSE_N if n <= 2048), *range(100, 2049, 97), 515, 700, 1500, 2000})
# Largest error of the scalar streaming loop this kernel replaced, from mpmath,
# over DENSE_N (measured, rounded up at the third digit): the kernel may be
# no worse.
STREAM_ERROR = {
    "power:1": 2.63e-15, "power:0.5": 2.38e-14, "power:2": 2.56e-16,
    "power:1e-3": 1.02e-12, "inscribed:0": 1.65e-14, "circumscribed:1": 2.71e-15,
    "area:0": 9.86e-15, "power:0": 1.03e-12, "inscribed:-1": 6.43e-12,
    "circumscribed:-1": 6.46e-12, "area:-2": 3.61e-12, "telescoping": 2.06e-12,
}


# Largest error of a run from V(2) against mpmath (measured, rounded up at
# the second digit): over RUN_N, and over DENSE_N past 2,048.  Runs step
# H_k = s + c and reduce each phase in turns as the tails do; when they
# formed 1/k - 2 H_k in one double the worst were 9.3e-13 and 5.2e-12
# (inscribed:-1), against 7.5e-14 (circumscribed:-1) and 5.5e-13 now.
RUN_ERROR = {
    "power:1": (2.3e-16, 1.2e-16), "power:0.5": (5e-16, 1.2e-15), "power:2": (5.1e-17, 5.1e-17),
    "power:1e-3": (7.6e-15, 8.2e-14), "inscribed:0": (6.3e-16, 6.3e-16),
    "circumscribed:1": (8.1e-16, 8.1e-16), "area:0": (6.7e-16, 6.3e-16), "power:0": (7.8e-15, 8.7e-14),
    "inscribed:-1": (4.8e-14, 5.5e-13), "circumscribed:-1": (7.5e-14, 5.1e-13),
    "area:-2": (3.3e-14, 2.7e-13), "telescoping": (1.8e-14, 1.7e-13),
}


def _tails_miss(f, x, settings, tail=spiral._tail):
    """spiral._tail with every sum but G_f = -E(3) starved."""
    return tail(f, x, settings) if x == 3 else SummationResult(0j, 1.0, False, 4)


class TestDeepVertices:
    @pytest.mark.parametrize("spec", VANISHING + CONSTANT)
    def test_against_mpmath(self, spec):
        pytest.importorskip("mpmath")
        # measured worst: 6.1e-14 vanishing (power:1e-3), 3.9e-13 exponent 0
        # (inscribed:-1, whose sides tend to 2 pi)
        bound = 1e-13 if spec in VANISHING else 2e-12
        got = vertex_at(parse_length(spec), DEEP_N)
        ref = mp_vertices(spec, DEEP_N)
        for n in DEEP_N:
            assert abs(got[n] - ref[n]) < bound, (spec, n)

    @pytest.mark.parametrize("spec", VANISHING + CONSTANT)
    def test_dense_range_against_mpmath(self, spec):
        pytest.importorskip("mpmath")
        got = _dense(spec, 20_000)
        ref = mp_vertices(spec, DENSE_N)
        assert max(abs(got[n - 2] - ref[n]) for n in DENSE_N) <= STREAM_ERROR[spec]

    @pytest.mark.parametrize("spec", VANISHING + CONSTANT)
    def test_runs_against_mpmath(self, spec):
        pytest.importorskip("mpmath")
        got = _dense(spec, 20_000)
        ref = mp_vertices(spec, sorted({*RUN_N, *DENSE_N}))
        shallow, deep = RUN_ERROR[spec]
        assert max(abs(got[n - 2] - ref[n]) for n in RUN_N) <= shallow
        assert max(abs(got[n - 2] - ref[n]) for n in DENSE_N if n > 2048) <= deep

    def test_jump_matches_stream(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # The dense run, not the jump, is the inexact side here (it is off
        # by up to 6e-12 from mpmath at n <= 2e4): its rounding grows with
        # the summed modulus of its terms, so the bound does too.
        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.sampled_from(VANISHING + CONSTANT), st.integers(2049, 20_000))
        def check(spec, n):
            gap = abs(vertex_at(parse_length(spec), [n])[n] - _dense(spec, 20_000)[n - 2])
            assert gap < 1e-13 + 4.4e-16 * _summed_moduli(spec, 20_000)[n - 2]

        check()

    @pytest.mark.parametrize("spec", ["power:1", "power:0", "telescoping"])
    def test_shallow_indices_are_streamed_bits(self, spec):
        # the chunks of a run count from its start, so in a call that asks
        # for nothing above 2,048 (where no index jumps) a value does not
        # depend on the other indices asked for or on where the run ends
        ref = _dense(spec, 6000)
        f = parse_length(spec)
        for n, v in vertex_at(f, [2, 3, 100, 777, 2047, 2048]).items():
            assert v == ref[n - 2], n
        for n in (3, 4, 100, 257, *EDGES[:2], 2047):
            assert vertex(f, n) == ref[n - 2], n
        assert ref == _dense(spec, 20_000)[: len(ref)]

    def test_no_indices_no_vertices(self, monkeypatch):
        monkeypatch.setattr(_arrays, "_dense_series", None)  # nothing is summed
        assert vertex_at(power_law(1.0), []) == {}
        assert vertex_at(power_law(1.0), iter(())) == {}

    @pytest.mark.parametrize("spec", ["power:-1", "inscribed:-2"])
    def test_growing_family_streams(self, spec):
        assert vertex(parse_length(spec), 5000) == _dense(spec, 5000)[-1]

    @pytest.mark.parametrize(
        "name, stub",
        [
            ("_TAIL_SETTINGS", AccelerationSettings(1e-13, max_terms=4)),
            ("_limit_series", lambda *args: SummationResult(0j, 1.0, False, 4)),
            ("euler_transform_sum", lambda *args: SummationResult(0j, 1.0, False, 4)),
            ("_tail", _tails_miss),
        ],
    )
    def test_unconverged_sum_falls_back_to_stream(self, monkeypatch, name, stub):
        # starved settings, then G_f alone, then every Euler sum the kernel
        # E(x) runs (it calls euler_transform_sum in spiral), then the deep
        # tails E(n+1) alone miss
        ref = _dense("power:1", 5000)[-1]
        monkeypatch.setattr(spiral, name, stub)
        assert vertex(power_law(1.0), 5000) == ref

    @pytest.mark.parametrize("spec", ["power:1", "power:0", "inscribed:-1", "telescoping", "area:0"])
    def test_jump_is_the_interpolant_at_integers(self, spec):
        # one formula, G_f + e^{i pi n} E(n+1), read at an int and at a float
        f = parse_length(spec)
        for n in (2049, 10**5 + 1, 10**6, 10**7 + 1):
            assert interpolated_vertex(f, float(n), spiral._TAIL_SETTINGS).value == vertex(f, n), n

    @pytest.mark.parametrize("spec", ["power:1", "power:0"])
    def test_jump_plan_edges(self, monkeypatch, spec):
        # an index jumps when it is above _TAIL_FROM and more than _JUMP_GAP
        # past the previous one, the first counted from 2; once one does, so
        # does an index at or below _TAIL_FROM more than _SHALLOW_GAP past the
        # previous one.  At these indices a jump and the run from V(2) differ
        # in the last bits, so each value shows its path; an index summed on
        # from a jump shows neither, and lies near the run's value
        f = parse_length(spec)
        top, gap = spiral._TAIL_FROM, spiral._JUMP_GAP
        below, deep = top - 48, 10**5
        cases = [
            ([top - gap, top], ()),  # top is not above _TAIL_FROM
            ([top], ()),  # nor with its gap from 2
            ([3, 1500, top], ()),  # nothing above _TAIL_FROM, so no long shallow gap jumps
            ([below, below + gap], ()),  # a gap of exactly _JUMP_GAP, so no G_f
            ([below, below + gap + 1], (below, below + gap + 1)),  # below's gap from 2 too
            ([top, top + gap + 1], (top, top + gap + 1)),  # top itself is shallow
            ([below, below + gap, below + 2 * gap + 1], (below, below + 2 * gap + 1)),
            ([top + 1], (top + 1,)),  # the gap from 2
            ([*range(2, 5000), 60_000], (60_000,)),
            ([514, deep], (deep,)),  # a shallow gap of exactly _SHALLOW_GAP = 512
            ([515, deep], (515, deep)),
            ([1000, 1512, deep], (1000, deep)),
            ([1000, 1513, deep], (1000, 1513, deep)),
            ([*range(100, 2001, 100), deep], (deep,)),  # strided: every shallow index runs
        ]
        ref = _dense(spec, 6000)
        asked, live = [], spiral.continuation

        def recording(*args):
            v = live(*args)
            return lambda n: asked.append(n) or v(n)

        monkeypatch.setattr(spiral, "continuation", recording)
        for indices, jumped in cases:
            asked.clear()
            got = vertex_at(f, indices)
            assert asked == list(jumped), indices
            for n in indices:
                if n in jumped:
                    assert got[n] == interpolated_vertex(f, float(n), spiral._TAIL_SETTINGS).value, n
                elif n < min(jumped, default=n + 1):
                    assert got[n] == ref[n - 2], n
                else:
                    assert abs(got[n] - ref[n - 2]) < 1e-12, n

    @pytest.mark.parametrize("spec", VANISHING + CONSTANT)
    def test_shallow_jumps_against_mpmath(self, spec):
        pytest.importorskip("mpmath")
        # each index in its own call beside a deep one, so each jumps: the
        # interpolant's bits, within 5e-14 of 40 digits (measured worst
        # 3.7e-14, circumscribed:-1 at 2,048), where the run from V(2) it
        # replaces is up to 7.5e-14 off (circumscribed:-1 at 2,000; RUN_ERROR)
        f, shallow = parse_length(spec), (515, 700, 1000, 1500, 2000, 2048)
        ref = mp_vertices(spec, shallow)
        for n in shallow:
            got = vertex_at(f, [n, 100_001])[n]
            assert got == interpolated_vertex(f, float(n), spiral._TAIL_SETTINGS).value, n
            assert abs(got - ref[n]) <= 5e-14, n

    def test_one_g_f_for_every_deep_index(self, monkeypatch):
        calls = []
        limit_series = spiral._limit_series

        def counting(*args):
            calls.append(args)
            return limit_series(*args)

        monkeypatch.setattr(spiral, "_limit_series", counting)
        vertex_at(power_law(1.0), [5000, 10**5, 10**6, 10**7])
        assert len(calls) == 1

    def test_deep_index_reads_a_few_terms(self, monkeypatch):
        consumed = []
        stream, dense = spiral._phases, _arrays._dense_series

        def counting_stream(x, lf=None):
            # each term stepped, at its x + j; a stream made and never stepped counts none
            for j, term in enumerate(stream(x, lf)):
                consumed.append(x + j)
                yield term

        def counting_dense(*args):
            for lo, terms, sums in dense(*args):
                consumed.extend(range(lo, lo + len(sums)))
                yield lo, terms, sums

        spiral._limit_phases()  # built first, so the count does not hang on the test order
        monkeypatch.setattr(spiral, "_phases", counting_stream)
        monkeypatch.setattr(_arrays, "_dense_series", counting_dense)
        v = vertex_at(power_law(0.5), (10**6, 10**6 + 3))
        assert len(v) == 2
        # G_f reads its ~32 phases from the table, so no step from 3; one
        # Euler tail (4 terms measured, at most 8) and a 3-term gap
        assert min(consumed) > 10**6
        assert len(consumed) <= 11

    def test_work_is_checked_again_only_after_a_refused_jump(self, monkeypatch):
        # the second check counts the refused jumps as summed gaps; with no
        # jump refused it would repeat the first
        checks, check = [], spiral._check_work

        def counting(deepest, jumps):
            checks.append(len(jumps))
            check(deepest, jumps)

        monkeypatch.setattr(spiral, "_check_work", counting)
        f, far = power_law(1.0), spiral._TAIL_FROM + 10 * spiral._JUMP_GAP
        for indices in ((3, 300), (3, far)):
            checks.clear()
            vertex_at(f, indices)
            assert checks == [len(indices) - 1 - (far not in indices)]
        live = spiral.continuation

        def refusing(*args):
            v = live(*args)
            return lambda n: dataclasses.replace(v(n), converged=False) if n == far else v(n)

        monkeypatch.setattr(spiral, "continuation", refusing)
        checks.clear()
        got = vertex_at(f, (3, far))
        assert checks == [1, 0]
        assert repr(got[far]) == repr(vertex_at(f, range(2, far + 1))[far])

    def test_stream_cap_is_exact(self, monkeypatch):
        # every sum (the dense kernel and the tails' stream) is replaced by
        # a failure, so the cap itself never runs
        def refuse(*args):
            raise AssertionError("streamed")

        monkeypatch.setattr(_arrays, "_dense_series", refuse)
        monkeypatch.setattr(spiral, "_phases", refuse)
        cap = spiral._MAX_STREAM
        growing = power_law(-1.0)
        with pytest.raises(AssertionError, match="streamed"):
            vertex(growing, cap + 2)
        with pytest.raises(ValueError, match="streamed terms"):
            vertex(growing, cap + 3)
        # each jump counts as _JUMP_GAP terms
        step = spiral._JUMP_GAP + 1
        jumps = cap // spiral._JUMP_GAP
        first = spiral._TAIL_FROM + 1
        with pytest.raises(AssertionError, match="streamed"):
            vertex_at(power_law(1.0), range(first, first + step * jumps, step))
        with pytest.raises(ValueError, match="streamed terms"):
            vertex_at(power_law(1.0), range(first, first + step * (jumps + 1), step))


def _rounded_once(start, chunks):
    """Feed the complex arrays ``chunks`` to _arrays._cascade from ``start``,
    the carry passed across chunks, and hold each running sum, part by
    part, within half an ulp of the exact Fraction sum (measured: half an
    ulp at worst)."""
    carry, sums = (start, 0j), []
    for c in chunks:
        heads, fixes = _arrays._cascade(*carry, c)
        sums.append(heads + fixes)
        carry = heads.item(-1), fixes.item(-1)
    got = np.concatenate(sums)
    re, im = Fraction(start.real), Fraction(start.imag)
    for j, (z, w) in enumerate(zip(np.concatenate(chunks).tolist(), got.tolist())):
        re += Fraction(z.real)
        im += Fraction(z.imag)
        assert abs(Fraction(w.real) - re) <= Fraction(math.ulp(float(re))) / 2, j
        assert abs(Fraction(w.imag) - im) <= Fraction(math.ulp(float(im))) / 2, j


class TestDenseKernel:
    @pytest.mark.parametrize("n", [2, 255, 256, 257, 4096, 4097, 9000])
    def test_running_sums_are_rounded_once(self, n):
        # complex terms fed in two chunks, against the exact prefix sums
        rng = np.random.default_rng(n)
        terms = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n) + 1j * rng.standard_normal(n)
        _rounded_once(0.5 + 0.25j, [terms[: n // 2], terms[n // 2 :]])

    @pytest.mark.parametrize("seed", range(3))
    def test_running_sums_are_rounded_once_under_cancellation(self, seed):
        # pairs x, -x + d with |x| up to 1e8 and |d| ~ 1e-3, so every other
        # prefix sum cancels to noise, fed in chunks of 2,100 and 2,900
        rng = np.random.default_rng(seed)

        def parts(n):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 8, n)
            return np.stack([x, 1e-3 * rng.standard_normal(n) - x], axis=1).ravel()

        terms = parts(2500) + 1j * parts(2500)
        _rounded_once(0j, [terms[:2100], terms[2100:]])

    @pytest.mark.parametrize("after", [2, 10**5, 10**12])
    def test_run_phases_are_the_stream(self, after):
        # a run from V(2) (H_2 = 3/2) and one after a jump at 10^5 or 10^12
        # (H from harmonic_continued, the seed of the tail E(after + 1)):
        # two chunks, the carry passed across their edge, give
        # spiral._phases' bits entry for entry
        h = (1.5 if after == 2 else harmonic_continued(after), 0.0)
        got = []
        for lo in (after + 1, after + 1 + 2048):
            u, h = _arrays._run_phases(float(lo) + np.arange(2048.0), *h)
            got += u.tolist()
        assert got == list(itertools.islice(spiral._phases(after + 1), 4096))

    def test_run_phases_hold_the_limit_phases(self):
        table = spiral._limit_phases()
        u, _ = _arrays._run_phases(3.0 + np.arange(float(len(table))), 1.5, 0.0)
        assert u.tolist() == list(table)

    @pytest.mark.parametrize("spec", VANISHING + CONSTANT)
    def test_runs_keep_their_bits_across_the_table(self, spec):
        # live_run computes every chunk live, as a run did before the
        # table; vertex_at reads the first chunk from the table, and its
        # runs across the chunk edges and its deep jumps keep their bits
        f = parse_length(spec)
        ref = live_run(f, 8200)
        for indices in (range(2, 8200), [2047, 2048, 2049, 2050], [2040, 2050, 2051]):
            got = vertex_at(f, indices)
            assert [repr(got[n]) for n in indices] == [repr(ref[n - 2]) for n in indices]
        for n in (3, 2047, 2048):
            assert repr(vertex(f, n)) == repr(ref[n - 2])
        for n in (4097, 10**5 + 1, 10**6):
            assert repr(vertex(f, n)) == repr(interpolated_vertex(f, float(n), spiral._TAIL_SETTINGS).value)

    def test_running_harmonic_numbers(self):
        # the runs' H_k, the carry s + c of _run_phases from H_2 = 3/2, within
        # an ulp at the end of each chunk, chunks of 1 to 4,000 terms
        h, lo = (1.5, 0.0), 3
        for m in (1, 2, 7, 100, 255, 1000, 4000, *range(1, 60)):
            _, h = _arrays._run_phases(float(lo) + np.arange(float(m)), *h)
            lo += m
            hk = h[0] + h[1]
            assert abs(hk - harmonic_number(lo - 1)) <= math.ulp(hk), lo - 1


class TestFirstRun:
    """Each family's run from V(2) reads its first 4,096 terms and sums, and
    the carries past them, from one table built by its first such run in a
    process."""

    SPARSE = (3, 150, 2049, 2050, 2051, 4100)

    @pytest.mark.parametrize("spec", [*VANISHING, *CONSTANT, "power:0.0", "power:-0.0", "power:-1", "inscribed:-2"])
    def test_warm_runs_are_the_cold_bits(self, spec):
        # each read cold, then all warm, after another family's run and in
        # the other order, and each against runs computed live
        f = parse_length(spec)
        reads = {"sparse": lambda: vertex_at(f, self.SPARSE),
                 "range": lambda: vertex_at(f, range(2, 4200)),
                 "polygon": lambda: polygon(f, 300)}
        cold = {}
        for name, read in reads.items():
            _arrays._first_run.cache_clear()
            cold[name] = repr(read())
        vertex_at(power_law(0.25), range(2, 3000))
        for name, read in reversed(reads.items()):
            assert repr(read()) == cold[name], name
        live = live_run(f, 4200)
        assert cold["range"] == repr(dict(zip(range(2, 4200), live)))
        assert cold["polygon"] == repr(spiral.polygon_from_vertex(f, 300, live[298]))
        # 2,049 and 4,100 jump once G_f is summed, save where the sides grow
        got = vertex_at(f, self.SPARSE)
        for n in self.SPARSE if f.asymptote().exponent < 0.0 else (3, 150):
            assert repr(got[n]) == repr(live[n - 2]), n

    def test_signed_zero_exponents_share_an_entry(self):
        fresh = repr(vertex_at(power_law(-0.0), range(2, 2100)))
        _arrays._first_run.cache_clear()
        vertex(power_law(0.0), spiral._FLOAT_STEPS + 3)  # a run past the float steps builds the table
        assert repr(vertex_at(power_law(-0.0), range(2, 2100))) == fresh
        assert _arrays._first_run.cache_info().currsize == 1

    def test_a_chunk_past_the_doubles_keeps_the_live_run(self):
        # 1,210^100 overflows a double, and the sides of inscribed:-93.026
        # are inf from k ~ 2,045 on: neither family has a table, so a short
        # run keeps its bits, and a long one its error or warning, however
        # often read
        refused, infinite = power_law(-100.0), inscribed(-93.026)
        for _ in range(2):
            for f in (refused, infinite):
                assert repr(vertex(f, 50)) == repr(live_run(f, 50)[-1])
            with pytest.raises(ValueError, match=re.escape("power:-100 at n = 1210.0 is non-finite")):
                vertex(refused, 2000)
            with pytest.warns(RuntimeWarning, match="encountered in"):
                vertex(infinite, 2050)
        assert _arrays._first_run(refused) is _arrays._first_run(infinite) is None
        assert _arrays._first_run.cache_info().currsize == 2

    def test_table_is_read_only(self):
        vertex(power_law(1.0), 3)
        terms, sums, _, _ = _arrays._first_run(power_law(1.0))
        assert len(terms) == len(sums) == _arrays._CHUNK
        for a in (terms, sums):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0j
        # the slices a run hands out are views of the table, read-only too
        chunk = next(_arrays._dense_series(power_law(1.0), 2, 0j, 300))
        assert not any(a.flags.writeable for a in chunk[1:])

    def test_cache_is_bounded(self):
        cache = _arrays._first_run
        assert cache.cache_info().maxsize == 16
        for k in range(17):
            vertex(power_law(1.0 + k / 16), spiral._FLOAT_STEPS + 3)
        assert cache.cache_info().currsize == 16

    def test_short_runs_build_no_table(self):
        # a sweep of more than the cache holds, each run on the float steps
        for k in range(17):
            vertex(power_law(1.0 + k / 16), 12)
        assert _arrays._first_run.cache_info().currsize == 0

    def test_cleared_cache_builds_again(self, monkeypatch):
        # terms doubled by a stub double every sum exactly, so the sums show
        # which build they come from: the warm table, then a new build
        f = telescoping()
        v = vertex(f, 300)
        terms = _arrays._terms
        monkeypatch.setattr(_arrays, "_terms", lambda *args: 2.0 * terms(*args))
        assert vertex(f, 300) == v
        _arrays._first_run.cache_clear()
        assert vertex(f, 300) == 2.0 * v


# Starts of the runs past 2^53, where k and k + 1 can share a double.
PAST_EXACT = (2**53 - 8, 2**53, 2**53 + 1, 2**60 + 100, 10**17, 10**20)


class TestFloatSteps:
    """A run of at most _FLOAT_STEPS terms and a ring of at most _FLOAT_STEPS
    corners take the float steps, with the bits of the array kernels."""

    @staticmethod
    def _array_run(f, start, base, end):
        return [z for _, _, sums in _arrays._dense_series(f, start, base, end) for z in sums.tolist()]

    @pytest.mark.parametrize("after", [2, 10**5, 10**12])
    @pytest.mark.parametrize("spec", VANISHING + CONSTANT)
    def test_runs_are_the_array_bits(self, spec, after):
        # every run of 1 to 16 terms, from V(2) and after a jump
        f = parse_length(spec)
        base = vertex(f, after)
        for m in range(1, spiral._FLOAT_STEPS + 1):
            got = spiral._float_run(f, after, base, after + m)
            assert repr(got) == repr(self._array_run(f, after, base, after + m)), m
        # and vertex reads them: V(3) to V(18), each a run from V(2)
        ends = range(3, spiral._FLOAT_STEPS + 3) if after == 2 else ()
        for end in ends:
            assert repr(vertex(f, end)) == repr(self._array_run(f, 2, 0j, end)[-1]), end

    @pytest.mark.parametrize("spec", VANISHING + CONSTANT)
    def test_rings_are_the_array_bits(self, spec):
        f = parse_length(spec)
        for n in range(3, spiral._FLOAT_STEPS + 1):
            pg = polygon(f, n)
            c = pg.center
            assert repr(pg.vertices) == repr(tuple(_arrays._ring(c, vertex(f, n) - c, n))), n

    @pytest.mark.parametrize("start", PAST_EXACT)
    def test_runs_past_exact_floats(self, start):
        # the float steps keep the array run's seed H_start, its signs (from
        # the int k) and its Sum2; they read l and 1/k at float(k), the
        # double nearest each k, where the array run reads
        # float(start + 1) + j: the bits agree wherever those doubles do, and
        # within a few ulps of a term elsewhere (1.9e-15 measured)
        end = start + spiral._FLOAT_STEPS
        shared = all(float(k) == float(start + 1) + (k - start - 1) for k in range(start + 1, end + 1))
        for spec in VANISHING + CONSTANT:
            f = parse_length(spec)
            got = spiral._float_run(f, start, 0.25 - 0.5j, end)
            want = self._array_run(f, start, 0.25 - 0.5j, end)
            if shared:
                assert repr(got) == repr(want), spec
            else:
                assert max(abs(a - b) for a, b in zip(got, want)) < 1e-14, spec
        assert shared == (start not in (2**53, 10**17))


class TestQTerm:
    def test_modulus_is_circumradius(self):
        f = power_law(1.0)
        for n in (3, 4, 7, 19, 100):
            expected = f(float(n)) / (2.0 * math.sin(math.pi / n))
            assert abs(abs(q_term(f, n)) - expected) < 1e-14

    def test_modulus_identity_across_kinds_and_real_arguments(self):
        for f in (power_law(0.5), inscribed(1.0), telescoping()):
            for n in (2.5, 3.0, 7.25, 41.0, 1.618):
                expected = abs(f(n)) / (2.0 * math.sin(math.pi / n))
                assert abs(abs(q_term(f, n)) - expected) < 1e-12 * max(1.0, expected)

    def test_power_law_four(self):
        assert abs(abs(q_term(power_law(1.0), 4)) - 1.0 / (4.0 * math.sqrt(2.0))) < 1e-15

    def test_telescoping_four_vanishes(self):
        assert abs(q_term(telescoping(), 4)) < 1e-12

    def test_real_argument(self):
        q = q_term(power_law(1.0), 3.5)
        assert math.isfinite(abs(q))

    def test_domain(self):
        for n in (1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                q_term(power_law(1.0), n)

    def test_overflow_is_refused(self):
        # a side length past the doubles, then a finite one over a vanishing
        # denominator: each a ValueError naming the family and n
        with pytest.raises(ValueError, match=re.escape("area:-300 at n = 1000000.0 is non-finite")):
            q_term(area_normalized(-300), 1e6)
        with pytest.raises(ValueError, match=re.escape("Q(n) of power:-1 at n = 1e+300 is non-finite")):
            q_term(power_law(-1.0), 1e300)
        assert cmath.isfinite(q_term(power_law(-1.0), 1e150))


# numpy scalars and fractions, each with the Python number it stands for
ONE_NUMBERS = ((np.float32(5.5), 5.5), (np.float64(5.5), 5.5), (np.int64(5), 5), (Fraction(11, 2), 5.5))


class TestOneNumber:
    """Anything without a length is one number, read as a Python int or
    float: the result is the Python call's, bit for bit."""

    @pytest.mark.parametrize("n, same", ONE_NUMBERS)
    def test_q_term(self, n, same):
        z = q_term(power_law(1.0), n)
        assert type(z) is complex
        assert repr(z) == repr(q_term(power_law(1.0), same))

    @pytest.mark.parametrize("n, same", ONE_NUMBERS)
    def test_continuation(self, n, same):
        res = interpolated_vertex(power_law(1.0), n)
        assert type(res.value) is complex and type(res.converged) is bool
        # a float32 summed in single precision took 417 terms, not 108
        assert repr(res) == repr(interpolated_vertex(power_law(1.0), same))


class TestCenter:
    def test_triangle_circumcenter(self):
        f = power_law(1.0)
        c = center(f, 3)
        pg = polygon(f, 3)
        radius = (1.0 / 3.0) / math.sqrt(3.0)
        for v in pg.vertices:
            assert abs(abs(v - c) - radius) < 1e-14

    def test_telescoping_center_equals_vertex_at_zero_side(self):
        assert abs(center(telescoping(), 4) - vertex(telescoping(), 4)) < 1e-12

    def test_unit_side_scaling(self):
        # PowerLaw{0} is the PowerLaw{1} construction scaled by n at each
        # term, but for the 3-gon alone center is 3x the side-1/3 triangle
        c0 = center(power_law(0.0), 3)
        c1 = center(power_law(1.0), 3)
        assert abs(c0 - 3.0 * c1) < 1e-14


class TestPolygon:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_shared_vertices(self, n):
        f = power_law(1.0)
        pg = polygon(f, n)
        assert abs(pg.vertices[0] - vertex(f, n)) < 1e-14
        assert abs(pg.vertices[1] - vertex(f, n - 1)) < 1e-10

    @pytest.mark.parametrize("n", range(3, 13))
    def test_equal_sides(self, n):
        f = power_law(1.0)
        pg = polygon(f, n)
        side = abs(f(float(n)))
        for i in range(n):
            edge = abs(pg.vertices[(i + 1) % n] - pg.vertices[i])
            assert abs(edge - side) < 1e-10

    def test_equidistant_from_center(self):
        pg = polygon(power_law(1.0), 7)
        for v in pg.vertices:
            assert abs(abs(v - pg.center) - pg.circumradius) < 1e-12

    def test_interior_angle(self):
        pg = polygon(power_law(1.0), 5)
        assert abs(pg.interior_angle - 3.0 * math.pi / 5.0) < 1e-15

    def test_degenerate_telescoping_square(self):
        pg = polygon(telescoping(), 4)
        assert pg.degenerate
        for v in pg.vertices:
            assert abs(v - pg.center) < 1e-12

    def test_consecutive_interiors_disjoint(self):
        f = power_law(1.0)
        polys = {n: polygon(f, n) for n in range(3, 13)}
        for n in range(3, 12):
            area = convex_intersection_area(polys[n].vertices, polys[n + 1].vertices)
            assert area < 1e-12

    def test_clip_sanity(self):
        # unit square clipped against itself has area 1
        square = [0j, 1 + 0j, 1 + 1j, 0 + 1j]
        assert abs(convex_intersection_area(square, square) - 1.0) < 1e-12
        shifted = [z + 0.5 for z in square]
        assert abs(convex_intersection_area(square, shifted) - 0.5) < 1e-12
        far = [z + 10.0 for z in square]
        assert convex_intersection_area(square, far) == 0.0

    def test_size_cap_is_exact(self, monkeypatch):
        # q_term is replaced by a failure, so no polygon is enumerated
        def refuse(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(spiral, "q_term", refuse)
        cap = spiral._MAX_SIDES
        with pytest.raises(AssertionError, match="enumerated"):
            spiral.polygon_from_vertex(power_law(1.0), cap, 0j)
        with pytest.raises(ValueError, match=str(cap + 1)):
            spiral.polygon_from_vertex(power_law(1.0), cap + 1, 0j)

    def test_ring_is_the_complex_exp_bits(self):
        # the corners are one array, but each keeps the bits of the scalar
        # c + (v - c) * cmath.exp(2j * math.pi * k / n)
        f = power_law(1.0)
        for n in (*range(3, 301), 2000, 10**4):
            v = complex(0.25 * n, -1.0 / n)
            pg = spiral.polygon_from_vertex(f, n, v)
            c = pg.center
            want = tuple(c + (v - c) * cmath.exp(2j * math.pi * k / n) for k in range(n))
            assert repr(pg.vertices) == repr(want), n

    def test_vertex_must_be_one_finite_complex_number(self, monkeypatch):
        f = power_law(1.0)
        ref = spiral.polygon_from_vertex(f, 5, 1 + 0j)
        for v in (1, 1.0, np.float32(1.0), np.int64(1), np.complex128(1.0), Fraction(1)):
            assert spiral.polygon_from_vertex(f, 5, v) == ref

        def refuse(*args):
            raise AssertionError("enumerated")

        # refused before Q(n) is read
        monkeypatch.setattr(spiral, "q_term", refuse)
        for v in ("x", "1+2j", b"1", None, [1j], np.array([1j]), np.array(1j), math.nan,
                  -math.inf, complex(1.0, math.inf), 10**400):
            with pytest.raises(ValueError, match="v must be one finite complex number"):
                spiral.polygon_from_vertex(f, 5, v)

    def test_polygon_area_shoelace(self):
        square = [0j, 2 + 0j, 2 + 2j, 0 + 2j]
        assert abs(polygon_area(square) - 4.0) < 1e-14


# The interpolant families of the benchmark's pool.
INTERP_SPECS = ("power:0.5", "power:1", "power:2", "power:0", "inscribed:0", "inscribed:1",
                "circumscribed:0", "circumscribed:1", "area:0", "area:1", "telescoping")


class TestInterpolatedVertex:
    @pytest.mark.parametrize("m", range(3, 13))
    def test_integer_agreement(self, m):
        f = power_law(1.0)
        res = interpolated_vertex(f, float(m), TIGHT)
        assert res.converged
        assert abs(res.value - vertex(f, m)) < 1e-8

    def test_half_integer_against_frozen_oracle(self):
        # 60-dps mpmath Euler-transform oracle, cross-checked against a
        # 1e6-term direct truncated sum (agreement 7.1e-7, the truncation
        # scale of that oracle)
        res = interpolated_vertex(power_law(1.0), 3.5, TIGHT)
        assert res.converged
        ref = complex(0.281418845230838675, 0.355360278311632913)
        assert abs(res.value - ref) < 1e-9

    def test_direct_truncated_sum_oracle(self):
        # independent numpy evaluation of the same series, truncated
        n = 3.5
        s = 1.0
        kmax = 200_000
        k = np.arange(3, kmax, dtype=np.float64)
        hfull = np.cumsum(1.0 / np.arange(1, kmax, dtype=np.float64))
        hk = hfull[2 : kmax - 1]
        x = k - 2.0 + n
        h0 = EULER_GAMMA + sp.digamma(n + 2.0)
        hx = h0 + np.concatenate(([0.0], np.cumsum(1.0 / x[1:])))
        a = k ** (-s) * np.exp(1j * np.pi * k) * np.exp(2j * np.pi * (1.0 / k - 2.0 * hk))
        b = x ** (-s) * np.exp(1j * np.pi * x) * np.exp(2j * np.pi * (1.0 / x - 2.0 * hx))
        oracle = complex((a - b).sum())
        res = interpolated_vertex(power_law(1.0), n, TIGHT)
        # the oracle's own truncation error dominates this comparison
        assert abs(res.value - oracle) < 2e-5

    def test_even_integer_s_zero(self):
        f = power_law(0.0)
        res = interpolated_vertex(f, 40.0, TIGHT)
        assert res.converged
        assert abs(res.value - vertex(f, 40)) < 1e-6

    def test_refuses_divergent_lengths(self):
        with pytest.raises(ValueError):
            interpolated_vertex(power_law(-1.0), 3.5, TIGHT)

    def test_inscribed_interpolates(self):
        res = interpolated_vertex(inscribed(0.5), 5.5, TIGHT)
        assert res.converged
        assert math.isfinite(abs(res.value))

    def test_domain(self):
        with pytest.raises(ValueError):
            interpolated_vertex(power_law(1.0), 1.0, TIGHT)

    @pytest.mark.parametrize(
        "name, stub",
        [
            ("_limit_series", lambda *args: SummationResult(0j, 1.0, False, 4)),
            ("_tail", _tails_miss),
        ],
    )
    def test_converged_only_when_both_sums_are(self, monkeypatch, name, stub):
        # G_f alone, then E(n+1) alone misses: flagged, estimate carried
        monkeypatch.setattr(spiral, name, stub)
        res = interpolated_vertex(power_law(1.0), 3.5, TIGHT)
        assert not res.converged
        assert res.error_estimate >= 1.0

    def test_refused_before_any_sum(self, monkeypatch):
        # n first, then the family, and neither G_f nor a tail is summed
        def no_sum(*args):
            raise AssertionError("a sum was started")

        monkeypatch.setattr(spiral, "_limit_series", no_sum)
        monkeypatch.setattr(spiral, "_tail", no_sum)
        for spec in ("power:1", "power:-1"):
            for n in (1.0000000000000002, math.inf, math.nan):
                with pytest.raises(ValueError, match=re.escape(f"got n = {n!r}")):
                    interpolated_vertex(parse_length(spec), n, TIGHT)
        with pytest.raises(ValueError, match="diverges"):
            interpolated_vertex(power_law(-1.0), 3.5, TIGHT)

    @pytest.mark.parametrize("spec", ["power:1", "circumscribed:1", "area:0", "telescoping"])
    def test_one_ulp_above_one_is_refused_by_every_family(self, spec):
        # 1.0000000000000002 + 1 rounds to 2, where the tail would start
        f = parse_length(spec)
        for n in (1.0000000000000002, math.inf, math.nan):
            with pytest.raises(ValueError, match="got n = "):
                interpolated_vertex(f, n, TIGHT)
        assert cmath.isfinite(interpolated_vertex(f, 1.0000000000000004, TIGHT).value)

    @pytest.mark.parametrize("spec", INTERP_SPECS)
    def test_against_mpmath(self, spec):
        pytest.importorskip("mpmath")
        f = parse_length(spec)
        for n in (1.05, 3.5, 47.5, 48.5, 140.0, 300.0):
            ref = mp_interpolant(spec, n)
            for settings in (TIGHT, AccelerationSettings(1e-8)):
                res = interpolated_vertex(f, n, settings)
                assert res.converged, (spec, n)
                # the benchmark's gate: twice the estimate plus rounding
                assert abs(res.value - ref) <= 2.0 * res.error_estimate + 1e-13, (spec, n)


    @pytest.mark.parametrize("spec", ["power:0", "telescoping", "inscribed:-1"])
    def test_large_real_n_against_mpmath(self, spec):
        # e^{i pi n} reduced in turns: rounding pi n first was 1.3e-4 off
        # for power:0 at 10^12 + 0.5, under a 2.5e-13 estimate
        pytest.importorskip("mpmath")
        f = parse_length(spec)
        for n in (1e4 + 0.5, 1e8 + 0.5, 1e12 + 0.5):
            res = interpolated_vertex(f, n, AccelerationSettings(1e-12))
            assert res.converged, n
            assert abs(res.value - mp_interpolant(spec, n)) <= 2.0 * res.error_estimate + 1e-13, n

    def test_far_n_is_the_limit(self):
        # V(n) -> G_f, and at n = 1e300 the tail E(n + 1) is ~1e-300
        far = interpolated_vertex(power_law(1.0), 1e300)
        assert far.value == limit_point(1.0).value


class TestLimitCache:
    """continuation() sums G_f once per (family, settings) in a process and
    reads it from a cache of 64 after; the convergence module's limits,
    which return G_f itself, sum it on every call."""

    @pytest.fixture
    def sums(self, monkeypatch):
        calls = []
        limit_series = spiral._limit_series

        def counting(*args):
            calls.append(args)
            return limit_series(*args)

        monkeypatch.setattr(spiral, "_limit_series", counting)
        return calls

    def test_one_sum_per_family_and_settings(self, sums):
        f = power_law(1.0)
        interpolated_vertex(f, 3.5, TIGHT)
        assert sums == [(f, TIGHT)]
        # equal families and settings are one key, whichever object asks
        interpolated_vertex(f, 7.25, TIGHT)
        interpolated_vertex(power_law(1.0), 100.5, AccelerationSettings(1e-12, max_terms=600))
        assert len(sums) == 1
        keys = [(power_law(2.0), TIGHT), (f, AccelerationSettings(1e-8)),
                (f, AccelerationSettings(1e-12, max_terms=601))]
        for g, settings in keys:  # a new family, a new tolerance, a new budget
            interpolated_vertex(g, 3.5, settings)
            interpolated_vertex(g, 4.5, settings)
        assert sums == [(f, TIGHT), *keys]

    def test_jumps_read_the_interpolants_g_f(self, sums):
        # vertex_at's jumps sum their tails at _TAIL_SETTINGS, and so do
        # these interpolants: one G_f for all of them, across the calls
        f = power_law(0.5)
        interpolated_vertex(f, 2049.0, spiral._TAIL_SETTINGS)
        vertex_at(f, [10**5, 10**6])
        vertex_at(f, [515, 10**5])
        assert sums == [(f, spiral._TAIL_SETTINGS)]

    @pytest.mark.parametrize("spec", VANISHING + CONSTANT)
    def test_warm_reads_are_the_cold_bits(self, spec):
        # each cold read sums its own G_f; the warm reads, in the other
        # order, read G_f from the first read at their settings
        f, points = parse_length(spec), (1.5, 3.25, 47.5, 100.5, 2048.5)
        tolerances = (1e-8, 1e-10, 1e-13)
        cold = {}
        for tol in tolerances:
            for n in points:
                spiral._cached_limit_series.cache_clear()
                cold[tol, n] = repr(interpolated_vertex(f, n, AccelerationSettings(tol)))
        spiral._cached_limit_series.cache_clear()
        for tol in reversed(tolerances):
            for n in reversed(points):
                assert repr(interpolated_vertex(f, n, AccelerationSettings(tol))) == cold[tol, n], (tol, n)

    @pytest.mark.parametrize("family", [power_law, inscribed, circumscribed, area_normalized])
    def test_signed_zero_exponents_share_an_entry(self, family):
        # s = 0.0 and s = -0.0 are equal keys, so either reads the other's
        # G_f: the bits of its own fresh sum, since both skip the pow
        settings = AccelerationSettings(1e-13)
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            spiral._cached_limit_series.cache_clear()
            fresh = repr(interpolated_vertex(family(second), 3.5, settings))
            spiral._cached_limit_series.cache_clear()
            interpolated_vertex(family(first), 4.5, settings)
            assert repr(interpolated_vertex(family(second), 3.5, settings)) == fresh, first
            assert spiral._cached_limit_series.cache_info().currsize == 1

    def test_refusals_store_nothing(self, monkeypatch):
        cache = spiral._cached_limit_series
        for spec in ("power:-1", "inscribed:-2"):
            with pytest.raises(ValueError, match="diverges"):
                interpolated_vertex(parse_length(spec), 3.5, TIGHT)

        def raising(*args):
            raise ValueError("the sum raised")

        monkeypatch.setattr(spiral, "_limit_series", raising)
        with pytest.raises(ValueError, match="raised"):
            interpolated_vertex(power_law(1.0), 3.5, TIGHT)
        assert cache.cache_info().currsize == 0
        monkeypatch.undo()
        assert interpolated_vertex(power_law(1.0), 3.5, TIGHT).converged
        assert cache.cache_info().currsize == 1

    def test_cache_is_bounded(self):
        cache = spiral._cached_limit_series
        assert cache.cache_info().maxsize == 64
        for k in range(65):
            interpolated_vertex(power_law(1.0 + k / 64), 3.5)
        assert cache.cache_info().currsize == 64

    def test_limits_sum_on_every_call(self, monkeypatch):
        # G_f is the tail E(3), however a limit reaches it; each limit is
        # read twice, at the family and settings of a cached interpolant
        # (TIGHT is already at orbit_center's tolerance)
        summed, tail = [], spiral._tail

        def counting(f, x, settings):
            if x == 3:
                summed.append(f)
            return tail(f, x, settings)

        monkeypatch.setattr(spiral, "_tail", counting)
        limits = [
            (power_law(0.5), lambda: limit_point(0.5, TIGHT)),
            (power_law(2.0), lambda: classify(power_law(2.0), TIGHT)),
            (telescoping(), lambda: classify(telescoping(), TIGHT)),
            (power_law(0.0), lambda: orbit_center(TIGHT)),
        ]
        for f, limit in limits:
            interpolated_vertex(f, 3.5, TIGHT)
            before = len(summed)
            assert limit() == limit()
            assert summed[before:] == [f, f]


def _batch_n() -> list[float]:
    """n for the batched continuation: the CVZ-Euler switch (x = n + 1 = 48),
    integers (the sign exactly +-1), far points, two n whose H_n from
    harmonic_array(x, np.log) is an ulp off harmonic_continued's (so the
    tails must not be seeded with np.log), and seeded draws, 400 uniform
    in (1.05, 300] and 100 log-uniform up to 10^6."""
    rng = random.Random(20001)
    return [1.05, 1.5, 2.0, 2.5, 3.0, 3.5, 10.0, 46.5, 47.0, 47.5, 48.0, 100.0, 1e4, 1e4 + 0.5,
            1e8 + 0.5, 14.772940852857289, 42.7468991877322,
            *(rng.uniform(1.05, 300.0) for _ in range(400)),
            *(math.exp(rng.uniform(0.05, math.log(1e6))) for _ in range(100))]


def _rows(res: SummationResult) -> list[SummationResult]:
    """A SummationResult of arrays as one SummationResult per entry."""
    fields = (res.value, res.error_estimate, res.converged, res.terms_used)
    return [SummationResult(*row) for row in zip(*(a.ravel().tolist() for a in fields))]


class TestBatchedContinuation:
    """An array of n is summed column-wise, by _tails; every field of every
    entry is the bits of the scalar continuation at that n."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-13])
    @pytest.mark.parametrize("spec", INTERP_SPECS)
    def test_batch_is_the_scalar_bits(self, spec, tol):
        v = spiral.continuation(parse_length(spec), AccelerationSettings(tol))
        ns = _batch_n()
        for n, row in zip(ns, _rows(v(ns))):
            assert repr(row) == repr(v(n)), (spec, tol, n)

    @pytest.mark.parametrize("spec", ["power:1", "power:0", "inscribed:0", "telescoping"])
    def test_starved_columns_end_not_converged(self, spec):
        v = spiral.continuation(parse_length(spec), AccelerationSettings(1e-13, 4))
        ns = _batch_n()
        rows = _rows(v(np.array(ns)))
        assert not any(row.converged for row in rows)
        for n, row in zip(ns, rows):
            assert repr(row) == repr(v(n)), (spec, n)

    @pytest.mark.parametrize("tol, max_terms", [(1e-13, 4000), (1e-13, 29), (1e-10, 5)])
    @pytest.mark.parametrize("spec", ["inscribed:-1", "circumscribed:-1", "area:-2"])
    def test_stalled_and_capped_columns_are_the_scalar_bits(self, spec, tol, max_terms):
        # these families stall at the floor tolerance, and the small budgets cap
        # both accelerators, so each column's stall and cap are compared too
        v = spiral.continuation(parse_length(spec), AccelerationSettings(tol, max_terms))
        ns = _batch_n()
        rows = _rows(v(np.array(ns)))
        assert not all(row.converged for row in rows)
        for n, row in zip(ns, rows):
            assert repr(row) == repr(v(n)), (spec, n)

    def test_a_batch_one_column_longer_than_a_chunk(self, monkeypatch):
        # each chunk builds two term streams, its CVZ columns' and its Euler columns'
        widths = []

        class Counting(_arrays._TailTerms):
            def __init__(self, f, x):
                widths.append(len(x))
                super().__init__(f, x)

        monkeypatch.setattr(_arrays, "_TailTerms", Counting)
        v = spiral.continuation(power_law(1.0), AccelerationSettings(1e-10))
        ns = np.linspace(1.05, 140.0, _arrays._COLUMNS + 1)
        res = v(ns.reshape(1, -1))
        assert [sum(widths[i : i + 2]) for i in range(0, len(widths), 2)] == [_arrays._COLUMNS, 1]
        assert res.value.shape == res.converged.shape == (1, _arrays._COLUMNS + 1)
        for n, row in zip(ns.tolist(), _rows(res)):
            assert repr(row) == repr(v(n)), n

    def test_domain(self):
        v = spiral.continuation(power_law(1.0), AccelerationSettings(1e-10))
        for n in (1.0, 1.0000000000000002, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite n > 1"):
                v([3.5, n])
        # one number takes the same check: no "converged" value below n = 1
        # and no message naming another function's x
        for spec in ("power:1", "circumscribed:1"):
            v = spiral.continuation(parse_length(spec), AccelerationSettings(1e-10))
            for n in (1.0, 1.0 + 2.0**-52, 0.5, -0.5, math.inf, math.nan):
                with pytest.raises(ValueError, match="continuation requires finite n > 1"):
                    v(n)


class TestPhaseHelpers:
    def test_harmonic_phases_stream(self):
        for k, hk, phase in harmonic_phases():
            if k > 5_000:
                break
            assert hk == harmonic_number(k), k
            assert phase == unit_phase(float(k), hk), k

    def test_deep_start_is_seeded_in_o1(self):
        deep = harmonic_phases(5001)
        for (k, hk, phase), (k_ref, hk_ref, phase_ref) in zip(
            itertools.islice(deep, 50),
            itertools.islice(harmonic_phases(), 5001 - 3, 5051 - 3),
        ):
            assert k == k_ref
            assert abs(hk - hk_ref) < 1e-14
            assert abs(phase - phase_ref) < 1e-13

    def test_phases_take_the_oracle_steps(self):
        # spiral._phases steps H_x inline: its phases, and its terms given a
        # length formula, are the oracle's steps reduced as _phases reduces
        # them, bit for bit, at int starts (3, deep) and real ones
        lf = parse_length("circumscribed:1").as_callable()
        for start in (3, 5001, 10**6 + 1, 2.4030927323372047, 47.5):
            steps = list(itertools.islice(_harmonic_steps(start), 60))
            phases = [phase_of_turns((inv - (2.0 * s) % 1.0) - 2.0 * c) for _, inv, s, c in steps]
            assert list(itertools.islice(spiral._phases(start), 60)) == phases, start
            terms = [lf(float(k)) * u for (k, *_), u in zip(steps, phases)]
            assert list(itertools.islice(spiral._phases(start, lf), 60)) == terms, start

    def test_real_start_computes_each_x_from_start(self):
        # x = start + j, not a running sum: from this start a running sum
        # is one ulp off start + 14 at j = 14
        start = 2.4030927323372047
        xs = [x for x, _, _ in itertools.islice(harmonic_phases(start), 40)]
        assert xs == [start + j for j in range(40)]

    def test_phase_of_turns_reduces_exactly(self):
        for t in (0.25, -12345.75, 1e8 + 0.125):
            z = phase_of_turns(t)
            frac = t - round(t)
            ref = cmath.exp(2j * math.pi * frac)
            assert abs(z - ref) < 1e-15
            assert abs(abs(z) - 1.0) < 1e-15
