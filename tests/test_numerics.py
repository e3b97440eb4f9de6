import math
import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
import scipy.special as sp

from ngonspiral import spiral
from ngonspiral._arrays import harmonic_array
from ngonspiral.lengthfns import parse_length
from ngonspiral.numerics import (
    EULER_GAMMA,
    AccelerationSettings,
    digamma,
    euler_transform_sum,
    harmonic_continued,
    richardson,
    two_sum,
)
from oracles import euler_transform_rows, harmonic_number

TIGHT = AccelerationSettings(target_tolerance=1e-12, max_terms=200)


class TestHarmonicNumber:
    def test_first_values(self):
        assert harmonic_number(1) == 1.0
        assert abs(harmonic_number(3) - 11.0 / 6.0) < 1e-15

    def test_large_value_against_asymptotic_expansion(self):
        # oracle: H_n = gamma + ln n + 1/(2n) - 1/(12 n^2) + O(n^-4)
        n = 10**6
        oracle = EULER_GAMMA + math.log(n) + 1.0 / (2 * n) - 1.0 / (12 * n**2)
        assert abs(harmonic_number(n) - oracle) < 1e-13

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            harmonic_number(0)

    def test_table_consistent_with_fresh_sum(self):
        # the memoized path must behave as if recomputed
        total = 0.0
        for k in range(1, 501):
            total += 1.0 / k
        assert abs(harmonic_number(500) - total) < 1e-12


class TestDigamma:
    def test_psi_of_one_is_minus_gamma(self):
        assert abs(digamma(1.0) + EULER_GAMMA) < 1e-14

    def test_psi_of_two(self):
        assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-14

    def test_psi_of_half(self):
        # high-precision value of -gamma - 2 ln 2
        assert abs(digamma(0.5) - (-1.9635100260214235)) < 1e-14
        assert abs(digamma(0.5) - (-EULER_GAMMA - 2.0 * math.log(2.0))) < 1e-14

    def test_recurrence_residual_bulk(self):
        rng = random.Random(12345)
        worst = 0.0
        for _ in range(1000):
            x = rng.uniform(1e-3, 100.0)
            worst = max(worst, abs(digamma(x + 1.0) - digamma(x) - 1.0 / x))
        assert worst < 1e-12

    def test_against_scipy(self):
        xs = [0.1, 0.37, 1.0, 2.5, 7.3, 11.99, 12.01, 55.5, 4000.0]
        for x, y in zip(xs, harmonic_array(np.array(xs) - 1.0).tolist()):
            assert abs(digamma(x) - sp.digamma(x)) < 1e-13
            # the array path: the scalar values below 12, the same series above
            ref = harmonic_continued(x - 1.0)
            assert abs(y - ref) <= 2.0 * math.ulp(ref), x

    def test_domain(self):
        for bad in (0.0, -2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite x > 0"):
                digamma(bad)
        # a numpy scalar is read as a float, not in single precision
        assert repr(digamma(np.float32(2.5))) == repr(digamma(2.5))
        assert repr(digamma(np.int64(10**12))) == repr(digamma(1e12))


class TestHarmonicContinued:
    def test_integer_agreement(self):
        # against the exact rational H_k, 1 <= k <= 3000, scalar and array
        # (measured 2.6e-15 for both)
        exact = Fraction(0)
        worst = 0.0
        dense = harmonic_array(np.arange(1.0, 3001.0)).tolist()
        for k in range(1, 3001):
            exact += Fraction(1, k)
            worst = max(worst, abs(Fraction(harmonic_continued(float(k))) - exact))
            worst = max(worst, abs(Fraction(dense[k - 1]) - exact))
        assert worst < 5e-15
        # the seed of every harmonic_phases stream from 3
        assert harmonic_continued(2.0) == 1.5

    def test_small_values(self):
        assert abs(harmonic_continued(1.0) - 1.0) < 1e-14
        assert abs(harmonic_continued(3.0) - 11.0 / 6.0) < 1e-14

    def test_array_of_any_shape(self):
        # 0-D and 2-D arrays, entry for entry the 1-D result; below 11 each
        # entry is harmonic_continued's bits (the scalar digamma), above it
        # np.log may be an ulp off math.log, so H_x too
        for x in (5.0, 0.5, 10.75, 11.0, 40.0, 2999.0):
            got = harmonic_array(np.array(x))
            assert got.shape == ()
            ref = harmonic_continued(x)
            if x < 11.0:
                assert float(got) == ref, x
            assert abs(float(got) - ref) <= math.ulp(ref), x
        assert harmonic_array(np.full((2, 3), 5.0)).tolist() == [[harmonic_continued(5.0)] * 3] * 2
        grid = np.linspace(-0.5, 40.0, 24).reshape(4, 6)
        got = harmonic_array(grid)
        assert got.shape == (4, 6)
        assert got.ravel().tolist() == harmonic_array(grid.ravel()).tolist()
        for x, h in zip(grid.ravel().tolist(), got.ravel().tolist()):
            if x < 11.0:
                assert h == harmonic_continued(x), x

    def test_golden_ratio_dual_path(self):
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        mine = harmonic_continued(phi)
        independent = EULER_GAMMA + sp.digamma(phi + 1.0)
        assert math.isfinite(mine)
        assert abs(mine - independent) < 1e-12

    def test_domain(self):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite x > -1"):
                harmonic_continued(bad)


class TestTwoSum:
    def test_error_is_exact(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        finite = st.floats(-1e300, 1e300)  # a + b stays finite

        def exact(s, e, a, b):
            assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(finite, finite, finite, finite)
        def scalars(a, b, c, d):
            exact(*two_sum(a, b), a, b)
            # complex parts round separately, so each part is exact
            s, e = two_sum(complex(a, b), complex(c, d))
            exact(s.real, e.real, a, c)
            exact(s.imag, e.imag, b, d)

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.lists(st.tuples(finite, finite), min_size=1, max_size=32))
        def arrays(pairs):
            a, b = np.array(pairs).T
            for args in zip(*two_sum(a, b), a.tolist(), b.tolist()):
                exact(*map(float, args))

        scalars()
        arrays()


class TestEulerTransform:
    def test_alternating_harmonic_reaches_ln2(self):
        def terms():
            k = 1
            while True:
                yield 1.0 / k
                k += 1

        res = euler_transform_sum(terms(), TIGHT)
        assert res.converged
        assert res.terms_used <= 60
        assert abs(res.value - math.log(2.0)) < 1e-12

    def test_leibniz_series_reaches_pi_over_4(self):
        def terms():
            k = 0
            while True:
                yield 1.0 / (2 * k + 1)
                k += 1

        res = euler_transform_sum(terms(), TIGHT)
        assert res.converged
        assert abs(res.value - math.pi / 4.0) < 1e-12

    def test_constant_complex_phase_scales_linearly(self):
        phase = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))

        def terms():
            k = 1
            while True:
                yield phase / k
                k += 1

        res = euler_transform_sum(terms(), TIGHT)
        assert abs(res.value - phase * math.log(2.0)) < 1e-12

    def test_budget_exhaustion_is_flagged_not_raised(self):
        res = euler_transform_sum(
            (1.0 / k for k in range(1, 10**6)),
            AccelerationSettings(target_tolerance=1e-12, max_terms=6),
        )
        assert not res.converged
        assert res.terms_used == 6
        # best estimate still in the right neighborhood
        assert abs(res.value - math.log(2.0)) < 1e-2

    @pytest.mark.parametrize("bad", [math.inf, math.nan, complex(1.0, math.nan)])
    def test_a_non_finite_term_stops_the_sum(self, bad):
        # the best estimate and the count of the terms before it, not
        # converged: the sum of those three terms alone
        settings = AccelerationSettings(target_tolerance=1e-12)
        got = euler_transform_sum(iter([1.0, 0.5, 0.25, bad, 0.125]), settings)
        assert not got.converged and got.terms_used == 3
        assert got == euler_transform_sum(iter([1.0, 0.5, 0.25]), settings)

    def test_value_within_reported_error_of_true_limit(self):
        res = euler_transform_sum((1.0 / (k * k) for k in range(1, 10**4)), TIGHT)
        assert res.converged
        # sum (-1)^(k-1)/k^2 = pi^2/12, here offset by the sign convention
        assert abs(res.value - math.pi**2 / 12.0) <= max(res.error_estimate, 1e-12)

    def test_row_in_place_is_the_row_rebuilt(self):
        # the difference row updated in place against a new row per term:
        # the same result, bit for bit, overflowing terms included
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        parts = st.floats(-1e300, 1e300) | st.floats(-2.0, 2.0)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.lists(st.builds(complex, parts, parts), max_size=40),
                          st.floats(1e-13, 1.0), st.integers(4, 48))
        def check(terms, tol, max_terms):
            settings = AccelerationSettings(tol, max_terms)
            got = euler_transform_sum(iter(terms), settings)
            assert repr(got) == repr(euler_transform_rows(iter(terms), settings))

        check()

    @pytest.mark.parametrize("x", [48.5, 2049, 10**6 + 0.25])
    def test_row_in_place_keeps_the_tail_bits(self, x):
        for spec in ("power:1", "power:0.5", "telescoping", "inscribed:-1"):
            terms = list(islice(spiral._phases(x, parse_length(spec).as_callable()), 64))
            for tol in (1e-8, 1e-13):
                settings = AccelerationSettings(tol, 64)
                assert repr(euler_transform_sum(terms, settings)) == repr(euler_transform_rows(terms, settings))


class TestRichardson:
    def test_eliminates_linear_error(self):
        limit = 3.5
        values = [limit + 2.0 * h + 5.0 * h * h for h in (1e-2, 1e-3, 1e-4)]
        assert abs(richardson(values) - limit) < 1e-12

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            richardson([1.0])


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            AccelerationSettings(target_tolerance=0.0)
        with pytest.raises(ValueError):
            AccelerationSettings(max_terms=3)
        # max_terms is read as an index, refused by name before any sum
        for bad in (4.5, 2**63, 10**400, math.inf, math.nan, "50"):
            with pytest.raises(ValueError, match="max_terms"):
                AccelerationSettings(1e-8, bad)
        for integral in (1e6, np.int64(10**6)):
            settings = AccelerationSettings(1e-8, integral)
            assert type(settings.max_terms) is int and settings.max_terms == 10**6
            assert euler_transform_sum(iter([1.0, 0.5, 0.25, 0.125, 0.0625]), settings).terms_used == 5
        for tol in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite and positive"):
                AccelerationSettings(target_tolerance=tol)
        # below double rounding the transform would report false convergence
        with pytest.raises(ValueError, match="at least 1e-13"):
            AccelerationSettings(target_tolerance=1e-14)
