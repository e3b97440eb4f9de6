import math
import random
from dataclasses import replace
from itertools import islice, permutations

import numpy as np
import pytest
import scipy.special as sp

from ngonspiral import convergence
from ngonspiral.convergence import (
    CircularOrbit,
    Divergent,
    Point,
    classify,
    convergence_curve,
    limit_point,
    orbit_center,
    orbit_distance_law,
)
from ngonspiral.lengthfns import (
    area_normalized,
    circumscribed,
    inscribed,
    parse_length,
    power_law,
    telescoping,
)
from ngonspiral import numerics, spiral
from ngonspiral.numerics import AccelerationSettings
from ngonspiral.spiral import vertex, vertex_at
from oracles import (
    bound_A,
    bound_B,
    harmonic_number,
    harmonic_phases,
    mp_limit,
    mp_tail,
    mp_w,
    paired_term,
    paired_terms,
)

TIGHT = AccelerationSettings(target_tolerance=1e-13, max_terms=600)

# lim_{s->0+} W(s), frozen from a 60-dps high-precision oracle
ORBIT_CENTER = complex(1.2171196025655378, 2.6854140487169539)

# frozen W(s) oracles (60-dps mpmath Euler transform)
W_ORACLES = {
    0.5: complex(0.69660908028459688, 1.33868768526423886),
    1.0: complex(0.38894042654108993, 0.67483324324033311),
    2.0: complex(0.11668717379282218, 0.17822380002697094),
    1e-8: complex(1.2171195893976649, 2.6854140110631872),
}


class TestLimitPoint:
    @pytest.mark.parametrize("s", sorted(W_ORACLES))
    def test_against_frozen_oracles(self, s):
        res = limit_point(s, TIGHT)
        assert res.converged
        assert abs(res.value - W_ORACLES[s]) < 1e-11

    def test_w_ten_tail_bound(self):
        # |W(10)| <= sum_{k>=3} k^-10 = zeta(10) - 1 - 2^-10 ~ 1.8e-5
        res = limit_point(10.0, TIGHT)
        assert res.converged
        assert abs(res.value) < 3.2e-5
        tail = sp.zeta(10.0, 3.0)
        assert abs(res.value) <= tail

    def test_against_direct_summation_oracle(self):
        # independent route: raw partial sum V(power:1, 1e7) via numpy
        n = 10**7
        k = np.arange(1, n + 1, dtype=np.float64)
        hs = np.cumsum(1.0 / k)
        ang = 2.0 * np.pi * (1.0 / k - 2.0 * hs)
        sign = np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0)
        terms = sign * np.exp(1j * ang) / k
        terms[:2] = 0.0
        oracle = complex(terms.sum())
        res = limit_point(1.0, TIGHT)
        assert abs(res.value - oracle) < 1e-5

    def test_paired_strategy_flags_tight_tolerance(self):
        # four tail terms cannot reach 1e-12
        settings = AccelerationSettings(target_tolerance=1e-12, max_terms=4)
        res = limit_point(0.5, settings)
        assert not res.converged

    def test_domain(self):
        with pytest.raises(ValueError):
            limit_point(0.0, TIGHT)


def _cvz_sum(a):
    """sum_{j>=0} (-1)^j a[j] by Cohen-Villegas-Zagier (Algorithm 1 of
    "Convergence acceleration of alternating series", Exp. Math. 9, 2000),
    using all len(a) terms."""
    n = len(a)
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b, c, total = -1.0, -d, 0j
    for k in range(n):
        c = b - c
        total += c * a[k]
        b = b * (k + n) * (k - n) / ((k + 0.5) * (k + 1))
    return total / d


def _cvz_limit(f):
    """sum_{k>=3} (-1)^k l(k) e^{2 pi i (1/k - 2 H_k)}: direct head k < 48
    (even, so the tail enters with sign +1), then a 24-term CVZ tail.  For
    exponent-0 families CVZ, like the Euler transform, is a regular method,
    so it gives the same regularised sum.  The library sums the whole series
    by CVZ weights too, from k = 3, so the tests below also compare it with
    the 40-digit sums of the oracles module, an independent route."""
    lf = f.as_callable()
    g = [fk * lf(float(k)) for k, _, fk in islice(harmonic_phases(), 45 + 24)]
    head = sum(-x if k % 2 else x for k, x in zip(range(3, 48), g))
    return head + _cvz_sum(g[45:])


class TestSecondEstimator:
    def test_euler_agrees_with_cvz(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # Worst gap over 20,000 log-uniform draws was 2.5e-14 (near
        # s = 1e-3); the bound leaves a margin of four.
        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.floats(math.log(1e-3), math.log(30.0)))
        def check(log_s):
            s = math.exp(log_s)
            res = limit_point(s, TIGHT)
            assert res.converged
            assert abs(res.value - _cvz_limit(power_law(s))) < 1e-13

        check()

    # The bound catches a center split into c * orbit_center plus a residual
    # summed at the CLI tolerance 1e-8: that is 2.1e-10 to 8.5e-10 off for
    # the non-power families, while the one sum is within 1.4e-13.
    @pytest.mark.parametrize(
        "spec", ["power:0", "inscribed:-1", "circumscribed:-1", "area:-2", "telescoping"]
    )
    def test_orbit_centers_agree_with_cvz(self, spec):
        f = parse_length(spec)
        out = classify(f, AccelerationSettings(1e-8))
        assert isinstance(out, CircularOrbit) and out.converged
        assert abs(out.center - _cvz_limit(f)) < 1e-12

    @pytest.mark.parametrize("spec", ["inscribed:0", "circumscribed:1", "area:0", "power:2"])
    def test_points_agree_with_cvz(self, spec):
        f = parse_length(spec)
        out = classify(f, TIGHT)
        assert isinstance(out, Point) and out.converged
        assert abs(out.value - _cvz_limit(f)) < 1e-12

    def test_w_against_mpmath(self):
        pytest.importorskip("mpmath")
        for s in np.geomspace(1e-3, 30.0, 12).tolist():
            res = limit_point(s, TIGHT)
            assert res.converged, s
            assert abs(res.value - mp_w(s)) <= res.error_estimate, s

    @pytest.mark.parametrize(
        "spec", ["power:0", "inscribed:-1", "circumscribed:-1", "area:-2", "telescoping"]
    )
    def test_orbit_centers_against_mpmath(self, spec):
        pytest.importorskip("mpmath")
        out = classify(parse_length(spec), AccelerationSettings(1e-8))
        assert isinstance(out, CircularOrbit) and out.converged
        assert abs(out.center - mp_limit(spec)) < 1e-12

    @pytest.mark.parametrize("spec", ["inscribed:0", "circumscribed:1", "area:0", "power:2"])
    def test_points_against_mpmath(self, spec):
        pytest.importorskip("mpmath")
        out = classify(parse_length(spec), TIGHT)
        assert isinstance(out, Point) and out.converged
        assert abs(out.value - mp_limit(spec)) <= out.error_estimate


# The catalog families of the deep-vertex tests: seven vanishing, five tending
# to a constant; the six of the benchmark's deep-vertices workload; the real x
# at which tails are checked, from near the poles of tan(pi/x) at x = 2 to the
# last x that CVZ sums, and from the first x that Euler sums to a deep jump.
FAMILIES = ("power:1", "power:0.5", "power:2", "power:1e-3", "inscribed:0", "circumscribed:1",
            "area:0", "power:0", "inscribed:-1", "circumscribed:-1", "area:-2", "telescoping")
DEEP_FAMILIES = ("power:1", "power:0", "inscribed:0", "telescoping", "circumscribed:1", "area:0")
TAIL_X = (2.05, 2.5, 3.5, 10.5, 20.5, 47.5)
EULER_X = (48.5, 50.25, 60.5, 75.5, 100.5, 150.5, 300.5, 1000.5, 2049, 10000.5)
TOLERANCES = (1e-8, 1e-10, 1e-12, 1e-13)


class TestHonestEstimates:
    """No converged sum lies further from its 40-digit value than its error
    estimate, down to the tolerance floor 1e-13."""

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_limits(self, spec):
        pytest.importorskip("mpmath")
        f, ref = parse_length(spec), mp_limit(spec)
        for tol in TOLERANCES:
            res = spiral._limit_series(f, AccelerationSettings(tol))
            assert res.converged, tol
            assert abs(res.value - ref) <= res.error_estimate, tol
        # the three families whose terms tend to 2 pi or more (the floor
        # families) are within the floor too
        assert abs(res.value - ref) <= 1e-13

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_tails(self, spec):
        # at 1e-13 the tails of the families whose terms tend to 2 pi or more
        # may end not converged: their rounding term passes the tolerance
        pytest.importorskip("mpmath")
        f = parse_length(spec)
        for x in TAIL_X:
            ref = mp_tail(spec, x)
            for tol in TOLERANCES:
                res = spiral._tail(f, x, AccelerationSettings(tol))
                if res.converged:
                    assert abs(res.value - ref) <= res.error_estimate, (x, tol)
                else:
                    assert spec in ("inscribed:-1", "circumscribed:-1", "area:-2") and tol == 1e-13, x

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_euler_tails_within_the_tolerance(self, spec):
        # from x = 48 on, the estimate is the last Euler correction alone: the
        # rounding of the start H_{x-1}, which turns the whole tail, leaves up
        # to 51x that (2.7e-14 off at x = 10000.5, estimate 5.2e-16), always
        # below the tolerance.  No rounding term covers these x without
        # failing a deep tail of the benchmark's families at 1e-13.
        pytest.importorskip("mpmath")
        f = parse_length(spec)
        for x in EULER_X:
            ref = mp_tail(spec, x)
            for tol in TOLERANCES:
                res = spiral._tail(f, x, AccelerationSettings(tol))
                assert res.converged, (x, tol)
                assert abs(res.value - ref) <= tol, (x, tol)

    @pytest.mark.parametrize("spec", DEEP_FAMILIES)
    def test_deep_families_converge_at_the_jump_settings(self, spec):
        # G_f of a deep jump is summed at _TAIL_SETTINGS; were it not
        # converged, every deep index would be summed as a run instead
        assert spiral._limit_series(parse_length(spec), spiral._TAIL_SETTINGS).converged


class TestLimitPhases:
    """Every G_f reads u(3), u(4), ... from one table, spiral._limit_phases(),
    with the bits of the live stream _phases(3)."""

    def test_table_is_the_live_stream(self):
        table = spiral._limit_phases()
        assert len(table) == numerics._CVZ_MAX_ORDER
        assert table == tuple(islice(spiral._phases(3), len(table)))

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_limits_are_the_live_sums(self, spec):
        f = parse_length(spec)
        for tol in (1e-8, 1e-10, 1e-13):
            for max_terms in (4, 29, 256):
                settings = AccelerationSettings(tol, max_terms)
                live = numerics._cvz_transform_sum(spiral._phases(3, f.as_callable()), settings)
                assert spiral._limit_series(f, settings) == replace(live, value=-live.value), (tol, max_terms)

    def test_terms_past_the_table_are_the_live_stream(self):
        f = parse_length("inscribed:-1")
        n = numerics._CVZ_MAX_ORDER + 40
        assert list(islice(spiral._tail_terms(f, 3), n)) == list(islice(spiral._phases(3, f.as_callable()), n))
        # 3.0, as interpolated_vertex(f, 2.0) reads it, takes the table too
        assert list(islice(spiral._tail_terms(f, 3.0), n)) == list(islice(spiral._tail_terms(f, 3), n))

    def test_a_second_limit_steps_no_stream_from_3(self, monkeypatch):
        limit_point(1.0)
        starts = []
        phases = spiral._phases

        def counting(x, lf=None):
            # a term stepped from x; _tail_terms makes the stream past the
            # table at every G_f, but steps it only past the table's end
            for term in phases(x, lf):
                starts.append(x)
                yield term

        monkeypatch.setattr(spiral, "_phases", counting)
        assert limit_point(0.7).converged
        assert classify(power_law(0.0)).converged
        assert starts == []

    def test_a_limit_makes_no_stream_from_3(self, monkeypatch):
        # the stream past the table is made when first stepped, and then
        # holds the live stream's terms
        limit_point(1.0)
        made, phases = [], spiral._phases

        def counting(x, lf=None):
            made.append(x)
            return phases(x, lf)

        monkeypatch.setattr(spiral, "_phases", counting)
        assert limit_point(0.7).converged
        assert classify(power_law(0.0)).converged
        assert made == []
        f = parse_length("inscribed:-1")
        terms = spiral._tail_terms(f, 3)
        n = numerics._CVZ_MAX_ORDER + 40
        assert list(islice(terms, n)) == list(islice(phases(3, f.as_callable()), n))
        assert made == [3]


def _mp_cvz_weights(n: int) -> list:
    """The weights of order n at 50 digits (Algorithm 1 in mpmath)."""
    import mpmath as mp

    with mp.workdps(50):
        d = (3 + mp.sqrt(8)) ** n
        d = (d + 1 / d) / 2
        b, c, out = mp.mpf(-1), -d, []
        for k in range(n):
            c = b - c
            out.append(c / d)
            b = b * (k + n) * (k - n) / ((k + mp.mpf(1) / 2) * (k + 1))
        return out


def test_cvz_weights_are_the_50_digit_weights():
    # every order a small max_terms sets, and every order the sums of the
    # tests above reach (at most 44); the worst measured is 10 ulps of 1, at
    # n = 44 and 48.  The cancellation in c = b - c grows with n (~14 ulps at
    # 59, ~45 at 256), but no sum gets that far: its estimate stops falling.
    pytest.importorskip("mpmath")
    for n in range(4, 49):
        ref = _mp_cvz_weights(n)
        assert all(abs(w - float(r)) <= 12 * 2.0**-52 for w, r in zip(numerics._cvz_weights(n), ref)), n
    assert all(map(math.isfinite, numerics._cvz_weights(numerics._CVZ_MAX_ORDER)))


class TestPairedTerms:
    def test_first_term_is_f4_minus_f3(self):
        from ngonspiral.spiral import unit_phase

        f3 = unit_phase(3.0, harmonic_number(3))
        f4 = unit_phase(4.0, harmonic_number(4))
        t = paired_term(2, 0.0)
        assert t.j == 2
        assert abs(t.value - (f4 - f3)) < 1e-13

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_regrouping_identity(self, s):
        # sum_{j=2..n} F(j) = V(power:s, 2n), checked out to n = 1e4
        checkpoints = {500, 10_000}
        targets = vertex_at(power_law(s), [2 * n for n in checkpoints])
        total = 0j
        for jf in paired_terms(s):
            total += jf.value
            if jf.j in checkpoints:
                assert abs(total - targets[2 * jf.j]) < 1e-10
            if jf.j == max(checkpoints):
                break

    def test_generator_matches_single_evaluations(self):
        gen = paired_terms(0.5)
        for _ in range(20):
            jf = next(gen)
            single = paired_term(jf.j, 0.5)
            assert abs(jf.value - single.value) < 1e-13

    def test_case3_bound_at_large_j(self):
        # |F(j)| <= (4 pi + s) / (2j - 1)^(1+s)
        j, s = 10**4, 0.5
        t = paired_term(j, s)
        assert abs(t.value) <= (4.0 * math.pi + s) / (2 * j - 1) ** (1.0 + s)

    def test_domain(self):
        with pytest.raises(ValueError):
            paired_term(1, 0.5)
        with pytest.raises(ValueError):
            paired_term(5, -0.1)


class TestBounds:
    def test_bound_A_inside_open_interval(self):
        rng = random.Random(42)
        for _ in range(200):
            j = rng.randint(2, 10**6)
            s = rng.uniform(1e-9, 1.0)
            a = bound_A(j, s)
            assert 0.0 < a < s

    def test_bound_B_value_at_two(self):
        assert abs(bound_B(2) - 6.0 * math.sin(7.0 * math.pi / 12.0)) < 1e-14

    def test_bound_B_increasing_below_four_pi(self):
        rng = random.Random(43)
        for _ in range(200):
            j = rng.randint(2, 10**6)
            assert bound_B(j) < bound_B(j + 1) < 4.0 * math.pi

    def test_bound_B_limit(self):
        assert abs(bound_B(10**6) - 4.0 * math.pi) < 1e-4

    def test_absolute_convergence_bound(self):
        # sum |F(j)| stays below (4 pi + s) 2^(-1-s) zeta(1+s, 3/2)
        for s in (0.25, 0.5, 1.0):
            cap = (4.0 * math.pi + s) * 2.0 ** (-1.0 - s) * sp.zeta(1.0 + s, 1.5)
            total = 0.0
            for jf in paired_terms(s):
                total += abs(jf.value)
                assert total < cap
                if jf.j >= 10**4:
                    break


class TestOrbitCenter:
    def test_matches_reference_digits(self):
        res = orbit_center()
        assert res.converged
        assert abs(res.value - ORBIT_CENTER) < 1e-11

    def test_surrogate_within_consistency_band(self):
        res = orbit_center()
        w8 = limit_point(1e-8, TIGHT)
        assert abs(w8.value - res.value) < 1e-7

    def test_orbit_sums_keep_the_callers_budget(self, monkeypatch):
        # classify(power:0) and orbit_center sum at min(tol, 1e-12) with the
        # caller's own max_terms, whichever settings came before: a memo of
        # the tightened settings keyed on the tolerance alone would sum
        # (1e-10, 40) with the 20 terms of (1e-10, 20), or the reverse
        seen, live = [], convergence._limit_series

        def recording(f, settings):
            seen.append(settings)
            return live(f, settings)

        monkeypatch.setattr(convergence, "_limit_series", recording)
        budgets = (AccelerationSettings(1e-10, 20), AccelerationSettings(1e-10, 40),
                   AccelerationSettings(1e-13, 40), AccelerationSettings(1e-12, 7))
        for order in permutations(budgets):
            for settings in order:
                seen.clear()
                orbit_center(settings)
                classify(power_law(0.0), settings)
                want = AccelerationSettings(min(settings.target_tolerance, 1e-12), settings.max_terms)
                assert seen == [want, want], (order, settings)

    def test_even_and_odd_radius(self):
        res = orbit_center()
        v = vertex_at(power_law(0.0), (20_000, 20_001))
        for n, z in v.items():
            assert abs(abs(z - res.value) - 0.5) < 5e-3


class TestClassify:
    def test_point_for_positive_exponent(self):
        out = classify(power_law(0.5))
        assert isinstance(out, Point)
        assert abs(out.value - complex(0.69660908028459688, 1.33868768526423886)) < 1e-10

    def test_orbit_for_s_zero(self):
        out = classify(power_law(0.0))
        assert isinstance(out, CircularOrbit)
        assert out.radius == 0.5
        assert abs(out.center - ORBIT_CENTER) < 1e-10

    @pytest.mark.parametrize("settings", [None, AccelerationSettings(1e-8)])
    def test_orbit_is_orbit_center_bit_for_bit(self, settings):
        # one route: the s = 0 class and orbit_center are the same sum
        assert classify(power_law(0.0), settings).center == orbit_center(settings).value

    def test_divergent_for_negative_exponent(self):
        out = classify(power_law(-1.0))
        assert isinstance(out, Divergent)
        assert "do not approach 0" in out.reason

    def test_divergent_probe_half(self):
        assert isinstance(classify(power_law(-0.5)), Divergent)

    def test_telescoping_orbit_matches_closed_form(self):
        # the regularised sum must land on the closed-form circle center -1,
        # radius 1
        out = classify(telescoping())
        assert isinstance(out, CircularOrbit)
        assert out.radius == 1.0
        assert abs(out.center - (-1.0 + 0j)) < 1e-12

    def test_inscribed_boundary_orbit(self):
        out = classify(inscribed(-1.0))
        assert isinstance(out, CircularOrbit)
        assert abs(out.radius - math.pi) < 1e-14

    def test_geometric_catalog_point_cases(self):
        for f in (inscribed(-0.5), circumscribed(-0.5), area_normalized(1.0)):
            assert isinstance(classify(f), Point)

    def test_inscribed_point_value_is_cauchy_limit(self):
        # the classified point agrees with a deep partial sum
        out = classify(inscribed(0.5))
        deep = vertex(inscribed(0.5), 60_000)
        assert isinstance(out, Point)
        assert abs(out.value - deep) < 5e-3


class TestDistanceLaw:
    def test_r_equal_one_is_zero(self):
        emp, pred = orbit_distance_law(1.0, 100)
        assert emp == 0.0 and pred == 0.0

    def test_r_two_small(self):
        emp, pred = orbit_distance_law(2.0, 2000)
        assert abs(pred - abs(math.sin(2.0 * math.pi * math.log(2.0)))) < 1e-15
        assert abs(emp - pred) < 5e-3

    def test_r_two_deep(self):
        # both vertices jump, so n = 1e7 costs no 4e7-term stream
        emp, pred = orbit_distance_law(2.0, 10**7)
        assert abs(emp - abs(math.sin(2.0 * math.pi * math.log(2.0)))) < 10.0 / 10**7

    def test_r_near_e_prediction_small(self):
        # 2 pi ln r close to 2 pi: prediction nearly vanishes
        _, pred = orbit_distance_law(2.71828, 25_000)
        assert pred < 1e-4

    def test_numpy_scalars_are_python_numbers(self):
        # a float32 n compared with the largest double overflowed in numpy
        assert orbit_distance_law(np.float32(2.0), np.int64(2000)) == orbit_distance_law(2.0, 2000)
        assert orbit_distance_law(1.0, np.float32(2.0**53)) == (0.0, 0.0)

    def test_preconditions(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("summed")

        monkeypatch.setattr(convergence, "vertex_at", refuse)
        with pytest.raises(ValueError):
            orbit_distance_law(2.0, 5)
        with pytest.raises(ValueError):
            orbit_distance_law(1.5, 11)  # 16.5 not integral
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite r"):
                orbit_distance_law(bad, 10)
            with pytest.raises(ValueError, match="finite n"):
                orbit_distance_law(2.0, bad)
        # finite inputs whose product overflows, as a float or from an int
        # past the doubles: refused, not an OverflowError
        for r, n in ((1e300, 10**10), (2.0, 10**308), (1.0, 10**400)):
            with pytest.raises(ValueError, match=r"finite n\*r"):
                orbit_distance_law(r, n)


class TestConvergenceCurve:
    def test_figure_endpoints(self):
        samples = convergence_curve(0.0000726, 1.77, 4, TIGHT)
        assert len(samples) == 4
        assert samples[0].s == 0.0000726
        assert abs(samples[-1].s - 1.77) < 1e-15
        for c in samples:
            assert c.result.converged
            assert math.isfinite(abs(c.result.value))

    def test_large_s_modulus_decreasing(self):
        samples = convergence_curve(3.0, 9.0, 5, TIGHT)
        mags = [abs(c.result.value) for c in samples]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_single_sample_degenerates_to_limit_point(self):
        lone = convergence_curve(0.5, 0.5, 1, TIGHT)
        assert len(lone) == 1
        assert abs(lone[0].result.value - limit_point(0.5, TIGHT).value) == 0.0

    def test_not_converged_entries_kept(self):
        settings = AccelerationSettings(target_tolerance=1e-13, max_terms=4)
        samples = convergence_curve(0.4, 0.8, 3, settings)
        assert len(samples) == 3
        assert any(not c.result.converged for c in samples)

    def test_domain(self):
        with pytest.raises(ValueError):
            convergence_curve(0.0, 1.0, 3, TIGHT)
        with pytest.raises(ValueError):
            convergence_curve(0.5, 1.0, 0, TIGHT)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="s_max finite"):
                convergence_curve(1.0, bad, 3, TIGHT)
        with pytest.raises(ValueError, match="an integer"):
            convergence_curve(0.5, 1.0, 2.5, TIGHT)
        assert convergence_curve(0.5, 1.0, 3.0, TIGHT) == convergence_curve(0.5, 1.0, 3, TIGHT)

    def test_size_cap_is_exact(self, monkeypatch):
        # samples are replaced by a failure, so the cap itself never runs
        def refuse(*args):
            raise AssertionError("a sample was computed")

        monkeypatch.setattr(convergence, "limit_point", refuse)
        cap = convergence._MAX_CURVE_SAMPLES
        with pytest.raises(AssertionError, match="computed"):
            convergence_curve(0.5, 1.0, cap)
        with pytest.raises(ValueError, match="samples"):
            convergence_curve(0.5, 1.0, cap + 1)


class TestEvenOddAgreement:
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_gap_shrinks(self, s):
        f = power_law(s)
        v = vertex_at(f, (2_000, 2_001, 20_000, 20_001))
        near = abs(v[2_001] - v[2_000])
        far = abs(v[20_001] - v[20_000])
        assert far < near
        assert far < 2_000.0 ** (-s)
