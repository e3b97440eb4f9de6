import math
import random

import numpy as np
import pytest

from ngonspiral import convergence
from ngonspiral.convergence import (
    CircularOrbit,
    Divergent,
    Point,
    bound_A,
    bound_B,
    classify,
    convergence_curve,
    limit_point,
    orbit_center,
    orbit_distance_law,
    paired_term,
    paired_terms,
)
from ngonspiral.lengthfns import (
    area_normalized,
    circumscribed,
    inscribed,
    power_law,
    telescoping,
)
from ngonspiral.numerics import AccelerationSettings, Strategy, hurwitz_zeta
from ngonspiral.spiral import vertex, vertex_at

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
        tail = hurwitz_zeta(10.0, 3.0)
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

    def test_paired_strategy_converges_at_loose_tolerance(self):
        settings = AccelerationSettings(
            target_tolerance=1e-6, max_terms=50_000, strategy=Strategy.PAIRED_TERMS
        )
        res = limit_point(1.0, settings)
        assert res.converged
        assert abs(res.value - W_ORACLES[1.0]) < 1e-3

    def test_paired_strategy_flags_tight_tolerance(self):
        settings = AccelerationSettings(
            target_tolerance=1e-12, max_terms=2000, strategy=Strategy.PAIRED_TERMS
        )
        res = limit_point(0.5, settings)
        assert not res.converged

    def test_domain(self):
        with pytest.raises(ValueError):
            limit_point(0.0, TIGHT)


class TestPairedTerms:
    def test_first_term_is_f4_minus_f3(self):
        from ngonspiral.numerics import harmonic_number
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
            cap = (4.0 * math.pi + s) * 2.0 ** (-1.0 - s) * hurwitz_zeta(1.0 + s, 1.5)
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

    def test_divergent_for_negative_exponent(self):
        out = classify(power_law(-1.0))
        assert isinstance(out, Divergent)
        assert "do not approach 0" in out.reason

    def test_divergent_probe_half(self):
        assert isinstance(classify(power_law(-0.5)), Divergent)

    def test_telescoping_orbit_matches_closed_form(self):
        # decomposition route: 2 * orbit_center + lim sum (-1)^k f(k)(L(k)-2)
        # must land on the closed-form circle center -1, radius 1
        out = classify(telescoping())
        assert isinstance(out, CircularOrbit)
        assert out.radius == 1.0
        assert abs(out.center - (-1.0 + 0j)) < 1e-8

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

    def test_r_near_e_prediction_small(self):
        # 2 pi ln r close to 2 pi: prediction nearly vanishes
        _, pred = orbit_distance_law(2.71828, 25_000)
        assert pred < 1e-4

    def test_preconditions(self):
        with pytest.raises(ValueError):
            orbit_distance_law(2.0, 5)
        with pytest.raises(ValueError):
            orbit_distance_law(1.5, 11)  # 16.5 not integral


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
        settings = AccelerationSettings(
            target_tolerance=1e-13, max_terms=20, strategy=Strategy.PAIRED_TERMS
        )
        samples = convergence_curve(0.4, 0.8, 3, settings)
        assert len(samples) == 3
        assert any(not c.result.converged for c in samples)

    def test_domain(self):
        with pytest.raises(ValueError):
            convergence_curve(0.0, 1.0, 3, TIGHT)
        with pytest.raises(ValueError):
            convergence_curve(0.5, 1.0, 0, TIGHT)

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
