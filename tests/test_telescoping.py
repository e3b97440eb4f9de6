import cmath
import math
import random

import pytest

import ngonspiral
import ngonspiral.telescoping as telescoping_mod
from ngonspiral.lengthfns import telescoping as telescoping_fn
from ngonspiral.numerics import EULER_GAMMA, digamma, richardson
from ngonspiral.spiral import q_term, vertex
from ngonspiral.telescoping import (
    CONSTANTS,
    PHI,
    center_closed,
    q_closed,
    q_real_limit_estimate,
    golden_intersection_point,
    vertex_closed,
    verify_telescoping_identity,
)

# C_L(phi), frozen from a 40-dps evaluation of the closed form
GOLDEN_POINT = complex(-0.611305553872685466, 0.00909054270848651906)


class TestConstants:
    def test_zeros_of_length_function(self):
        f = telescoping_fn()
        assert abs(f(CONSTANTS.zero_low)) < 1e-14
        assert abs(f(CONSTANTS.zero_high)) < 1e-14

    def test_q_limit_constant(self):
        assert abs(CONSTANTS.q_limit_at_1 - 4.0 * (1.0 - math.pi**2 / 6.0)) < 1e-15

    def test_phi(self):
        assert abs(CONSTANTS.phi**2 - CONSTANTS.phi - 1.0) < 1e-15


class TestVertexClosed:
    def test_seed_at_two(self):
        assert abs(vertex_closed(2.0)) < 1e-12
        # the package attribute is this closed-form module, not the length function
        assert ngonspiral.telescoping.vertex_closed is vertex_closed

    def test_at_three(self):
        # -1 - e^{-4 pi i 11/6} = -1/2 - i sqrt(3)/2
        assert abs(vertex_closed(3.0) - complex(-0.5, -math.sqrt(3.0) / 2.0)) < 1e-13

    def test_matches_direct_sum_at_1000(self):
        assert abs(vertex_closed(1000.0) - vertex(telescoping_fn(), 1000)) < 1e-10

    def test_unit_circle_law(self):
        rng = random.Random(7)
        worst = 0.0
        for _ in range(10_000):
            n = 1.01 + rng.random() * 98.99
            worst = max(worst, abs(abs(vertex_closed(n) + 1.0) - 1.0))
        assert worst < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            vertex_closed(1.0)


class TestQClosed:
    def test_vanishes_at_four(self):
        # z = i: i + (i+1)/(i-1) = 0 exactly
        assert abs(q_closed(4.0)) < 1e-12

    def test_vanishes_at_four_thirds(self):
        assert abs(q_closed(4.0 / 3.0)) < 1e-12

    def test_real_part_near_one(self):
        target = CONSTANTS.q_limit_at_1
        assert abs(q_closed(1.0 + 1e-6).real - target) < 1e-2

    def test_agrees_with_generic_centers_formula(self):
        f = telescoping_fn()
        worst = 0.0
        for m in range(3, 2001):
            worst = max(worst, abs(q_closed(float(m)) - q_term(f, float(m))))
        assert worst < 1e-11

    def test_agrees_at_real_arguments_too(self):
        f = telescoping_fn()
        rng = random.Random(11)
        for _ in range(200):
            n = 1.05 + rng.random() * 30.0
            assert abs(q_closed(n) - q_term(f, n)) < 1e-11

    def test_domain(self):
        with pytest.raises(ValueError):
            q_closed(0.5)


class TestCenterClosed:
    def test_center_equals_vertex_at_q_zero(self):
        assert abs(center_closed(4.0) - vertex_closed(4.0)) < 1e-12

    def test_golden_identity(self):
        assert abs(center_closed(PHI) - center_closed(PHI + 1.0)) < 1e-10

    def test_golden_point_frozen_value(self):
        assert abs(center_closed(PHI) - GOLDEN_POINT) < 1e-12

    def test_compact_golden_point_formula(self):
        # the compact spelling uses psi(phi), not psi(phi+1); both agree
        point = golden_intersection_point()
        residual = abs(point - center_closed(PHI))
        assert residual < 1e-10
        # and it is reproduced from first principles here
        arg = math.pi * (4.0 * (EULER_GAMMA + digamma(PHI)) + PHI)
        cot = math.cos(math.pi * PHI) / math.sin(math.pi * PHI)
        rebuilt = -1j * cmath.exp(-1j * arg) * cot - 1.0
        assert abs(point - rebuilt) < 1e-15


class TestTelescopingIdentity:
    def test_single_term(self):
        assert verify_telescoping_identity(3) < 1e-14

    def test_first_dozen(self):
        assert verify_telescoping_identity(12) < 1e-12

    def test_two_thousand(self):
        assert verify_telescoping_identity(2000) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_telescoping_identity(2)

    def test_size_cap_is_exact(self, monkeypatch):
        # the stream is replaced by a failure, so the cap itself never runs
        def refuse():
            raise AssertionError("the series was streamed")

        monkeypatch.setattr(telescoping_mod, "harmonic_phases", refuse)
        cap = telescoping_mod._MAX_IDENTITY_N
        with pytest.raises(AssertionError, match="streamed"):
            verify_telescoping_identity(cap)
        with pytest.raises(ValueError, match="n_max"):
            verify_telescoping_identity(cap + 1)


class TestWindingRegions:
    def test_length_sign_pattern(self):
        f = telescoping_fn()
        x = 1.01
        while x < 20.0:
            v = f(x)
            inside = CONSTANTS.zero_low < x < CONSTANTS.zero_high
            if abs(x - CONSTANTS.zero_low) > 1e-6 and abs(x - CONSTANTS.zero_high) > 1e-6:
                assert (v < 0.0) == inside
            x += 0.0137


class TestQLimit:
    def test_richardson_extrapolation(self):
        est = q_real_limit_estimate()
        assert abs(est - CONSTANTS.q_limit_at_1) < 1e-3

    def test_raw_values_approach(self):
        vals = [q_closed(1.0 + 10.0**-k).real for k in range(3, 7)]
        errs = [abs(v - CONSTANTS.q_limit_at_1) for v in vals]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        extrap = richardson(vals, ratio=10.0).real
        assert abs(extrap - CONSTANTS.q_limit_at_1) < 1e-6
