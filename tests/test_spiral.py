import cmath
import math

import numpy as np
import pytest

from ngonspiral.lengthfns import inscribed, power_law, telescoping
from ngonspiral.numerics import (
    EULER_GAMMA,
    AccelerationSettings,
    harmonic_number,
)
from ngonspiral.spiral import (
    center,
    harmonic_phases,
    interpolated_vertex,
    phase_of_turns,
    polygon,
    q_term,
    unit_phase,
    vertex,
    vertex_at,
)
from oracles import convex_intersection_area, polygon_area, theta

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

    def test_domain(self):
        with pytest.raises(ValueError):
            vertex(power_law(1.0), 1)


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
        with pytest.raises(ValueError):
            q_term(power_law(1.0), 1.0)


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

    def test_polygon_area_shoelace(self):
        square = [0j, 2 + 0j, 2 + 2j, 0 + 2j]
        assert abs(polygon_area(square) - 4.0) < 1e-14


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


class TestPhaseHelpers:
    def test_harmonic_phases_stream(self):
        for k, hk, phase in harmonic_phases():
            if k > 5_000:
                break
            assert hk == harmonic_number(k), k
            assert phase == unit_phase(float(k), hk), k

    def test_phase_of_turns_reduces_exactly(self):
        for t in (0.25, -12345.75, 1e8 + 0.125):
            z = phase_of_turns(t)
            frac = t - round(t)
            ref = cmath.exp(2j * math.pi * frac)
            assert abs(z - ref) < 1e-15
            assert abs(abs(z) - 1.0) < 1e-15
