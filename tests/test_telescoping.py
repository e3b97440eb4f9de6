import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import ngonspiral
import ngonspiral.telescoping as telescoping_mod
from ngonspiral import _arrays
from ngonspiral.lengthfns import telescoping as telescoping_fn
from ngonspiral.numerics import EULER_GAMMA, digamma, richardson
from ngonspiral.spiral import q_term, vertex
from ngonspiral.telescoping import (
    PHI,
    Q_LIMIT_AT_1,
    center_closed,
    q_closed,
    q_real_limit_estimate,
    vertex_closed,
    verify_telescoping_identity,
)
from oracles import golden_intersection_point, identity_residual_two_sided

# C_L(phi), frozen from a 40-dps evaluation of the closed form
GOLDEN_POINT = complex(-0.611305553872685466, 0.00909054270848651906)


class TestConstants:
    def test_zeros_of_length_function(self):
        f = telescoping_fn()
        assert abs(f(4.0 / 3.0)) < 1e-14
        assert abs(f(4.0)) < 1e-14

    def test_q_limit_constant(self):
        assert abs(Q_LIMIT_AT_1 - 4.0 * (1.0 - math.pi**2 / 6.0)) < 1e-15

    def test_phi(self):
        assert abs(PHI**2 - PHI - 1.0) < 1e-15


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
        for n in (1.0, math.inf, math.nan):
            for closed in (vertex_closed, q_closed, center_closed):
                with pytest.raises(ValueError):
                    closed(n)


class TestQClosed:
    def test_vanishes_at_four(self):
        # z = i: i + (i+1)/(i-1) = 0 exactly
        assert abs(q_closed(4.0)) < 1e-12

    def test_vanishes_at_four_thirds(self):
        assert abs(q_closed(4.0 / 3.0)) < 1e-12

    def test_real_part_near_one(self):
        target = Q_LIMIT_AT_1
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
        for n in (0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                q_closed(n)


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


def _array_n() -> np.ndarray:
    """n where an array path may part from the float path: just above 1,
    both sides of 2 (half_angle's branch), the integers (exact +-1 signs),
    digamma's shift boundary (n + 1 = 12), large n and seeded draws."""
    edges = [1.0 + 2.0**-52, 1.0 + 1e-12, 1.0001, 1.02, math.nextafter(2.0, 0.0), 2.0,
             math.nextafter(2.0, 3.0), math.nextafter(11.0, 0.0), math.nextafter(11.0, 12.0),
             1e4 + 0.5, 1e8 + 0.5]
    rng = np.random.default_rng(20221111)
    return np.concatenate((edges, np.arange(2.0, 3001.0), np.linspace(10.5, 13.0, 2001),
                           rng.uniform(1.02, 300.0, 200_000)))


class TestArrayClosedForms:
    """An array of n is read by array steps; every entry is the bits of the
    float call at that n."""

    @pytest.mark.parametrize("closed", [vertex_closed, q_closed, center_closed])
    def test_entries_are_the_float_bits(self, closed):
        ns = _array_n()
        got = closed(ns)
        assert got.dtype == complex and got.shape == ns.shape
        for n, z in zip(ns.tolist(), got.tolist()):
            assert repr(z) == repr(closed(n)), n

    @pytest.mark.parametrize("closed", [vertex_closed, q_closed, center_closed])
    def test_any_shape(self, closed):
        ns = np.linspace(1.05, 40.0, 12).reshape(3, 4)
        got = closed(ns)
        assert got.shape == (3, 4)
        assert [repr(z) for z in got.ravel().tolist()] == [repr(closed(n)) for n in ns.ravel().tolist()]
        assert repr(closed([2.5]).tolist()) == repr([closed(2.5)])
        assert closed(np.array(2.5)).shape == ()
        # a float is read without numpy, into a Python complex
        assert type(closed(2.5)) is complex

    @pytest.mark.parametrize("closed", [vertex_closed, q_closed, center_closed])
    def test_any_memory_layout(self, closed):
        # a transposed (Fortran-ordered) grid and a strided view, with every
        # n below the digamma shift, give the contiguous array's entries
        ns = np.linspace(1.05, 10.0, 6)
        want = closed(ns)
        for grid, same in ((ns.reshape(2, 3).T, want.reshape(2, 3).T), (np.repeat(ns, 2)[::2], want)):
            assert not grid.flags.c_contiguous
            got = closed(grid)
            assert got.shape == grid.shape
            assert [repr(z) for z in got.ravel().tolist()] == [repr(z) for z in same.ravel().tolist()]

    @pytest.mark.parametrize("closed", [vertex_closed, q_closed, center_closed])
    def test_any_scalar_takes_the_float_path(self, closed):
        # numpy scalars and fractions are one number, not an array, read
        # as the matching Python number
        for n, same in ((np.float32(5.5), 5.5), (np.float64(5.5), 5.5), (np.int64(5), 5),
                        (Fraction(11, 2), 5.5)):
            z = closed(n)
            assert type(z) is complex
            assert repr(z) == repr(closed(same)), n

    @pytest.mark.parametrize("closed", [vertex_closed, q_closed, center_closed])
    def test_domain(self, closed):
        for bad in (1.0, 0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{closed.__name__} requires a finite n > 1"):
                closed(np.array([3.0, bad, 2.5]))


class TestTelescopingIdentity:
    def test_single_term(self):
        assert verify_telescoping_identity(3) < 1e-14

    def test_first_dozen(self):
        assert verify_telescoping_identity(12) < 1e-12

    def test_two_thousand(self):
        assert verify_telescoping_identity(2000) < 1e-10

    def test_domain(self):
        for bad in (2, 3.5, math.nan):
            with pytest.raises(ValueError):
                verify_telescoping_identity(bad)
        assert verify_telescoping_identity(12.0) == verify_telescoping_identity(12)

    @pytest.mark.parametrize("n_max", [258, 259, 2050, 2051, 4098, 4099, 4100, 8194, 8195])
    def test_block_and_chunk_edges(self, n_max):
        # the first and last terms of the run's chunks of 4,096 (the first
        # read from the family's table), those of 2,048 before the chunks grew,
        # and n_max = 258, 259; measured 2.2e-14 to 1.1e-13
        assert verify_telescoping_identity(n_max) < 1e-11

    def test_the_cap_passes_the_check(self):
        # measured 8.45e-13 (1.37e-11 when the runs rounded each phase at
        # the ulp of 2 H_k); `spiral telescope --check` fails above 1e-10
        assert verify_telescoping_identity(10**6) < 1e-12

    @pytest.mark.parametrize("n_max", [3, 258, 2050, 2051, 4099, 4100, 20_000, 25_000, 25_873, 26_455, 10**6])
    def test_same_residual_as_the_two_sided_check(self, n_max):
        # tests/dump_values.py's n_max: the check returns the float of the
        # oracle's, which adds the pairing with both sides read from the
        # direct H_k; the closed rotations' own pairing sets the float at
        # n_max = 258 (2.22e-14 at k = 139, against 1.65e-14 two-sided) and
        # nowhere else here, now that the run's phases no longer round at
        # the ulp of 2 H_k
        got = verify_telescoping_identity(n_max)
        assert repr(got) == repr(identity_residual_two_sided(n_max, closed=True))
        assert got <= 1.5 * identity_residual_two_sided(n_max)

    @pytest.mark.parametrize("n_max", range(13, 18))
    def test_stricter_pairing_stays_near_the_two_sided_check(self, n_max):
        # the digamma H_13 lies a few ulps off the running sum, which the
        # pairing check sees: 5.4e-15 to 6.2e-15 against 4.8e-15
        assert verify_telescoping_identity(n_max) <= 1.5 * identity_residual_two_sided(n_max)

    def test_closed_form_side_reads_the_continuation(self, monkeypatch):
        # the closed side reads H_k through the vectorised digamma, the
        # direct side the running sum, so an H_x off by 1e-9 past 99
        # must show
        exact = _arrays.harmonic_array
        monkeypatch.setattr(_arrays, "harmonic_array", lambda x, log=None: exact(x, log) + 1e-9 * (x > 99.0))
        assert verify_telescoping_identity(3000) > 1e-10

    def test_memory_is_bounded_by_the_chunk(self):
        # numpy reports its buffers to tracemalloc
        tracemalloc.start()
        try:
            verify_telescoping_identity(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_size_cap_is_exact(self, monkeypatch):
        # the kernel is replaced by a failure, so the cap itself never runs
        def refuse(*args):
            raise AssertionError("the series was streamed")

        monkeypatch.setattr(_arrays, "_identity_residual", refuse)
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
            inside = 4.0 / 3.0 < x < 4.0
            if abs(x - 4.0 / 3.0) > 1e-6 and abs(x - 4.0) > 1e-6:
                assert (v < 0.0) == inside
            x += 0.0137


class TestQLimit:
    def test_richardson_extrapolation(self):
        est = q_real_limit_estimate()
        assert abs(est - Q_LIMIT_AT_1) < 1e-3

    def test_raw_values_approach(self):
        vals = [q_closed(1.0 + 10.0**-k).real for k in range(3, 7)]
        errs = [abs(v - Q_LIMIT_AT_1) for v in vals]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        extrap = richardson(vals).real
        assert abs(extrap - Q_LIMIT_AT_1) < 1e-6
