import math

import numpy as np
import pytest

from ngonspiral._arrays import _ARRAY
from ngonspiral.lengthfns import (
    LengthKind,
    _formula,
    area_normalized,
    circumscribed,
    inscribed,
    parse_length,
    power_law,
    telescoping,
)
from ngonspiral.spiral import _side, vertex_at


class TestEval:
    def test_power_law_at_three(self):
        assert abs(power_law(1.0)(3.0) - 1.0 / 3.0) < 1e-16

    def test_telescoping_zero_at_four(self):
        assert abs(telescoping()(4.0)) < 1e-14

    def test_telescoping_zero_at_four_thirds(self):
        assert abs(telescoping()(4.0 / 3.0)) < 1e-14

    def test_inscribed_unit_square(self):
        assert abs(inscribed(0.0)(4.0) - math.sqrt(2.0)) < 1e-15

    def test_negative_lengths_propagate(self):
        # telescoping side is negative strictly inside (4/3, 4)
        assert telescoping()(2.0) < 0.0
        assert telescoping()(1.2) > 0.0
        assert telescoping()(5.0) > 0.0

    def test_domain_lower_bound(self):
        for f in (power_law(1.0), inscribed(0.0), telescoping()):
            with pytest.raises(ValueError):
                f(1.0)

    def test_circumscribed_singular_at_two(self):
        with pytest.raises(ValueError):
            circumscribed(0.0)(2.0)

    def test_area_domain(self):
        with pytest.raises(ValueError):
            area_normalized(1.0)(1.5)
        assert area_normalized(1.0)(3.0) > 0.0

    def test_area_matches_polygon_area_formula(self):
        # regular n-gon of side a has area n a^2 cot(pi/n) / 4; the catalog
        # side must give back area x^-s
        for s in (0.0, 1.0, 2.0):
            for x in (3.0, 5.0, 12.0):
                a = area_normalized(s)(x)
                area = x * a * a / (4.0 * math.tan(math.pi / x))
                assert abs(area - x ** (-s)) < 1e-14


# The families of tests/dump_values.py, whose printed bits the dense kernel
# and the batched tails keep only while the array formula keeps them.
FAMILIES = ("power:1", "power:0.5", "power:2", "power:1e-3", "inscribed:0",
            "circumscribed:1", "area:0", "power:0", "inscribed:-1",
            "circumscribed:-1", "area:-2", "telescoping")


def _array_form(f, x):
    return np.broadcast_to(_formula(f.kind, f.s, _ARRAY)(x), x.shape)


class TestArrayForm:
    """The formula at an array (numpy ufuncs where they carry math's bits,
    math per entry elsewhere) against the float formula, bit for bit: a
    numpy build whose cos, sin or sqrt drifts from math fails here."""

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_array_form_is_the_float_bits(self, spec):
        rng = np.random.default_rng(20221111)
        reals = np.exp(rng.uniform(math.log(2.05), math.log(1e7), 200_000))
        x = np.concatenate((np.arange(3.0, 200_001.0), reals))
        f = parse_length(spec)
        scalar = np.array(list(map(f.as_callable(), x.tolist())))
        got = _array_form(f, x)
        differ = np.flatnonzero(got.view(np.uint64) != scalar.view(np.uint64))
        assert not len(differ), (spec, len(differ), x[differ[:5]])

    def test_singularities_raise_the_float_errors(self):
        for f, bad in ((circumscribed(1.0), 2.0), (area_normalized(0.0), 2.0),
                       (area_normalized(-2.0), 1.5)):
            with pytest.raises(ValueError) as scalar:
                f.as_callable()(bad)
            with pytest.raises(ValueError) as array:
                _array_form(f, np.array([3.0, bad, 5.0, bad]))
            assert str(array.value) == str(scalar.value)

    def test_dense_overflow_raises_the_float_error(self):
        # the first k whose side length overflows: the float path's refusal
        f = inscribed(-300.0)
        for k in range(3, 200):
            try:
                _side(f, float(k))
            except ValueError as exc:
                expected = str(exc)
                break
        with pytest.raises(ValueError) as array:
            vertex_at(f, [200])
        assert str(array.value) == expected


class TestAsymptote:
    def test_power_law(self):
        asym = power_law(0.5).asymptote()
        assert asym.exponent == 0.5 and asym.vanishing

    def test_inscribed_boundary(self):
        asym = inscribed(-1.0).asymptote()
        assert asym.exponent == 0.0 and not asym.vanishing

    def test_area_normalized(self):
        # sqrt(4 x^-2 tan(pi/x)/x) ~ 2 sqrt(pi) x^-2
        asym = area_normalized(2.0).asymptote()
        assert asym.exponent == 2.0
        assert abs(asym.scale - 2.0 * math.sqrt(math.pi)) < 1e-15

    def test_telescoping_non_vanishing(self):
        asym = telescoping().asymptote()
        assert asym.exponent == 0.0
        assert not asym.vanishing
        assert asym.scale == 2.0

    def test_leading_coefficient_numerically(self):
        # f(x) * x^exponent -> scale for every catalog member
        x = 1e7
        for f in (power_law(0.7), inscribed(0.3), circumscribed(-0.2), area_normalized(1.5)):
            asym = f.asymptote()
            assert abs(f(x) * x**asym.exponent - asym.scale) < 1e-5


class TestInscribedExpansion:
    def test_leading_term_remainder_bound(self):
        # |l_insc(x) - 2 pi x^(-1-s)| <= K x^(-3-s): fit K on a coarse grid,
        # then verify on a fine one
        s = 0.25
        f = inscribed(s)

        def remainder(x):
            return abs(f(x) - 2.0 * math.pi * x ** (-1.0 - s))

        fit = max(remainder(x) * x ** (3.0 + s) for x in (8.0, 16.0, 64.0))
        k_bound = 1.05 * fit
        x = 8.0
        while x < 1e6:
            assert remainder(x) <= k_bound * x ** (-3.0 - s)
            x *= 1.7


class TestTelescopingZeros:
    def test_exactly_two_zeros_located_by_bisection(self):
        f = telescoping()

        def bisect(lo, hi):
            flo = f(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            return 0.5 * (lo + hi)

        z1 = bisect(1.01, 2.0)
        z2 = bisect(3.0, 5.0)
        assert abs(z1 - 4.0 / 3.0) < 1e-12
        assert abs(z2 - 4.0) < 1e-12
        # no other sign change: sample the sign pattern
        signs = set()
        x = 1.001
        while x < 50.0:
            v = f(x)
            if abs(x - 4.0 / 3.0) > 1e-3 and abs(x - 4.0) > 1e-3:
                signs.add((x < 4.0 / 3.0, 4.0 / 3.0 < x < 4.0, v < 0.0))
            x += 0.013
        assert (True, False, False) in signs
        assert (False, True, True) in signs
        assert (False, False, False) in signs
        assert (True, False, True) not in signs


class TestParse:
    def test_round_trip(self):
        for text, kind, s in [
            ("power:1", LengthKind.POWER, 1.0),
            ("inscribed:0.5", LengthKind.INSCRIBED, 0.5),
            ("circumscribed:-1", LengthKind.CIRCUMSCRIBED, -1.0),
            ("area:2", LengthKind.AREA, 2.0),
        ]:
            f = parse_length(text)
            assert f.kind is kind and f.s == s

    def test_telescoping_spelling(self):
        assert parse_length("telescoping").kind is LengthKind.TELESCOPING

    def test_bad_specs(self):
        for bad in (
            "power", "power:x", "nope:1", "", "telescoping:1",
            "power:nan", "inscribed:nan", "power:inf", "area:-inf",
        ):
            with pytest.raises(ValueError):
                parse_length(bad)

    def test_spec_string_round_trip(self):
        for f in (power_law(0.5), inscribed(-1.0), telescoping()):
            assert parse_length(f.spec()) == f
