"""The in-place array kernels of ngonspiral._arrays against the plain
expressions they replace, bit for bit: the Sum2 cascade, the phases in
turns, the vectorised H_x, and the side lengths at exponent 0."""

import math

import numpy as np
import pytest

from ngonspiral import _arrays
from ngonspiral._arrays import _ARRAY, _cascade, _turns, harmonic_array
from ngonspiral.lengthfns import LengthKind, _formula
from ngonspiral.numerics import (
    _DIGAMMA_SHIFT,
    EULER_GAMMA,
    TWO_PI,
    _bernoulli_tail,
    harmonic_continued,
    two_sum,
)
from ngonspiral.spiral import phase_of_turns


def _bits(a) -> bytes:
    """The bytes of a float or complex array or numpy scalar, nan payloads and signed zeros too."""
    return np.asarray(a).tobytes()


def _plain_cascade(s, c, x):
    """_cascade as the plain Sum2 expression, with temporaries: the prefix
    sums from s, each step's two_sum error, then the running sum of c and
    the errors."""
    prefix = np.add.accumulate(np.concatenate(([s], x)))
    errors = two_sum(prefix[:-1], x)[1]
    return prefix[1:], np.add.accumulate(np.concatenate(([c], errors)))[1:]


def _chunks(kind: str, dtype) -> list:
    """Chunks of one kind of real series, as ``dtype`` (a complex series has
    the same kind of parts): random values of mixed scale, signed zeros,
    pairs x, -x + d that cancel to noise, one-entry chunks, and inf and nan."""
    rng = np.random.default_rng(sum(map(ord, kind)))

    def part(n):
        if kind == "random":
            return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        if kind == "zeros":
            return rng.choice([0.0, -0.0, 1e-300, -1.0, 1.0], n)
        if kind == "cancel":
            x = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-3, 8, n // 2)
            return np.stack([x, 1e-3 * rng.standard_normal(n // 2) - x], axis=1).ravel()
        if kind == "one":
            return rng.standard_normal(n)
        x = rng.standard_normal(n)
        x[rng.integers(0, n, 4)] = [math.inf, -math.inf, math.nan, -math.inf]
        return x

    sizes = {"random": (2048, 2048, 700), "zeros": (1, 64, 1, 300), "cancel": (2100, 2900),
             "one": (1, 1, 2047, 1, 1), "nonfinite": (1, 40, 1, 300)}[kind]
    if kind == "nonfinite":
        # a first term of inf, then of nan, then of -0.0: the head of each chunk
        firsts = [math.inf, math.nan, -0.0, 2.5]
    else:
        firsts = []
    out = []
    for j, n in enumerate(sizes):
        c = part(n)
        if j < len(firsts):
            c[0] = firsts[j]
        if dtype is complex:
            c = c + 1j * part(n)[::-1]
        out.append(c)
    return out


class TestRunningSum:
    @pytest.mark.parametrize("kind", ["random", "zeros", "cancel", "one", "nonfinite"])
    @pytest.mark.parametrize("dtype, start", [(float, 1.5), (complex, 0.5 - 0.25j), (complex, -0.0j)])
    def test_extend_is_the_plain_sum2(self, kind, dtype, start):
        # _cascade extended chunk by chunk, the carry (heads[-1],
        # corrections[-1]) passed on: the heads, the corrections, and the
        # terms left alone
        got = ref = (start, 0.0)
        with np.errstate(invalid="ignore", over="ignore"):
            for chunk in _chunks(kind, dtype):
                before = _bits(chunk)
                a = _cascade(*got, chunk)
                assert _bits(chunk) == before
                b = _plain_cascade(*ref, chunk)
                for x, y in zip(a, b):
                    assert x.dtype == y.dtype == chunk.dtype and _bits(x) == _bits(y), kind
                got, ref = (a[0].item(-1), a[1].item(-1)), (b[0].item(-1), b[1].item(-1))
                assert repr(got) == repr(ref)


def _plain_turns(t):
    """_turns as the plain expression, with temporaries."""
    ang = TWO_PI * (t - np.rint(t))
    out = np.empty(t.shape, dtype=complex)
    out.real = np.cos(ang)
    out.imag = np.sin(ang)
    return out


class TestTurns:
    TURNS = [0.0, -0.0, 0.25, 0.5, -0.5, 1.5, 2.5, -12345.75, 1e8 + 0.125, 2.0**52 + 1.0, 1e300,
             *np.random.default_rng(5).uniform(-1e5, 1e5, 500).tolist()]

    def test_each_entry_is_phase_of_turns(self):
        # equal, not the same bits, at t = -0.0 only: round(-0.0) is the int 0,
        # so phase_of_turns keeps -0.0 turns where np.rint's -0.0 cancels it
        want = [phase_of_turns(t) for t in self.TURNS]
        flat = np.array(self.TURNS)
        assert _turns(flat).tolist() == want
        assert repr(_turns(flat[2:]).tolist()) == repr(want[2:])
        grid = _turns(flat[:-1].reshape(17, 30))
        assert grid.shape == (17, 30) and grid.ravel().tolist() == want[:-1]
        for t, z in zip(self.TURNS, want):
            got = _turns(np.array(t))
            assert got.shape == () and got.item() == z, t

    def test_signed_zero_turns(self):
        # the one entry without phase_of_turns' bits, as the _arrays docstring
        # says: -0.0 turns, which no library path forms; +0.0 keeps them
        assert repr(phase_of_turns(0.0)) == repr(_turns(np.array(0.0)).item()) == "(1+0j)"
        assert repr(_turns(np.array([0.0, -0.0])).tolist()) == "[(1+0j), (1+0j)]"
        assert repr(phase_of_turns(-0.0)) == "(1-0j)"

    def test_each_entry_is_the_plain_bits(self):
        flat = np.array(self.TURNS)
        for t in (flat, flat[:-1].reshape(17, 30), *map(np.array, self.TURNS)):
            before = _bits(t)
            got = _turns(t)
            assert _bits(t) == before
            assert got.shape == t.shape and _bits(got) == _bits(_plain_turns(t))


def _plain_harmonic_array(x):
    """harmonic_array(x, np.log) as the plain expression: digamma's
    recurrence one entry at a time, then the series with temporaries."""
    x = np.array(x + 1.0, dtype=float)
    shift = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        while x[i] < _DIGAMMA_SHIFT:
            shift[i] -= 1.0 / x[i]
            x[i] += 1.0
    with np.errstate(over="ignore"):
        u = 1.0 / (x * x)
    return EULER_GAMMA + (shift + np.log(x) - 0.5 / x - u * _bernoulli_tail(u))


class TestHarmonicArray:
    # below, at and above x = 11 (x + 1 = _DIGAMMA_SHIFT), and past 1e154,
    # where x^2 overflows and the series' u is 0
    XS = [-0.5, 0.0, 0.5, 5.0, 10.5, 10.999999999999998, 11.0, 11.5, 40.0, 2999.0,
          1e5 + 0.5, 2.0**53, 1e160, 1e300]

    def test_zero_d_is_the_plain_bits(self):
        for x in self.XS:
            got, want = harmonic_array(np.array(x), np.log), _plain_harmonic_array(np.array(x))
            assert np.ndim(got) == 0 and type(got) is type(want), x
            assert _bits(got) == _bits(want), x

    @pytest.mark.parametrize("lo, step", [(-0.5, 0.005), (3.0, 0.37), (11.0, 0.37), (1e5, 1.0)])
    def test_arrays_are_the_plain_bits(self, lo, step):
        # chunks wholly below x = 11, across it and wholly above it
        x = lo + np.arange(2048.0) * step
        before = _bits(x)
        assert _bits(harmonic_array(x, np.log)) == _bits(_plain_harmonic_array(x))
        assert _bits(x) == before
        grid = x[:2040].reshape(8, 255)
        got = harmonic_array(grid, np.log)
        assert got.shape == grid.shape and _bits(got) == _bits(_plain_harmonic_array(grid))

    def test_default_log_is_the_float_bits(self):
        # math.log per entry: harmonic_continued's bits everywhere, where
        # np.log is an ulp off on ~1e-4 of arguments
        rng = np.random.default_rng(35)
        log_uniform = np.exp(rng.uniform(math.log(1e-9), math.log(1e12 + 1.0), 100_000)) - 1.0
        for x in (np.array(self.XS), log_uniform, np.arange(3.0, 30_001.0)):
            want = np.array([harmonic_continued(v) for v in x.tolist()])
            assert _bits(harmonic_array(x)) == _bits(want)
        for x in self.XS:
            assert _bits(harmonic_array(np.array(x))) == _bits(harmonic_continued(x)), x

    @pytest.mark.parametrize("log", [None, np.log])
    def test_any_memory_layout(self, log):
        # a transposed (Fortran-ordered) grid and a strided view are read
        # entry for entry as the contiguous array, and left as they were
        x = np.linspace(-0.5, 30.0, 24)
        want = harmonic_array(x, log)
        for grid, same in ((x.reshape(4, 6).T, want.reshape(4, 6).T), (np.repeat(x, 2)[::2], want)):
            before = _bits(grid)
            assert not grid.flags.c_contiguous
            assert _bits(harmonic_array(grid, log)) == _bits(same)
            assert _bits(grid) == before


# The pow route of each family that skips pow at s = 0, written out.
_POW_ROUTE = {
    LengthKind.INSCRIBED: lambda xp, s, x: 2.0 * xp.pow(x, -s) * xp.sin(math.pi / x),
    LengthKind.CIRCUMSCRIBED: lambda xp, s, x: 2.0 * xp.pow(x, -s) * xp.tan(math.pi / x),
    LengthKind.AREA: lambda xp, s, x: xp.sqrt(4.0 * xp.pow(x, -s) * xp.tan(math.pi / x) / x),
}


class TestFormulaAtZero:
    XS = [2.000000000000001, 2.5, 3.0, 7.25, 41.0, 1e5 + 0.5, 2.0**53, 1e300,
          *np.exp(np.random.default_rng(7).uniform(math.log(2.05), math.log(1e7), 2000)).tolist()]

    @pytest.mark.parametrize("kind", list(_POW_ROUTE))
    @pytest.mark.parametrize("s", [0.0, -0.0])
    def test_zero_exponent_keeps_the_pow_route_bits(self, kind, s):
        route = _POW_ROUTE[kind]
        side = _formula(kind, s)
        for x in self.XS:
            assert repr(side(x)) == repr(route(math, s, x)), x
        x = np.array(self.XS)
        assert _bits(_formula(kind, s, _ARRAY)(x)) == _bits(route(_ARRAY, s, x))

    def test_zero_exponent_skips_the_pow(self, monkeypatch):
        # one pow per entry is the cost left out
        def refuse(*args):
            raise AssertionError("pow")

        monkeypatch.setattr(_arrays._ARRAY, "pow", refuse)
        x = np.array(self.XS)
        for kind in _POW_ROUTE:
            _formula(kind, 0.0, _ARRAY)(x)
            with pytest.raises(AssertionError, match="pow"):
                _formula(kind, 1.0, _ARRAY)(x)
