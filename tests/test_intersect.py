import cmath
import math
import time

import numpy as np
import pytest

from ngonspiral import intersect
from ngonspiral.cli import main
from ngonspiral.intersect import _crossing_candidates, self_intersections
from ngonspiral.telescoping import PHI, center_closed, q_closed


def limacon(t: float) -> complex:
    """r = 1 + 2 cos t; inner-loop crossing at the origin, t = 2pi/3, 4pi/3."""
    r = 1.0 + 2.0 * math.cos(t)
    return r * complex(math.cos(t), math.sin(t))


class TestKnownCurves:
    def test_injective_curve_has_no_intersections(self):
        assert self_intersections(lambda t: complex(t, 0.0), 1.0, 5.0, step=0.01) == []

    def test_limacon_origin_crossing(self):
        hits = self_intersections(limacon, 0.0, 2.0 * math.pi, step=5e-3)
        assert len(hits) == 1
        hit = hits[0]
        assert abs(hit.a - 2.0 * math.pi / 3.0) < 1e-9
        assert abs(hit.b - 4.0 * math.pi / 3.0) < 1e-9
        assert abs(hit.point) < 1e-9
        assert hit.residual < 1e-10

    def test_one_crossing_seen_from_several_pairs_is_one_hit(self, monkeypatch):
        # the nodal cubic meets itself at t = -1 and 1; at step 0.5 the grid
        # crosses there at 4 segment pairs, whose refinements all land on
        # (-1, 1) and are merged into one hit
        def cubic(t: float) -> complex:
            return complex(t * t - 1.0, t * (t * t - 1.0))

        refined, refine = [], intersect._newton_refine
        monkeypatch.setattr(intersect, "_newton_refine", lambda *args: refined.append(args) or refine(*args))
        hits = self_intersections(cubic, -2.0, 2.0, step=0.5)
        assert len(refined) == 4
        assert hits == [intersect.Intersection(-1.0, 1.0, 0j, 0.0)]

    def test_centers_curve_golden_intersection(self):
        hits = self_intersections(center_closed, 1.05, 6.0, step=2e-3)
        assert len(hits) == 1
        hit = hits[0]
        assert abs(hit.a - PHI) < 1e-8
        assert abs(hit.b - (PHI + 1.0)) < 1e-8

    def test_q_curve_passes_origin_twice(self):
        hits = self_intersections(q_closed, 1.05, 6.0, step=2e-3)
        match = [
            h
            for h in hits
            if abs(h.a - 4.0 / 3.0) < 1e-6 and abs(h.b - 4.0) < 1e-6
        ]
        assert len(match) == 1
        assert abs(match[0].point) < 1e-8


class TestLargeParameters:
    @pytest.mark.parametrize("t0", [2e10, 1e12])
    def test_a_vanishing_difference_step_drops_the_candidate(self, t0):
        # at |t| >= 2^34, t +- _FD_STEP rounds back to t: no slope can be
        # formed, so each candidate is dropped instead of dividing by zero
        def shifted(t: float) -> complex:
            return limacon(t - t0)

        assert t0 + intersect._FD_STEP == t0
        assert self_intersections(shifted, t0, t0 + 6.3, step=0.01) == []

    @pytest.mark.parametrize("t0", [1e6, 1.6e10])
    def test_a_crossing_is_kept_within_the_parameters_rounding(self, t0):
        # ulp(t0) |curve'| passes the tolerance 1e-10 (ulp(1e6) = 1.2e-10,
        # ulp(1.6e10) = 1.9e-6), so no Newton step closes the gap to it: each
        # of the 4 hits of t0 = 1 is kept (3 of them were at 1e6, none at
        # 1.6e10), the origin crossing (2 pi/3, 4 pi/3) within 8 ulp(t0) and
        # past the tolerance, and each residual within the tolerance or the
        # rounding of its parameters, |limacon'| < 4
        def shifted(t: float) -> complex:
            return limacon(t - t0)

        ref = self_intersections(lambda t: limacon(t - 1.0), 1.0, 7.3, step=0.01)
        hits = self_intersections(shifted, t0, t0 + 6.3, step=0.01)
        assert len(hits) == len(ref) == 4
        origin = hits[-1]
        assert abs(origin.a - t0 - 2.0 * math.pi / 3.0) <= 8.0 * math.ulp(t0)
        assert abs(origin.b - t0 - 4.0 * math.pi / 3.0) <= 8.0 * math.ulp(t0)
        assert origin.residual > 1e-10
        for h in hits:
            assert h.residual <= max(1e-10, 16.0 * (math.ulp(h.a) + math.ulp(h.b)))


class TestContracts:
    def test_residuals_reproducible(self):
        hits = self_intersections(limacon, 0.0, 2.0 * math.pi, step=5e-3, tolerance=1e-10)
        for h in hits:
            assert abs(limacon(h.a) - limacon(h.b)) <= 1e-10
            assert h.a < h.b

    def test_separation_threshold(self):
        step = 5e-3
        hits = self_intersections(limacon, 0.0, 2.0 * math.pi, step=step)
        for h in hits:
            assert h.b - h.a >= 1e-3

    def test_halving_step_keeps_discoveries(self):
        coarse = self_intersections(limacon, 0.0, 2.0 * math.pi, step=1e-2)
        fine = self_intersections(limacon, 0.0, 2.0 * math.pi, step=5e-3)
        for c in coarse:
            assert any(abs(f.a - c.a) < 1e-6 and abs(f.b - c.b) < 1e-6 for f in fine)

    def test_sorted_deterministic(self):
        a = self_intersections(q_closed, 1.05, 6.0, step=4e-3)
        b = self_intersections(q_closed, 1.05, 6.0, step=4e-3)
        assert a == b
        assert all(x.a <= y.a for x, y in zip(a, a[1:]))

    def test_non_finite_curve_identified(self):
        def bad(t: float) -> complex:
            return complex(float("nan"), 0.0) if t > 2.0 else complex(t, 0.0)

        with pytest.raises(ValueError, match="not finite"):
            self_intersections(bad, 1.0, 3.0, step=0.1)

    def test_near_miss_candidates_are_dropped(self, monkeypatch):
        # A circle inside the unit circle, 1e-4 from touching it: at this
        # step chords of the unit circle cut the inner polygon, and Newton
        # cannot close those candidates, so nothing is reported.
        def nested(t: float) -> complex:
            if t <= 2.0 * math.pi:
                return cmath.exp(1j * t)
            return 0.4999 + 0.5 * cmath.exp(1j * (t - 2.0 * math.pi))

        outcomes = []
        newton = intersect._newton_refine

        def recorded(*args):
            outcomes.append(newton(*args))
            return outcomes[-1]

        monkeypatch.setattr(intersect, "_newton_refine", recorded)
        assert self_intersections(nested, 0.0, 4.0 * math.pi, step=0.2) == []
        assert None in outcomes

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            self_intersections(limacon, 2.0, 1.0)
        with pytest.raises(ValueError):
            self_intersections(limacon, 0.0, 1.0, step=-1.0)


def _cmath_limacon(t: float) -> complex:
    return (1.0 + 2.0 * math.cos(t)) * cmath.exp(1j * t)


def _piecewise_limacon(t: float) -> complex:
    """The limacon, its second half as the mirror image of the first."""
    if t > math.pi:
        return limacon(2.0 * math.pi - t).conjugate()
    return limacon(t)


def _shifting_limacon(t: float) -> complex:
    """Shifts its parameter in place, harmless on a float, by one turn."""
    t -= 2.0 * math.pi
    return limacon(t)


def _integer_checking_limacon(t: float) -> complex:
    """Calls a float method that arrays lack."""
    return 3.0 + 0j if t.is_integer() and t == 0.0 else limacon(t)


def _asserting_limacon(t: float) -> complex:
    assert isinstance(t, float)
    return limacon(t)


def _averaging_limacon(t) -> complex:
    """Takes an array, but returns one point for it, at its mean."""
    return limacon(float(np.mean(t)))


class TestCurveProtocol:
    """A curve that maps an array to an array of its shape has its grid read
    in one call; any other curve is read one float at a time."""

    @pytest.mark.parametrize("closed", [center_closed, q_closed])
    def test_closed_form_grid_is_one_call(self, closed):
        calls = []

        def counted(t):
            calls.append(np.shape(t))
            return closed(t)

        lo, hi, step = 1.05, 6.0, 3e-3
        hits = self_intersections(counted, lo, hi, step=step)
        grid = math.ceil((hi - lo) / step) + 1
        assert calls[0] == (grid,)
        assert all(shape == () for shape in calls[1:])
        assert hits

    def test_a_refinement_reads_the_curve_only_at_its_steps(self):
        # the golden crossing at step 2e-3 is one candidate and one Newton
        # step: the seed pair, four difference points and the accepted pair.
        # The reported point and residual reuse the last pair's readings.
        calls = []

        def counted(t):
            calls.append(np.shape(t))
            return center_closed(t)

        [hit] = self_intersections(counted, 1.05, 6.0, step=2e-3)
        assert calls.count(()) == 8
        assert hit.residual == abs(center_closed(hit.a) - center_closed(hit.b))
        assert hit.point == 0.5 * (center_closed(hit.a) + center_closed(hit.b))

    @pytest.mark.parametrize("curve", [limacon, _cmath_limacon, _piecewise_limacon, _averaging_limacon,
                                       _shifting_limacon, _integer_checking_limacon, _asserting_limacon])
    def test_scalar_only_curves_are_read_point_by_point(self, curve):
        ts, pts = intersect._sample(curve, 0.0, 6.0, 5e-3)
        assert ts.tolist() == np.linspace(0.0, 6.0, len(ts)).tolist()
        assert pts.tolist() == [curve(t) for t in ts.tolist()]
        [hit] = self_intersections(curve, 0.0, 6.0, step=5e-3)
        assert abs(hit.a - 2.0 * math.pi / 3.0) < 1e-9
        assert abs(hit.b - 4.0 * math.pi / 3.0) < 1e-9
        assert hit.residual <= 1e-10

    @pytest.mark.parametrize("closed, lo, hi", [(center_closed, 1.05, 6.0), (q_closed, 1.05, 6.0),
                                                (q_closed, 1.02, 35.0)])
    def test_array_curve_and_its_scalar_wrapper_agree(self, closed, lo, hi):
        def scalar_only(t: float) -> complex:
            return closed(float(t))

        for step in (1e-2, 3e-3):
            assert self_intersections(closed, lo, hi, step=step) == self_intersections(
                scalar_only, lo, hi, step=step
            )

    def test_non_finite_array_sample_identified(self):
        def bad(t):
            return np.where(np.asarray(t) > 2.0, np.nan, t) + 0j

        with pytest.raises(ValueError, match="not finite at parameter"):
            self_intersections(bad, 1.0, 3.0, step=0.1)

    def test_error_on_the_array_comes_back_on_the_loop(self):
        with pytest.raises(ValueError, match="center_closed requires a finite n > 1"):
            self_intersections(center_closed, 0.5, 3.0, step=0.1)


def _overlap(a0, a1, b0, b1):
    """Whether the intervals [a0, a1] and [b0, b1] (either order) meet."""
    return (np.minimum(a0, a1) <= np.maximum(b0, b1)) & (
        np.minimum(b0, b1) <= np.maximum(a0, a1)
    )


def _segments_meet(p0, p1, q0, q1):
    """The whole segment predicate, which the scan splits into its box
    tests and intersect._segments_cross: the bounding boxes overlap on both
    axes and the inclusive orientation tests pass."""
    r = p1 - p0
    s = q1 - q0
    d1 = r.real * (q0.imag - p0.imag) - r.imag * (q0.real - p0.real)
    d2 = r.real * (q1.imag - p0.imag) - r.imag * (q1.real - p0.real)
    d3 = s.real * (p0.imag - q0.imag) - s.imag * (p0.real - q0.real)
    d4 = s.real * (p1.imag - q0.imag) - s.imag * (p1.real - q0.real)
    return (
        (d1 * d2 <= 0.0)
        & (d3 * d4 <= 0.0)
        & _overlap(p0.real, p1.real, q0.real, q1.real)
        & _overlap(p0.imag, p1.imag, q0.imag, q1.imag)
    )


def _brute_force_candidates(pts: np.ndarray) -> list[tuple[int, int]]:
    """Every pair (i, j), j > i + 1, that the whole segment predicate accepts."""
    n_seg = len(pts) - 1
    return [
        (i, j)
        for i in range(n_seg)
        for j in range(i + 2, n_seg)
        if _segments_meet(pts[i], pts[i + 1], pts[j], pts[j + 1])
    ]


class TestSweepScan:
    def test_matches_brute_force_on_lattice_polylines(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # A 4 x 4 lattice makes collinear overlaps and gaps, touching and
        # repeated vertices and axis-parallel runs common.  Small pair
        # budgets split the sweep into many blocks.
        lattice = st.tuples(st.integers(0, 3), st.integers(0, 3))

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.lists(lattice, min_size=2, max_size=24), st.integers(1, 64))
        def check(points, budget):
            monkeypatch.setattr(intersect, "_PAIR_BUDGET", budget)
            pts = np.array([complex(x, y) for x, y in points])
            assert _crossing_candidates(pts) == _brute_force_candidates(pts)

        check()

    def test_matches_brute_force_on_float_walks(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # Random walks, stretched along x or along y so that both axes are
        # swept and the other one is left to the cross-axis mask.
        steps = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.lists(steps, min_size=1, max_size=40), st.floats(0.05, 20.0), st.integers(1, 64))
        def check(walk, stretch, budget):
            monkeypatch.setattr(intersect, "_PAIR_BUDGET", budget)
            pts = np.cumsum([0j] + [complex(stretch * dx, dy) for dx, dy in walk])
            assert _crossing_candidates(pts) == _brute_force_candidates(pts)

        check()

    def test_both_sweep_axes_are_drawn(self):
        # a walk wider in x sweeps x and one wider in y sweeps y; the float
        # walks above draw both (stretch below and above 1)
        rng = np.random.default_rng(5)
        for stretch in (0.1, 10.0):
            pts = np.cumsum(stretch * rng.uniform(-1, 1, 60) + 1j * rng.uniform(-1, 1, 60))
            assert (np.ptp(pts.real) >= np.ptp(pts.imag)) == (stretch > 1.0)
            assert _crossing_candidates(pts) == _brute_force_candidates(pts)

    def test_collinear_segments_count_only_where_they_meet(self):
        # Segments 0 and 4 lie on the x-axis with a gap between them.
        gap = np.array([0, 1, 1 + 1j, 2 + 1j, 2, 3], dtype=complex)
        assert _crossing_candidates(gap) == []
        # Segment 4 overlaps segment 0 on [1, 2]; segment 3 ends on
        # segment 0 and segment 4 passes through the start of segment 1.
        overlap = np.array([0, 2, 2 + 1j, 1 + 1j, 1, 3], dtype=complex)
        assert _crossing_candidates(overlap) == [(0, 3), (0, 4), (1, 4)]

    def test_candidate_cap_is_exact(self, monkeypatch):
        overlap = np.array([0, 2, 2 + 1j, 1 + 1j, 1, 3], dtype=complex)
        monkeypatch.setattr(intersect, "_MAX_CANDIDATES", 3)
        assert len(_crossing_candidates(overlap)) == 3
        monkeypatch.setattr(intersect, "_MAX_CANDIDATES", 2)
        with pytest.raises(ValueError, match="more than 2 segment pairs"):
            _crossing_candidates(overlap)

    def test_a_grid_crossing_itself_everywhere_is_refused(self, monkeypatch):
        # Q_L flips sign at every integer, so at step 1 nearly all of the
        # ~2e6 segment pairs cross (~0.3 ms of Newton each); the scan
        # refuses the grid before any refinement
        def refuse(*args):
            raise AssertionError("a candidate was refined")

        monkeypatch.setattr(intersect, "_newton_refine", refuse)
        with pytest.raises(ValueError, match="too coarse"):
            self_intersections(q_closed, 2.0, 2049.0, step=1.0)

    def test_vertical_straight_run_has_no_intersections(self):
        assert self_intersections(lambda t: complex(0.3, -1.2 + t), 0.0, 1.0, step=0.01) == []

    def test_long_vertical_run_sweeps_along_its_length(self):
        pts = 0.3 + 1j * np.linspace(0.0, 1.0, 100_001)
        start = time.perf_counter()
        assert _crossing_candidates(pts) == []
        assert time.perf_counter() - start < 1.0


class TestGridGuard:
    @pytest.fixture(autouse=True)
    def _no_sampling(self, monkeypatch):
        # A guard that failed to fire must not go on to build the grid.
        def refuse(*args):
            raise AssertionError("the grid was sampled")

        monkeypatch.setattr(intersect, "_sample", refuse)

    def test_tiny_step_refused(self):
        with pytest.raises(ValueError, match="samples"):
            self_intersections(limacon, 1.05, 6.0, step=1e-9)

    def test_cap_is_exact(self, monkeypatch):
        monkeypatch.setattr(intersect, "_MAX_SAMPLES", 11)
        with pytest.raises(AssertionError, match="sampled"):
            self_intersections(limacon, 0.0, 1.0, step=0.1)
        with pytest.raises(ValueError, match="samples"):
            self_intersections(limacon, 0.0, 1.0, step=0.099)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lo": float("nan")},
            {"hi": float("inf")},
            {"lo": float("-inf")},
            {"step": float("nan")},
            {"step": float("inf")},
            {"tolerance": float("inf")},
            {"tolerance": float("nan")},
        ],
    )
    def test_non_finite_inputs_refused(self, kwargs):
        args = {"lo": 0.0, "hi": 1.0, "step": 0.1, **kwargs}
        with pytest.raises(ValueError, match="finite"):
            self_intersections(limacon, **args)

    def test_cli_tiny_step_is_usage_error(self, capsys):
        assert main(["intersect", "--curve", "centers", "--lo", "1.05", "--hi", "6", "--step", "1e-9"]) == 1
        assert "samples" in capsys.readouterr().err
