import pytest

from ngonspiral import convergence, figures
from ngonspiral.figures import fig_orbit, fig_spiral, fig_telescope, fig_wcurve
from ngonspiral.lengthfns import power_law, telescoping
from ngonspiral.spiral import polygon


def test_figure_polygons_match_polygon():
    # figures build their polygons from one vertex stream; each must equal
    # the standalone polygon(f, n) exactly
    spiral_scene, _ = fig_spiral(power_law(1.0), 30, with_interpolant=False)
    orbit_scene, _ = fig_orbit()
    tele_scene, tele_tables = fig_telescope(15)
    cases = [
        (spiral_scene, power_law(1.0), 30),
        (orbit_scene, power_law(0.0), 10),
        (tele_scene, telescoping(), 15),
    ]
    for scene, f, max_n in cases:
        assert [p.n for p in scene.polygons] == list(range(3, max_n + 1))
        for p in scene.polygons:
            assert p == polygon(f, p.n)
    assert tele_tables["centers"] == [(float(p.n), p.center) for p in tele_scene.polygons]


class TestSizeCaps:
    @pytest.fixture(autouse=True)
    def _no_work(self, monkeypatch):
        # A guard that failed to fire must not go on to the huge job.
        def refuse(*args):
            raise AssertionError("the work was started")

        monkeypatch.setattr(figures, "vertex_at", refuse)
        monkeypatch.setattr(convergence, "limit_point", refuse)

    @pytest.mark.parametrize(
        "build",
        [lambda n: fig_spiral(power_law(1.0), n), fig_telescope],
        ids=["spiral", "telescope"],
    )
    def test_polygon_cap_is_exact(self, build):
        cap = figures._MAX_POLYGON
        with pytest.raises(AssertionError, match="started"):
            build(cap)
        with pytest.raises(ValueError, match="max_n"):
            build(cap + 1)

    def test_wcurve_dense_grid_refused_before_any_sample(self):
        # the dense grid has 4x the samples, so it meets the cap first
        cap = convergence._MAX_CURVE_SAMPLES // 4
        with pytest.raises(AssertionError, match="started"):
            fig_wcurve(0.5, 1.0, cap)
        with pytest.raises(ValueError, match="samples"):
            fig_wcurve(0.5, 1.0, cap + 1)
