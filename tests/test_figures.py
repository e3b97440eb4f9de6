from ngonspiral.figures import fig_orbit, fig_spiral, fig_telescope
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
