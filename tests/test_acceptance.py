"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Frozen reference constants come from independent
oracles (high-precision summation, closed forms, asymptotic expansions)
computed before the implementation under test.
"""

import math
import time
import xml.etree.ElementTree as ET

import pytest
import scipy.special as sp

from ngonspiral.cli import main as cli_main
from ngonspiral.convergence import (
    Divergent,
    limit_point,
    orbit_center,
    orbit_distance_law,
)
from ngonspiral.figures import fig_orbit, fig_spiral, fig_telescope, fig_wcurve
from ngonspiral.intersect import self_intersections
from ngonspiral.lengthfns import inscribed, power_law, telescoping
from ngonspiral.numerics import AccelerationSettings
from ngonspiral.render import render_svg, view_transform
from ngonspiral.spiral import polygon, unit_phase, vertex, vertex_at
from ngonspiral.telescoping import (
    PHI,
    center_closed,
    q_real_limit_estimate,
    vertex_closed,
    verify_telescoping_identity,
)
from oracles import (
    bound_A,
    bound_B,
    convex_intersection_area,
    golden_intersection_point,
    harmonic_number,
    paired_terms,
    theta,
)

SVG_NS = "{http://www.w3.org/2000/svg}"

# reference orbit center, digits frozen from a 60-dps oracle
ORBIT_CENTER = complex(1.21711960256553, 2.68541404871695)
Q_LIMIT = 4.0 * (1.0 - math.pi**2 / 6.0)

TIGHT = AccelerationSettings(target_tolerance=1e-13, max_terms=600)


def report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def agrees_to_digits(value: float, reference: float, digits: int) -> bool:
    scale = 10.0 ** (math.floor(math.log10(abs(reference))) - digits + 1)
    return abs(value - reference) <= 0.5 * scale


def test_criterion_01_telescoping_identity():
    t0 = time.perf_counter()
    residual = verify_telescoping_identity(2000)
    elapsed = time.perf_counter() - t0
    report(
        1,
        residual < 1e-10 and elapsed < 1.0,
        "telescoping identity, direct sum vs closed form, n in [3, 2000]",
        f"max residual {residual:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_unit_circle_law():
    import random

    t0 = time.perf_counter()
    rng = random.Random(20221111)
    worst = 0.0
    for _ in range(10_000):
        n = 1.01 + rng.random() * 98.99
        worst = max(worst, abs(abs(vertex_closed(n) + 1.0) - 1.0))
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst < 1e-12 and elapsed < 1.0,
        "unit-circle law ||V_L(n)+1| - 1| on 1e4 samples of (1.01, 100]",
        f"max {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_03_orbit_center_digits():
    t0 = time.perf_counter()
    res = orbit_center()
    elapsed = time.perf_counter() - t0
    ok_digits = (
        res.converged
        and agrees_to_digits(res.value.real, ORBIT_CENTER.real, 10)
        and agrees_to_digits(res.value.imag, ORBIT_CENTER.imag, 10)
    )
    # the raw s = 1e-8 surrogate sits within the documented 1e-7 band
    surrogate = limit_point(1e-8, TIGHT)
    ok_surrogate = abs(surrogate.value - res.value) < 1e-7
    report(
        3,
        ok_digits and ok_surrogate and elapsed < 30.0,
        "orbit center matches the reference digits to >= 10 significant digits",
        f"{res.value.real:.13f} + {res.value.imag:.13f}i, "
        f"|surrogate - center| {abs(surrogate.value - res.value):.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_orbit_radius():
    t0 = time.perf_counter()
    orbit_vertices = vertex_at(power_law(0.0), (10**6, 10**6 + 1))
    center = orbit_center().value
    even = abs(orbit_vertices[10**6] - center)
    odd = abs(orbit_vertices[10**6 + 1] - center)
    elapsed = time.perf_counter() - t0
    ok = abs(even - 0.5) < 5e-3 and abs(odd - 0.5) < 5e-3
    report(
        4,
        ok and elapsed < 30.0,
        "orbit radius 1/2 at even and odd indices near 1e6",
        f"even {even:.6f}, odd {odd:.6f}, {elapsed:.2f}s",
    )


def test_criterion_05_orbit_distance_law():
    t0 = time.perf_counter()
    empirical, predicted = orbit_distance_law(2.0, 10**5)
    elapsed = time.perf_counter() - t0
    report(
        5,
        abs(empirical - predicted) < 1e-2 and elapsed < 30.0,
        "orbit distance law |U(2n) - U(n)| vs |sin(2 pi ln 2)| at n = 1e5",
        f"empirical {empirical:.6f}, predicted {predicted:.6f}, {elapsed:.2f}s",
    )


def test_criterion_06_bound_suite():
    import random

    rng = random.Random(6181)
    ok = True
    for _ in range(200):
        j = rng.randint(2, 10**6)
        s = rng.uniform(1e-9, 1.0)
        a = bound_A(j, s)
        ok = ok and 0.0 < a < s
        ok = ok and bound_B(j) < bound_B(j + 1) < 4.0 * math.pi
    worst_margin = math.inf
    for s in (0.25, 0.5, 1.0):
        cap = (4.0 * math.pi + s) * 2.0 ** (-1.0 - s) * sp.zeta(1.0 + s, 1.5)
        total = 0.0
        for jf in paired_terms(s):
            total += abs(jf.value)
            if total >= cap:
                ok = False
                break
            if jf.j >= 10**5:
                break
        worst_margin = min(worst_margin, cap - total)
    report(
        6,
        ok,
        "bound suite: 0 < A < s, B increasing below 4 pi, sum |F| under the zeta cap",
        f"slack at N=1e5 {worst_margin:.4f}",
    )


def test_criterion_07_golden_intersection():
    golden_gap = abs(center_closed(PHI) - center_closed(PHI + 1.0))
    hits = self_intersections(center_closed, 1.05, 6.0, step=1e-3)
    ok_pair = (
        len(hits) == 1
        and abs(hits[0].a - PHI) < 1e-8
        and abs(hits[0].b - (PHI + 1.0)) < 1e-8
    )
    compact_residual = abs(golden_intersection_point() - center_closed(PHI))
    report(
        7,
        golden_gap < 1e-10 and ok_pair and compact_residual < 1e-10,
        "golden-ratio intersection of the centers curve at (phi, phi+1)",
        f"|C(phi)-C(phi+1)| {golden_gap:.2e}, recovered "
        f"({hits[0].a:.10f}, {hits[0].b:.10f}), compact-form residual {compact_residual:.2e}",
    )


def test_criterion_08_q_limit():
    est = q_real_limit_estimate()
    err = abs(est - Q_LIMIT)
    report(
        8,
        err < 1e-3,
        "Richardson limit of Re Q_L(1+10^-k) hits 4(1 - pi^2/6)",
        f"estimate {est:.9f}, target {Q_LIMIT:.9f}, err {err:.2e}",
    )


def test_criterion_09_theta_consistency():
    worst_rec = 0.0
    for n in range(2, 10_001):
        res = (
            theta(n + 1.0)
            - theta(float(n))
            - (n - 2) * math.pi / n
            - (n - 1) * math.pi / (n + 1)
            + math.pi
        )
        worst_rec = max(worst_rec, abs(res))
    import cmath

    worst_sign = 0.0
    for k in range(2, 10_001):
        lhs = cmath.exp(1j * theta(float(k)))
        rhs = unit_phase(float(k), harmonic_number(k))
        if k % 2:
            rhs = -rhs
        worst_sign = max(worst_sign, abs(lhs - rhs))
    report(
        9,
        worst_rec < 1e-9 and worst_sign < 1e-10,
        "theta closed form vs recurrence and sign identity, n <= 1e4",
        f"recurrence {worst_rec:.3e}, sign identity {worst_sign:.3e}",
    )


def test_criterion_10_polygon_geometry():
    f = power_law(1.0)
    polys = {n: polygon(f, n) for n in range(3, 13)}
    verts = vertex_at(f, range(2, 13))
    worst_shared = 0.0
    worst_side = 0.0
    worst_area = 0.0
    for n, pg in polys.items():
        worst_shared = max(worst_shared, abs(pg.vertices[1] - verts[n - 1]))
        side = abs(f(float(n)))
        for i in range(n):
            edge = abs(pg.vertices[(i + 1) % n] - pg.vertices[i])
            worst_side = max(worst_side, abs(edge - side))
    for n in range(3, 12):
        worst_area = max(
            worst_area,
            convex_intersection_area(polys[n].vertices, polys[n + 1].vertices),
        )
    report(
        10,
        worst_shared < 1e-10 and worst_side < 1e-10 and worst_area < 1e-12,
        "polygon geometry: shared vertices, equal sides, disjoint interiors",
        f"shared {worst_shared:.2e}, sides {worst_side:.2e}, overlap {worst_area:.2e}",
    )


def test_criterion_11_cauchy_and_divergence_probes():
    f = inscribed(-0.5)
    v = vertex_at(f, (1_000, 2_000, 10_000, 20_000, 100_000, 200_000))
    gaps = [
        abs(v[2_000] - v[1_000]),
        abs(v[20_000] - v[10_000]),
        abs(v[200_000] - v[100_000]),
    ]
    cauchy_ok = gaps[-1] < 5e-2 and gaps[0] > gaps[1] > gaps[2]
    from ngonspiral.convergence import classify

    divergent_ok = isinstance(classify(power_law(-0.5)), Divergent)
    report(
        11,
        cauchy_ok and divergent_ok,
        "inscribed{-0.5} vertex sequence Cauchy; power{-0.5} classified Divergent",
        "gaps " + ", ".join(f"{g:.4f}" for g in gaps),
    )


def _check_markers(scene, tables, svg_text, groups):
    """Every emitted marker must invert to its computed point within 0.5 px."""
    tr = view_transform(scene)
    root = ET.fromstring(svg_text)
    found = {g.get("id"): g for g in root.iter(f"{SVG_NS}g")}
    worst = 0.0
    for name in groups:
        group = found[f"points-{name}"]
        circles = list(group.iter(f"{SVG_NS}circle"))
        expected = [z for _, z in tables[name]]
        assert len(circles) == len(expected)
        for c, z in zip(circles, expected):
            px, py = tr.to_px(z)
            worst = max(
                worst, math.hypot(float(c.get("cx")) - px, float(c.get("cy")) - py)
            )
    return worst


def test_criterion_12_figure_generation(tmp_path):
    worst = 0.0

    scene, tables = fig_spiral(power_law(1.0), 9)
    worst = max(worst, _check_markers(scene, tables, render_svg(scene), ["vertices"]))

    scene, tables = fig_orbit()
    worst = max(
        worst,
        _check_markers(
            scene, tables, render_svg(scene), ["vertices", "orbit-center"]
        ),
    )

    scene, tables, samples = fig_wcurve(0.0000726, 1.77, 10)
    endpoints_ok = (
        abs(samples[0].s - 0.0000726) < 1e-15
        and abs(samples[-1].s - 1.77) < 1e-15
        and all(c.result.converged for c in samples)
    )
    worst = max(worst, _check_markers(scene, tables, render_svg(scene), ["W"]))

    scene, tables = fig_telescope()
    worst = max(
        worst, _check_markers(scene, tables, render_svg(scene), ["vertices", "centers"])
    )

    # the CLI route writes the same figures and parses as XML
    cli_ok = True
    for args, fname in [
        (["build", "--length", "power:1", "--max-n", "9"], "fig2.svg"),
        (["orbit"], "fig3a.svg"),
        (["curve", "--s-min", "0.0000726", "--s-max", "1.77", "--samples", "10"], "fig3b.svg"),
        (["telescope"], "fig4a.svg"),
    ]:
        out = tmp_path / fname
        code = cli_main(args + ["--out", str(out)])
        cli_ok = cli_ok and code == 0
        ET.parse(out)

    report(
        12,
        worst < 0.5 and endpoints_ok and cli_ok,
        "build/orbit/curve/telescope SVGs well-formed, markers invert, curve endpoints evaluated",
        f"worst marker deviation {worst:.2e} px",
    )
