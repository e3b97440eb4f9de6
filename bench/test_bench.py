"""Tests of the benchmark itself.

    python3 -m pytest bench -q

* every check rejects a deliberately perturbed output;
* every pool entry a seed can draw passes its check (so no seed fails);
* a short run of the command passes all checks and prints the contract's
  JSON line, and the command fails without the program's source;
* the stored mpmath table is reproduced by the reference command.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from ngonspiral import convergence, intersect, lengthfns, spiral, telescoping  # noqa: E402

import pools  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

TABLE = wl.Table()


# --- perturbed outputs are rejected --------------------------------------


def test_accelerated_check_rejects_offsets_and_flags():
    s = pools.s_pool()[100]
    res = convergence.limit_point(s)
    check = wl._accel_check(TABLE.w(s))
    assert check(res) is None
    shift = 3.0 * wl.ERR_MULTIPLE * res.error_estimate + 1e-12
    assert check(dataclasses.replace(res, value=res.value + shift))
    assert check(dataclasses.replace(res, converged=False))


def test_vertex_and_polygon_checks_reject_perturbations():
    ops = [op for op in wl.series_ops(5, TABLE) if op.name in ("vertex", "polygon")]
    for op in ops[:6]:
        out = op.call()
        assert op.check(out) is None
        if op.name == "vertex":
            assert op.check(out + 1e-11)
        else:
            verts = list(out.vertices)
            verts[2] += 1e-6
            assert op.check(dataclasses.replace(out, vertices=tuple(verts)))
            assert op.check(dataclasses.replace(out, vertices=out.vertices[:-1]))
            swapped = (out.vertices[1], out.vertices[0]) + out.vertices[2:]
            assert op.check(dataclasses.replace(out, vertices=swapped))


def test_classify_check_rejects_wrong_classes():
    s = pools.s_pool()[500]
    point = convergence.classify(lengthfns.power_law(s))
    check = wl._classify_check("power", TABLE, s)
    assert check(point) is None
    assert check(dataclasses.replace(point, value=point.value + 1e-9))
    orbit = convergence.classify(lengthfns.power_law(0.0))
    assert wl._classify_check("power:0", TABLE, None)(orbit) is None
    assert wl._classify_check("power:0", TABLE, None)(dataclasses.replace(orbit, radius=0.25))
    tele = convergence.classify(lengthfns.telescoping())
    assert wl._classify_check("telescoping", TABLE, None)(tele) is None
    assert wl._classify_check("telescoping", TABLE, None)(dataclasses.replace(tele, center=-1 + 1e-8j))
    assert wl._classify_check("power:-1", TABLE, None)(point)
    assert wl._classify_check("power", TABLE, s)(orbit)


def test_deep_checks_reject_perturbations():
    for spec, pool in pools.deep_index_pool().items():
        indices = pool[:2]
        out = spiral.vertex_at(lengthfns.parse_length(spec), indices)
        check = wl._deep_check(spec, TABLE, indices)
        assert check(out) is None
        bad = dict(out)
        bad[indices[1]] += 1e-10
        assert check(bad)
        assert check({indices[0]: out[indices[0]]})
    # the circle checks hold apart from the table: a vertex moved along its
    # radius (table moved with it) still fails
    n = next(i for i in pools.deep_index_pool()["power:0"] if i % 2 == 0)
    center = TABLE.orbit_center()
    moved = center + (TABLE.deep("power:0", n) - center) * (1 + 3 * wl.CIRCLE_C / n)
    shifted = _TableWith(TABLE, ("power:0", n), moved)
    assert wl._deep_check("power:0", shifted, [n])({n: moved})
    n = pools.deep_index_pool()["telescoping"][0]
    moved = TABLE.deep("telescoping", n) * (1 + 1e-9)
    assert wl._deep_check("telescoping", _TableWith(TABLE, ("telescoping", n), moved), [n])({n: moved})


class _TableWith:
    """TABLE with one deep reference value replaced."""

    def __init__(self, base, key, value):
        self.base, self.key, self.value = base, key, value

    def deep(self, spec, n):
        return self.value if (spec, n) == self.key else self.base.deep(spec, n)

    def orbit_center(self):
        return self.base.orbit_center()


def test_identity_and_law_checks_reject_perturbations():
    op = next(o for o in wl.deep_ops(3, TABLE) if o.name == "verify_telescoping_identity")
    assert op.check(5e-12) is None
    assert op.check(2e-10)
    r, n = 2.0, pools.ORBIT_LAW_N[2.0][0]
    out = convergence.orbit_distance_law(r, n)
    check = wl._law_check(TABLE, r, n)
    assert check(out) is None
    assert check((out[0] + 1e-9, out[1]))
    assert check((out[0], out[1] + 1e-9))


def test_crossing_checks_reject_perturbations():
    for case, curve, lo, hi, step, expect in wl.crossing_cases(7):
        if case.startswith("straight"):
            continue
        hits = intersect.self_intersections(curve, lo, hi, step=step)
        check = wl.crossing_check(TABLE, curve, lo, hi, expect)
        assert check(hits) is None, case
        moved = [dataclasses.replace(hits[0], a=hits[0].a + 1e-7)] + hits[1:]
        assert check(moved), case
        assert check(hits[1:]), case
        assert check(hits + hits[:1]), case
    for case, curve, lo, hi, step, expect in wl.crossing_cases(7)[-2:]:
        assert wl.crossing_check(TABLE, curve, lo, hi, expect)(intersect.self_intersections(curve, lo, hi, step=step)) is None
        fake = intersect.Intersection(0.1, 0.9, 0j, 0.0)
        assert wl.crossing_check(TABLE, curve, lo, hi, expect)([fake]), case


def test_taylor_residual_is_checked():
    rows = TABLE.crossings("q")
    exact = [intersect.Intersection(r["a"], r["b"], r["c_a"], 0.0) for r in rows]
    check = wl._known_hits_check(TABLE, "q", 1.2, 5.8)
    assert check(exact) is None
    # inside the parameter tolerance, but the curve gap is far above 1e-10
    exact[1] = dataclasses.replace(exact[1], a=rows[1]["a"] + 5e-9)
    assert check(exact)


@pytest.fixture
def cli_run(tmp_path):
    def go(name):
        argv = wl.README_COMMANDS.get(name, ["classify", "--length", "bogus"])
        return wl.run_cli(argv, tmp_path, wl.child_env())

    return go


def test_cli_checks_reject_perturbations(cli_run):
    for name in ("build", "classify", "interp", "telescope-check"):
        out = cli_run(name)
        check = wl.cli_check(name, TABLE)
        assert check(out) is None, name
    with pytest.raises(RuntimeError, match="exited 1"):
        cli_run("bad-length")
    build = cli_run("build")
    check = wl.cli_check("build", TABLE)
    first = build.svg.index("<polygon")
    end = build.svg.index("/>", first) + 2
    assert check(dataclasses.replace(build, svg=build.svg[:first] + build.svg[end:]))
    assert check(dataclasses.replace(build, svg=build.svg.replace("</svg>", "")))
    row = build.stdout.splitlines()[3].split(",")
    bumped = ",".join(row[:2] + [repr(float(row[2]) + 1e-10)] + row[3:])
    assert check(dataclasses.replace(build, stdout=build.stdout.replace(",".join(row), bumped)))
    tele = cli_run("telescope-check")
    assert wl.cli_check("telescope-check", TABLE)(
        dataclasses.replace(tele, stdout=tele.stdout.replace("PASS", "FAIL", 1)))
    assert wl.cli_check("classify", TABLE)(dataclasses.replace(cli_run("classify"), stdout="Point value=0"))


# --- every input a seed can draw passes -----------------------------------


def test_every_series_pool_entry_passes():
    for s in pools.s_pool():
        assert wl._accel_check(TABLE.w(s))(convergence.limit_point(s)) is None, s
        assert wl._classify_check("power", TABLE, s)(convergence.classify(lengthfns.power_law(s))) is None, s
    for spec, ns in pools.interp_pool().items():
        f = lengthfns.parse_length(spec)
        for n in ns:
            assert wl._accel_check(TABLE.interp(spec, n))(spiral.interpolated_vertex(f, n)) is None, (spec, n)
    for spec in pools.VERTEX_SPECS:
        f = lengthfns.parse_length(spec)
        verts = spiral.vertex_at(f, range(2, pools.VERTEX_N_MAX + 1))
        for n in range(3, pools.VERTEX_N_MAX + 1):
            assert wl._close(spiral.vertex(f, n), TABLE.vertex(spec, n), wl.VERTEX_TOL, "v") is None
            assert verts[n] == spiral.vertex(f, n)
            assert wl._polygon_check(TABLE, spec, f, n)(spiral.polygon(f, n)) is None, (spec, n)
    assert wl._accel_check(TABLE.orbit_center())(convergence.orbit_center()) is None


def test_every_deep_pool_entry_passes():
    for spec, pool in pools.deep_index_pool().items():
        assert len(pool) == pools.DEEP_STRATA * pools.DEEP_PER_STRATUM + 1
        out = spiral.vertex_at(lengthfns.parse_length(spec), pool)
        assert wl._deep_check(spec, TABLE, pool)(out) is None, spec
    # the identity residual is a running maximum, so the largest n_max covers all
    res = telescoping.verify_telescoping_identity(max(pools.IDENTITY_N_MAX))
    assert res < wl.IDENTITY_TOL
    for r, ns in pools.ORBIT_LAW_N.items():
        for n in ns:
            assert wl._law_check(TABLE, r, n)(convergence.orbit_distance_law(r, n)) is None, (r, n)


def _all_crossing_cases():
    for lo in pools.CENTERS_LO:
        yield telescoping.center_closed, lo, lo + pools.CENTERS_WIDTH, "centers"
    for lo in pools.Q_LO:
        yield telescoping.q_closed, lo, lo + pools.Q_WIDTH, "q"
    for lo in pools.FIGURE8_LO:
        yield wl.figure_eight, lo, lo + pools.FIGURE8_WIDTH, [(0.0, math.pi)]
    for b in pools.LIMACON_B:
        t0 = math.acos(-b / pools.LIMACON_A)
        for lo in pools.LIMACON_LO:
            yield wl.limacon(pools.LIMACON_A, b), lo, lo + pools.LIMACON_WIDTH, [(t0, 2 * math.pi - t0)]


def test_every_crossing_offset_passes():
    for curve, lo, hi, expect in _all_crossing_cases():
        check = wl.crossing_check(TABLE, curve, lo, hi, expect)
        for step in pools.CROSSING_STEPS.values():
            hits = intersect.self_intersections(curve, lo, hi, step=step)
            assert check(hits) is None, (curve, lo, step, check(hits))


def test_crossing_cases_are_the_same_work_for_every_seed():
    shapes = {tuple((c[0], round(c[3] - c[2], 12), c[4]) for c in wl.crossing_cases(seed)) for seed in range(20)}
    assert len(shapes) == 1


def test_readme_round_passes(tmp_path):
    ops = wl.build("readme-cli", 1, tmp_path)
    _, results, failed = run.run_pass(ops)
    assert failed == 0
    assert run.check_pass(ops, results) == []


def test_series_pass_is_seeded():
    a = [op.label for op in wl.series_ops(11, TABLE)]
    assert a == [op.label for op in wl.series_ops(11, TABLE)]
    assert a != [op.label for op in wl.series_ops(12, TABLE)]
    assert len(a) == 748


# --- the command ---------------------------------------------------------


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_run_prints_contract_line():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "series-queries", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    doc = _last_json(out.stdout)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] % 748 == 0 and doc["attempted"] >= 3 * 748
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(doc["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["metrics"][m["name"]]["value"] > 0


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "series-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


# --- tracing and the reference table -------------------------------------


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    tracer.call("outer", lambda: [inner() for _ in range(3)])
    summary = tracer.summary()
    assert summary["inner"]["count"] == 3
    outer = summary["outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - summary["inner"]["total_s"])


def test_reference_entries_reproduce():
    mp = pytest.importorskip("mpmath")
    import reference as ref

    stored = json.loads(ref.TABLE.read_text())
    s = pools.s_pool()[7]
    assert ref._cplx(ref.limit_w(s)) == stored["W"][repr(s)]
    assert ref._cplx(ref.limit_w(0)) == stored["orbit_center"]
    spec, ns = next(iter(pools.interp_pool().items()))
    assert ref._cplx(ref.interpolant(spec, ns[3])) == stored["interp"][pools.spec_key(spec, ns[3])]
    n = pools.deep_index_pool()["inscribed:0"][5]
    assert ref._cplx(ref.vertices_deep("inscribed:0", [n])[n]) == stored["deep"]["inscribed:0"][str(n)]
    assert ref._cplx(ref.tele_q(17)) == stored["telescoping"]["Q"]["17"]
    assert mp.mp.dps == ref.DPS
    ref._check_routes()
