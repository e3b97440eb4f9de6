"""The four workloads: seeded operation lists and the checks on their outputs.

A workload is a fixed list of operations built from ``--seed``; one pass
runs the whole list once, in order, one operation at a time.  Each
operation pairs a zero-argument call into the program with a check that
returns ``None`` for a correct output and a message otherwise.  Checks
compare against the mpmath table written by ``reference.py`` or against
properties the construction must have; they never call the program.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ngonspiral import convergence, intersect, lengthfns, spiral, telescoping

import pools

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TABLE = BENCH_DIR / "reference.json"

# --- tolerances -----------------------------------------------------------

# Accelerated sums must sit within this multiple of their own error
# estimate (plus a rounding floor) of the mpmath value.
ERR_MULTIPLE = 2.0
ABS_FLOOR = 1e-13
VERTEX_TOL = 1e-12  # direct compensated sums, n <= 300
DEEP_TOL = 1e-11  # long streams (8e4 to 1.6e5 terms)
ORBIT_CLASS_TOL = 1e-9  # CircularOrbit centers from classify
CIRCLE_C = 2.0  # power:0 even vertices: | |V - c| - 1/2 | <= CIRCLE_C / n
LAW_C = 10.0  # orbit distance law: |empirical - predicted| <= LAW_C / n
IDENTITY_TOL = 1e-10
CROSS_PARAM_TOL = 1e-8
CROSS_TOL = 1e-10  # self_intersections' default tolerance
CLI_ACCEL_TOL = 1e-8  # the CLI's default tolerance for accelerated limits
CLI_CLOSED_TOL = 1e-11


@dataclass
class Op:
    """One timed call and the check on what it returned."""

    name: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


class Table:
    """Read access to the stored mpmath reference values, as doubles."""

    def __init__(self) -> None:
        self.raw = json.loads(TABLE.read_text(encoding="utf-8"))

    @staticmethod
    def _c(pair: list[str]) -> complex:
        return complex(float(pair[0]), float(pair[1]))

    def w(self, s: float) -> complex:
        return self._c(self.raw["W"][repr(s)])

    def orbit_center(self) -> complex:
        return self._c(self.raw["orbit_center"])

    def interp(self, spec: str, n: float) -> complex:
        return self._c(self.raw["interp"][pools.spec_key(spec, n)])

    def vertex(self, spec: str, n: int) -> complex:
        return self._c(self.raw["vertex"][spec][n - 2])

    def center(self, spec: str, n: int) -> complex:
        return self._c(self.raw["center"][spec][n - 3])

    def deep(self, spec: str, n: int) -> complex:
        return self._c(self.raw["deep"][spec][str(n)])

    def tele(self, which: str, n: int) -> complex:
        return self._c(self.raw["telescoping"][which][str(n)])

    def crossings(self, curve: str) -> list[dict]:
        out = []
        for row in self.raw["crossings"][curve]:
            out.append({
                k: (self._c(v) if isinstance(v, list) else float(v)) for k, v in row.items()
            })
        return out


def _accel_check(ref: complex) -> Callable[[Any], str | None]:
    def check(res) -> str | None:
        if not res.converged:
            return "not converged"
        err = abs(res.value - ref)
        bound = ERR_MULTIPLE * res.error_estimate + ABS_FLOOR
        if not err <= bound:
            return f"off by {err:.3e} > {bound:.3e} (estimate {res.error_estimate:.3e})"
        return None

    return check


def _close(got: complex, ref: complex, tol: float, what: str) -> str | None:
    err = abs(got - ref)
    return None if err <= tol else f"{what} off by {err:.3e} > {tol:.1e}"


# --- series-queries -------------------------------------------------------


def _polygon_check(table: Table, spec: str, f, n: int) -> Callable[[Any], str | None]:
    side = abs(f(float(n)))

    def check(p) -> str | None:
        if len(p.vertices) != n:
            return f"{len(p.vertices)} vertices"
        for i in range(n):
            d = abs(p.vertices[(i + 1) % n] - p.vertices[i])
            if abs(d - side) > 1e-9 * max(side, 1e-300) + 1e-13:
                return f"side {i} is {d!r}, expected {side!r}"
        return (
            _close(p.vertices[0], table.vertex(spec, n), VERTEX_TOL, "vertices[0]")
            or _close(p.vertices[1], table.vertex(spec, n - 1), VERTEX_TOL, "vertices[1]")
        )

    return check


def _classify_check(spec: str, table: Table, s: float | None) -> Callable[[Any], str | None]:
    def check(out) -> str | None:
        if spec == "power:-1":
            return None if isinstance(out, convergence.Divergent) else f"got {out!r}"
        if spec == "power:0":
            if not isinstance(out, convergence.CircularOrbit) or out.radius != 0.5:
                return f"got {out!r}"
            return _close(out.center, table.orbit_center(), ORBIT_CLASS_TOL, "center")
        if spec == "telescoping":
            if not isinstance(out, convergence.CircularOrbit) or out.radius != 1.0:
                return f"got {out!r}"
            return _close(out.center, -1.0, ORBIT_CLASS_TOL, "center")
        if not isinstance(out, convergence.Point):
            return f"got {out!r}"
        ref = table.w(s)
        bound = ERR_MULTIPLE * out.error_estimate + ABS_FLOOR
        return _close(out.value, ref, bound, "point")

    return check


def _strata_pick(rng: random.Random, pool: list, strata: int) -> list:
    """One entry from each of ``strata`` equal consecutive slices of ``pool``."""
    per = len(pool) // strata
    return [pool[i * per + rng.randrange(per)] for i in range(strata)]


def series_ops(seed: int, table: Table) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    s_pool = pools.s_pool()
    for s in _strata_pick(rng, s_pool, pools.S_STRATA):
        ops.append(Op("limit_point", f"limit_point({s!r})",
                      lambda s=s: convergence.limit_point(s), _accel_check(table.w(s))))
    for spec, ns in pools.interp_pool().items():
        f = lengthfns.parse_length(spec)
        for n in _strata_pick(rng, ns, pools.INTERP_STRATA):
            ops.append(Op("interpolated_vertex", f"interpolated_vertex({spec}, {n!r})",
                          lambda f=f, n=n: spiral.interpolated_vertex(f, n),
                          _accel_check(table.interp(spec, n))))
    n_range = list(range(3, pools.VERTEX_N_MAX + 1))
    for spec in pools.VERTEX_SPECS:
        f = lengthfns.parse_length(spec)
        for n in _strata_pick(rng, n_range, pools.VERTEX_STRATA):
            ops.append(Op("vertex", f"vertex({spec}, {n})",
                          lambda f=f, n=n: spiral.vertex(f, n),
                          lambda v, r=table.vertex(spec, n): _close(v, r, VERTEX_TOL, "vertex")))
        for n in _strata_pick(rng, n_range, pools.VERTEX_STRATA):
            ops.append(Op("polygon", f"polygon({spec}, {n})",
                          lambda f=f, n=n: spiral.polygon(f, n), _polygon_check(table, spec, f, n)))
    for s in _strata_pick(rng, s_pool, pools.CLASSIFY_POINT_STRATA):
        f = lengthfns.power_law(s)
        ops.append(Op("classify", f"classify(power:{s!r})",
                      lambda f=f: convergence.classify(f), _classify_check("power", table, s)))
    for spec in pools.CLASSIFY_FIXED * pools.CLASSIFY_FIXED_REPEAT:
        f = lengthfns.parse_length(spec)
        ops.append(Op("classify", f"classify({spec})",
                      lambda f=f: convergence.classify(f), _classify_check(spec, table, None)))
    for _ in range(pools.ORBIT_CENTER_CALLS):
        ops.append(Op("orbit_center", "orbit_center()", convergence.orbit_center,
                      _accel_check(table.orbit_center())))
    rng.shuffle(ops)
    return ops


# --- deep-vertices --------------------------------------------------------


def _deep_check(spec: str, table: Table, indices: list[int]) -> Callable[[Any], str | None]:
    center = table.orbit_center()

    def check(out: dict) -> str | None:
        if sorted(out) != indices:
            return f"indices {sorted(out)} != {indices}"
        for n in indices:
            v = out[n]
            msg = _close(v, table.deep(spec, n), DEEP_TOL, f"V({n})")
            if msg:
                return msg
            if spec == "telescoping" and abs(abs(v + 1.0) - 1.0) > DEEP_TOL:
                return f"|V({n}) + 1| = {abs(v + 1.0)!r}"
            if spec == "power:0" and n % 2 == 0:
                gap = abs(abs(v - center) - 0.5)
                if gap > CIRCLE_C / n:
                    return f"V({n}) is {gap:.3e} off the orbit circle"
        return None

    return check


def _law_check(table: Table, r: float, n: int) -> Callable[[Any], str | None]:
    m = int(round(n * r))
    ref = abs(table.deep("power:0", 2 * m) - table.deep("power:0", 2 * n))
    predicted = abs(math.sin(2.0 * math.pi * math.log(r)))

    def check(out) -> str | None:
        empirical, pred = out
        if abs(pred - predicted) > 1e-14:
            return f"predicted {pred!r} != {predicted!r}"
        if abs(empirical - predicted) > LAW_C / n:
            return f"law off by {abs(empirical - predicted):.3e}"
        return _close(empirical, ref, DEEP_TOL, "distance")

    return check


def deep_ops(seed: int, table: Table) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for spec, pool in pools.deep_index_pool().items():
        f = lengthfns.parse_length(spec)
        indices = sorted(_strata_pick(rng, pool[:-1], pools.DEEP_STRATA) + [pool[-1]])
        ops.append(Op("vertex_at", f"vertex_at({spec}, <{len(indices)} to {indices[-1]}>)",
                      lambda f=f, ix=indices: spiral.vertex_at(f, ix),
                      _deep_check(spec, table, indices)))
    n_max = rng.choice(pools.IDENTITY_N_MAX)
    ops.append(Op("verify_telescoping_identity", f"verify_telescoping_identity({n_max})",
                  lambda: telescoping.verify_telescoping_identity(n_max),
                  lambda res: None if res < IDENTITY_TOL else f"residual {res:.3e}"))
    for r, ns in pools.ORBIT_LAW_N.items():
        n = rng.choice(ns)
        ops.append(Op("orbit_distance_law", f"orbit_distance_law({r}, {n})",
                      lambda r=r, n=n: convergence.orbit_distance_law(r, n), _law_check(table, r, n)))
    rng.shuffle(ops)
    return ops


# --- crossings ------------------------------------------------------------


def figure_eight(t: float) -> complex:
    return complex(math.sin(2.0 * t), math.sin(t))


def limacon(a: float, b: float) -> Callable[[float], complex]:
    def curve(t: float) -> complex:
        return (b + a * math.cos(t)) * cmath.exp(1j * t)

    return curve


def straight(x0: float, y0: float, vertical: bool = False) -> Callable[[float], complex]:
    """A unit run of an axis-parallel line: exactly collinear segments."""
    if vertical:
        return lambda t: complex(x0, y0 + t)
    return lambda t: complex(x0 + t, y0)


def _taylor(row: dict, side: str, t: float) -> complex:
    d = t - row[side]
    return row[f"d1_{side}"] * d + row[f"d2_{side}"] * d * d


def _known_hits_check(table: Table, curve: str, lo: float, hi: float) -> Callable[[Any], str | None]:
    """Hits must be exactly the tabulated crossings inside [lo, hi], each
    re-evaluated through the table's Taylor model of the mpmath curve."""
    expected = [r for r in table.crossings(curve) if lo < r["a"] and r["b"] < hi]

    def check(hits) -> str | None:
        if len(hits) != len(expected):
            return f"{len(hits)} hits, expected {len(expected)}"
        for hit, row in zip(hits, expected):
            if abs(hit.a - row["a"]) > CROSS_PARAM_TOL or abs(hit.b - row["b"]) > CROSS_PARAM_TOL:
                return f"hit ({hit.a!r}, {hit.b!r}) vs ({row['a']!r}, {row['b']!r})"
            gap = (row["c_a"] - row["c_b"]) + _taylor(row, "a", hit.a) - _taylor(row, "b", hit.b)
            if abs(gap) > CROSS_TOL or hit.residual > CROSS_TOL:
                return f"residual {abs(gap):.3e} (reported {hit.residual:.3e})"
        return None

    return check


def _formula_hits_check(curve: Callable[[float], complex], pairs: list[tuple[float, float]]) -> Callable[[Any], str | None]:
    def check(hits) -> str | None:
        if len(hits) != len(pairs):
            return f"{len(hits)} hits, expected {len(pairs)}"
        for hit, (a, b) in zip(hits, pairs):
            if abs(hit.a - a) > CROSS_PARAM_TOL or abs(hit.b - b) > CROSS_PARAM_TOL:
                return f"hit ({hit.a!r}, {hit.b!r}) vs ({a!r}, {b!r})"
            gap = abs(curve(hit.a) - curve(hit.b))
            if gap > CROSS_TOL:
                return f"residual {gap:.3e}"
        return None

    return check


def crossing_cases(seed: int) -> list[tuple[str, Callable[[float], complex], float, float, float, Any]]:
    """(case, curve, lo, hi, step, expectation) for every case of a pass.

    ``expectation`` is the closed-form curve name ("centers", "q") or the
    list of known parameter pairs for the benchmark's own curves."""
    rng = random.Random(seed)
    cases = []
    lo = rng.choice(pools.CENTERS_LO)
    for kind, step in pools.CROSSING_STEPS.items():
        cases.append((f"centers-{kind}", telescoping.center_closed, lo, lo + pools.CENTERS_WIDTH, step, "centers"))
    lo = rng.choice(pools.Q_LO)
    for kind, step in pools.CROSSING_STEPS.items():
        cases.append((f"q-{kind}", telescoping.q_closed, lo, lo + pools.Q_WIDTH, step, "q"))
    lo = rng.choice(pools.FIGURE8_LO)
    for kind, step in pools.CROSSING_STEPS.items():
        cases.append((f"figure8-{kind}", figure_eight, lo, lo + pools.FIGURE8_WIDTH, step, [(0.0, math.pi)]))
    b = rng.choice(pools.LIMACON_B)
    t0 = math.acos(-b / pools.LIMACON_A)
    lo = rng.choice(pools.LIMACON_LO)
    for kind, step in pools.CROSSING_STEPS.items():
        cases.append((f"limacon-{kind}", limacon(pools.LIMACON_A, b), lo, lo + pools.LIMACON_WIDTH, step,
                      [(t0, 2.0 * math.pi - t0)]))
    # Two straight runs, so the slowest group of a pass is 2 operations of 10
    # and the 90th percentile falls inside it, not on its edge.
    for axis in ("x", "y"):
        x0, y0 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        cases.append((f"straight-{axis}", straight(x0, y0, axis == "y"), 0.0, 1.0, pools.STRAIGHT_STEP, []))
    return cases


def crossing_check(table: Table, curve, lo: float, hi: float, expect) -> Callable[[Any], str | None]:
    if isinstance(expect, str):
        return _known_hits_check(table, expect, lo, hi)
    return _formula_hits_check(curve, expect)


def crossing_ops(seed: int, table: Table) -> list[Op]:
    ops = []
    for case, curve, lo, hi, step, expect in crossing_cases(seed):
        ops.append(Op(f"self_intersections.{case}", f"{case} [{lo:.3f}, {hi:.3f}] step {step:g}",
                      lambda c=curve, lo=lo, hi=hi, st=step: intersect.self_intersections(c, lo, hi, step=st),
                      crossing_check(table, curve, lo, hi, expect)))
    random.Random(seed).shuffle(ops)
    return ops


# --- readme-cli -----------------------------------------------------------

# Every `spiral` command of the README, keyed by a short name.
README_COMMANDS = {
    "build": ["build", "--length", "power:1", "--max-n", "9", "--out", "fig2.svg"],
    "limit": ["limit", "--s", "0.00000001"],
    "classify": ["classify", "--length", "power:-1"],
    "orbit": ["orbit", "--out", "fig3a.svg"],
    "curve": ["curve", "--s-min", "0.0000726", "--s-max", "1.77", "--samples", "10", "--out", "fig3b.svg"],
    "telescope-check": ["telescope", "--check", "--n-max", "2000"],
    "telescope-centers": ["telescope", "--out", "fig4a.svg"],
    "telescope-q": ["telescope", "--fig", "q", "--out", "fig4b.svg"],
    "intersect": ["intersect", "--curve", "centers", "--lo", "1.05", "--hi", "6"],
    "interp": ["interp", "--length", "power:1", "--n", "3.5"],
}
# Polygons each command's SVG must draw (n = 3..max_n).
SVG_POLYGONS = {"build": 7, "orbit": 8, "curve": 0, "telescope-centers": 10, "telescope-q": 0}


@dataclass
class CliRun:
    stdout: str
    stderr: str
    svg: str | None
    maxrss_kb: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_cli(argv: list[str], workdir: Path, env: dict[str, str]) -> CliRun:
    """One `python -m ngonspiral.cli` child; waits for it and reaps its rusage.

    A non-zero exit raises: the operation failed."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    svg_name = argv[argv.index("--out") + 1] if "--out" in argv else None
    if svg_name:
        (workdir / svg_name).unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "ngonspiral.cli", *argv],
                                cwd=workdir, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8").strip()[-300:]
        raise RuntimeError(f"spiral {' '.join(argv)} exited {proc.returncode}: {tail}")
    svg = (workdir / svg_name).read_text(encoding="utf-8") if svg_name and (workdir / svg_name).exists() else None
    return CliRun(out_path.read_text(encoding="utf-8"),
                  err_path.read_text(encoding="utf-8"), svg, usage.ru_maxrss)


def _rows(text: str) -> dict[str, list[tuple[float, complex]]]:
    rows: dict[str, list[tuple[float, complex]]] = {}
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["name", "n", "re", "im"]:
        raise ValueError("missing CSV header")
    for name, n, re_, im in reader:
        rows.setdefault(name, []).append((float(n), complex(float(re_), float(im))))
    return rows


def _svg_polygons(svg: str) -> int:
    root = ET.fromstring(svg)
    count = 0
    for el in root.iter():
        classes = el.get("class", "").split()
        if "ngon" in classes or "degenerate" in classes:
            count += 1
    return count


def _rows_match(rows, expected: list[tuple[float, complex]], tol: float, what: str) -> str | None:
    if [n for n, _ in rows] != [n for n, _ in expected]:
        return f"{what} rows at {[n for n, _ in rows]}"
    for (n, z), (_, ref) in zip(rows, expected):
        msg = _close(z, ref, tol, f"{what}({n:g})")
        if msg:
            return msg
    return None


def cli_check(name: str, table: Table) -> Callable[[CliRun], str | None]:
    def check(run: CliRun) -> str | None:
        try:
            return _check_cli_run(name, table, run)
        except (ET.ParseError, ValueError) as exc:
            return f"unparsable output: {exc}"

    return check


def _check_cli_run(name: str, table: Table, run: CliRun) -> str | None:
    """The check of one README command's output; parse errors propagate."""
    if name in SVG_POLYGONS:
        if run.svg is None:
            return "no SVG written"
        got = _svg_polygons(run.svg)
        if got != SVG_POLYGONS[name]:
            return f"SVG holds {got} polygons, expected {SVG_POLYGONS[name]}"
    if name == "classify":
        return None if run.stdout.startswith("Divergent") else f"printed {run.stdout!r}"
    if name == "telescope-check":
        lines = run.stdout.splitlines()
        ok = len(lines) == 5 and all(line.startswith("PASS ") for line in lines)
        return None if ok else f"printed {run.stdout!r}"
    rows = _rows(run.stdout)
    if name == "build":
        return (_rows_match(rows.get("vertices", []),
                            [(n, table.vertex("power:1", n)) for n in range(2, 10)], VERTEX_TOL, "vertex")
                or _rows_match(rows.get("centers", []),
                               [(n, table.center("power:1", n)) for n in range(3, 10)], VERTEX_TOL, "center"))
    if name == "limit":
        return _rows_match(rows.get("limit", []), [(1e-8, table.w(1e-8))], CLI_ACCEL_TOL, "W")
    if name == "orbit":
        return _rows_match(rows.get("orbit-center", []), [(0.0, table.orbit_center())], CLI_ACCEL_TOL, "center")
    if name == "curve":
        got = rows.get("W", [])
        if len(got) != 10:
            return f"{len(got)} W rows"
        return _rows_match(got, [(s, table.w(s)) for s, _ in got], CLI_ACCEL_TOL, "W")
    if name == "telescope-centers":
        return (_rows_match(rows.get("vertices", []),
                            [(n, table.tele("V", n)) for n in range(2, 13)], CLI_CLOSED_TOL, "V_L")
                or _rows_match(rows.get("centers", []),
                               [(n, table.tele("C", n)) for n in range(3, 13)], CLI_CLOSED_TOL, "C_L"))
    if name == "telescope-q":
        return _rows_match(rows.get("q", []), [(n, table.tele("Q", n)) for n in range(2, 36)],
                           CLI_CLOSED_TOL, "Q_L")
    if name == "intersect":
        (row,) = table.crossings("centers")
        if list(rows) != ["centers-intersection-1"]:
            return f"tables {list(rows)}"
        (a, pa), (b, pb) = rows["centers-intersection-1"]
        if abs(a - row["a"]) > CROSS_PARAM_TOL or abs(b - row["b"]) > CROSS_PARAM_TOL:
            return f"crossing at ({a!r}, {b!r})"
        return _close(pa, row["c_a"], 1e-8, "crossing point")
    if name == "interp":
        return _rows_match(rows.get("interp", []), [(3.5, table.interp("power:1", 3.5))],
                           CLI_ACCEL_TOL, "interp")
    return None


def cli_ops(seed: int, table: Table, workdir: Path) -> list[Op]:
    env = child_env()
    ops = [
        Op(f"cli.{name}", "spiral " + " ".join(argv),
           lambda argv=argv: run_cli(argv, workdir, env), cli_check(name, table))
        for name, argv in README_COMMANDS.items()
    ]
    random.Random(seed).shuffle(ops)
    return ops


def build(workload: str, seed: int, workdir: Path | None = None) -> list[Op]:
    """The operation list of one pass of ``workload`` for ``seed``."""
    table = Table()
    if workload == "series-queries":
        return series_ops(seed, table)
    if workload == "deep-vertices":
        return deep_ops(seed, table)
    if workload == "crossings":
        return crossing_ops(seed, table)
    if workload == "readme-cli":
        if workdir is None:
            raise ValueError("readme-cli needs a work directory")
        return cli_ops(seed, table, workdir)
    raise ValueError(f"unknown workload {workload!r}")

