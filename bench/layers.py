"""Traced mode: tracing overhead on the workload, then per-layer probes.

Every number here is taken from outside the program: a span around each
call the benchmark makes into a layer, counts from wrapping the callables
and iterators the benchmark passes in, and the program's own reported
term counts.  The probes use fixed-size inputs drawn from the seed, so the
per-layer metrics are the same set for every workload.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from ngonspiral import cli, convergence, figures, intersect, lengthfns, numerics, render, spiral, telescoping

import pools
import workloads
from spans import Tracer

import run as bench


@dataclass(frozen=True)
class CountingLength(lengthfns.LengthFunction):
    """A catalog length function that counts its evaluations."""

    counter: list = field(default_factory=lambda: [0], compare=False)

    def __call__(self, x: float) -> float:
        self.counter[0] += 1
        return super().__call__(x)

    def as_callable(self):
        inner = super().as_callable()
        counter = self.counter

        def counted(x: float) -> float:
            counter[0] += 1
            return inner(x)

        return counted


def counting(fn):
    """``fn`` plus a call counter, as (wrapped, counter list)."""
    counter = [0]

    def counted(*args):
        counter[0] += 1
        return fn(*args)

    return counted, counter


class Probe:
    """Span-timed calls into the program, collected as named metrics."""

    def __init__(self, tracer: Tracer, rng: random.Random) -> None:
        self.tracer = tracer
        self.rng = rng
        self.metrics: dict[str, dict] = {}

    def timed(self, name: str, fn, *args, **kwargs):
        """(result, seconds) of one call inside a span called ``name``."""
        out = self.tracer.call(name, fn, *args, **kwargs)
        _, _, _, start, end = self.tracer.spans[-1]
        return out, (end - start) * 1e-9

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}


def _loop(fn, xs) -> None:
    for x in xs:
        fn(x)


def probe_kernels(p: Probe) -> None:
    rng = p.rng
    # lengthfns: one call of each family's __call__
    xs = [rng.uniform(2.05, 300.0) for _ in range(4000)]
    total = 0.0
    specs = ("power:1", "inscribed:1", "circumscribed:1", "area:1", "telescoping")
    for spec in specs:
        _, dt = p.timed("lengthfns.call", _loop, lengthfns.parse_length(spec), xs)
        total += dt
    p.put("lengthfns.call.ns", 1e9 * total / (len(xs) * len(specs)), "ns")

    # numerics: Euler transform on precomputed W(s) tails, and digamma
    per_term, terms = [], []
    s_pool = pools.s_pool()
    settings = numerics.AccelerationSettings()
    for s in rng.sample(s_pool, 20):
        # the unsigned W(s) terms from k = 48, as limit_point's tail sees them
        h = math.fsum(1.0 / k for k in range(1, 48))
        tail = []
        for k in range(48, 448):
            h += 1.0 / k
            t = 1.0 / k - 2.0 * h
            tail.append(cmath.exp(2j * math.pi * (t - round(t))) * k ** (-s))
        used = [0]

        def feed(items=tail, used=used):
            for a in items:
                used[0] += 1
                yield a

        _, dt = p.timed("numerics.euler_transform_sum", numerics.euler_transform_sum, feed(), settings)
        per_term.append(dt / used[0])
        terms.append(used[0])
    p.put("numerics.euler_transform_sum.us_per_term", 1e6 * statistics.median(per_term), "us")
    p.put("numerics.euler_transform_sum.terms", statistics.median(terms), "count")
    xs = [rng.uniform(0.5, 50.0) for _ in range(20000)]
    _, dt = p.timed("numerics.digamma", _loop, numerics.digamma, xs)
    p.put("numerics.digamma.ns", 1e9 * dt / len(xs), "ns")

    # spiral
    deep = 200_000 + rng.randrange(1000)
    _, dt = p.timed("spiral.vertex_at", spiral.vertex_at, lengthfns.power_law(1.0), [deep])
    p.put("spiral.vertex_at.ns_per_term", 1e9 * dt / (deep - 2), "ns")
    for name, fn in (("vertex", spiral.vertex), ("polygon", spiral.polygon)):
        times = []
        for _ in range(60):
            f = lengthfns.parse_length(rng.choice(pools.VERTEX_SPECS))
            times.append(p.timed(f"spiral.{name}", fn, f, rng.randint(3, pools.VERTEX_N_MAX))[1])
        p.put(f"spiral.{name}.us", 1e6 * statistics.median(times), "us")
    interp = pools.interp_pool()
    times, terms = [], []
    for _ in range(60):
        spec = rng.choice(pools.INTERP_SPECS)
        n = rng.choice(interp[spec])
        plain = lengthfns.parse_length(spec)
        times.append(p.timed("spiral.interpolated_vertex", spiral.interpolated_vertex, plain, n)[1])
        counted = CountingLength(plain.kind, plain.s)
        spiral.interpolated_vertex(counted, n)
        terms.append(counted.counter[0] / 2)
    p.put("spiral.interpolated_vertex.us", 1e6 * statistics.median(times), "us")
    p.put("spiral.interpolated_vertex.terms", statistics.median(terms), "count")

    # convergence
    times, terms = [], []
    for s in rng.sample(s_pool, 40):
        res, dt = p.timed("convergence.limit_point", convergence.limit_point, s)
        times.append(dt)
        terms.append(res.terms_used)
    p.put("convergence.limit_point.us", 1e6 * statistics.median(times), "us")
    p.put("convergence.limit_point.terms", statistics.median(terms), "count")
    times = [p.timed("convergence.orbit_center", convergence.orbit_center)[1] for _ in range(6)]
    p.put("convergence.orbit_center.us", 1e6 * statistics.median(times), "us")
    mix = [lengthfns.power_law(s) for s in rng.sample(s_pool, 10)]
    mix += [lengthfns.parse_length(spec) for spec in pools.CLASSIFY_FIXED]
    times = [p.timed("convergence.classify", convergence.classify, f)[1] for f in mix]
    p.put("convergence.classify.us", 1e6 * statistics.median(times), "us")

    # telescoping
    ns = [rng.uniform(1.05, 6.0) for _ in range(4000)]
    for name in ("center_closed", "q_closed"):
        _, dt = p.timed(f"telescoping.{name}", _loop, getattr(telescoping, name), ns)
        p.put(f"telescoping.{name}.us", 1e6 * dt / len(ns), "us")
    n_max = 20_000 + rng.randrange(100)
    _, dt = p.timed("telescoping.verify_telescoping_identity", telescoping.verify_telescoping_identity, n_max)
    p.put("telescoping.verify_telescoping_identity.ns_per_term", 1e9 * dt / (n_max - 2), "ns")


def probe_intersect(p: Probe, seed: int) -> None:
    for case, curve, lo, hi, step, _ in workloads.crossing_cases(seed):
        counted, evals = counting(curve)
        hits, dt = p.timed(f"intersect.self_intersections.{case}", intersect.self_intersections,
                           counted, lo, hi, step=step)
        grid = max(2, int(math.ceil((hi - lo) / step))) + 1
        p.put(f"intersect.self_intersections.ms.{case}", 1e3 * dt, "ms")
        p.put(f"intersect.curve_evals.{case}", evals[0], "count")
        p.put(f"intersect.refine_evals.{case}", evals[0] - grid, "count")
        p.put(f"intersect.hits.{case}", len(hits), "count")


def _svg_elements(svg: str) -> int:
    return sum(1 for line in svg.splitlines() if line.startswith("<") and not line.startswith(("<?", "</")))


def probe_render_and_figures(p: Probe) -> None:
    rng = p.rng
    lo = rng.uniform(-1.0, -0.5)
    curve = p.tracer.wrap("render.curve_eval", workloads.figure_eight)
    p.timed("render.sample_curve_adaptive", render.sample_curve_adaptive, curve, lo, lo + 2 * math.pi, 400.0)
    sid = p.tracer.spans[-1][0]  # children close first, so the parent is last
    evals = sum(1 for s in p.tracer.spans if s[1] == sid)
    own = p.tracer.self_ns()[sid]
    p.put("render.sample_curve_adaptive.evals", evals, "count")
    p.put("render.sample_curve_adaptive.us_per_eval", 1e-3 * own / evals, "us")

    accel = numerics.AccelerationSettings(target_tolerance=1e-8)
    scenes = {}
    for name, fn, args in (
        ("fig_spiral", figures.fig_spiral, (lengthfns.parse_length("power:1"), 9, accel)),
        ("fig_orbit", figures.fig_orbit, (accel,)),
        ("fig_wcurve", figures.fig_wcurve, (0.0000726, 1.77, 10, accel)),
        ("fig_telescope", figures.fig_telescope, ()),
        ("fig_q", figures.fig_q, ()),
    ):
        out, dt = p.timed(f"figures.{name}", fn, *args)
        scenes[name] = out
        p.put(f"figures.{name}.s", dt, "s")

    scene, _ = scenes["fig_spiral"]
    times = [p.timed("render.render_svg", render.render_svg, scene) for _ in range(5)]
    svg = times[0][0]
    p.put("render.render_svg.us_per_element", 1e6 * statistics.median(t for _, t in times) / _svg_elements(svg), "us")
    p.put("render.render_svg.bytes", len(svg.encode("utf-8")), "bytes")
    rows = {f"series-{j}": [(float(i), complex(rng.random(), rng.random())) for i in range(500)] for j in range(4)}
    _, dt = p.timed("render.export_table", render.export_table, rows)
    p.put("render.export_table.us_per_row", 1e6 * dt / 2000, "us")


def probe_cli(p: Probe, workdir: Path) -> None:
    env = workloads.child_env()
    snippet = "import time; t = time.perf_counter(); import ngonspiral; print(time.perf_counter() - t)"
    samples = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", snippet], env=env, cwd=workdir,
                             capture_output=True, text=True, check=True)
        samples.append(float(out.stdout.strip()))
    p.put("cli.import.s", statistics.median(samples), "s")
    for name, argv in workloads.README_COMMANDS.items():
        argv = [str(workdir / a) if a.endswith(".svg") else a for a in argv]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status, dt = p.timed(f"cli.main.{name}", cli.main, argv)
        if status != 0:
            raise RuntimeError(f"cli.main({argv}) exited {status}")
        p.put(f"cli.main.s.{name}", dt, "s")


TIME_UNITS = {"ns", "us", "ms", "s"}


def traced_run(workload: str, seed: int, ops, seconds: float, workdir: Path) -> dict:
    """Untraced and traced passes in turn, then every layer probe."""
    tracer = Tracer()
    cal = bench.calibration(workload)
    samples: dict[str, list[float]] = {"plain": [], "traced": []}
    wrong: list[str] = []
    failed = attempted = 0
    # One warm-up pass, then pairs in alternating order, so neither side
    # always runs first.
    order = [("warm-up", None)]
    start = time.perf_counter()
    while True:
        for mode, tr in order:
            times, results, f = bench.run_pass(ops, tr, cal)
            if mode != "warm-up":
                samples[mode].append(sum(times))
            wrong += bench.check_pass(ops, results)
            failed += f
            attempted += len(ops)
        pairs = len(samples["plain"])
        order = [("plain", None), ("traced", tracer)][:: 1 if pairs % 2 == 0 else -1]
        if pairs == 0:
            continue
        elapsed = time.perf_counter() - start
        if pairs >= 2 and elapsed * (1 + 1 / pairs) > seconds / 2:
            break

    # In-process probe times are scaled like the workloads' (see run.py),
    # each group by reference loops timed just before and after it.
    probe = Probe(tracer, random.Random(seed))
    groups = (
        (lambda: probe_kernels(probe), "series-queries"),
        (lambda: probe_intersect(probe, seed), "crossings"),
        (lambda: probe_render_and_figures(probe), "series-queries"),
        (lambda: probe_cli(probe, workdir), "series-queries"),
    )
    for group, like in groups:
        group_cal = bench.calibration(like)
        before = set(probe.metrics)
        group()
        factor = group_cal.step()
        for name in set(probe.metrics) - before:
            if probe.metrics[name]["unit"] in TIME_UNITS and name != "cli.import.s":
                probe.metrics[name]["value"] *= factor
    plain, traced = statistics.median(samples["plain"]), statistics.median(samples["traced"])
    probe.put("trace.pass_s", traced, "s")
    probe.put("trace.pass_ratio", traced / plain, "ratio")
    doc = {
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": dict(sorted(probe.metrics.items())),
        "pass_s": samples,
    }
    tracer.dump(bench.OUT_DIR / f"spans-{workload}-{seed}.json",
                {"workload": workload, "seed": seed, "pass_s": samples})
    for w in wrong[:20]:
        print(f"WRONG {w}", file=sys.stderr)
    return doc
