"""Benchmark of the ngonspiral library and its `spiral` CLI.

    python3 bench/run.py --workload series-queries --seed 1 --seconds 25 --trace 0

Workloads: series-queries, deep-vertices, crossings, readme-cli (see
README.md in this directory).  The program is the source tree in ``src/``
next to this directory; nothing is installed.  Load is a closed loop with
one caller: one operation at a time, each pass running the workload's
seeded operation list once, until ``--seconds`` have been spent (at least
three passes).  Every output is checked.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, and spans
are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import array
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_PASSES = 3
SETUP_PROBES = 7

# Times are scaled by a fixed reference timed between operations, at least
# every `every` seconds: each operation's time is multiplied by the
# reference's nominal time over the mean of the two reference timings
# around it, so reported seconds are seconds at the reference's nominal
# speed.  The reference matches the kind of work: a bytecode loop for the
# in-process workloads; that loop plus a numpy block for crossings, whose
# numpy work follows the machine's speed changes only about half as much as
# bytecode does; a fresh interpreter that imports numpy and runs the loop
# for the subprocess timings (readme-cli and setup_s).  README.md gives the
# measurements behind these choices.
REF_ITERS = 12_000
REF_NOMINAL_S = 0.020
MIXED_NOMINAL_S = 0.030
CHILD_NOMINAL_S = 0.200
REF_EVERY_S = 0.25
CHILD_EVERY_S = 1.0
WORKLOADS = ("series-queries", "deep-vertices", "crossings", "readme-cli")


def reference_loop() -> float:
    """Seconds taken by a fixed loop shaped like the library's numeric code:
    a running harmonic sum, a reduced phase, cos/sin, complex arithmetic
    and a compensated sum.  It never calls the program."""
    start = time.perf_counter()
    h, re, im, comp = 1.5, 0.0, 0.0, 0.0
    for k in range(3, REF_ITERS):
        h += 1.0 / k
        t = 1.0 / k - 2.0 * h
        ang = 2.0 * math.pi * (t - round(t))
        z = complex(math.cos(ang), math.sin(ang)) * k ** -0.5
        s = re + z.real
        comp += (re - s) + z.real if abs(re) >= abs(z.real) else (z.real - s) + re
        re, im = s, im + z.imag
    elapsed = time.perf_counter() - start
    if not math.isfinite(re + im + comp):
        raise AssertionError("reference loop")
    return elapsed


class MixedLoop:
    """reference_loop plus a fixed numpy block of the orientation products
    and comparisons a 256-row segment-pair scan makes.  Used only where the
    program already imports numpy."""

    def __init__(self) -> None:
        import numpy as np

        gen = np.random.default_rng(0)
        self.np = np
        self.cols = gen.random((4, 1500))
        self.rows = [gen.random((256, 1)) for _ in range(4)]

    def __call__(self) -> float:
        elapsed = reference_loop()
        start = time.perf_counter()
        ax, ay, bx, by = self.cols
        pax, pay, pbx, pby = self.rows
        rx, ry = pbx - pax, pby - pay
        d1 = rx * (ay - pay) - ry * (ax - pax)
        d2 = rx * (by - pay) - ry * (bx - pax)
        self.np.nonzero(d1 * d2 <= 0.0)
        return elapsed + time.perf_counter() - start


def reference_child() -> float:
    """Wall time of a fresh interpreter that imports numpy and runs
    reference_loop: the start-up and bytecode work of a CLI command, with
    nothing from the program."""
    code = f"import sys, numpy; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; run.reference_loop()"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


class Calibration:
    """Reference-loop timings taken between operations."""

    def __init__(self, loop=reference_loop, nominal: float = REF_NOMINAL_S, every: float = REF_EVERY_S) -> None:
        self.loop, self.nominal, self.every = loop, nominal, every
        self.last = loop()
        self.since = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.since > self.every

    def step(self) -> float:
        """Time the loop again; the speed factor for the work since the last step."""
        now = self.loop()
        factor = self.nominal / (0.5 * (self.last + now))
        self.last, self.since = now, time.perf_counter()
        return factor


def calibration(workload: str) -> Calibration:
    """The speed reference a workload's times are scaled by."""
    if workload == "crossings":
        return Calibration(MixedLoop(), MIXED_NOMINAL_S)
    if workload == "readme-cli":
        return Calibration(reference_child, CHILD_NOMINAL_S, CHILD_EVERY_S)
    return Calibration()


def _probe_setup(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe failed (exit {code})")
    return elapsed


def measure_setup(workload: str, seed: int) -> list[float]:
    """SETUP_PROBES setup times, each scaled by the reference children
    started just before and after it."""
    cal = Calibration(reference_child, CHILD_NOMINAL_S)
    return [_probe_setup(workload, seed) * cal.step() for _ in range(SETUP_PROBES)]


def run_pass(ops, tracer=None, cal: Calibration | None = None) -> tuple[list[float], list, int]:
    """Run every op once; returns (per-op seconds, results, failures).

    With ``cal`` the per-op seconds are scaled to the reference loop's
    nominal speed.  A failed op (an exception) leaves ``None`` as result."""
    times: list[float] = []
    results: list = []
    failed = 0
    segment = 0
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out = op.call() if tracer is None else tracer.call(op.name, op.call)
        except Exception as exc:  # counted against attempted; the run goes on
            print(f"FAILED {op.label}: {exc!r}", file=sys.stderr)
            out = None
            failed += 1
        times.append(time.perf_counter() - t0)
        results.append(out)
        if cal is not None and (cal.due() or i == len(ops) - 1):
            factor = cal.step()
            for j in range(segment, i + 1):
                times[j] *= factor
            segment = i + 1
    return times, results, failed


def check_pass(ops, results) -> list[str]:
    wrong = []
    for op, out in zip(ops, results):
        if out is None:
            continue
        msg = op.check(out)
        if msg:
            wrong.append(f"{op.label}: {msg}")
    return wrong


def measure(workload: str, ops, seconds: float) -> list[dict]:
    """Closed loop over whole passes, at least MIN_PASSES, for ``seconds``."""
    cal = calibration(workload)
    passes = []
    start = time.perf_counter()
    while True:
        times, results, failed = run_pass(ops, cal=cal)
        passes.append({
            "times": array.array("d", times),  # compact: the run's own memory is in peak_rss_mb
            "failed": failed,
            "wrong": check_pass(ops, results),
            "rss_kb": max((r.maxrss_kb for r in results if hasattr(r, "maxrss_kb")), default=0),
        })
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def summarize(workload: str, passes: list[dict], setup: list[float]) -> dict:
    pass_s = statistics.median(sum(p["times"]) for p in passes)
    per_op = [statistics.median(p["times"][i] for p in passes) for i in range(len(passes[0]["times"]))]
    if workload == "readme-cli":
        rss_mb = statistics.median(p["rss_kb"] for p in passes) / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "pass_s": {"value": pass_s, "unit": "s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(per_op), "unit": "ms"},
        "op_p90_ms": {"value": 1e3 * statistics.quantiles(per_op, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ngonspiral benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ngonspiral" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/ngonspiral", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT_DIR / f"cli-{os.getpid()}"
    if args.setup_probe:
        import workloads

        workloads.build(args.workload, args.seed, workdir)
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            import layers

            doc = layers.traced_run(args.workload, args.seed, ops, args.seconds, workdir)
        else:
            passes = measure(args.workload, ops, args.seconds)
            wrong = [w for p in passes for w in p["wrong"]]
            doc = _result(
                correct=not wrong,
                attempted=len(ops) * len(passes),
                failed=sum(p["failed"] for p in passes),
                metrics=summarize(args.workload, passes, setup),
            )
            for w in wrong[:20]:
                print(f"WRONG {w}", file=sys.stderr)
            doc["pass_s"] = [sum(p["times"]) for p in passes]
            doc["op_median_s"] = {
                op.label: statistics.median(p["times"][i] for p in passes) for i, op in enumerate(ops)
            }
            doc["setup_probe_s"] = setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    mode = "trace" if args.trace else "result"
    (OUT_DIR / f"{mode}-{args.workload}-{args.seed}.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(_result(doc["correct"], doc["attempted"], doc["failed"], doc["metrics"])))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
