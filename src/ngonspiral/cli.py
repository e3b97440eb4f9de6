"""Command-line front end.

Every experiment is a flag-only one-shot: build geometry, evaluate limits,
classify a length function, probe the orbit, trace the convergence curve,
check the telescoping closed forms, hunt self-intersections, or evaluate
the interpolant.  Numeric output is echoed to stdout in the name,n,re,im
schema; figures land in SVG files.

Exit codes: 0 success, 1 usage error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from . import figures, telescoping as tele
from .convergence import (
    CircularOrbit,
    Divergent,
    Point,
    classify,
    limit_point,
    orbit_center,
)
from .intersect import self_intersections
from .lengthfns import parse_length, telescoping as telescoping_fn
from .numerics import AccelerationSettings, Strategy
from .render import export_table, render_svg
from .spiral import interpolated_vertex, q_term

__all__ = ["main"]

USAGE_ERROR = 1
NOT_CONVERGED = 2

# Default tolerances: closed-form checks are tight, accelerated limits
# settle for what the double-precision transform delivers comfortably.
TOL_CLOSED_FORM = 1e-10
TOL_ACCELERATED = 1e-8


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented usage code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _settings(args: argparse.Namespace, default_tol: float) -> AccelerationSettings:
    tol = args.tol if args.tol is not None else default_tol
    strategy = Strategy(args.strategy) if getattr(args, "strategy", None) else Strategy.EULER_TRANSFORM
    return AccelerationSettings(
        target_tolerance=tol,
        max_terms=args.max_terms or 4000,
        strategy=strategy,
    )


def _emit(tables: dict[str, list[tuple[float, complex]]], fmt: str) -> None:
    sys.stdout.write(export_table(tables, fmt))
    if fmt == "json":
        sys.stdout.write("\n")


def _write_svg(path: str, scene) -> None:
    Path(path).write_text(render_svg(scene), encoding="utf-8")


# Flags several subcommands share; each registers only those its handler reads.
_SHARED_FLAGS = {
    "--length": dict(required=True, help="power:S | inscribed:S | circumscribed:S | area:S | telescoping"),
    "--tol": dict(type=float, help="override the default tolerance"),
    "--max-terms": dict(type=int),
    "--format": dict(choices=("csv", "json"), default="csv"),
}


def _add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def _cmd_build(args: argparse.Namespace) -> int:
    f = parse_length(args.length)
    scene, tables = figures.fig_spiral(
        f, args.max_n, _settings(args, TOL_ACCELERATED), with_interpolant=not args.no_interp
    )
    if args.out:
        _write_svg(args.out, scene)
    _emit(tables, args.format)
    return 0


def _cmd_limit(args: argparse.Namespace) -> int:
    res = limit_point(args.s, _settings(args, TOL_ACCELERATED))
    _emit({"limit": [(args.s, res.value)]}, args.format)
    if not res.converged:
        sys.stderr.write(
            f"limit: not converged (error estimate {res.error_estimate:.3e} "
            f"after {res.terms_used} terms)\n"
        )
        return NOT_CONVERGED
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    f = parse_length(args.length)
    outcome = classify(f, _settings(args, TOL_ACCELERATED))
    if isinstance(outcome, Point):
        print(f"Point value={outcome.value.real:.15g}{outcome.value.imag:+.15g}i "
              f"error_estimate={outcome.error_estimate:.3e}")
    elif isinstance(outcome, CircularOrbit):
        print(f"CircularOrbit center={outcome.center.real:.15g}"
              f"{outcome.center.imag:+.15g}i radius={outcome.radius:.15g}")
    else:
        print(f"Divergent: {outcome.reason}")
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    settings = _settings(args, TOL_ACCELERATED)
    res = orbit_center(settings)
    _emit({"orbit-center": [(0.0, res.value)]}, args.format)
    if args.out:
        scene, _ = figures.fig_orbit(settings)
        _write_svg(args.out, scene)
    if not res.converged:
        sys.stderr.write("orbit: center extrapolation failed its consistency check\n")
        return NOT_CONVERGED
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    settings = _settings(args, TOL_ACCELERATED)
    scene, tables, samples = figures.fig_wcurve(
        args.s_min, args.s_max, args.samples, settings
    )
    bad = [c for c in samples if not c.result.converged]
    if bad:
        # flagged, not dropped: rename the rows so the flag survives the schema
        tables = {
            "W": [(c.s, c.result.value) for c in samples if c.result.converged],
            "W-not-converged": [(c.s, c.result.value) for c in bad],
        }
    _emit(tables, args.format)
    if args.out:
        _write_svg(args.out, scene)
    if bad:
        sys.stderr.write(f"curve: {len(bad)} of {len(samples)} samples not converged\n")
        return NOT_CONVERGED
    return 0


def _cmd_telescope(args: argparse.Namespace) -> int:
    if args.check:
        return _telescope_check(args)
    if args.fig == "q":
        scene, tables = figures.fig_q()
    else:
        scene, tables = figures.fig_telescope(max_n=args.max_n if args.max_n else 12)
    if args.out:
        _write_svg(args.out, scene)
    _emit(tables, args.format)
    return 0


def _telescope_check(args: argparse.Namespace) -> int:
    import random

    n_max = args.max_n or 2000
    failures = 0

    residual = tele.verify_telescoping_identity(n_max)
    ok = residual < 1e-10
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} telescoping identity n<={n_max}: max residual {residual:.3e} (tol 1e-10)")

    rng = random.Random(20221111)
    worst = 0.0
    for _ in range(10_000):
        n = 1.01 + rng.random() * 98.99
        worst = max(worst, abs(abs(tele.vertex_closed(n) + 1.0) - 1.0))
    ok = worst < 1e-12
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} unit-circle law: max deviation {worst:.3e} (tol 1e-12)")

    worst = max(
        abs(tele.q_closed(float(m)) - q_term(telescoping_fn(), float(m)))
        for m in range(3, min(n_max, 2000) + 1)
    )
    ok = worst < 1e-11
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} Q closed form vs centers formula: max {worst:.3e} (tol 1e-11)")

    golden = abs(tele.center_closed(tele.PHI) - tele.center_closed(tele.PHI + 1.0))
    ok = golden < 1e-10
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} golden intersection: |C(phi)-C(phi+1)| = {golden:.3e} (tol 1e-10)")

    est = tele.q_real_limit_estimate()
    target = tele.CONSTANTS.q_limit_at_1
    ok = abs(est - target) < 1e-3
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} Re Q limit at 1: {est:.9f} vs {target:.9f} (tol 1e-3)")

    return 0 if failures == 0 else NOT_CONVERGED


def _cmd_intersect(args: argparse.Namespace) -> int:
    curve = tele.center_closed if args.curve == "centers" else tele.q_closed
    hits = self_intersections(
        curve,
        args.lo,
        args.hi,
        step=args.step,
        tolerance=args.tol if args.tol is not None else TOL_CLOSED_FORM,
    )
    tables: dict[str, list[tuple[float, complex]]] = {}
    for i, hit in enumerate(hits, start=1):
        tables[f"{args.curve}-intersection-{i}"] = [
            (hit.a, hit.point),
            (hit.b, hit.point),
        ]
    _emit(tables, args.format)
    sys.stderr.write(f"intersect: {len(hits)} self-intersection(s) found\n")
    return 0


def _cmd_interp(args: argparse.Namespace) -> int:
    f = parse_length(args.length)
    res = interpolated_vertex(f, args.n, _settings(args, TOL_ACCELERATED))
    _emit({"interp": [(args.n, res.value)]}, args.format)
    if not res.converged:
        sys.stderr.write(
            f"interp: not converged (error estimate {res.error_estimate:.3e})\n"
        )
        return NOT_CONVERGED
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spiral",
        description="Regular n-gon spiral toolkit: geometry, limits, closed forms, figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="polygon geometry and the interpolated spiral")
    _add_shared(p, "--length", "--tol", "--max-terms", "--format")
    p.add_argument("--max-n", type=int, default=9, dest="max_n")
    p.add_argument("--out", default=None, help="SVG output path")
    p.add_argument("--no-interp", action="store_true", help="skip the interpolation curve")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("limit", help="convergence point W(s) for power-law lengths")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--strategy", choices=[s.value for s in Strategy], default=None)
    _add_shared(p, "--tol", "--max-terms", "--format")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("classify", help="limit behavior of a length function")
    _add_shared(p, "--length", "--tol", "--max-terms")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("orbit", help="center of the s = 0 circular orbit")
    _add_shared(p, "--tol", "--max-terms", "--format")
    p.add_argument("--out", default=None, help="SVG output path")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("curve", help="trace W(s) over an s interval")
    p.add_argument("--s-min", type=float, required=True, dest="s_min")
    p.add_argument("--s-max", type=float, required=True, dest="s_max")
    p.add_argument("--samples", type=int, default=10)
    _add_shared(p, "--tol", "--max-terms", "--format")
    p.add_argument("--out", default=None, help="SVG output path")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("telescope", help="telescoping spiral closed forms and checks")
    _add_shared(p, "--format")
    p.add_argument("--check", action="store_true", help="run the closed-form invariants")
    p.add_argument("--n-max", type=int, default=None, dest="max_n")
    p.add_argument("--out", default=None, help="SVG output path")
    p.add_argument("--fig", choices=("centers", "q"), default="centers")
    p.set_defaults(func=_cmd_telescope)

    p = sub.add_parser("intersect", help="self-intersections of the telescoping curves")
    p.add_argument("--curve", choices=("centers", "q"), required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    _add_shared(p, "--tol", "--format")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("interp", help="smooth vertex continuation at real n")
    _add_shared(p, "--length", "--tol", "--max-terms", "--format")
    p.add_argument("--n", type=float, required=True)
    p.set_defaults(func=_cmd_interp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises SystemExit for both --help (0) and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        sys.stderr.write(f"spiral: error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
