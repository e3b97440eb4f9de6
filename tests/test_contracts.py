"""The three endings of every public numeric call, as a hypothesis property.

Each call draws its numbers from one edge pool (plus numpy float32 and
int64 copies of them) and must end in a finite result, in a result
flagged ``converged=False``, or in ``ValueError``, within a time bound.
The CLI, run in-process, must end in exit code 0 (finite output), 1
(usage error) or 2 (not converged), never in a traceback.  The seed is
fixed and no example database is kept, so every run draws the same calls.
"""

import contextlib
import dataclasses
import io
import math
import numbers
import re
import time

import numpy as np
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from ngonspiral import (
    AccelerationSettings,
    center,
    center_closed,
    classify,
    convergence_curve,
    digamma,
    harmonic_continued,
    interpolated_vertex,
    limit_point,
    orbit_center,
    orbit_distance_law,
    polygon,
    q_closed,
    q_term,
    self_intersections,
    vertex,
    vertex_closed,
    verify_telescoping_identity,
)
from ngonspiral.cli import main
from ngonspiral.lengthfns import LengthFunction, LengthKind
from ngonspiral.spiral import vertex_at

EDGES = (0.0, -0.0, 1.0, 1.0 + 2.0**-52, 2.0, 3.0, 3.5, 47.0, 48.0, 2048.0, 2049.0,
         2.0**53, 2**53 + 1, 1e12, 1e300, 10**300, 10**400, math.inf, -math.inf, math.nan)
# exponents of the side lengths, up to +-300
EXPONENTS = EDGES + (-1.0, -2.0, 0.5, 1e-3, 300.0, -300.0)


def _copies(x):
    """x, and its numpy float32 and int64 copies where they hold it."""
    out = [x]
    if abs(x) < 1e38 or x in (math.inf, -math.inf) or x != x:
        out.append(np.float32(x))
    if (isinstance(x, int) or x.is_integer()) and abs(x) < 2**63:
        out.append(np.int64(x))
    return out


POOL = [c for x in EDGES for c in _copies(x)]
edges = st.sampled_from(POOL)
families = st.builds(LengthFunction, st.sampled_from(list(LengthKind)),
                     st.sampled_from(EXPONENTS))
tolerances = st.sampled_from((1e-8, 1e-13, *EDGES))
budgets = st.sampled_from((4, 40, 4000, *EDGES))
accelerations = st.builds(AccelerationSettings, tolerances, budgets)
curves = st.sampled_from((vertex_closed, q_closed, center_closed))

# Each call ends within this many seconds: the slowest allowed inputs
# (a curve of 2,048 samples, a polygon of 2,049 sides) take well under it.
TIME_BOUND = 10.0


def _finite(x) -> bool:
    """x holds only finite numbers, or is flagged not converged."""
    if isinstance(x, (str, int, np.integer)):
        return True
    if isinstance(x, numbers.Number):
        return math.isfinite(x.real) and math.isfinite(x.imag)
    if isinstance(x, dict):
        return all(_finite(v) for v in x.values())
    if isinstance(x, (list, tuple)):
        return all(_finite(v) for v in x)
    if getattr(x, "converged", True) is False:
        return True
    return all(_finite(getattr(x, field.name)) for field in dataclasses.fields(x))


def _ends_well(call, *args):
    start = time.perf_counter()
    try:
        out = call(*args)
    except ValueError:
        out = ()
    assert time.perf_counter() - start < TIME_BOUND, (call, args)
    assert _finite(out), (call, args, out)


def _call(fn, *arg_strategies):
    return st.tuples(st.just(fn), *arg_strategies)


LIBRARY_CALLS = st.one_of(
    _call(vertex, families, edges),
    _call(lambda f, a, b: vertex_at(f, (a, b)), families, edges, edges),
    _call(polygon, families, edges),
    _call(center, families, edges),
    _call(q_term, families, edges),
    _call(interpolated_vertex, families, edges, accelerations),
    _call(classify, families, accelerations),
    _call(limit_point, edges, accelerations),
    _call(orbit_center, accelerations),
    _call(orbit_distance_law, edges, edges),
    _call(convergence_curve, edges, edges, edges),
    _call(vertex_closed, edges),
    _call(q_closed, edges),
    _call(center_closed, edges),
    _call(verify_telescoping_identity, edges),
    _call(self_intersections, curves, edges, edges, edges),
    _call(digamma, edges),
    _call(harmonic_continued, edges),
)


@seed(20221111)
@settings(max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.data())
def test_library_calls_end_in_one_of_three_ways(data):
    # a family or a setting refused at construction (a nan exponent, a
    # zero tolerance) is that call's ValueError
    try:
        fn, *args = data.draw(LIBRARY_CALLS)
    except ValueError:
        return
    _ends_well(fn, *args)


def _text(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


flag_values = st.sampled_from(POOL).map(_text)
specs = st.tuples(st.sampled_from([k.value for k in LengthKind]), st.sampled_from(EXPONENTS)).map(
    lambda ks: ks[0] if ks[0] == "telescoping" else f"{ks[0]}:{_text(ks[1])}"
)
# each subcommand with its required flags, and the optional ones it takes
COMMANDS = {
    "build": ({"--length": specs}, ("--max-n", "--tol", "--max-terms", "--no-interp", "--format")),
    "limit": ({"--s": flag_values}, ("--tol", "--max-terms", "--format")),
    "classify": ({"--length": specs}, ("--tol", "--max-terms")),
    "orbit": ({}, ("--tol", "--max-terms", "--format")),
    "curve": ({"--s-min": flag_values, "--s-max": flag_values},
              ("--samples", "--tol", "--max-terms", "--format")),
    "telescope": ({}, ("--check", "--n-max", "--fig", "--format")),
    "intersect": ({"--curve": st.sampled_from(("centers", "q")), "--lo": flag_values,
                   "--hi": flag_values}, ("--step", "--tol", "--format")),
    "interp": ({"--length": specs, "--n": flag_values}, ("--tol", "--max-terms", "--format")),
}
OPTIONAL = {
    "--no-interp": st.just(None),
    "--check": st.just(None),
    "--format": st.sampled_from(("csv", "json")),
    "--fig": st.sampled_from(("centers", "q")),
}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[name]
    argv = [name]
    for flag, values in required.items():
        argv += [flag, draw(values)]
    for flag in draw(st.lists(st.sampled_from(optional), unique=True, max_size=3)):
        value = draw(OPTIONAL.get(flag, flag_values))
        argv += [flag] if value is None else [flag, value]
    return argv


@seed(20221111)
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < TIME_BOUND, argv
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert not NON_FINITE.search(out.getvalue()), (argv, out.getvalue())
