"""The three endings of every public numeric call, as a hypothesis property.

Each call draws its numbers from one edge pool (plus numpy float32 and
int64 copies of them, and a str, bytes and a list, which it must refuse)
and must end in a finite result, in a result flagged ``converged=False``,
or in ``ValueError``, within a time bound.  The closed forms and the
continuation also draw arrays and lists, and each entry they read must
carry the bits of the float call at that entry.  The CLI, run in-process,
must end in exit code 0 (finite output), 1 (usage error) or 2 (not
converged), never in a traceback.  The seeds are fixed and no example
database is kept, so every run draws the same calls.
"""

import contextlib
import dataclasses
import functools
import io
import math
import numbers
import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from ngonspiral import (
    AccelerationSettings,
    SummationResult,
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
from ngonspiral.figures import fig_spiral, fig_telescope
from ngonspiral.lengthfns import LengthFunction, LengthKind, parse_length, power_law
from ngonspiral.spiral import continuation, polygon_from_vertex, vertex_at

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


NUMBERS = [c for x in EDGES for c in _copies(x)]
# one argument that is no number: each call given one must refuse it
NOT_NUMBERS = ("5", b"5", [5.0])
POOL = NUMBERS + list(NOT_NUMBERS)
edges = st.sampled_from(POOL)
families = st.builds(LengthFunction, st.sampled_from(list(LengthKind)),
                     st.sampled_from(EXPONENTS))
tolerances = st.sampled_from((1e-8, 1e-13, *EDGES))
budgets = st.sampled_from((4, 40, 4000, *EDGES))
accelerations = st.builds(AccelerationSettings, tolerances, budgets)
# a vertex: a real edge, or a complex number, finite or not, or no number
points = st.one_of(edges, st.sampled_from((1j, complex(-2.5, 1e300), complex(math.nan, 1.0),
                                           complex(0.0, -math.inf), np.complex128(3 - 4j), None)))
CLOSED_FORMS = (vertex_closed, q_closed, center_closed)
curves = st.sampled_from(CLOSED_FORMS)

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
    if isinstance(x, np.ndarray):
        return _finite(x.ravel().tolist())
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
        out = None
    assert time.perf_counter() - start < TIME_BOUND, (call, args)
    if out is not None:
        unread = NOT_NUMBERS[:2] if call in CLOSED_FORMS else NOT_NUMBERS  # they read [5.0] as an array
        assert not any(a is b for a in args for b in unread), (call, args, out)
        assert _finite(out), (call, args, out)


def _call(fn, *arg_strategies):
    return st.tuples(st.just(fn), *arg_strategies)


LIBRARY_CALLS = st.one_of(
    _call(vertex, families, edges),
    _call(lambda f, a, b: vertex_at(f, (a, b)), families, edges, edges),
    _call(polygon, families, edges),
    _call(polygon_from_vertex, families, edges, points),
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


flag_values = st.sampled_from(NUMBERS).map(_text)
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


F = power_law(1.0)
# Each call with an argument that is not one number (or, for the closed
# forms and the continuation, not an array of real numbers that fit the
# doubles), and the name its ValueError gives.
REFUSALS = {
    "center_closed('2.5')": (lambda: center_closed("2.5"), "n"),
    "center_closed(b'25')": (lambda: center_closed(b"25"), "n"),
    "center_closed(complex array)": (lambda: center_closed(np.array([2.5 + 1j])), "n"),
    "center_closed(object array)": (lambda: center_closed(np.array([2.5], dtype=object)), "n"),
    "center_closed([10**400])": (lambda: center_closed([10**400]), "n"),
    "continuation([10**400])": (lambda: continuation(F, AccelerationSettings())([3.5, 10**400]), "n"),
    "continuation('2.5')": (lambda: continuation(F, AccelerationSettings())("2.5"), "n"),
    "digamma('5')": (lambda: digamma("5"), "x"),
    "digamma(0-d array)": (lambda: digamma(np.array(5.5)), "x"),
    "harmonic_continued('5')": (lambda: harmonic_continued("5"), "x"),
    "orbit_distance_law('2', 10)": (lambda: orbit_distance_law("2", 10), "r"),
    "self_intersections(lo='1.05')": (lambda: self_intersections(center_closed, "1.05", 6), "lo"),
    "limit_point('0.5')": (lambda: limit_point("0.5"), "s"),
    "limit_point([0.5])": (lambda: limit_point([0.5]), "s"),
    "convergence_curve(samples='3')": (lambda: convergence_curve(0.5, 1.0, "3"), "samples"),
    "AccelerationSettings('1e-8')": (lambda: AccelerationSettings("1e-8"), "target_tolerance"),
    "AccelerationSettings(10**400)": (lambda: AccelerationSettings(10**400), "target_tolerance"),
    "center(f, '5')": (lambda: center(F, "5"), "n"),
    "vertex(f, [5.0] array)": (lambda: vertex(F, np.array([5.0])), "n"),
    "q_term(f, [5.0])": (lambda: q_term(F, [5.0]), "n"),
    "q_term(f, 0-d array)": (lambda: q_term(F, np.array(5.5)), "n"),
    "interpolated_vertex(f, [5.0])": (lambda: interpolated_vertex(F, [5.0]), "n"),
    "f('5')": (lambda: F("5"), "x"),
    "f([5.0])": (lambda: F([5.0]), "x"),
    "fig_telescope(12.5)": (lambda: fig_telescope(12.5), "max_n"),
    "fig_telescope('12')": (lambda: fig_telescope("12"), "max_n"),
    "fig_spiral(f, 9.5)": (lambda: fig_spiral(F, 9.5), "max_n"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refused_by_name(case):
    call, name = REFUSALS[case]
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call()


@pytest.mark.parametrize("closed", [vertex_closed, q_closed, center_closed])
def test_a_0d_array_gives_a_numpy_scalar(closed):
    # numpy's own arithmetic unwraps a 0-d array; each closed form does too
    out = closed(np.array(5.5))
    assert type(out) is np.complex128 and out == closed(5.5)


def test_an_index_is_read_once():
    # a 0-d array of an integral value is the index it holds
    assert vertex(F, np.array(5.0)) == vertex(F, 5)
    assert center(F, np.array(5.0)) == center(F, 5) == center(F, 5.0)
    # a tolerance is stored as the float it was read as
    assert type(AccelerationSettings(1).target_tolerance) is float


# The entries each array type holds: doubles (10**400 left out), float32
# (up to 1e38) and int64 (integral, below 2**63), all from EDGES.
DOUBLES = [float(x) for x in EDGES if not isinstance(x, int) or abs(x) < 2**1024]
SINGLES = [x for x in DOUBLES if abs(x) < 1e38 or not math.isfinite(x)]
INTEGERS = [int(x) for x in DOUBLES if math.isfinite(x) and x.is_integer() and abs(x) < 2**63]


def _lists(entries, min_size=0, max_size=4):
    return st.lists(st.sampled_from(entries), min_size=min_size, max_size=max_size)


ARRAYS = st.one_of(
    _lists(EDGES),  # lists of Python numbers, 10**400 included
    st.sampled_from(DOUBLES).map(np.array),  # 0-d
    st.sampled_from(([], (), np.empty(0), np.empty((0, 3)))),
    _lists(DOUBLES, 4, 4).map(lambda xs: np.array(xs).reshape(2, 2)),  # nested
    _lists(EDGES, 2, 2).map(lambda xs: [[xs[0]], [xs[1]]]),
    _lists(SINGLES).map(lambda xs: np.array(xs, dtype=np.float32)),
    _lists(INTEGERS).map(lambda xs: np.array(xs, dtype=np.int64)),
    _lists(DOUBLES, 1).map(lambda xs: np.array(xs) + 1j),
    _lists(EDGES, 1).map(lambda xs: np.array(xs, dtype=object)),
    st.lists(st.booleans(), max_size=3).map(lambda bs: np.array(bs, dtype=bool)),
    _lists(DOUBLES, 1).map(lambda xs: [repr(x) for x in xs]),
    _lists(DOUBLES, 1).map(lambda xs: np.array([repr(x).encode() for x in xs])),
    st.sampled_from(("2.5", b"25")),
)


@functools.cache
def _continued(spec: str):
    return continuation(parse_length(spec), AccelerationSettings(1e-10))


ARRAY_CALLS = st.one_of(st.sampled_from(CLOSED_FORMS),
                        st.sampled_from(("power:1", "power:0", "telescoping")).map(_continued))


def _rows(result) -> tuple:
    """A closed form's value, or the four fields of a continuation's result."""
    if isinstance(result, SummationResult):
        return result.value, result.error_estimate, result.converged, result.terms_used
    return (result,)


@seed(20221111)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ARRAY_CALLS, ARRAYS)
def test_arrays_are_read_entry_by_entry(call, n):
    try:
        out = call(n)
    except ValueError as exc:
        assert re.search(r"\bn\b", str(exc)), (n, exc)
        return
    # read: a float array of n's shape, each entry the float call's bits there
    x = np.asarray(n, dtype=float)
    scalar = [call(v) for v in x.ravel().tolist()]
    assert _finite(scalar), (n, scalar)
    fields = [np.asarray(field) for field in _rows(out)]
    assert all(field.shape == x.shape for field in fields), n
    got = zip(*(field.ravel().tolist() for field in fields))
    assert repr(list(got)) == repr(list(map(_rows, scalar))), n
