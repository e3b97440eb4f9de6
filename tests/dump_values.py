"""Print the library's numbers, one repr per line, to compare two checkouts
bit for bit.

    PYTHONPATH=src python tests/dump_values.py > values.txt

Run it on both sides of a change that must keep every output's bits and
diff the two files; an empty diff is the check.  It reads only long-standing
public names (and the module constants of the vertex walk), so it runs on
older checkouts too, back to those whose closed forms and continuation
take arrays.  A refused input prints the repr of its ValueError (or of
the TypeError or OverflowError an older checkout raised instead).
About 3 s on a 2-vCPU x86-64 VM.  Not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import math

import numpy as np

from ngonspiral import spiral
from ngonspiral.figures import fig_orbit, fig_q, fig_spiral, fig_telescope
from ngonspiral.convergence import classify, convergence_curve, limit_point, orbit_center, orbit_distance_law
from ngonspiral.intersect import self_intersections
from ngonspiral.lengthfns import parse_length, power_law
from ngonspiral.numerics import AccelerationSettings, digamma, harmonic_continued
from ngonspiral.spiral import interpolated_vertex, polygon, vertex_at
from ngonspiral.telescoping import (
    PHI,
    center_closed,
    q_closed,
    vertex_closed,
    verify_telescoping_identity,
)

# The catalog families the deep-vertex tests check against mpmath: seven
# vanishing, five tending to a constant; then two growing ones.
FAMILIES = ("power:1", "power:0.5", "power:2", "power:1e-3", "inscribed:0",
            "circumscribed:1", "area:0", "power:0", "inscribed:-1",
            "circumscribed:-1", "area:-2", "telescoping")
GROWING = ("power:-1", "inscribed:-2")
TOLERANCES = (1e-8, 1e-10, 1e-13)
# The crossing benchmark's grids: the centers and Q starts and widths and
# the coarse and fine steps of bench/pools.py, copied rather than imported
# so that checkouts without the benchmark run this too.
CROSSING_GRIDS = ((center_closed, tuple(1.05 + 0.02 * j for j in range(16)), 4.5),
                  (q_closed, tuple(1.10 + 0.01 * j for j in range(9)), 4.6))
CROSSING_STEPS = (1e-2, 3e-3)
# The closed forms' 3,605 points, read one at a time and as one array.
CLOSED_GRID = (*(1.0001 + 0.0137 * k for k in range(3600)), PHI, PHI + 1.0, 4.0 / 3.0, 4.0, 1e6 + 0.5)
# The batched continuation's 64 points: the CVZ-Euler switch (x = n + 1 = 48),
# integers, a deep point, then an even spread to 270.
BATCH = (1.05, 1.5, 2.0, 3.0, 47.0, 47.5, 48.0, 2048.5, *(1.1 + 4.9 * j for j in range(56)))
# Settings at which the batched continuation of the families that stall at the
# floor tolerance ends stalled or capped: the floor with the default budget,
# and budgets that cap both accelerators.
STALLS = ((1e-13, 4000), (1e-13, 29), (1e-10, 5))
# The batched continuation's 2,100 points on [1.05, 140], a wider batch than
# one chunk of columns: either side of the CVZ-Euler switch, and across the
# chunk edges at 1,024 and 2,048 columns.
WIDE_BATCH = np.linspace(1.05, 140.0, 2100).tolist()
COLUMN_EDGES = (1024, 2048)
# The interpolants read twice by warm_reads: either side of the CVZ-Euler
# switch (x = n + 1 = 48), and past the deepest first-chunk phase.
WARM_N = (1.5, 3.25, 46.5, 47.5, 250.5, 2048.5)
# The vertices read twice by warm_runs: either side of k = 2,050 (the end
# of the first chunk when chunks held 2,048 terms, not 4,096), and past it,
# where 5,000 jumps unless the sides grow.
RUN_N = (3, 17, 300, 2050, 2051, 5000)
# Settings no other section passes to classify and orbit_center: a term
# budget below the first CVZ order at 1e-12 (31), and one at the floor tolerance.
BUDGETS = ((1e-10, 20), (1e-13, 40))
# Out of the domain of the closed forms or of the continuation (1 + 2^-52
# only of the continuation's: n + 1 rounds to 2).
OUTSIDE = (1.0, 1.0 + 2.0**-52, 0.5, -0.5, math.inf, math.nan)
# Arguments that are no number, or no array of real numbers that fit the doubles.
UNREAD = {"'2.5'": "2.5", "b'25'": b"25", "[5.0]": [5.0], "array(5.5)": np.array(5.5),
          "array([2.5+1j])": np.array([2.5 + 1j]), "array([2.5], dtype=object)": np.array([2.5], dtype=object),
          "[10**400]": [10**400], "[3.5, 10**400]": [3.5, 10**400]}


def show(label: str, thunk) -> None:
    try:
        value = thunk()
    except (ValueError, TypeError, OverflowError) as exc:
        value = exc
    print(label, repr(value))


def show_vertices(spec: str, indices, above: int = 0) -> None:
    """V(n) for the indices n > ``above`` of one vertex_at call."""
    indices = list(indices)
    try:
        got = vertex_at(parse_length(spec), indices)
    except ValueError as exc:
        print(spec, indices[-3:], repr(exc))
        return
    for n in sorted(got):
        if n > above:
            print(spec, n, repr(got[n]))


def vertices() -> None:
    top, gap = spiral._TAIL_FROM, spiral._JUMP_GAP
    singles = (2, 3, 257, 258, 2047, top, top + 1, top + gap, top + gap + 1, 4097,
               10**5 + 1, 10**6, 10**7 + 1, 2**53, 2**60)
    for spec in FAMILIES + GROWING:
        show_vertices(spec, range(2, 3001))
        for n in singles if spec in FAMILIES else singles[:11]:
            show_vertices(spec, [n])
        for g in (gap - 1, gap, gap + 1, gap + 2):
            # a dense range (its head is printed above), then steps of g,
            # then a far index and its neighbours
            mixed = [*range(2, 2100), *range(2100, 2100 + 6 * g, g), 5000, 5000 + g, 5001 + g]
            show_vertices(spec, mixed, above=2000)
            show_vertices(spec, [top + 1, top + 1 + g, top + 1 + 2 * g, 30_000, 30_000 + g])
        show_vertices(spec, [3, 100, 2049, 5000, 20_000, 80_000, 160_000])
        # shallow indices beside a deep one: a gap from 2 of 512 and of 513,
        # a long and a short shallow gap, then shallow steps of 100
        for n in (514, 515):
            show_vertices(spec, [n, 10**5])
        show_vertices(spec, [3, 100, 700, 1500, 2000, 2048, 2049, 10**5])
        show_vertices(spec, [*range(100, 2001, 100), 10**5])
    for spec in ("power:1", "power:0"):
        # one run from V(2) across the first chunk's edge (k = 4,098), and
        # across k = 2,050, the edge when chunks held 2,048 terms
        show_vertices(spec, range(2040, 4101))


def sums() -> None:
    for tol in TOLERANCES:
        settings = AccelerationSettings(tol)
        for spec in FAMILIES + GROWING:
            f = parse_length(spec)
            show(f"classify {spec} {tol}", lambda: classify(f, settings))
            for n in (1.5, 2.5, 3.25, 3.5, 10.5, 100.5, 2048.5, 1e6 + 0.5):
                show(f"interpolated_vertex {spec} {n!r} {tol}", lambda: interpolated_vertex(f, n, settings))
        for s in (1e-8, 1e-3, 0.5, 1.0, 2.0, 5.0):
            show(f"limit_point {s!r} {tol}", lambda: limit_point(s, settings))
        show(f"orbit_center {tol}", lambda: orbit_center(settings))
    for r, n in ((2.0, 2000), (2.0, 10**7), (2.71828, 25_000)):
        show(f"orbit_distance_law {r!r} {n}", lambda: orbit_distance_law(r, n))


def defaults() -> None:
    """The sums with no settings passed, as the benchmark calls them, then
    classify and orbit_center at each of BUDGETS, whose orbit sums tighten
    the tolerance to 1e-12 and keep the term budget."""
    for spec in FAMILIES + GROWING:
        f = parse_length(spec)
        show(f"default classify {spec}", lambda: classify(f))
        for n in (1.5, 3.25, 46.5, 47.5, 100.5, 2048.5):
            show(f"default interpolated_vertex {spec} {n!r}", lambda: interpolated_vertex(f, n))
    for s in (1e-8, 1e-3, 0.5, 1.0, 2.0, 5.0):
        show(f"default limit_point {s!r}", lambda: limit_point(s))
    show("default orbit_center", orbit_center)
    for tol, max_terms in BUDGETS:
        settings = AccelerationSettings(tol, max_terms)
        for spec in FAMILIES + GROWING:
            f = parse_length(spec)
            show(f"classify {spec} {tol} {max_terms}", lambda: classify(f, settings))
        show(f"orbit_center {tol} {max_terms}", lambda: orbit_center(settings))


def warm_reads() -> None:
    """Each family's interpolants read twice at settings no earlier section
    uses: in FAMILIES order, then power:0.0 and power:-0.0 (equal families),
    then the growing ones; then in reverse, n descending too.  Each pass
    prints in the first pass's order, labelled "first" and "again", so a
    checkout that keeps G_f from the first read prints the same lines twice."""
    specs = (*FAMILIES, "power:0.0", "power:-0.0", *GROWING)
    for tol in (1e-9, 1e-12):
        settings = AccelerationSettings(tol)
        for label, order, points in (("first", specs, WARM_N), ("again", specs[::-1], WARM_N[::-1])):
            lines = {}
            for spec in order:
                f = parse_length(spec)
                for n in points:
                    try:
                        lines[spec, n] = interpolated_vertex(f, n, settings)
                    except ValueError as exc:
                        lines[spec, n] = exc
            for spec in specs:
                for n in WARM_N:
                    print(f"warm {label} interpolated_vertex {spec} {n!r} {tol}", repr(lines[spec, n]))


def warm_runs() -> None:
    """Each family's vertices at RUN_N read twice, families in warm_reads'
    order: first in RUN_N order, then, after a run over range(2, 2100), again
    with n descending, the families in reverse.  Each pair prints as a "first"
    and an "again" line, so a checkout that keeps each family's first chunk
    of sums from its first run prints the same value twice."""
    specs = (*FAMILIES, "power:0.0", "power:-0.0", *GROWING)
    lines = {}
    for label, order, points in (("first", specs, RUN_N), ("again", specs[::-1], RUN_N[::-1])):
        for spec in order:
            f = parse_length(spec)
            if label == "again":
                vertex_at(f, range(2, 2100))
            for n in points:
                try:
                    lines[label, spec, n] = spiral.vertex(f, n)
                except ValueError as exc:
                    lines[label, spec, n] = exc
    for spec in specs:
        for n in RUN_N:
            for label in ("first", "again"):
                print(f"warm {label} vertex {spec} {n}", repr(lines[label, spec, n]))


def polygons() -> None:
    for spec in ("power:1", "power:0", "telescoping", "power:-1"):
        # 2,000 is figures._MAX_POLYGON; 2,047-2,050 ended at and past the
        # first chunk when it held 2,048 terms
        for n in (2, 3, 4, 5, 12, 300, 2000, 2047, 2048, 2049, 2050):
            show(f"polygon {spec} {n}", lambda: polygon(parse_length(spec), n))


def telescoping() -> None:
    # 25,000 and 26,455 bound the benchmark's n_max pool (25,873 lies inside it);
    # 10**6 is the largest n_max allowed; at 4,099 (and at 2,051 with
    # chunks of 2,048) the last chunk holds one term, so its running sums
    # have no earlier entry
    for n_max in (3, 258, 2050, 2051, 4099, 4100, 20_000, 25_000, 25_873, 26_455, 10**6):
        show(f"verify_telescoping_identity {n_max}", lambda: verify_telescoping_identity(n_max))
    for n in CLOSED_GRID:
        for closed in (vertex_closed, q_closed, center_closed):
            show(f"{closed.__name__} {n!r}", lambda: closed(n))
    for curve, lo, hi, step in ((center_closed, 1.05, 6.0, 1e-3), (center_closed, 1.05, 6.0, 3e-3),
                                (q_closed, 1.02, 35.0, 1e-3)):
        for hit in self_intersections(curve, lo, hi, step=step):
            print(f"self_intersections {curve.__name__} {lo} {hi} {step}", repr(hit))
    for curve, starts, width in CROSSING_GRIDS:
        for lo in starts:
            for step in CROSSING_STEPS:
                for hit in self_intersections(curve, lo, lo + width, step=step):
                    print(f"self_intersections {curve.__name__} {lo!r} {lo + width!r} {step}", repr(hit))


def arrays() -> None:
    """The array steps: each closed form read at CLOSED_GRID in one call, the
    continuation at BATCH in one call (at STALLS too for the families that
    stall), and the refusals at one number and at an array of each
    out-of-domain n."""
    grid = np.array(CLOSED_GRID)
    for closed in (vertex_closed, q_closed, center_closed):
        for n, z in zip(CLOSED_GRID, closed(grid).tolist()):
            print(f"{closed.__name__} array {n!r}", repr(z))
    for spec in ("power:1", "power:0", "circumscribed:1", "telescoping"):
        v = spiral.continuation(parse_length(spec), AccelerationSettings(1e-10))
        res = v(np.array(BATCH))
        fields = (res.value, res.error_estimate, res.converged, res.terms_used)
        for n, *row in zip(BATCH, *(a.tolist() for a in fields)):
            print(f"continuation {spec} array {n!r}", *map(repr, row))
        for n in OUTSIDE:
            show(f"continuation {spec} {n!r}", lambda: v(n))
            show(f"continuation {spec} array {n!r}", lambda: v([3.5, n]))
    for spec in ("inscribed:-1", "circumscribed:-1", "area:-2"):
        for tol, max_terms in STALLS:
            v = spiral.continuation(parse_length(spec), AccelerationSettings(tol, max_terms))
            res = v(np.array(BATCH))
            fields = (res.value, res.error_estimate, res.converged, res.terms_used)
            for n, *row in zip(BATCH, *(a.tolist() for a in fields)):
                print(f"continuation {spec} {tol} {max_terms} array {n!r}", *map(repr, row))
    for closed in (vertex_closed, q_closed, center_closed):
        for n in OUTSIDE:
            show(f"{closed.__name__} {n!r}", lambda: closed(n))
            show(f"{closed.__name__} array {n!r}", lambda: closed([3.5, n]))


def wide_batches() -> None:
    """The continuation at WIDE_BATCH in one call for three families: the
    points either side of each chunk edge of COLUMN_EDGES, and every 50th."""
    shown = sorted({i for edge in COLUMN_EDGES for i in (edge - 1, edge)} | set(range(0, len(WIDE_BATCH), 50)))
    for spec in ("power:1", "circumscribed:1", "telescoping"):
        v = spiral.continuation(parse_length(spec), AccelerationSettings(1e-10))
        res = v(np.array(WIDE_BATCH))
        fields = [a.tolist() for a in (res.value, res.error_estimate, res.converged, res.terms_used)]
        for i in shown:
            print(f"continuation {spec} wide {WIDE_BATCH[i]!r}", *(repr(field[i]) for field in fields))


def refusals() -> None:
    """Each one-number function at each UNREAD argument, the closed forms and
    the continuation too, which read [5.0] and a 0-d array as arrays."""
    f, settings = power_law(1.0), AccelerationSettings()
    v = spiral.continuation(f, settings)
    calls = {"digamma": digamma, "harmonic_continued": harmonic_continued, "limit_point": limit_point,
             "AccelerationSettings": AccelerationSettings, "continuation power:1": v,
             "vertex_closed": vertex_closed, "q_closed": q_closed, "center_closed": center_closed,
             "vertex power:1": lambda n: spiral.vertex(f, n), "center power:1": lambda n: spiral.center(f, n),
             "q_term power:1": lambda n: spiral.q_term(f, n),
             "interpolated_vertex power:1": lambda n: interpolated_vertex(f, n, settings),
             "orbit_distance_law r": lambda r: orbit_distance_law(r, 10),
             "convergence_curve samples": lambda k: convergence_curve(0.5, 1.0, k),
             "self_intersections lo": lambda lo: self_intersections(center_closed, lo, 6.0)}
    for name, call in calls.items():
        for label, n in UNREAD.items():
            show(f"{name} {label}", lambda: call(n))


def jump_runs() -> None:
    """A run of 9,000 terms after a jump at 10^5 for each family, so the
    running sums carry across chunk edges after a jump: only the edges
    (10^5 + 4,096 j, where a chunk of 4,096 terms ends, and the entries
    either side) and every 500th index print."""
    start, end = 10**5, 10**5 + 9000
    edges = {n for j in range(3) for n in range(start + 4096 * j - 1, start + 4096 * j + 2)}
    shown = sorted(n for n in edges | set(range(start, end, 500)) if start <= n < end)
    for spec in FAMILIES:
        got = vertex_at(parse_length(spec), range(start, end))
        for n in shown:
            print("jump run", spec, n, repr(got[n]))


def curves() -> None:
    """Every point of the sampled curves of four figures."""
    for label, build in (("fig_spiral power:1 9", lambda: fig_spiral(power_law(1.0), 9)),
                         ("fig_orbit", fig_orbit), ("fig_telescope 12", lambda: fig_telescope(12)),
                         ("fig_q", fig_q)):
        scene = build()[0]
        for name, points in scene.curves.items():
            for i, z in enumerate(points):
                print(label, name, i, repr(z))


if __name__ == "__main__":
    vertices()
    sums()
    warm_reads()
    polygons()
    telescoping()
    arrays()
    wide_batches()
    refusals()
    curves()
    warm_runs()
    defaults()
    jump_runs()
