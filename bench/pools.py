"""Fixed input pools shared by the timed runs and the reference command.

Every input a workload can draw lives in a pool built here from
``POOL_SEED``; a run's ``--seed`` only chooses which pool entries it uses
and in what order.  That keeps the mpmath reference table finite (it holds
a value for every pool entry) and lets the benchmark's tests check every
entry once, so no seed can draw an input that was never checked.

Pools are built with ``random.Random``, whose integer seeding and
``random()`` stream are stable across Python versions.  This module imports
nothing outside the standard library.
"""

from __future__ import annotations

import math
import random

POOL_SEED = 221106484

# --- series-queries -------------------------------------------------------

S_MIN, S_MAX = 1e-8, 30.0
S_STRATA = 240  # limit_point calls per pass, one per stratum
S_PER_STRATUM = 4

# Vanishing (or constant-size) families whose interpolant converges.
INTERP_SPECS = (
    "power:0.5",
    "power:1",
    "power:2",
    "power:0",
    "inscribed:0",
    "inscribed:1",
    "circumscribed:0",
    "circumscribed:1",
    "area:0",
    "area:1",
    "telescoping",
)
INTERP_N_MIN, INTERP_N_MAX = 1.05, 300.0
INTERP_STRATA = 24  # interpolated_vertex calls per family per pass
INTERP_PER_STRATUM = 4

VERTEX_SPECS = (
    "power:1",
    "power:0.5",
    "power:0",
    "inscribed:0",
    "circumscribed:1",
    "area:0",
    "telescoping",
)
VERTEX_N_MAX = 300
VERTEX_STRATA = 14  # vertex (and polygon) calls per family per pass

CLASSIFY_POINT_STRATA = 24  # classify(power:s) calls per pass, s from S pool
CLASSIFY_FIXED = ("power:0", "telescoping", "power:-1")
CLASSIFY_FIXED_REPEAT = 4
ORBIT_CENTER_CALLS = 12

# --- deep-vertices --------------------------------------------------------

# Ten operations in three groups of near-equal cost: three orbit laws
# (5e4 terms each), five mid streams (8e4 terms, and the identity), two deep
# streams (1.6e5 terms).  The 50th and 90th percentiles of a pass's latencies
# then fall inside a group, not on the edge between two, and a pass near
# 2 s leaves about ten passes in a 25 s run.  The cost per term is flat
# beyond ~1e4 terms, so deeper streams would measure nothing new.
DEEP_MAX = {
    "power:1": 160_000,
    "power:0": 160_000,
    "inscribed:0": 80_000,
    "telescoping": 80_000,
    "circumscribed:1": 80_000,
    "area:0": 80_000,
}
DEEP_MIN_INDEX = 1000
DEEP_STRATA = 6  # sparse indices per family per pass, plus the deepest
DEEP_PER_STRATUM = 8
IDENTITY_N_MAX = tuple(25_000 + 97 * j for j in range(16))
# orbit_distance_law(r, n) streams power:0 to 2nr = 5e4 terms for each r;
# n is even, so nr is an integer, and 2n, 2nr are in the power:0 reference.
ORBIT_LAW_N = {
    1.5: tuple(16_666 + 2 * j for j in range(16)),
    2.0: tuple(12_500 + 2 * j for j in range(16)),
    2.5: tuple(10_000 + 2 * j for j in range(16)),
}

# --- crossings ------------------------------------------------------------

# Interval offsets are discrete so the tests can run every one of them.
CROSSING_STEPS = {"coarse": 1e-2, "fine": 3e-3}
CENTERS_LO = tuple(1.05 + 0.02 * j for j in range(16))
CENTERS_WIDTH = 4.5
Q_LO = tuple(1.10 + 0.01 * j for j in range(9))
Q_WIDTH = 4.6
FIGURE8_LO = tuple(-1.0 + 0.05 * j for j in range(14))
FIGURE8_WIDTH = 4.5
LIMACON_A = 2.0
LIMACON_B = (0.6, 0.8, 1.0, 1.2)
LIMACON_LO = tuple(0.2 + 0.15 * j for j in range(6))
LIMACON_WIDTH = 4.8
STRAIGHT_STEP = 0.01  # 100 segments on [0, 1]


def _stratified(rng: random.Random, lo: float, hi: float, count: int, log: bool) -> list[float]:
    """``count`` values, one uniform draw in each of ``count`` equal strata."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    out = []
    for i in range(count):
        x = a + (i + rng.random()) * (b - a) / count
        out.append(math.exp(x) if log else x)
    return out


def s_pool() -> list[float]:
    """Log-uniform s in [S_MIN, S_MAX], ascending."""
    rng = random.Random(POOL_SEED)
    return _stratified(rng, S_MIN, S_MAX, S_STRATA * S_PER_STRATUM, log=True)


def interp_pool() -> dict[str, list[float]]:
    """Log-uniform real n in (INTERP_N_MIN, INTERP_N_MAX] per family."""
    out = {}
    for i, spec in enumerate(INTERP_SPECS):
        rng = random.Random(POOL_SEED + 1 + i)
        out[spec] = _stratified(
            rng, INTERP_N_MIN, INTERP_N_MAX, INTERP_STRATA * INTERP_PER_STRATUM, log=True
        )
    return out


def deep_index_pool() -> dict[str, list[int]]:
    """Sparse log-uniform indices per deep family, ascending, deepest last."""
    out = {}
    for i, (spec, top) in enumerate(DEEP_MAX.items()):
        rng = random.Random(POOL_SEED + 100 + i)
        xs = _stratified(rng, DEEP_MIN_INDEX, top - 1, DEEP_STRATA * DEEP_PER_STRATUM, log=True)
        out[spec] = sorted({int(x) for x in xs} | {top})
    return out


def orbit_law_indices() -> list[int]:
    """power:0 vertex indices that orbit_distance_law reads."""
    idx = set()
    for r, ns in ORBIT_LAW_N.items():
        for n in ns:
            idx.add(2 * n)
            idx.add(2 * int(round(n * r)))
    return sorted(idx)


def spec_key(spec: str, x: float) -> str:
    """Table key of a (family, argument) pair; repr round-trips the float."""
    return f"{spec}@{x!r}"
