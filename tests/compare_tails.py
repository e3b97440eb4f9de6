"""Time four warm scalar tail calls in two source trees, in one process.

    python tests/compare_tails.py BASE_SRC HEAD_SRC [ROUNDS]

Each SRC is a directory holding the ngonspiral package, a checkout's
``src``.  The two trees are imported under two package names, so one
interpreter times both and the machine's drift between minutes falls on
both alike.  Every call is made once to warm its caches, then each round
times a few calls in each tree, alternating which tree runs first, and
the script prints, per call, the median times and the median head/base
ratio over the rounds (below 1: the head is faster).  The calls are the
scalar accelerators' hot paths: one deep jump and six (Euler tails), an
interpolant past the CVZ-Euler switch (Euler) and one below it (CVZ).
Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

# (label, call) pairs; a call takes a loaded tree's spiral and lengthfns modules
CALLS = (
    ("vertex_at(power:1, [100_001])",
     lambda sp, lf: sp.vertex_at(lf.parse_length("power:1"), [100_001])),
    ("vertex_at(inscribed:0, 6 jumps)",
     lambda sp, lf: sp.vertex_at(lf.parse_length("inscribed:0"), [3_000, 5_000, 10**4, 10**5, 10**6, 10**7])),
    ("interpolated_vertex(power:1, 60.5)",
     lambda sp, lf: sp.interpolated_vertex(lf.parse_length("power:1"), 60.5)),
    ("interpolated_vertex(inscribed:0, 20.25)",
     lambda sp, lf: sp.interpolated_vertex(lf.parse_length("inscribed:0"), 20.25)),
)
CALLS_PER_ROUND = 5


def load(src: str, name: str) -> tuple:
    """The spiral and lengthfns modules of the package under ``src``, imported as ``name``."""
    init = Path(src) / "ngonspiral" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.spiral"), importlib.import_module(f"{name}.lengthfns")


def seconds(call, tree: tuple) -> float:
    """The time of CALLS_PER_ROUND calls of ``call`` in ``tree``."""
    start = time.perf_counter()
    for _ in range(CALLS_PER_ROUND):
        call(*tree)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, head = load(argv[0], "ngonspiral_base"), load(argv[1], "ngonspiral_head")
    rounds = int(argv[2]) if len(argv) == 3 else 200
    print(f"Median of {rounds} rounds of {CALLS_PER_ROUND} warm calls per tree, alternating which runs first")
    print("| Call | base us | head us | head/base |")
    print("|---|---|---|---|")
    for label, call in CALLS:
        if repr(call(*base)) != repr(call(*head)):
            print(f"| {label} | | | the trees' values differ |")
        for _ in range(rounds // 4):  # warm both trees alike before timing
            seconds(call, base), seconds(call, head)
        times: dict[str, list[float]] = {"base": [], "head": []}
        ratios = []
        gc.collect()
        gc.disable()
        try:
            for r in range(rounds):
                order = (("base", base), ("head", head)) if r % 2 else (("head", head), ("base", base))
                got = {side: seconds(call, tree) for side, tree in order}
                for side in times:
                    times[side].append(got[side])
                ratios.append(got["head"] / got["base"])
        finally:
            gc.enable()
        us = {side: 1e6 * statistics.median(t) / CALLS_PER_ROUND for side, t in times.items()}
        print(f"| {label} | {us['base']:.1f} | {us['head']:.1f} | {statistics.median(ratios):.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
