"""Recompute the benchmark's reference table with mpmath at 40 digits.

    python3 bench/reference.py            # rewrites bench/reference.json
    python3 bench/reference.py --check    # recompute and compare, no write

The table holds, for every entry of the pools in ``pools.py`` and for
every number the README commands print:

* W(s), the power-law limit, and the orbit center lim_{s->0+} W(s);
* the vertices V_f(n) for n <= 300 (direct sums) and at the sparse deep
  indices (generalized sum minus an accelerated tail);
* the polygon centers C_f(n) = V_f(n) + Q_f(n) for n <= 300;
* the interpolant at every pooled (family, n);
* the telescoping closed forms V_L, Q_L and C_L at the README's integers,
  and each known self-crossing of C_L and Q_L with a second-order Taylor
  model around it, so a timed run can re-evaluate a hit without mpmath.

Alternating tails are summed by the Cohen-Villegas-Zagier weights, not by
the Euler transform the library uses, and every tail route is checked
against a direct sum before the table is written.  Timed runs only read
the JSON this writes; they never import mpmath.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

import pools

DPS = 40
DIGITS_OUT = 25
HEAD = 40  # direct head k < HEAD; even, so the tail enters with sign +1
CVZ_TERMS = 64
TABLE = Path(__file__).resolve().parent / "reference.json"

mp.mp.dps = DPS


def cvz(a, n: int = CVZ_TERMS):
    """sum_{j>=0} (-1)^j a(j) by Cohen-Villegas-Zagier (Algorithm 1)."""
    d = (3 + mp.sqrt(8)) ** n
    d = (d + 1 / d) / 2
    b = mp.mpf(-1)
    c = -d
    s = mp.mpc(0)
    for k in range(n):
        c = b - c
        s += c * a(k)
        b = b * (k + n) * (k - n) / ((k + mp.mpf(1) / 2) * (k + 1))
    return s / d


def unit_phase(x):
    """e^{2 pi i (1/x - 2 H_x)} with H_x = gamma + psi(x + 1)."""
    x = mp.mpf(x)
    return mp.expjpi(2 * (1 / x - 2 * mp.harmonic(x)))


def length(spec: str):
    """The side-length rule of a CLI spec, in mpmath."""
    if spec == "telescoping":
        return lambda x: 2 * mp.cos(2 * mp.pi / x)
    kind, _, arg = spec.partition(":")
    s = mp.mpf(arg)
    if kind == "power":
        return lambda x: mp.mpf(x) ** (-s)
    if kind == "inscribed":
        return lambda x: 2 * mp.mpf(x) ** (-s) * mp.sin(mp.pi / x)
    if kind == "circumscribed":
        return lambda x: 2 * mp.mpf(x) ** (-s) * mp.tan(mp.pi / x)
    if kind == "area":
        return lambda x: mp.sqrt(4 * mp.mpf(x) ** (-s) * mp.tan(mp.pi / x) / x)
    raise ValueError(spec)


def tail_from(g, start: int):
    """sum_{k>=start} (-1)^k g(k)."""
    sign = -1 if start % 2 else 1
    return sign * cvz(lambda j: g(start + j))


def full_sum(g):
    """sum_{k>=3} (-1)^k g(k): direct head, accelerated tail."""
    head = mp.mpc(0)
    for k in range(3, HEAD):
        head += (-1) ** k * g(k)
    return head + tail_from(g, HEAD)


def limit_w(s):
    s = mp.mpf(s)
    return full_sum(lambda k: unit_phase(k) * mp.mpf(k) ** (-s))


def vertices_direct(spec: str, n_max: int) -> list:
    """[V(2), ..., V(n_max)] by direct summation."""
    lf = length(spec)
    out = [mp.mpc(0)]
    acc = mp.mpc(0)
    h = mp.mpf(3) / 2
    for k in range(3, n_max + 1):
        h += mp.mpf(1) / k
        acc += (-1) ** k * lf(k) * mp.expjpi(2 * (mp.mpf(1) / k - 2 * h))
        out.append(acc)
    return out


def q_offset(spec: str, n):
    """Q_f(n) = (-1)^n l(n) e^{2 pi i (1/n - 2 H_n)} / (e^{2 pi i / n} - 1)."""
    n = mp.mpf(n)
    return mp.expjpi(n) * length(spec)(n) * unit_phase(n) / (mp.expjpi(2 / n) - 1)


def vertices_deep(spec: str, indices) -> dict:
    """V(n) = (generalized sum) - (tail from n + 1), for deep n."""
    lf = length(spec)

    def g(k):
        return lf(k) * unit_phase(k)

    total = full_sum(g)
    return {n: total - tail_from(g, n + 1) for n in indices}


def interpolant(spec: str, n):
    """sum_{k>=3} (-1)^k [l(k) u(k) - e^{i pi (n-2)} l(k-2+n) u(k-2+n)]."""
    lf = length(spec)
    n = mp.mpf(n)
    rot = mp.expjpi(n - 2)

    def g(k):
        x = k - 2 + n
        return lf(k) * unit_phase(k) - rot * lf(x) * unit_phase(x)

    return full_sum(g)


def tele_vertex(n):
    n = mp.mpf(n)
    return -1 + mp.expjpi(n) * mp.expjpi(-4 * mp.harmonic(n))


def tele_q(n):
    n = mp.mpf(n)
    z = mp.expjpi(2 / n)
    return mp.expjpi(n) * mp.expjpi(-4 * mp.harmonic(n)) * (z + (z + 1) / (z - 1))


def tele_center(n):
    return tele_vertex(n) + tele_q(n)


# Known self-crossings of the closed-form curves inside the pooled
# intervals, as starting guesses for the refinement (found by a dense scan).
CROSSING_GUESSES = {
    "centers": [(1.6180339887, 2.6180339887)],
    "q": [(1.2002592890, 1.9452140740), (1.3333333333, 4.0), (1.4820979043, 5.0166458539)],
}
CURVES = {"centers": tele_center, "q": tele_q}


def refine_crossing(curve, a0: float, b0: float) -> dict:
    def gap(a, b):
        d = curve(a) - curve(b)
        return [d.real, d.imag]

    a, b = mp.findroot(gap, (mp.mpf(a0), mp.mpf(b0)))
    out = {"a": a, "b": b}
    for name, t in (("a", a), ("b", b)):
        out[f"c_{name}"] = curve(t)
        out[f"d1_{name}"] = mp.diff(curve, t, 1)
        out[f"d2_{name}"] = mp.diff(curve, t, 2) / 2
    return out


def readme_curve_s() -> list[float]:
    """The s grid of `spiral curve --s-min 0.0000726 --s-max 1.77 --samples 10`,
    in the float arithmetic the command uses."""
    s_min, s_max, samples = 0.0000726, 1.77, 10
    step = (s_max - s_min) / (samples - 1)
    return [s_min + i * step for i in range(samples)]


def _num(x) -> str:
    return mp.nstr(x, DIGITS_OUT)


def _cplx(z) -> list[str]:
    z = mp.mpc(z)
    return [_num(z.real), _num(z.imag)]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"reference routes disagree: {what}")


def _check_routes() -> None:
    """Every accelerated route must meet a direct sum to ~35 digits."""
    n = 300
    tight = mp.mpf("1e-33")
    for spec in pools.DEEP_MAX:
        _require(abs(vertices_direct(spec, n)[-1] - vertices_deep(spec, [n])[n]) < tight, spec)
    _require(abs(vertices_direct("telescoping", n)[-1] - tele_vertex(n)) < tight, "telescoping closed form")
    # the interpolant reproduces V at integers for vanishing lengths
    _require(abs(interpolant("power:1", 7) - vertices_direct("power:1", 7)[-1]) < tight, "interpolant")
    # the orbit center is W(s) at s -> 0+: W is linear in s near 0
    w0, w1, w2 = limit_w(0), limit_w(mp.mpf("1e-20")), limit_w(mp.mpf("2e-20"))
    _require(abs((w1 - w0) - (w2 - w1)) < mp.mpf("1e-35"), "orbit center")


def build_table() -> dict:
    _check_routes()
    s_values = pools.s_pool() + [1e-8] + readme_curve_s()
    table: dict = {"digits": DPS}
    table["W"] = {repr(s): _cplx(limit_w(s)) for s in sorted(set(s_values))}
    table["orbit_center"] = _cplx(limit_w(0))

    interp_points = [(spec, n) for spec, ns in pools.interp_pool().items() for n in ns]
    interp_points.append(("power:1", 3.5))
    table["interp"] = {
        pools.spec_key(spec, n): _cplx(interpolant(spec, n)) for spec, n in interp_points
    }

    specs = sorted(set(pools.VERTEX_SPECS) | set(pools.DEEP_MAX))
    table["vertex"] = {
        spec: [_cplx(v) for v in vertices_direct(spec, pools.VERTEX_N_MAX)] for spec in specs
    }
    table["center"] = {}
    for spec in specs:
        verts = vertices_direct(spec, pools.VERTEX_N_MAX)
        table["center"][spec] = [
            _cplx(verts[n - 2] + q_offset(spec, n)) for n in range(3, pools.VERTEX_N_MAX + 1)
        ]

    deep = pools.deep_index_pool()
    deep["power:0"] = sorted(set(deep["power:0"]) | set(pools.orbit_law_indices()))
    table["deep"] = {}
    for spec, indices in deep.items():
        if spec == "telescoping":
            values = {n: tele_vertex(n) for n in indices}
        else:
            values = vertices_deep(spec, indices)
        table["deep"][spec] = {str(n): _cplx(v) for n, v in sorted(values.items())}

    table["telescoping"] = {
        "V": {str(n): _cplx(tele_vertex(n)) for n in range(2, 36)},
        "Q": {str(n): _cplx(tele_q(n)) for n in range(2, 36)},
        "C": {str(n): _cplx(tele_center(n)) for n in range(2, 36)},
    }
    table["crossings"] = {
        name: [
            {k: (_cplx(v) if isinstance(v, mp.mpc) else _num(v)) for k, v in
             refine_crossing(CURVES[name], a0, b0).items()}
            for a0, b0 in guesses
        ]
        for name, guesses in CROSSING_GUESSES.items()
    }
    return table


def dumps(table: dict) -> str:
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the stored table instead of writing it")
    args = parser.parse_args(argv)
    text = dumps(build_table())
    if args.check:
        same = TABLE.read_text(encoding="utf-8") == text
        print("reference table reproduced" if same else "reference table DIFFERS")
        return 0 if same else 1
    TABLE.write_text(text, encoding="utf-8")
    print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
