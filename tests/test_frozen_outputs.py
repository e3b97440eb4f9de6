"""Frozen-outputs gate: the 10 README commands, byte for byte.

Each command runs in-process through ``cli.main`` in a fresh directory.
The test compares its exit code, the sha256 of its stdout and the sha256
of every SVG it writes against the table below.

The hashes are the bytes of the platform that generated them (x86-64
Linux, CPython 3.11.7, numpy 2.4.6); another libm or numpy build may round
a last digit differently.  A change that alters an output byte on purpose
(ROADMAP items 1-2) updates the table entry here and names the changed
file in CHANGES.md.  The interp, vertices, centers, q, limit, orbit-center
and W rows, and the vertices and polygons of fig2, fig3a and fig4a, are
also checked by value against their 40-digit mpmath oracles, so their
hashes rest on checked numbers.

``python tests/test_frozen_outputs.py`` prints the table as the program
writes it now, to paste over ``FROZEN`` after a deliberate change and
review in the diff.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

if __name__ == "__main__":  # run as a script: use the package beside tests/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ngonspiral.cli import main
from ngonspiral.figures import fig_orbit, fig_spiral, fig_telescope
from ngonspiral.lengthfns import power_law
from oracles import mp_q, mp_vertices, mp_w

# (argv, exit code, sha256 of stdout, {svg name: sha256 of its bytes})
FROZEN = [
    (
        "build --length power:1 --max-n 9 --out fig2.svg",
        0,
        "cf60ebc02d80e5b431940cced87d15bb0c9d02d3f7329783acfe7ea381b9e4e8",
        {"fig2.svg": "5130d8f64f12c642368480d44dcd3ca7fdfe7a08443925d08dd169c3a75233d4"},
    ),
    (
        "limit --s 0.00000001",
        0,
        "f928f6cefc85e376e403032fa80727521715dc4e6cf7f3c377a2480b2dbd5afe",
        {},
    ),
    (
        "classify --length power:-1",
        0,
        "f7e542617073eb286221ab9ada306a2fe1422c48f39f0c01a371d75b91629b70",
        {},
    ),
    (
        "orbit --out fig3a.svg",
        0,
        "7dda2aa761b7650889804924078061352051a03beccf567eae92507d4d128dbb",
        {"fig3a.svg": "a10616308cb7a9c618a3477c4eb4926926a5438110d86591e81a06b1b70d73a8"},
    ),
    (
        "curve --s-min 0.0000726 --s-max 1.77 --samples 10 --out fig3b.svg",
        0,
        "4d45db0427a4969b8afc45ccb7a8d9aa6e36262fd443ac044883cd12d3eca5cd",
        {"fig3b.svg": "e20139cbc4df8102bd0243964359702b798c511c81374c94ec46c3d03f1632a1"},
    ),
    (
        "telescope --check --n-max 2000",
        0,
        "cca5b684527247f93e327854a2406e8254e0ebe7822339008c162e23aec4daa8",
        {},
    ),
    (
        "telescope --out fig4a.svg",
        0,
        "550131383031f055404f52f81c7ae439c8d8351385b8f82a286b0b09d11c529e",
        {"fig4a.svg": "ecaf6cb5237b0a6b6eff74c0ab673d0f7bd06e8196689b3c2c26333d51f1fc77"},
    ),
    (
        "telescope --fig q --out fig4b.svg",
        0,
        "3a2956a575b6a18c5ee0ea17bf7f57a747ac28ea1e776cd8bf9078b6fdc09481",
        {"fig4b.svg": "a48f6fa387eb4c7b11cdfbc2ce27ad0361d83577d80d50b4f8e6e6f3b1571b85"},
    ),
    (
        "intersect --curve centers --lo 1.05 --hi 6",
        0,
        "ce13f3868e4d15835b8941ef1f339986efea59878ada8f9e216de2af09f12c9c",
        {},
    ),
    (
        "interp --length power:1 --n 3.5",
        0,
        "75c135e8826b8c375b047b50ea2a5da83143b01094cfacdd717f8c6bb794c8a1",
        {},
    ),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "command, code, stdout_sha, svgs", FROZEN, ids=[c.split(" --out")[0] for c, *_ in FROZEN]
)
def test_readme_command_is_byte_identical(command, code, stdout_sha, svgs, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == code
    assert _sha256(capsys.readouterr().out.encode()) == stdout_sha
    assert {name: _sha256((tmp_path / name).read_bytes()) for name in svgs} == svgs


# The interpolant of power:1 at n = 3.5 at 40 digits (bench/reference.py).
INTERP_3_5 = complex("0.2814188452308386750871171+0.3553602783116329129811385j")


def test_interp_row_is_the_mpmath_value(capsys):
    assert main("interp --length power:1 --n 3.5".split()) == 0
    header, row = capsys.readouterr().out.splitlines()
    name, n, re, im = row.split(",")
    assert (header, name, float(n)) == ("name,n,re,im", "interp", 3.5)
    assert abs(complex(float(re), float(im)) - INTERP_3_5) < 1e-8


def _rows(out: str, name: str) -> dict[float, complex]:
    """{n: value} of the ``name`` rows of a CSV table."""
    rows = {}
    for line in out.splitlines()[1:]:
        kind, n, re, im = line.split(",")
        if kind == name:
            rows[float(n)] = complex(float(re), float(im))
    return rows


@pytest.mark.parametrize(
    "command, spec, name",
    [
        ("build --length power:1 --max-n 9", "power:1", "centers"),
        ("telescope", "telescoping", "centers"),
        ("telescope --fig q", "telescoping", "q"),
        ("build --length power:1 --max-n 9", "power:1", "vertices"),
        ("telescope", "telescoping", "vertices"),
    ],
)
def test_center_rows_are_the_mpmath_values(command, spec, name, capsys):
    # a center is V(n) + Q(n), a q row Q(n) alone, a vertices row V(n) alone
    pytest.importorskip("mpmath")
    assert main(command.split()) == 0
    rows = _rows(capsys.readouterr().out, name)
    assert len(rows) >= 7
    vertices = mp_vertices(spec, [int(n) for n in rows]) if name != "q" else {}
    for n, z in rows.items():
        q = mp_q(spec, n) if name != "vertices" else 0j
        assert abs(z - (vertices.get(int(n), 0j) + q)) < 1e-13, n


# Largest error against 40 digits of a figure's vertex rows and of its
# polygons' shared vertices V(n), V(n-1) and centers (measured, rounded up:
# 3.5e-15 for the 139 rows of fig3a, 1.21e-14 for fig4a's centers).  When the
# runs rounded each phase at the ulp of 2 H_k they were 4.0e-14 and 1.9e-14.
FIGURE_VERTEX_ERROR, FIGURE_POLYGON_ERROR = 4e-15, 1.3e-14


@pytest.mark.parametrize(
    "build, spec",
    [
        (lambda: fig_spiral(power_law(1.0), 9), "power:1"),  # build --max-n 9, fig2.svg
        (fig_orbit, "power:0"),  # fig3a.svg
        (fig_telescope, "telescoping"),  # telescope, fig4a.svg
    ],
    ids=["fig2", "fig3a", "fig4a"],
)
def test_figure_vertices_are_the_mpmath_values(build, spec):
    # the vertex rows a figure draws and prints, V(2) to V(140) for fig3a,
    # and each polygon's two shared vertices and its center
    pytest.importorskip("mpmath")
    scene, tables = build()
    rows = dict(tables["vertices"])
    ref = mp_vertices(spec, [int(n) for n in rows])
    for n, z in rows.items():
        assert abs(z - ref[int(n)]) <= FIGURE_VERTEX_ERROR, n
    for p in scene.polygons:
        assert abs(p.vertices[0] - ref[p.n]) <= FIGURE_POLYGON_ERROR, p.n
        assert abs(p.vertices[1] - ref[p.n - 1]) <= FIGURE_POLYGON_ERROR, p.n
        assert abs(p.center - (ref[p.n] + mp_q(spec, p.n))) <= FIGURE_POLYGON_ERROR, p.n


@pytest.mark.parametrize(
    "command, name",
    [
        ("limit --s 0.00000001", "limit"),
        ("orbit --out fig3a.svg", "orbit-center"),
        ("curve --s-min 0.0000726 --s-max 1.77 --samples 10 --out fig3b.svg", "W"),
    ],
)
def test_w_rows_are_the_mpmath_values(command, name, capsys, tmp_path, monkeypatch):
    # a row (s, W(s)) within the CLI's default tolerance 1e-8 of the 40-digit
    # W(s); the orbit center's row is W(0), at n = 0
    pytest.importorskip("mpmath")
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 0
    rows = _rows(capsys.readouterr().out, name)
    assert len(rows) == (10 if name == "W" else 1)
    for s, w in rows.items():
        assert abs(w - mp_w(s)) < 1e-8, s


def _current(command: str) -> tuple[int, str, dict[str, str]]:
    """(exit code, stdout sha256, {svg name: sha256}) of one command run now."""
    cwd = os.getcwd()
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out):
                code = main(command.split())
        finally:
            os.chdir(cwd)
        svgs = {p.name: _sha256(p.read_bytes()) for p in sorted(Path(tmp).glob("*.svg"))}
    return code, _sha256(out.getvalue().encode()), svgs


if __name__ == "__main__":
    print("FROZEN = [")
    for command, *_ in FROZEN:
        code, stdout_sha, svgs = _current(command)
        svg_items = ", ".join(f'"{name}": "{sha}"' for name, sha in svgs.items())
        print(f'    (\n        "{command}",\n        {code},\n        "{stdout_sha}",')
        print(f"        {{{svg_items}}},\n    ),")
    print("]")
