"""Frozen-outputs gate: the 10 README commands, byte for byte.

Each command runs in-process through ``cli.main`` in a fresh directory.
The test compares its exit code, the sha256 of its stdout and the sha256
of every SVG it writes against the table below.

The hashes are the bytes of the platform that generated them (x86-64
Linux, CPython 3.11.7, numpy 2.4.6); another libm or numpy build may round
a last digit differently.  A change that alters an output byte on purpose
(ROADMAP items 1-2) updates the table entry here and names the changed
file in CHANGES.md.  The interp row is also checked by value against
its 40-digit mpmath oracle, so its hash rests on a checked number.
"""

import hashlib

import pytest

from ngonspiral.cli import main

# (argv, exit code, sha256 of stdout, {svg name: sha256 of its bytes})
FROZEN = [
    (
        "build --length power:1 --max-n 9 --out fig2.svg",
        0,
        "60eabe186790b5b264f9fc51d6e3c1eec6d4f9f0a8e966abd818e5132f75c47d",
        {"fig2.svg": "1d9084f4e95938043ccdbbeb5c25a604431f899e59581af231492c193fa098f5"},
    ),
    (
        "limit --s 0.00000001",
        0,
        "fc7bf294e0510802494e787a1b01843bbb2549ff48468a35f676903f35654a57",
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
        "029d78f8e3b251a2865e676e4a4e7948966e42aa4a42cedb0872c3113e9de2c0",
        {"fig3a.svg": "dca5556e71b52ef309c0f9d14644c045e10552b240ec481dfda000f5047ae107"},
    ),
    (
        "curve --s-min 0.0000726 --s-max 1.77 --samples 10 --out fig3b.svg",
        0,
        "f958dbdaf63aaedfbd9d4aba298ec4106e0039e084895e381ed8360362b38920",
        {"fig3b.svg": "48b9f5535d1bdb5280cb882c7a7813f105b8fcc3a2f6494b0f256631f99592bd"},
    ),
    (
        "telescope --check --n-max 2000",
        0,
        "305aaa4fdab835b07eec5af37069ad8b6f3dbc3faa2c138a39f8f476de8fe028",
        {},
    ),
    (
        "telescope --out fig4a.svg",
        0,
        "6f2a125943f8921e1130cb0da7bfad7740540f397c957ff826fd83bbed6ddc9b",
        {"fig4a.svg": "5dde8c9fccc63528a00a263ac2960a38d9282853b13082a86408987eff765831"},
    ),
    (
        "telescope --fig q --out fig4b.svg",
        0,
        "8e0dec3864760a1f7a2eff5a95b981cbab07246f376e6b328e6cb7e6028078b6",
        {"fig4b.svg": "bf15a29e55858f4e8776b465d16a35faaa52b0a21cf04e342564b1b985bcccb0"},
    ),
    (
        "intersect --curve centers --lo 1.05 --hi 6",
        0,
        "43fa1ae2896ef867eb79a88df82835f37f42852cad60303403740b90be6fbceb",
        {},
    ),
    (
        "interp --length power:1 --n 3.5",
        0,
        "109e99913f15a536bca3473e6123372c10659353dc59ef9301534b0f7c5bbb3c",
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
