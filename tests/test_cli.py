import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from ngonspiral import _arrays, convergence, figures, telescoping
from ngonspiral.cli import main

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert lines[0] == "name,n,re,im"
    rows = []
    for ln in lines[1:]:
        name, n, re_s, im_s = ln.split(",")
        rows.append((name, float(n), complex(float(re_s), float(im_s))))
    return rows


class TestBuild:
    def test_fig2_geometry(self, capsys, tmp_path):
        out_file = tmp_path / "fig2.svg"
        code, out, _ = run_cli(
            capsys, "build", "--length", "power:1", "--max-n", "9", "--out", str(out_file)
        )
        assert code == 0
        rows = parse_csv(out)
        from ngonspiral.lengthfns import power_law
        from ngonspiral.spiral import vertex

        by_name = {}
        for name, n, z in rows:
            by_name.setdefault(name, {})[n] = z
        assert by_name["vertices"][2.0] == 0j
        assert abs(by_name["vertices"][3.0] - vertex(power_law(1.0), 3)) < 1e-12
        assert set(by_name["vertices"]) == {float(n) for n in range(2, 10)}
        root = ET.parse(out_file).getroot()
        polys = [el for el in root.iter(f"{SVG_NS}polygon")]
        assert len(polys) == 7  # 3-gon .. 9-gon

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "build", "--length", "power:1", "--max-n", "4",
            "--no-interp", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert any(r["name"] == "vertices" and r["n"] == 2 for r in rows)

    def test_overflow_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "build", "--length", "power:-300", "--max-n", "12", "--no-interp"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("spiral: error:")

    def test_non_finite_rows_refused(self, capsys):
        # the 10-gon's center overflows to inf while every side is finite
        code, out, err = run_cli(
            capsys, "build", "--length", "power:-308.2", "--max-n", "10", "--no-interp"
        )
        assert code == 1
        assert out == ""
        assert "non-finite" in err


class TestLimit:
    def test_prints_digits(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--s", "0.00000001")
        assert code == 0
        rows = parse_csv(out)
        (name, s, z), = rows
        assert name == "limit"
        assert s == 1e-8
        assert abs(z - complex(1.2171195893976649, 2.6854140110631872)) < 1e-7

    def test_nonconvergence_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "limit", "--s", "0.5", "--tol", "1e-13", "--max-terms", "4",
        )
        assert code == 2
        assert "not converged" in err
        assert parse_csv(out)  # best estimate still printed


class TestClassify:
    def test_divergent(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--length", "power:-1")
        assert code == 0
        assert out.startswith("Divergent")

    def test_point(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--length", "power:0.5")
        assert code == 0
        assert out.startswith("Point")

    def test_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--length", "power:0")
        assert code == 0
        assert out.startswith("CircularOrbit")
        assert "radius=0.5" in out

    @pytest.mark.parametrize("spec, kind", [("power:0.5", "Point"), ("power:0", "CircularOrbit")])
    def test_starved_budget_is_flagged(self, capsys, spec, kind):
        code, out, err = run_cli(capsys, "classify", "--length", spec, "--max-terms", "4")
        assert code == 2
        assert out.startswith(kind)  # best estimate still printed
        assert "classify: not converged" in err


class TestOrbit:
    def test_center_digits(self, capsys):
        code, out, _ = run_cli(capsys, "orbit")
        assert code == 0
        (_, _, z), = parse_csv(out)
        assert abs(z - complex(1.2171196025655378, 2.6854140487169539)) < 1e-10

    def test_starved_budget_is_flagged(self, capsys):
        code, out, err = run_cli(capsys, "orbit", "--max-terms", "4")
        assert code == 2
        assert parse_csv(out)
        assert "orbit: not converged (error estimate" in err


class TestCurve:
    def test_endpoints_evaluated(self, capsys, tmp_path):
        out_file = tmp_path / "fig3b.svg"
        code, out, _ = run_cli(
            capsys, "curve", "--s-min", "0.0000726", "--s-max", "1.77",
            "--samples", "5", "--out", str(out_file),
        )
        assert code == 0
        rows = parse_csv(out)
        ss = sorted(n for _, n, _ in rows)
        assert abs(ss[0] - 0.0000726) < 1e-12
        assert abs(ss[-1] - 1.77) < 1e-12
        for _, _, z in rows:
            assert math.isfinite(abs(z))
        ET.parse(out_file)

    def test_starved_samples_are_flagged(self, capsys, tmp_path):
        # 4 terms a sum converge nowhere: every row is renamed, none dropped,
        # stderr counts them and the exit code says so
        code, out, err = run_cli(
            capsys, "curve", "--s-min", "0.0000726", "--s-max", "1.77", "--samples", "10",
            "--max-terms", "4",
        )
        assert code == 2
        rows = parse_csv(out)
        assert [name for name, _, _ in rows] == ["W-not-converged"] * 10
        assert abs(rows[0][1] - 0.0000726) < 1e-12 and abs(rows[-1][1] - 1.77) < 1e-12
        assert err == "curve: 10 of 10 samples not converged\n"


class TestTelescope:
    def test_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "telescope", "--check", "--n-max", "500")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 5

    @pytest.mark.parametrize("scale, verdict", [(1 + 4e-14, "PASS"), (1 + 1e-12, "FAIL")])
    def test_q_line_is_relative(self, capsys, monkeypatch, scale, verdict):
        # |Q(m)| reaches ~630 by m = 2,000, so a relative error of 4e-14
        # reads 2.5e-11 in absolute terms; 1e-12 relative is a real fault
        import ngonspiral.cli as cli_mod

        q_term = cli_mod.q_term
        monkeypatch.setattr(cli_mod, "q_term", lambda f, n: q_term(f, n) * scale)
        _, out, _ = run_cli(capsys, "telescope", "--check", "--n-max", "2000")
        (line,) = [row for row in out.splitlines() if "Q closed form" in row]
        assert line.startswith(verdict), line

    def test_figure(self, capsys, tmp_path):
        out_file = tmp_path / "fig4a.svg"
        code, out, _ = run_cli(capsys, "telescope", "--out", str(out_file))
        assert code == 0
        root = ET.parse(out_file).getroot()
        assert any(el.get("id") == "curve-centers-curve" for el in root.iter())

    def test_q_figure(self, capsys, tmp_path):
        out_file = tmp_path / "fig4b.svg"
        code, _, _ = run_cli(capsys, "telescope", "--fig", "q", "--out", str(out_file))
        assert code == 0
        ET.parse(out_file)

    @pytest.mark.parametrize(
        "argv, mode, flag",
        [
            (["--check", "--out", "fig.svg"], "--check", "--out"),
            (["--check", "--fig", "centers"], "--check", "--fig"),
            (["--check", "--fig", "q"], "--check", "--fig"),
            (["--fig", "q", "--n-max", "20"], "--fig q", "--n-max"),
            (["--check", "--n-max", "10", "--format", "json"], "--check", "--format"),
        ],
        ids=["check-out", "check-fig-centers", "check-fig-q", "fig-q-n-max", "check-format"],
    )
    def test_flags_the_output_does_not_read_are_refused(self, capsys, tmp_path, monkeypatch, argv, mode, flag):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "telescope", *argv)
        assert code == 1
        assert out == ""
        assert err == f"spiral: error: telescope {mode} does not read {flag}\n"
        assert not any(tmp_path.iterdir())


class TestIntersect:
    def test_centers_golden_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "intersect", "--curve", "centers", "--lo", "1.05", "--hi", "6",
            "--step", "0.002",
        )
        assert code == 0
        rows = parse_csv(out)
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        params = sorted(n for _, n, _ in rows)
        assert abs(params[0] - phi) < 1e-7
        assert abs(params[-1] - (phi + 1.0)) < 1e-7


class TestInterp:
    def test_matches_vertex(self, capsys):
        code, out, _ = run_cli(capsys, "interp", "--length", "power:1", "--n", "5")
        assert code == 0
        (_, n, z), = parse_csv(out)
        from ngonspiral.lengthfns import power_law
        from ngonspiral.spiral import vertex

        assert n == 5.0
        assert abs(z - vertex(power_law(1.0), 5)) < 1e-7

    @pytest.mark.parametrize("length", ["circumscribed:1", "area:0"])
    def test_n_one_ulp_above_one(self, capsys, length):
        # n + 1 rounds to 2, where both families are singular: refused by
        # the domain check, with a message that names n
        code, out, err = run_cli(capsys, "interp", "--length", length, "--n", "1.0000000000000002")
        assert (code, out) == (1, "")
        assert "got n = 1.0000000000000002" in err
        code, out, _ = run_cli(capsys, "interp", "--length", length, "--n", "1.0000000000000004")
        assert code == 0
        assert parse_csv(out)[0][1] == 1.0000000000000004


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "limit", "--s", "1", "--bogus")
        assert code == 1
        assert "usage" in err

    def test_missing_required(self, capsys):
        assert run_cli(capsys, "build")[0] == 1

    def test_bad_length_spec(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--length", "weird:1")
        assert code == 1
        assert "length spec" in err

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--length", "power:1", "--format", "json"],
            ["telescope", "--check", "--tol", "1e-30"],
            ["telescope", "--max-terms", "5"],
            ["intersect", "--curve", "centers", "--lo", "1.05", "--hi", "6", "--max-terms", "5"],
            ["limit", "--s", "0.5", "--strategy", "paired"],
        ],
        ids=[
            "classify-format", "telescope-tol", "telescope-max-terms", "intersect-max-terms",
            "limit-strategy",
        ],
    )
    def test_flags_the_handler_ignores_are_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["limit", "--s", "0.5", "--max-terms", "0"],
            ["telescope", "--check", "--n-max", "0"],
            ["telescope", "--n-max", "0"],
            ["limit", "--s", "0.5", "--tol", "inf"],
            ["limit", "--s", "0.5", "--tol", "nan"],
            ["interp", "--length", "power:1", "--n", "3.5", "--tol", "inf"],
            ["interp", "--length", "power:1", "--n", "3.5", "--tol", "nan"],
            ["limit", "--s", "0.5", "--tol", "1e-14"],
            ["classify", "--length", "power:nan"],
            ["classify", "--length", "inscribed:nan"],
            ["classify", "--length", "power:inf"],
            ["curve", "--s-min", "1", "--s-max", "inf", "--samples", "3"],
            ["curve", "--s-min", "1", "--s-max", "nan", "--samples", "3"],
        ],
        ids=[
            "limit-max-terms-0", "telescope-check-n-max-0", "telescope-n-max-0",
            "limit-tol-inf", "limit-tol-nan", "interp-tol-inf", "interp-tol-nan",
            "limit-tol-below-rounding", "power-nan", "inscribed-nan", "power-inf",
            "curve-s-max-inf", "curve-s-max-nan",
        ],
    )
    def test_zero_and_non_finite_values_are_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("spiral: error:")


def test_max_terms_past_an_index_is_refused_by_name(capsys):
    code, out, err = run_cli(capsys, "limit", "--s", "0.5", "--max-terms", str(10**400))
    assert (code, out) == (1, "")
    assert err.startswith("spiral: error:")
    assert "max_terms" in err


def test_overflowing_side_length_names_the_family(capsys):
    code, out, err = run_cli(capsys, "build", "--length", "inscribed:-300", "--max-n", "250", "--no-interp")
    assert (code, out) == (1, "")
    assert err.startswith("spiral: error:")
    assert "inscribed:-300 at n = 11.0 is non-finite" in err


class TestSizeCaps:
    @pytest.fixture(autouse=True)
    def _no_work(self, monkeypatch):
        # A guard that failed to fire must not go on to the huge job.
        def refuse(*args):
            raise AssertionError("the work was started")

        monkeypatch.setattr(figures, "vertex_at", refuse)
        monkeypatch.setattr(convergence, "limit_point", refuse)
        monkeypatch.setattr(_arrays, "_identity_residual", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--length", "power:1", "--max-n", str(figures._MAX_POLYGON + 1)],
            ["telescope", "--n-max", str(figures._MAX_POLYGON + 1)],
            ["telescope", "--check", "--n-max", str(telescoping._MAX_IDENTITY_N + 1)],
            ["curve", "--s-min", "0.5", "--s-max", "1", "--samples",
             str(convergence._MAX_CURVE_SAMPLES // 4 + 1)],
        ],
        ids=["build", "telescope-figure", "telescope-check", "curve"],
    )
    def test_over_cap_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("spiral: error:")


class TestDeterminism:
    def test_identical_flags_identical_output(self, capsys):
        _, first, _ = run_cli(capsys, "limit", "--s", "0.5")
        _, second, _ = run_cli(capsys, "limit", "--s", "0.5")
        assert first == second

    def test_check_failure_path_exits_nonzero(self, capsys, monkeypatch):
        import ngonspiral.cli as cli_mod

        monkeypatch.setattr(
            cli_mod.tele, "verify_telescoping_identity", lambda n_max: 1.0
        )
        code, out, _ = run_cli(capsys, "telescope", "--check", "--n-max", "10")
        assert code == 2
        assert "FAIL" in out


class TestConsoleEntry:
    @staticmethod
    def _read_one_line_and_close(env):
        argv = [sys.executable, "-m", "ngonspiral.cli", "build", "--length", "power:1", "--max-n", "2000",
                "--no-interp"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"name,n,re,im\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait() == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err

    def test_closed_stdout_exits_one_without_a_traceback(self):
        # stdout block-buffered, as a pipe's is by default, so ~210 KB of
        # rows go out in several writes, more than a pipe holds: the writer
        # outlives the reader, which takes one line and closes the pipe
        self._read_one_line_and_close({k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"})

    def test_closed_unbuffered_stdout_exits_one(self):
        # unbuffered (PYTHONUNBUFFERED=1, python -u), the rows go out in one
        # write, which the pipe takes only in part: the rest must be written
        # or the closed pipe seen, not dropped at exit 0
        self._read_one_line_and_close({**os.environ, "PYTHONUNBUFFERED": "1"})

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ngonspiral.cli", "classify", "--length", "power:-1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("Divergent")
