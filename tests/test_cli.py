"""Tests for the command-line front end: schemas, exit codes, determinism."""
import io
import json
import math
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expgrowth.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    RunConfig,
    _write_counting,
    main,
    parse_complex,
    parse_config_file,
)
from expgrowth.csvio import fmt
from expgrowth.lattice import ZeroLattice
from expgrowth.product import dyadic_radii

#: how a numeric failure names the inversion circle of a radius
CIRCLE = ("_Path(r_start={0!r}, r_end={0!r}, angle_start=0.0, "
          "angle_end=6.283185307179586, first=4)")

def run(*args, cwd=None):
    """Run the CLI in a fresh interpreter; returns (code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "expgrowth", *args],
        capture_output=True, text=True, cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_main(argv):
    """Call main in-process; a SystemExit counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def strict_json(line):
    """json.loads that refuses the non-JSON constants NaN and Infinity."""
    def reject(name):
        raise ValueError("not JSON: %s" % name)
    return json.loads(line, parse_constant=reject)


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("1+2j") == 1 + 2j
        assert parse_complex("3") == 3 + 0j
        assert parse_complex("-0.5i") == -0.5j
        assert parse_complex("(3-4i)") == 3 - 4j
        # only a final i is the imaginary unit
        assert parse_complex("inf") == complex(float("inf"), 0.0)
        assert parse_complex("-infi") == complex(0.0, -float("inf"))

    def test_complex_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_complex("one plus two")

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "k-max = 9\n"
            'out_dir = "somewhere"\n'
            "emit_svg = true\n"
            "\n"
            "q = 0.2  # trailing comment\n"
        )
        values = parse_config_file(cfg)
        assert values == {
            "k_max": "9", "out_dir": "somewhere",
            "emit_svg": "true", "q": "0.2",
        }

    def test_config_defaults(self):
        cfg = RunConfig()
        assert cfg.k_max == 14 and cfg.q == 0.1 and cfg.format == "csv"


class TestEval:
    def test_product_value(self, capsys):
        assert main(["eval", "--z", "1+0i"]) == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()
        assert header == "z_re,z_im,f_re,f_im,log_abs_f,arg_f"
        cells = row.split(",")
        assert float(cells[2]) == pytest.approx(0.7470702679711394, rel=1e-12)
        assert float(cells[3]) == 0.0

    def test_json_lines(self, capsys):
        assert main(["--format", "json", "eval", "--z", "1+0i"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["f_re"] == pytest.approx(0.7470702679711394, rel=1e-12)

    def test_json_non_finite_as_csv_strings(self, capsys):
        # f(2) = 0 exactly, so log|f| = -inf; f(1e300) overflows to inf
        assert main(["--format", "json", "eval", "--z", "2"]) == EXIT_OK
        assert strict_json(capsys.readouterr().out)["log_abs_f"] == "-inf"
        assert main(["--format", "json", "eval", "--z", "1e300"]) == EXIT_OK
        record = strict_json(capsys.readouterr().out)
        assert record["f_re"] == "inf" and record["f_im"] == 0.0

    def test_borel_value(self, capsys):
        assert main(["borel", "eval", "--s", "4"]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1]
        assert float(row.split(",")[2]) == pytest.approx(
            0.2421388632701698, rel=1e-12)

    def test_identity_residual(self, capsys):
        assert main(["contour", "identity", "--z", "2+0i"]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1]
        assert float(row.split(",")[-1]) <= 1e-8

    def test_inversion_record(self, capsys):
        assert main(["borel", "invert", "--z", "1.5+0.5i"]) == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()
        assert header.split(",")[-1] == "rel_err"
        assert float(row.split(",")[-1]) <= 1e-8

    def test_identity_schema(self, capsys):
        assert main(["contour", "identity", "--z", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "z_re,z_im,f_re,f_im,u_re,u_im,F_re,F_im,residual_abs"
        )
        assert len(lines) == 2

    @pytest.mark.parametrize("argv", [
        ("eval", "--z", "-3+2i"), ("borel", "eval", "--s", "-3+1i"),
        ("contour", "identity", "--z", "-8j"), ("eval", "--z", "-0.5i"),
    ])
    def test_negative_value_after_a_space(self, argv):
        # argparse would read "-3+2i" as an option and leave --z without one
        code, out, err = run_main(list(argv))
        assert code == EXIT_OK and err == ""
        joined = run_main(list(argv[:-2]) + ["%s=%s" % argv[-2:]])
        assert joined == (code, out, err)
        assert len(out.splitlines()) == 2

    def test_borel_check_schema_and_zero_direct(self, capsys):
        # f(2) = 0 exactly, the circle integral only to roundoff
        assert main(["borel", "invert", "--z", "2"]) == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()
        assert header == (
            "z_re,z_im,direct_re,direct_im,contour_re,contour_im,abs_err,rel_err"
        )
        assert row.endswith(",inf")


class TestLattice:
    def test_artifacts(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "--k-max", "5",
                     "lattice"]) == EXIT_OK
        capsys.readouterr()
        zeros = (tmp_path / "zeros.csv").read_text().splitlines()
        assert zeros[0] == "k,j,re,im"
        assert len(zeros) == 1 + (2 ** 6 - 2)
        counting = (tmp_path / "counting.csv").read_text().splitlines()
        assert counting[0] == "r,n,n_over_r,upper_band"
        assert "16,30,1.875,0" in counting

    def test_two_zeros_at_k_one(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "--k-max", "1",
                     "lattice"]) == EXIT_OK
        capsys.readouterr()
        assert len((tmp_path / "zeros.csv").read_text().splitlines()) == 3

    def test_flagged_rows_below_four_thirds(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "--k-max", "10",
                     "lattice"]) == EXIT_OK
        capsys.readouterr()
        rows = (tmp_path / "counting.csv").read_text().splitlines()[1:]
        flagged = [r.split(",") for r in rows if r.endswith(",1")]
        assert flagged
        assert all(float(c[2]) <= 4.0 / 3.0 for c in flagged)

    def test_counting_matches_per_row_writer(self, tmp_path):
        # the per-row writer the blocks replaced; 1281 rows span two blocks
        lattice = ZeroLattice(k_max=20)
        lines = ["r,n,n_over_r,upper_band"]
        for r in dyadic_radii(0, 20, 64):
            n = lattice.counting(r)
            lines.append(",".join((fmt(float(r)), str(n), fmt(n / r),
                                   "1" if math.frexp(r)[0] >= 0.75 else "0")))
        rows = _write_counting(lattice, tmp_path, emit_svg=False)
        assert len(rows) == len(lines) - 1 == 1281
        assert ((tmp_path / "counting.csv").read_bytes()
                == ("\n".join(lines) + "\n").encode("ascii"))


class TestProfileAndDiagnose:
    def test_profile_schema(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "profile",
                     "--r-min", "256", "--r-max", "4096"]) == EXIT_OK
        capsys.readouterr()
        lines = (tmp_path / "profile.csv").read_text().splitlines()
        assert lines[0] == "function_id,theta,r,value"
        assert len(lines) == 1 + 4 * 256 + 1

    def test_diagnose_product_irregular(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "diagnose"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "irregular" in out
        verdict = json.loads((tmp_path / "verdict_f.json").read_text())
        assert verdict["verdict"] == "irregular"
        assert verdict["limit_or_gap"] >= 0.04
        windows = (tmp_path / "windows.csv").read_text().splitlines()
        assert windows[0] == "function_id,theta,k,r_lo,r_hi,inf,q_low,q_high,sup"

    def test_diagnose_control_regular(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "diagnose",
                     "--function", "exp2z"]) == EXIT_OK
        capsys.readouterr()
        verdict = json.loads((tmp_path / "verdict_exp2z.json").read_text())
        assert verdict["verdict"] == "regular"
        assert verdict["limit_or_gap"] == 2.0

    def test_svg_emitted_on_request(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "--svg", "diagnose"]) == EXIT_OK
        capsys.readouterr()
        svg_text = (tmp_path / "profile.svg").read_text()
        assert svg_text.startswith("<svg") and svg_text.endswith("</svg>\n")


class TestConfigLayering:
    def test_file_then_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k_max = 5\nout_dir = %s\n" % tmp_path)
        assert main(["--config", str(cfg), "lattice"]) == EXIT_OK
        capsys.readouterr()
        assert len((tmp_path / "zeros.csv").read_text().splitlines()) == 1 + 62
        # the flag wins over the file
        assert main(["--config", str(cfg), "--k-max", "4",
                     "lattice"]) == EXIT_OK
        capsys.readouterr()
        assert len((tmp_path / "zeros.csv").read_text().splitlines()) == 1 + 30

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_option = 3\n")
        assert main(["--config", str(cfg), "lattice"]) == EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k_max\n")
        assert main(["--config", str(cfg), "lattice"]) == EXIT_USAGE
        capsys.readouterr()


class TestExitCodes:
    def test_bad_subcommand(self):
        code, _, err = run("badcmd")
        assert code == EXIT_USAGE and "invalid choice" in err

    def test_missing_required_flag(self):
        code, _, _ = run("eval")
        assert code == EXIT_USAGE

    def test_bad_complex(self, capsys):
        assert main(["eval", "--z", "nope"]) == EXIT_USAGE
        assert "cannot parse" in capsys.readouterr().err

    def test_bad_samples(self, capsys):
        assert main(["profile", "--samples-per-window", "100"]) == EXIT_USAGE
        capsys.readouterr()

    def test_unreachable_tolerance(self, capsys):
        assert main(["--tol", "1e-16", "eval", "--z", "1"]) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_contour_radius(self, capsys):
        assert main(["borel", "invert", "--z", "1", "--radius", "9"]) \
            == EXIT_USAGE
        capsys.readouterr()

    def test_z_outside_product_domain(self):
        # non-finite z and z beyond the cutoff's binary64 range are usage
        # errors of every command that evaluates f, never a silent nan
        for argv in (("eval", "--z", "nan"), ("eval", "--z", "1e308"),
                     ("contour", "identity", "--z", "nan"),
                     ("borel", "invert", "--z", "1e308")):
            code, out, err = run(*argv)
            assert code == EXIT_USAGE, argv
            assert out == "" and "Traceback" not in err
            assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        # the grid's last radius would lie beyond |z| = 2^1013
        ("--r-min", "1", "--r-max", "1e306", "--samples-per-window", "1"),
        # 1994 windows of 65536 samples: 130,678,785 radii before filtering
        ("--r-min", "1e-300", "--r-max", "1e300",
         "--samples-per-window", "65536"),
    ])
    def test_profile_grid_refused_before_any_array(self, argv):
        code, out, err = run("profile", *argv)
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv, want", [
        (("borel", "eval", "--s", "1"), EXIT_USAGE),
        (("borel", "eval", "--s", "nan"), EXIT_USAGE),
        (("borel", "invert", "--z", "200"), EXIT_NUMERIC),
        (("borel", "invert", "--z", "1e5"), EXIT_NUMERIC),
        (("eval", "--z", "1e300"), EXIT_OK),
        (("profile", "--theta", "nan"), EXIT_USAGE),
        (("diagnose", "--theta", "inf"), EXIT_USAGE),
        # refused before any quadrature runs
        (("--tol", "nan", "borel", "invert", "--z", "1"), EXIT_USAGE),
        (("profile", "--r-max", "inf"), EXIT_USAGE),
        (("profile", "--r-min", "nan"), EXIT_USAGE),
        (("borel", "coeffs", "--max-index", "-5"), EXIT_USAGE),
        # refused before any circle is materialized
        (("--k-max", "21", "lattice"), EXIT_USAGE),
        (("--k-max", "21", "reproduce"), EXIT_USAGE),
        (("eval", "--z", "inf"), EXIT_USAGE),
        (("borel", "eval", "--s", "inf"), EXIT_USAGE),
        # refused before any array or row is formed (2^40 samples per window
        # would ask numpy for 48 TiB)
        (("profile", "--samples-per-window", "1099511627776"), EXIT_USAGE),
        (("borel", "coeffs", "--max-index", "100000000000"), EXIT_USAGE),
        # grids the profile plot cannot draw: empty, one zero sample, one
        # sample, two zeros
        (("--svg", "profile", "--r-min", "256.1", "--r-max", "256.2"),
         EXIT_USAGE),
        (("--svg", "profile", "--theta", "0", "--r-min", "256",
          "--r-max", "256.5"), EXIT_USAGE),
        (("--svg", "profile", "--r-min", "1", "--r-max", "1.001"),
         EXIT_USAGE),
        (("--svg", "profile", "--theta", "0", "--samples-per-window", "1",
          "--r-min", "256", "--r-max", "512"), EXIT_USAGE),
        # an infinite tolerance is refused like a nan one, not run
        (("--tol", "inf", "borel", "invert", "--z", "3"), EXIT_USAGE),
        (("diagnose", "--gap-tol", "inf"), EXIT_USAGE),
        (("diagnose", "--drift-tol", "inf"), EXIT_USAGE),
    ])
    def test_contract_probes(self, argv, want, tmp_path):
        code, out, err = run("--out-dir", str(tmp_path), *argv)
        assert code == want
        assert "Traceback" not in err and "nan" not in out
        # one error line; a numpy warning would add its own
        assert len(err.splitlines()) == (want != EXIT_OK)
        if argv[-2:] in (("--z", "inf"), ("--s", "inf")):
            # a non-finite z or s is named as such, not as unparsable
            assert "finite" in err and "cannot parse" not in err

    def test_u_overflow_names_z_and_the_bound(self):
        # e^{-4z} leaves binary64 once Re z < -177.4
        code, out, err = run("contour", "identity", "--z", "-200")
        assert code == EXIT_NUMERIC
        assert out == "" and "Traceback" not in err
        assert err == ("numeric failure: u(z) at z = (-200+0j) leaves "
                       "binary64: e^(-4z) overflows once Re z < -177.4\n")

    def test_cap_refusal_names_the_exact_modulus(self):
        # just past the cap, a rounded modulus would read 40, the cap itself
        code, out, err = run("contour", "identity", "--z", "40.00000000000001")
        assert code == EXIT_NUMERIC
        assert out == "" and "Traceback" not in err
        assert err.startswith("numeric failure: |z|=40.00000000000001 beyond "
                              "cancellation cap 40.0")

    @pytest.mark.parametrize("argv, where", [
        (("--z", "200"), "(200+0j) on " + CIRCLE.format(4.0)),
        (("--z", "-180"), "(-180+0j) on " + CIRCLE.format(4.0)),
        (("--z", "1e6", "--radius", "2.5"),
         "(1000000+0j) on " + CIRCLE.format(2.5)),
    ], ids=["200", "-180", "1e6-radius-2.5"])
    def test_inversion_overflow_names_z_and_the_circle(self, argv, where):
        code, out, err = run("borel", "invert", *argv)
        assert code == EXIT_NUMERIC
        assert out == "" and "Traceback" not in err
        assert err == (f"numeric failure: g(s) e^(zs) at z = {where}: "
                       "overflow encountered in exp\n")

    @pytest.mark.parametrize("text", [b"k-max = abc\n", b"k-max = \xff\n",
                                      b"gap-tol = nan\n"])
    def test_bad_config_value(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text)
        code, _, err = run("--config", str(cfg), "eval", "--z", "2")
        assert code == EXIT_USAGE
        assert "Traceback" not in err and err.startswith("error: ")

    def test_reproduce_needs_windows(self, capsys):
        assert main(["--k-max", "1", "reproduce"]) == EXIT_USAGE
        assert "k_max" in capsys.readouterr().err


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """Output directory of one in-process reproduce run at k_max = 12."""
    out = tmp_path_factory.mktemp("reproduce")
    code, _, _ = run_main(["--out-dir", str(out), "--k-max", "12",
                           "reproduce"])
    assert code == EXIT_OK
    return out


class TestReproduce:
    def test_inversion_row_is_the_command_row(self, reproduced):
        # check 5 is a batch of `borel invert`: same record, same bits
        row = (reproduced / "borel_check.csv").read_text().splitlines()[3]
        z_re, z_im = row.split(",")[:2]
        z = "%s%s%si" % (z_re, "" if z_im.startswith("-") else "+", z_im)
        code, out, _ = run_main(["--k-max", "12", "borel", "invert", "--z=" + z])
        assert code == EXIT_OK
        assert out.splitlines()[1] == row

    def test_report_rows_have_three_cells(self, reproduced):
        report = (reproduced / "report.md").read_text()
        rows = [line for line in report.splitlines() if line.startswith("|")]
        assert len(rows) == 13
        for line in rows:
            assert len(re.split(r"(?<!\\)\|", line)) == 5, line
        assert r"sup log\|f\|/r" in report

    def test_verification_failure(self, tmp_path):
        # a gap tolerance this wide calls the product's growth regular
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gap_tol = 0.5\n")
        code, out, _ = run_main(["--config", str(cfg), "--out-dir",
                                 str(tmp_path), "--k-max", "12", "reproduce"])
        assert code == EXIT_VERIFY
        assert "Overall: FAIL" in (tmp_path / "report.md").read_text()
        (line,) = [x for x in out.splitlines() if x.startswith("[FAIL]")]
        assert "verdict regular, limit 1.4" in line
        assert "gap" not in line

    def test_imports_no_numpy_submodule(self, tmp_path):
        # numpy imports numpy.random and numpy.polynomial lazily; a cold
        # reproduce must not pay for them (an eager numpy passes too)
        code = (
            "import sys\n"
            "import expgrowth.cli\n"
            "before = set(sys.modules)\n"
            "code = expgrowth.cli.main(['--out-dir', sys.argv[1],\n"
            "                           '--k-max', '12', 'reproduce'])\n"
            "print(code, sorted(m for m in set(sys.modules) - before\n"
            "                   if m.split('.')[0] == 'numpy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_end_to_end_and_determinism(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        code1, out1, _ = run("--out-dir", str(first), "--k-max", "12",
                             "reproduce")
        code2, out2, _ = run("--out-dir", str(second), "--k-max", "12",
                             "reproduce")
        assert code1 == code2 == EXIT_OK
        assert "FAIL" not in out1
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        assert {"report.md", "zeros.csv", "counting.csv", "profile.csv",
                "coeffs.csv", "identity.csv", "borel_check.csv", "windows.csv",
                "verdict_f.json", "verdict_exp2z.json", "verdict_sin2z.json",
                "counting.svg", "profile.svg", "decay.svg"} <= set(names)
        report = (first / "report.md").read_text()
        assert "Overall: PASS" in report
        assert "irregular" in report


#: float reprs (nan, inf, the binary64 extremes, subnormals), complex
#: strings and short junk text
_FLOAT_TEXT = st.floats().map(repr)
_FUZZ_TEXT = st.one_of(
    _FLOAT_TEXT,
    st.sampled_from(["nan", "-inf", "1e308", "-1e308", "5e-324", "2.5",
                     "1e300", "200", "1+2i", "-0.5i", "(3-4j)", "inf"]),
    st.builds("{}+{}j".format, _FLOAT_TEXT, _FLOAT_TEXT),
    st.text(max_size=8),
)


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "run.cfg"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(form=st.sampled_from(["eval", "json", "borel", "invert", "config"]),
       x=_FUZZ_TEXT)
# 1/s overflowed inside g at |s| = 2^1023.5
@example(form="borel", x="8.98846567431158e+307+8.98846567431158e+307j")
def test_cli_contract_fuzz(fuzz_config, form, x):
    """No input lets an exception escape main or an exit code leave 0..3.

    A numpy overflow must surface as exit code 2, never as a warning.
    """
    if form == "config":
        fuzz_config.write_text("k-max = %s\n" % x, encoding="utf-8")
        argv = ["--config", str(fuzz_config), "eval", "--z", "2"]
    elif form == "borel":
        argv = ["borel", "eval", "--s=" + x]
    elif form == "invert":
        argv = ["borel", "invert", "--z=" + x]
    else:
        argv = ["eval", "--z=" + x]
        if form == "json":
            argv = ["--format", "json"] + argv
    code, out, _ = run_main(argv)
    assert code in (0, 1, 2, 3)
    if form == "json":
        for line in out.splitlines():
            strict_json(line)
