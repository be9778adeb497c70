"""Command-line interface: output formats, exit codes, file artifacts."""

import math

import pytest

from conftest import REFERENCE, rel
from wavespeed.charfun import ModelParams
from wavespeed import cli
from wavespeed.cli import main
from wavespeed.errors import ConvergenceError
from wavespeed.kernels import GaussianKernel
from wavespeed.solver import solve_critical

CURVE_HEADER = ("h,c_star,lower_add,lower_log,upper_k1,upper_k2,"
                "lower_active,upper_active,residual")


def parse_kv_stdout(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


class TestSpeedCommand:
    def test_reports_critical_point(self, capsys):
        assert main(["speed", "--p", "2", "--h", "1",
                     "--kernel", "gaussian:alpha=1"]) == 0
        fields = parse_kv_stdout(capsys.readouterr().out)
        assert rel(float(fields["c_star"]),
                   REFERENCE["gauss_h1"]["c_star"]) < 1e-11
        assert rel(float(fields["eps0"]),
                   REFERENCE["gauss_h1"]["eps0"]) < 1e-11
        assert fields["inside"] == "yes"

    def test_rejects_subcritical_slope(self, capsys):
        assert main(["speed", "--p", "0.5", "--h", "1",
                     "--kernel", "gaussian:alpha=1"]) == 2
        assert "p must be > 1" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["1e155", "1e200"])
    def test_refuses_delay_beyond_double_range(self, capsys, h):
        assert main(["speed", "--p", "2", "--h", h, "--kernel", "dirac"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "double range" in err
        assert "Traceback" not in err

    def test_numerical_failure_exits_3(self, capsys):
        # p = 1+1e-9 without dispersal: the proven upper window end does
        # not certify, a NumericalError that main maps to exit 3
        assert main(["speed", "--p", "1.000000001", "--h", "0",
                     "--kernel", "dirac"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:")

    def test_minimizer_past_the_mgf_range_exits_2(self, capsys):
        # the minimizer of psi lies where M overflows: a named DomainError
        assert main(["speed", "--p", "1000", "--h", "1",
                     "--kernel", "twopoint:a=50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "double range" in lines[0]

    def test_refuses_an_upper_bound_past_double_range(self, capsys):
        # eps = 1/upper^2 at the window's end underflows to 0
        assert main(["speed", "--p", "1e156", "--h", "1",
                     "--kernel", "gaussian:alpha=1"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "upper speed bound" in lines[0]

    def test_rejects_unknown_kernel(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["speed", "--p", "2", "--h", "1", "--kernel", "blob:a=1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("kernel", ["gaussian:alpha=1000",
                                        "uniform:a=1000", "twopoint:a=800"])
    def test_reports_the_ad_bound_where_the_mgf_overflows(self, capsys,
                                                          kernel):
        # M overflows inside the ad family's (0, 1) for all three, and at
        # k2's sqrt(ln 2) for the box; neither stops the command
        assert main(["speed", "--p", "2", "--h", "1", "--kernel", kernel]) == 0
        fields = parse_kv_stdout(capsys.readouterr().out)
        assert fields["inside"] == "yes"
        assert float(fields["c_star"]) < float(fields["ad_upper"].split()[0])


class TestBoundsCommand:
    def test_lists_all_candidates(self, capsys):
        assert main(["bounds", "--p", "2", "--h", "1",
                     "--kernel", "gaussian:alpha=1"]) == 0
        fields = parse_kv_stdout(capsys.readouterr().out)
        for key in ("k1", "k2", "lower_add", "lower_log",
                    "upper_k1", "upper_k2", "lower", "upper"):
            assert key in fields
        assert float(fields["lower"]) < float(fields["upper"])

    def test_overflowing_k2_prints_inf(self, capsys):
        # sinh(1000 sqrt(ln 2)) overflows, so k2 is +inf and upper is k1's
        assert main(["bounds", "--p", "2", "--h", "1",
                     "--kernel", "uniform:a=1000"]) == 0
        fields = parse_kv_stdout(capsys.readouterr().out)
        assert fields["k2"] == fields["upper_k2"] == "inf"
        assert fields["upper"] == fields["upper_k1"]
        assert float(fields["upper_ad"].split()[0]) < float(fields["upper"])


class TestCurveCommand:
    def test_csv_layout(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--p", "2", "--kernel", "gaussian:alpha=1",
                     "--h-min", "0", "--h-max", "2", "--samples", "5",
                     "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw                      # LF only
        lines = raw.decode("ascii").strip().split("\n")
        assert lines[0] == CURVE_HEADER
        assert len(lines) == 6

        # no-delay row drops the k2 candidate
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[5] == "inf"

        # every c_star column entry round-trips against a fresh solve
        kernel = GaussianKernel(1.0)
        for line in lines[1:]:
            cells = line.split(",")
            h, c_star = float(cells[0]), float(cells[1])
            fresh = solve_critical(ModelParams(p=2.0, h=h), kernel).c_star
            assert rel(c_star, fresh) < 1e-11
            lo, hi = float(cells[6]), float(cells[7])
            assert lo < c_star < hi
            assert float(cells[8]) <= 1e-9           # certificate residual

    def test_ode_method_matches_direct(self, tmp_path, capsys):
        direct = tmp_path / "direct.csv"
        ode = tmp_path / "ode.csv"
        for method, path in (("direct", direct), ("ode", ode)):
            assert main(["curve", "--p", "2", "--kernel", "gaussian:alpha=1",
                         "--h-min", "1", "--h-max", "2", "--samples", "5",
                         "--method", method, "--out", str(path)]) == 0
        rows_d = direct.read_text().strip().split("\n")[1:]
        rows_o = ode.read_text().strip().split("\n")[1:]
        for rd, ro in zip(rows_d, rows_o):
            cd, co = float(rd.split(",")[1]), float(ro.split(",")[1])
            assert rel(cd, co) < 1e-6

    def test_endpoint_drift_names_samples(self, tmp_path, capsys):
        # curve fixes steps at 4 per sample interval, so the message must
        # name the flag that sets them, not continue_ode's argument
        assert main(["curve", "--p", "50", "--kernel", "gaussian:alpha=3",
                     "--method", "ode", "--h-max", "10",
                     "--out", str(tmp_path / "c.csv")]) == 3
        err = capsys.readouterr().err
        assert "drifted" in err and "--samples" in err

    def test_overshoot_past_zero_names_samples(self, tmp_path, capsys):
        # 4 RK4 steps per sample interval carry eps below zero near h = 3:
        # valid input, so a numerical failure that names the lever
        out = tmp_path / "c.csv"
        assert main(["curve", "--p", "50", "--kernel", "dirac",
                     "--method", "ode", "--h-max", "100", "--samples", "5",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "stepped eps" in err and "--samples" in err
        assert not out.exists()

    def test_refused_continuation_stage_exits_3(self, tmp_path, capsys):
        # the seed certifies and min_psi refuses a later RK4 stage (its
        # minimizer on M's overflow edge): admitted input, a failed job
        out = tmp_path / "c.csv"
        assert main(["curve", "--p", "50", "--kernel", "twopoint:a=50",
                     "--h-max", "5", "--samples", "5", "--method", "ode",
                     "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure: DomainError: ")
        assert not out.exists()

    def test_refused_points_leave_empty_fields(self, tmp_path, capsys):
        # min_psi refuses the four h > 0 points (a minimizer on M's
        # overflow edge); the job still writes every row and exits 3
        out = tmp_path / "c.csv"
        assert main(["curve", "--p", "1000", "--kernel", "twopoint:a=50",
                     "--h-max", "2", "--samples", "5",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count(": DomainError: ") == 4
        rows = [line.split(",")
                for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 5
        assert [cells[1] == "" for cells in rows] == [False] + [True] * 4

    def test_single_sample(self, tmp_path, capsys):
        # one sample is the row at h_min, and both methods take it from
        # the same direct solve
        rows = {}
        for method in ("direct", "ode"):
            out = tmp_path / f"{method}.csv"
            assert main(["curve", "--p", "2", "--kernel", "gaussian:alpha=1",
                         "--h-min", "1", "--h-max", "3", "--samples", "1",
                         "--method", method, "--out", str(out)]) == 0
            rows[method] = out.read_text().strip().split("\n")[1:]
        assert rows["direct"] == rows["ode"]
        (row,) = rows["direct"]
        cells = row.split(",")
        assert cells[0] == "1"
        assert rel(float(cells[1]), REFERENCE["gauss_h1"]["c_star"]) < 1e-11

    def test_svg_artifact(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        svg = tmp_path / "c.svg"
        assert main(["curve", "--p", "2", "--kernel", "gaussian:alpha=1",
                     "--h-min", "0", "--h-max", "1", "--samples", "3",
                     "--out", str(out), "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        assert text.rstrip().endswith("</svg>")

    def test_svg_single_sample_is_dots(self, tmp_path, capsys):
        # one sample per series has no line to draw: each of the 8 series
        # (upper_k2 is finite at h = 1) is one dot
        svg = tmp_path / "c.svg"
        assert main(["curve", "--p", "2", "--kernel", "gaussian:alpha=1",
                     "--h-min", "1", "--samples", "1",
                     "--out", str(tmp_path / "c.csv"), "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.count("<circle") == 8
        assert "<polyline" not in text

    def test_svg_failed_point_splits_the_series(self, tmp_path, capsys,
                                                monkeypatch):
        # the second of five samples fails: c_star and residual become a
        # dot at h = 0 and a line over the last three samples, and the
        # six bound series stay whole lines (upper_k2 from h = 0.25 on)
        true_solve = cli.solve_critical

        def solve(params, kernel):
            if params.h == 0.25:
                raise ConvergenceError("injected failure")
            return true_solve(params, kernel)
        monkeypatch.setattr(cli, "solve_critical", solve)
        svg = tmp_path / "c.svg"
        assert main(["curve", "--p", "2", "--kernel", "gaussian:alpha=1",
                     "--h-min", "0", "--h-max", "1", "--samples", "5",
                     "--out", str(tmp_path / "c.csv"), "--svg", str(svg)]) == 3
        assert "1 samples failed" in capsys.readouterr().err
        text = svg.read_text()
        assert text.count("<circle") == 2
        assert text.count("<polyline") == 8

    def test_failed_points_leave_empty_fields(self, tmp_path, capsys,
                                              monkeypatch):
        # every h > 0 solve fails (ConvergenceError); those rows keep
        # their bounds, lose c_star and residual, and exit 3
        true_solve = cli.solve_critical

        def solve(params, kernel):
            if params.h > 0.0:
                raise ConvergenceError("injected failure")
            return true_solve(params, kernel)
        monkeypatch.setattr(cli, "solve_critical", solve)
        out = tmp_path / "fail.csv"
        assert main(["curve", "--p", "1.000000001", "--kernel",
                     "twopoint:a=50", "--h-min", "0", "--h-max", "10000",
                     "--samples", "5", "--out", str(out)]) == 3
        assert "4 samples failed (empty fields)" in capsys.readouterr().err
        rows = [line.split(",")
                for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 5
        for cells in rows:
            failed = cells[0] != "0"
            assert (cells[1] == "") == failed
            assert (cells[8] == "") == failed
            assert all(cells[2:8])


class TestCurvesCommand:
    def test_tangency_at_critical_eps(self, tmp_path, capsys):
        # at eps = eps0 the scaled transform R touches the envelope H
        # from above at w0 and stays above elsewhere: H - R <= 0 with a
        # double root, not a sign change
        out = tmp_path / "w.csv"
        assert main(["curves", "--p", "2", "--h", "1",
                     "--kernel", "gaussian:alpha=1",
                     "--samples", "301", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "w,G,H,R"
        gaps = []
        for line in lines[1:]:
            w, g, h_val, r_val = (float(c) for c in line.split(","))
            gaps.append(h_val - r_val)
            expected_g = 1.0 + w / math.sqrt(REFERENCE["gauss_h1"]["eps0"]) \
                - w * w
            assert abs(g - expected_g) < 1e-9
        assert max(gaps) <= 1e-8          # never crosses
        assert max(gaps) > -1e-3          # but does touch, near w0

    def test_explicit_eps_moves_curves_apart(self, tmp_path, capsys):
        # push eps above critical: H - R < 0 strictly, bounded away from 0
        out = tmp_path / "w2.csv"
        eps = 1.25 * REFERENCE["gauss_h1"]["eps0"]
        assert main(["curves", "--p", "2", "--h", "1",
                     "--kernel", "gaussian:alpha=1", "--eps", f"{eps!r}",
                     "--samples", "151", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")[1:]
        gaps = [float(l.split(",")[2]) - float(l.split(",")[3])
                for l in lines]
        assert max(gaps) < -1e-3

    def test_rejects_zero_samples(self, tmp_path, capsys):
        out = tmp_path / "w0.csv"
        assert main(["curves", "--p", "2", "--h", "1",
                     "--kernel", "gaussian:alpha=1", "--samples", "0",
                     "--out", str(out)]) == 2
        assert "--samples must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.count("[PASS]") >= 6

    def test_non_gaussian_kernel(self, capsys):
        # no seed equation or cubic: the seed is a direct solve at h = 0.5
        # and the continuation takes the generic minimizer
        assert main(["verify", "--kernel", "uniform:a=1"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.count("[PASS]") == 3
        assert "(ode-continuation)" in out

    def test_huge_p_fails_by_name(self, capsys):
        # the Gaussian seed equation answers at p = 1e70; the direct solve
        # at h = alpha then misses the absolute residual gate of 1e-9 by a
        # hair, a numerical failure (an exact c* route, ROADMAP item 1,
        # may make this exit 0)
        assert main(["verify", "--p", "1e70"]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_failed_continuation_is_reported(self, monkeypatch, capsys):
        def drifted(*args, **kwargs):
            raise ConvergenceError("continuation endpoint drifted")
        monkeypatch.setattr(cli, "continue_ode", drifted)
        assert main(["verify"]) == 3
        out = capsys.readouterr().out
        assert "[FAIL] continuation-endpoint" in out
        assert out.count("[FAIL]") == 1

    def test_seeded_perturbation_is_caught(self, monkeypatch, capsys):
        # a Cardano fast path that drifts by one part in 1e3 must fail the
        # cardano-vs-generic check and the exit code; continuation uses
        # the solver's own binding, so only that check sees the drift
        true_w0 = cli.cardano_w0
        monkeypatch.setattr(cli, "cardano_w0",
                            lambda *args: (1.0 + 1e-3) * true_w0(*args))
        assert main(["verify"]) == 3
        out = capsys.readouterr().out
        assert "[FAIL]" in out


class TestSimulateCommand:
    def test_trace_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--p", "2", "--h", "0",
                     "--kernel", "dirac", "--length", "80", "--dx", "0.2",
                     "--t-end", "10", "--init-width", "5",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "fitted speed" in stdout
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,x_front"
        assert len(lines) > 10
        t0 = float(lines[1].split(",")[0])
        t1 = float(lines[2].split(",")[0])
        assert t1 > t0

    def test_two_point_kernel_runs(self, capsys):
        # atom kernels must discretize to contiguous offsets -W..W, or the
        # convolution cannot line up with the grid
        assert main(["simulate", "--p", "2", "--h", "0",
                     "--kernel", "twopoint:a=1", "--length", "80",
                     "--dx", "0.2", "--t-end", "2", "--init-width", "5"]) == 0
        assert "fitted speed" in capsys.readouterr().out

    def test_tabulated_kernel(self, tmp_path, capsys):
        # a 3-atom table at A9's grid and horizon, h = 1: the front runs
        # within 5 % of the table's c*
        table = tmp_path / "atoms.csv"
        table.write_text("s,weight\n-1,0.25\n0,0.5\n1,0.25\n")
        assert main(["simulate", "--p", "2", "--h", "1",
                     "--kernel", f"table:{table}"]) == 0
        fields = parse_kv_stdout(capsys.readouterr().out)
        assert float(fields["relative gap"]) < 0.05
        assert fields["clamp events"] == "0"

    def test_capped_birth(self, capsys):
        assert main(["simulate", "--p", "2", "--h", "0", "--kernel", "dirac",
                     "--birth", "capped", "--length", "150",
                     "--dx", "0.2", "--t-end", "30"]) == 0
        fields = parse_kv_stdout(capsys.readouterr().out)
        assert float(fields["reference c*"]) == 2.0
        assert float(fields["relative gap"]) < 0.05

    def test_boundary_warning(self, capsys):
        # a 30-unit domain is crossed long before t_end = 100: the trace
        # is cut at the stop line, fitted, and the run still succeeds
        assert main(["simulate", "--p", "2", "--h", "0", "--kernel", "dirac",
                     "--length", "30", "--dx", "0.2", "--t-end", "100",
                     "--init-width", "5"]) == 0
        captured = capsys.readouterr()
        assert "fitted speed" in captured.out
        assert captured.err == ("warning: front reached the domain boundary; "
                                "trace truncated\n")

    def test_rejects_start_past_stop_line(self, capsys):
        # a 40-unit box on a 50-unit domain leaves no room to spread
        assert main(["simulate", "--p", "2", "--h", "0",
                     "--kernel", "uniform:a=40", "--length", "50",
                     "--init-width", "20", "--t-end", "5"]) == 2
        assert "stop line" in capsys.readouterr().err


    def test_rejects_macro_step_below_substep_resolution(self, capsys):
        # at dx 5e5 a 0.1 macro step is 9e-13 of 0.45 dx^2: zero substeps
        assert main(["simulate", "--p", "2", "--h", "0", "--kernel", "dirac",
                     "--dx", "5e5", "--length", "1e7", "--t-end", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "substep limit" in err, err
        assert len(err.splitlines()) == 1, err


class TestFigure2Command:
    def test_refuses_to_write_disagreeing_paths(self, monkeypatch, tmp_path,
                                                capsys):
        # continuation speeds off by 1e-5 (relative) against the direct
        # sweep: the cross-check fails, exit 3, and no CSV is written
        true_continue = cli.continue_ode

        def drifted(*args, **kwargs):
            curve = true_continue(*args, **kwargs)
            return curve._replace(
                c_star=tuple(c * (1.0 + 1e-5) for c in curve.c_star))
        monkeypatch.setattr(cli, "continue_ode", drifted)
        out = tmp_path / "figure2.csv"
        assert main(["figure2", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: continuation and direct")
        assert not out.exists()


class TestParserHygiene:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_rejects_negative_delay(self, capsys):
        assert main(["speed", "--p", "2", "--h", "-1",
                     "--kernel", "gaussian:alpha=1"]) == 2
        assert "delay h must be >= 0" in capsys.readouterr().err

    def test_parser_is_built_once(self, capsys):
        # every main call parses with one parser; a refused command line
        # leaves it as it was for the next
        parser = cli._build_parser()
        with pytest.raises(SystemExit):
            main(["speed", "--p", "2"])
        assert main(["speed", "--p", "2", "--h", "0", "--kernel", "dirac"]) == 0
        assert cli._build_parser() is parser

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("speed", "bounds", "curve", "curves", "verify",
                    "simulate", "figure2"):
            assert cmd in out


# Every numeric flag of every command, with a valid base command line per
# command; the library's own checks reject each bad value.
_OUT = "OUT"
_BASE = {
    "speed": ["--p", "2", "--h", "1", "--kernel", "gaussian:alpha=1"],
    "bounds": ["--p", "2", "--h", "1", "--kernel", "gaussian:alpha=1"],
    "curve": ["--p", "2", "--kernel", "gaussian:alpha=1", "--h-min", "0",
              "--h-max", "1", "--samples", "3", "--out", _OUT],
    "curves": ["--p", "2", "--h", "1", "--kernel", "gaussian:alpha=1",
               "--samples", "5", "--out", _OUT],
    "verify": ["--p", "2"],
    "simulate": ["--p", "2", "--h", "0", "--kernel", "dirac",
                 "--birth", "capped", "--length", "80", "--dx", "0.2",
                 "--t-end", "2", "--init-width", "5", "--out", _OUT],
}
_OUT_OF_RANGE = {
    "speed": {"--p": "1", "--h": "-1"},
    "bounds": {"--p": "1", "--h": "-1"},
    "curve": {"--p": "1", "--h-min": "-1", "--h-max": "-1", "--samples": "0"},
    "curves": {"--p": "1", "--h": "-1", "--eps": "0", "--samples": "0"},
    "verify": {"--p": "1"},
    "simulate": {"--p": "1", "--h": "-1", "--length": "1", "--dx": "0",
                 "--t-end": "0", "--init-width": "0"},
}
_BAD_VALUES = [(command, flag, value)
               for command, flags in _OUT_OF_RANGE.items()
               for flag, out_of_range in flags.items()
               for value in ("nan", "inf", out_of_range)]


def _base_argv(command: str, out) -> list[str]:
    return [command] + [str(out) if a == _OUT else a for a in _BASE[command]]


@pytest.mark.parametrize("command", sorted(_BASE))
def test_base_line_exits_0(tmp_path, capsys, command):
    # each bad value below replaces one flag of these lines; a line that
    # failed as given would let every case pass for another reason
    assert main(_base_argv(command, tmp_path / "out.csv")) == 0, \
        capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", _BAD_VALUES)
def test_bad_numeric_flag_exits_2(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out.csv"
    argv = _base_argv(command, out)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    try:
        code = main(argv)
    except SystemExit as exc:           # argparse: "nan" is not an int
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert not out.exists()
