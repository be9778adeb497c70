"""Command-line interface: output formats, exit codes, file artifacts."""

import math

import pytest

from conftest import REFERENCE, rel
from wavespeed.charfun import ModelParams
from wavespeed import cli
from wavespeed.cli import main
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

    def test_rejects_unknown_kernel(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["speed", "--p", "2", "--h", "1", "--kernel", "blob:a=1"])
        assert exc.value.code == 2


class TestBoundsCommand:
    def test_lists_all_candidates(self, capsys):
        assert main(["bounds", "--p", "2", "--h", "1",
                     "--kernel", "gaussian:alpha=1"]) == 0
        fields = parse_kv_stdout(capsys.readouterr().out)
        for key in ("k1", "k2", "lower_add", "lower_log",
                    "upper_k1", "upper_k2", "lower", "upper"):
            assert key in fields
        assert float(fields["lower"]) < float(fields["upper"])


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

    def test_failed_points_leave_empty_fields(self, tmp_path, capsys):
        # barely supercritical with a long delay, every h > 0 solve stops
        # with |psi_z| far above 1e-9 (ConvergenceError); those rows keep
        # their bounds, lose c_star and residual, and exit 3
        out = tmp_path / "fail.csv"
        assert main(["curve", "--p", "1.000000001", "--kernel",
                     "twopoint:a=50", "--h-min", "0", "--h-max", "10000",
                     "--samples", "5", "--out", str(out)]) == 3
        assert "4 samples failed to converge" in capsys.readouterr().err
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
                     "--kernel-half-width", "2", "--out", str(out)]) == 0
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
                     "--dx", "0.2", "--t-end", "2", "--init-width", "5",
                     "--kernel-half-width", "2"]) == 0
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
                     "--birth", "capped", "--cap", "0.5", "--length", "150",
                     "--dx", "0.2", "--t-end", "30"]) == 0
        fields = parse_kv_stdout(capsys.readouterr().out)
        assert float(fields["reference c*"]) == 2.0
        assert float(fields["relative gap"]) < 0.05

    def test_rejects_start_past_stop_line(self, capsys):
        # a 40-unit stencil on a 50-unit domain leaves no room to spread
        assert main(["simulate", "--p", "2", "--h", "0",
                     "--kernel", "dirac", "--length", "50",
                     "--init-width", "20", "--kernel-half-width", "40",
                     "--t-end", "5"]) == 2
        assert "stop line" in capsys.readouterr().err


class TestParserHygiene:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_rejects_negative_delay(self, capsys):
        assert main(["speed", "--p", "2", "--h", "-1",
                     "--kernel", "gaussian:alpha=1"]) == 2
        assert "delay h must be >= 0" in capsys.readouterr().err

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
                 "--t-end", "2", "--init-width", "5",
                 "--kernel-half-width", "2", "--out", _OUT],
}
_OUT_OF_RANGE = {
    "speed": {"--p": "1", "--h": "-1"},
    "bounds": {"--p": "1", "--h": "-1"},
    "curve": {"--p": "1", "--h-min": "-1", "--h-max": "-1", "--samples": "0"},
    "curves": {"--p": "1", "--h": "-1", "--eps": "0", "--samples": "0"},
    "verify": {"--p": "1"},
    "simulate": {"--p": "1", "--h": "-1", "--cap": "0", "--length": "1",
                 "--dx": "0", "--t-end": "0", "--threshold-frac": "1",
                 "--init-width": "0", "--kernel-half-width": "0"},
}
_BAD_VALUES = [(command, flag, value)
               for command, flags in _OUT_OF_RANGE.items()
               for flag, out_of_range in flags.items()
               for value in ("nan", "inf", out_of_range)]


@pytest.mark.parametrize("command, flag, value", _BAD_VALUES)
def test_bad_numeric_flag_exits_2(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out.csv"
    argv = [command] + [str(out) if a == _OUT else a for a in _BASE[command]]
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
