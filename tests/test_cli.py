"""CLI contract tests: flags, exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from momenttail import cli
from momenttail.moments import TheoremViolationError


@pytest.fixture()
def dist_csv(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("value,weight\n2,0.5\n0,0.5\n", encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTheoremCheck:
    def test_two_point_file(self, capsys, dist_csv):
        code, out, _ = run(capsys, ["theorem", "check", "--input", dist_csv, "--b", "1.0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["a"] == 2.0
        assert payload["checks"][0]["holds"] is True

    def test_assert_flag_passes_here(self, capsys, dist_csv):
        code, _, _ = run(
            capsys,
            ["theorem", "check", "--input", dist_csv, "--b", "1.0", "--assert"],
        )
        assert code == 0

    def test_subnormal_products_normalize(self, capsys, tmp_path):
        # v * w is subnormal here; the mean is still found exactly
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("value,weight\n2.2250738585072014e-308,1e-06\n", encoding="utf-8")
        code, out, err = run(capsys, ["theorem", "check", "--input", str(tiny), "--b", "0.5"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["a"], payload["max"]) == (1.0, 1.0)

    def test_malformed_csv_exits_2_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("value,weight\n1,1\noops,3\n", encoding="utf-8")
        code, _, err = run(capsys, ["theorem", "check", "--input", str(bad)])
        assert code == 2
        assert "line 3" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, ["theorem", "check", "--input", "/nonexistent.csv"])
        assert code == 2

    def test_directory_input_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, ["theorem", "check", "--input", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_unreadable_input_exits_2(self, capsys, dist_csv, monkeypatch):
        def denied(source):
            raise PermissionError(13, "Permission denied", source)

        monkeypatch.setattr(cli.moments, "load_distribution_csv", denied)
        code, out, err = run(capsys, ["theorem", "check", "--input", dist_csv])
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 13] Permission denied: {dist_csv!r}\n"

    def test_overflowing_normalization_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("value,weight\n1e300,1e-300\n1e-300,1e300\n", encoding="utf-8")
        code, out, err = run(capsys, ["theorem", "check", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == (
            "error: value/mean overflows float64: entry 0 has value 1e+300 "
            "and the mean is 2e-300\n"
        )

    def test_violation_maps_to_exit_1(self, capsys, dist_csv, monkeypatch):
        def boom(dist, grid):
            raise TheoremViolationError("forced")

        monkeypatch.setattr(cli.moments, "verify_theorem", boom)
        code, _, err = run(capsys, ["theorem", "check", "--input", dist_csv])
        assert code == 1
        assert "forced" in err


class TestFlagHandling:
    def test_unknown_flag_exits_2(self, dist_csv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["theorem", "check", "--input", dist_csv, "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["theorem", "--help"],
            ["theorem", "check", "--help"],
            ["zeta", "moments", "--help"],
            ["zeta", "tail", "--help"],
            ["skewdet", "enum", "--help"],
            ["skewdet", "mc", "--help"],
            ["skewdet", "search", "--help"],
            ["symchar", "report", "--help"],
            ["symchar", "table", "--help"],
            ["repro", "--help"],
        ],
    )
    def test_help_everywhere(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["theorem", "check", "--input", "/nonexistent.csv"],
            ["zeta", "moments", "--T", "40", "--H", "20", "--k", "2"],
            ["zeta", "tail", "--T", "500", "--H", "50"],
            ["skewdet", "enum", "--n", "3"],
            ["skewdet", "mc", "--n", "3", "--samples", "100"],
            ["skewdet", "search", "--n", "3", "--budget", "5"],
            ["symchar", "report", "--n", "3"],
            ["symchar", "table", "--n", "3"],
            ["repro"],
        ],
    )
    @pytest.mark.parametrize("threads, env", [("0", None), (None, "junk"), (None, "0")])
    def test_bad_threads_exits_2_everywhere(self, capsys, monkeypatch, argv, threads, env):
        monkeypatch.delenv("MTL_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("MTL_THREADS", env)
        if threads is not None:
            argv = argv + ["--threads", threads]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "threads" in err.lower()

    def test_directory_out_path_exits_2(self, capsys, tmp_path):
        argv = ["zeta", "moments", "--T", "10", "--H", "1", "--k", "2", "--out", str(tmp_path)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    @pytest.mark.parametrize(
        "argv, route",
        [
            (["zeta", "tail", "--T", "1e30", "--H", "1", "--step", "0.1"], "Riemann-Siegel"),
            (["zeta", "tail", "--T", "1e17", "--H", "1", "--step", "0.1"], "Riemann-Siegel"),
            (["zeta", "moments", "--T", "1e300", "--H", "1", "--k", "2"], "Riemann-Siegel"),
            (["zeta", "moments", "--T", "1980", "--H", "10", "--k", "2", "--t-switch", "5000"],
             "Euler-Maclaurin"),
        ],
    )
    def test_zeta_window_too_long_exits_2(self, capsys, argv, route):
        # rejected before any node is evaluated, with the largest t accepted
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: t = ") and f"{route} route: it accepts t " in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("convention, sum_absdet", [("zero", "0"), ("unit", "486539264")])
    def test_enum_n7_runs(self, capsys, convention, sum_absdet):
        code, out, _ = run(capsys, ["skewdet", "enum", "--n", "7", "--convention", convention])
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1 << 21
        assert payload["sum_absdet"] == sum_absdet

    def test_bad_domain_value_exits_2(self, capsys):
        code, _, err = run(capsys, ["skewdet", "enum", "--n", "9"])
        assert code == 2
        assert "mc_stats" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["skewdet", "mc", "--n", "81", "--samples", "100"],
            ["skewdet", "search", "--n", "81", "--budget", "1"],
        ],
    )
    def test_n_above_limit_exits_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "at most 80" in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["theorem", "check", "--b", "nan"], "b grid"),
            (["theorem", "check", "--b", "inf"], "b grid"),
            (["zeta", "moments", "--T", "nan", "--H", "50", "--k", "2"], "T"),
            (["zeta", "moments", "--T", "10", "--H", "inf", "--k", "2"], "H"),
            (["zeta", "moments", "--T", "10", "--H", "5", "--k", "2", "--step", "nan"], "step"),
            (["zeta", "moments", "--T", "10", "--H", "5", "--k", "2", "--t-switch", "inf"],
             "t_switch"),
            (["zeta", "tail", "--T", "inf", "--H", "2"], "T"),
            (["zeta", "tail", "--T", "100", "--H=-inf"], "H"),
            (["zeta", "tail", "--T", "100", "--H", "2", "--step", "inf"], "step"),
            (["zeta", "tail", "--T", "100", "--H", "2", "--t-switch", "nan"], "t_switch"),
            (["zeta", "tail", "--T", "100", "--H", "2", "--c-threshold", "nan"], "c_threshold"),
        ],
    )
    def test_non_finite_flag_exits_2(self, capsys, dist_csv, argv, name):
        if argv[0] == "theorem":
            argv = argv + ["--input", dist_csv]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name} ") and "finite" in err


class TestReports:
    def test_symchar_report_n4(self, capsys):
        code, out, _ = run(capsys, ["symchar", "report", "--n", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["sum_degree_squares"] == "24"
        assert payload["sum_degrees"] == "10"
        assert payload["second_moment_bound"]["value"] == 2.4

    def test_skewdet_enum_n3_notes_zero(self, capsys):
        code, out, _ = run(capsys, ["skewdet", "enum", "--n", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["s1"] == 0.0
        assert "zero diagonal" in payload["note"]

    def test_zeta_moments_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["zeta", "moments", "--T", "100", "--H", "20", "--k", "2",
             "--step", "0.1", "--no-convergence-check"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2
        assert payload["value"] > 0

    def test_symchar_table_csv(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, ["symchar", "table", "--n", "4", "--out", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "partition,degree"
        assert lines[1] == "4,1"
        assert lines[2] == "3-1,3"
        assert lines[-1] == "1-1-1-1,1"

    def test_csv_format(self, capsys, dist_csv):
        code, out, _ = run(
            capsys,
            ["theorem", "check", "--input", dist_csv, "--b", "1.0", "--format", "csv"],
        )
        assert code == 0
        assert out.startswith("key,value\n")
        assert "a,2.0" in out

    def test_human_format(self, capsys, dist_csv):
        code, out, _ = run(
            capsys,
            ["theorem", "check", "--input", dist_csv, "--format", "human"],
        )
        assert code == 0
        assert "a" in out and "2.0" in out

    def test_out_path(self, capsys, dist_csv, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            ["theorem", "check", "--input", dist_csv, "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["a"] == 2.0


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, capsys):
        argv = ["skewdet", "mc", "--n", "6", "--samples", "500", "--seed", "7"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_threads_flag_does_not_change_output(self, capsys):
        base = ["skewdet", "mc", "--n", "5", "--samples", "9000", "--seed", "3"]
        _, out1, _ = run(capsys, base + ["--threads", "1"])
        _, out4, _ = run(capsys, base + ["--threads", "4"])
        assert out1 == out4

    def test_threads_env_var(self, capsys, monkeypatch):
        argv = ["zeta", "moments", "--T", "40", "--H", "20", "--k", "2",
                "--step", "0.1", "--no-convergence-check"]
        _, out1, _ = run(capsys, argv)
        monkeypatch.setenv("MTL_THREADS", "3")
        _, out3, _ = run(capsys, argv)
        assert out1 == out3

    def test_search_deterministic(self, capsys):
        argv = ["skewdet", "search", "--n", "6", "--budget", "150", "--seed", "9"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestRepro:
    def test_repro_writes_one_summary(self, capsys, tmp_path):
        target = tmp_path / "summary.json"
        code, out, _ = run(capsys, ["repro", "--out", str(target)])
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert set(payload) >= {"zeta_tail", "skew_determinants", "character_degrees"}
        assert len(payload["zeta_tail"]) == 2
        assert all(rep["holds"] for rep in payload["zeta_tail"])
        skew = payload["skew_determinants"]
        assert skew["bound_satisfied_n6"] is True
        assert skew["enum_n6"]["max_abs_det"] == "81"
        chars = payload["character_degrees"]
        assert chars["n"] == 25
        assert chars["bound_satisfied"] is True


def _fresh_interpreter(argv):
    """Reply of `mtl argv` from a new process: its parser is built anew."""
    src = str(Path(cli.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "MTL_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "momenttail.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestSharedParser:
    """main() keeps one parser per process; calls must not leak into each other."""

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_repeated_flag_does_not_leak(self, capsys, monkeypatch, dist_csv):
        monkeypatch.delenv("MTL_THREADS", raising=False)
        code, out, _ = run(capsys, ["theorem", "check", "--input", dist_csv, "--b", "0.5", "--b", "1.0"])
        assert code == 0 and len(json.loads(out)["checks"]) == 2
        argv = ["theorem", "check", "--input", dist_csv]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["checks"] == []
        assert (code, out, err) == _fresh_interpreter(argv)

    def test_rejected_argv_leaves_no_state(self, capsys):
        argv = ["skewdet", "mc", "--n", "4", "--samples", "100", "--seed", "2"]
        code, before, _ = run(capsys, argv)
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["skewdet", "mc", "--n", "5", "--samples", "x", "--seed", "9"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, argv) == (0, before, "")

    def test_threads_flag_does_not_stick(self, capsys, monkeypatch):
        monkeypatch.setenv("MTL_THREADS", "junk")
        argv = ["skewdet", "enum", "--n", "3"]
        code, out, err = run(capsys, argv + ["--threads", "2"])
        assert (code, err) == (0, "")
        # without the flag the second call falls back to $MTL_THREADS
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: MTL_THREADS must be an integer, got 'junk'\n"

    @pytest.mark.parametrize("columns", ["60", "200"])
    def test_help_formatted_at_current_width(self, capsys, monkeypatch, columns):
        cli._parser()
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out == cli.build_parser().format_help()
        assert max(len(line) for line in out.splitlines()) <= int(columns)
