"""CLI contract tests: flags, exit codes, formats, determinism."""

import contextlib
import ctypes
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momenttail import cli, moments, skewdet
from momenttail.moments import TheoremViolationError

from oracles import simpson_halving_estimate


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

    @pytest.mark.parametrize("rows, message", [
        ('1,1\n"' + "1" * 200_000 + '",2\n',
         "malformed distribution CSV: line 3: field larger than field limit (131072)"),
        ("1,1e308\n2,1e308\n",
         "total weight overflows float64: the 2 weights sum past 1.7976931348623157e+308"),
        ("1,1e300\n1,1e-320\n",
         "weight/total weight underflows float64: entry 1 has weight 1e-320 "
         "and the total weight is 1e+300"),
    ], ids=["csv-field-limit", "total-weight-overflow", "weight-underflow"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, rows, message):
        # a fresh interpreter, so a traceback or a RuntimeWarning would show
        path = tmp_path / "bad.csv"
        path.write_text("value,weight\n" + rows, encoding="utf-8")
        argv = ["theorem", "check", "--input", str(path)]
        assert _fresh_interpreter(argv) == (2, "", f"error: {message}\n")

    def test_mean_rounding_to_zero_normalizes(self, capsys, tmp_path):
        # the mean 2.5e-324 rounds to 0; the exact rescale still divides it out
        path = tmp_path / "tiny-mean.csv"
        path.write_text("value,weight\n0,1\n5e-324,1\n", encoding="utf-8")
        code, out, err = run(capsys, ["theorem", "check", "--input", str(path), "--b", "1"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["a"], payload["max"], payload["degenerate"]) == (2.0, 2.0, False)

    def test_overflowing_mean_sum_normalizes(self, capsys, tmp_path):
        # v * w sums past float64, but the mean 1e308 is a float: the exact
        # power-of-two rescale finds it
        path = tmp_path / "big.csv"
        path.write_text("value,weight\n1e308,1\n1e308,1\n", encoding="utf-8")
        code, out, err = run(capsys, ["theorem", "check", "--input", str(path), "--b", "0.5"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["a"], payload["max"], payload["degenerate"]) == (1.0, 1.0, True)

    @pytest.mark.parametrize("value", ["1.109375", "1"])
    @pytest.mark.parametrize("cutoffs", [[], ["--b", "0.0"]])
    def test_rounding_miss_exits_0(self, capsys, tmp_path, value, cutoffs):
        # a tiny far atom: the float checks miss a by rounding, the exact ones hold
        path = tmp_path / "far.csv"
        path.write_text(f"value,weight\n0,286\n{value},1e-06\n", encoding="utf-8")
        argv = ["theorem", "check", "--input", str(path), *cutoffs, "--assert"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert all(check["holds"] for check in json.loads(out)["checks"])

    def test_finite_second_moment_past_an_overflowing_power(self, capsys, tmp_path):
        # normalized, the first value is 5e299: pow(v, 2) overflows, w * v^2 does not
        path = tmp_path / "wide.csv"
        path.write_text("value,weight\n1e300,1e-300\n1,1\n", encoding="utf-8")
        code, out, err = run(capsys, ["theorem", "check", "--input", str(path)])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["a"], payload["max"]) == (2.5e299, 5e299)

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

    @pytest.mark.parametrize("argv", [
        ["zeta", "tail", "--T", "100", "--H", "10", "--step", "0.5"],
        ["zeta", "moments", "--T", "10", "--H", "5", "--k", "2"],
    ], ids=["tail", "moments"])
    def test_rs_terms_is_not_a_flag(self, argv):
        # Riemann-Siegel always adds both corrections; t_switch is the only setting
        code, out, err = _fresh_interpreter(argv + ["--rs-terms", "1"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --rs-terms 1" in err
        assert "Traceback" not in err

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
    def test_bad_threads_exits_2_everywhere(self, capsys, argv):
        code, out, err = run(capsys, argv + ["--threads", "0"])
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
            (["zeta", "moments", "--T", "7956", "--H", "10", "--k", "2", "--t-switch", "1e4"],
             "Euler-Maclaurin"),
        ],
    )
    def test_zeta_window_too_long_exits_2(self, capsys, argv, route):
        # rejected before any node is evaluated, with the largest t accepted
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: t = ") and f"{route} route: it accepts t " in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeta", "moments", "--T", "0", "--H", "1e12", "--k", "2", "--t-switch", "1"],
            ["zeta", "tail", "--T", "100", "--H", "1e308", "--step", "1e-300"],
        ],
        ids=["moments-huge-window", "tail-infinite-ratio"],
    )
    def test_simpson_grid_too_large_exits_2(self, argv):
        # a fresh interpreter, so a traceback would show; nothing is allocated
        code, out, err = _fresh_interpreter(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: a Simpson grid of step ") and err.count("\n") == 1
        assert f"more than {cli.zeta.SIMPSON_MAX_NODES} nodes" in err

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

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    @pytest.mark.parametrize(
        "argv",
        [
            ["skewdet", "mc", "--n", "8", "--samples", "1000"],
            ["skewdet", "search", "--n", "8", "--budget", "10"],
            ["repro"],
        ],
        ids=["mc", "search", "repro"],
    )
    def test_seed_outside_uint64_exits_2(self, capsys, argv, seed):
        # a seed outside [0, 2**64) would alias one inside it
        code, out, err = run(capsys, argv + ["--seed", seed])
        assert (code, out) == (2, "")
        assert err == f"error: seed must be in [0, 2**64), got {seed}\n"

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

    @pytest.mark.parametrize("c", ["1e308", "-1e308"])
    def test_overflowing_c_threshold_exits_2_before_any_node(self, capsys, monkeypatch, c):
        def no_nodes(*args):
            raise AssertionError("a node was evaluated")

        monkeypatch.setattr(cli.zeta, "zeta_abs_grid", no_nodes)
        code, out, err = run(capsys, ["zeta", "tail", "--T", "100", "--H", "10", f"--c-threshold={c}"])
        assert (code, out) == (2, "")
        assert err == (f"error: c_threshold {float(c)!r} makes the cutoff c * log(T)**1.5 "
                       "overflow float64\n")


class TestExactChecks:
    """A violated exact inequality is one `error:` line and exit 1."""

    def test_zeta_tail_violation_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(moments, "_tail_sums", lambda dist, grid: [0.0] * len(grid))
        code, out, err = run(capsys, ["zeta", "tail", "--T", "500", "--H", "50"])
        assert (code, out) == (1, "")
        assert err.startswith("error: exact inequality violated (bug): tail(")
        assert err.count("\n") == 1

    def test_det_bound_violation_exits_1(self, capsys, monkeypatch):
        # max * sum|det| = sum det^2 - 1: one short of the exact bound
        st = skewdet.DetStats(
            n=6, mode="exact", convention="zero", count=10**6, s1=1e6, s2=math.sqrt(1e15),
            sum_absdet=10**12, sum_det2=10**21 + 1, max_abs_det=10**9,
        )
        monkeypatch.setattr(cli.skewdet, "enumerate_stats", lambda n: st)
        code, out, err = run(capsys, ["repro"])
        assert (code, out) == (1, "")
        assert err == (
            "error: exact inequality violated (bug): enumerated max 1000000000 "
            "misses exact bound 1000000000000000000001 / 1000000000000\n"
        )

    @pytest.mark.parametrize("flags", [[], ["--assert"]])
    def test_symchar_identity_violation_exits_1(self, capsys, monkeypatch, flags):
        monkeypatch.setattr(cli.symchar, "degree", lambda lam: 1)
        code, out, err = run(capsys, ["symchar", "report", "--n", "5", *flags])
        assert (code, out) == (1, "")
        assert err == "error: exact inequality violated (bug): degree squares sum to 7, expected 5!\n"


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

    @pytest.mark.parametrize("n, convention, noted", [
        (1, "zero", True), (5, "zero", True), (2, "zero", False), (4, "zero", False),
        (1, "unit", False), (3, "unit", False),
    ])
    def test_skewdet_enum_note_only_where_every_det_is_0(self, capsys, n, convention, noted):
        code, out, _ = run(capsys, ["skewdet", "enum", "--n", str(n), "--convention", convention])
        payload = json.loads(out)
        assert (code, "note" in payload) == (0, noted)
        assert (payload["max_abs_det"] == "0") == noted

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

    def test_zeta_moments_evaluates_one_halved_grid(self, capsys, monkeypatch):
        # 44 intervals of 3/44, halved to 88; the requested half step 0.035
        # would give 86, whose nodes miss the full-step ones
        calls, grid = [], cli.zeta.zeta_abs_grid
        monkeypatch.setattr(cli.zeta, "zeta_abs_grid",
                            lambda ts, *a: calls.append(len(ts)) or grid(ts, *a))
        code, out, _ = run(
            capsys, ["zeta", "moments", "--T", "10", "--H", "3", "--k", "2", "--step", "0.07"])
        payload = json.loads(out)
        assert (code, calls, payload["nodes"]) == (0, [89], 45)
        assert payload["halved_value"] == simpson_halving_estimate(10.0, 3.0, 2, 0.07).halved_value

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

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    def test_symchar_table_is_the_same_csv_in_every_format(self, capsys, tmp_path, fmt):
        want = (Path(__file__).parent / "golden" / "symchar-table.csv").read_text(encoding="utf-8")
        argv = ["symchar", "table", "--n", "6", "--format", fmt]
        assert run(capsys, argv) == (0, want, "")
        out_path = tmp_path / "table.csv"
        assert run(capsys, argv + ["--out", str(out_path)]) == (0, "", "")
        assert out_path.read_text(encoding="utf-8") == want

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


def _child_env() -> dict[str, str]:
    """The environment of a child process that imports this package's src/."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _fresh_interpreter(argv, patch=""):
    """Reply of `mtl argv` from a new process: its parser is built anew.

    patch is Python source run in that process first; the module then runs
    as `python -m momenttail.cli` would run it."""
    entry = ["-m", "momenttail.cli"]
    if patch:
        entry = ["-c", f"{patch}\nimport runpy\nrunpy.run_module('momenttail.cli', run_name='__main__')"]
    proc = subprocess.run(
        [sys.executable, *entry, *argv],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestSharedParser:
    """main() keeps one parser per process; calls must not leak into each other."""

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_repeated_flag_does_not_leak(self, capsys, dist_csv):
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

    def test_threads_flag_does_not_stick(self, capsys):
        argv = ["skewdet", "enum", "--n", "3"]
        assert run(capsys, argv + ["--threads", "0"]) == (2, "", "error: threads must be >= 1\n")
        # without the flag the second call is valid again, as in a new process
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert (code, out, err) == _fresh_interpreter(argv)

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


#: in a fresh process, call main() twice on each argv and print the minor page
#: faults of every second call
_SECOND_CALL_FAULTS = """
import contextlib, io, json, resource, sys
from momenttail import cli

def faults(argv):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

argvs = json.loads(sys.argv[1])
print(json.dumps([[faults(argv), faults(argv)][1] for argv in argvs]))
"""


@pytest.mark.skipif(
    sys.platform == "win32" or not hasattr(ctypes.CDLL(None), "mallopt"),
    reason="the C library has no mallopt",
)
def test_second_call_does_not_fault_its_heap_in_again():
    # main() keeps freed heap resident, so a repeated zeta grid reuses the
    # memory its first call freed instead of faulting it in page by page
    # (about 900 and 1,300-1,600 faults per call with glibc's default trimming)
    argvs = [
        ["zeta", "tail", "--T", "2500", "--H", "1000"],
        ["zeta", "moments", "--T", "0.5", "--H", "200", "--k", "4", "--t-switch", "200"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SECOND_CALL_FAULTS, json.dumps(argvs)],
        capture_output=True, text=True, env=_child_env(), timeout=120, check=True,
    )
    assert all(count < 200 for count in json.loads(proc.stdout)), proc.stdout


def test_zeta_commands_do_not_import_numpy_polynomial():
    # the Riemann-Siegel corrections are literal polynomials, not numpy series
    code = """
import contextlib, io, sys
from momenttail import cli
for argv in (["zeta", "tail", "--T", "2500", "--H", "50"], ["repro"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print("numpy.polynomial" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=120, check=True)
    assert proc.stdout == "False\n"


# 0 or 10^U(-320, 308): subnormal through near the float64 maximum
wide_floats = st.one_of(st.just(0.0), st.floats(-320.0, 308.0).map(lambda e: 10.0**e))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(wide_floats, wide_floats), min_size=1, max_size=6))
def test_theorem_check_exits_0_or_2_on_wide_rows(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("wide") / "dist.csv"
    path.write_text("value,weight\n" + "".join(f"{v!r},{w!r}\n" for v, w in rows), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["theorem", "check", "--input", str(path), "--b", "0.5", "--b", "1"])
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")


GOLDEN_DIST = str(Path(__file__).parent / "golden" / "dist.csv")
#: a bug in the hook length formula: every degree 1, so sum d^2 misses n!
WRONG_DEGREES = "import momenttail.symchar as s\ns.degree = lambda lam: 1"


@pytest.mark.parametrize("argv, code, patch", [
    (["theorem", "check", "--input", "{csv}"], 0, ""),
    (["zeta", "moments", "--T", "0", "--H", "1.2735e-319", "--step", "5e-324", "--k", "2"], 2,
     ""),
    (["skewdet", "mc", "--n", "4", "--samples", "100", "--threads", "0"], 2, ""),
    (["theorem", "check", "--input", "{csv}", "--b", "nan"], 2, ""),
    (["skewdet", "enum", "--n", "0"], 2, ""),
    (["theorem", "check"], 2, ""),
    (["symchar", "report", "--n", "5"], 1, WRONG_DEGREES),
], ids=["overflowing-power", "subnormal-step", "threads-0", "b-nan", "enum-n0", "no-input",
        "symchar-wrong-degrees"])
def test_entry_point_never_shows_a_traceback(tmp_path, argv, code, patch):
    # the real entry point in its own process: bad input exits 2 with a
    # message, a violated exact check exits 1 with one
    path = tmp_path / "wide.csv"
    path.write_text("value,weight\n1e300,1e-300\n1,1\n", encoding="utf-8")
    got, out, err = _fresh_interpreter([arg.replace("{csv}", str(path)) for arg in argv], patch)
    assert got == code
    assert "Traceback" not in err
    assert bool(out) == (code == 0) and bool(err) == (code != 0)
    if code == 1:
        assert err.startswith("error: exact inequality violated (bug): ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, patch", [
    (["theorem", "check", "--input", GOLDEN_DIST, "--b", "0.5"], ""),
    (["zeta", "tail", "--T", "100", "--H", "10", "--step", "0.5"], ""),
    (["symchar", "report", "--n", "5"], ""),
    (["symchar", "report", "--n", "5"], WRONG_DEGREES),
], ids=["theorem-check", "zeta-tail", "symchar-report", "symchar-report-wrong-degrees"])
def test_assert_flag_changes_nothing(argv, patch):
    # every exact check is enforced without it; the flag is only accepted
    assert _fresh_interpreter(argv + ["--assert"], patch) == _fresh_interpreter(argv, patch)


def test_version_has_one_source():
    # pyproject reads the version from the package, so reports and metadata agree
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text("utf-8"))
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "momenttail.__version__"}
