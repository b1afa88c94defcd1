"""Smoke test of the traced benchmark path in perfbench/.

`perfbench/tracing.py` wraps the package's public functions by name and binds
some of their parameters (`mc_stats(threads=)`, `zeta_abs_euler_maclaurin(
n_terms=)`, `SkewSignMatrix.to_rows`, ...).  A change that drops one of those
names breaks the traced benchmark run without failing any other test.  This
runs one tiny request of each kind through the recorder, in a fresh
interpreter so the wrapping does not leak into the rest of the suite.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
src, perfbench, csv = sys.argv[1:4]
sys.path[:0] = [src, perfbench]
import tracing
from cold_start import call
from momenttail import cli

REQUESTS = [
    ["skewdet", "enum", "--n", "3"],
    ["skewdet", "enum", "--n", "7"],
    ["skewdet", "mc", "--n", "4", "--samples", "4200", "--threads", "2"],
    ["skewdet", "mc", "--n", "17", "--samples", "100"],
    ["skewdet", "mc", "--n", "32", "--samples", "100"],
    ["skewdet", "search", "--n", "4", "--budget", "20"],
    ["skewdet", "search", "--n", "7", "--budget", "60"],
    ["skewdet", "search", "--n", "17", "--budget", "60", "--convention", "unit"],
    ["zeta", "moments", "--T", "0", "--H", "2", "--k", "2", "--step", "0.1"],
    ["zeta", "tail", "--T", "100", "--H", "2", "--step", "0.1"],
    ["theorem", "check", "--input", csv, "--b", "0.5"],
    ["symchar", "report", "--n", "5"],
]

rec = tracing.Recorder()
tracing.install(rec)
codes = []
for i, argv in enumerate(REQUESTS):
    code, _, err = rec.run_request(i, {"kind": argv[0]}, call, cli.main, argv)
    codes.append([code, err])
metrics = tracing.layer_metrics(rec, len(REQUESTS), [1] * len(REQUESTS), 1.0, 1.0)
print(json.dumps({"codes": codes, "errors": dict(rec.errors), "spans": sorted(set(rec.names)),
                  "metrics": len(metrics)}))
"""


def test_traced_requests_run_clean():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(ROOT / "tests" / "golden" / "dist.csv")],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [code for code, _ in result["codes"]] == [0] * 12, result["codes"]
    assert all(count == 0 for count in result["errors"].values()), result["errors"]
    for layer in ("skewdet.mc_stats", "skewdet.enumerate_stats", "skewdet.search_high_det",
                  "zeta.zeta_abs_euler_maclaurin", "zeta.zeta_abs_riemann_siegel",
                  "moments.verify_theorem", "symchar.degree_table"):
        assert layer in result["spans"]
    assert result["metrics"] > 0
