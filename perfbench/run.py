"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports momenttail from `src/` there.
It builds the workload's request list from the seed (inputs are written
before any timing), then runs the list once in a fresh interpreter
(loop.py) and checks every reply.

--trace 0 reports the end-to-end metrics: throughput in problem-size units,
request latency p50/p90, peak RSS of the process issuing the requests, and
setup_s, the median over several fresh interpreters of importing momenttail
and finishing the smallest request of each layer (cold_start.py).

--trace 1 runs the list twice, each in a fresh interpreter: once untraced,
once with every public momenttail function wrapped (tracing.py), and reports
the per-layer metrics plus the tracing overhead.  Spans go to
.perfbench_out/trace-<workload>.jsonl.

A summary goes to stdout first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Metric names and units are
those in BENCHMARK.json.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from cold_start import WARMUP_CSV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: cold starts timed per run, half before and half after the timed pass so
#: they sample more of the host's load; setup_s is their median
SETUP_SPAWNS = 12
#: a child still running this long after the start is killed and waited for
RUN_BUDGET_S = 170


def _time_left(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def _declared(section: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[section]}


def run_pass(requests, workdir: Path, warm_csv: Path, deadline: float,
             trace_path: Path | None = None, untraced_s: float = 0.0) -> dict:
    tag = "traced" if trace_path else "untraced"
    spec_path, result_path = workdir / f"spec-{tag}.json", workdir / f"result-{tag}.json"
    spec = {
        "src": str(SRC),
        "requests": [r.to_json() for r in requests],
        "warmup_csv": str(warm_csv),
        "trace_path": str(trace_path) if trace_path else None,
        "untraced_s": untraced_s,
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # run() kills the child and waits for it if the timeout passes
    subprocess.run([sys.executable, str(HERE / "loop.py"), str(spec_path), str(result_path)],
                   check=True, timeout=_time_left(deadline), cwd=ROOT)
    return json.loads(result_path.read_text(encoding="utf-8"))


def cold_starts(warm_csv: Path, count: int, deadline: float) -> list[float]:
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "cold_start.py"), str(SRC), str(warm_csv)],
                       check=True, timeout=_time_left(deadline), cwd=ROOT, capture_output=True)
        times.append(time.perf_counter() - t0)
    return times


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def _tally(result: dict) -> tuple[int, int]:
    attempted = len(result["ok"]) + result["invariance_checked"]
    failed = result["ok"].count(False) + len(result["invariance_mismatches"])
    return attempted, failed


def _report_errors(result: dict):
    for err in result["errors"][:5]:
        print(f"request failed: {err}", file=sys.stderr)
    for argv in result["invariance_mismatches"]:
        print(f"reply changed with --threads: {argv}", file=sys.stderr)


def end_to_end(requests, result: dict, setup_s: float) -> dict[str, float]:
    lat = result["latencies_s"]
    busy = sum(lat)
    done = sum(r.units for r, ok in zip(requests, result["ok"]) if ok)
    n = len(lat)
    p90 = nearest_rank(lat, 0.9)
    attempted, failed = _tally(result)
    print(f"requests     {n} in {busy:.3f} s of request time, "
          f"{result['invariance_checked']} re-issued at the other --threads")
    print(f"units_per_s  {done / busy:.1f} units/s ({done} units)")
    print(f"req_p50_ms   {statistics.median(lat) * 1e3:.2f} ms (n={n})")
    print(f"req_p90_ms   {p90 * 1e3:.2f} ms (n={n}, {sum(x > p90 for x in lat)} beyond)")
    print(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    print(f"setup_s      {setup_s:.4f} s (median of {SETUP_SPAWNS} cold starts)")
    print(f"fail_ratio   {failed / attempted:.4f} ({failed} of {attempted})")
    return {
        "units_per_s": done / busy,
        "req_p50_ms": statistics.median(lat) * 1e3,
        "req_p90_ms": p90 * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": setup_s,
    }


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "momenttail" / "__init__.py").is_file():
        print(f"error: no momenttail sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # the worker count comes from argv alone
    os.environ.pop("MTL_THREADS", None)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        warm_csv = workdir / "warmup.csv"
        warm_csv.write_text(WARMUP_CSV, encoding="utf-8")
        requests = workloads.build(args.workload, args.seed, args.seconds, workdir)
        print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests, "
              f"{sum(r.units for r in requests)} units")

        if args.trace:
            declared = _declared("per_layer")
            untraced = run_pass(requests, workdir, warm_csv, deadline)
            traced = run_pass(requests, workdir, warm_csv, deadline,
                              OUT / f"trace-{args.workload}.jsonl",
                              untraced_s=sum(untraced["latencies_s"]))
            passes = (untraced, traced)
            metrics = traced["layers"]
            for name, value in metrics.items():
                print(f"{name:42s} {value:.6g} {declared.get(name, '?')}")
        else:
            declared = _declared("end_to_end")
            starts = cold_starts(warm_csv, SETUP_SPAWNS // 2, deadline)
            result = run_pass(requests, workdir, warm_csv, deadline)
            starts += cold_starts(warm_csv, SETUP_SPAWNS - len(starts), deadline)
            passes = (result,)
            metrics = end_to_end(requests, result, statistics.median(starts))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    attempted = failed = 0
    for result in passes:
        _report_errors(result)
        a, f = _tally(result)
        attempted, failed = attempted + a, failed + f
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
