"""One timed pass over a request list, in a fresh interpreter.

    python3 perfbench/loop.py SPEC.json RESULT.json

SPEC holds the source directory, the requests, the warm-up CSV and, for the
traced pass, where to write spans.  One client issues the requests in order,
in-process through `momenttail.cli.main(argv)` with stdout captured; the next
request goes out only after the previous reply has been checked (closed loop,
no think time).  Only the `main` call is timed.  After the loop, requests
marked for it are re-issued at the other `--threads` value, untimed, and must
give identical replies.
"""

import json
import resource
import sys
import time
import traceback

from checks import check_reply
from cold_start import call, warm_up
from workloads import Request


def _other_threads(argv: tuple[str, ...]) -> list[str]:
    i = argv.index("--threads")
    return [*argv[: i + 1], "1" if argv[i + 1] == "2" else "2", *argv[i + 2 :]]


def run_pass(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from momenttail import cli

    requests = [Request.from_json(r) for r in spec["requests"]]
    main = cli.main
    warm_up(main, spec["warmup_csv"])

    rec = None
    if spec["trace_path"]:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)

    latencies, ok, out_bytes, replies, errors = [], [], [], {}, []
    for i, req in enumerate(requests):
        t0 = time.perf_counter()
        try:
            if rec is None:
                code, reply, stderr = call(main, req.argv)
            else:
                code, reply, stderr = rec.run_request(i, {"kind": req.kind}, call, main, req.argv)
        except Exception:  # the program raised out of main: a failed request
            code, reply, stderr = None, "", traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - t0)
        out_bytes.append(len(reply.encode()))
        try:
            if code != 0:
                raise RuntimeError(f"exit {code}: {stderr.strip()}")
            check_reply(req.kind, req.params, reply)
        except Exception:  # a failed check is counted, and the loop goes on
            ok.append(False)
            errors.append(f"{' '.join(req.argv)}\n{traceback.format_exc(limit=3)}")
        else:
            ok.append(True)
            if req.invariance and rec is None:
                replies[i] = reply
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # untimed; skipped when tracing, so the spans hold only the loop
    mismatches = []
    for i, reply in replies.items():
        argv = _other_threads(requests[i].argv)
        code, stdout, _ = call(main, argv)
        if code != 0 or stdout != reply:
            mismatches.append(" ".join(argv))

    result = {
        "latencies_s": latencies,
        "ok": ok,
        "out_bytes": out_bytes,
        "errors": errors,
        "invariance_checked": len(replies),
        "invariance_mismatches": mismatches,
        "peak_rss_mb": peak_rss_mb,
    }
    if rec is not None:
        rec.write_jsonl(spec["trace_path"])
        total_units = sum(r.units for r in requests)
        result["layers"] = tracing.layer_metrics(
            rec, total_units, out_bytes, spec["untraced_s"], sum(latencies))
    return result


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_pass(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
