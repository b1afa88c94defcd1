"""Cold start: import momenttail and finish the smallest request of each layer.

    python3 perfbench/cold_start.py SRC_DIR CSV_PATH

Every `mtl` call pays this: the imports, numpy's first calls and the lazy
Chebyshev series of the Riemann-Siegel correction.  The benchmark times this
script in a fresh interpreter for setup_s, and runs `warm_up` in the timed
process before its loop, so the loop measures steady-state requests.
"""

import contextlib
import io
import sys

SMALLEST_REQUESTS = (
    ("theorem", "check", "--input", "{csv}", "--b", "0.5"),
    ("zeta", "moments", "--T", "0", "--H", "1", "--k", "2", "--step", "0.1"),
    ("zeta", "tail", "--T", "10", "--H", "1", "--step", "0.1"),
    ("skewdet", "enum", "--n", "2"),
    ("skewdet", "mc", "--n", "2", "--samples", "100"),
    ("skewdet", "search", "--n", "2", "--budget", "1"),
    ("symchar", "report", "--n", "1"),
)

WARMUP_CSV = "value,weight\n1,1\n2,1\n"


def call(main, argv) -> tuple[int, str, str]:
    """Run main(argv) with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def warm_up(main, csv_path: str):
    for argv in SMALLEST_REQUESTS:
        code, _, err = call(main, [a.format(csv=csv_path) for a in argv])
        if code != 0:
            raise RuntimeError(f"warm-up request {argv} exited {code}: {err}")


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from momenttail import cli

    warm_up(cli.main, sys.argv[2])
