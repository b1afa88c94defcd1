"""Every `mtl` command's stdout against saved golden copies, in all three formats.

Commands built on exact integer arithmetic (skewdet, theorem check, symchar
table) must match byte for byte.  The others get their numbers from numpy
quadrature and libm transcendentals, whose last bits may differ between CPUs,
so for them the flattened key paths and value types must match exactly and
the numbers must agree to 1e-12 relative.

`python tests/test_golden.py NAME ...` rewrites the named goldens from the
current code, and with no name every golden; run it only when a change to the
output is intended, and name only the cases it concerns, since the inexact ones
would pick up this host's last bits.
"""

import json
import math
import random
from pathlib import Path

import pytest

from momenttail import cli

GOLDEN = Path(__file__).parent / "golden"
FORMATS = {"json": "json", "csv": "csv", "human": "txt"}
DIST = str(GOLDEN / "dist.csv")
HEAVY = GOLDEN / "dist-heavy.csv"
#: csv.reader route: quoted header and fields, CRLF endings, one lone CR and
#: one blank line
CRLF_QUOTED = str(GOLDEN / "dist-crlf-quoted.csv")
#: cutoffs on the normalized heavy file (a = 5.7498): ten sit exactly on atoms
#: (0, the two most repeated values, five quantiles and the two largest
#: values), the rest between atoms or above the maximum
HEAVY_CUTOFFS = ["0.0", "0.012699480519839068", "0.0141105339109323", "0.25", "0.5",
                 "0.582765050521504", "1.0", "1.2431380375531356", "1.5", "2.0",
                 "2.362103376690067", "3.0", "4.3460444445671484", "5.0", "5.7",
                 "15.404469870564792", "40.673613998262354", "62.71991218070298",
                 "63.0", "100.0"]


def heavy_csv(rows: int = 5000, seed: int = 2011) -> str:
    """Lomax(2.5) values on a 0.001 grid (so values repeat) with random weights."""
    rng = random.Random(seed)
    lines = ["value,weight\n"]
    for _ in range(rows):
        value = round(rng.paretovariate(2.5) - 1.0, 3)
        weight = round(rng.uniform(0.5, 2.0), 4)
        lines.append(f"{value!r},{weight!r}\n")
    return "".join(lines)


#: name -> (argv, exact)
CASES = {
    "theorem-check": (["theorem", "check", "--input", DIST,
                       "--b", "0", "--b", "0.5", "--b", "1.5", "--b", "40"], True),
    "theorem-check-heavy": (["theorem", "check", "--input", str(HEAVY)]
                            + [arg for b in HEAVY_CUTOFFS for arg in ("--b", b)], True),
    "theorem-check-crlf-quoted": (["theorem", "check", "--input", CRLF_QUOTED,
                                   "--b", "0", "--b", "0.33121387283236997",
                                   "--b", "1.1040462427745665", "--b", "1.4",
                                   "--b", "3.4225433526011564", "--b", "5.2994219653179195",
                                   "--b", "10"], True),
    "zeta-moments-k2": (["zeta", "moments", "--T", "10", "--H", "60", "--k", "2",
                         "--step", "0.1"], False),
    "zeta-moments-k4": (["zeta", "moments", "--T", "100", "--H", "500", "--k", "4",
                         "--threads", "2", "--no-convergence-check"], False),
    "zeta-tail": (["zeta", "tail", "--T", "500", "--H", "50"], False),
    "zeta-tail-high": (["zeta", "tail", "--T", "200", "--H", "40", "--step", "0.1",
                        "--c-threshold", str(1 / (2 * math.pi))], False),
    "skewdet-enum": (["skewdet", "enum", "--n", "4"], True),
    "skewdet-enum-odd": (["skewdet", "enum", "--n", "3"], True),
    "skewdet-enum-unit": (["skewdet", "enum", "--n", "5", "--convention", "unit"], True),
    "skewdet-mc": (["skewdet", "mc", "--n", "8", "--samples", "5000", "--seed", "7",
                    "--threads", "2"], True),
    "skewdet-mc-n32": (["skewdet", "mc", "--n", "32", "--samples", "300", "--seed", "7"],
                       True),
    "skewdet-mc-n17-unit": (["skewdet", "mc", "--n", "17", "--samples", "200", "--seed", "3",
                             "--convention", "unit"], True),
    "skewdet-mc-unit": (["skewdet", "mc", "--n", "14", "--samples", "2000", "--seed", "5",
                         "--convention", "unit"], True),
    "skewdet-search": (["skewdet", "search", "--n", "8", "--budget", "300",
                        "--seed", "1"], True),
    "skewdet-search-n16": (["skewdet", "search", "--n", "16", "--budget", "500",
                            "--seed", "7"], True),
    "skewdet-search-n32": (["skewdet", "search", "--n", "32", "--budget", "300",
                            "--seed", "7"], True),
    "skewdet-search-unit": (["skewdet", "search", "--n", "12", "--budget", "600",
                             "--seed", "2", "--convention", "unit"], True),
    "skewdet-search-odd": (["skewdet", "search", "--n", "5", "--budget", "100",
                            "--seed", "2", "--convention", "unit"], True),
    "symchar-report": (["symchar", "report", "--n", "12", "--eps", "0.1"], False),
    "symchar-table": (["symchar", "table", "--n", "6"], True),
    "repro": (["repro"], False),
}


def _run(capsys, argv: list[str], fmt: str) -> str:
    assert cli.main(argv + ["--format", fmt]) == 0
    return capsys.readouterr().out


def _cell(text: str):
    """A csv/human value back to the scalar it was printed from."""
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _leaves(text: str, fmt: str) -> list[tuple[str, object]]:
    """(flattened key path, scalar) pairs of one report."""
    if fmt == "json":
        out = []

        def walk(prefix, obj):
            if isinstance(obj, dict):
                for key in sorted(obj):
                    walk(f"{prefix}.{key}" if prefix else key, obj[key])
            elif isinstance(obj, list):
                for i, item in enumerate(obj):
                    walk(f"{prefix}.{i}", item)
            else:
                out.append((prefix, obj))

        walk("", json.loads(text))
        return out
    lines = text.splitlines()
    if fmt == "csv":
        rows = [line.split(",", 1) for line in lines[1:]]
    else:
        rows = [(line.split(None, 1) + [""])[:2] for line in lines]
    return [(key, _cell(value.strip())) for key, value in rows]


def _assert_close(got: str, want: str, fmt: str):
    got_leaves, want_leaves = _leaves(got, fmt), _leaves(want, fmt)
    assert [k for k, _ in got_leaves] == [k for k, _ in want_leaves]
    for (key, g), (_, w) in zip(got_leaves, want_leaves):
        assert type(g) is type(w), key
        if isinstance(g, float):
            # abs_tol covers differences of nearly equal sums (convergence_delta)
            assert g == w or math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-15), (key, g, w)
        else:
            assert g == w, key


def test_heavy_input_is_reproducible():
    assert HEAVY.read_text(encoding="utf-8") == heavy_csv()


def test_crlf_quoted_input_keeps_its_bytes():
    # the file must reach the loader with its CRLFs, lone CR and quotes intact
    data = Path(CRLF_QUOTED).read_bytes()
    assert data.count(b"\r\n") == 11 and data.count(b"\r") == 12
    assert data.startswith(b'"value","weight"\r\n') and b"\r\n\r\n" in data


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(capsys, name, fmt):
    argv, exact = CASES[name]
    want = (GOLDEN / f"{name}.{FORMATS[fmt]}").read_text(encoding="utf-8")
    got = _run(capsys, argv, fmt)
    if exact:
        assert got == want
    else:
        _assert_close(got, want, fmt)


if __name__ == "__main__":
    import contextlib
    import io
    import sys

    unknown = set(sys.argv[1:]) - set(CASES)
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(sorted(unknown))}")
    for name in sys.argv[1:] or CASES:
        argv = CASES[name][0]
        for fmt, ext in FORMATS.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(argv + ["--format", fmt]) == 0
            (GOLDEN / f"{name}.{ext}").write_text(buf.getvalue(), encoding="utf-8")
