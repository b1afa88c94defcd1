"""Reply checks: every reply is checked by value, not by bytes.

Values the checks compare against (n!, t(n), p(n), 2^m (n-1)!!, Simpson node
counts, determinants of reported witnesses, the second moment of a CSV) are
computed here, not taken from the program.  Fields a reply adds later are
ignored, and floats are compared with tolerances, so a new report block or a
last-ulp change in zeta is not a failure.
"""

import json
import math

from workloads import STEP, simpson_nodes

E_XI_TOL = 1e-9
#: relative step-halving change allowed on a zeta moment at step 0.05
CONVERGENCE_TOL = 1e-6
THEOREM_A_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def involution_count(n: int) -> int:
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def partition_count(n: int) -> int:
    """p(n) by the parts-at-most-k recurrence."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


def bareiss_abs_det(rows: list[list[int]]) -> int:
    """|det| by fraction-free elimination with row pivoting."""
    a = [r[:] for r in rows]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if a[i][k]), None)
        if pivot_row is None:
            return 0
        a[k], a[pivot_row] = a[pivot_row], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return abs(a[n - 1][n - 1])


def skew_rows(n: int, upper: list[int], convention: str) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    signs = iter(upper)
    for i in range(n):
        if convention == "unit":
            rows[i][i] = 1
        for j in range(i + 1, n):
            s = next(signs)
            rows[i][j], rows[j][i] = s, -s
    return rows


def _det_stats(d: dict, n: int, convention: str, count: int):
    _require(d["n"] == n and d["convention"] == convention, "n/convention echo")
    _require(d["count"] == count, f"count {d['count']} != {count}")
    mx, s1, s2 = int(d["max_abs_det"]), int(d["sum_absdet"]), int(d["sum_det2"])
    # the paper's inequality on the finite sample: max |det| >= E det^2 / E |det|
    _require(mx * s1 >= s2, "max_abs_det * sum_absdet < sum_det2")


def check_enum(d: dict, p: dict):
    n, conv = p["n"], p["convention"]
    m = n * (n - 1) // 2
    _det_stats(d, n, conv, 1 << m)
    if conv == "zero" and n % 2 == 0:
        # E det = E Pf^2 = number of perfect matchings
        _require(int(d["sum_absdet"]) == (1 << m) * double_factorial(n - 1),
                 "sum_absdet != 2^m (n-1)!!")
    if conv == "zero" and n % 2 == 1:
        _require(int(d["max_abs_det"]) == 0, "odd zero-diagonal det != 0")


def check_mc(d: dict, p: dict):
    _det_stats(d, p["n"], p["convention"], p["samples"])
    _require(d["seed"] == p["seed"], "seed echo")


def check_search(d: dict, p: dict):
    n = p["n"]
    _require(d["evaluations"] == p["budget"], f"evaluations {d['evaluations']} != budget")
    _require(len(d["upper"]) == n * (n - 1) // 2, "witness size")
    det = bareiss_abs_det(skew_rows(n, d["upper"], d["convention"]))
    _require(det == int(d["abs_det"]), "witness |det| differs from abs_det")


def _degree_totals(n: int, row_count: int, sum_d: int, sum_d2: int):
    _require(row_count == partition_count(n), f"row_count != p({n})")
    _require(sum_d2 == math.factorial(n), f"sum of squared degrees != {n}!")
    _require(sum_d == involution_count(n), f"sum of degrees != t({n})")


def check_report(d: dict, p: dict):
    n = p["n"]
    _require(d["n"] == n, "n echo")
    _degree_totals(n, d["row_count"], int(d["sum_degrees"]), int(d["sum_degree_squares"]))
    # max >= E d^2 / E d on the uniform choice of character
    _require(int(d["max_degree"]) * int(d["sum_degrees"]) >= int(d["sum_degree_squares"]),
             "max degree below the second-moment bound")


def check_tail(d: dict, p: dict):
    _require(d["holds"] is True, "tail inequality does not hold")
    _require(abs(d["e_xi"] - 1.0) <= E_XI_TOL, f"e_xi = {d['e_xi']}")
    _require(d["nodes"] == simpson_nodes(p["H"], STEP), "node count")


def check_moments(d: dict, p: dict):
    _require(d["k"] == p["k"] and d["T"] == p["T"] and d["H"] == p["H"], "T/H/k echo")
    _require(d["nodes"] == simpson_nodes(p["H"], STEP), "node count")
    _require(math.isfinite(d["value"]) and d["value"] > 0, "moment not positive")
    _require(d["convergence_delta"] <= CONVERGENCE_TOL,
             f"step-halving change {d['convergence_delta']}")


def check_theorem(d: dict, p: dict):
    _require(abs(d["a"] - p["a"]) <= THEOREM_A_TOL * p["a"], f"a = {d['a']}, expected {p['a']}")
    _require(len(d["checks"]) == p["cutoffs"], "cutoff count")
    _require(all(c["holds"] for c in d["checks"] if c["b"] < d["a"]), "a cutoff b < a fails")
    _require(d["max"] >= d["a"], "max below a")


def check_repro(d: dict, p: dict):
    for report, (T, H) in zip(d["zeta_tail"], ((500.0, 500.0), (1000.0, 1000.0)), strict=True):
        check_tail(report, {"T": T, "H": H})
    skew = d["skew_determinants"]
    check_enum(skew["enum_n6"], {"n": 6, "convention": "zero"})
    _require(skew["bound_satisfied_n6"] is True, "n=6 second-moment bound")
    check_mc(skew["mc_n10"], {"n": 10, "samples": 20000, "seed": p["seed"], "convention": "zero"})
    check_search(skew["search_n10"], {"n": 10, "budget": 2000})
    check_report(d["character_degrees"], {"n": 25})


_JSON_CHECKS = {
    "enum": check_enum,
    "mc": check_mc,
    "search": check_search,
    "report": check_report,
    "tail": check_tail,
    "moments": check_moments,
    "theorem": check_theorem,
    "repro": check_repro,
}


def check_reply(kind: str, params: dict, reply: str):
    """Raise CheckFailed (or a parse error) unless the reply is right."""
    _JSON_CHECKS[kind](json.loads(reply), params)
