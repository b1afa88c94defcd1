"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are pinned here exactly as contracted; timing limits
are asserted with perf_counter.
"""

import json
import math
import time
from math import factorial

import numpy as np

from momenttail import cli
from momenttail.moments import (
    EmpiricalDistribution,
    moment,
    normalize,
    verify_theorem,
)
from momenttail.skewdet import (
    enumerate_stats,
    mc_stats,
    szekeres_s1_asym,
    szekeres_s2_asym,
)
from momenttail.symchar import (
    degree_table,
    involutions,
    max_degree_asym_bound,
    p_exact,
    second_moment_degree_bound,
)
from momenttail.zeta import (
    moment_integral,
    tail_moment_report,
    zeta_abs_euler_maclaurin,
    zeta_abs_riemann_siegel,
)

from oracles import (
    det_exact,
    ingham_main_term,
    pfaffian_exact,
    skew_from_bits,
    zeta_abs,
    zeta_abs_eta_oracle,
)


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_tail_inequality_property_suite():
    rng = np.random.default_rng(20260808)
    start = time.perf_counter()
    failures = 0
    for _ in range(1000):
        size = int(rng.integers(1, 51))
        values = rng.uniform(0.0, 10.0, size)
        weights = 1.0 - rng.random(size)  # in (0, 1]
        if not np.any(values > 0):
            values[0] = rng.uniform(1.0, 10.0)
        dist = EmpiricalDistribution(np.column_stack((values, weights)))
        norm = normalize(dist)
        a = moment(norm, 2)
        grid = np.linspace(0.0, a, num=20, endpoint=False).tolist()
        rep = verify_theorem(dist, grid)  # raises on any exact-inequality miss
        if not rep.degenerate and rep.max_value < rep.a - 1e-9:
            failures += 1
        if not all(c.holds for c in rep.checks):
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        "1 tail-inequality property suite",
        failures == 0 and elapsed < 5.0,
        f"1000 distributions, 0 failures required, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_character_identities():
    start = time.perf_counter()
    ok = True
    for n in range(1, 26):
        table = degree_table(n)
        ok &= table.sum_degree_squares == factorial(n)
        ok &= table.sum_degrees == involutions(n)
        ok &= len(table.rows) == p_exact(n)
    elapsed = time.perf_counter() - start
    report(
        "2 character identities n<=25",
        ok and elapsed < 30.0,
        f"sum(deg^2)=n!, sum(deg)=t(n), rows=p(n) exactly; {elapsed:.2f}s < 30s",
    )


def test_criterion_3_max_degree_bound():
    ok = True
    ratios = {}
    for n in range(1, 41):
        bound = second_moment_degree_bound(n)
        max_deg = degree_table(n).max_degree
        # exact rational comparison: max * t(n) >= n!
        ok &= max_deg * bound.denominator >= bound.numerator
        if n in (10, 25, 40):
            asym = max_degree_asym_bound(n, eps=0.0)
            ratios[n] = math.exp(math.log(max_deg) - asym.log)
    detail = "max*t(n) >= n! exactly for n<=40; asym ratios " + ", ".join(
        f"n={n}: {r:.3f}" for n, r in ratios.items()
    )
    report("3 maximal-degree bound", ok, detail)


def test_criterion_4_skew_determinants_exact():
    start = time.perf_counter()
    ok = True
    details = []
    for n in (2, 4, 6):
        stats = enumerate_stats(n)
        ok &= stats.s2 >= stats.s1
        bound = stats.s2**2 / stats.s1
        ok &= stats.max_abs_det >= bound * (1 - 1e-6)
        # matrix-by-matrix det = Pf^2 over the full ensemble, whose sums must
        # equal those of the symmetry-reduced walk
        m_bits = n * (n - 1) // 2
        sum_abs = sum_d2 = max_abs = 0
        for bits in range(1 << m_bits):
            mat = skew_from_bits(n, bits)
            det = det_exact(mat)
            if det != pfaffian_exact(mat) ** 2:
                ok = False
                break
            sum_abs += abs(det)
            sum_d2 += det * det
            max_abs = max(max_abs, abs(det))
        ok &= (sum_abs, sum_d2, max_abs) == (
            stats.sum_absdet, stats.sum_det2, stats.max_abs_det
        )
        details.append(f"n={n}: s1={stats.s1:.4g} s2={stats.s2:.4g} max={stats.max_abs_det}")
    elapsed = time.perf_counter() - start
    report(
        "4 skew determinants exact regime",
        ok and elapsed < 60.0,
        "; ".join(details) + f"; det=Pf^2 and full-ensemble sums everywhere; {elapsed:.1f}s < 60s",
    )


def test_criterion_5_skew_determinants_monte_carlo():
    exact = enumerate_stats(6)
    mc = mc_stats(6, 100_000, seed=101)
    ok = abs(mc.s1 - exact.s1) <= 4 * mc.stderr_s1
    ok &= abs(mc.s2 - exact.s2) <= 4 * mc.stderr_s2

    a = mc_stats(10, 20_000, seed=7)
    b = mc_stats(10, 20_000, seed=9001)
    ok &= abs(a.s1 - b.s1) <= 4 * math.hypot(a.stderr_s1, b.stderr_s1)
    ok &= abs(a.s2 - b.s2) <= 4 * math.hypot(a.stderr_s2, b.stderr_s2)

    # asymptotic ratios: recorded, never asserted
    r1 = exact.s1 / szekeres_s1_asym(6).value
    r2 = exact.s2 / szekeres_s2_asym(6).value
    report(
        "5 skew determinants MC regime",
        ok,
        f"n=6 within 4se of enumeration; n=10 seeds agree within 4se; "
        f"s1/s1_asym(6)={r1:.3f}, s2/s2_asym(6)={r2:.3f}",
    )


def test_criterion_6_second_moment_vs_main_term():
    start = time.perf_counter()
    rels = []
    for T in (200.0, 500.0, 1000.0):
        est = moment_integral(0.0, T, 2, step=0.05)
        main = ingham_main_term(T)
        rels.append(abs(est.value - main) / main)
    elapsed = time.perf_counter() - start
    ok = all(r <= 0.10 for r in rels)
    ok &= all(x >= y for x, y in zip(rels, rels[1:]))
    report(
        "6 second moment vs main term",
        ok and elapsed < 120.0,
        "rel errs " + ", ".join(f"{r:.4f}" for r in rels)
        + f" (<=0.10, non-increasing); {elapsed:.1f}s < 120s",
    )


def test_criterion_7_tail_construction():
    ok = True
    details = []
    for T, H in ((500.0, 500.0), (1000.0, 1000.0)):
        rep = tail_moment_report(T, H)
        ok &= abs(rep.e_xi - 1.0) <= 1e-9
        ok &= rep.a > 1.0
        ok &= rep.tail >= rep.a - rep.b - 1e-9
        ok &= rep.holds
        details.append(
            f"T={T:.0f}: a={rep.a:.3f}, b={rep.b:.3f}, "
            f"restricted/leading={rep.restricted_to_target_ratio:.3f}"
        )
    report("7 tail construction", ok, "; ".join(details) + " (ratio report only)")


def test_criterion_8_evaluator_accuracy():
    v0 = zeta_abs(0.0)
    oracle0 = zeta_abs_eta_oracle(0.0)
    ok = abs(v0 - 1.4603545) <= 1e-6 + 5e-8  # stated digits plus rounding slack
    ok &= abs(v0 - oracle0) <= 1e-6
    vzero = zeta_abs(14.134725142)
    ok &= vzero <= 1e-3
    ts = np.arange(40.0, 60.0001, 0.037)
    gap = float(
        np.max(
            np.abs(
                zeta_abs_euler_maclaurin(ts) - zeta_abs_riemann_siegel(ts, 2)
            )
        )
    )
    ok &= gap <= 2e-3
    report(
        "8 evaluator accuracy",
        ok,
        f"|zeta(1/2)|={v0:.9f} (oracle {oracle0:.9f}); first zero {vzero:.2e}; "
        f"crossover gap {gap:.2e} <= 2e-3",
    )


def test_criterion_9_determinism(capsys):
    commands = [
        ["skewdet", "mc", "--n", "6", "--samples", "2000", "--seed", "11"],
        ["skewdet", "search", "--n", "6", "--budget", "120", "--seed", "11"],
        ["zeta", "moments", "--T", "60", "--H", "30", "--k", "2", "--step", "0.1",
         "--no-convergence-check"],
        ["symchar", "report", "--n", "10"],
    ]
    ok = True
    for argv in commands:
        outputs = []
        for extra in ([], [], ["--threads", "1"], ["--threads", "4"]):
            code = cli.main(argv + extra)
            captured = capsys.readouterr().out
            assert code == 0
            json.loads(captured)  # must be valid JSON
            outputs.append(captured)
        # identical argv -> identical bytes, and --threads changes nothing
        ok &= outputs[0] == outputs[1] == outputs[2] == outputs[3]
    report("9 determinism", ok, "byte-identical JSON across runs and --threads")
