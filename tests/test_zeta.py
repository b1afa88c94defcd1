"""Tests for the |zeta| evaluators, moment quadrature and tail reports."""

import dataclasses
import math
import sys
import tracemalloc
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momenttail import zeta
from momenttail.moments import moment
from momenttail.zeta import (
    COEFF_LOW,
    COEFF_HIGH,
    ZetaEvalConfig,
    moment_integral,
    riemann_siegel_theta,
    tail_moment_report,
    zeta_abs_euler_maclaurin,
    zeta_abs_grid,
    zeta_abs_riemann_siegel,
)

from oracles import (
    EULER_GAMMA,
    fourth_moment_leading_term,
    ingham_main_term,
    psi_mp,
    psi_sinc,
    rs_correction_fit,
    rs_main_sum_masked,
    second_correction_mp,
    simpson_halving_estimate,
    trapezoid_moment,
    zeta_abs,
    zeta_abs_em_exp_outer,
    zeta_abs_em_oracle,
    zeta_abs_eta_oracle,
)

FIRST_ZERO = 14.134725142


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n >= 2 with multiplicity, by trial division."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out + [n] if n > 1 else out


class TestConfig:
    def test_defaults(self):
        cfg = ZetaEvalConfig()
        assert cfg.t_switch == 50.0
        assert cfg.rs_correction_terms == 2

    def test_rejects_bad_corrections(self):
        with pytest.raises(ValueError):
            ZetaEvalConfig(rs_correction_terms=3)

    def test_rejects_bad_switch(self):
        with pytest.raises(ValueError):
            ZetaEvalConfig(t_switch=0.0)

    @pytest.mark.parametrize("t_switch", [math.nan, math.inf])
    def test_rejects_non_finite_switch(self, t_switch):
        with pytest.raises(ValueError, match="t_switch must be finite"):
            ZetaEvalConfig(t_switch=t_switch)


@pytest.mark.parametrize("name", ["T", "H", "step"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [moment_integral, tail_moment_report])
def test_non_finite_window_rejected(fn, name, bad):
    args = {"T": 100.0, "H": 10.0, "step": 0.5, name: bad}
    extra = (2,) if fn is moment_integral else ()
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        fn(args["T"], args["H"], *extra, step=args["step"])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_c_threshold_rejected(bad):
    with pytest.raises(ValueError, match="c_threshold must be finite"):
        tail_moment_report(100.0, 10.0, c_threshold=bad, step=0.5)


def _estimate(**changes):
    fields = {"T": 0.0, "H": 1.0, "k": 2, "value": 1.0, "nodes": 3, "step": 0.5}
    return zeta.MomentEstimate(**{**fields, **changes})


@pytest.mark.parametrize("call, message", [
    (lambda: zeta_abs_euler_maclaurin([1.0], n_terms=0), "n_terms must be positive"),
    (lambda: zeta_abs_riemann_siegel([100.0], correction_terms=3),
     "correction_terms must be 0, 1 or 2"),
    (lambda: zeta_abs_riemann_siegel([100.0, 0.0]), "Riemann-Siegel route needs t > 0"),
    (lambda: ingham_main_term(0.0), "T must be positive"),
    (lambda: fourth_moment_leading_term(1.0), "T must exceed 1"),
    (lambda: _estimate(k=3), "k must be 2 or 4"),
    (lambda: _estimate(H=0.0), "H must be positive"),
    (lambda: _estimate(nodes=1), "need at least 2 nodes"),
    (lambda: _estimate(value=-1.0), "moment cannot be negative"),
    (lambda: moment_integral(-1.0, 10.0, 2), "T must be non-negative"),
    (lambda: moment_integral(10.0, 10.0, 3), "k must be 2 or 4"),
    (lambda: tail_moment_report(100.0, 0.0), "H must be positive"),
    (lambda: tail_moment_report(100.0, 1.0, step=1.0), "step must satisfy 0 < step <= H/10"),
    # each route rejects what it cannot sum within DIRICHLET_MAX_TERMS terms
    (lambda: zeta_abs_euler_maclaurin([math.nan]), "t must be finite"),
    (lambda: zeta_abs_euler_maclaurin([math.inf]), "t must be finite"),
    (lambda: zeta_abs_euler_maclaurin([100.0, math.nan]), "t must be finite"),
    (lambda: zeta_abs_euler_maclaurin([1e9]),
     "t = 1000000000.0 is too large for the Euler-Maclaurin route: it accepts t <= 7960 "
     "(lower t_switch to use Riemann-Siegel)"),
    (lambda: zeta_abs_euler_maclaurin([1.0], n_terms=10**10), "n_terms must be at most 3989"),
    (lambda: zeta_abs_euler_maclaurin([1e5], n_terms=100),
     "n_terms = 100 is too few for t = 100000.0: the Euler-Maclaurin route needs at least "
     "ceil(|t|/2) + 8 = 50008 terms"),
    (lambda: zeta_abs_euler_maclaurin([10.0, -60.0], n_terms=1),
     "n_terms = 1 is too few for t = 60.0: the Euler-Maclaurin route needs at least "
     "ceil(|t|/2) + 8 = 38 terms"),
    (lambda: zeta_abs_euler_maclaurin([60.25], n_terms=38),
     "n_terms = 38 is too few for t = 60.25: the Euler-Maclaurin route needs at least "
     "ceil(|t|/2) + 8 = 39 terms"),
    (lambda: zeta_abs_euler_maclaurin([2.0**1023], n_terms=3989),
     f"n_terms = 3989 is too few for t = {2.0**1023!r}: the Euler-Maclaurin route needs at "
     f"least ceil(|t|/2) + 8 = {2**1022 + 8} terms"),
    # half the least subnormal rounds to 0 in float64, but its ceiling is 1
    (lambda: zeta_abs_euler_maclaurin([5e-324], n_terms=8),
     "n_terms = 8 is too few for t = 5e-324: the Euler-Maclaurin route needs at least "
     "ceil(|t|/2) + 8 = 9 terms"),
    (lambda: zeta_abs_riemann_siegel([math.nan]), "Riemann-Siegel route needs t > 0"),
    (lambda: zeta_abs_riemann_siegel([math.inf]),
     "t = inf is too large for the Riemann-Siegel route: it accepts t < 1.00029e+08 "
     "(3989 Dirichlet terms)"),
    (lambda: zeta_abs_riemann_siegel([100.0, math.nan]), "Riemann-Siegel route needs t > 0"),
    (lambda: zeta_abs_riemann_siegel([1e30]),
     "t = 1e+30 is too large for the Riemann-Siegel route: it accepts t < 1.00029e+08 "
     "(3989 Dirichlet terms)"),
], ids=["em-n-terms", "rs-correction-terms", "rs-t-zero", "ingham-T0", "fourth-T1",
        "estimate-k", "estimate-H", "estimate-nodes", "estimate-value", "moments-T-negative",
        "moments-k3", "tail-H0", "tail-step-H", "em-nan", "em-inf", "em-node-then-nan",
        "em-t-past-cap", "em-n-terms-past-cap", "em-n-terms-below-2t-1e5",
        "em-n-terms-below-2t-60", "em-n-terms-one-short", "em-n-terms-2t-past-float64",
        "em-n-terms-half-subnormal", "rs-nan", "rs-inf", "rs-node-then-nan", "rs-t-past-cap"])
@pytest.mark.filterwarnings("error")
def test_guard_rejects(call, message):
    # no node is evaluated, and nothing sized by t is allocated
    with mock.patch.object(zeta, "_dirichlet", side_effect=AssertionError("evaluated")):
        with pytest.raises(ValueError) as err:
            call()
    assert str(err.value) == message


@pytest.mark.parametrize("route", [zeta_abs_euler_maclaurin, zeta_abs_riemann_siegel])
def test_empty_nodes_give_an_empty_array(route):
    out = route(np.empty(0))
    assert (out.shape, out.dtype) == ((0,), np.float64)


@pytest.mark.parametrize("call", [
    lambda: zeta_abs_grid([math.nan]),
    lambda: zeta_abs_grid([100.0, math.nan]),
    lambda: zeta_abs(math.nan),
], ids=["grid-nan", "grid-node-then-nan", "point-nan"])
@pytest.mark.filterwarnings("error")
def test_nan_node_rejected_before_any_evaluation(call):
    with mock.patch.object(zeta, "_eval_grid", side_effect=AssertionError("evaluated")):
        with pytest.raises(ValueError, match="t must be non-negative"):
            call()


class TestEvaluator:
    def test_value_at_zero_against_eta_oracle(self):
        oracle = zeta_abs_eta_oracle(0.0)
        assert zeta_abs(0.0) == pytest.approx(oracle, abs=1e-6)
        assert zeta_abs(0.0) == pytest.approx(1.4603545088, abs=1e-6)

    def test_first_zero_is_small(self):
        assert zeta_abs(FIRST_ZERO) <= 1e-3

    def test_t100_against_em_oracle(self):
        assert zeta_abs(100.0) == pytest.approx(zeta_abs_em_oracle(100.0), abs=1e-3)

    def test_eta_oracle_is_itself_sound(self):
        # the averaging-accelerated eta sum must agree with an unrelated
        # high-order Euler-Maclaurin evaluation to far beyond test tolerance
        for t in (0.0, 14.0, 55.0):
            assert zeta_abs_eta_oracle(t) == pytest.approx(
                zeta_abs_em_oracle(t), abs=1e-12
            )

    def test_rs_accuracy_above_switch(self):
        for t in (60.0, 100.0, 500.0, 1000.0):
            ref = zeta_abs_em_oracle(t, n_terms=2 * int(t) + 50)
            assert zeta_abs(t) == pytest.approx(ref, abs=1e-3)

    def test_rs_accuracy_at_top_of_range(self):
        # 2t Dirichlet terms is impractical at t = 1e6; mpmath's own
        # independent evaluator is the reference here
        import mpmath as mp

        with mp.workdps(30):
            ref = float(abs(mp.zeta(mp.mpc(0.5, 1e6))))
        assert zeta_abs(1e6) == pytest.approx(ref, abs=1e-3)

    def test_methods_agree_on_crossover_band(self):
        ts = np.arange(40.0, 60.0001, 0.037)
        em = zeta_abs_euler_maclaurin(ts)
        rs = zeta_abs_riemann_siegel(ts, correction_terms=2)
        assert float(np.max(np.abs(em - rs))) <= 2e-3

    def test_psi_branches_evaluated_on_their_own_halves(self):
        # reference: both sin-quotient branches on every p, then a choice;
        # each p takes the same elementwise steps, so the bits agree
        p = np.concatenate((np.linspace(0.0, 1.0, 8193), [0.25, 0.5, 0.75, np.nextafter(0.5, 1.0)]))
        u, v = p - 0.25, p - 0.75
        with np.errstate(invalid="ignore", divide="ignore"):
            low = ((1 - 2 * u) / 2) * np.sinc(u - 2 * u * u) / np.sinc(2 * u)
            high = ((1 + 2 * v) / 2) * np.sinc(v + 2 * v * v) / np.sinc(2 * v)
        got = psi_sinc(p)  # a division warning would fail the suite
        assert np.array_equal(got, np.where(p <= 0.5, low, high))
        assert np.isfinite(got).all()
        direct = np.cos(2 * np.pi * (p * p - p - 1 / 16)) / np.cos(2 * np.pi * p)
        away = np.abs(np.cos(2 * np.pi * p)) > 0.1
        assert np.allclose(got[away], direct[away], rtol=1e-12)
        # the reference for P, the fitted psi that zeta_abs_riemann_siegel
        # uses, on the whole dense grid (3.3e-16 at most at degree 12)
        y = 2.0 * p - 1.0
        assert np.abs(zeta._horner(zeta._PSI_EVEN, y * y) - got).max() <= 1e-15

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            zeta_abs(-1.0)

    def test_grid_matches_scalar(self):
        # each value depends on its own t alone, so batching changes no bit
        ts = np.array([0.0, 10.0, 49.0, 51.0, 200.0])
        grid = zeta_abs_grid(ts)
        assert [zeta_abs(float(t)) for t in ts] == grid.tolist()

    def test_dirichlet_length_capped_on_both_routes(self):
        wide = ZetaEvalConfig(t_switch=1e4)
        # 7960 is the last EM bucket within DIRICHLET_MAX_TERMS terms
        assert zeta.EM_MAX_T == 7960
        assert zeta._em_terms(np.array([7960.0, 7960.5])).tolist() == [3988, 3992]
        assert zeta_abs_grid([7960.0], wide)[0] > 0
        with pytest.raises(ValueError, match=r"Euler-Maclaurin route: it accepts t <= 7960 "):
            zeta_abs_grid([10.0, 7960.5], wide)
        # the last RS node with floor(sqrt(t/2pi)) = 3989 terms
        last = 2 * math.pi * 3990**2 - 1
        assert math.floor(math.sqrt(last / (2 * math.pi))) == zeta.DIRICHLET_MAX_TERMS
        assert zeta_abs_grid([last])[0] >= 0
        for t in (2 * math.pi * 3990**2, 1e17, 1e300, math.inf):
            with pytest.raises(ValueError, match=r"Riemann-Siegel route: it accepts t < 1.00029e\+08"):
                zeta_abs_grid([100.0, t])

    def test_grid_thread_count_does_not_change_values(self):
        # chunks run serially, so this shows that any valid threads is accepted
        ts = np.linspace(0.0, 400.0, 20000)
        a = zeta_abs_grid(ts, threads=1)
        b = zeta_abs_grid(ts, threads=4)
        assert np.array_equal(a, b)


ts_lists = st.lists(st.floats(min_value=0.0, max_value=300.0), min_size=1, max_size=40)


class TestDirichletKernel:
    """The multiplicative Dirichlet kernel behind both evaluation routes."""

    def test_em_against_exp_outer_oracle(self):
        ts = np.linspace(0.0, 200.0, 2001)
        diff = zeta_abs_euler_maclaurin(ts) - zeta_abs_em_exp_outer(ts)
        assert float(np.max(np.abs(diff))) <= 1e-12

    def test_rs_against_masked_loop(self):
        ts = np.linspace(10.0, 5000.0, 20001)
        main = rs_main_sum_masked(ts, riemann_siegel_theta(ts))
        diff = zeta_abs_riemann_siegel(ts, correction_terms=0) - np.abs(main)
        assert float(np.max(np.abs(diff))) <= 1e-10

    @pytest.mark.parametrize("t", [0.1, 14.134725142, 77.7, 199.0, 200.0, 500.0, 1000.0,
                                   1500.0, 1984.0, 2500.0, 4000.0, 6000.0, 7000.0, 7960.0])
    def test_em_against_mpmath(self, t):
        # the truncation error is below 5.6e-13 everywhere (Backlund); the
        # rounding of the phases t log n grows with t and sets the error, which
        # reached 3.2e-12 at random t in [200, 1984] and 8.8e-12 up to the cap
        with mp.workdps(30):
            ref = float(abs(mp.zeta(mp.mpc(0.5, t))))
        tol = 1e-12 if t < 200 else 2e-12 if t <= 1984 else 1e-11
        assert zeta_abs_euler_maclaurin([t])[0] == pytest.approx(ref, abs=tol)

    @pytest.mark.parametrize("t, N, tol", [
        (0.0, 16, 1e-12), (3.0, 24, 1e-12), (150.0, 313, 1e-12), (1000.0, 12, 1e-12),
        # the phase t log n is itself rounded, by up to about t log N 2^-53, so
        # the bound is t log N 2^-52 sum n^(-1/2) (measured 2.1e-10 and 7.1e-8)
        (1e6, 398, 5.2e-8), (1e8, 3989, 2.3e-5),
    ], ids=["0.0-16", "3.0-24", "150.0-313", "1000.0-12", "1000000.0-398", "100000000.0-3989"])
    def test_sums_against_mpmath(self, t, N, tol):
        with mp.workdps(30):
            s = mp.mpc(0.5, t)
            ref = complex(mp.fsum(mp.power(n, -s) for n in range(1, N + 1)))
        assert abs(zeta._dirichlet([t], N)[0] - ref) <= tol

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 2**-0.5, 3989**-0.5])
    def test_cis_against_mpmath(self, scale):
        rng = np.random.default_rng(25)
        # floats within two ulps of k pi: u = tan(phase / 2) near 0 at even k
        # and near its largest at odd k (1.6e18 at k = 29)
        ks = np.concatenate((np.arange(1, 41), rng.integers(41, 4e8 / math.pi, 60)))
        with mp.workdps(30):
            near = np.array([float(int(k) * mp.pi) for k in ks])
        for _ in range(2):
            near = np.concatenate((near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)))
        phases = np.concatenate(([0.0, -0.0], near, -near, rng.uniform(-4e8, 4e8, 1000),
                                 rng.uniform(-10.0, 10.0, 200)))
        assert np.abs(np.tan(0.5 * phases)).max() > 1e18
        got = zeta._cis(phases, scale)
        assert np.isfinite(got).all()
        with mp.workdps(30):
            err = max(max(abs(g.real - scale * mp.cos(p)), abs(g.imag - scale * mp.sin(p)))
                      for p, g in zip(phases.tolist(), got.tolist()))
        assert err <= 4e-16 * scale

    def test_smooth_walk_against_trial_division(self):
        top = 1000
        factors = {n: _prime_factors(n) for n in range(2, top + 1)}
        primes = zeta._primes(top)
        assert primes == [n for n, f in factors.items() if len(f) == 1]
        walk = zeta._smooth_walk(primes, top)
        # every composite exactly once
        assert sorted(n for n, *_ in walk) == [n for n, f in factors.items() if len(f) > 1]
        done = set(primes)
        for n, q, p, depth, keep in walk:
            assert (q * p, p, depth) == (n, max(factors[n]), len(factors[n]))
            assert q in done  # the parent's row is formed first
            assert keep == (n * p <= top)
            done.add(n)

    @pytest.mark.parametrize("top", [28, 112, 608, 1000, 3988, 3989])
    def test_stored_rows_within_the_block_bound(self, top):
        # pi(top/2) + floor(log2 top), by trial division
        bound = sum(len(_prime_factors(n)) == 1 for n in range(2, top // 2 + 1))
        bound += math.floor(math.log2(top))
        size = zeta.DIRICHLET_BYTES // (16 * bound)
        # one full block over bounds from 0 to top, then one node alone
        bounds = np.sort(np.random.default_rng(top).integers(0, top + 1, size + 1))
        bounds[-2:] = top
        ts = np.linspace(10.0, 5000.0, size + 1)
        block, blocks, most = zeta._dirichlet_block, [], 0

        def recorded(ts, bounds, *rest):
            blocks.append(len(ts))
            return block(ts, bounds, *rest)

        def count(frame, event, arg):
            # the rows a block stores: its prime factor rows and depth slots
            nonlocal most
            names = frame.f_locals
            stored = len(names.get("factors", ()))
            stored += sum(row is not None for row in names.get("slots", ()))
            most = max(most, stored)
            return count

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg:
                     count if frame.f_code is block.__code__ else None)
        try:
            with mock.patch.object(zeta, "_dirichlet_block", recorded):
                zeta._dirichlet(ts, bounds)
        finally:
            sys.settrace(previous)
        assert blocks == [size, 1]
        assert 0 < most <= bound

    def test_per_node_bounds(self):
        ts = np.array([5.0, 120.0, 0.3, 60.0, 7.5])
        bounds = np.array([40, 0, 1, 250, 97])
        alone = [zeta._dirichlet([t], n)[0] for t, n in zip(ts, bounds)]
        assert zeta._dirichlet(ts, bounds).tolist() == alone
        assert alone[1] == 0 and alone[2] == 1

    def test_bucket_truncation_never_below_point_rule(self):
        ts = np.linspace(0.0, zeta.EM_MAX_T, 40001)
        N = zeta._em_terms(ts)
        assert np.all(N >= np.maximum(16, np.ceil(ts / 2) + 8))
        assert N.max() == 3988
        ts = np.array([0.5, 16.0, 16.01, 24.0, 24.01, 200.0, 1984.0])
        assert zeta._em_terms(ts).tolist() == [16, 16, 20, 20, 24, 108, 1000]

    def test_backlund_bound_at_every_bucket_top(self):
        # Backlund's bound on the remainder after 12 Bernoulli terms,
        # |s+25|/(sigma+25) |B_26|/26! prod_{j<25} |s+j| N^(-sigma-25); within a
        # bucket N is fixed and the bound grows with t, so the top is the worst
        tops = np.arange(0.0, zeta.EM_MAX_T + 1, zeta.EM_BUCKET)
        with mp.workdps(30):
            coeff = abs(mp.bernoulli(26)) / mp.factorial(26)
            bounds = {}
            for t, n in zip(tops.tolist(), zeta._em_terms(tops).tolist()):
                s = mp.mpc(0.5, t)
                prod = mp.fprod(abs(s + j) for j in range(25))
                bounds[t] = float(abs(s + 25) / 25.5 * coeff * prod * mp.mpf(n) ** -25.5)
        assert bounds[200.0] <= 1.42e-14
        assert bounds[1984.0] <= 2.4e-13
        assert max(bounds.values()) == bounds[7960.0] <= 5.6e-13

    # the 200 midpoints of (0, 1) and four points near its ends
    CORRECTION_PS = [(i + 0.5) / 200 for i in range(200)] + [1e-6, 1e-3, 0.999, 1 - 1e-6]

    def test_psi_polynomial_against_mpmath(self):
        p = np.array(self.CORRECTION_PS)
        with mp.workdps(50):
            ref = [float(psi_mp(mp.mpf(x))) for x in p.tolist()]
        y = 2.0 * p - 1.0
        err = np.abs(zeta._horner(zeta._PSI_EVEN, y * y) - ref)
        assert err.max() <= 1e-15

    def test_second_correction_against_mpmath(self):
        # y Q(s), the form zeta_abs_riemann_siegel adds (divided by a)
        p = np.array(self.CORRECTION_PS)
        with mp.workdps(50):
            ref = [float(second_correction_mp(mp.mpf(x))) for x in p.tolist()]
        y = 2.0 * p - 1.0
        err = np.abs(y * zeta._horner(zeta._C1_ODD, y * y) - ref)
        assert err.max() <= 1e-15

    def test_correction_coefficients_are_the_rounded_fit(self):
        assert zeta._PSI_EVEN == rs_correction_fit(odd=False, degree=12)
        assert zeta._C1_ODD == rs_correction_fit(odd=True, degree=11)

    def test_theta_against_mpmath(self):
        ts = np.concatenate(([10.0, 14.1, 50.0, 1e3, 1e6, 1e8],
                             np.random.default_rng(34).uniform(10.0, 5000.0, 100)))
        with mp.workdps(40):
            ref = np.array([float(mp.siegeltheta(t)) for t in ts.tolist()])
        err = np.abs(riemann_siegel_theta(ts) - ref)
        assert np.all(err <= 3.1e-11 * (10.0 / ts) ** 7 + 4e-16 * np.abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(ts_lists)
    def test_grid_equals_scalar(self, ts):
        assert zeta_abs_grid(ts).tolist() == [zeta_abs(t) for t in ts]

    @settings(max_examples=40, deadline=None)
    @given(ts_lists, st.integers(1, 7), st.integers(200, 20_000))
    def test_chunking_and_blocks_do_not_change_values(self, ts, chunk, budget):
        expected = zeta_abs_grid(ts)
        with mock.patch.object(zeta, "_EVAL_CHUNK", chunk), \
                mock.patch.object(zeta, "DIRICHLET_BYTES", budget):
            assert zeta_abs_grid(ts).tolist() == expected.tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=300.0), ts_lists)
    def test_neighbours_do_not_change_a_value(self, t, others):
        assert zeta_abs_grid([t] + others)[0] == zeta_abs_grid([t])[0]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=20),
           st.integers(38, 300))  # ceil(60 / 2) + 8 = 38 terms at least
    def test_n_terms_honoured(self, ts, n_terms):
        got = zeta_abs_euler_maclaurin(ts, n_terms=n_terms)
        ref = zeta_abs_em_exp_outer(ts, n_terms=n_terms)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert got.tolist() == [zeta_abs_euler_maclaurin([t], n_terms)[0] for t in ts]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=1e-3, max_value=2 * math.pi - 1e-9), min_size=1, max_size=10),
           st.lists(st.floats(min_value=2 * math.pi, max_value=500.0), max_size=10))
    def test_rs_nodes_below_2pi_have_empty_main_sum(self, low, high):
        ts = low + high
        assert zeta_abs_riemann_siegel(low, correction_terms=0).tolist() == [0.0] * len(low)
        for k in (0, 1, 2):
            mixed = zeta_abs_riemann_siegel(ts, correction_terms=k)
            assert mixed.tolist() == [zeta_abs_riemann_siegel([t], k)[0] for t in ts]

    def test_em_memory_bounded_near_t1000(self):
        # 8001 nodes at N up to 608: a (nodes x N) complex128 temporary would
        # be 78 MB; the kernel keeps at most DIRICHLET_BYTES (8 MiB) of rows,
        # plus a few per-node arrays, a ceiling that more nodes do not raise
        ts = 1000.0 + 0.025 * np.arange(8001)
        tracemalloc.start()
        try:
            zeta_abs_euler_maclaurin(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_em_heavy_grid_memory(self):
        # the 8001-node halved grid of an EM-heavy window (N <= 112): a block
        # stores at most pi(N/2) + floor(log2 N) = 22 rows.  A kernel that
        # stores each factor row n <= N/2 until its last reader peaks at
        # 4.9 MB here, and the walk at 3.2 MB; the bound sits between them
        cfg = ZetaEvalConfig(t_switch=200.0)
        tracemalloc.start()
        try:
            moment_integral(0.5, 200.0, 2, cfg=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0e6

    def test_rs_grid_memory(self):
        # a tail window's 20,001 Riemann-Siegel nodes at N = 27..30, in
        # chunks of 8192: a kernel that stores each factor row n <= N/2 until
        # its last reader peaks at 3.06 MB here, and the walk at 2.40 MB; the
        # bound sits between them
        tracemalloc.start()
        try:
            zeta_abs_grid(4800.0 + 0.05 * np.arange(20001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.7e6


class TestMainTerms:
    def test_ingham_at_2pi(self):
        T = 2 * math.pi
        assert ingham_main_term(T) == pytest.approx((2 * EULER_GAMMA - 1) * T)

    def test_ingham_at_2pi_e(self):
        T = 2 * math.pi * math.e
        assert ingham_main_term(T) == pytest.approx(T * 2 * EULER_GAMMA)

    def test_ingham_direct_arithmetic(self):
        expected = 1000 * math.log(1000 / (2 * math.pi)) + (2 * EULER_GAMMA - 1) * 1000
        assert ingham_main_term(1000.0) == pytest.approx(expected, rel=1e-15)

    def test_fourth_leading_at_e(self):
        assert fourth_moment_leading_term(math.e) == pytest.approx(
            math.e / (2 * math.pi**2)
        )

    def test_fourth_leading_at_e_squared(self):
        t = math.e**2
        assert fourth_moment_leading_term(t) == pytest.approx(
            16 * t / (2 * math.pi**2)
        )

    def test_fourth_leading_direct(self):
        assert fourth_moment_leading_term(1000.0) == pytest.approx(
            1000 * math.log(1000.0) ** 4 / (2 * math.pi**2), rel=1e-15
        )


class TestMomentIntegral:
    def test_second_moment_matches_main_term(self):
        est = moment_integral(0.0, 200.0, 2, convergence_check=False)
        main = ingham_main_term(200.0)
        assert abs(est.value - main) / main <= 0.10

    def test_against_independent_trapezoid(self):
        est = moment_integral(10.0, 40.0, 2, step=0.05, convergence_check=False)
        ts = np.arange(10.0, 50.0 + 1e-9, 0.025)
        oracle = trapezoid_moment(zeta_abs_grid(ts).tolist(), 0.025, 2)
        assert est.value == pytest.approx(oracle, rel=1e-4)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            moment_integral(0.0, 0.0, 2)

    def test_step_must_resolve_window(self):
        with pytest.raises(ValueError):
            moment_integral(0.0, 1.0, 2, step=0.2)

    def test_fourth_moment_converges_under_halving(self):
        est = moment_integral(1000.0, 100.0, 4, step=0.05)
        assert est.value > 0
        assert est.convergence_delta is not None
        assert est.convergence_delta < 0.005

    def test_coarse_step_flagged(self):
        est = moment_integral(100.0, 50.0, 2, step=0.5, convergence_check=False)
        assert est.coarse_step_warning

    def test_cauchy_schwarz_between_moments(self):
        i2 = moment_integral(100.0, 50.0, 2, convergence_check=False).value
        i4 = moment_integral(100.0, 50.0, 4, convergence_check=False).value
        assert i4 * 50.0 >= i2**2 * (1 - 1e-9)

    def test_thread_count_does_not_change_value(self):
        # chunks run serially, so this shows that any valid threads is accepted
        a = moment_integral(100.0, 50.0, 2, convergence_check=False, threads=1)
        b = moment_integral(100.0, 50.0, 2, convergence_check=False, threads=3)
        assert a.value == b.value


class TestNodeReuse:
    @pytest.mark.parametrize("T, H, step, nested", [
        (20.0, 50.0, 0.05, True),
        (0.0, 200.0, 0.05, True),  # the Euler-Maclaurin-heavy window
        (20.0, 1.03, 0.1, False),  # 12 intervals, halved to 24; step 0.05 would give 22
    ])
    @pytest.mark.parametrize("k", [2, 4])
    def test_each_node_evaluated_once(self, T, H, step, nested, k):
        # nested: the requested half step alone would give the halved grid
        n = zeta._simpson_intervals(H, step)
        assert (zeta._simpson_intervals(H, step / 2) == 2 * n) is nested
        calls = []

        def counting(ts, *args):
            calls.append(len(ts))
            return zeta_abs_grid(ts, *args)

        with mock.patch.object(zeta, "zeta_abs_grid", counting):
            est = moment_integral(T, H, k, step=step)
        assert calls == [2 * n + 1]
        assert repr(est) == repr(simpson_halving_estimate(T, H, k, step))

    def test_no_convergence_check_evaluates_the_full_grid(self):
        calls = []
        with mock.patch.object(zeta, "zeta_abs_grid",
                               lambda ts, *a: calls.append(len(ts)) or zeta_abs_grid(ts, *a)):
            moment_integral(20.0, 50.0, 2, step=0.05, convergence_check=False)
        assert calls == [1001]


class TestSimpsonNodeCap:
    def test_largest_documented_window_accepted(self):
        # H = 1000 at step 0.05: 40,001 nodes with the half step
        assert 2 * zeta._simpson_intervals(1000.0, 0.05) + 1 == 40_001

    def test_cap_is_reachable_and_exact(self):
        cap = zeta.SIMPSON_MAX_NODES
        assert zeta._simpson_intervals(1.0, 2.0**-20) + 1 == cap
        with pytest.raises(ValueError, match=f"more than {cap} nodes"):
            zeta._simpson_intervals(1.0, 2.0**-20 * (1 - 2.0**-52))

    def test_half_step_cap_is_exact(self):
        # n = 2^19 intervals halve to the cap's 2^20; the next even n does not fit
        cap, last, past = zeta.SIMPSON_MAX_NODES, 2.0**-19, 2.0**-19 * (1 - 2.0**-52)
        assert zeta._simpson_intervals(1.0, past) == 2**19 + 2
        calls = []

        def reached(ts, *args):
            calls.append(len(ts))
            raise AssertionError("evaluated")

        with mock.patch.object(zeta, "zeta_abs_grid", reached):
            with pytest.raises(AssertionError, match="evaluated"):
                moment_integral(10.0, 1.0, 2, step=last)
            with pytest.raises(ValueError, match=f"more than {cap} nodes at the half step"):
                moment_integral(10.0, 1.0, 2, step=past)
        assert calls == [cap]

    @pytest.mark.parametrize("convergence_check", [True, False])
    def test_half_step_grid_counted_before_evaluation(self, convergence_check):
        step = 2.0**-19 * (1 - 2.0**-52)  # its half step is just past the cap
        with mock.patch.object(zeta, "zeta_abs_grid", side_effect=AssertionError):
            if convergence_check:
                with pytest.raises(ValueError, match="nodes at the half step"):
                    moment_integral(10.0, 1.0, 2, step=step)
            else:
                with pytest.raises(AssertionError):  # accepted, then evaluated
                    moment_integral(10.0, 1.0, 2, step=step, convergence_check=False)

    def test_step_halving_to_zero_rejected_before_evaluation(self):
        # the actual step H / n is 5e-324, whose half rounds to 0, so the
        # convergence check has no half step
        H, step = 1.2735e-319, 5e-324
        assert H / zeta._simpson_intervals(H, step) == 5e-324
        with mock.patch.object(zeta, "zeta_abs_grid", side_effect=AssertionError):
            with pytest.raises(ValueError, match="halves to 0: .*--no-convergence-check"):
                moment_integral(0.0, H, 2, step=step)
        est = moment_integral(0.0, H, 2, step=step, convergence_check=False)
        assert est.halved_value is None and est.nodes > 2

    def test_smallest_halvable_step_still_checked(self):
        est = moment_integral(0.0, 1.2735e-319, 2, step=1e-323)
        assert est.halved_value is not None


class TestTailReport:
    def test_window_500(self):
        rep = tail_moment_report(500.0, 500.0)
        assert rep.e_xi == pytest.approx(1.0, abs=1e-9)
        assert rep.a > 1
        assert not rep.degenerate
        assert rep.holds
        assert rep.b == pytest.approx(COEFF_LOW * math.log(500.0) ** 2)
        assert rep.tail >= rep.a - rep.b - 1e-9
        assert rep.measure_of_set <= rep.H
        assert rep.restricted_fourth <= rep.fourth_moment * (1 + 1e-12)

    def test_second_moment_exceeds_one_at_1000(self):
        rep = tail_moment_report(1000.0, 1000.0)
        # fourth moment exceeds squared second: confirmed against a halved step
        finer = tail_moment_report(1000.0, 1000.0, step=0.025)
        assert rep.a > 1
        assert finer.a > 1
        assert rep.a == pytest.approx(finer.a, rel=5e-3)

    def test_both_threshold_coefficients_reported(self):
        rep = tail_moment_report(500.0, 200.0, step=0.1)
        assert rep.coeff_low == pytest.approx(1 / (4 * math.pi**2))
        assert rep.coeff_high == pytest.approx(1 / (2 * math.pi))
        assert rep.restricted_fourth == rep.restricted_fourth_low
        # the higher cutoff restricts harder
        assert rep.restricted_fourth_high <= rep.restricted_fourth_low
        assert rep.measure_high <= rep.measure_low <= rep.H

    def test_custom_threshold(self):
        rep = tail_moment_report(500.0, 200.0, c_threshold=COEFF_HIGH, step=0.1)
        assert rep.restricted_fourth == rep.restricted_fourth_high

    def test_small_T_rejected(self):
        with pytest.raises(ValueError):
            tail_moment_report(5.0, 100.0)

    @pytest.mark.parametrize("T, H, c", [(500.0, 500.0, None), (2500.0, 500.0, 0.1),
                                         (200.0, 200.0, COEFF_HIGH), (4000.0, 1000.0, 0.5),
                                         (100.0, 10.0, 1e9)])
    def test_restricted_sums_equal_masked_dots(self, T, H, c):
        rep = tail_moment_report(T, H, c_threshold=c)
        ts, w, _ = zeta._simpson_grid(T, H, zeta._simpson_intervals(H, 0.05))
        z = zeta_abs_grid(ts)
        z4 = (z**2) ** 2
        assert rep.fourth_moment == zeta.compensated_dot(w, z4)
        for cutoff, r4, meas in ((rep.threshold, rep.restricted_fourth, rep.measure_of_set),
                                 (COEFF_LOW * math.log(T) ** 1.5, rep.restricted_fourth_low,
                                  rep.measure_low),
                                 (COEFF_HIGH * math.log(T) ** 1.5, rep.restricted_fourth_high,
                                  rep.measure_high)):
            mask = z > cutoff
            assert r4 == math.fsum((w[mask] * z4[mask]).tolist())
            assert meas == float(np.sum(w[mask]))

    def test_restricted_fourth_never_above_the_whole(self):
        rep = tail_moment_report(500.0, 200.0, c_threshold=-1.0, step=0.1)
        assert rep.restricted_fourth == rep.fourth_moment  # every node is kept
        with pytest.raises(ValueError, match="restricted fourth moment exceeds"):
            dataclasses.replace(rep, restricted_fourth=math.nextafter(rep.fourth_moment, math.inf))

    @pytest.mark.parametrize("T, H", [(100.0, 20.0), (500.0, 100.0), (3000.0, 50.0)])
    def test_e_xi_is_the_first_moment(self, T, H):
        # e_xi is read from the distribution's mean; pow(v, 1.0) is v, so
        # the first moment is the same float
        ts, w, _ = zeta._simpson_grid(T, H, zeta._simpson_intervals(H, 0.05))
        z2 = zeta_abs_grid(ts) ** 2
        i2 = zeta.compensated_dot(w, z2)
        dist = zeta.EmpiricalDistribution(np.column_stack((H * z2 / i2, w)))
        assert dist.mean == moment(dist, 1)
        assert tail_moment_report(T, H).e_xi == dist.mean
