"""Tests for the |zeta| evaluators, moment quadrature and tail reports."""

import math
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
    EULER_GAMMA,
    ZetaEvalConfig,
    fourth_moment_leading_term,
    ingham_main_term,
    moment_integral,
    riemann_siegel_theta,
    tail_moment_report,
    zeta_abs,
    zeta_abs_euler_maclaurin,
    zeta_abs_grid,
    zeta_abs_riemann_siegel,
)

from oracles import (
    rs_main_sum_masked,
    trapezoid_moment,
    zeta_abs_em_exp_outer,
    zeta_abs_em_oracle,
    zeta_abs_eta_oracle,
)

FIRST_ZERO = 14.134725142


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

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            zeta_abs(-1.0)

    def test_grid_matches_scalar(self):
        # each value depends on its own t alone, so batching changes no bit
        ts = np.array([0.0, 10.0, 49.0, 51.0, 200.0])
        grid = zeta_abs_grid(ts)
        assert [zeta_abs(float(t)) for t in ts] == grid.tolist()

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

    @pytest.mark.parametrize("t", [0.1, 14.134725142, 77.7, 199.0])
    def test_em_against_mpmath(self, t):
        with mp.workdps(30):
            ref = float(abs(mp.zeta(mp.mpc(0.5, t))))
        assert zeta_abs_euler_maclaurin([t])[0] == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("t, N", [(0.0, 16), (3.0, 24), (150.0, 313), (1000.0, 12)])
    def test_sums_against_mpmath(self, t, N):
        with mp.workdps(30):
            s = mp.mpc(0.5, t)
            ref = complex(mp.fsum(mp.power(n, -s) for n in range(1, N + 1)))
        assert abs(zeta._dirichlet([t], N)[0] - ref) <= 1e-12

    def test_per_node_bounds(self):
        ts = np.array([5.0, 120.0, 0.3, 60.0, 7.5])
        bounds = np.array([40, 0, 1, 250, 97])
        alone = [zeta._dirichlet([t], n)[0] for t, n in zip(ts, bounds)]
        assert zeta._dirichlet(ts, bounds).tolist() == alone
        assert alone[1] == 0 and alone[2] == 1

    def test_bucket_truncation_never_below_point_rule(self):
        ts = np.linspace(0.0, 1000.0, 40001)
        N = zeta._em_terms(ts)
        assert np.all(N >= np.maximum(16, np.ceil(2 * ts) + 8))
        assert zeta._em_terms(np.array([0.5, 8.0, 8.01, 16.0])).tolist() == [24, 24, 40, 40]

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
           st.integers(1, 300))
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
        # 8001 nodes at N up to 2408: a (nodes x N) complex128 temporary would
        # be 308 MB; the kernel keeps at most DIRICHLET_BYTES (8 MiB) of rows,
        # plus a few per-node arrays, a ceiling that more nodes do not raise
        ts = 1000.0 + 0.025 * np.arange(8001)
        tracemalloc.start()
        try:
            zeta_abs_euler_maclaurin(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


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

    @pytest.mark.parametrize("T, H", [(100.0, 20.0), (500.0, 100.0), (3000.0, 50.0)])
    def test_e_xi_is_the_first_moment(self, T, H):
        # e_xi is read from the distribution's mean; pow(v, 1.0) is v, so
        # the first moment is the same float
        ts, w, _ = zeta._simpson_grid(T, H, 0.05)
        z2 = zeta_abs_grid(ts) ** 2
        i2 = zeta.compensated_dot(w, z2)
        dist = zeta.EmpiricalDistribution(np.column_stack((H * z2 / i2, w)))
        assert dist.mean == moment(dist, 1)
        assert tail_moment_report(T, H).e_xi == dist.mean
