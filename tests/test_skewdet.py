"""Tests for exact/Monte Carlo skew sign-matrix determinant statistics."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from momenttail import skewdet
from momenttail.numutil import log_factorial, to_json
from momenttail.skewdet import (
    DetStats,
    SkewSignMatrix,
    det_exact,
    det_existence_bound,
    enumerate_stats,
    mc_stats,
    pfaffian_exact,
    search_high_det,
    second_moment_det_bound,
    szekeres_s1_asym,
    szekeres_s2_asym,
)
from momenttail.skewdet import (
    BATCH_LIMIT,
    MODULAR_PRIMES,
    N_LIMIT,
    SearchResult,
    _adjugate,
    _bareiss,
    _bareiss_batch,
    _block_stats,
    _crt_basis,
    _flip_adjugate,
    _flip_det,
    _matrices,
    _modular_dets,
)

from oracles import det_cofactor


def all_plus(n, convention="zero"):
    m = n * (n - 1) // 2
    return SkewSignMatrix(n, (1,) * m, convention)


def random_signs(n, k, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(0, 2, size=(k, n * (n - 1) // 2), dtype=np.int8) * 2 - 1


def per_matrix_dets(mats):
    return [_bareiss(mat.tolist()) for mat in mats]


def batch_dets(mats):
    """Exact determinants of a (k, n, n) stack: int64 Bareiss up to BATCH_LIMIT,
    the multi-modular kernel above."""
    kernel = _bareiss_batch if mats.shape[1] <= BATCH_LIMIT else _modular_dets
    return kernel(mats).tolist()


#: flips per batched determinant call in search_reference.  A sweep usually
#: ends at its first improvement, about 20 flips in (n = 32, budget 1000: 44
#: sweeps, median 21), so batching a whole sweep of up to n(n-1)/2 flips would
#: evaluate far more matrices than the climb does.
SWEEP_CHUNK = 32


def search_reference(n, budget, seed=0, convention="zero"):
    """search_high_det by brute force: each sweep evaluates its flips as whole
    flipped matrices, in slot order and batched determinant calls, and takes
    the first that improves.  The O(1) flip evaluation must reproduce it value
    for value, evaluation count included."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    iu, ju = np.triu_indices(n, k=1)
    best_upper, best_det, evals = (), -1, 0
    while evals < budget:
        signs = rng.integers(0, 2, size=(1, len(iu)), dtype=np.int8) * 2 - 1
        mat = _matrices(n, signs, convention)[0]
        cur_det = abs(_bareiss(mat.tolist()))
        evals += 1
        if cur_det > best_det:
            best_det, best_upper = cur_det, tuple(mat[iu, ju].tolist())
        improved = True
        while improved and evals < budget:
            improved = False
            # the flips of this sweep that the budget leaves
            todo = min(len(iu), budget - evals)
            for start in range(0, todo, SWEEP_CHUNK):
                slots = np.arange(start, min(start + SWEEP_CHUNK, todo))
                mats = np.repeat(mat[None], len(slots), axis=0)
                each = np.arange(len(slots))
                mats[each, iu[slots], ju[slots]] *= -1
                mats[each, ju[slots], iu[slots]] *= -1
                dets = [abs(d) for d in batch_dets(mats)]
                better = next((f for f, d in enumerate(dets) if d > cur_det), None)
                if better is None:
                    evals += len(slots)
                    continue
                evals += better + 1
                mat, cur_det = mats[better], dets[better]
                if cur_det > best_det:
                    best_det, best_upper = cur_det, tuple(mat[iu, ju].tolist())
                improved = True
                break
    log_best = math.log(best_det) if best_det > 0 else None
    ratio_bound = 0.0 if log_best is None else math.exp(log_best - det_existence_bound(n).log)
    ratio_s1 = None
    if n % 2 == 0:
        ratio_s1 = 0.0 if log_best is None else math.exp(log_best - szekeres_s1_asym(n).log)
    return SearchResult(
        matrix=SkewSignMatrix(n, best_upper, convention),
        abs_det=best_det,
        evaluations=evals,
        ratio_to_existence_bound=ratio_bound,
        ratio_to_s1_asym=ratio_s1,
    )


def random_rows(n, convention, key):
    """Three random sign matrices of order n as row lists (non-singular unless
    the diagonal is zero and n is odd)."""
    return [mat.tolist() for mat in _matrices(n, random_signs(n, 3, key), convention)]


def flipped(rows, i, j):
    out = [row[:] for row in rows]
    out[i][j], out[j][i] = -out[i][j], -out[j][i]
    return out


def times(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def skew_hadamard_16():
    """Unit-diagonal skew sign matrix of order 16 with |det| = 16^8, the
    Hadamard bound: doubling H -> [[H, H], [-H^T, H^T]] keeps H skew-Hadamard."""
    h = np.array([[1, 1], [-1, 1]], dtype=np.int8)
    while len(h) < 16:
        h = np.block([[h, h], [-h.T, h.T]])
    return h


class TestMatrixType:
    def test_round_trip_bits(self):
        m = SkewSignMatrix.from_bits(4, 0b101011)
        assert m.upper == (1, 1, -1, 1, -1, 1)
        rows = m.to_rows()
        for i in range(4):
            assert rows[i][i] == 0
            for j in range(4):
                assert rows[i][j] == -rows[j][i]

    def test_unit_diagonal(self):
        rows = all_plus(3, "unit").to_rows()
        assert [rows[i][i] for i in range(3)] == [1, 1, 1]

    @pytest.mark.parametrize("convention, entry", [("zero", 0), ("unit", 1)])
    def test_n1_rows(self, convention, entry):
        m = SkewSignMatrix(1, (), convention)
        assert m.to_rows() == [[entry]]
        assert det_exact(m) == entry

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SkewSignMatrix(4, (1, 1, 1))

    def test_rejects_non_sign(self):
        with pytest.raises(ValueError):
            SkewSignMatrix(2, (2,))


class TestDetExact:
    def test_n2(self):
        assert det_exact(all_plus(2)) == 1

    def test_odd_skew_vanishes(self):
        for bits in range(8):
            assert det_exact(SkewSignMatrix.from_bits(3, bits)) == 0

    def test_n4_all_plus_against_cofactor(self):
        m = all_plus(4)
        assert det_exact(m) == det_cofactor(m.to_rows())

    def test_random_matrices_against_cofactor(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        for n in (4, 5, 6):
            for conv in ("zero", "unit"):
                for _ in range(10):
                    bits = int(rng.integers(0, 1 << (n * (n - 1) // 2)))
                    m = SkewSignMatrix.from_bits(n, bits, conv)
                    assert det_exact(m) == det_cofactor(m.to_rows())

    def test_pfaffian_squared_equals_det(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        for n in (2, 4, 6, 8, 10):
            for _ in range(5):
                bits = int(rng.integers(0, 1 << min(n * (n - 1) // 2, 63)))
                m = SkewSignMatrix.from_bits(n, bits)
                assert det_exact(m) == pfaffian_exact(m) ** 2

    def test_pfaffian_rejects_unit_diagonal(self):
        with pytest.raises(ValueError):
            pfaffian_exact(all_plus(4, "unit"))

    def test_relabeling_invariance(self):
        # conjugating by a permutation matrix preserves |det|
        rng = np.random.Generator(np.random.Philox(key=9))
        for _ in range(20):
            n = 6
            bits = int(rng.integers(0, 1 << 15))
            m = SkewSignMatrix.from_bits(n, bits)
            rows = m.to_rows()
            perm = rng.permutation(n)
            permuted_upper = tuple(
                rows[perm[i]][perm[j]] for i in range(n) for j in range(i + 1, n)
            )
            m2 = SkewSignMatrix(n, permuted_upper)
            assert abs(det_exact(m2)) == abs(det_exact(m))


class TestBareissBatch:
    @pytest.mark.parametrize("convention", ["zero", "unit"])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_random_blocks_match_per_matrix(self, n, convention):
        mats = _matrices(n, random_signs(n, 40, key=n), convention)
        assert _bareiss_batch(mats).tolist() == per_matrix_dets(mats)

    def test_odd_zero_diagonal_is_singular(self):
        for n in range(3, 17, 2):
            mats = _matrices(n, random_signs(n, 20, key=100 + n), "zero")
            assert _bareiss_batch(mats).tolist() == per_matrix_dets(mats) == [0] * 20

    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_singular_unit_matrices(self, n):
        mats = _matrices(n, random_signs(n, 20, key=200 + n), "unit")
        equal_rows = mats.copy()
        equal_rows[:, n - 1] = equal_rows[:, 0]
        # a zero column leaves no pivot: the dead-matrix path
        zero_column = mats.copy()
        zero_column[:, :, n // 2] = 0
        for block in (equal_rows, zero_column):
            assert _bareiss_batch(block).tolist() == per_matrix_dets(block) == [0] * 20

    def test_mixed_dead_and_live_matrices(self):
        mats = _matrices(8, random_signs(8, 30, key=300), "unit")
        mats[::3, :, 4] = 0
        dets = _bareiss_batch(mats).tolist()
        assert dets == per_matrix_dets(mats)
        assert dets[::3] == [0] * 10 and all(dets[1::3])

    def test_largest_magnitudes_at_n16(self):
        # search witnesses and the skew-Hadamard matrix (|det| = 16^8 = 2^32),
        # each under row permutations that reorder the pivots
        bases = [
            np.array(search_high_det(16, budget=300, seed=1, convention=conv).matrix.to_rows(),
                     dtype=np.int8)
            for conv in ("zero", "unit")
        ]
        hadamard = skew_hadamard_16()
        assert abs(_bareiss(hadamard.tolist())) == 16**8
        rng = np.random.Generator(np.random.Philox(key=400))
        for base in bases + [hadamard]:
            mats = np.stack([base] + [base[rng.permutation(16)] for _ in range(30)])
            dets = _bareiss_batch(mats).tolist()
            assert dets == per_matrix_dets(mats)
            assert {abs(d) for d in dets} == {abs(dets[0])}

    @pytest.mark.parametrize("n", [15, 16, 17, 18])
    @pytest.mark.parametrize("convention", ["zero", "unit"])
    def test_block_stats_across_int64_limit(self, n, convention):
        signs = random_signs(n, 300, key=500 + n)
        absdets = [abs(d) for d in per_matrix_dets(_matrices(n, signs, convention))]
        assert _block_stats(n, signs, convention) == (
            sum(absdets),
            sum(d**2 for d in absdets),
            sum(d**4 for d in absdets),
            max(absdets),
        )


def is_prime(p):
    return p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1))


class TestModularDets:
    @pytest.mark.parametrize("convention", ["zero", "unit"])
    @pytest.mark.parametrize("n, k", [(17, 40), (24, 30), (32, 20), (80, 4)])
    def test_random_stacks_match_bareiss(self, n, k, convention):
        mats = _matrices(n, random_signs(n, k, key=600 + n), convention)
        assert _modular_dets(mats).tolist() == per_matrix_dets(mats)

    @pytest.mark.parametrize("n", [17, 24])
    def test_singular_unit_matrices(self, n):
        mats = _matrices(n, random_signs(n, 20, key=700 + n), "unit")
        equal_rows = mats.copy()
        equal_rows[:, n - 1] = equal_rows[:, 3]
        zero_column = mats.copy()
        zero_column[:, :, n // 2] = 0
        for block in (equal_rows, zero_column):
            assert _modular_dets(block).tolist() == per_matrix_dets(block) == [0] * 20

    def test_odd_zero_diagonal_is_singular(self):
        for n in (17, 25, 33):
            mats = _matrices(n, random_signs(n, 10, key=800 + n), "zero")
            assert _modular_dets(mats).tolist() == [0] * 10

    def test_mixed_dead_and_live_matrices(self):
        mats = _matrices(20, random_signs(20, 30, key=900), "unit")
        mats[::3, :, 7] = 0
        dets = _modular_dets(mats).tolist()
        assert dets == per_matrix_dets(mats)
        assert dets[::3] == [0] * 10 and all(dets[1::3])

    def test_skew_hadamard_32_at_the_bound(self):
        # doubling once more gives order 32 with |det| = 32^16, exactly the
        # Hadamard bound the primes must cover
        h = skew_hadamard_16()
        h = np.block([[h, h], [-h.T, h.T]])
        rng = np.random.Generator(np.random.Philox(key=1000))
        mats = np.stack([h] + [h[rng.permutation(32)] for _ in range(15)])
        dets = _modular_dets(mats).tolist()
        assert dets == per_matrix_dets(mats)
        assert {abs(d) for d in dets} == {32**16}

    @pytest.mark.parametrize("convention", ["zero", "unit"])
    @pytest.mark.parametrize("n", [17, 24, 32])
    def test_small_primes(self, monkeypatch, n, convention):
        # residues mod 3, 5, 7, ... vanish often, so pivots swap, columns go
        # dead mod p and the CRT runs over many primes
        monkeypatch.setattr(skewdet, "MODULAR_PRIMES", tuple(filter(is_prime, range(3, 120))))
        mats = _matrices(n, random_signs(n, 30, key=1100 + n), convention)
        dets = _modular_dets(mats).tolist()
        assert dets == per_matrix_dets(mats)
        if convention == "unit" or n % 2 == 0:
            # some non-singular matrix is singular mod 3
            assert any(d % 3 == 0 and d != 0 for d in dets)

    def test_prime_list(self):
        assert len(set(MODULAR_PRIMES)) == len(MODULAR_PRIMES)
        for p in MODULAR_PRIMES:
            assert 2 < p < 2**26 and is_prime(p)

    @pytest.mark.parametrize("n", range(17, N_LIMIT + 1))
    def test_primes_cover_hadamard_bound(self, n):
        primes, modulus, weights = _crt_basis(n)
        assert primes == list(MODULAR_PRIMES[: len(primes)])
        assert modulus == math.prod(primes)
        # M > 2 n^(n/2), and no shorter prefix would do
        assert modulus**2 > 4 * n**n >= (modulus // primes[-1]) ** 2
        for p, w in zip(primes, weights):
            assert [w % q for q in primes] == [int(q == p) for q in primes]

    def test_prime_counts(self):
        assert [len(_crt_basis(n)[0]) for n in (17, 32, 80)] == [2, 4, 10]

    def test_uncovered_bound_rejected(self, monkeypatch):
        monkeypatch.setattr(skewdet, "MODULAR_PRIMES", MODULAR_PRIMES[:3])
        with pytest.raises(ValueError, match="n = 32"):
            _crt_basis(32)

    def test_block_stats_over_many_sub_blocks(self, monkeypatch):
        # 7 matrices per _modular_dets call: 300 sign vectors take 43 calls
        monkeypatch.setattr(skewdet, "MODULAR_BYTES", 8 * 24 * 24 * 7)
        signs = random_signs(24, 300, key=1200)
        absdets = [abs(d) for d in per_matrix_dets(_matrices(24, signs, "unit"))]
        assert _block_stats(24, signs, "unit") == (
            sum(absdets),
            sum(d**2 for d in absdets),
            sum(d**4 for d in absdets),
            max(absdets),
        )


class TestEnumeration:
    def test_n2(self):
        st = enumerate_stats(2)
        assert st.count == 2
        assert st.s1 == st.s2 == 1.0
        assert st.max_abs_det == 1

    def test_n3_zero_diagonal(self):
        st = enumerate_stats(3)
        assert st.s1 == st.s2 == 0.0
        assert st.max_abs_det == 0

    def test_n4_spot_checked_by_cofactor(self):
        st = enumerate_stats(4)
        assert st.count == 64
        # recompute three arbitrary members independently
        for bits in (0, 21, 63):
            m = SkewSignMatrix.from_bits(4, bits)
            assert det_exact(m) == det_cofactor(m.to_rows())
        # dets are Pf^2 with Pf = x - y + z over independent signs:
        # |det| = 9 on a quarter of the space, 1 elsewhere
        assert st.sum_absdet == 16 * 9 + 48 * 1
        assert st.sum_det2 == 16 * 81 + 48 * 1
        assert st.max_abs_det == 9
        assert st.s1 == pytest.approx(3.0)
        assert st.s2 == pytest.approx(math.sqrt(21.0))

    @pytest.mark.parametrize("convention, det", [("zero", 0), ("unit", 1)])
    def test_n1(self, convention, det):
        st = enumerate_stats(1, convention)
        assert st.count == 1
        assert st.sum_absdet == st.sum_det2 == st.max_abs_det == det
        assert st.s1 == st.s2 == det

    @pytest.mark.parametrize("convention", ["zero", "unit"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_per_matrix_loop(self, n, convention):
        dets = [
            det_exact(SkewSignMatrix.from_bits(n, bits, convention))
            for bits in range(1 << (n * (n - 1) // 2))
        ]
        st = enumerate_stats(n, convention)
        assert st.count == len(dets)
        assert st.sum_absdet == sum(abs(d) for d in dets)
        assert st.sum_det2 == sum(d * d for d in dets)
        assert st.max_abs_det == max(abs(d) for d in dets)

    @pytest.mark.parametrize("convention", ["zero", "unit"])
    def test_reduced_walk_matches_full_walk(self, convention):
        # every sign vector of n = 6, bit i -> slot i, with no symmetry reduction
        bits = np.arange(1 << 15)[:, None] >> np.arange(15)
        full = _block_stats(6, (bits & 1).astype(np.int8) * 2 - 1, convention)
        st = enumerate_stats(6, convention)
        assert st.count == 1 << 15
        assert (st.sum_absdet, st.sum_det2, st.max_abs_det) == (full[0], full[1], full[3])

    def test_n7_zero_diagonal(self):
        st = enumerate_stats(7, "zero")
        assert st.count == 1 << 21
        assert st.sum_absdet == st.sum_det2 == st.max_abs_det == 0

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_zero_diagonal_mean_is_double_factorial(self, n):
        # E|det| = E Pf^2 = (n-1)!! for independent uniform signs
        st = enumerate_stats(n, "zero")
        assert st.sum_absdet == st.count * math.prod(range(n - 1, 0, -2))

    def test_guard_redirects_to_mc(self):
        with pytest.raises(ValueError, match="mc_stats"):
            enumerate_stats(9)

    def test_power_mean_holds(self):
        for n in (2, 4, 5, 6):
            st = enumerate_stats(n, "unit")
            assert st.s2 >= st.s1 * (1 - 1e-12)


class TestMonteCarlo:
    def test_n2_is_constant(self):
        st = mc_stats(2, 200, seed=1)
        assert st.s1 == 1.0
        assert st.s2 == 1.0
        assert st.stderr_s1 == 0.0

    def test_matches_enumeration_within_4_sigma(self):
        exact = enumerate_stats(6)
        mc = mc_stats(6, 20_000, seed=42)
        assert abs(mc.s1 - exact.s1) <= 4 * mc.stderr_s1
        assert abs(mc.s2 - exact.s2) <= 4 * mc.stderr_s2

    def test_disjoint_seeds_agree(self):
        a = mc_stats(10, 5_000, seed=101)
        b = mc_stats(10, 5_000, seed=202)
        assert abs(a.s1 - b.s1) <= 4 * math.hypot(a.stderr_s1, b.stderr_s1)
        assert abs(a.s2 - b.s2) <= 4 * math.hypot(a.stderr_s2, b.stderr_s2)

    def test_deterministic_across_threads(self):
        one = mc_stats(6, 9_000, seed=5, threads=1)
        four = mc_stats(6, 9_000, seed=5, threads=4)
        assert one == four

    def test_runs_chunks_without_a_pool(self, monkeypatch):
        # every chunk runs in the calling thread, also at threads=2
        chunk, callers = skewdet._mc_chunk, set()

        def recording_chunk(*args):
            callers.add(threading.get_ident())
            return chunk(*args)

        monkeypatch.setattr(skewdet, "_mc_chunk", recording_chunk)
        assert mc_stats(6, 9_000, seed=5, threads=2) == mc_stats(6, 9_000, seed=5)
        assert callers == {threading.get_ident()}

    def test_memory_bounded_at_n_limit(self):
        # 100 samples at n = 80 run as five _modular_dets calls of 20 matrices:
        # the peak is one call's stack and scratch (2 x MODULAR_BYTES) plus the
        # chunk's sign draws, a ceiling that more samples do not raise
        tracemalloc.start()
        try:
            mc_stats(N_LIMIT, 100, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_bad_threads_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            mc_stats(6, 100, threads=0)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_stats(4, 99)

    @pytest.mark.parametrize("convention, det", [("zero", 0), ("unit", 1)])
    def test_n1_is_constant(self, convention, det):
        st = mc_stats(1, 150, seed=3, convention=convention)
        assert st.sum_absdet == st.sum_det2 == 150 * det
        assert st.max_abs_det == det
        assert st.stderr_s1 == st.stderr_s2 == 0.0


class TestAsymptotics:
    def test_s1_log_self_consistency(self):
        for n in (6, 20, 100):
            expected = (
                -0.25 * math.log(8 * math.pi * math.e * n)
                + math.sqrt(n)
                + 0.5 * log_factorial(n)
            )
            assert szekeres_s1_asym(n).log == pytest.approx(expected, rel=1e-12)

    def test_s2_log_self_consistency(self):
        for n in (6, 20, 100):
            expected = (
                -0.5 * math.log(32 * math.pi * math.e**3)
                + 2 * math.sqrt(n)
                + 0.5 * log_factorial(n)
            )
            assert szekeres_s2_asym(n).log == pytest.approx(expected, rel=1e-12)

    def test_finite_log_at_n100(self):
        assert math.isfinite(szekeres_s1_asym(100).log)
        assert math.isfinite(szekeres_s2_asym(100).log)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            szekeres_s1_asym(5)

    def test_ratio_to_enumeration_is_recorded_not_asserted(self):
        # asymptotic-only relation: just confirm it is a sane positive ratio
        exact = enumerate_stats(6)
        ratio = exact.s1 / szekeres_s1_asym(6).value
        assert 0 < ratio < 10


class TestExistenceBound:
    def test_n4_direct_arithmetic(self):
        expected = (4 / (64 * math.pi * math.e**5)) ** 0.25 * math.e**2 * math.sqrt(24)
        assert det_existence_bound(4).value == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_n(self):
        logs = [det_existence_bound(n).log for n in range(2, 40)]
        assert all(a < b for a, b in zip(logs, logs[1:]))

    def test_log_vs_direct_evaluation(self):
        for n in range(2, 31):
            direct = (
                (n / (64 * math.pi * math.e**5)) ** 0.25
                * math.exp(math.sqrt(n))
                * math.sqrt(math.factorial(n))
            )
            assert det_existence_bound(n).value == pytest.approx(direct, rel=1e-12)


class TestSecondMomentBound:
    def test_n2(self):
        st = enumerate_stats(2)
        assert second_moment_det_bound(st) == pytest.approx(1.0)
        assert st.max_abs_det >= 1

    @pytest.mark.parametrize("n", [4, 6])
    def test_enumerated_bound_met(self, n):
        st = enumerate_stats(n)
        bound = second_moment_det_bound(st)
        assert st.max_abs_det >= bound * (1 - 1e-6)
        # exact rational form: max * sum|det| >= sum det^2
        assert st.max_abs_det * st.sum_absdet >= st.sum_det2

    def test_degenerate_ensemble_rejected(self):
        st = enumerate_stats(3)
        with pytest.raises(ValueError):
            second_moment_det_bound(st)


class TestSearch:
    def test_n2_immediate(self):
        res = search_high_det(2, budget=1, seed=0)
        assert res.abs_det == 1

    def test_n4_reaches_enumerated_max(self):
        exact = enumerate_stats(4)
        res = search_high_det(4, budget=200, seed=3)
        assert res.abs_det == exact.max_abs_det

    def test_budget_monotonicity(self):
        bests = [search_high_det(6, budget=b, seed=11).abs_det for b in (5, 40, 200, 800)]
        assert all(x <= y for x, y in zip(bests, bests[1:]))

    def test_deterministic_for_seed(self):
        a = search_high_det(8, budget=300, seed=21)
        b = search_high_det(8, budget=300, seed=21)
        assert a == b

    def test_ratios_populated(self):
        res = search_high_det(6, budget=300, seed=2)
        assert res.ratio_to_existence_bound > 0
        assert res.ratio_to_s1_asym is not None and res.ratio_to_s1_asym > 0


class TestFlipUpdates:
    """The O(1) flip determinant and the O(n^2) adjugate update of search."""

    CASES = [(n, "zero") for n in range(2, 21, 2)] + [(n, "unit") for n in range(2, 21)]

    @pytest.mark.parametrize("n, convention", CASES)
    def test_adjugate(self, n, convention):
        for rows in random_rows(n, convention, [n, 7]):
            det, adj = _adjugate(rows)
            assert det != 0
            identity = [[det * (i == j) for j in range(n)] for i in range(n)]
            assert times(rows, adj) == identity
            assert times(adj, rows) == identity

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_adjugate_against_cofactors(self, n):
        for rows in random_rows(n, "unit", [n, 8]):
            cofactor = [
                [(-1) ** (i + j) * det_cofactor([r[:j] + r[j + 1:] for k, r in enumerate(rows)
                                                 if k != i])
                 for j in range(n)]
                for i in range(n)
            ]
            assert _adjugate(rows)[1] == [list(col) for col in zip(*cofactor)]

    @pytest.mark.parametrize("n, convention",
                             [(n, "zero") for n in range(2, 33, 2)]
                             + [(n, "unit") for n in range(2, 33)])
    def test_adjugate_det_matches_bareiss(self, n, convention):
        # search takes its start determinant from _adjugate's last pivot
        for rows in random_rows(n, convention, [n, 14]):
            assert _adjugate(rows)[0] == _bareiss(rows)

    def test_adjugate_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            _adjugate(all_plus(5).to_rows())

    @pytest.mark.parametrize("n, convention", CASES)
    def test_every_flip_det_matches_bareiss(self, n, convention):
        for rows in random_rows(n, convention, [n, 9]):
            det, adj = _adjugate(rows)
            for i in range(n):
                for j in range(i + 1, n):
                    expected = _bareiss(flipped(rows, i, j))
                    assert _flip_det(det, adj, i, j, rows[i][j]) == expected

    @pytest.mark.parametrize("n, convention", CASES)
    def test_flip_adjugate_matches_fresh_adjugate(self, n, convention):
        rows = random_rows(n, convention, [n, 10])[0]
        det, adj = _adjugate(rows)
        for i in range(n):
            for j in range(i + 1, n):
                new_rows = flipped(rows, i, j)
                new_det = _bareiss(new_rows)
                new_adj = _flip_adjugate(det, new_det, adj, i, j, rows[i][j])
                assert _adjugate(new_rows) == (new_det, new_adj)

    def test_flip_updates_chain_along_a_climb(self):
        # many accepted flips in a row keep (det, adj) exact at n = 24
        n = 24
        rows = random_rows(n, "zero", [n, 11])[0]
        det, adj = _adjugate(rows)
        rng = np.random.Generator(np.random.Philox(key=[n, 12]))
        for _ in range(40):
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            new_det = _flip_det(det, adj, i, j, rows[i][j])
            adj = _flip_adjugate(det, new_det, adj, i, j, rows[i][j])
            rows, det = flipped(rows, i, j), new_det
        assert det == _bareiss(rows)
        assert _adjugate(rows) == (det, adj)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_singular_only_for_odd_zero_diagonal(self, n):
        # the D = 0 fallback of search is exactly the odd-n zero-diagonal case:
        # an even-n zero-diagonal det is Pf^2 with Pf a sum of (n-1)!! terms +-1
        # (odd), and a unit-diagonal det is prod(1 + mu^2) >= 1
        signs = random_signs(n, 64, [n, 13])
        zero = _bareiss_batch(_matrices(n, signs, "zero"))
        unit = _bareiss_batch(_matrices(n, signs, "unit"))
        assert (unit >= 1).all()
        assert (zero == 0).all() if n % 2 else (zero % 2 == 1).all()


class TestSearchMatchesReference:
    """search_high_det against the one-_bareiss-per-flip reference climb,
    including budgets that stop mid-sweep and the D = 0 path at odd n."""

    @pytest.mark.parametrize("convention", ["zero", "unit"])
    @pytest.mark.parametrize("n", [*range(2, 21), 24, 32])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equal_results(self, n, convention, seed):
        for budget in (1, 7, 100, 1000):
            expected = search_reference(n, budget, seed=seed, convention=convention)
            assert search_high_det(n, budget, seed=seed, convention=convention) == expected

    @pytest.mark.parametrize("n", [3, 5, 7, 11])
    def test_odd_zero_diagonal_evaluates_every_flip(self, n):
        res = search_high_det(n, 500, seed=4)
        assert res.abs_det == 0 and res.evaluations == 500
        assert res == search_reference(n, 500, seed=4)


class TestStatsType:
    def test_power_mean_enforced(self):
        with pytest.raises(ValueError):
            DetStats(
                n=4, mode="exact", convention="zero", count=4,
                s1=2.0, s2=1.0, sum_absdet=8, sum_det2=4, max_abs_det=3,
            )

    def test_json_uses_decimal_strings(self):
        st = enumerate_stats(4)
        payload = to_json(st)
        assert payload["sum_det2"] == str(st.sum_det2)
        assert isinstance(payload["max_abs_det"], str)
