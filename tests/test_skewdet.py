"""Tests for exact/Monte Carlo skew sign-matrix determinant statistics."""

import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from momenttail import skewdet
from momenttail.moments import TheoremViolationError
from momenttail.numutil import log_factorial, to_json
from momenttail.skewdet import (
    DetStats,
    SkewSignMatrix,
    det_existence_bound,
    enumerate_stats,
    mc_stats,
    search_high_det,
    second_moment_det_bound,
    szekeres_s1_asym,
    szekeres_s2_asym,
)
from momenttail.skewdet import (
    BATCH_LIMIT,
    CLIMB_LIMIT,
    MC_CHUNK,
    MODULAR_PRIMES,
    N_LIMIT,
    PFAFFIAN_LIMIT,
    SearchResult,
    _adjugate,
    _bareiss_batch,
    _block_stats,
    _crt,
    _crt_basis,
    _flip_adjugate,
    _flip_det,
    _matrices,
    _modular_dets,
    _pf_mod,
    _pfaffian_batch,
    _pfaffian_flip,
    _pfaffian_start,
    _pfaffians,
    _row_starts,
)

from oracles import (
    det_bareiss,
    det_cofactor,
    det_exact,
    pfaffian_exact,
    skew_from_bits,
    sqrt_nearest,
)


def all_plus(n, convention="zero"):
    m = n * (n - 1) // 2
    return SkewSignMatrix(n, (1,) * m, convention)


def random_signs(n, k, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(0, 2, size=(k, n * (n - 1) // 2), dtype=np.int8) * 2 - 1


def unreachable(*args, **kwargs):
    raise AssertionError("these inputs decide the result without this call")


def per_matrix_dets(mats):
    return [det_bareiss(mat.tolist()) for mat in mats]


def batch_dets(mats):
    """Exact determinants of a (k, n, n) stack: int64 Bareiss for unit-diagonal
    stacks up to BATCH_LIMIT, the multi-modular kernel for every other stack."""
    unit = (np.diagonal(mats, axis1=1, axis2=2) == 1).all()
    kernel = _bareiss_batch if unit and mats.shape[1] <= BATCH_LIMIT else _modular_dets
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
    key = np.array([seed, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    iu, ju = np.triu_indices(n, k=1)
    best_upper, best_det, evals = (), -1, 0
    while evals < budget:
        signs = rng.integers(0, 2, size=(1, len(iu)), dtype=np.int8) * 2 - 1
        mat = _matrices(n, signs, convention)[0]
        cur_det = abs(det_bareiss(mat.tolist()))
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


def upper_signs(rows):
    """Packed upper-triangle signs of a matrix given as rows."""
    iu, ju = np.triu_indices(len(rows), k=1)
    return np.array(rows, dtype=np.int8)[iu, ju]


def pfaffian_state(rows):
    """(Pf A, C) of a zero-diagonal matrix of even order, as a climb starts."""
    return _pfaffian_start(len(rows), upper_signs(rows))


def start_det_adj(rows, convention):
    """(det A, adj A) as row lists from the start state of a climb."""
    if convention == "unit":
        return _adjugate(rows)
    pf, cof = pfaffian_state(rows)
    return pf * pf, (pf * cof).tolist()


def assert_same_state(got, want):
    assert got[0] == want[0]
    assert got[1].dtype == want[1].dtype
    assert got[1].tolist() == want[1].tolist()


def skew_hadamard_16():
    """Unit-diagonal skew sign matrix of order 16 with |det| = 16^8, the
    Hadamard bound: doubling H -> [[H, H], [-H^T, H^T]] keeps H skew-Hadamard."""
    h = np.array([[1, 1], [-1, 1]], dtype=np.int8)
    while len(h) < 16:
        h = np.block([[h, h], [-h.T, h.T]])
    return h


class TestMatrixType:
    def test_round_trip_bits(self):
        m = skew_from_bits(4, 0b101011)
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
            assert det_exact(skew_from_bits(3, bits)) == 0

    def test_n4_all_plus_against_cofactor(self):
        m = all_plus(4)
        assert det_exact(m) == det_cofactor(m.to_rows())

    def test_random_matrices_against_cofactor(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        for n in (4, 5, 6):
            for conv in ("zero", "unit"):
                for _ in range(10):
                    bits = int(rng.integers(0, 1 << (n * (n - 1) // 2)))
                    m = skew_from_bits(n, bits, conv)
                    assert det_exact(m) == det_cofactor(m.to_rows())

    def test_pfaffian_squared_equals_det(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        for n in (2, 4, 6, 8, 10):
            for _ in range(5):
                bits = int(rng.integers(0, 1 << min(n * (n - 1) // 2, 63)))
                m = skew_from_bits(n, bits)
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
            m = skew_from_bits(n, bits)
            rows = m.to_rows()
            perm = rng.permutation(n)
            permuted_upper = tuple(
                rows[perm[i]][perm[j]] for i in range(n) for j in range(i + 1, n)
            )
            m2 = SkewSignMatrix(n, permuted_upper)
            assert abs(det_exact(m2)) == abs(det_exact(m))


class TestBareissBatch:
    """Batched determinants up to BATCH_LIMIT: unit-diagonal skew-type stacks,
    the only ones _block_stats sends to _bareiss_batch, and every other stack
    through _modular_dets, whose zero pivots (every zero-diagonal matrix has
    one at step 0) take a later row added."""

    @pytest.mark.parametrize("convention", ["zero", "unit"])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_random_blocks_match_per_matrix(self, n, convention):
        mats = _matrices(n, random_signs(n, 40, key=n), convention)
        kernel = _bareiss_batch if convention == "unit" else _modular_dets
        assert kernel(mats).tolist() == per_matrix_dets(mats)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_unit_pivots_are_positive(self, n):
        # _bareiss_batch's pivots are the leading minors det(I + S_c) >= 1
        for mat in _matrices(n, random_signs(n, 20, key=[n, 15]), "unit"):
            assert all(det_bareiss(mat[:c, :c].tolist()) >= 1 for c in range(1, n + 1))

    def test_odd_zero_diagonal_is_singular(self):
        for n in range(3, 17, 2):
            mats = _matrices(n, random_signs(n, 20, key=100 + n), "zero")
            assert _modular_dets(mats).tolist() == per_matrix_dets(mats) == [0] * 20

    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_singular_unit_matrices(self, n):
        mats = _matrices(n, random_signs(n, 20, key=200 + n), "unit")
        equal_rows = mats.copy()
        equal_rows[:, n - 1] = equal_rows[:, 0]
        # a zero column leaves no pivot: the dead-matrix path
        zero_column = mats.copy()
        zero_column[:, :, n // 2] = 0
        for block in (equal_rows, zero_column):
            assert _modular_dets(block).tolist() == per_matrix_dets(block) == [0] * 20

    def test_mixed_dead_and_live_matrices(self):
        mats = _matrices(8, random_signs(8, 30, key=300), "unit")
        mats[::3, :, 4] = 0
        dets = _modular_dets(mats).tolist()
        assert dets == per_matrix_dets(mats)
        assert dets[::3] == [0] * 10 and all(dets[1::3])

    def test_largest_magnitudes_at_n16(self):
        # search witnesses and the skew-Hadamard matrix (|det| = 16^8 = 2^32):
        # the unit-diagonal ones under symmetric permutations P A P^T, which
        # keep the unit diagonal and reorder the pivots, through _bareiss_batch;
        # the zero-diagonal one under row permutations through _modular_dets
        zero, unit = (
            np.array(search_high_det(16, budget=300, seed=1, convention=conv).matrix.to_rows(),
                     dtype=np.int8)
            for conv in ("zero", "unit")
        )
        hadamard = skew_hadamard_16()
        assert abs(det_bareiss(hadamard.tolist())) == 16**8
        rng = np.random.Generator(np.random.Philox(key=400))
        for base in (zero, unit, hadamard):
            perms = [rng.permutation(16) for _ in range(30)]
            if base is zero:
                kernel, mats = _modular_dets, [base[p] for p in perms]
            else:
                kernel, mats = _bareiss_batch, [base[p][:, p] for p in perms]
            mats = np.stack([base] + mats)
            dets = kernel(mats).tolist()
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
        primes, modulus, weights = _crt_basis(n, 2)
        assert primes == list(MODULAR_PRIMES[: len(primes)])
        assert modulus == math.prod(primes)
        # M > 2 n^(n/2), and no shorter prefix would do
        assert modulus**2 > 4 * n**n >= (modulus // primes[-1]) ** 2
        for p, w in zip(primes, weights):
            assert [w % q for q in primes] == [int(q == p) for q in primes]

    def test_prime_counts(self):
        assert [len(_crt_basis(n, 2)[0]) for n in (17, 32, 80)] == [2, 4, 10]

    def test_uncovered_bound_rejected(self, monkeypatch):
        monkeypatch.setattr(skewdet, "MODULAR_PRIMES", MODULAR_PRIMES[:3])
        with pytest.raises(ValueError, match="n = 32"):
            _crt_basis(32, 2)

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


def packed(signs):
    """The packed (m, k) int64 stack of a (k, m) sign block."""
    return np.ascontiguousarray(signs.T, dtype=np.int64)


def gf27_mul(x, y):
    """Product in GF(27) = GF(3)[t] / (t^3 - t + 1), elements as base-3 digits."""
    px = [x // 3**i % 3 for i in range(3)]
    py = [y // 3**i % 3 for i in range(3)]
    prod = [0] * 5
    for i in range(3):
        for j in range(3):
            prod[i + j] += px[i] * py[j]
    for d in (4, 3):  # t^d = t^(d-2) - t^(d-3)
        prod[d - 2] += prod[d]
        prod[d - 3] -= prod[d]
    return sum(prod[i] % 3 * 3**i for i in range(3))


def gf27_sub(x, y):
    return sum((x // 3**i - y // 3**i) % 3 * 3**i for i in range(3))


def paley_skew(q):
    """Sign block of the Paley skew conference matrix of order q + 1, q = 3 mod 4
    a prime or 27: zero diagonal, C C^T = q I, so |Pf| = q^((q+1)/4), the
    Hadamard bound (n-1)^(n/4) of a zero-diagonal +-1 matrix of order n."""
    if q == 27:
        mul, sub = gf27_mul, gf27_sub
    else:
        mul, sub = (lambda x, y: x * y % q), (lambda x, y: (x - y) % q)
    squares = {mul(x, x) for x in range(1, q)}
    c = np.zeros((q + 1, q + 1), dtype=np.int8)
    c[0, 1:], c[1:, 0] = 1, -1
    for i in range(q):
        for j in range(q):
            if i != j:
                c[1 + i, 1 + j] = 1 if sub(j, i) in squares else -1
    assert (c == -c.T).all()
    assert (c.astype(np.int64) @ c.T == q * np.eye(q + 1, dtype=np.int64)).all()
    return c


class TestPfaffians:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_signed_pfaffian_matches_expansion(self, n):
        signs = random_signs(n, 30, key=1300 + n)
        expected = [pfaffian_exact(SkewSignMatrix(n, tuple(s))) for s in signs.tolist()]
        assert _pfaffians(n, signs).tolist() == expected

    @pytest.mark.parametrize("n", [*range(2, PFAFFIAN_LIMIT + 1, 2), 30, 32, 48, 80])
    def test_squares_match_bareiss(self, n):
        signs = random_signs(n, 4 if n == 80 else 20, key=1400 + n)
        pfs = _pfaffians(n, signs).tolist()
        assert [pf * pf for pf in pfs] == per_matrix_dets(_matrices(n, signs, "zero"))

    @pytest.mark.parametrize("n", [4, 12, 20, 28])
    def test_modular_route_keeps_the_sign(self, n):
        signs = random_signs(n, 30, key=1500 + n)
        assert _crt(n, signs.T, _pf_mod, 4).tolist() == _pfaffians(n, signs).tolist()

    @pytest.mark.parametrize("n", [8, 16, PFAFFIAN_LIMIT])
    def test_int64_pivots_are_odd_leading_pfaffians(self, n):
        signs = random_signs(n, 200, key=1600 + n)
        stack = packed(signs)
        _pfaffian_batch(stack)
        starts = _row_starts(n)
        pivots = stack[[starts[c] for c in range(0, n, 2)]]
        assert (pivots % 2 == 1).all()
        # pivot s is the Pfaffian of the leading block of order 2s + 2
        iu, ju = np.triu_indices(n, k=1)
        for order in range(2, min(n, 10) + 1, 2):
            lead = signs[:10, (iu < order) & (ju < order)].tolist()
            assert pivots[order // 2 - 1, :10].tolist() == [
                pfaffian_exact(SkewSignMatrix(order, tuple(s))) for s in lead
            ]

    @pytest.mark.parametrize("q", [23, 27, 31])
    def test_paley_matrices_reach_the_hadamard_bound(self, q):
        # n = 24 and n = 28 = PFAFFIAN_LIMIT on the int64 route, where 27^7 is
        # the largest Pfaffian it must hold; n = 32 on the modular route.  Each
        # under symmetric permutations, which reorder every pivot.
        c = paley_skew(q)
        n = q + 1
        rng = np.random.Generator(np.random.Philox(key=1700 + q))
        mats = [c] + [c[np.ix_(perm, perm)] for perm in (rng.permutation(n) for _ in range(15))]
        iu, ju = np.triu_indices(n, k=1)
        signs = np.stack([mat[iu, ju] for mat in mats])
        pfs = _pfaffians(n, signs).tolist()
        assert {abs(pf) for pf in pfs} == {q ** (n // 4)}
        assert [pf * pf for pf in pfs[:4]] == per_matrix_dets(np.stack(mats[:4]))

    def test_int64_overflows_past_the_limit(self):
        # order 30 with the Paley matrix C of order 28 on both 0..27 and
        # 0..25, 28, 29: the last update multiplies two Pfaffians of order 28,
        # 27^14 > 2^63, so int64 wraps, and the modular route is needed
        c = paley_skew(27)
        n = PFAFFIAN_LIMIT + 2
        rng = np.random.Generator(np.random.Philox(key=1750))
        iu, ju = np.triu_indices(n, k=1)
        blocks = []
        for _ in range(8):
            mat = np.zeros((n, n), dtype=np.int8)
            mat[:28, :28] = c
            mat[:26, 28:] = c[:26, 26:28]
            mat[28, 29] = c[26, 27]
            mat[26:28, 28:] = rng.integers(0, 2, size=(2, 2)) * 2 - 1
            mat[28:, :28] = -mat[:28, 28:].T
            mat[29, 28] = -mat[28, 29]
            blocks.append(mat[iu, ju])
        signs = np.stack(blocks)
        dets = per_matrix_dets(_matrices(n, signs, "zero"))
        assert [pf * pf for pf in _pfaffians(n, signs).tolist()] == dets
        assert [pf * pf for pf in _pfaffian_batch(packed(signs)).tolist()] != dets

    @pytest.mark.parametrize("n", [30, 32])
    def test_small_primes(self, monkeypatch, n):
        # residues mod 3, 5, 7, ... vanish often, so pivots need fixing, rows
        # go dead mod p and the CRT runs over many primes
        monkeypatch.setattr(skewdet, "MODULAR_PRIMES", tuple(filter(is_prime, range(3, 120))))
        signs = random_signs(n, 30, key=1800 + n)
        pfs = _pfaffians(n, signs).tolist()
        assert [pf * pf for pf in pfs] == per_matrix_dets(_matrices(n, signs, "zero"))
        assert any(pf % 3 == 0 for pf in pfs)

    def test_zero_pivots_and_dead_rows_mod_3(self):
        # the int64 route's pivots are the leading Pfaffians: where one is
        # 0 mod 3 the modular kernel must fix the pivot, and where Pf is 0 mod 3
        # some row goes dead
        n = 24
        signs = random_signs(n, 60, key=1900)
        stack = packed(signs)
        pfs = _pfaffian_batch(stack).tolist()
        starts = _row_starts(n)
        pivots = stack[[starts[c] for c in range(0, n - 2, 2)]]
        fixed = (pivots % 3 == 0).any(axis=0) & (np.array(pfs) % 3 != 0)
        assert fixed.any() and any(pf % 3 == 0 for pf in pfs)
        residues = _pf_mod(signs.T.astype(float), np.empty((n - 1) ** 2 * 60), 3)
        assert residues == [pf % 3 for pf in pfs]

    @pytest.mark.parametrize("n", [PFAFFIAN_LIMIT, PFAFFIAN_LIMIT + 2])
    def test_block_stats_over_many_sub_blocks(self, monkeypatch, n):
        # 7 matrices per modular call at n = 30: 100 sign vectors take 15 calls
        monkeypatch.setattr(skewdet, "MODULAR_BYTES", 8 * 30 * 30 * 7)
        signs = random_signs(n, 100, key=2000 + n)
        absdets = [abs(d) for d in per_matrix_dets(_matrices(n, signs, "zero"))]
        assert _block_stats(n, signs, "zero") == (
            sum(absdets),
            sum(d**2 for d in absdets),
            sum(d**4 for d in absdets),
            max(absdets),
        )

    def test_odd_zero_diagonal_builds_nothing(self, monkeypatch):
        for name in ("_matrices", "_pfaffians", "_bareiss_batch", "_modular_dets"):
            monkeypatch.setattr(skewdet, name, unreachable)
        for n in (1, 3, 15, 17, 79):
            assert _block_stats(n, random_signs(n, 5, key=2100 + n), "zero") == (0, 0, 0, 0)
        st = mc_stats(15, 1000, seed=3)
        assert st.sum_absdet == st.sum_det2 == st.max_abs_det == 0

    @pytest.mark.parametrize("n", range(PFAFFIAN_LIMIT + 2, N_LIMIT + 1, 2))
    def test_primes_cover_pfaffian_bound(self, n):
        primes, modulus, _ = _crt_basis(n, 4)
        # M > 2 n^(n/4), and no shorter prefix would do
        assert modulus**4 > 16 * n**n >= (modulus // primes[-1]) ** 4

    def test_prime_counts(self):
        # half the primes of the determinant route
        assert [len(_crt_basis(n, 4)[0]) for n in (30, 32, 48, 80)] == [2, 2, 3, 5]

    def test_memory_at_n32_below_det_route(self):
        # the packed stack is half the (n, n, k) stack of the determinant
        # route, whose mc_stats(32, 100) peaked at 1.98 MiB
        tracemalloc.start()
        try:
            mc_stats(32, 100, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.98 * 2**20


def _stats(**changes):
    fields = {"n": 2, "mode": "exact", "convention": "zero", "count": 2, "s1": 1.0, "s2": 1.0,
              "sum_absdet": 2, "sum_det2": 2, "max_abs_det": 1}
    return DetStats(**{**fields, **changes})


@pytest.mark.parametrize("call, message", [
    (lambda: SkewSignMatrix(0, ()), "n must be positive"),
    (lambda: _stats(mode="sampled"), "mode must be 'exact' or 'monte-carlo'"),
    (lambda: enumerate_stats(0), "n must be positive"),
    (lambda: mc_stats(0, 100), "n must be positive"),
    (lambda: det_existence_bound(1), "n must be at least 2"),
    (lambda: search_high_det(1, 10), "n must be at least 2"),
    (lambda: search_high_det(4, 0), "budget must be at least 1"),
], ids=["matrix-n0", "stats-mode", "enum-n0", "mc-n0", "existence-n1", "search-n1",
        "search-budget-0"])
def test_guard_rejects(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("n", [1, 3, 5])
def test_pfaffian_of_odd_order_is_zero(n):
    m = skew_from_bits(n, 0)
    assert pfaffian_exact(m) == det_exact(m) == 0


class TestUpFrontChecks:
    """A bad convention is rejected before any sign is drawn."""

    @pytest.mark.parametrize("call", [
        lambda: mc_stats(10, 100, convention="bogus"),
        lambda: enumerate_stats(4, "bogus"),
        lambda: search_high_det(6, 50, convention="bogus"),
    ], ids=["mc", "enum", "search"])
    def test_unknown_convention_rejected_before_drawing(self, monkeypatch, call):
        for name in ("_mc_chunk", "_enum_chunk", "_matrices", "_block_stats"):
            monkeypatch.setattr(skewdet, name, unreachable)
        monkeypatch.setattr(np.random, "Philox", unreachable)
        with pytest.raises(ValueError, match="convention must be one of"):
            call()


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
            m = skew_from_bits(4, bits)
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
            det_exact(skew_from_bits(n, bits, convention))
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

    def test_memory_flat_in_chunk_count(self, monkeypatch):
        # each chunk's sums fold into running totals, so 4000 chunks peak no
        # higher than 1000 do; a list of per-chunk sums grew by about 0.7 MiB
        monkeypatch.setattr(skewdet, "MC_CHUNK", 100)
        mc_stats(4, 100, seed=1)  # first-call allocations out of the way
        peaks = []
        for chunks in (1000, 4000):
            tracemalloc.start()
            try:
                mc_stats(4, chunks * 100, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 2**10

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


def fraction_floats(sum_abs, sum_d2, sum_d4, N, monte_carlo):
    """(s1, s2, stderr_s1, stderr_s2) by the exact-rational formulas, as the
    reference for their roundings: s1 and s2 rounded once, each standard
    error from its rounded variance quotient."""
    m1, m2, m4 = Fraction(sum_abs, N), Fraction(sum_d2, N), Fraction(sum_d4, N)
    s1 = float(m1)
    s2 = sqrt_nearest(m2)
    if not monte_carlo:
        return s1, s2, None, None
    var1 = (m2 - m1 * m1) * N / (N - 1)
    var2 = (m4 - m2 * m2) * N / (N - 1)
    stderr_s1 = math.sqrt(max(float(var1), 0.0) / N)
    se_m2 = math.sqrt(max(float(var2), 0.0) / N)
    return s1, s2, stderr_s1, se_m2 / (2 * s2) if s2 > 0 else 0.0


def float_bits(values):
    return [None if x is None else x.hex() for x in values]


class TestStatsRounding:
    """s1, s2 and the standard errors are bit-equal to the exact-rational
    formulas; s1 and s2 are each rounded once."""

    @pytest.mark.parametrize("convention", ["zero", "unit"])
    def test_s2_is_the_rounded_root(self, convention):
        # sqrt(sum_det2 / count) rounds twice; on 3 of these 40 zero-convention
        # seeds that was 1 ulp from the correctly rounded root
        for seed in range(40):
            st = mc_stats(10, 1000, seed=seed, convention=convention)
            assert st.s2 == sqrt_nearest(Fraction(st.sum_det2, st.count)), seed

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("convention", ["zero", "unit"])
    @pytest.mark.parametrize("n, samples", [
        (1, 150), (2, 150), (6, MC_CHUNK + 123), (10, MC_CHUNK + 123), (17, 300), (32, 100),
    ])
    def test_monte_carlo(self, n, samples, convention, seed):
        st = mc_stats(n, samples, seed=seed, convention=convention)
        parts = [
            skewdet._mc_chunk(n, seed, i, min(MC_CHUNK, samples - start), convention)
            for i, start in enumerate(range(0, samples, MC_CHUNK))
        ]
        sum_abs, sum_d2, sum_d4 = (sum(part[i] for part in parts) for i in range(3))
        assert (st.sum_absdet, st.sum_det2) == (sum_abs, sum_d2)
        want = fraction_floats(sum_abs, sum_d2, sum_d4, samples, True)
        got = (st.s1, st.s2, st.stderr_s1, st.stderr_s2)
        assert float_bits(got) == float_bits(want)

    @pytest.mark.parametrize("convention", ["zero", "unit"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_enumeration(self, n, convention):
        st = enumerate_stats(n, convention)
        want = fraction_floats(st.sum_absdet, st.sum_det2, 0, st.count, False)
        got = (st.s1, st.s2, st.stderr_s1, st.stderr_s2)
        assert float_bits(got) == float_bits(want)
        assert (st.mode, st.seed) == ("exact", None)


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

    @pytest.mark.parametrize(
        "n, convention", [*((n, "zero") for n in (2, 4, 6, 8)), *((n, "unit") for n in range(1, 9))])
    def test_enumerated_bound_is_rounded_once(self, n, convention):
        # s2**2 / s1 from the two rounded floats reads 385.00000000000006 at
        # n = 8 zero and 88.63157894736844 at n = 6 unit
        st = enumerate_stats(n, convention)
        assert second_moment_det_bound(st) == float(Fraction(st.sum_det2, st.sum_absdet))

    @pytest.mark.parametrize("n, convention", [(10, "zero"), (9, "unit")])
    def test_monte_carlo_bound_is_rounded_once(self, n, convention):
        st = mc_stats(n, 500, seed=3, convention=convention)
        assert second_moment_det_bound(st) == float(Fraction(st.sum_det2, st.sum_absdet))

    def test_degenerate_ensemble_rejected(self):
        st = enumerate_stats(3)
        with pytest.raises(ValueError):
            second_moment_det_bound(st)

    def test_miss_by_one_raises(self):
        # max * sum|det| = sum det^2 - 1; a 1e-6 relative tolerance accepts it
        count, sum_abs, max_abs = 10**6, 10**12, 10**9
        sum_d2 = max_abs * sum_abs + 1
        st = DetStats(
            n=6, mode="exact", convention="zero", count=count, s1=sum_abs / count,
            s2=math.sqrt(sum_d2 / count), sum_absdet=sum_abs, sum_det2=sum_d2,
            max_abs_det=max_abs,
        )
        assert max_abs >= st.s2**2 / st.s1 * (1 - 1e-6)
        with pytest.raises(TheoremViolationError, match="misses exact bound"):
            second_moment_det_bound(st)
        # met with equality, it passes
        st_eq = DetStats(
            n=6, mode="exact", convention="zero", count=count, s1=sum_abs / count,
            s2=math.sqrt((sum_d2 - 1) / count), sum_absdet=sum_abs, sum_det2=sum_d2 - 1,
            max_abs_det=max_abs,
        )
        assert second_moment_det_bound(st_eq) == pytest.approx(max_abs, rel=1e-12)


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
    """The O(1) flip evaluation and the O(n^2) state update of each climb:
    det A and adj A for unit diagonal (_adjugate, _flip_det, _flip_adjugate),
    Pf A and C = Pf(A) A^-1, adj A = Pf(A) C, for zero diagonal and even n
    (_pfaffian_start, _pfaffian_flip)."""

    CASES = [(n, "zero") for n in range(2, 21, 2)] + [(n, "unit") for n in range(2, 21)]

    @pytest.mark.parametrize("n, convention", CASES)
    def test_adjugate(self, n, convention):
        for rows in random_rows(n, convention, [n, 7]):
            det, adj = start_det_adj(rows, convention)
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
        # search takes its start determinant from the start state of a climb
        for rows in random_rows(n, convention, [n, 14]):
            assert start_det_adj(rows, convention)[0] == det_bareiss(rows)

    def test_adjugate_rejects_singular(self):
        # a zero pivot: every zero-diagonal matrix, singular (odd n) or not
        for n in (5, 4):
            with pytest.raises(ValueError, match="zero pivot at step 0"):
                _adjugate(all_plus(n).to_rows())

    @pytest.mark.parametrize("n, convention", CASES)
    def test_every_flip_det_matches_bareiss(self, n, convention):
        for rows in random_rows(n, convention, [n, 9]):
            if convention == "zero":
                pf, cof = pfaffian_state(rows)
            else:
                det, adj = _adjugate(rows)
            for i in range(n):
                for j in range(i + 1, n):
                    expected = det_bareiss(flipped(rows, i, j))
                    if convention == "zero":
                        assert (pf + 2 * rows[i][j] * int(cof[i, j])) ** 2 == expected
                    else:
                        assert _flip_det(det, adj, i, j, rows[i][j]) == expected

    @pytest.mark.parametrize("n, convention", CASES)
    def test_flip_adjugate_matches_fresh_adjugate(self, n, convention):
        rows = random_rows(n, convention, [n, 10])[0]
        if convention == "zero":
            pf, cof = pfaffian_state(rows)
        else:
            det, adj = _adjugate(rows)
        for i in range(n):
            for j in range(i + 1, n):
                new_rows = flipped(rows, i, j)
                if convention == "zero":
                    new_pf = pf + 2 * rows[i][j] * int(cof[i, j])
                    new_cof = _pfaffian_flip(pf, new_pf, cof, i, j, rows[i][j])
                    assert_same_state((new_pf, new_cof), pfaffian_state(new_rows))
                else:
                    new_det = det_bareiss(new_rows)
                    new_adj = _flip_adjugate(det, new_det, adj, i, j, rows[i][j])
                    assert _adjugate(new_rows) == (new_det, new_adj)

    def test_flip_updates_chain_along_a_climb(self):
        # many accepted flips in a row keep (det, adj) exact at n = 24; the
        # zero-diagonal chains are in TestPfaffianState
        n = 24
        rows = random_rows(n, "unit", [n, 11])[0]
        det, adj = _adjugate(rows)
        rng = np.random.Generator(np.random.Philox(key=[n, 12]))
        for _ in range(40):
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            new_det = _flip_det(det, adj, i, j, rows[i][j])
            adj = _flip_adjugate(det, new_det, adj, i, j, rows[i][j])
            rows, det = flipped(rows, i, j), new_det
        assert det == det_bareiss(rows)
        assert _adjugate(rows) == (det, adj)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_singular_only_for_odd_zero_diagonal(self, n):
        # the D = 0 fallback of search is exactly the odd-n zero-diagonal case:
        # an even-n zero-diagonal det is Pf^2 with Pf a sum of (n-1)!! terms +-1
        # (odd), and a unit-diagonal det is prod(1 + mu^2) >= 1
        signs = random_signs(n, 64, [n, 13])
        zero = _modular_dets(_matrices(n, signs, "zero"))
        unit = _bareiss_batch(_matrices(n, signs, "unit"))
        assert (unit >= 1).all()
        assert (zero == 0).all() if n % 2 else (zero % 2 == 1).all()


class TestPfaffianState:
    """The zero-diagonal climb state (Pf A, C = Pf(A) A^-1) against independent
    Pfaffians and determinants, on both sides of CLIMB_LIMIT."""

    EVEN = range(2, 33, 2)

    @pytest.mark.parametrize("n", EVEN)
    def test_start_is_pfaffian_and_cofactors(self, n):
        for rows in random_rows(n, "zero", [n, 15]):
            pf, cof = pfaffian_state(rows)
            assert cof.dtype == (np.int64 if n <= CLIMB_LIMIT else object)
            assert pf == _pfaffians(n, upper_signs(rows)[None])[0]
            assert pf * pf == det_bareiss(rows)
            # A (P C) = P^2 I fixes P C = adj A, A being invertible
            identity = [[pf * pf * (i == j) for j in range(n)] for i in range(n)]
            assert times(rows, (pf * cof).tolist()) == identity
            assert (cof == -cof.T).all()

    @pytest.mark.parametrize("n", range(2, CLIMB_LIMIT + 1, 2))
    def test_start_routes_agree(self, monkeypatch, n):
        # the batched minors against the Python-int route past CLIMB_LIMIT,
        # _adjugate of A with its columns swapped in pairs
        for rows in random_rows(n, "zero", [n, 17]):
            pf, cof = pfaffian_state(rows)
            with monkeypatch.context() as patch:
                patch.setattr(skewdet, "CLIMB_LIMIT", 0)
                got_pf, got_cof = pfaffian_state(rows)
            assert got_cof.dtype == object
            assert (got_pf, got_cof.tolist()) == (pf, cof.tolist())

    @pytest.mark.parametrize("n", EVEN)
    def test_every_flip_is_a_pfaffian(self, n):
        for rows in random_rows(n, "zero", [n, 16]):
            pf, cof = pfaffian_state(rows)
            signs = upper_signs(rows)
            iu, ju = np.triu_indices(n, k=1)
            flips = [pf + 2 * s * c for s, c in zip(signs.tolist(), cof[iu, ju].tolist())]
            block = np.repeat(signs[None], len(signs), axis=0)
            np.fill_diagonal(block, -signs)
            assert flips == _pfaffians(n, block).tolist()
            if n <= 10:
                assert flips == [pfaffian_exact(SkewSignMatrix(n, tuple(row.tolist())))
                                 for row in block]

    @pytest.mark.parametrize("n", [16, 32])
    def test_chain_matches_fresh_start(self, n):
        # 40 accepted flips in a row, in int64 (n = 16) and in Python ints (32)
        rows = random_rows(n, "zero", [n, 11])[0]
        pf, cof = pfaffian_state(rows)
        rng = np.random.Generator(np.random.Philox(key=[n, 12]))
        for _ in range(40):
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            s = rows[i][j]
            new_pf = pf + 2 * s * int(cof[i, j])
            cof = _pfaffian_flip(pf, new_pf, cof, i, j, s)
            rows, pf = flipped(rows, i, j), new_pf
        assert_same_state((pf, cof), pfaffian_state(rows))
        if n > CLIMB_LIMIT:
            # no int64 scalar slipped into the object array, where it could wrap
            assert {type(x) for x in cof.flat} == {int}


class TestSearchMatchesReference:
    """search_high_det against the one-det_bareiss-per-flip reference climb,
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
