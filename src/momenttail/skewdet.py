"""Determinant statistics of random skew-symmetric sign matrices.

Matrices are n x n with +-1 entries above the diagonal and the negated
transpose below.  Two diagonal conventions are supported: "zero" (strictly
skew-symmetric; even n gives det = Pf^2 >= 0, odd n gives det = 0) and "unit"
(skew-type, A + A^T = 2I).  All determinants and accumulated statistics are
exact integers: values grow like n^(n/2), past what float LU can represent
faithfully, and the mean identities checked downstream are exact.

Determinants of sign blocks are batched in numpy: fraction-free (Bareiss)
elimination in int64 for n <= 16, where Hadamard's bound keeps every
intermediate below 2^63, and above that det mod a few primes p < 2^26, by
division-free elimination in float64, rebuilt exactly by the CRT.  Exact
enumeration walks one matrix per class of conjugation by diagonal +-1
matrices, which leaves det unchanged, so it computes 2^((n-1)(n-2)/2)
determinants instead of 2^(n(n-1)/2) and reaches n = 8 in seconds.

Witness search flips one sign pair at a time.  Each climb keeps det A and the
exact adjugate adj A of its current matrix, from one fraction-free
Gauss-Jordan elimination at its start; a flip changes two entries, so the
matrix determinant lemma gives every flipped determinant exactly in O(1)
integer operations, and an accepted flip updates adj A in O(n^2).  The only
singular matrices (zero diagonal, odd n) need no climb: every determinant
there is 0.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .numutil import LogReal, log_factorial, resolve_threads

ENUM_LIMIT = 8
MC_CHUNK = 4096
# Hadamard: |det| <= n^(n/2) for +-1 entries, so E det^4 <= n^(2n), which stays
# below 2^1024 (a finite float64 for the MC variance) exactly when n <= 80
N_LIMIT = 80

_CONVENTIONS = ("zero", "unit")


@dataclass(frozen=True)
class SkewSignMatrix:
    """Sign assignment for the strict upper triangle, row-major order."""

    n: int
    upper: tuple[int, ...]
    convention: str = "zero"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        m = self.n * (self.n - 1) // 2
        if len(self.upper) != m:
            raise ValueError(f"expected {m} upper-triangle signs, got {len(self.upper)}")
        if any(s not in (-1, 1) for s in self.upper):
            raise ValueError("upper-triangle entries must be +1 or -1")
        if self.convention not in _CONVENTIONS:
            raise ValueError(f"convention must be one of {_CONVENTIONS}")

    @classmethod
    def from_bits(cls, n: int, bits: int, convention: str = "zero") -> "SkewSignMatrix":
        """Bit i of `bits` = 1 means +1 in the i-th upper-triangle slot."""
        m = n * (n - 1) // 2
        upper = tuple(1 if (bits >> i) & 1 else -1 for i in range(m))
        return cls(n, upper, convention)

    def to_rows(self) -> list[list[int]]:
        signs = np.array([self.upper], dtype=np.int8)
        return _matrices(self.n, signs, self.convention)[0].tolist()


def _matrices(n: int, signs: np.ndarray, convention: str) -> np.ndarray:
    """(k, n, n) int8 matrices from a (k, m) block of upper-triangle signs, in
    np.triu_indices slot order (row-major, as SkewSignMatrix.upper and from_bits)."""
    iu, ju = np.triu_indices(n, k=1)
    mats = np.zeros((len(signs), n, n), dtype=np.int8)
    mats[:, iu, ju] = signs
    mats[:, ju, iu] = -signs
    if convention == "unit":
        mats[:, range(n), range(n)] = 1
    return mats


def _bareiss(rows: list[list[int]]) -> int:
    """Fraction-free elimination; every division below is exact."""
    a = [row[:] for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def _adjugate(rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det A, adj A) of a non-singular integer matrix, by fraction-free
    Gauss-Jordan elimination on [A | I]; every division below is exact.

    After the last step the left block is p I, p = +-det A the last pivot, and
    the right block is p A^-1 = +-adj A, the sign being that of the row swaps.
    Every entry is a minor of [A | I] (Bareiss 1968).  Step k reads nothing
    left of column k, so each row drops that column.
    """
    n = len(rows)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        # a[i][0] is column k of row i
        if a[k][0] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][0] != 0), None)
            if swap is None:
                raise ValueError("matrix is singular")
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][0]
        row_k = a[k][1:]
        for i in range(n):
            if i == k:
                a[i] = row_k
            else:
                aik = a[i][0]
                a[i] = [(x * pivot - aik * y) // prev for x, y in zip(a[i][1:], row_k)]
        prev = pivot
    return sign * prev, [[sign * x for x in row] for row in a]


# A flip at slot (i, j) with current sign s = a_ij gives A' = A + U W with
# U = [e_i, e_j] and W = [-2s e_j^T; 2s e_i^T].  With D = det A != 0 and
# B = adj A = D A^-1, the matrix determinant lemma gives
# D det A' = det C, C = D I_2 + W B U, a polynomial identity, so both exact
# integer divisions below are exact.


def _flip_det(det: int, adj: list[list[int]], i: int, j: int, s: int) -> int:
    """det A' of the flip at (i, j) from det A != 0 and adj A, in O(1)."""
    t = 2 * s
    return ((det - t * adj[j][i]) * (det + t * adj[i][j]) + 4 * adj[i][i] * adj[j][j]) // det


def _flip_adjugate(
    det: int, new_det: int, adj: list[list[int]], i: int, j: int, s: int
) -> list[list[int]]:
    """adj A' of the flip at (i, j), in O(n^2).

    Sherman-Morrison-Woodbury: adj A' = (D D' B - (B U) adj(C) (W B)) / D^2,
    with D' = det A'.
    """
    t = 2 * s
    # adj(C) = [[c00, c01], [c10, c11]]
    c00 = det + t * adj[i][j]
    c01 = t * adj[j][j]
    c10 = -t * adj[i][i]
    c11 = det - t * adj[j][i]
    row_i, row_j = adj[i], adj[j]
    scale = det * new_det
    square = det * det
    out = []
    for row in adj:
        # row p of (B U) adj(C) is (x, y); W B has rows -t B_j and t B_i
        x = t * (row[i] * c00 + row[j] * c10)
        y = t * (row[i] * c01 + row[j] * c11)
        out.append([
            (scale * b + x * bj - y * bi) // square
            for b, bi, bj in zip(row, row_i, row_j)
        ])
    return out


# Largest n for which _bareiss_batch is exact in int64.  Before each update the
# pivot and the entries it combines are minors of order k <= n - 1 of a +-1
# matrix, so at most k^(k/2) by Hadamard.  An update takes the difference of
# two products of such minors: |x| <= 2 (n-1)^(n-1) = 2 * 15^15 < 2^63 at
# n = 16, whereas one product may already reach 16^16 > 2^63 at n = 17.
BATCH_LIMIT = 16
# Matrices per _bareiss_batch call, which bounds its int64 stack and
# temporaries.  On the skew-ensemble benchmark, whole 4096-matrix blocks raised
# peak RSS from 42.9 to 49.9 MB and 1024 to 45.9 MB, with no gain in
# throughput; 256 stays at 43.0 MB.
BATCH_SIZE = 256


def _bareiss_batch(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a (k, n, n) stack of +-1/0 matrices, n <= BATCH_LIMIT.

    The same fraction-free elimination as _bareiss, run on every matrix at
    once in int64 with per-matrix row swaps.  The stack is held as (n, n, k)
    so that each elementwise step runs over k contiguous values.
    """
    k, n, _ = mats.shape
    a = np.ascontiguousarray(mats.transpose(1, 2, 0), dtype=np.int64)
    sign = np.ones(k, dtype=np.int64)
    prev = np.ones(k, dtype=np.int64)
    for c in range(n - 1):
        # first row at or below c with a non-zero entry in column c
        first = (a[c:, c] != 0).argmax(axis=0)
        swap = np.flatnonzero(first)
        if len(swap):
            other = first[swap] + c
            a[c, :, swap], a[other, :, swap] = a[other, :, swap], a[c, :, swap]
            sign[swap] = -sign[swap]
        # a dead matrix (column c all zero) has pivot 0: its remaining block
        # becomes 0, and dividing by 1 at the next step keeps it 0, so det = 0
        pivot = a[c, c].copy()
        sub = a[c + 1 :, c + 1 :]
        sub *= pivot
        sub -= a[c + 1 :, c, None] * a[c, None, c + 1 :]
        # the exact quotient is an order-(c+2) minor, |q| <= n^(n/2) <= 2^32, and
        # the float64 quotient is within 2^-52 |q| < 1/2 of it: rounding gives
        # q exactly, at a third of the cost of int64 floor division
        quotient = sub / prev
        sub[...] = np.rint(quotient, out=quotient)
        prev = np.where(pivot == 0, 1, pivot)
    return sign * a[n - 1, n - 1]


# Primes for _modular_dets, the largest ten below 2^26.  By Hadamard
# |det| <= n^(n/2), and the CRT gives det mod M in (-M/2, M/2), which is det
# itself once M > 2 n^(n/2): that takes 2 primes at n = 17, 4 at n = 32 and
# all ten at n = N_LIMIT = 80 (2 * 80^40 < 2^254 < M).
#
# _det_mod keeps residues r with |r| <= (p + 1) / 2 <= 2^25 (p < 2^26 odd), so
# an update x = pivot * r - a_ic * a_cj has |x| <= 2^51 and is exact in
# float64.  The float product x * (1/p) is within 2^-51 |x| / p <= 1 / p of
# x / p, so q = rint of it has |x / p - q| <= 1/2 + 1/p, p * q is an exact
# integer below 2^53, and x - p * q is an integer of magnitude at most
# p / 2 + 1, hence at most (p + 1) / 2 again.
MODULAR_PRIMES = (
    67108859, 67108837, 67108819, 67108777, 67108763,
    67108757, 67108753, 67108747, 67108739, 67108729,
)
# Bytes of the float64 (n, n, k) stack of one _modular_dets call; its scratch
# buffer is as large, so the working set is bounded for every n (k = 128 at
# n = 32, 20 at n = 80).
MODULAR_BYTES = 1 << 20


def _crt_basis(n: int) -> tuple[list[int], int, list[int]]:
    """The fewest leading MODULAR_PRIMES whose product M exceeds 2 n^(n/2), M,
    and the CRT weights (M / p) * ((M / p)^-1 mod p), one per prime."""
    bound = 4 * n**n  # M > 2 n^(n/2) exactly when M^2 > 4 n^n
    primes = []
    modulus = 1
    for p in MODULAR_PRIMES:
        if modulus * modulus > bound:
            break
        primes.append(p)
        modulus *= p
    if modulus * modulus <= bound:
        raise ValueError(f"MODULAR_PRIMES do not cover the Hadamard bound at n = {n}")
    return primes, modulus, [modulus // p * pow(modulus // p, -1, p) for p in primes]


def _modular_dets(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a (k, n, n) stack of +-1/0 matrices, any n, as an
    object array of Python ints.

    det mod p for each prime of _crt_basis(n), one prime at a time on one
    (n, n, k) float64 stack, then the signed det by the CRT.
    """
    k, n, _ = mats.shape
    base = np.ascontiguousarray(mats.transpose(1, 2, 0))
    a = np.empty((n, n, k))
    scratch = np.empty((n - 1) * (n - 1) * k)
    primes, modulus, weights = _crt_basis(n)
    total = [0] * k
    for p, weight in zip(primes, weights):
        np.copyto(a, base)
        total = [t + r * weight for t, r in zip(total, _det_mod(a, scratch, p))]
    half = modulus // 2
    dets = [t % modulus for t in total]
    return np.array([d - modulus if d > half else d for d in dets], dtype=object)


def _det_mod(a: np.ndarray, scratch: np.ndarray, p: int) -> list[int]:
    """det mod p, in [0, p), of each matrix of an (n, n, k) float64 stack of
    residues, which it overwrites.

    Division-free elimination: step c maps the block below and right of the
    pivot q_c to q_c x - a_ic a_cj, which scales the Schur complement by
    F_(c+1) = q_0 ... q_c.  So the last entry is F_(n-1) times the last Schur
    pivot, and det = sign * last / (F_1 ... F_(n-2)), with one inverse per
    matrix.  A column that is zero mod p from the pivot down leaves pivot 0,
    which zeroes the rest of the block, so last = 0 and the residue is 0.
    """
    n, _, k = a.shape
    inv_p = 1.0 / p

    def reduce(x):
        return x - p * np.rint(x * inv_p)

    # a2[i, j * k + m] is entry (i, j) of matrix m, so a2[i, j * k :] holds
    # columns j..n-1 of row i of every matrix
    a2 = a.reshape(n, n * k)
    tiled = np.empty((n - 1, k))
    sign = np.ones(k)
    prefix = np.ones(k)  # F_c before step c
    den = np.ones(k)  # F_0 ... F_c after step c
    for c in range(n - 1):
        # first row at or below c with a non-zero residue in column c
        first = (a[c:, c] != 0).argmax(axis=0)
        swap = np.flatnonzero(first)
        if len(swap):
            other = first[swap] + c
            a[c, c:, swap], a[other, c:, swap] = a[other, c:, swap], a[c, c:, swap]
            sign[swap] = -sign[swap]
        pivot = a[c, c]
        den = reduce(den * prefix)
        prefix = reduce(prefix * pivot)
        # every operand below spans whole rows of the block, so each numpy
        # loop runs over r * k contiguous values rather than k
        r = n - 1 - c
        sub = a2[c + 1 :, (c + 1) * k :]
        tmp = scratch[: r * r * k].reshape(r, r * k)
        tmp.reshape(r, r, k)[...] = a[c + 1 :, c, None]
        tmp *= a2[c, (c + 1) * k :]
        tiled[:r] = pivot
        sub *= tiled[:r].reshape(r * k)
        sub -= tmp
        np.multiply(sub, inv_p, out=tmp)
        np.rint(tmp, out=tmp)
        tmp *= p
        sub -= tmp
    lasts = (sign * a[n - 1, n - 1]).astype(np.int64).tolist()
    dens = den.astype(np.int64).tolist()
    # den is 0 only after a zero pivot, which has made last 0 as well
    return [last * pow(d, -1, p) % p if last else 0 for last, d in zip(lasts, dens)]


def _block_stats(n: int, signs: np.ndarray, convention: str) -> tuple[int, int, int, int]:
    """(sum |d|, sum d^2, sum d^4, max |d|) over a (k, m) block of sign vectors, k >= 1."""
    if n <= BATCH_LIMIT:
        kernel, size = _bareiss_batch, BATCH_SIZE
    else:
        # past int64: determinants mod word-size primes, in sub-blocks whose
        # float64 stack is about MODULAR_BYTES
        kernel, size = _modular_dets, max(1, MODULAR_BYTES // (8 * n * n))
    absdets = []
    for start in range(0, len(signs), size):
        mats = _matrices(n, signs[start : start + size], convention)
        absdets += np.abs(kernel(mats)).tolist()
    # Python ints from here: d^2 overflows int64 from n = 16, d^4 from n = 10
    squares = [d * d for d in absdets]
    return sum(absdets), sum(squares), sum(d2 * d2 for d2 in squares), max(absdets)


def _reduce(parts: list[tuple[int, int, int, int]]) -> tuple[int, int, int, int]:
    """Combine per-chunk _block_stats results."""
    sum_abs, sum_d2, sum_d4, max_abs = zip(*parts)
    return sum(sum_abs), sum(sum_d2), sum(sum_d4), max(max_abs)


def det_exact(matrix: SkewSignMatrix) -> int:
    """Exact integer determinant (Bareiss elimination)."""
    return _bareiss(matrix.to_rows())


def pfaffian_exact(matrix: SkewSignMatrix) -> int:
    """Exact Pfaffian by expansion along the first row; zero-diagonal only.

    Cost grows like (n-1)!! so keep n small (<= 12 or so); used as the
    independent cross-check det = Pf^2.
    """
    if matrix.convention != "zero":
        raise ValueError("Pfaffian is defined for the zero-diagonal convention")
    if matrix.n % 2:
        return 0
    rows = matrix.to_rows()

    def pf(active: tuple[int, ...]) -> int:
        if not active:
            return 1
        i0 = active[0]
        total = 0
        sign = 1
        rest = active[1:]
        for pos, j in enumerate(rest):
            sub = rest[:pos] + rest[pos + 1 :]
            total += sign * rows[i0][j] * pf(sub)
            sign = -sign
        return total

    return pf(tuple(range(matrix.n)))


@dataclass(frozen=True)
class DetStats:
    """Exact or sampled moments of |det| over the sign ensemble.

    s1 is the mean of |det|, s2 the quadratic mean sqrt(E det^2).  The integer
    accumulators are exact in both modes; stderr fields are present only for
    Monte Carlo estimates.
    """

    n: int
    mode: str
    convention: str
    count: int
    s1: float
    s2: float
    sum_absdet: int = field(metadata={"decimal": True})
    sum_det2: int = field(metadata={"decimal": True})
    max_abs_det: int = field(metadata={"decimal": True})
    stderr_s1: float | None = None
    stderr_s2: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "monte-carlo"):
            raise ValueError("mode must be 'exact' or 'monte-carlo'")
        # power-mean ordering is unconditional; violation means broken accumulators
        if self.s2 < self.s1 * (1 - 1e-12):
            raise ValueError("s2 < s1 violates the power-mean inequality")


def enumerate_stats(n: int, convention: str = "zero") -> DetStats:
    """Exact s1, s2 and max over every sign assignment (2^(n(n-1)/2) matrices)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > ENUM_LIMIT:
        raise ValueError(
            f"enumeration is capped at n = {ENUM_LIMIT} "
            f"(2^{n * (n - 1) // 2} matrices); use mc_stats for larger n"
        )
    m = n * (n - 1) // 2
    # Conjugating by diag(+-1) maps a_ij to d_i d_j a_ij: it keeps det and the
    # diagonal, and its 2^(n-1) distinct actions (d and -d act alike) meet each
    # class once with all first-row signs +1.  So walk those representatives
    # and weight each by 2^(n-1).
    classes = 1 << (m - n + 1)
    sum_abs, sum_d2, _, max_abs = _reduce([
        _enum_chunk(n, start, min(start + MC_CHUNK, classes), convention)
        for start in range(0, classes, MC_CHUNK)
    ])
    count = 1 << m
    sum_abs <<= n - 1
    sum_d2 <<= n - 1
    return DetStats(
        n=n,
        mode="exact",
        convention=convention,
        count=count,
        s1=sum_abs / count,
        s2=math.sqrt(sum_d2 / count),
        sum_absdet=sum_abs,
        sum_det2=sum_d2,
        max_abs_det=max_abs,
    )


def _enum_chunk(n: int, start: int, stop: int, convention: str):
    """Statistics over class representatives start..stop-1: representative r is
    sign vector (r << (n-1)) | (2^(n-1) - 1), bit i being slot i, so the n - 1
    first-row slots are +1."""
    first_row = (1 << (n - 1)) - 1
    numbers = (np.arange(start, stop, dtype=np.int64) << (n - 1)) | first_row
    bits = numbers[:, None] >> np.arange(n * (n - 1) // 2)
    return _block_stats(n, (bits & 1).astype(np.int8) * 2 - 1, convention)


def _mc_chunk(n: int, seed: int, chunk_index: int, size: int, convention: str):
    """Statistics over one counter-keyed substream; schedule-independent."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    signs = rng.integers(0, 2, size=(size, n * (n - 1) // 2), dtype=np.int8) * 2 - 1
    return _block_stats(n, signs, convention)


def mc_stats(
    n: int,
    samples: int,
    seed: int = 0,
    convention: str = "zero",
    threads: int | None = None,
) -> DetStats:
    """Monte Carlo estimate of s1, s2 from iid uniform sign draws.

    Sampling is split into fixed chunks with per-chunk counter-based
    substreams keyed by (seed, chunk index) and exact integer accumulators.
    threads is validated but does not change the result or the schedule.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > N_LIMIT:
        raise ValueError(f"n must be at most {N_LIMIT}")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    resolve_threads(threads)
    # chunks run serially: the numpy steps of the int64 batched determinants
    # are too short to overlap, so a second thread never paid
    # (mc_stats(10, 20000), 2 CPUs: 0.097-0.100 s at 1 thread, 0.098-0.103 s
    # at 2)
    sum_abs, sum_d2, sum_d4, max_abs = _reduce([
        _mc_chunk(n, seed, i, min(MC_CHUNK, samples - start), convention)
        for i, start in enumerate(range(0, samples, MC_CHUNK))
    ])

    N = samples
    m1 = Fraction(sum_abs, N)
    m2 = Fraction(sum_d2, N)
    m4 = Fraction(sum_d4, N)
    s1 = float(m1)
    s2 = math.sqrt(float(m2))
    # unbiased sample variances (N >= 100), computed as exact rationals first
    var1 = (m2 - m1 * m1) * N / (N - 1)
    var2 = (m4 - m2 * m2) * N / (N - 1)
    stderr_s1 = math.sqrt(max(float(var1), 0.0) / N)
    se_m2 = math.sqrt(max(float(var2), 0.0) / N)
    stderr_s2 = se_m2 / (2 * s2) if s2 > 0 else 0.0

    return DetStats(
        n=n,
        mode="monte-carlo",
        convention=convention,
        count=N,
        s1=s1,
        s2=s2,
        sum_absdet=sum_abs,
        sum_det2=sum_d2,
        max_abs_det=max_abs,
        stderr_s1=stderr_s1,
        stderr_s2=stderr_s2,
        seed=seed,
    )


def szekeres_s1_asym(n: int) -> LogReal:
    """Asymptotic mean of |det|: (8 pi e n)^(-1/4) e^sqrt(n) sqrt(n!)."""
    _require_even(n)
    return LogReal(
        -0.25 * math.log(8 * math.pi * math.e * n)
        + math.sqrt(n)
        + 0.5 * log_factorial(n)
    )


def szekeres_s2_asym(n: int) -> LogReal:
    """Asymptotic quadratic mean: (32 pi e^3)^(-1/2) e^(2 sqrt(n)) sqrt(n!)."""
    _require_even(n)
    return LogReal(
        -0.5 * math.log(32 * math.pi) - 1.5 + 2 * math.sqrt(n) + 0.5 * log_factorial(n)
    )


def _require_even(n: int):
    if n < 2 or n % 2:
        raise ValueError("asymptotic means are for even n >= 2")


def det_existence_bound(n: int) -> LogReal:
    """Guaranteed-achievable |det|: (n/(64 pi e^5))^(1/4) e^sqrt(n) sqrt(n!)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return LogReal(
        0.25 * (math.log(n) - math.log(64 * math.pi) - 5.0)
        + math.sqrt(n)
        + 0.5 * log_factorial(n)
    )


def second_moment_det_bound(stats: DetStats) -> float:
    """Existence bound s2^2 / s1 for the max |det| over the ensemble.

    In exact mode the recorded maximum must already meet it (finite-support
    tail bound); a miss raises, since that can only be an accounting bug.
    """
    if stats.s1 <= 0:
        raise ValueError(
            "s1 = 0 (degenerate ensemble, e.g. odd n with zero diagonal): "
            "no bound available"
        )
    bound = stats.s2**2 / stats.s1
    if stats.mode == "exact" and stats.max_abs_det < bound * (1 - 1e-6):
        raise RuntimeError(
            f"enumerated max {stats.max_abs_det} misses exact bound {bound}"
        )
    return bound


@dataclass(frozen=True)
class SearchResult:
    """Best matrix found by sign-flip hill climbing."""

    matrix: SkewSignMatrix = field(metadata={"flatten": True})
    abs_det: int = field(metadata={"decimal": True})
    evaluations: int
    ratio_to_existence_bound: float
    ratio_to_s1_asym: float | None


def search_high_det(
    n: int, budget: int, seed: int = 0, convention: str = "zero"
) -> SearchResult:
    """Random-restart greedy single-flip hill climbing on |det|.

    budget counts determinant evaluations.  The trajectory depends only on
    (n, seed, convention), so the best value is non-decreasing in budget.

    Each climb keeps det A and adj A of its current matrix A: a flip changes
    two entries, so _flip_det gives the flipped determinant exactly in O(1),
    and _flip_adjugate updates adj A in O(n^2) when the flip is accepted.
    The only singular matrices are those with zero diagonal and odd n: for
    even n det = Pf^2 and the Pfaffian is a sum of an odd number of +-1
    terms, and det(I + S) >= 1 for skew S.  With odd n and zero diagonal
    every evaluation gives 0, so the result (the first start matrix, |det| 0,
    budget evaluations) is returned without climbing.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > N_LIMIT:
        raise ValueError(f"n must be at most {N_LIMIT}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]

    best_upper = ()
    best_det = -1
    evals = 0
    if convention == "zero" and n % 2:
        # every matrix is singular: the first start stays best, and the climb
        # only spends the budget on zeros
        signs = rng.integers(0, 2, size=(1, len(slots)), dtype=np.int8) * 2 - 1
        best_upper, best_det, evals = tuple(signs[0].tolist()), 0, budget

    while evals < budget:
        signs = rng.integers(0, 2, size=(1, len(slots)), dtype=np.int8) * 2 - 1
        rows = _matrices(n, signs, convention)[0].tolist()
        det, adj = _adjugate(rows)
        evals += 1
        cur_det = abs(det)
        if cur_det > best_det:
            best_det, best_upper = cur_det, tuple(rows[i][j] for i, j in slots)

        improved = True
        while improved and evals < budget:
            improved = False
            for i, j in slots:
                if evals >= budget:
                    break
                s = rows[i][j]
                d = _flip_det(det, adj, i, j, s)
                evals += 1
                if abs(d) > cur_det:
                    # first improvement: keep the flip and restart the sweep
                    rows[i][j], rows[j][i] = -s, s
                    adj = _flip_adjugate(det, d, adj, i, j, s)
                    det, cur_det = d, abs(d)
                    if cur_det > best_det:
                        best_det, best_upper = cur_det, tuple(rows[i][j] for i, j in slots)
                    improved = True
                    break

    bound = det_existence_bound(n)
    ratio_bound = math.exp(math.log(best_det) - bound.log) if best_det > 0 else 0.0
    if n % 2 == 0:
        s1a = szekeres_s1_asym(n)
        ratio_s1 = math.exp(math.log(best_det) - s1a.log) if best_det > 0 else 0.0
    else:
        ratio_s1 = None
    return SearchResult(
        matrix=SkewSignMatrix(n, best_upper, convention),
        abs_det=best_det,
        evaluations=evals,
        ratio_to_existence_bound=ratio_bound,
        ratio_to_s1_asym=ratio_s1,
    )
