"""Determinant statistics of random skew-symmetric sign matrices.

Matrices are n x n with +-1 entries above the diagonal and the negated
transpose below.  Two diagonal conventions are supported: "zero" (strictly
skew-symmetric; even n gives det = Pf^2 >= 0, odd n gives det = 0) and "unit"
(skew-type, A + A^T = 2I).  All determinants and accumulated statistics are
exact integers: values grow like n^(n/2), past what float LU can represent
faithfully, and the mean identities checked downstream are exact.  Each
reported mean and standard error is one correctly rounded integer quotient.

Determinants of sign blocks are batched in numpy.  With zero diagonal, odd n
needs no arithmetic, and even n takes det = Pf^2 from a skew elimination that
pivots on 2x2 blocks, n/2 steps on the packed upper triangle: fraction-free in
int64 with no row swaps for n <= 28, where every pivot is an odd leading
Pfaffian and Hadamard's bound keeps every intermediate below 2^63, and above
that Pf mod a few primes p < 2^26, half as many as det would need.  With unit
diagonal, fraction-free (Bareiss) elimination runs in int64 with no row swaps
for n <= 16, every pivot being a leading minor det(I + S) >= 1, and above that
det mod the primes.  The modular kernels are division-free in float64, fix a
pivot that is 0 mod p by adding a later row, which keeps det and Pf, and the
CRT rebuilds the exact integer.  Exact enumeration walks one matrix per
class of conjugation by diagonal +-1 matrices, which leaves det unchanged, so
it computes 2^((n-1)(n-2)/2) determinants instead of 2^(n(n-1)/2) and
reaches n = 8 in seconds.

Witness search flips one sign pair at a time and keeps the first flip that
raises |det|.  With zero diagonal and even n each climb keeps P = Pf A and the
skew cofactor matrix C = P A^-1, whose entries are signed Pfaffians of order
n - 2.  Pf is affine in each sign pair, so one numpy expression scores every
flip of a sweep, and an accepted flip updates C in O(n^2) by an exact
division.  Up to n = 26 the state is int64 and one batched Pfaffian call
gives C at the start; past it the state is Python ints and C comes from one
fraction-free elimination of A with its columns swapped in pairs.  With unit
diagonal each climb keeps det A and adj A from one fraction-free Gauss-Jordan
elimination, whose pivots are leading minors >= 1, and the matrix
determinant lemma gives each flipped determinant in O(1).  The only singular
matrices (zero diagonal, odd n) need no climb: every determinant there is 0.
"""

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cache
from operator import mul

import numpy as np

from .moments import TheoremViolationError
from .numutil import LogReal, log_factorial, resolve_threads, sqrt_ratio

ENUM_LIMIT = 8
MC_CHUNK = 4096
# Hadamard: |det| <= n^(n/2) for +-1 entries, so E det^4 <= n^(2n), which stays
# below 2^1024 (a finite float64 for the MC variance) exactly when n <= 80
N_LIMIT = 80

_CONVENTIONS = ("zero", "unit")


def _require_convention(convention: str):
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}")


def _require_seed(seed: int):
    # Philox is keyed by the seed as one uint64 word: a seed outside it would
    # draw the samples of the one it aliases while reporting its own value
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def _all_singular(n: int, convention: str) -> bool:
    """Zero diagonal and odd n: every det A = det(-A^T) = -det A is 0."""
    return convention == "zero" and n % 2 == 1


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
        _require_convention(self.convention)

    def to_rows(self) -> list[list[int]]:
        signs = np.array([self.upper], dtype=np.int8)
        return _matrices(self.n, signs, self.convention)[0].tolist()


def _matrices(n: int, signs: np.ndarray, convention: str) -> np.ndarray:
    """(k, n, n) int8 matrices from a (k, m) block of upper-triangle signs, in
    np.triu_indices slot order (row-major, as SkewSignMatrix.upper)."""
    iu, ju = np.triu_indices(n, k=1)
    mats = np.zeros((len(signs), n, n), dtype=np.int8)
    mats[:, iu, ju] = signs
    mats[:, ju, iu] = -signs
    if convention == "unit":
        mats[:, range(n), range(n)] = 1
    return mats


def _adjugate(rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det A, adj A) of an integer matrix whose leading principal minors are
    all non-zero, by fraction-free Gauss-Jordan elimination on [A | I] with no
    row swaps; every division below is exact.

    The pivot at step k is the leading minor of order k + 1.  Search sends two
    kinds of matrix, where none is 0: unit-diagonal +-1 skew-type ones
    (A + A^T = 2I), whose leading minors are det(I + S_k) >= 1 with S_k skew
    (see _bareiss_batch); and, past CLIMB_LIMIT, zero-diagonal +-1 skew ones
    of even order with columns 2k and 2k + 1 swapped for every k, whose
    leading minors of order 2k and 2k + 1 are +-Pf(A_2k)^2 and
    +-Pf(A_2k) Pf(A_(2k+2)), A_r the leading block of order r, and every
    such Pfaffian is odd.  So a zero pivot means the precondition was broken
    and raises ValueError.  The last step leaves p I, p = det A the last
    pivot, and p A^-1 = adj A, all minors of [A | I] (Bareiss 1968).  Step k
    reads nothing left of column k, so rows drop it.
    """
    n = len(rows)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        # a[i][0] is column k of row i
        if a[k][0] == 0:
            raise ValueError(f"zero pivot at step {k}: a leading minor of the matrix is 0")
        pivot = a[k][0]
        row_k = a[k][1:]
        for i in range(n):
            if i == k:
                a[i] = row_k
            else:
                aik = a[i][0]
                a[i] = [(x * pivot - aik * y) // prev for x, y in zip(a[i][1:], row_k)]
        prev = pivot
    return prev, a


# A flip at slot (i, j) with current sign s = a_ij gives A' = A + U W with
# U = [e_i, e_j] and W = [-2s e_j^T; 2s e_i^T].  With D = det A != 0 and
# B = adj A = D A^-1, the matrix determinant lemma gives
# D det A' = det C, C = D I_2 + W B U, a polynomial identity, so both exact
# integer divisions below are exact.  Only the unit-diagonal climb uses these;
# the zero-diagonal one flips Pfaffians (_pfaffian_flip).


def _flip_det(det: int, adj: list[list[int]], i: int, j: int, s: int) -> int:
    """det A' of the flip at (i, j) from det A != 0 and adj A of a
    unit-diagonal matrix, in O(1)."""
    t = 2 * s
    return ((det - t * adj[j][i]) * (det + t * adj[i][j]) + 4 * adj[i][i] * adj[j][j]) // det


def _flip_adjugate(
    det: int, new_det: int, adj: list[list[int]], i: int, j: int, s: int
) -> list[list[int]]:
    """adj A' of the flip at (i, j) of a unit-diagonal matrix, in O(n^2).

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


def _divide_exact(x: np.ndarray, divisor: np.ndarray, out: np.ndarray | None = None):
    """x //= divisor in place for an int64 x that divisor divides exactly, at a
    third of the cost of int64 floor division: a float64 divide, then rint.

    Exact when |divisor| <= 2^53, so float64 holds it, and the quotient q is
    an integer with |q| < 2^51: x and x / divisor each round with relative
    error at most 2^-53, so the float quotient is within (2^-52 + 2^-106) |q|
    < 1/2 of q, and rint gives q.  out, if given, is float64 scratch of x's
    shape."""
    quotient = np.divide(x, divisor, out=out)
    x[...] = np.rint(quotient, out=quotient)


def _bareiss_batch(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a (k, n, n) stack of unit-diagonal +-1 skew-type
    matrices (A + A^T = 2I), n <= BATCH_LIMIT.

    Fraction-free (Bareiss) elimination, run on every matrix at once in
    int64 with no row swaps: the pivot at step c is the leading minor
    det(I + S_c), S_c skew with eigenvalues 0 and +-i mu, so it is
    prod(1 + mu^2) >= 1.  The stack is held as (n, n, k) so that each
    elementwise step runs over k contiguous values.
    """
    n = mats.shape[1]
    a = np.ascontiguousarray(mats.transpose(1, 2, 0), dtype=np.int64)
    for c in range(n - 1):
        sub = a[c + 1 :, c + 1 :]
        sub *= a[c, c]
        sub -= a[c + 1 :, c, None] * a[c, None, c + 1 :]
        if c:
            # the quotient and the divisor are minors, at most n^(n/2) <= 2^32
            _divide_exact(sub, a[c - 1, c - 1])
    return a[n - 1, n - 1]


# Largest n for which _pfaffian_batch is exact in int64.  A zero-diagonal +-1
# matrix of order m has Hadamard bound (m-1)^(m/2) on |det|, so its Pfaffian
# is at most (m-1)^(m/4).  Every operand of an update is a Pfaffian of order
# at most n - 2, at most B = (n-3)^((n-2)/4), so each partial sum of the three
# products is at most 2 B^2 = 2 * 25^13 < 2^62 at n = 28, and the finished sum
# is an order-(n-4) Pfaffian times an order-n one, at most 23^6 * 27^7 < 2^61.
# At n = 30 the bound on one product is 27^14 > 2^66.
PFAFFIAN_LIMIT = 28

# Primes for the CRT routes, the largest ten below 2^26.  The CRT gives a value
# mod M in (-M/2, M/2), which is the value itself once M > 2 |value|.  By
# Hadamard |det| <= n^(n/2) and |Pf| <= n^(n/4), so det takes 2 primes at
# n = 17, 4 at n = 32 and all ten at n = N_LIMIT = 80 (2 * 80^40 < 2^254 < M),
# and Pf half as many: 2 at n = 32, 3 at n = 48 and 5 at n = 80.
#
# The kernels keep residues r with |r| <= (p + 1) / 2 <= 2^25 (p < 2^26 odd).
# An update adds at most three products of residues, so |x| <= 3 * 2^50 < 2^52
# is exact in float64.  The float product x * (1/p) is within 2^-52 |x| / p
# <= 1 / p of x / p, so q = rint of it has |x / p - q| <= 1/2 + 1/p, p * q is
# an exact integer below 2^53, and x - p * q is an integer of magnitude at most
# p / 2 + 1, hence at most (p + 1) / 2 again.
MODULAR_PRIMES = (
    67108859, 67108837, 67108819, 67108777, 67108763,
    67108757, 67108753, 67108747, 67108739, 67108729,
)
# Bytes of the float64 (n, n, k) stack of one _modular_dets call; its scratch
# buffer is as large, so the working set is bounded for every n (k = 128 at
# n = 32, 20 at n = 80).  The Pfaffian route takes blocks of the same k, whose
# packed triangle is half that size.
MODULAR_BYTES = 1 << 20


def _crt_basis(n: int, root: int) -> tuple[list[int], int, list[int]]:
    """The fewest leading MODULAR_PRIMES whose product M exceeds twice the
    bound n^(n/root) (root 2 for a determinant, 4 for a Pfaffian), M, and the
    CRT weights (M / p) * ((M / p)^-1 mod p), one per prime."""
    bound = 2**root * n**n  # M > 2 n^(n/root) exactly when M^root > 2^root n^n
    primes = []
    modulus = 1
    for p in MODULAR_PRIMES:
        if modulus**root > bound:
            break
        primes.append(p)
        modulus *= p
    if modulus**root <= bound:
        raise ValueError(f"MODULAR_PRIMES do not cover the Hadamard bound at n = {n}")
    return primes, modulus, [modulus // p * pow(modulus // p, -1, p) for p in primes]


def _crt(n: int, base: np.ndarray, kernel, root: int) -> np.ndarray:
    """Exact integers, as an object array, from their residues mod each prime
    of _crt_basis(n, root): kernel(a, scratch, p) gives them in [0, p) for a
    float64 copy a of base, which it overwrites."""
    primes, modulus, weights = _crt_basis(n, root)
    a = np.empty(base.shape)
    scratch = np.empty((n - 1) * (n - 1) * base.shape[-1])
    total = [0] * base.shape[-1]
    for p, weight in zip(primes, weights):
        np.copyto(a, base)
        total = [t + r * weight for t, r in zip(total, kernel(a, scratch, p))]
    half = modulus // 2
    values = [t % modulus for t in total]
    return np.array([v - modulus if v > half else v for v in values], dtype=object)


def _modular_dets(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a (k, n, n) stack of +-1/0 matrices, any n, as an
    object array of Python ints: det mod p by _det_mod on one (n, n, k) stack,
    then the signed det by the CRT."""
    n = mats.shape[1]
    return _crt(n, np.ascontiguousarray(mats.transpose(1, 2, 0)), _det_mod, 2)


def _det_mod(a: np.ndarray, scratch: np.ndarray, p: int) -> list[int]:
    """det mod p, in [0, p), of each matrix of an (n, n, k) float64 stack of
    residues, which it overwrites.

    Division-free elimination: step c maps the block below and right of the
    pivot q_c to q_c x - a_ic a_cj, which scales the Schur complement by
    F_(c+1) = q_0 ... q_c.  So the last entry is F_(n-1) times the last Schur
    pivot, and det = last / (F_1 ... F_(n-2)), with one inverse per matrix.
    A pivot 0 mod p takes the first later row non-zero in its column added,
    which keeps det.  A column that is zero mod p from the pivot down leaves
    pivot 0, which zeroes the rest of the block, so the residue is 0.
    """
    n, _, k = a.shape
    # a2[i, j * k + m] is entry (i, j) of matrix m, so a2[i, j * k :] holds
    # columns j..n-1 of row i of every matrix
    a2 = a.reshape(n, n * k)
    tiled = np.empty((n - 1, k))
    prefix = np.ones(k)  # F_c before step c
    den = np.ones(k)  # F_0 ... F_c after step c
    for c in range(n - 1):
        # first row at or below c with a non-zero residue in column c
        first = (a[c:, c] != 0).argmax(axis=0)
        fix = np.flatnonzero(first)
        if len(fix):
            a[c, c:, fix] = _reduce_mod(a[c, c:, fix] + a[first[fix] + c, c:, fix], p)
        pivot = a[c, c]
        den = _reduce_mod(den * prefix, p)
        prefix = _reduce_mod(prefix * pivot, p)
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
        _reduce_mod(sub, p, tmp)
    return _divide_mod(a[n - 1, n - 1], den, p)


def _reduce_mod(x: np.ndarray, p: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """x - p rint(x / p) in place, the residue of x mod p of magnitude at most
    (p + 1) / 2 (see MODULAR_PRIMES), and x; scratch, if given, is float64
    of x's shape."""
    tmp = np.multiply(x, 1.0 / p, out=scratch)
    np.rint(tmp, out=tmp)
    tmp *= p
    x -= tmp
    return x


def _divide_mod(lasts: np.ndarray, dens: np.ndarray, p: int) -> list[int]:
    """last / den mod p, in [0, p), per matrix, from float64 residues.  den is
    0 only after a zero pivot, which has made last 0 as well."""
    lasts, dens = lasts.astype(np.int64).tolist(), dens.astype(np.int64).tolist()
    return [last * pow(d, -1, p) % p if last else 0 for last, d in zip(lasts, dens)]


# A zero-diagonal skew matrix is held by its strict upper triangle, packed row
# by row in np.triu_indices order: a (m, k) stack, slot s of matrix j in row
# s, which is the transpose of a (k, m) sign block.  With a = a[c, c+1] != 0,
# eliminating rows and columns c, c+1 leaves the skew Schur complement
# S_ij = a_ij - (a_ci a_(c+1)j - a_(c+1)i a_cj) / a, Pf A = a Pf S, and rows
# i < j of S read only rows c and c+1 and the upper triangle: the trailing
# block of the packed stack is again the packed triangle of its own order.


@cache
def _row_starts(n: int) -> tuple[int, ...]:
    """Slot where row i of the packed triangle, entries (i, i+1..n-1), starts,
    for i = 0..n; the last is m."""
    return tuple(i * n - i * (i + 1) // 2 for i in range(n + 1))


@cache
def _triangle(r: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of each packed slot of order r."""
    return np.triu_indices(r, k=1)


def _skew_update(packed: np.ndarray, n: int, c: int, scratch: np.ndarray) -> np.ndarray:
    """Map the packed rows below c + 1 to q x_ij - u_i v_j + v_i u_j in place,
    with q = a[c, c+1] and u, v rows c, c+1 right of column c + 1, and return
    them; scratch holds at least (n-2)(n-3) k values of packed's dtype."""
    starts = _row_starts(n)
    k = packed.shape[1]
    row_i, col_j = _triangle(n - 2 - c)
    size = len(row_i) * k
    left = scratch[:size].reshape(-1, k)
    right = scratch[size : 2 * size].reshape(-1, k)
    u = packed[starts[c] + 1 : starts[c + 1]]
    v = packed[starts[c + 1] : starts[c + 2]]
    block = packed[starts[c + 2] :]
    block *= packed[starts[c]]
    u.take(row_i, axis=0, out=left)
    v.take(col_j, axis=0, out=right)
    left *= right
    block -= left
    v.take(row_i, axis=0, out=left)
    u.take(col_j, axis=0, out=right)
    left *= right
    block += left
    return block


def _pfaffian_batch(packed: np.ndarray) -> np.ndarray:
    """Exact Pfaffians of a packed (m, k) int64 stack of zero-diagonal +-1 skew
    matrices of even order n <= PFAFFIAN_LIMIT, which it overwrites.

    Fraction-free skew elimination, two rows and columns per step, exact in
    int64 with no pivoting: dividing each updated entry by the previous pivot
    is exact, and after the step on rows c, c + 1 entry (i, j) is the Pfaffian
    of rows and columns 0..c+1, i, j (the Pfaffian form of Sylvester's
    identity).  So the pivot a[c, c+1] is the leading Pfaffian of order c + 2,
    a sum of (c+1)!! terms +-1: odd, hence never 0.  It stays in its slot, and
    Pf is the last entry.
    """
    m, k = packed.shape
    n = (1 + math.isqrt(1 + 8 * m)) // 2
    size = (n - 2) * (n - 3) // 2 * k
    scratch = np.empty(2 * size, dtype=np.int64)
    quotient = np.empty(size)
    starts = _row_starts(n)
    for c in range(0, n - 2, 2):
        block = _skew_update(packed, n, c, scratch)
        if c:
            # the quotient and the divisor are Pfaffians of order at most n,
            # below (n-1)^(n/4) < 2^34
            _divide_exact(block, packed[starts[c - 2]], quotient[: block.size].reshape(block.shape))
    return packed[m - 1]


def _pf_mod(a: np.ndarray, scratch: np.ndarray, p: int) -> list[int]:
    """Pf mod p, in [0, p), of each matrix of a packed (m, k) float64 stack of
    residues, which it overwrites.

    Division-free skew elimination: the step on rows c, c + 1 maps the block
    below them to q x - u_i v_j + v_i u_j, which scales the Schur complement
    by G_(s+1) = q_0 ... q_s, s = c / 2.  So the last entry is G_(h-1) times
    the last Schur pivot, h = n / 2, and Pf = last / (G_0 ... G_(h-2)), with
    one inverse per matrix.  A pivot that is 0 mod p while row c has a
    non-zero residue at t takes row and column t added to row and column
    c + 1, a congruence by a unimodular matrix that keeps Pf.  A row c that is
    zero mod p leaves pivot 0, which zeroes the rest of the block, so
    last = 0 and the residue is 0.
    """
    m, k = a.shape
    n = (1 + math.isqrt(1 + 8 * m)) // 2
    starts = _row_starts(n)
    prefix = np.ones(k)  # G_s before step s
    den = np.ones(k)  # G_0 ... G_s after step s
    for c in range(0, n - 2, 2):
        # row c from column c + 1: the first non-zero residue, if not the pivot
        row_c = a[starts[c] : starts[c + 1]]
        first = (row_c != 0).argmax(axis=0)
        fix = np.flatnonzero(first)
        if len(fix):
            _add_row(a, n, c, first[fix] + c + 1, fix)
            row = a[starts[c + 1] : starts[c + 2]]
            row[:, fix] = _reduce_mod(row[:, fix], p)
        den = _reduce_mod(den * prefix, p)
        prefix = _reduce_mod(prefix * a[starts[c]], p)
        block = _skew_update(a, n, c, scratch)
        _reduce_mod(block, p, scratch[: block.size].reshape(block.shape))
    return _divide_mod(a[m - 1], den, p)


def _add_row(a: np.ndarray, n: int, c: int, t: np.ndarray, which: np.ndarray):
    """Add row and column t[w] to row and column c + 1 of matrix which[w] of a
    packed stack, in the entries the elimination still reads: a[c, c+1] and
    row c + 1 right of column c + 1."""
    starts = _row_starts(n)
    # dense row t right of column c + 1, (i, j) with i < j in slot
    # starts[i] + j - i - 1: a[t, j] = -a[j, t] below the diagonal, a[t, t] = 0
    cols = np.arange(c + 2, n)
    offset = cols - t[:, None]
    slots = np.take(starts, np.minimum(cols, t[:, None])) + np.abs(offset) - 1
    row_t = a[slots, which[:, None]] * np.sign(offset)
    a[starts[c + 1] : starts[c + 2], which] += row_t.T
    # a[c, c+1] is 0, so adding a[c, t] sets it
    a[starts[c], which] = a[starts[c] + t - c - 1, which]


def _pfaffians(n: int, signs: np.ndarray) -> np.ndarray:
    """Pfaffians of the zero-diagonal skew matrices of a (k, m) sign block, n
    even: in int64 up to PFAFFIAN_LIMIT, past it by the CRT over Pf mod p."""
    if n <= PFAFFIAN_LIMIT:
        return _pfaffian_batch(np.ascontiguousarray(signs.T, dtype=np.int64))
    return _crt(n, signs.T, _pf_mod, 4)


def _block_stats(n: int, signs: np.ndarray, convention: str) -> tuple[int, int, int, int]:
    """(sum |d|, sum d^2, sum d^4, max |d|) over a (k, m) block of sign vectors, k >= 1."""
    if _all_singular(n, convention):
        return 0, 0, 0, 0
    zero = convention == "zero"
    if n <= (PFAFFIAN_LIMIT if zero else BATCH_LIMIT):
        size = BATCH_SIZE
    else:
        # past int64: residues mod word-size primes, in sub-blocks of k
        # matrices whose float64 (n, n, k) stack is about MODULAR_BYTES
        size = max(1, MODULAR_BYTES // (8 * n * n))
    values = []
    for start in range(0, len(signs), size):
        block = signs[start : start + size]
        if zero:
            values += _pfaffians(n, block).tolist()
        else:
            kernel = _bareiss_batch if n <= BATCH_LIMIT else _modular_dets
            values += kernel(_matrices(n, block, convention)).tolist()
    # Python ints from here: d^2 overflows int64 from n = 16, d^4 from n = 10;
    # with zero diagonal det = Pf^2
    absdets = list(map(mul, values, values)) if zero else list(map(abs, values))
    squares = list(map(mul, absdets, absdets))
    return sum(absdets), sum(squares), sum(map(mul, squares, squares)), max(absdets)


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
        # power means s2 >= s1, exactly; violation means broken accumulators
        if self.count * self.sum_det2 < self.sum_absdet**2:
            raise ValueError("s2 < s1 violates the power-mean inequality")


def enumerate_stats(n: int, convention: str = "zero") -> DetStats:
    """Exact s1, s2 and max over every sign assignment (2^(n(n-1)/2) matrices)."""
    _require_convention(convention)
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
    parts = (
        _enum_chunk(n, start, min(start + MC_CHUNK, classes), convention)
        for start in range(0, classes, MC_CHUNK)
    )
    return _det_stats(n, convention, parts, 1 << m, weight=1 << (n - 1))


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
    key = np.array([seed, chunk_index], dtype=np.uint64)
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
    _require_convention(convention)
    if n < 1:
        raise ValueError("n must be positive")
    if n > N_LIMIT:
        raise ValueError(f"n must be at most {N_LIMIT}")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    _require_seed(seed)
    resolve_threads(threads)
    # chunks run serially: the numpy steps of the int64 batched kernels are
    # too short to overlap, so a second thread never paid (with Bareiss,
    # mc_stats(10, 20000), 2 CPUs: 0.097-0.100 s at 1 thread, 0.098-0.103 s
    # at 2)
    parts = (
        _mc_chunk(n, seed, i, min(MC_CHUNK, samples - start), convention)
        for i, start in enumerate(range(0, samples, MC_CHUNK))
    )
    return _det_stats(n, convention, parts, samples, seed=seed)


def _det_stats(
    n: int, convention: str, parts: Iterable, count: int, weight: int = 1,
    seed: int | None = None,
) -> DetStats:
    """DetStats over count matrices from the per-chunk _block_stats sums of
    the matrices walked, each standing for weight of them (enumeration walks
    one per class).  Each chunk is folded into running totals as it comes, so
    memory does not grow with the chunk count.  A seed marks a Monte Carlo
    estimate, with standard errors from the unbiased sample variances.  s1 is
    the correctly rounded quotient of exact integers, as int / int rounds
    once, and s2 the correctly rounded root of one (sqrt_ratio); each
    standard error rounds its variance quotient, its root and, for s2, one
    division.  The variances are >= 0 exactly (Cauchy-Schwarz), so their
    roundings are too."""
    sum_abs = sum_d2 = sum_d4 = max_abs = 0
    for part_abs, part_d2, part_d4, part_max in parts:
        sum_abs += part_abs
        sum_d2 += part_d2
        sum_d4 += part_d4
        max_abs = max(max_abs, part_max)
    sum_abs, sum_d2, sum_d4 = sum_abs * weight, sum_d2 * weight, sum_d4 * weight
    s1 = sum_abs / count
    s2 = sqrt_ratio(sum_d2, count)
    stderr_s1 = stderr_s2 = None
    if seed is not None:
        N = count
        stderr_s1 = math.sqrt((N * sum_d2 - sum_abs**2) / (N * (N - 1)) / N)
        se_m2 = math.sqrt((N * sum_d4 - sum_d2**2) / (N * (N - 1)) / N)
        stderr_s2 = se_m2 / (2 * s2) if s2 > 0 else 0.0
    return DetStats(
        n=n, mode="exact" if seed is None else "monte-carlo", convention=convention,
        count=count, s1=s1, s2=s2, sum_absdet=sum_abs, sum_det2=sum_d2,
        max_abs_det=max_abs,
        stderr_s1=stderr_s1, stderr_s2=stderr_s2, seed=seed,
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
    """Existence bound s2^2 / s1 for the max |det| over the ensemble, as the
    one correctly rounded quotient sum det^2 / sum |det| of exact integers.

    In exact mode the recorded maximum must already meet it (finite-support
    tail bound), max * sum |det| >= sum det^2 in exact integers; a miss raises
    TheoremViolationError, since that can only be an accounting bug.
    """
    if stats.s1 <= 0:
        raise ValueError(
            "s1 = 0 (degenerate ensemble, e.g. odd n with zero diagonal): "
            "no bound available"
        )
    bound = stats.sum_det2 / stats.sum_absdet
    if stats.mode == "exact" and stats.max_abs_det * stats.sum_absdet < stats.sum_det2:
        raise TheoremViolationError(
            f"enumerated max {stats.max_abs_det} misses exact bound "
            f"{stats.sum_det2} / {stats.sum_absdet}"
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


# The zero-diagonal climb at even n keeps P = Pf A and the skew cofactor matrix
# C = P A^-1, so adj A = P C.  For i < j, C_ij = (-1)^(i+j) Pf(A_ij), A_ij being
# A with rows and columns i, j deleted, and Pf A = -sum_j a_0j C_0j along row 0.
# Pf A is affine in the pair a_ij = -a_ji with slope -C_ij, so the flip of slot
# (i, j) with sign s = a_ij gives P' = P + 2 s C_ij, and |det| rises exactly
# when |Pf| does.  For the flip A' = A + U W (see _flip_det), I + W A^-1 U is
# (P'/P) I_2, so Sherman-Morrison-Woodbury gives
# P C' = P' C + 2 s (C[:, i] C[j, :] - C[:, j] C[i, :]), outer products,
# an exact integer division.
#
# Largest n for which that climb runs in int64.  By Hadamard a Pfaffian of
# order r is at most (r-1)^(r/4), so |C| <= B = (n-3)^((n-2)/4) and
# |P'| <= (n-1)^(n/4); every partial sum of the numerator is at most
# |P'| B + 4 B^2 = 25^6.5 * 23^6 + 4 * 23^12 < 2^59 at n = 26, whereas
# |P'| B alone may reach 27^7 * 25^6.5 > 2^63 at n = 28.  Past it the same
# climb runs on object arrays of Python ints.
CLIMB_LIMIT = 26


@cache
def _minor_slots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For each slot (i, j) of order n, the slots of A that hold the packed
    triangle of A_ij, one (m, m') row each, and whether i + j is odd.

    Deleting rows and columns i, j keeps the order of the rest: position a
    of A_ij is index a + [a >= i] + [a >= j - 1] of A."""
    iu, ju = _triangle(n)
    index = np.zeros((n, n), dtype=np.intp)
    index[iu, ju] = np.arange(len(iu))
    a = np.arange(n - 2)
    kept = a + (a >= iu[:, None]) + (a >= ju[:, None] - 1)
    ru, rv = _triangle(n - 2)
    return index[kept[:, ru], kept[:, rv]], (iu + ju) % 2 == 1


def _pfaffian_start(n: int, signs: np.ndarray) -> tuple[int, np.ndarray]:
    """(Pf A, C = Pf(A) A^-1) of the zero-diagonal matrix A of a packed sign
    vector, n even: an (n, n) int64 array up to CLIMB_LIMIT, an object array
    of Python ints past it.

    Up to CLIMB_LIMIT the m minors come from one batched _pfaffians call.
    Past it they would cost O(n^5), 7.8 s at n = 80, so C = adj(A) / Pf A
    comes from _adjugate of A Q, A with columns 2k and 2k + 1 swapped for
    every k: adj A = det(Q) Q adj(A Q), where det Q = (-1)^(n/2) and Q adj(A Q)
    is adj(A Q) with its rows swapped in the same pairs."""
    if n > CLIMB_LIMIT:
        pairs = np.arange(n) ^ 1
        rows = _matrices(n, signs[None], "zero")[0]
        adj = np.array(_adjugate(rows[:, pairs].tolist())[1], dtype=object)[pairs]
        pf = int(_pfaffians(n, signs[None])[0])
        return pf, adj // (-pf if n % 4 else pf)
    slots, odd = _minor_slots(n)
    # at n = 2 the one minor is the empty matrix, whose Pfaffian is 1
    minors = _pfaffians(n - 2, signs[slots]) if n > 2 else np.ones(1, dtype=np.int64)
    upper = np.where(odd, -minors, minors)
    iu, ju = _triangle(n)
    cof = np.zeros((n, n), dtype=np.int64)
    cof[iu, ju] = upper
    cof[ju, iu] = -upper
    # row 0 is slots 0..n-2
    return -sum(map(mul, signs[: n - 1].tolist(), upper[: n - 1].tolist())), cof


def _pfaffian_flip(pf: int, new_pf: int, cof: np.ndarray, i: int, j: int, s: int) -> np.ndarray:
    """C' of the flip at (i, j) with sign s = a_ij, from Pf A, Pf A' and C,
    in C's dtype."""
    out = cof[:, i, None] * cof[j]
    out -= cof[:, j, None] * cof[i]
    out *= 2 * s
    out += new_pf * cof
    out //= pf
    return out


def _pfaffian_climb(n: int, signs: np.ndarray, evals: int, budget: int):
    """One zero-diagonal climb at even n from a packed sign vector: (|det| of
    its last matrix, that matrix's signs, evaluations so far)."""
    iu, ju = _triangle(n)
    flat = iu * n + ju
    pf, cof = _pfaffian_start(n, signs)
    signs = signs.astype(np.int64)
    evals += 1
    while evals < budget:
        # the flips of this sweep that the budget leaves, scored at once
        todo = min(len(flat), budget - evals)
        flips = cof.take(flat[:todo])
        flips *= 2 * signs[:todo]
        flips += pf
        better = np.abs(flips) > abs(pf)
        t = int(better.argmax())
        if not better[t]:
            evals += todo
            break
        # first improvement: keep the flip and restart the sweep
        evals += t + 1
        s = int(signs[t])
        new_pf = int(flips[t])
        cof = _pfaffian_flip(pf, new_pf, cof, int(iu[t]), int(ju[t]), s)
        signs[t] = -s
        pf = new_pf
    return pf * pf, tuple(signs.tolist()), evals


def _adjugate_climb(n: int, signs: np.ndarray, evals: int, budget: int):
    """One unit-diagonal climb, the same contract as _pfaffian_climb."""
    rows = _matrices(n, signs[None], "unit")[0].tolist()
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    det, adj = _adjugate(rows)
    evals += 1
    improved = True
    while improved and evals < budget:
        improved = False
        for i, j in slots:
            if evals >= budget:
                break
            s = rows[i][j]
            d = _flip_det(det, adj, i, j, s)
            evals += 1
            if abs(d) > abs(det):
                # first improvement: keep the flip and restart the sweep
                rows[i][j], rows[j][i] = -s, s
                adj = _flip_adjugate(det, d, adj, i, j, s)
                det = d
                improved = True
                break
    return abs(det), tuple(rows[i][j] for i, j in slots), evals


def search_high_det(
    n: int, budget: int, seed: int = 0, convention: str = "zero"
) -> SearchResult:
    """Random-restart greedy single-flip hill climbing on |det|.

    budget counts determinant evaluations.  The trajectory depends only on
    (n, seed, convention), so the best value is non-decreasing in budget.

    Each climb keeps an exact state of its current matrix A from which every
    flip, a change of two entries, is scored exactly: Pf A and its cofactor
    matrix for zero diagonal (_pfaffian_climb), det A and adj A for unit
    diagonal (_adjugate_climb).  The only singular matrices are those with
    zero diagonal and odd n: for even n det = Pf^2 and the Pfaffian is a sum
    of an odd number of +-1 terms, and det(I + S) >= 1 for skew S.  With odd
    n and zero diagonal every evaluation gives 0, so the result (the first
    start matrix, |det| 0, budget evaluations) is returned without climbing.
    """
    _require_convention(convention)
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > N_LIMIT:
        raise ValueError(f"n must be at most {N_LIMIT}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    _require_seed(seed)
    key = np.array([seed, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    m = n * (n - 1) // 2

    best_upper = ()
    best_det = -1
    evals = 0
    if _all_singular(n, convention):
        # every matrix is singular: the first start stays best, and the climb
        # only spends the budget on zeros
        signs = rng.integers(0, 2, size=(1, m), dtype=np.int8) * 2 - 1
        best_upper, best_det, evals = tuple(signs[0].tolist()), 0, budget

    climb = _pfaffian_climb if convention == "zero" else _adjugate_climb
    while evals < budget:
        signs = rng.integers(0, 2, size=(1, m), dtype=np.int8) * 2 - 1
        abs_det, upper, evals = climb(n, signs[0], evals, budget)
        # |det| only rises along a climb, so its last matrix is its best
        if abs_det > best_det:
            best_det, best_upper = abs_det, upper

    # log 0 = -inf gives ratio 0.0
    best = LogReal(math.log(best_det) if best_det else -math.inf)
    return SearchResult(
        matrix=SkewSignMatrix(n, best_upper, convention),
        abs_det=best_det,
        evaluations=evals,
        ratio_to_existence_bound=best.ratio_to(det_existence_bound(n)),
        ratio_to_s1_asym=None if n % 2 else best.ratio_to(szekeres_s1_asym(n)),
    )
