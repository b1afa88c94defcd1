"""Independent reference implementations used only by the tests.

Each oracle deliberately avoids the code path it checks: the zeta oracles run
in mpmath arithmetic with their own series, or (the exp-outer Euler-Maclaurin
sum and the masked Riemann-Siegel loop) take one transcendental call per
(node, term) where the package multiplies rows, the determinant oracles are
plain cofactor expansion and scalar Bareiss elimination with row swaps (no
batched kernel swaps rows), the Pfaffian oracle expands along the first row,
the square-root oracle steps from float to float against exact midpoints,
the involution oracle walks every permutation, the degree oracle multiplies
the hook length of every cell, the partition oracle sorts the parts of every
composition, the distribution oracles sum per-entry generators over (value,
weight) pairs, the Simpson oracle builds its nodes and weights one by one and
sums them with math.fsum, and the CSV oracle reads every file through
csv.reader one row at a time.  The functions at the end are not oracles:
they compute quantities that no command reports, for the tests that check
them.
"""

import csv
import itertools
import math
import struct
import sys
from fractions import Fraction
from typing import IO

import mpmath as mp
import numpy as np

from momenttail.moments import (
    DistributionFormatError,
    EmpiricalDistribution,
    InvalidEntryError,
    _tail_sums,
)
from momenttail.skewdet import SkewSignMatrix
from momenttail.zeta import T_SWITCH, MomentEstimate, zeta_abs_grid


def zeta_abs_eta_oracle(t: float, terms: int = 10_000, averages: int = 40,
                        dps: int = 40) -> float:
    """|zeta(1/2+it)| from the alternating (eta) series with >= `terms` terms.

    Partial sums past `terms` are collapsed by repeated averaging, which
    converges fast because consecutive terms differ by O(t/n); the result is
    exact to far beyond float precision for t up to a few hundred.
    """
    with mp.workdps(dps):
        s = mp.mpc(mp.mpf(1) / 2, t)
        partial = mp.mpf(0)
        sign = 1
        for n in range(1, terms):
            partial += sign * mp.power(n, -s)
            sign = -sign
        tail = []
        acc = partial
        for n in range(terms, terms + averages + 1):
            acc = acc + sign * mp.power(n, -s)
            sign = -sign
            tail.append(acc)
        while len(tail) > 1:
            tail = [(tail[i] + tail[i + 1]) / 2 for i in range(len(tail) - 1)]
        zeta = tail[0] / (1 - mp.power(2, 1 - s))
        return float(abs(zeta))


def zeta_abs_em_oracle(t: float, n_terms: int = 300, m_terms: int = 24,
                       dps: int = 40) -> float:
    """|zeta(1/2+it)| from a high-order Euler-Maclaurin sum in mpmath."""
    with mp.workdps(dps):
        s = mp.mpc(mp.mpf(1) / 2, t)
        N = n_terms
        total = mp.fsum(mp.power(n, -s) for n in range(1, N + 1))
        total += mp.power(N, 1 - s) / (s - 1) - mp.power(N, -s) / 2
        poch = s
        for k in range(1, m_terms + 1):
            total += (
                mp.bernoulli(2 * k) / mp.factorial(2 * k)
                * poch
                * mp.power(N, -s - 2 * k + 1)
            )
            poch *= (s + 2 * k - 1) * (s + 2 * k)
        return float(abs(total))


# B_{2k}, k = 1..12, for the Euler-Maclaurin corrections below
_B2K = [
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730,
]


def zeta_abs_em_exp_outer(ts, n_terms: int | None = None) -> np.ndarray:
    """|zeta(1/2+it)| by Euler-Maclaurin with one complex exp per (node, term).

    The Dirichlet sum is a (nodes x N) outer product of exp(-s log n), and N
    comes from the largest t of the call (max(16, ceil(2 max t) + 8)) unless
    n_terms is given.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    tmax = float(np.max(np.abs(ts)))
    N = n_terms if n_terms is not None else max(16, int(math.ceil(2.0 * tmax)) + 8)
    s = 0.5 + 1j * ts
    logn = np.log(np.arange(1, N + 1, dtype=float))
    total = np.exp(-s[:, None] * logn[None, :]).sum(axis=1)
    logN = logn[-1]
    total += np.exp((1 - s) * logN) / (s - 1) - 0.5 * np.exp(-s * logN)
    poch = s.copy()
    fact = 1.0
    for k in range(1, 13):
        fact *= (2 * k - 1) * (2 * k)
        total += (_B2K[k - 1] / fact) * poch * np.exp(-(s + (2 * k - 1)) * logN)
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
    return np.abs(total)


def rs_main_sum_masked(ts, theta) -> np.ndarray:
    """Riemann-Siegel main sum 2 sum_{n<=N} cos(theta - t log n) / sqrt(n),
    N = floor(sqrt(t/2pi)), one masked cos pass per n; 0 where N = 0."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    th = np.asarray(theta, dtype=float)
    N = np.floor(np.sqrt(ts / (2 * math.pi))).astype(np.int64)
    z = np.zeros_like(ts)
    for n in range(1, int(N.max()) + 1 if N.size else 1):
        mask = N >= n
        z[mask] += (2.0 / math.sqrt(n)) * np.cos(th[mask] - ts[mask] * math.log(n))
    return z


def psi_sinc(p) -> np.ndarray:
    """psi(p) = cos(2pi(p^2-p-1/16))/cos(2pi p) for p in [0,1], entire in p.

    Evaluated through sin-quotient rearrangements centered on the removable
    zeros of the denominator at p = 1/4 (used on [0, 1/2]) and p = 3/4
    (used on (1/2, 1]), so no cancellation occurs anywhere in [0, 1].  Each
    is evaluated only on its own half, where its sinc denominator has no zero.
    The float reference for the fitted zeta._PSI_EVEN on dense grids.
    """
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    low = p <= 0.5
    u = p[low] - 0.25
    out[low] = ((1 - 2 * u) / 2) * np.sinc(u - 2 * u * u) / np.sinc(2 * u)
    v = p[~low] - 0.75
    out[~low] = ((1 + 2 * v) / 2) * np.sinc(v + 2 * v * v) / np.sinc(2 * v)
    return out


def psi_mp(p):
    """psi(p) in mpmath at the working precision."""
    return mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * p)


def second_correction_mp(p):
    """-psi'''(p)/(96 pi^2), the second Riemann-Siegel correction, in mpmath."""
    return -mp.diff(psi_mp, p, 3) / (96 * mp.pi**2)


def rs_correction_fit(odd: bool, degree: int) -> tuple[float, ...]:
    """Monomial coefficients in s = (2p - 1)^2 of P (psi(p) = P(s)), or with
    odd of Q (-psi'''(p)/(96 pi^2) = (2p - 1) Q(s)), each rounded once.

    The interpolant in s at the degree + 1 Chebyshev points of [0, 1] is
    solved for in monomials in mpmath at 40 digits.
    """
    with mp.workdps(40):
        def f(s):
            y = mp.sqrt(s)
            p = (1 + y) / 2
            return second_correction_mp(p) / y if odd else psi_mp(p)

        m = degree + 1
        nodes = [(1 + mp.cos(mp.pi * (2 * k + 1) / (2 * m))) / 2 for k in range(m)]
        vandermonde = mp.matrix([[x**i for i in range(m)] for x in nodes])
        coeffs = mp.lu_solve(vandermonde, mp.matrix([f(x) for x in nodes]))
        return tuple(float(c) for c in coeffs)


def det_cofactor(rows: list[list[int]]) -> int:
    """Exact determinant by first-row cofactor expansion (use only for tiny n)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * det_cofactor(minor)
    return total


def det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss 1968) elimination that
    swaps rows past a zero pivot and tracks the sign; every division below is
    exact."""
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


def det_exact(matrix: SkewSignMatrix) -> int:
    """Exact integer determinant of a sign matrix (det_bareiss)."""
    return det_bareiss(matrix.to_rows())


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


def sqrt_nearest(v: Fraction) -> float:
    """The float nearest sqrt(v), ties to even, for a rational v >= 0: step
    from math.sqrt(float(v)) until v lies between the squares of the
    midpoints from the float to its two neighbours."""
    x = math.sqrt(float(v))
    while True:
        lo = (Fraction(math.nextafter(x, 0.0)) + Fraction(x)) / 2
        hi = (Fraction(math.nextafter(x, math.inf)) + Fraction(x)) / 2
        odd = struct.unpack("<q", struct.pack("<d", x))[0] & 1
        if v < lo * lo or (v == lo * lo and odd):
            x = math.nextafter(x, 0.0)
        elif v > hi * hi or (v == hi * hi and odd):
            x = math.nextafter(x, math.inf)
        else:
            return x


def skew_from_bits(n: int, bits: int, convention: str = "zero") -> SkewSignMatrix:
    """Bit i of `bits` = 1 means +1 in the i-th upper-triangle slot."""
    m = n * (n - 1) // 2
    upper = tuple(1 if (bits >> i) & 1 else -1 for i in range(m))
    return SkewSignMatrix(n, upper, convention)


def involutions_bruteforce(n: int) -> int:
    """Count self-inverse permutations by checking all n! of them."""
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(perm[perm[i]] == i for i in range(n)):
            count += 1
    return count


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths of the Young diagram: part j counts the parts above j."""
    return tuple(sum(1 for p in parts if p > j) for j in range(max(parts, default=0)))


def degree_hooks(parts: tuple[int, ...]) -> int:
    """n! over the product of the hook lengths of every cell (Frame-Robinson-
    Thrall); ArithmeticError if that product does not divide n!."""
    cols = conjugate(parts)
    hooks = 1
    for i, p in enumerate(parts):
        for j in range(p):
            hooks *= (p - j) + (cols[j] - i) - 1
    degree, rest = divmod(math.factorial(sum(parts)), hooks)
    if rest:
        raise ArithmeticError(f"hook product {hooks} does not divide {sum(parts)}!")
    return degree


def partitions_bruteforce(n: int) -> set[tuple[int, ...]]:
    """Every partition of n as a tuple: the parts of each of the 2^(n-1)
    compositions, sorted in decreasing order."""
    if n == 0:
        return {()}
    out = set()
    for cuts in itertools.product((False, True), repeat=n - 1):
        ends = [i for i, cut in enumerate(cuts, 1) if cut] + [n]
        out.add(tuple(sorted((b - a for a, b in zip([0] + ends, ends)), reverse=True)))
    return out


def simpson_halving_estimate(T: float, H: float, k: int, step: float) -> MomentEstimate:
    """moment_integral with its convergence check, from one |zeta| grid.

    n = ceil(H / step), rounded up to even (at least 2), intervals at the
    full step h = H / n; the halved grid has 2n intervals of H / (2n), and
    its even nodes are the full-step nodes.  Simpson weights 1, 4, 2, ..., 4,
    1 times a third of the interval width are built per node, and each sum is
    one math.fsum.
    """
    n = max(2, math.ceil(H / step))
    n += n % 2
    h, h2 = H / n, H / (2 * n)
    zk = (zeta_abs_grid(np.array([T + h2 * j for j in range(2 * n + 1)])) ** k).tolist()

    def simpson(values, width):
        last = len(values) - 1
        return math.fsum((1 if j in (0, last) else 4 if j % 2 else 2) * (width / 3) * v
                         for j, v in enumerate(values))

    value, halved = simpson(zk[::2], h), simpson(zk, h2)
    return MomentEstimate(
        T=T, H=H, k=k, value=value, nodes=n + 1, step=h, halved_value=halved,
        convergence_delta=abs(value - halved) / max(abs(halved), 1e-300),
        coarse_step_warning=step > 0.25)


def trapezoid_moment(zeta_values, step: float, k: int) -> float:
    """Trapezoid-rule moment over equally spaced |zeta| samples."""
    zk = [z**k for z in zeta_values]
    return step * (math.fsum(zk) - 0.5 * (zk[0] + zk[-1]))


# Finite distributions as tuples of (value, weight) pairs, summed entry by
# entry in input order.  math.fsum is exactly rounded, so an implementation
# that forms the same products must agree bit for bit.


def total_weight_oracle(pairs) -> float:
    return math.fsum(w for _, w in pairs)


def mean_oracle(pairs) -> float:
    return math.fsum(v * w for v, w in pairs) / total_weight_oracle(pairs)


def normalize_oracle(pairs) -> tuple[tuple[float, float], ...]:
    total, mean = total_weight_oracle(pairs), mean_oracle(pairs)
    return tuple((v / mean, w / total) for v, w in pairs)


def moment_oracle(pairs, k: int) -> float:
    """sum(w * v^k) / sum(w) with one math.pow per entry.  Where the power
    overflows, the term is (w * v) * v ... instead, and ValueError if that is
    past float64 too; a finite sum past float64 raises ValueError as well."""
    terms = []
    for i, (v, w) in enumerate(pairs):
        try:
            terms.append(w * math.pow(v, k))
        except OverflowError:
            term = w
            for _ in range(k):
                term *= v
            if term == math.inf:
                raise ValueError(f"entry {i}: weight {w!r} * value {v!r}^{k} is past float64") from None
            terms.append(term)
    try:
        total = math.fsum(terms)
    except OverflowError:
        raise ValueError(f"moment {k} overflows float64: the terms w * v^{k} sum past "
                         f"{sys.float_info.max!r}") from None
    return total / total_weight_oracle(pairs)


def tail_second_moment_oracle(pairs, b: float) -> float:
    return math.fsum(w * v * v for v, w in pairs if v > b) / total_weight_oracle(pairs)


def rejection_oracle(pairs) -> str | None:
    """Message for the first rejected entry, checks in order, or None."""
    for value, weight in pairs:
        if not (math.isfinite(value) and math.isfinite(weight)):
            return "values and weights must be finite"
        if value < 0:
            return f"negative value {value}"
        if weight <= 0:
            return f"non-positive weight {weight}"
    return None


# The csv.reader loader that the block parser must agree with, kept as it
# was before plain files got their own route: one csv.reader row and two
# float() calls per line.


def load_distribution_csv_oracle(source: str | IO[str]) -> EmpiricalDistribution:
    """Read a `value,weight` CSV (header required) into a distribution.

    Raises DistributionFormatError with the offending 1-based line number:
    csv.reader's line_num when the row is read, which for a quoted row that
    spans lines is its last line.
    """
    if isinstance(source, str):
        with open(source, newline="", encoding="utf-8-sig") as fh:
            return load_distribution_csv_oracle(fh)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DistributionFormatError(1, "empty file, expected `value,weight` header")
    if [h.strip().lower() for h in header] != ["value", "weight"]:
        raise DistributionFormatError(reader.line_num, f"expected header `value,weight`, got {header}")

    values, weights = [], []
    lines = []  # reader.line_num of each entry kept
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise DistributionFormatError(reader.line_num, str(exc)) from None
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DistributionFormatError(reader.line_num, f"expected 2 fields, got {len(row)}")
        try:
            value = float(row[0])
            weight = float(row[1])
        except ValueError:
            raise DistributionFormatError(
                reader.line_num, f"non-numeric entry {row!r}"
            ) from None
        values.append(value)
        weights.append(weight)
        lines.append(reader.line_num)
    if not values:
        raise DistributionFormatError(2, "no data rows")
    try:
        return EmpiricalDistribution(np.column_stack((values, weights)))
    except InvalidEntryError as exc:
        raise DistributionFormatError(lines[exc.index], str(exc)) from None


# Not oracles: quantities that no `mtl` command reports.  tail_second_moment
# goes through the package's own tail sums, the path verify_theorem takes.

EULER_GAMMA = 0.5772156649015329


class InconsistentMomentsError(ValueError):
    """Raised when a supplied moment pair violates the Cauchy-Schwarz relation."""


def zeta_abs(t: float, t_switch: float = T_SWITCH) -> float:
    """|zeta(1/2+it)| at a single point t >= 0."""
    return float(zeta_abs_grid(np.array([float(t)]), t_switch)[0])


def ingham_main_term(T: float) -> float:
    """Main term of the second moment on [0, T]: T log(T/2pi) + (2g-1) T."""
    if not T > 0:
        raise ValueError("T must be positive")
    return T * math.log(T / (2 * math.pi)) + (2 * EULER_GAMMA - 1) * T


def fourth_moment_leading_term(T: float) -> float:
    """Leading term of the fourth moment on [0, T]: T log^4(T) / (2 pi^2).

    Leading order only; the full degree-4 polynomial in log T is not modeled,
    so use this as a comparator, not a prediction.
    """
    if not T > 1:
        raise ValueError("T must exceed 1")
    return T * math.log(T) ** 4 / (2 * math.pi**2)


def tail_second_moment(dist: EmpiricalDistribution, b: float) -> float:
    """Second-moment mass strictly above b: sum over v > b of w * v^2 / sum(w).

    The threshold is strict, so atoms sitting exactly at b are excluded.
    The sum is exactly rounded, the same float as math.fsum of the terms.
    """
    return _tail_sums(dist, [b])[0] / dist.total_weight


def max_lower_bound(m1: float, m2: float) -> float:
    """Existence bound max >= m2 / m1 from a first and second moment.

    Requires m1 > 0 and m2 >= m1^2 (any real distribution satisfies the
    latter); a pair violating it is not a moment pair.
    """
    if m1 <= 0:
        raise ValueError("first moment must be positive")
    if m2 < m1 * m1 * (1.0 - 1e-12):
        raise InconsistentMomentsError(
            f"m2 = {m2} < m1^2 = {m1 * m1}: not a legal moment pair"
        )
    return m2 / m1
