"""Independent reference implementations used only by the tests.

Each oracle deliberately avoids the code path it checks: the zeta oracles run
in mpmath arithmetic with their own series, or (the exp-outer Euler-Maclaurin
sum and the masked Riemann-Siegel loop) take one transcendental call per
(node, term) where the package multiplies rows, the determinant oracle is plain
cofactor expansion, the involution oracle walks every permutation, and the
distribution oracles sum per-entry generators over (value, weight) pairs.
"""

import itertools
import math

import mpmath as mp
import numpy as np


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


def involutions_bruteforce(n: int) -> int:
    """Count self-inverse permutations by checking all n! of them."""
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(perm[perm[i]] == i for i in range(n)):
            count += 1
    return count


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
    return math.fsum(w * v**k for v, w in pairs) / total_weight_oracle(pairs)


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
