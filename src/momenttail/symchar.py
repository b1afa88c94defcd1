"""Exact character-degree combinatorics of the symmetric group.

Degrees come from the hook length formula (n! divided by the product of hook
lengths), so every number in a table is an exact integer.  Two classical
identities tie the tables together and serve as verification anchors: the
degrees sum to the involution count t(n), and their squares sum to n!.
Asymptotic companions (partition counts, involution counts, moment formulas)
are evaluated in log space and only ever reported as ratios, never asserted:
they carry no error rate.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .numutil import LogReal, log_factorial

#: p(60) = 966467 rows is the desk-scale ceiling for full tables
N_GUARD = 60


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; the empty partition has n = 0."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("parts must be weakly decreasing")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        return Partition(
            tuple(sum(1 for p in self.parts if p > j) for j in range(self.parts[0]))
        )

    def __str__(self) -> str:
        return "-".join(str(p) for p in self.parts) if self.parts else "0"


def partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order.

    partitions(4) = (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  n = 0 yields the
    single empty partition.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > N_GUARD:
        raise ValueError(f"n is capped at {N_GUARD} (p(n) grows too fast beyond)")
    if n == 0:
        return [Partition(())]
    out = []
    part = [n]
    while True:
        out.append(Partition(tuple(part)))
        # decrement the rightmost part above 1, then repack the freed units
        i = len(part) - 1
        ones = 0
        while i >= 0 and part[i] == 1:
            ones += 1
            i -= 1
        if i < 0:
            return out
        part[i] -= 1
        rem = ones + 1
        part = part[: i + 1]
        while rem:
            take = min(rem, part[i])
            part.append(take)
            rem -= take
            i += 1


@lru_cache(maxsize=None)
def p_exact(n: int) -> int:
    """Partition count by Euler's pentagonal-number recurrence."""
    if n < 0:
        raise ValueError("n must be non-negative")
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sgn = 1 if k % 2 else -1
            total += sgn * table[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sgn * table[m - g2]
            k += 1
        table[m] = total
    return table[n]


def p_asym_log(n: int) -> float:
    """log of the leading-order partition asymptotic pi sqrt(2n/3) - log(4 n sqrt 3)."""
    if n < 1:
        raise ValueError("n must be positive")
    return math.pi * math.sqrt(2 * n / 3) - math.log(4 * n * math.sqrt(3))


def p_asym(n: int) -> float:
    """Leading-order partition count e^(pi sqrt(2n/3)) / (4 n sqrt 3)."""
    return math.exp(p_asym_log(n))


def degree(partition: Partition) -> int:
    """Irreducible character degree via the hook length formula n!/prod(hooks)."""
    parts = partition.parts
    n = partition.n
    if n == 0:
        return 1
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])]
    hooks = 1
    for i, p in enumerate(parts):
        for j in range(p):
            hooks *= (p - j) + (cols[j] - i) - 1
    return factorial(n) // hooks


@lru_cache(maxsize=None)
def involutions(n: int) -> int:
    """Count of self-inverse permutations, t(n) = t(n-1) + (n-1) t(n-2)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n >= 1 else 1


def involutions_asym(n: int) -> LogReal:
    """Asymptotic involution count e^(sqrt n - 1/4) / (2 sqrt(pi n)) * sqrt(n!)."""
    if n < 1:
        raise ValueError("n must be positive")
    return LogReal(
        math.sqrt(n)
        - 0.25
        - math.log(2 * math.sqrt(math.pi * n))
        + 0.5 * log_factorial(n)
    )


@dataclass(frozen=True)
class DegreeTable:
    """All degrees for one n, with exact totals."""

    n: int
    rows: tuple[tuple[Partition, int], ...] = field(metadata={"omit": True})
    sum_degrees: int = field(metadata={"decimal": True})
    sum_degree_squares: int = field(metadata={"decimal": True})

    @property
    def max_degree(self) -> int:
        return max(d for _, d in self.rows)


def degree_table(n: int) -> DegreeTable:
    """Exact degree table; totals are checked against t(n) and n! on the spot."""
    if not 1 <= n <= N_GUARD:
        raise ValueError(f"n must be in [1, {N_GUARD}]")
    rows = tuple((lam, degree(lam)) for lam in partitions(n))
    sum_d = sum(d for _, d in rows)
    sum_d2 = sum(d * d for _, d in rows)
    if sum_d2 != factorial(n):
        raise RuntimeError(f"degree squares sum to {sum_d2}, expected {n}!")
    if sum_d != involutions(n):
        raise RuntimeError(f"degrees sum to {sum_d}, expected t({n})")
    return DegreeTable(n=n, rows=rows, sum_degrees=sum_d, sum_degree_squares=sum_d2)


@dataclass(frozen=True)
class XiMoments:
    """Moments of the normalized degree chi(1)/sqrt(n!) under the uniform choice.

    e_xi = t(n) / (p(n) sqrt(n!)) and e_xi2 = 1/p(n), both exact up to the one
    float conversion; asymptotic counterparts ride along for ratio reports.
    """

    n: int
    p_n: int = field(metadata={"decimal": True})
    t_n: int = field(metadata={"decimal": True})
    e_xi: float
    e_xi_log: float
    e_xi2: float
    e_xi2_log: float
    e_xi_asym: float
    e_xi2_asym: float

    def __post_init__(self):
        # Cauchy-Schwarz, checked in exact integer form: p(n) n! >= t(n)^2
        if self.p_n * factorial(self.n) < self.t_n * self.t_n:
            raise ValueError("moment pair violates Cauchy-Schwarz")


def xi_moments(n: int) -> XiMoments:
    """Exact first and second moments of chi(1)/sqrt(n!), plus asymptotics."""
    if n < 1:
        raise ValueError("n must be positive")
    p_n = p_exact(n)
    t_n = involutions(n)
    e_xi_log = math.log(t_n) - math.log(p_n) - 0.5 * log_factorial(n)
    e_xi2_log = -math.log(p_n)
    # asymptotic forms: 2 sqrt(3n)/(e^(1/4) sqrt(pi)) e^((1 - pi sqrt(2/3)) sqrt n)
    # and 4 n sqrt(3) e^(-pi sqrt(2n/3))
    e_xi_asym = (
        2 * math.sqrt(3 * n) / (math.exp(0.25) * math.sqrt(math.pi))
    ) * math.exp((1 - math.pi * math.sqrt(2.0 / 3.0)) * math.sqrt(n))
    e_xi2_asym = 4 * n * math.sqrt(3) * math.exp(-math.pi * math.sqrt(2 * n / 3))
    return XiMoments(
        n=n,
        p_n=p_n,
        t_n=t_n,
        e_xi=math.exp(e_xi_log),
        e_xi_log=e_xi_log,
        e_xi2=1.0 / p_n,
        e_xi2_log=e_xi2_log,
        e_xi_asym=e_xi_asym,
        e_xi2_asym=e_xi2_asym,
    )


@dataclass(frozen=True)
class DegreeBound:
    """The existence bound n!/t(n) for the maximal degree, exact and in logs."""

    n: int
    numerator: int = field(metadata={"decimal": True})
    denominator: int = field(metadata={"decimal": True})
    log: float

    @property
    def value(self) -> float:
        return LogReal(self.log).value

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def second_moment_degree_bound(n: int) -> DegreeBound:
    """max chi(1) >= n!/t(n): the tail-inequality bound on the uniform character.

    Equivalent to sqrt(n!) * Exi^2 / Exi for xi = chi(1)/sqrt(n!).
    """
    if n < 1:
        raise ValueError("n must be positive")
    num = factorial(n)
    den = involutions(n)
    return DegreeBound(
        n=n, numerator=num, denominator=den, log=log_factorial(n) - math.log(den)
    )


def max_degree_asym_bound(n: int, eps: float = 0.0) -> LogReal:
    """Asymptotic target (1-eps) e^(1/4) sqrt(pi n) e^(-sqrt n) sqrt(n!).

    Carries no rate, so compare by ratio only.  eps = 1 gives the vacuous
    zero bound.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    if eps == 1:
        return LogReal(-math.inf)
    return LogReal(
        math.log1p(-eps)
        + 0.25
        + 0.5 * math.log(math.pi * n)
        - math.sqrt(n)
        + 0.5 * log_factorial(n)
    )
