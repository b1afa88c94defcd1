"""Finite weighted distributions and the second-moment tail inequality.

A non-negative random variable with unit mean and second moment a > 1 must
exceed a with positive probability, and for every cutoff 0 <= b < a the mass
of squared values above b is at least a - b.  On finite support both facts
are exact, so they double as self-checks: a failed check means a bug, not a
counterexample.
"""

import csv
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

from .numutil import compensated_sum

#: tolerance for "is normalized" bookkeeping (weights sum to 1, mean 1)
NORM_TOL = 1e-12
#: tolerance for inequality checks on normalized quantities
CHECK_TOL = 1e-9


class DegenerateDistributionError(ValueError):
    """Raised when a distribution has zero mean and cannot be normalized."""


class InconsistentMomentsError(ValueError):
    """Raised when a supplied moment pair violates the Cauchy-Schwarz relation."""


class TheoremViolationError(RuntimeError):
    """An exact finite-support inequality failed; indicates an implementation bug."""


class DistributionFormatError(ValueError):
    """Malformed distribution CSV; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Finite weighted set of non-negative values.

    entries are (value, weight) pairs; duplicates are allowed and kept as-is.
    `normalized` marks distributions whose weights sum to 1 and whose mean is 1
    (within NORM_TOL); it is what `normalize` produces.
    """

    entries: tuple[tuple[float, float], ...]
    normalized: bool = False

    def __post_init__(self):
        if not self.entries:
            raise ValueError("distribution needs at least one entry")
        for value, weight in self.entries:
            if not (math.isfinite(value) and math.isfinite(weight)):
                raise ValueError("values and weights must be finite")
            if value < 0:
                raise ValueError(f"negative value {value}")
            if weight <= 0:
                raise ValueError(f"non-positive weight {weight}")
        if self.normalized:
            if abs(self.total_weight - 1.0) > NORM_TOL:
                raise ValueError("normalized flag set but weights do not sum to 1")
            if abs(self.mean - 1.0) > NORM_TOL:
                raise ValueError("normalized flag set but mean is not 1")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "EmpiricalDistribution":
        return cls(tuple((float(v), float(w)) for v, w in pairs))

    @property
    def total_weight(self) -> float:
        return compensated_sum(w for _, w in self.entries)

    @property
    def mean(self) -> float:
        return compensated_sum(v * w for v, w in self.entries) / self.total_weight

    @property
    def max_value(self) -> float:
        return max(v for v, _ in self.entries)


@dataclass(frozen=True)
class TailCheck:
    b: float
    tail: float
    lower_bound: float = field(metadata={"key": "bound"})  # a - b
    holds: bool


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of checking the tail inequality on one distribution.

    a is the second moment after normalization; degenerate means a <= 1 (point
    mass at 1 after normalization), where the existence bound is vacuous.
    """

    a: float
    max_value: float = field(metadata={"key": "max"})
    degenerate: bool
    checks: tuple[TailCheck, ...]


def normalize(dist: EmpiricalDistribution) -> EmpiricalDistribution:
    """Rescale weights to total 1 and values by 1/mean, so the mean becomes 1.

    The relative multiset of (value/mean, weight/total) is preserved.  Raises
    DegenerateDistributionError when all values are zero (mean 0).
    """
    total = dist.total_weight
    mean = compensated_sum(v * w for v, w in dist.entries) / total
    if mean <= 0.0:
        raise DegenerateDistributionError("all-zero values: mean is 0, cannot rescale")
    entries = tuple((v / mean, w / total) for v, w in dist.entries)
    return EmpiricalDistribution(entries, normalized=True)


def moment(dist: EmpiricalDistribution, k: int) -> float:
    """k-th moment sum(w * v^k) / sum(w) with compensated summation."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return compensated_sum(w * v**k for v, w in dist.entries) / dist.total_weight


def tail_second_moment(dist: EmpiricalDistribution, b: float) -> float:
    """Second-moment mass strictly above b: sum over v > b of w * v^2 / sum(w).

    The threshold is strict, so atoms sitting exactly at b are excluded.
    """
    return (
        compensated_sum(w * v * v for v, w in dist.entries if v > b)
        / dist.total_weight
    )


def verify_theorem(
    dist: EmpiricalDistribution, b_grid: Sequence[float]
) -> TheoremReport:
    """Normalize, then check both exact consequences of the tail inequality.

    For the normalized distribution with second moment a: (1) if a > 1 the
    maximum value is at least a, and (2) for every grid point 0 <= b < a the
    tail second moment above b is at least a - b.  Grid points must be
    finite and non-negative (the inequality is false for b < 0, where
    a - b > a).
    A violation raises TheoremViolationError: on finite support these are
    theorems, so failure means a bug.
    """
    for b in b_grid:
        if not 0 <= b < math.inf:
            raise ValueError(f"b grid values must be finite and non-negative, got {b}")
    norm = normalize(dist)
    a = moment(norm, 2)
    max_value = norm.max_value
    degenerate = a <= 1.0 + NORM_TOL

    checks = []
    for b in b_grid:
        tail = tail_second_moment(norm, b)
        lower = a - b
        holds = tail >= lower - CHECK_TOL
        if b < a and not holds:
            raise TheoremViolationError(
                f"tail({b}) = {tail} < a - b = {lower} on finite support"
            )
        checks.append(TailCheck(b=b, tail=tail, lower_bound=lower, holds=holds))

    if not degenerate and max_value < a - CHECK_TOL:
        raise TheoremViolationError(f"max {max_value} < second moment {a}")

    return TheoremReport(
        a=a, max_value=max_value, degenerate=degenerate, checks=tuple(checks)
    )


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


def load_distribution_csv(source: str | IO[str]) -> EmpiricalDistribution:
    """Read a `value,weight` CSV (header required) into a distribution.

    Raises DistributionFormatError with the offending 1-based line number.
    """
    if isinstance(source, str):
        with open(source, newline="", encoding="utf-8-sig") as fh:
            return load_distribution_csv(fh)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DistributionFormatError(1, "empty file, expected `value,weight` header")
    if [h.strip().lower() for h in header] != ["value", "weight"]:
        raise DistributionFormatError(1, f"expected header `value,weight`, got {header}")

    pairs = []
    blanks_at = []  # len(pairs) at each skipped blank row, to map pairs back to lines
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            blanks_at.append(len(pairs))
            continue
        if len(row) != 2:
            raise DistributionFormatError(line_no, f"expected 2 fields, got {len(row)}")
        try:
            value = float(row[0])
            weight = float(row[1])
        except ValueError:
            raise DistributionFormatError(
                line_no, f"non-numeric entry {row!r}"
            ) from None
        pairs.append((value, weight))
    if not pairs:
        raise DistributionFormatError(2, "no data rows")
    try:
        return EmpiricalDistribution.from_pairs(pairs)
    except ValueError as exc:
        # only the error path pays for finding the first row rejected on its own
        bad = next(i for i, pair in enumerate(pairs) if not _accepted(pair))
        line = 2 + bad + sum(n <= bad for n in blanks_at)
        raise DistributionFormatError(line, str(exc)) from None


def _accepted(pair: tuple[float, float]) -> bool:
    try:
        EmpiricalDistribution.from_pairs([pair])
    except ValueError:
        return False
    return True
