"""Finite weighted distributions and the second-moment tail inequality.

A non-negative random variable with unit mean and second moment a > 1 must
exceed a with positive probability, and for every cutoff 0 <= b < a the mass
of squared values above b is at least a - b.  On finite support both facts
are exact, so they double as self-checks: a failed check means a bug, not a
counterexample.

A distribution holds its entries in one read-only (k, 2) float64 array, so
validation, normalization and the sums are numpy operations.  Every sum is
math.fsum, which is exactly rounded: the result does not depend on the order
of summation, so any route that forms the same IEEE products gives the same
bits.  The total weight is computed once per distribution, and the tail sums
sort the values once, on first use, then sum the suffix above each cutoff.
"""

import csv
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import mul
from typing import IO

import numpy as np

from .numutil import compensated_sum

#: tolerance for "is normalized" bookkeeping (weights sum to 1, mean 1)
NORM_TOL = 1e-12
#: tolerance for inequality checks on normalized quantities
CHECK_TOL = 1e-9

# smallest positive normal float64; a product below it keeps fewer bits
_TINY = np.finfo(np.float64).tiny


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


class InvalidEntryError(ValueError):
    """A (value, weight) entry was rejected; `index` is its 0-based position."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class EmpiricalDistribution:
    """Finite weighted set of non-negative values.

    `entries` is any sequence of (value, weight) pairs or a (k, 2) array; it
    is copied into a read-only (k, 2) float64 array, whose columns are
    `values` and `weights`.  Input order and duplicates are kept as-is.
    `normalized` marks distributions whose weights sum to 1 and whose mean is
    1 (within NORM_TOL); it is what `normalize` produces.
    """

    def __init__(self, entries, normalized: bool = False):
        pairs = np.array(entries, dtype=np.float64)
        if len(pairs) == 0:
            raise ValueError("distribution needs at least one entry")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("entries must be (value, weight) pairs")
        pairs.flags.writeable = False
        values, weights = pairs[:, 0], pairs[:, 1]
        _check_entries(values, weights)
        vars(self).update(entries=pairs, values=values, weights=weights, normalized=normalized)
        if normalized:
            if abs(self.total_weight - 1.0) > NORM_TOL:
                raise ValueError("normalized flag set but weights do not sum to 1")
            if abs(self.mean - 1.0) > NORM_TOL:
                raise ValueError("normalized flag set but mean is not 1")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "EmpiricalDistribution":
        return cls([(float(v), float(w)) for v, w in pairs])

    @cached_property
    def total_weight(self) -> float:
        return compensated_sum(self.weights)

    @cached_property
    def mean(self) -> float:
        products = self.values * self.weights
        if np.all((products >= _TINY) | (self.values == 0)):
            return compensated_sum(products) / self.total_weight
        return math.ldexp(*self._scaled_mean)

    @cached_property
    def _scaled_mean(self) -> tuple[float, int]:
        """(m, e) with mean = m * 2**e and m in about [0.25, 2k].

        A product v * w below the normal range keeps fewer bits, so here each
        product is formed from the mantissas of v and w and scaled by a power
        of two relative to the largest one (an exact rescale), and the total
        weight likewise; `mean` uses this only when some product is subnormal.
        """
        mv, ev = np.frexp(self.values)
        mw, ew = np.frexp(self.weights)
        exps = ev + ew
        top = int(exps[self.values > 0].max())
        mt, et = math.frexp(self.total_weight)
        return compensated_sum(np.ldexp(mv * mw, exps - top)) / mt, top - et

    @property
    def max_value(self) -> float:
        return self.values.max().item()

    @cached_property
    def _tail_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Values in ascending order, and w * v * v in the same order."""
        order = np.argsort(self.values)
        values = self.values[order]
        return values, self.weights[order] * values * values


def _check_entries(values: np.ndarray, weights: np.ndarray) -> None:
    """Raise InvalidEntryError for the first rejected entry, with the message
    of its first failed check: finite, then value >= 0, then weight > 0."""
    finite = np.isfinite(values) & np.isfinite(weights)
    bad = ~finite | (values < 0) | (weights <= 0)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    value, weight = values[i].item(), weights[i].item()
    if not finite[i]:
        raise InvalidEntryError(i, "values and weights must be finite")
    if value < 0:
        raise InvalidEntryError(i, f"negative value {value}")
    raise InvalidEntryError(i, f"non-positive weight {weight}")


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
    mean = dist.mean
    if mean <= 0.0:
        raise DegenerateDistributionError("all-zero values: mean is 0, cannot rescale")
    if mean >= _TINY:
        values = dist.values / mean
    else:
        # a subnormal mean has too few bits to divide by; divide by its
        # normal-range mantissa and rescale by the exact power of two
        m, e = dist._scaled_mean
        values = np.ldexp(dist.values, -e) / m
    entries = np.column_stack((values, dist.weights / dist.total_weight))
    return EmpiricalDistribution(entries, normalized=True)


def moment(dist: EmpiricalDistribution, k: int) -> float:
    """k-th moment sum(w * v^k) / sum(w) with compensated summation.

    v^k is libm pow per element, as Python's v**k computes it; it is not
    always bit-equal to v*v or to numpy's power.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    # memoryview iterates an array as Python floats without building a list
    powers = map(math.pow, memoryview(dist.values), repeat(float(k)))
    return compensated_sum(map(mul, memoryview(dist.weights), powers)) / dist.total_weight


def tail_second_moment(dist: EmpiricalDistribution, b: float) -> float:
    """Second-moment mass strictly above b: sum over v > b of w * v^2 / sum(w).

    The threshold is strict, so atoms sitting exactly at b are excluded.
    The sum is exactly rounded, so summing the terms in sorted order gives
    the same float as summing them in input order.
    """
    values, terms = dist._tail_terms
    start = np.searchsorted(values, b, side="right")
    return compensated_sum(terms[start:]) / dist.total_weight


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

    values, weights = [], []
    blanks_at = []  # len(values) at each skipped blank row, to map rows back to lines
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            blanks_at.append(len(values))
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
        values.append(value)
        weights.append(weight)
    if not values:
        raise DistributionFormatError(2, "no data rows")
    try:
        return EmpiricalDistribution(np.column_stack((values, weights)))
    except InvalidEntryError as exc:
        line = 2 + exc.index + sum(n <= exc.index for n in blanks_at)
        raise DistributionFormatError(line, str(exc)) from None
