"""Finite weighted distributions and the second-moment tail inequality.

A non-negative random variable with unit mean and second moment a > 1 must
exceed a with positive probability, and for every cutoff 0 <= b < a the mass
of squared values above b is at least a - b.  On finite support both facts
are exact, so they double as self-checks: a failed check means a bug, not a
counterexample.  check_tail_inequality alone decides them, and alone checks
the cutoffs it is given; verify_theorem normalizes first, and the zeta tail
report has a unit mean by construction.

A distribution holds its entries in one read-only (k, 2) float64 array, so
validation, normalization and the sums are numpy operations.  Every sum is
exactly rounded, so it does not depend on the order of summation and any route
that forms the same IEEE products gives the same bits.  The total weight, the
mean and the moments are compensated_sum: math.fsum on short arrays, the
binned pass of numutil.exact_sums on long ones.  The tail sums above a whole
grid of cutoffs come from one exact_sums pass keyed by value, which rounds
each suffix sum once, as fsum would.

A CSV without quotes, lone carriage returns or irregular lines is split in
blocks of whole lines with str.split and float(); any other file is read by
csv.reader, which alone reports malformed input.  An error names the line of
its row: entry i of a plain file is on line i + 2, and on the csv.reader route
every line is the reader's line_num, the last line of a quoted row that spans
lines.
"""

import csv
import io
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import IO

import numpy as np

from .numutil import compensated_sum, exact_sums

#: margin above 1 within which a second moment a counts as degenerate (a <= 1)
NORM_TOL = 1e-12
#: tolerance for inequality checks on normalized quantities
CHECK_TOL = 1e-9
#: relative distance, on the scale of a, within which the float a and tails
#: must meet their exact values when a check misses (see _ExactCheck)
ROUNDING = 2.0**-50

# smallest positive normal float64; a product below it keeps fewer bits
_TINY = np.finfo(np.float64).tiny

# characters of whole lines that one block of a plain CSV holds, about
_PARSE_BLOCK = 1 << 16
# every byte but "," and "\n", deleted to leave a block's separators
_NOT_SEPARATOR = bytes(c for c in range(256) if c not in b",\n")


class DegenerateDistributionError(ValueError):
    """Raised when a distribution has zero mean and cannot be normalized."""


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
    Construction checks each entry, not the sums: `normalize` gives a unit
    mean up to rounding, and check_tail_inequality settles a rounding miss
    exactly.
    """

    def __init__(self, entries):
        pairs = np.array(entries, dtype=np.float64)
        if len(pairs) == 0:
            raise ValueError("distribution needs at least one entry")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("entries must be (value, weight) pairs")
        pairs.flags.writeable = False
        values, weights = pairs[:, 0], pairs[:, 1]
        _check_entries(values, weights)
        vars(self).update(entries=pairs, values=values, weights=weights)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @cached_property
    def total_weight(self) -> float:
        try:
            return compensated_sum(self.weights)
        except OverflowError:
            raise ValueError(
                f"total weight overflows float64: the {len(self.weights)} weights "
                f"sum past {sys.float_info.max!r}"
            ) from None

    @cached_property
    def mean(self) -> float:
        with np.errstate(over="ignore"):
            products = self.values * self.weights
        if np.all(((products >= _TINY) & (products < math.inf)) | (self.values == 0)):
            try:
                mean = compensated_sum(products) / self.total_weight
            except OverflowError:  # the products sum past float64
                mean = math.inf
            if mean < math.inf:
                return mean
        m, e = self._scaled_mean
        try:
            return math.ldexp(m, e)
        except OverflowError:
            raise ValueError(f"mean overflows float64: it rounds to {m!r} * 2**{e}") from None

    @cached_property
    def _scaled_mean(self) -> tuple[float, int]:
        """(m, e) with mean = m * 2**e and m in about [0.25, 2k].

        A product v * w outside the normal range keeps fewer bits or none, so
        here each product is formed from the mantissas of v and w and scaled by
        a power of two relative to the largest one (an exact rescale), and the
        total weight likewise; `mean` uses this only when some product is
        subnormal or overflows, or the products sum past float64.
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

    a is the second moment of the unit-mean distribution; degenerate means
    a <= 1 (a point mass at 1), where the existence bound is vacuous.
    """

    a: float
    max_value: float = field(metadata={"key": "max"})
    degenerate: bool
    checks: tuple[TailCheck, ...]


def normalize(dist: EmpiricalDistribution) -> EmpiricalDistribution:
    """Rescale weights to total 1 and values by 1/mean, so the mean becomes 1.

    The relative multiset of (value/mean, weight/total) is preserved.  Raises
    DegenerateDistributionError when all values are zero (mean 0), and
    ValueError when some value/mean overflows float64 or some weight/total
    underflows to 0.
    """
    mean = dist.mean
    if not dist.values.any():
        raise DegenerateDistributionError("all-zero values: mean is 0, cannot rescale")
    with np.errstate(over="ignore"):
        if mean >= _TINY:
            values = dist.values / mean
        else:
            # a subnormal mean, even one that rounds to 0, has too few bits;
            # divide by its normal-range mantissa and rescale by a power of two
            m, e = dist._scaled_mean
            values = np.ldexp(dist.values, -e) / m
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(
            f"value/mean overflows float64: entry {i} has value "
            f"{dist.values[i].item()!r} and the mean is {mean!r}"
        )
    weights = dist.weights / dist.total_weight
    positive = weights > 0
    if not positive.all():
        i = int(np.argmin(positive))
        raise ValueError(
            f"weight/total weight underflows float64: entry {i} has weight "
            f"{dist.weights[i].item()!r} and the total weight is {dist.total_weight!r}"
        )
    return EmpiricalDistribution(np.column_stack((values, weights)))


def moment(dist: EmpiricalDistribution, k: int) -> float:
    """k-th moment sum(w * v^k) / sum(w) with compensated summation.

    v^k is libm pow per element, as Python's v**k computes it; it is not
    always bit-equal to v*v or to numpy's power.  Only where v^k overflows is
    the term formed as (w * v) * v ... instead, as the tail sums form it for
    k = 2, which is finite for small w; the first such term past float64 even
    so raises ValueError naming its entry, before any sum is formed.  Both
    forms are array operations.  A sum of finite terms that rounds past
    float64 raises ValueError too.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    # float_power's float64 loop calls libm pow per element, as math.pow
    # does; np.power may take a SIMD loop that is not bit-equal to it
    with np.errstate(over="ignore"):
        terms = np.float_power(dist.values, k)
        over = None if np.isfinite(terms).all() else np.flatnonzero(np.isinf(terms))
        terms *= dist.weights  # an inf product makes the sum inf, as in fsum
        if over is not None:
            values, redone = dist.values[over], dist.weights[over]
            for _ in range(k):
                redone *= values
            past = np.isinf(redone)
            if past.any():
                i = over[np.argmax(past)].item()
                raise ValueError(f"entry {i}: weight {dist.weights[i].item()!r} * value "
                                 f"{dist.values[i].item()!r}^{k} is past float64")
            terms[over] = redone
    try:
        total = compensated_sum(terms)
    except OverflowError:
        raise _sum_past_float64(f"moment {k}", f"w * v^{k}") from None
    return total / dist.total_weight


def _tail_sums(dist: EmpiricalDistribution, b_grid: Sequence[float]) -> list[float]:
    """For each b of b_grid, the sum of (w * v) * v over v > b, as math.fsum
    gives it: exactly rounded, inf when an infinite term is in it, and
    ValueError when a finite sum rounds past float64.  One exact_sums pass
    keyed by value serves every cutoff."""
    with np.errstate(over="ignore"):  # an inf term makes its sums inf, as in fsum
        terms = dist.weights * dist.values
        terms *= dist.values
    try:
        return exact_sums(terms, dist.values, b_grid)
    except OverflowError:
        raise _sum_past_float64("tail second moment", "w * v^2 above a cutoff") from None


def _sum_past_float64(quantity: str, terms: str) -> ValueError:
    """The error for a finite sum that rounds past float64.  fsum and the
    binned pass raise different OverflowErrors, by the entry count; this one
    names the quantity."""
    return ValueError(
        f"{quantity} overflows float64: the terms {terms} sum past {sys.float_info.max!r}")


def verify_theorem(
    dist: EmpiricalDistribution, b_grid: Sequence[float]
) -> TheoremReport:
    """Normalize, then check both exact consequences of the tail inequality
    with check_tail_inequality, which also checks the cutoffs."""
    return check_tail_inequality(normalize(dist), b_grid)


def check_tail_inequality(
    dist: EmpiricalDistribution, b_grid: Sequence[float]
) -> TheoremReport:
    """Check the tail inequality on a distribution of unit mean (its weights
    need not sum to 1), with CHECK_TOL and NORM_TOL as the one tolerance policy.

    With a the second moment: (1) if a > 1 the maximum value is at least a,
    and (2) for every grid point 0 <= b < a the tail second moment above b is
    at least a - b.  A violation raises TheoremViolationError: on finite
    support these are theorems, so failure means a bug.  A grid point that is
    nan, infinite or negative (where a - b > a, so the inequality is false)
    is the caller's error: ValueError, before any sum is formed.

    The float checks compare a, the tails and the maximum, each rounded, and
    the mean is 1 only up to the rounding of normalization, so with a far
    above 1 an absolute CHECK_TOL can miss by a rounding error.  A miss is
    settled exactly by _ExactCheck, and raises only if that fails too.
    """
    for b in b_grid:
        if not 0 <= b < math.inf:
            raise ValueError(f"b grid values must be finite and non-negative, got {b}")
    a = moment(dist, 2)
    max_value = dist.max_value
    degenerate = a <= 1.0 + NORM_TOL
    exact = _ExactCheck(dist, a)

    checks = []
    for b, tail_sum in zip(b_grid, _tail_sums(dist, b_grid)):
        tail = tail_sum / dist.total_weight
        lower = a - b  # <= 0 <= tail for b >= a
        if tail < lower - CHECK_TOL and not exact.tail_holds(b, tail):
            raise TheoremViolationError(
                f"tail({b}) = {tail} < a - b = {lower} on finite support"
            )
        checks.append(TailCheck(b=b, tail=tail, lower_bound=lower, holds=True))

    if not degenerate and max_value < a - CHECK_TOL and not exact.max_holds():
        raise TheoremViolationError(f"max {max_value} < second moment {a}")

    return TheoremReport(
        a=a, max_value=max_value, degenerate=degenerate, checks=tuple(checks)
    )


class _ExactCheck:
    """Settles a float miss of check_tail_inequality in exact Fractions over
    the entries.  With W = sum w, S1 = sum w v and S2 = sum w v^2, the exact
    second moment A = S2 / W, the actual mean m = S1 / W and the tail
    T_b = (sum of w v^2 over v > b) / W satisfy, for every b >= 0:

    - T_b >= A - b m, as v^2 <= b v wherever v <= b;
    - max m >= A, as v^2 <= max v.

    The miss is rounding when these hold and the float a and tail are within
    ROUNDING * A of A and T_b: each is a few correctly rounded operations on
    non-negative terms, at most about 5 * 2^-53 * A off.  A float farther off
    (a wrong tail sum, say) fails the check.  The sums are built on the first
    call, so a check that passes in floats costs nothing here.
    """

    def __init__(self, dist: EmpiricalDistribution, a: float):
        self.dist = dist
        self.a = a

    @cached_property
    def _sums(self) -> tuple[list[Fraction], list[Fraction], Fraction, Fraction, Fraction]:
        """(v, w v^2) per entry, W, m and A."""
        values = list(map(Fraction, self.dist.values.tolist()))
        weights = list(map(Fraction, self.dist.weights.tolist()))
        products = list(map(mul, weights, values))
        squares = list(map(mul, products, values))
        total = sum(weights)
        return values, squares, total, sum(products) / total, sum(squares) / total

    def _near(self, x: float, exact: Fraction) -> bool:
        return abs(Fraction(x) - exact) <= ROUNDING * self._sums[4]

    def tail_holds(self, b: float, tail: float) -> bool:
        values, squares, total, mean, a = self._sums
        exact = sum(sq for v, sq in zip(values, squares) if v > b) / total
        return exact >= a - Fraction(b) * mean and self._near(tail, exact) and self._near(self.a, a)

    def max_holds(self) -> bool:
        _, _, _, mean, a = self._sums
        return Fraction(self.dist.max_value) * mean >= a and self._near(self.a, a)


def load_distribution_csv(source: str | IO[str]) -> EmpiricalDistribution:
    """Read a `value,weight` CSV (header required) into a distribution.

    The text is read once; a file object is read to its end and parsed as a
    file opened with newline="".  A plain file (see _parse_plain) is split
    in blocks; any other file, or a plain one with a field that float()
    rejects, is read by csv.reader.  Every error is a DistributionFormatError
    with the offending 1-based line.  A plain file has one row per line and
    no blank line, so its entry i is on line i + 2; on the csv.reader route
    every line is csv.reader's line_num: the row's own line, or the last line
    of a quoted row that spans lines.
    """
    if isinstance(source, str):
        with open(source, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    else:
        text = source.read()
    entries, lines = _parse_plain(text), None
    if entries is None:
        entries, lines = _parse_rows(text)
    try:
        return EmpiricalDistribution(entries)
    except InvalidEntryError as exc:
        line = exc.index + 2 if lines is None else lines[exc.index]
        raise DistributionFormatError(line, str(exc)) from None


def _parse_plain(text: str) -> np.ndarray | None:
    """The (k, 2) entries of a plain CSV, or None if text is not plain or a
    field is not a float.

    Plain means: no quote, every carriage return inside a CRLF, a
    `value,weight` header, and exactly one comma on every data line (so no
    blank line).  Its fields are then the ones csv.reader yields, and float()
    gives the same entries.  Blocks of about _PARSE_BLOCK characters of whole
    lines keep few split fields alive at a time.
    """
    if '"' in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    limit = csv.field_size_limit()
    start = text.find("\n") + 1  # the first data line
    end = len(text) - text.endswith("\n")
    if not 0 < start < end or start > limit:  # no data line, or a header past the limit
        return None
    if [h.strip().lower() for h in text[:start - 1].split(",")] != ["value", "weight"]:
        return None
    entries = np.empty((text.count("\n", start, end) + 1, 2))
    flat = entries.reshape(-1)
    row = 0
    while start < end:
        stop = text.find("\n", start + _PARSE_BLOCK, end)
        if stop < 0:
            stop = end
        block = text[start:stop]
        lines = block.count("\n") + 1
        separators = block.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATOR)
        if separators != b",\n" * (lines - 1) + b",":
            return None
        fields = block.replace("\n", ",").split(",")
        if len(block) > limit and max(map(len, fields)) > limit:
            return None  # csv.reader refuses a field this long
        try:
            flat[2 * row:2 * (row + lines)] = np.fromiter(map(float, fields), np.float64,
                                                          2 * lines)
        except ValueError:
            return None
        row += lines
        start = stop + 1
    return entries


def _parse_rows(text: str) -> tuple[np.ndarray, list[int]]:
    """The (k, 2) entries of text, read with csv.reader and two float() calls
    per row, and the line of each entry; every line is reader.line_num."""
    reader = csv.reader(io.StringIO(text, newline=""))
    values, weights, lines = [], [], []
    try:
        header = next(reader, None)
        if header is None:
            raise DistributionFormatError(1, "empty file, expected `value,weight` header")
        if [h.strip().lower() for h in header] != ["value", "weight"]:
            raise DistributionFormatError(
                reader.line_num, f"expected header `value,weight`, got {header}")
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DistributionFormatError(
                    reader.line_num, f"expected 2 fields, got {len(row)}")
            try:
                value = float(row[0])
                weight = float(row[1])
            except ValueError:
                raise DistributionFormatError(
                    reader.line_num, f"non-numeric entry {row!r}") from None
            values.append(value)
            weights.append(weight)
            lines.append(reader.line_num)
    except csv.Error as exc:
        raise DistributionFormatError(reader.line_num, str(exc)) from None
    if not values:
        raise DistributionFormatError(2, "no data rows")
    return np.column_stack((values, weights)), lines
