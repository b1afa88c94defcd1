"""Shared helpers: exact sums, log-space values, worker-count validation
and report serialization.

Every sum of floats here is exactly rounded, so it does not depend on the
order of summation.  Short arrays, arrays with a non-finite term and other
iterables go to math.fsum.  A longer all-finite float64 array, and every
keyed sum, goes to exact_sums: one pass that bins the terms' integer
mantissas by key interval and binary exponent (a small superaccumulator, as
in Neal 2015, "Fast exact summation using small and large superaccumulators")
and rounds each sum once, as fsum would.
"""

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

# Exact sums.  A finite term t is m * 2**e with 0.5 <= |m| < 1 (frexp), and
# m * 2**26 splits exactly into a whole part, an integer of magnitude at most
# 2**26 (floor), and a fraction in [0, 1) that is a multiple of 2**-27.  A bin
# holds the terms with one exponent e and one interval of keys between cuts.
# Its n <= 2**26 whole parts sum to an integer of magnitude at most 2**52, and
# its fractions to a multiple of 2**-27 below 2**26: every partial sum fits in
# 53 bits, so float64 adds them exactly in any order.  The bin is then
# (whole + fraction) * 2**(e - 26), an integer times 2**(e - 53) >= 2**-1126,
# so each sum of bins is an exact Python int count of 2**-1126, and int / int
# rounds it once, half to even, as math.fsum does.  Blocks of at most
# _SUM_BLOCK <= 2**26 terms keep every bin within that count and bound the
# temporaries.
_SUM_BLOCK = 1 << 17
_EXP_MIN = -1073  # frexp exponent of the smallest subnormal
_UNIT = 1 << (53 - _EXP_MIN)  # sums count units of 1 / _UNIT
# shortest array that compensated_sum passes to exact_sums: below about this
# many terms math.fsum is faster, above it the binned pass (2 CPUs, fsum against
# exact_sums: 1.1 against 41 us at 16 terms, 38 against 42-47 us at 1,024,
# 0.21 against 0.08 ms at 4,001 and 1.2 against 0.4 ms at 20,001)
_BINNED_MIN = 1 << 10


def exact_sums(terms, keys=None, cuts=None):
    """Exactly rounded sums of float64 terms, from one binned pass.

    With cuts None, the sum of all terms.  Otherwise keys holds one key per
    term, none of them nan, and the result is a list with, for each cut of
    cuts, the sum of the terms whose key is above that cut (none for a nan
    cut).  A sum of finite terms is what math.fsum gives, and OverflowError
    when it rounds past float64.  A sum with a non-finite term is the IEEE
    sum of its non-finite terms: +-inf, or nan where fsum would raise
    ValueError for inf + -inf.
    """
    terms = np.asarray(terms, dtype=np.float64)
    if cuts is None:
        keys, bounds = None, np.empty(0)
    else:
        grid = np.asarray(cuts, dtype=np.float64)
        if grid.size == 0:
            return []
        keys = np.asarray(keys, dtype=np.float64)
        if keys.shape != terms.shape:
            raise ValueError(
                f"exact_sums needs one key per term, got {keys.shape} for {terms.shape}")
        bounds = np.sort(grid)  # a nan last; a repeated cut leaves an empty interval
    n = len(bounds) + 1
    sums = [0] * n  # per interval of keys between bounds, in 1 / _UNIT
    specials = np.zeros(n)  # per interval, the IEEE sum of its non-finite terms
    for start in range(0, terms.size, _SUM_BLOCK):
        block = terms[start:start + _SUM_BLOCK]
        # the count of bounds below each key, then the bin
        intervals = 0 if keys is None else np.searchsorted(bounds, keys[start:start + _SUM_BLOCK])
        finite = np.isfinite(block)
        if not finite.all():
            with np.errstate(invalid="ignore"):  # inf + -inf is nan, as intended
                specials += np.bincount(np.broadcast_to(intervals, block.shape)[~finite],
                                        block[~finite], n)
            block = np.where(finite, block, 0.0)
        scaled, exponents = np.frexp(block)
        scaled *= 2.0**26
        wholes = np.floor(scaled)
        fractions = np.subtract(scaled, wholes, out=scaled)
        low = int(exponents.min())
        span = int(exponents.max()) - low + 1
        bins = intervals * span  # added to in place: int64 + int32 into a new array is slower
        bins += exponents
        bins -= low
        wholes, fractions = np.bincount(bins, wholes), np.bincount(bins, fractions)
        used = np.flatnonzero(wholes + fractions)
        block_sums = [0] * n  # in units of 2**(low - 53)
        for i, whole, fraction in zip(used.tolist(), wholes[used].tolist(),
                                      fractions[used].tolist()):
            block_sums[i // span] += ((int(whole) << 27) + int(fraction * 2.0**27)) << (i % span)
        for interval, block_sum in enumerate(block_sums):
            sums[interval] += block_sum << (low - _EXP_MIN)
    # the sum over intervals i.. for each i that a result needs, from the top
    suffix = [0.0] * n
    total, special = 0, 0.0
    specials = specials.tolist()
    for i in range(n - 1, -1 if keys is None else 0, -1):
        total += sums[i]
        special += specials[i]
        suffix[i] = special if special else total / _UNIT
    if keys is None:
        return suffix[0]
    return [suffix[i + 1] for i in np.searchsorted(bounds, grid).tolist()]


def compensated_sum(values: Iterable[float] | np.ndarray) -> float:
    """Exactly rounded sum of floats, as math.fsum gives it.

    A 1-D numpy array is read through its buffer, without building a list;
    from _BINNED_MIN terms on, an all-finite float64 one goes to exact_sums,
    which is faster there and gives the same bits.
    """
    if isinstance(values, np.ndarray):
        if (values.ndim == 1 and values.size >= _BINNED_MIN
                and values.dtype == np.float64 and np.isfinite(values).all()):
            return exact_sums(values)
        values = memoryview(values)
    return math.fsum(values)


def compensated_dot(a, b) -> float:
    """Exactly-rounded sum of elementwise products of two equal-length sequences.

    The products are the float64 products x * y, formed by numpy.
    """
    if len(a) != len(b):
        raise ValueError(f"compensated_dot needs equal lengths, got {len(a)} and {len(b)}")
    return compensated_sum(np.multiply(a, b, dtype=np.float64))


def sqrt_ratio(p: int, q: int) -> float:
    """The correctly rounded float of sqrt(p / q), for integers p >= 0, q > 0.

    r = isqrt(p 4^k // q) is floor(sqrt(p / q) 2^k), with k chosen so that r
    has at least 55 bits; setting its last bit when r^2 q != p 4^k (a sticky
    bit) rounds it to odd, and int / int then rounds once more, to nearest,
    which gives the correctly rounded root (two extra bits suffice).
    OverflowError past the float64 range.
    """
    if p < 0 or q <= 0:
        raise ValueError(f"sqrt_ratio needs p >= 0 and q > 0, got {p} and {q}")
    k = max(0, (112 - p.bit_length() + q.bit_length()) // 2 + 1)
    scaled = p << 2 * k
    r = math.isqrt(scaled // q)
    if r * r * q != scaled:
        r |= 1
    return r / (1 << k)


@lru_cache(maxsize=None)
def log_factorial(n: int) -> float:
    """log(n!) by exact summation of log k; stable for any n that fits in memory."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return math.fsum(math.log(k) for k in range(2, n + 1))


@dataclass(frozen=True)
class LogReal:
    """A non-negative real held as its natural log, so huge magnitudes stay finite.

    `value` materializes the float (inf past the float64 range); `log` is the
    primary representation. log = -inf encodes an exact zero.
    """

    log: float

    @property
    def value(self) -> float:
        try:
            return math.exp(self.log)
        except OverflowError:
            return math.inf

    def ratio_to(self, other: "LogReal") -> float:
        """self / other evaluated in log space."""
        return math.exp(self.log - other.log)


def resolve_threads(threads: int | None = None) -> int:
    """Worker count, 1 for None; below 1 raises ValueError.  Every computation
    runs in the calling thread, so the count only has to be valid."""
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    return threads or 1


def to_json(obj):
    """JSON-ready form of a report: dataclasses become dicts, lists and tuples
    lists, and a dict's values are converted in turn.

    Fields are written under their own names unless their metadata says
    otherwise:

    * ``decimal``: an exact integer, written as a decimal string;
    * ``key``: the name to write the field under;
    * ``omit``: leave the field out;
    * ``flatten``: merge the field's own dict into this one.
    """
    if isinstance(obj, (list, tuple)):
        return [to_json(item) for item in obj]
    if isinstance(obj, dict):
        return {key: to_json(value) for key, value in obj.items()}
    if not dataclasses.is_dataclass(obj):
        return obj
    out = {}
    for f in dataclasses.fields(obj):
        meta = f.metadata
        if meta.get("omit"):
            continue
        value = to_json(getattr(obj, f.name))
        if meta.get("flatten"):
            out.update(value)
        else:
            out[meta.get("key", f.name)] = str(value) if meta.get("decimal") else value
    return out
