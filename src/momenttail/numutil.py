"""Shared helpers: compensated sums, log-space values, worker-count
validation and report serialization."""

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

# exp overflows float64 just above this
_EXP_MAX = 709.0


def compensated_sum(values: Iterable[float] | np.ndarray) -> float:
    """Sum floats without accumulation error (Shewchuk exact summation).

    A 1-D numpy array is read through its buffer, without building a list.
    The sum is exactly rounded, so it does not depend on the order of values.
    """
    if isinstance(values, np.ndarray):
        values = memoryview(values)
    return math.fsum(values)


def compensated_dot(a, b) -> float:
    """Exactly-rounded sum of elementwise products of two equal-length sequences.

    The products are the float64 products x * y, formed by numpy.
    """
    if len(a) != len(b):
        raise ValueError(f"compensated_dot needs equal lengths, got {len(a)} and {len(b)}")
    return compensated_sum(np.multiply(a, b, dtype=np.float64))


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
        if self.log == -math.inf:
            return 0.0
        if self.log > _EXP_MAX:
            return math.inf
        return math.exp(self.log)

    def __float__(self) -> float:
        return self.value

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
    """JSON-ready form of a report: dataclasses become dicts, lists and tuples lists.

    Fields are written under their own names unless their metadata says
    otherwise:

    * ``decimal``: an exact integer, written as a decimal string;
    * ``key``: the name to write the field under;
    * ``omit``: leave the field out;
    * ``flatten``: merge the field's own dict into this one.
    """
    if isinstance(obj, (list, tuple)):
        return [to_json(item) for item in obj]
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
