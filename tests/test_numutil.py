"""Tests for the shared numeric helpers."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momenttail.numutil import (
    LogReal,
    compensated_dot,
    compensated_sum,
    log_factorial,
    resolve_threads,
    to_json,
)


def test_compensated_sum_beats_naive():
    values = [1e16, 1.0, -1e16, 1.0]
    assert compensated_sum(values) == 2.0


def test_compensated_dot():
    assert compensated_dot([1e8, 1.0], [1e8, -1.0]) == 1e16 - 1.0


def test_compensated_dot_length_mismatch():
    # numpy would broadcast the length-1 side; the lengths are checked first
    with pytest.raises(ValueError):
        compensated_dot([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        compensated_dot(np.ones(3), np.ones(2))


finite = st.floats(min_value=-1e150, max_value=1e150)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(finite, finite), max_size=40))
def test_array_sums_equal_generator_sums(pairs):
    a = np.array([x for x, _ in pairs], dtype=float)
    b = np.array([y for _, y in pairs], dtype=float)
    assert compensated_dot(a, b) == math.fsum(x * y for x, y in pairs)
    assert compensated_sum(a) == math.fsum(a.tolist())
    assert compensated_sum(a[::2]) == math.fsum(a.tolist()[::2])


def test_log_factorial_small():
    for n in range(0, 20):
        assert log_factorial(n) == pytest.approx(math.log(math.factorial(n)), rel=1e-14)


def test_log_factorial_matches_lgamma():
    for n in (50, 170, 500):
        assert log_factorial(n) == pytest.approx(math.lgamma(n + 1), rel=1e-13)


def test_logreal_roundtrip():
    x = LogReal(math.log(42.5))
    assert x.value == pytest.approx(42.5, rel=1e-15)
    assert float(x) == x.value


def test_logreal_overflow_is_inf():
    assert LogReal(1000.0).value == math.inf


def test_logreal_zero():
    assert LogReal(-math.inf).value == 0.0


def test_logreal_ratio():
    a, b = LogReal(math.log(8.0)), LogReal(math.log(2.0))
    assert a.ratio_to(b) == pytest.approx(4.0, rel=1e-15)


def test_resolve_threads_explicit():
    assert resolve_threads(3) == 3
    assert resolve_threads(None) == 1
    with pytest.raises(ValueError):
        resolve_threads(0)


@dataclass(frozen=True)
class _Inner:
    x: int
    y: str


@dataclass(frozen=True)
class _Report:
    big: int = field(metadata={"decimal": True})
    renamed: float = field(metadata={"key": "r"})
    hidden: tuple = field(metadata={"omit": True})
    inner: _Inner = field(metadata={"flatten": True})
    items: tuple[_Inner, ...]
    maybe: float | None = None


def test_to_json_metadata_keys():
    report = _Report(
        big=10**30, renamed=1.5, hidden=(1, 2), inner=_Inner(3, "a"),
        items=(_Inner(4, "b"),),
    )
    assert to_json(report) == {
        "big": "1" + "0" * 30,
        "r": 1.5,
        "x": 3,
        "y": "a",
        "items": [{"x": 4, "y": "b"}],
        "maybe": None,
    }
