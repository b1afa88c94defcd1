"""Tests for the shared numeric helpers."""

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momenttail import numutil
from momenttail.numutil import (
    LogReal,
    compensated_dot,
    compensated_sum,
    exact_sums,
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


def fsum_or_error(values):
    """math.fsum of values, or the type of the exception it raises."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def exact_or_overflow(values):
    """The exact sum of finite values rounded once, or OverflowError."""
    try:
        return float(sum(map(Fraction, values), Fraction(0)))
    except OverflowError:
        return OverflowError


def sum_or_error(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def same(x, y) -> bool:
    """Equal floats bit for bit (nan to nan, -0.0 apart from 0.0), or equal outcomes."""
    return repr(x) == repr(y)


def _terms(kind: str, n: int, rng) -> np.ndarray:
    if kind == "lognormal":
        return rng.lognormal(0.0, 3.0, n)
    if kind == "mixed":  # both signs, every binary exponent from subnormal to the top
        return np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, 1020, n))
    if kind == "subnormal":
        return rng.integers(-2**52, 2**52, n) * 5e-324
    if kind == "cancelling":  # pairs x, -x over the full range, and a few tiny terms
        pairs = _terms("mixed", n // 2, rng)
        tiny = rng.lognormal(0.0, 3.0, n % 2 + 2 * (n > 1)) * 1e-300
        return rng.permutation(np.concatenate((pairs, -pairs[: n - len(pairs) - len(tiny)], tiny)))
    raise ValueError(kind)


class TestExactSums:
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, (1 << 17) + 1])
    @pytest.mark.parametrize("kind", ["lognormal", "mixed", "subnormal", "cancelling"])
    def test_equals_fsum(self, n, kind):
        rng = np.random.default_rng([n, len(kind)])
        terms = _terms(kind, n, rng)
        want = math.fsum(terms.tolist())
        assert same(exact_sums(terms), want)
        assert same(compensated_sum(terms), want)
        # strided views: every second term, and the reversed order
        assert same(exact_sums(terms[::2]), math.fsum(terms[::2].tolist()))
        assert same(compensated_sum(terms[::-1]), want)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
           st.sampled_from([1, 3, 1 << 17]))
    def test_any_finite_terms_in_any_blocks(self, values, block):
        with mock.patch.object(numutil, "_SUM_BLOCK", block):
            got = sum_or_error(exact_sums, np.array(values))
        assert same(got, exact_or_overflow(values))
        if fsum_or_error(values) is not OverflowError:
            assert same(got, math.fsum(values))

    def test_long_arrays_take_the_binned_pass(self):
        terms = np.full(numutil._BINNED_MIN, 0.1)
        with mock.patch.object(numutil, "exact_sums", wraps=numutil.exact_sums) as binned:
            assert compensated_sum(terms[:-1]) == math.fsum(terms[:-1].tolist())
            assert binned.call_count == 0
            assert compensated_sum(terms) == math.fsum(terms.tolist())
            assert binned.call_count == 1
            terms[7] = math.inf  # a non-finite term keeps math.fsum
            assert compensated_sum(terms) == math.inf
            assert binned.call_count == 1

    @pytest.mark.parametrize("specials", [[math.inf], [-math.inf], [math.nan],
                                          [math.inf, -math.inf], [math.inf, math.nan]])
    def test_non_finite_terms(self, specials):
        terms = np.linspace(-1e300, 1e300, 2048)
        terms[[5, 1000][:len(specials)]] = specials
        fsum = fsum_or_error(terms.tolist())
        assert same(sum_or_error(compensated_sum, terms), fsum)
        # the kernel gives the IEEE sum of the non-finite terms, which is
        # fsum's result except where fsum raises for inf + -inf
        got = exact_sums(terms)
        assert same(got, math.nan if fsum is ValueError else fsum)
        assert same(got, sum(specials))

    @pytest.mark.parametrize("terms", [
        [sys.float_info.max, sys.float_info.max],
        [sys.float_info.max, math.ulp(sys.float_info.max) / 2],  # a tie rounds past
        [1e308] * 1500,
    ])
    def test_non_negative_sum_past_float64_raises(self, terms):
        assert fsum_or_error(terms) is OverflowError
        with pytest.raises(OverflowError):
            exact_sums(np.array(terms))
        with pytest.raises(OverflowError):
            compensated_sum(np.array(terms))

    def test_largest_sum_below_the_rounding_edge(self):
        top = sys.float_info.max
        below = math.ulp(top) / 2 - math.ulp(top) / 2**53  # just under the tie
        assert exact_sums(np.array([top, below])) == top == math.fsum([top, below])

    def test_empty_and_zero(self):
        assert same(exact_sums(np.empty(0)), math.fsum([]))
        assert same(exact_sums(np.array([-0.0, -0.0])), math.fsum([-0.0, -0.0]))
        assert exact_sums(np.array([1.0]), [1.0], []) == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(-2.0, 2.0)),
                    min_size=1, max_size=60),
           st.lists(st.one_of(st.floats(-2.5, 2.5), st.sampled_from(
               [0.0, 1.0, -math.inf, math.inf, math.nan])), min_size=1, max_size=8),
           st.sampled_from([1, 3, 1 << 17]))
    # inf and -inf in one sum, from two blocks: nan, with no numpy warning
    @example(pairs=[(math.inf, 0.5), (-math.inf, 0.5)], cuts=[0.0], block=1)
    def test_keyed_sums_equal_fsum_of_masked_subsets(self, pairs, cuts, block):
        cuts = cuts + cuts[:2]  # repeated cuts
        terms = np.array([t for t, _ in pairs])
        keys = np.array([k for _, k in pairs])
        subsets = [[t for t, k in pairs if k > cut] for cut in cuts]
        want = []
        for subset in subsets:
            finite = [t for t in subset if math.isfinite(t)]
            want.append(sum(t for t in subset if not math.isfinite(t))
                        if len(finite) < len(subset) else exact_or_overflow(finite))
        with mock.patch.object(numutil, "_SUM_BLOCK", block):
            if OverflowError in want:
                with pytest.raises(OverflowError):
                    exact_sums(terms, keys, cuts)
                return
            got = exact_sums(terms, keys, cuts)
        assert [repr(x) for x in got] == [repr(x) for x in want]
        for subset, x in zip(subsets, got):
            if fsum_or_error(subset) not in (OverflowError, ValueError):
                assert same(x, math.fsum(subset))

    def test_keys_must_match_terms(self):
        with pytest.raises(ValueError, match="one key per term"):
            exact_sums(np.ones(3), np.ones(2), [0.0])


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


@pytest.mark.parametrize("log, value", [
    (709.5, 1.3549863193146328e+308),
    (math.log(sys.float_info.max), 1.7976931348622732e+308),
    (709.79, math.inf),
])
def test_logreal_value_is_exp_up_to_overflow(log, value):
    # inf only where math.exp itself overflows
    assert LogReal(log).value == value


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError, match="n must be non-negative"):
        log_factorial(-1)


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


def test_to_json_converts_dict_values():
    payload = {"report": _Inner(1, "a"), "rows": [_Inner(2, "b")], "n": 3}
    assert to_json(payload) == {"report": {"x": 1, "y": "a"}, "rows": [{"x": 2, "y": "b"}], "n": 3}
