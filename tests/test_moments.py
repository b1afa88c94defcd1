"""Unit and property tests for the finite-distribution tail machinery."""

import io
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from momenttail import moments, numutil
from momenttail.moments import (
    DegenerateDistributionError,
    DistributionFormatError,
    EmpiricalDistribution,
    load_distribution_csv,
    moment,
    normalize,
    verify_theorem,
)
from momenttail.numutil import to_json
from oracles import (
    InconsistentMomentsError,
    load_distribution_csv_oracle,
    max_lower_bound,
    mean_oracle,
    moment_oracle,
    normalize_oracle,
    rejection_oracle,
    tail_second_moment,
    tail_second_moment_oracle,
    total_weight_oracle,
)
from test_golden import heavy_csv


def dist(*pairs):
    return EmpiricalDistribution(pairs)


TWO_POINT = dist((2.0, 0.5), (0.0, 0.5))


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(())

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            dist((-1.0, 0.5))

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            dist((1.0, 0.0))


class TestNormalize:
    def test_identity_case(self):
        out = normalize(TWO_POINT)
        assert out.entries.tolist() == [[2.0, 0.5], [0.0, 0.5]]

    def test_scaling_by_half(self):
        out = normalize(dist((4.0, 0.5), (0.0, 0.5)))
        assert out.entries.tolist() == [[2.0, 0.5], [0.0, 0.5]]

    def test_weight_rescaling(self):
        out = normalize(dist((3.0, 2.0), (0.0, 1.0)))
        values = [v for v, _ in out.entries]
        weights = [w for _, w in out.entries]
        assert values == pytest.approx([1.5, 0.0])
        assert weights == pytest.approx([2 / 3, 1 / 3])

    def test_zero_mean_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            normalize(dist((0.0, 1.0), (0.0, 2.0)))

    @pytest.mark.parametrize("pairs", [
        [(2.2250738585072014e-308, 1e-06)],  # normal value, subnormal product
        [(5e-324, 1e-06)],  # product underflows to 0
        [(1e-320, 1e-06), (3e-322, 0.5)],
        [(1e-307, 1.0), (0.0, 1e15)],  # normal product, subnormal mean
    ])
    def test_subnormal_products_reach_unit_mean(self, pairs):
        d = dist(*pairs)
        exact = exact_mean(pairs)
        assert d.mean == pytest.approx(float(exact), rel=1e-15, abs=5e-324)
        out = normalize(d)
        assert out.mean == pytest.approx(1.0, abs=1e-15)
        assert out.values.tolist() == pytest.approx([float(Fraction(v) / exact) for v, _ in pairs])

    @pytest.mark.parametrize("pairs", [
        [(1e300, 1e-300), (1e-300, 1e300)],  # mean 2e-300: 1e300 / mean is 5e599
        [(1e300, 1e-300), (0.0, 1.7e308)],  # subnormal mean, rescaled route
    ])
    def test_overflowing_value_over_mean_rejected(self, pairs):
        # a ValueError about the input, not a RuntimeWarning and a complaint
        # about the normalized result
        with pytest.raises(ValueError, match="value/mean overflows float64: entry 0"):
            normalize(dist(*pairs))

    def test_overflowing_total_weight_rejected(self):
        d = dist((1.0, 1e308), (2.0, 1e308))
        with pytest.raises(ValueError) as err:
            normalize(d)
        assert str(err.value) == (
            "total weight overflows float64: the 2 weights sum past 1.7976931348623157e+308"
        )

    @pytest.mark.parametrize("pairs, mean", [
        ([(1e308, 1.0), (1e308, 1.0)], 1e308),  # the products sum past float64
        ([(1e200, 1e200), (1.0, 1.0)], 1e200),  # a product overflows
        ([(1.5e308, 0.75), (1e308, 0.75)], 1.25e308),
    ])
    def test_overflowing_products_take_the_rescaled_mean(self, pairs, mean):
        d = dist(*pairs)
        assert d.mean == pytest.approx(float(exact_mean(pairs)), rel=1e-15)
        assert d.mean == pytest.approx(mean, rel=1e-15)
        out = normalize(d)
        assert out.mean == pytest.approx(1.0, abs=1e-15)

    def test_mean_rounding_past_float64_rejected(self):
        # the exact mean is the largest float, but the rounded total weight
        # is a little below the exact one, so the quotient rounds past it
        top = sys.float_info.max
        d = dist((top, 0.4698211243525061), (top, 0.8159582267661509), (top, 0.1),
                 (top, 0.9642433286879182))
        with pytest.raises(ValueError, match=r"^mean overflows float64: it rounds to "):
            normalize(d)

    def test_underflowing_weight_over_total_rejected(self):
        # 1e-320 / 1e300 is 0: a complaint about the input entry, not about
        # a non-positive weight in the normalized result
        with pytest.raises(ValueError) as err:
            normalize(dist((1.0, 1e300), (1.0, 1e-320)))
        assert str(err.value) == (
            "weight/total weight underflows float64: entry 1 has weight 1e-320 "
            "and the total weight is 1e+300"
        )


# values from subnormal to 1e300, with powers past float64 for k >= 2, and
# weights from subnormal up, small enough that some of those terms are finite
# even so and some are near the top of the float64 range
pow_values = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e75, max_value=1e300),
    st.sampled_from([0.0, 1.0, 1e77, 1e103, 1e154, 1e300]),
)
pow_weights = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=1e-300, max_value=1e-3),
    st.floats(min_value=1e-3, max_value=1e3),
)
pow_dists = st.lists(st.tuples(pow_values, pow_weights), min_size=1, max_size=40)
# the same with values up to 1e75, whose powers up to the 4th are finite
finite_pow_dists = st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e75), pow_weights),
                            min_size=1, max_size=40)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, OverflowError) as err:
        return type(err), str(err)


class TestMoment:
    def test_two_point_second(self):
        assert moment(TWO_POINT, 2) == pytest.approx(2.0)

    def test_point_mass_any_order(self):
        assert moment(dist((1.0, 1.0)), 7) == pytest.approx(1.0)

    def test_three_point_hand_sum(self):
        d = dist((1.0, 0.25), (2.0, 0.25), (3.0, 0.5))
        # 1*0.25 + 4*0.25 + 9*0.5
        assert moment(d, 2) == pytest.approx(5.75, abs=1e-12)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            moment(TWO_POINT, 0)

    def test_finite_term_past_an_overflowing_power(self):
        # pow(5e299, 2) overflows, but w * v^2 = 1.25e299 is finite when
        # formed as (w * v) * v, as the tail sums form it
        d = normalize(dist((1e300, 1e-300), (1.0, 1.0)))
        v, w = d.values[0], d.weights[0]
        assert moment(d, 2) == math.fsum([(w * v) * v, d.weights[1] * d.values[1] ** 2])
        assert moment(d, 2) == 2.5e299
        report = verify_theorem(dist((1e300, 1e-300), (1.0, 1.0)), [1.0])
        assert (report.a, report.max_value) == (2.5e299, 5e299)
        assert report.checks[0].holds

    def test_overflowing_fourth_power(self):
        d = dist((1e100, 1e-300), (2.0, 1.0))
        want = math.fsum([((1e-300 * 1e100) * 1e100) * 1e100 * 1e100, 2.0**4]) / d.total_weight
        assert moment(d, 4) == want

    @pytest.mark.parametrize("k", [2, 3])
    def test_term_past_float64_names_its_entry(self, k):
        with pytest.raises(ValueError, match=f"entry 1: weight 2.0 \\* value 1e\\+200\\^{k} is past"):
            moment(dist((1.0, 1.0), (1e200, 2.0)), k)

    @settings(max_examples=100, deadline=None)
    @given(finite_pow_dists, st.integers(1, 4))
    def test_finite_powers_keep_one_pass(self, pairs, k):
        # where no power overflows, every term is w * pow(v, k): no entry
        # takes the (w * v) * v ... form
        want = math.fsum(w * math.pow(v, k) for v, w in pairs) / total_weight_oracle(pairs)
        assert moment(dist(*pairs), k) == want


@pytest.mark.parametrize("entries", [10, 1100], ids=["10-entries", "1100-entries"])
@pytest.mark.parametrize("call, quantity", [
    (lambda d: moment(d, 2), "moment 2 overflows float64: the terms w * v^2"),
    (lambda d: tail_second_moment(d, 0.0),
     "tail second moment overflows float64: the terms w * v^2 above a cutoff"),
    (lambda d: moments.check_tail_inequality(d, [0.0]), "moment 2 overflows float64: the terms w * v^2"),
], ids=["moment", "tail", "check"])
def test_sum_past_float64_raises_one_value_error(entries, call, quantity):
    # fsum (short arrays) and the binned pass (long arrays, and every tail
    # sum) overflow with different OverflowErrors; each becomes one
    # ValueError that names the sum
    with pytest.raises(ValueError) as err:
        call(dist(*[(1e154, 1.0)] * entries))
    assert str(err.value) == f"{quantity} sum past 1.7976931348623157e+308"


class TestTailSecondMoment:
    def test_below_support(self):
        assert tail_second_moment(TWO_POINT, 1.0) == pytest.approx(2.0)

    def test_strict_at_boundary(self):
        assert tail_second_moment(TWO_POINT, 2.0) == 0.0

    def test_three_point_hand_sum(self):
        d = dist((1.0, 0.25), (2.0, 0.25), (3.0, 0.5))
        # 4*0.25 + 9*0.5
        assert tail_second_moment(d, 1.5) == pytest.approx(5.5, abs=1e-12)

    def test_far_below_equals_second_moment(self):
        d = dist((1.0, 0.25), (2.0, 0.25), (3.0, 0.5))
        assert tail_second_moment(d, -1e9) == pytest.approx(moment(d, 2))


class TestVerifyTheorem:
    def test_two_point_report(self):
        report = verify_theorem(TWO_POINT, [1.0])
        assert report.a == pytest.approx(2.0)
        assert report.max_value == pytest.approx(2.0)
        assert not report.degenerate
        (check,) = report.checks
        assert check.tail == pytest.approx(2.0)
        assert check.lower_bound == pytest.approx(1.0)
        assert check.holds

    def test_point_mass_degenerate(self):
        report = verify_theorem(dist((1.0, 1.0)), [0.0, 0.5])
        assert report.degenerate
        assert report.a == pytest.approx(1.0)

    def test_negative_b_rejected(self):
        with pytest.raises(ValueError):
            verify_theorem(TWO_POINT, [-0.5])

    @pytest.mark.parametrize("b", [math.nan, math.inf])
    def test_non_finite_b_rejected(self, b):
        with pytest.raises(ValueError, match="finite"):
            verify_theorem(TWO_POINT, [1.0, b])

    def test_json_shape(self):
        payload = to_json(verify_theorem(TWO_POINT, [1.0]))
        assert set(payload) == {"a", "max", "degenerate", "checks"}
        assert set(payload["checks"][0]) == {"b", "tail", "bound", "holds"}

    @pytest.mark.parametrize("value, missed", [(1.109375, "max"), (1.0, "tail")])
    def test_rounding_miss_is_settled_exactly(self, value, missed):
        # a tiny atom far out: a is about 2.86e8, and one float check falls
        # short of it by a rounding error above CHECK_TOL
        d = normalize(dist((0.0, 286.0), (value, 1e-06)))
        report = moments.check_tail_inequality(d, [0.0])
        (check,) = report.checks
        short = {"max": report.max_value < report.a - moments.CHECK_TOL,
                 "tail": check.tail < check.lower_bound - moments.CHECK_TOL}
        assert [name for name, miss in short.items() if miss] == [missed]
        assert check.holds

    def test_cutoff_at_or_past_a_holds_with_any_tail(self, monkeypatch):
        # a - b <= 0 <= tail there, so even a zero tail sum passes
        monkeypatch.setattr(moments, "_tail_sums", lambda d, grid: [0.0] * len(grid))
        report = verify_theorem(TWO_POINT, [2.0, 3.0])
        assert [(c.tail, c.lower_bound, c.holds) for c in report.checks] == [
            (0.0, 0.0, True), (0.0, -1.0, True)]

    def test_corrupted_tail_sum_still_raises(self, monkeypatch):
        # the exact check also holds the float tail to its exact value
        tail_sums = moments._tail_sums
        monkeypatch.setattr(moments, "_tail_sums", lambda d, grid: [t / 2 for t in tail_sums(d, grid)])
        with pytest.raises(moments.TheoremViolationError, match="tail"):
            verify_theorem(TWO_POINT, [0.5])

    def test_corrupted_second_moment_still_raises(self, monkeypatch):
        monkeypatch.setattr(moments, "moment", lambda d, k: 3.0)
        with pytest.raises(moments.TheoremViolationError, match="max"):
            verify_theorem(TWO_POINT, [])


class TestCutoffs:
    """check_tail_inequality owns the check of its cutoffs."""

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_cutoff_rejected_before_any_sum(self, monkeypatch, b):
        def no_sum(*args):
            raise AssertionError("a sum was formed before the cutoffs were checked")

        monkeypatch.setattr(moments, "_tail_sums", no_sum)
        monkeypatch.setattr(moments, "moment", no_sum)
        unit_mean = normalize(dist((1.0, 1.0), (3.0, 1.0)))
        with pytest.raises(ValueError) as err:
            moments.check_tail_inequality(unit_mean, [0.5, b])
        assert str(err.value) == f"b grid values must be finite and non-negative, got {b}"

    def test_zero_cutoffs_accepted(self):
        report = moments.check_tail_inequality(normalize(dist((1.0, 1.0), (3.0, 1.0))), [0.0, -0.0])
        assert [(c.b, c.holds) for c in report.checks] == [(0.0, True), (-0.0, True)]
        assert [c.tail for c in report.checks] == [report.a, report.a]

    def test_distribution_error_comes_before_a_bad_cutoff(self):
        # verify_theorem normalizes first, so the file's fault is named
        with pytest.raises(DegenerateDistributionError):
            verify_theorem(dist((0.0, 1.0)), [math.nan])


@pytest.mark.parametrize("call, error, message", [
    (lambda: max_lower_bound(0.0, 1.0), ValueError, "first moment must be positive"),
    (lambda: load_distribution_csv(io.StringIO("")), DistributionFormatError,
     "line 1: empty file, expected `value,weight` header"),
], ids=["max-bound-m1-zero", "empty-csv"])
def test_guard_rejects(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


class TestMaxLowerBound:
    def test_unit_mean(self):
        assert max_lower_bound(1.0, 2.0) == pytest.approx(2.0)

    def test_general(self):
        assert max_lower_bound(2.0, 8.0) == pytest.approx(4.0)

    def test_inconsistent_pair(self):
        with pytest.raises(InconsistentMomentsError):
            max_lower_bound(2.0, 1.0)

    def test_degree_bound_from_s4_table(self):
        # uniform character of S4: degrees 1,3,2,3,1 scaled by 1/sqrt(24)
        degrees = [1, 3, 2, 3, 1]
        root = math.sqrt(24.0)
        m1 = math.fsum(d / root for d in degrees) / 5
        m2 = math.fsum((d / root) ** 2 for d in degrees) / 5
        assert root * max_lower_bound(m1, m2) == pytest.approx(2.4, abs=1e-12)


# values reach down to the subnormal range, so products v * w may be
# subnormal or underflow to 0; only an all-zero support is left out
finite_dists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=1e-6, max_value=1.0),
    ),
    min_size=1,
    max_size=30,
).filter(lambda pairs: any(v > 0 for v, _ in pairs))


def normal_products(pairs) -> bool:
    """No nonzero value meets its weight in a product below the normal range."""
    return all(v == 0 or v * w >= sys.float_info.min for v, w in pairs)


def exact_mean(pairs) -> Fraction:
    return (sum(Fraction(v) * Fraction(w) for v, w in pairs)
            / sum(Fraction(w) for _, w in pairs))


@settings(max_examples=200, deadline=None)
@given(finite_dists)
def test_normalize_idempotent_and_unit_mean(pairs):
    d = normalize(EmpiricalDistribution(pairs))
    assert moment(d, 1) == pytest.approx(1.0, abs=1e-12)
    again = normalize(d)
    for (v1, w1), (v2, w2) in zip(d.entries, again.entries):
        assert v2 == pytest.approx(v1, rel=1e-12, abs=1e-12)
        assert w2 == pytest.approx(w1, rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(finite_dists)
def test_theorem_holds_on_random_support(pairs):
    d = EmpiricalDistribution(pairs)
    norm = normalize(d)
    a = moment(norm, 2)
    grid = [a * i / 8 for i in range(8)]
    report = verify_theorem(d, grid)  # raises on violation
    assert report.max_value >= report.a - 1e-9 or report.degenerate
    assert all(c.holds for c in report.checks)


@settings(max_examples=100, deadline=None)
@given(finite_dists, st.floats(min_value=1e-3, max_value=1e3))
def test_scale_invariance(pairs, c):
    # where subnormal products carry the mean, scaling by c drops the bits
    # that carry it; other draws (tiny atoms included) stay checked
    assume(sum(v * w for v, w in pairs) > 1e-9)
    base = EmpiricalDistribution(pairs)
    scaled = EmpiricalDistribution([(v * c, w) for v, w in pairs])
    # the strict tail threshold is discontinuous at atoms, so compare at
    # points bounded away from them: 0 and midpoints between distinct values
    atoms = sorted({v for v, _ in normalize(base).entries})
    grid = [0.0, atoms[-1] + 1.0]
    grid += [
        (lo + hi) / 2 for lo, hi in zip(atoms, atoms[1:]) if hi - lo > 1e-6
    ]
    r1 = verify_theorem(base, grid)
    r2 = verify_theorem(scaled, grid)
    assert r2.a == pytest.approx(r1.a, abs=1e-9)
    assert r2.max_value == pytest.approx(r1.max_value, abs=1e-9)
    for c1, c2 in zip(r1.checks, r2.checks):
        assert c2.tail == pytest.approx(c1.tail, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(finite_dists, st.lists(st.floats(min_value=-5, max_value=15), min_size=2, max_size=8))
def test_tail_monotone_in_b(pairs, bs):
    d = EmpiricalDistribution(pairs)
    bs = sorted(bs)
    tails = [tail_second_moment(d, b) for b in bs]
    assert all(t1 >= t2 - 1e-12 for t1, t2 in zip(tails, tails[1:]))
    assert tail_second_moment(d, d.max_value) == 0.0


# values on a wide range, down to subnormal ones, plus a few repeated atoms,
# so ties at cutoffs occur
wide_dists = st.lists(
    st.tuples(
        st.one_of(st.floats(min_value=0.0, max_value=1e6),
                  st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        st.floats(min_value=1e-6, max_value=1e3),
    ),
    min_size=1,
    max_size=60,
).filter(lambda pairs: any(v > 0 for v, _ in pairs))


@settings(max_examples=300, deadline=None)
@given(wide_dists)
def test_array_forms_equal_generator_forms(pairs):
    d = EmpiricalDistribution(pairs)
    assert d.total_weight == total_weight_oracle(pairs)
    for k in range(1, 5):
        assert moment(d, k) == moment_oracle(pairs, k)
    norm = normalize(d)
    assert norm.mean == pytest.approx(1.0, abs=1e-12)
    if normal_products(pairs):
        assert d.mean == mean_oracle(pairs)
        if d.mean >= sys.float_info.min:  # a subnormal mean is divided by exactly rescaled
            assert norm.entries.tolist() == [list(p) for p in normalize_oracle(pairs)]
    else:
        # the exact power-of-two rescale keeps the mean to a few ulps
        assert d.mean == pytest.approx(float(exact_mean(pairs)), rel=1e-15, abs=5e-324)


def test_moment_keeps_python_power():
    # libm pow(x, 2) differs from x*x on about 0.08% of values and numpy's
    # x**4 from pow(x, 4) on about 5%, so 2000 draws separate the forms
    values = np.random.default_rng(7).uniform(0.0, 10.0, 2000).tolist()
    for x in values:
        d = dist((x, 1.0))
        assert [moment(d, k) for k in (2, 3, 4)] == [x**2, x**3, x**4]


@settings(max_examples=300, deadline=None)
@given(pow_dists, st.integers(1, 4))
@example([(1e300, 1e-300), (2.0, 1.0)], 2)  # a power past float64, its term finite
@example([(1e103, 1.0), (1.0, 1.0)], 3)  # a power and its term past float64
# terms that sum past float64 ahead of a term past float64: that entry is named
@example([(1e300, 1e-292), (1e300, 1e-292), (1e200, 2.0)], 2)
def test_moment_equals_pow_map(pairs, k):
    # results are non-negative floats or (type, message) pairs, so == is bit
    # for bit, and a ValueError names the same entry
    assert _outcome(moment, dist(*pairs), k) == _outcome(moment_oracle, pairs, k)


@settings(max_examples=300, deadline=None)
@given(wide_dists)
def test_tail_equals_generator_form(pairs):
    for d in (EmpiricalDistribution(pairs), normalize(dist(*pairs))):
        ref = [tuple(p) for p in d.entries.tolist()]
        atoms = sorted(set(d.values.tolist()))
        top = atoms[-1]
        cutoffs = atoms + [(lo + hi) / 2 for lo, hi in zip(atoms, atoms[1:])]
        cutoffs += [-1.0, -math.inf, top, 2 * top + 1.0, math.inf]
        for b in cutoffs:
            assert tail_second_moment(d, b) == tail_second_moment_oracle(ref, b), b


# values and weights from subnormal to near overflow, so terms (w * v) * v
# are subnormal, 0, normal, near the top of the range or inf, and their sums
# may round past float64
extreme_floats = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e150, max_value=sys.float_info.max),
    st.sampled_from([0.5, 1.0, 3.0, 1e154, sys.float_info.max]),
)
extreme_dists = st.lists(
    st.tuples(st.one_of(extreme_floats, st.just(0.0)), extreme_floats),
    min_size=1, max_size=40,
)


def tail_sum_exact(pairs, b):
    """sum of (w * v) * v over v > b, rounded once, or None past float64."""
    terms = [w * v * v for v, w in pairs if v > b]
    if math.inf in terms:
        return math.inf
    try:
        return float(sum(map(Fraction, terms), Fraction(0)))
    except OverflowError:
        return None


@settings(max_examples=300, deadline=None)
@given(extreme_dists, st.data(), st.sampled_from([1, 3, numutil._SUM_BLOCK]))
def test_one_pass_tails_equal_fsum_at_every_cutoff(pairs, data, block):
    d = dist(*pairs)
    atoms = sorted(set(d.values.tolist()))
    # unsorted, with duplicates: atoms, points between and beyond them
    cutoff = st.one_of(
        st.sampled_from(atoms),
        st.sampled_from([0.0, -0.0, -1.0, 2 * atoms[-1] + 1.0, -math.inf, math.inf, math.nan]),
        st.floats(min_value=0.0, max_value=atoms[-1]),
    )
    grid = data.draw(st.lists(cutoff, min_size=1, max_size=12))
    expected = [tail_sum_exact(pairs, b) for b in grid]
    with mock.patch.object(numutil, "_SUM_BLOCK", block):
        if None in expected:
            with pytest.raises(ValueError, match="^tail second moment overflows float64: "):
                moments._tail_sums(d, grid)
            return
        got = moments._tail_sums(d, grid)
    assert got == expected
    for b, tail in zip(grid, got):
        try:
            want = tail_second_moment_oracle(pairs, b)
        except OverflowError:  # the weights, or finite terms before an inf one, overflow
            continue
        assert tail / d.total_weight == want, b


@settings(max_examples=200, deadline=None)
@given(finite_dists, st.data())
def test_verify_theorem_tails_equal_oracle(pairs, data):
    norm = normalize(dist(*pairs))
    ref = [tuple(p) for p in norm.entries.tolist()]
    a = moment(norm, 2)
    atoms = sorted(set(norm.values.tolist()))
    cutoff = st.one_of(st.sampled_from(atoms), st.floats(min_value=0.0, max_value=2 * a + 1.0))
    grid = data.draw(st.lists(cutoff, min_size=1, max_size=20))
    report = verify_theorem(dist(*pairs), grid)
    assert [c.b for c in report.checks] == grid
    assert [c.tail for c in report.checks] == [tail_second_moment_oracle(ref, b) for b in grid]


def test_tail_of_empty_grid_is_empty():
    assert moments._tail_sums(TWO_POINT, []) == []
    assert verify_theorem(TWO_POINT, []).checks == ()


class TestArrayStorage:
    def test_arrays_are_read_only(self):
        d = dist((2.0, 0.5), (0.0, 0.5))
        for array in (d.values, d.weights, d.entries):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_input_array_is_copied(self):
        pairs = np.array([[2.0, 0.5], [0.0, 0.5]])
        d = EmpiricalDistribution(pairs)
        pairs[0, 0] = 7.0
        assert d.values.tolist() == [2.0, 0.0]

    def test_distribution_is_immutable(self):
        with pytest.raises(AttributeError):
            TWO_POINT.values = np.zeros(2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="pairs"):
            EmpiricalDistribution([1.0, 2.0])

    @pytest.mark.parametrize(
        "pairs, message",
        [
            # the first bad entry in row order, and its first failed check
            (((1.0, 0.0), (math.inf, 1.0)), "non-positive weight 0.0"),
            (((1.0, 1.0), (math.inf, 0.0)), "values and weights must be finite"),
            (((-1.0, math.nan),), "values and weights must be finite"),
            (((-1.0, 0.0),), "negative value -1.0"),
            (((1.0, 1.0), (2.0, -0.5), (-3.0, 1.0)), "non-positive weight -0.5"),
        ],
    )
    def test_mixed_bad_entries_keep_message(self, pairs, message):
        assert rejection_oracle(pairs) == message
        with pytest.raises(ValueError) as err:
            EmpiricalDistribution(pairs)
        assert str(err.value) == message


special = st.sampled_from([0.0, -0.0, -1.0, -2.5, math.nan, math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.floats(-2, 5), special),
                          st.one_of(st.floats(-1, 2), special)),
                min_size=1, max_size=12))
def test_rejection_message_matches_entry_loop(pairs):
    message = rejection_oracle(pairs)
    if message is None:
        EmpiricalDistribution(pairs)
    else:
        with pytest.raises(ValueError) as err:
            EmpiricalDistribution(pairs)
        assert str(err.value) == message


class TestCsvLoading:
    def test_round_trip(self):
        src = io.StringIO("value,weight\n2,0.5\n0,0.5\n")
        assert load_distribution_csv(src).entries.tolist() == [[2.0, 0.5], [0.0, 0.5]]

    def test_bad_header(self):
        with pytest.raises(DistributionFormatError) as err:
            load_distribution_csv(io.StringIO("val,wt\n1,1\n"))
        assert err.value.line == 1

    def test_bad_row_reports_line(self):
        with pytest.raises(DistributionFormatError) as err:
            load_distribution_csv(io.StringIO("value,weight\n1,1\nx,2\n"))
        assert err.value.line == 3

    def test_wrong_field_count(self):
        with pytest.raises(DistributionFormatError) as err:
            load_distribution_csv(io.StringIO("value,weight\n1,1,9\n"))
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            ("value,weight\n1,1\n2,1\n3,1\n-4,1\n", 5),
            ("value,weight\n1,1\n\n2,0\n", 4),
            ("value,weight\n\n1,1\n\n\nnan,1\n5,1\n", 6),
            ("value,weight\ninf,1\n", 2),
        ],
    )
    def test_rejected_value_reports_its_line(self, text, line):
        with pytest.raises(DistributionFormatError) as err:
            load_distribution_csv(io.StringIO(text))
        assert err.value.line == line

    def test_field_past_csv_limit_reports_its_line(self):
        # csv.reader's field limit (131072 characters) is a format error with
        # its line, whether the field is quoted or plain digits that float()
        # would read
        for field in ('"' + "1" * 200_000 + '"', "0." + "0" * 200_000 + "1"):
            with pytest.raises(DistributionFormatError) as err:
                load_distribution_csv(io.StringIO(f"value,weight\n1,1\n{field},2\n"))
            assert err.value.line == 3
            assert str(err.value) == "line 3: field larger than field limit (131072)"

    # a quoted field on lines 2-3 and a blank line 4, then the row under test
    SPANNING = 'value,weight\n"1\n",2\n\n'

    @pytest.mark.parametrize("row, line, message", [
        ("3,-1\n", 5, "non-positive weight -1.0"),
        ("3,1,1\n", 5, "expected 2 fields, got 3"),
        ("x,1\n", 5, "non-numeric entry ['x', '1']"),
        ("1" * 200_000 + ",1\n", 5, "field larger than field limit (131072)"),
        ('"3\n",-1\n', 6, "non-positive weight -1.0"),
        ('3,"1\n\n",1\n', 7, "expected 2 fields, got 3"),
    ], ids=["rejected-entry", "field-count", "non-numeric", "field-limit",
            "rejected-spanning-row", "spanning-field-count"])
    def test_csv_route_reports_the_physical_line(self, row, line, message):
        # every line on the csv.reader route is its line_num: the last line of
        # a row whose quoted field spans lines
        text = self.SPANNING + row + "4,1\n"
        assert moments._parse_plain(text) is None
        for load in (load_distribution_csv, load_distribution_csv_oracle):
            with pytest.raises(DistributionFormatError) as err:
                load(io.StringIO(text, newline=""))
            assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")

    def test_entry_after_a_spanning_row_reports_its_line(self):
        with pytest.raises(DistributionFormatError) as err:
            load_distribution_csv(io.StringIO('value,weight\n"1\n",2\n3,-1\n', newline=""))
        assert str(err.value) == "line 4: non-positive weight -1.0"

    def test_plain_files_take_the_block_parser(self):
        text = heavy_csv(rows=12_000)  # past two blocks of 64 KiB
        assert len(text) > 2 * moments._PARSE_BLOCK
        for variant in (text, text.replace("\n", "\r\n"), text.rstrip("\n")):
            entries = moments._parse_plain(variant)
            assert entries is not None
            want = load_distribution_csv_oracle(io.StringIO(variant, newline=""))
            assert entries.tobytes() == want.entries.tobytes()
        for odd in ('"value",weight\n1,2\n', "value,weight\n1,2\r3,4\n", "value,weight\n1\r,2\n",
                    "value,weight\n1,2\n\n3,4\n", "value,weight\n1,2\n3\n4,5,6\n"):
            assert moments._parse_plain(odd) is None

    def test_bad_entry_past_first_block_reports_its_line(self):
        lines = heavy_csv(rows=8000).splitlines(keepends=True)  # past one block
        lines[7500] = "2.5,-1\n"
        with pytest.raises(DistributionFormatError) as err:
            load_distribution_csv(io.StringIO("".join(lines)))
        assert (err.value.line, str(err.value)) == (7501, "line 7501: non-positive weight -1.0")

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_plain_file_with_a_bad_entry_is_parsed_once(self, monkeypatch, ending):
        # entry i of a plain file is on line i + 2; csv.reader is not needed to find it
        def reparse(text):
            raise AssertionError("a plain file went to csv.reader")

        monkeypatch.setattr(moments, "_parse_rows", reparse)
        text = ending.join(["value,weight", "1,1", "2,1", "-3,1", ""])
        with pytest.raises(DistributionFormatError) as err:
            load_distribution_csv(io.StringIO(text, newline=""))
        assert (err.value.line, str(err.value)) == (4, "line 4: negative value -3.0")


def load_outcome(load, text: str):
    """The entries' bytes, or the line and message of the format error."""
    try:
        return load(io.StringIO(text, newline="")).entries.tobytes()
    except DistributionFormatError as exc:
        return exc.line, str(exc)


number = st.one_of(
    st.floats(min_value=0.0, max_value=1e6).map(repr),
    st.integers(min_value=0, max_value=10**6).map(str),
)
odd_field = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "0", "-0", "1_0", "\u0661\u0662", " 2 ", "1e-320",
     "1e400", "x", "", "0x10", "\u00a03"]
)
field = st.one_of(number, odd_field)
odd_line = st.one_of(
    st.tuples(field, field).map(lambda f: f'"{f[0]}",{f[1]}'),
    st.tuples(field, field).map(lambda f: f'{f[0]},"{f[1]}"'),
    st.tuples(field, field).map(lambda f: f"{f[0]},{f[1]}"),
    field,
    st.tuples(field, field, field).map(",".join),
    st.sampled_from(["", "   ", '"1,5",2', '"1\n2",3', '"2",""', "1,,", "1\r,2"]),
)
line_end = st.sampled_from(["\n", "\n", "\r\n", "\r"])
header = st.sampled_from(
    ["value,weight"] * 4 + ['"value","weight"', " Value ,WEIGHT", "val,wt", "value"]
)


@st.composite
def csv_texts(draw):
    """Mostly plain files, with some odd lines, endings and headers mixed in."""
    lines = [draw(header)]
    lines += draw(st.lists(st.tuples(number, number).map(",".join), max_size=40))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        lines.insert(draw(st.integers(min_value=1, max_value=len(lines))), draw(odd_line))
    plain_ends = draw(st.booleans())
    ends = ["\n" if plain_ends else draw(line_end) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[: len(text) - len(ends[-1])]


@settings(max_examples=500, deadline=None)
@given(csv_texts(), st.sampled_from([1, 5, 40, moments._PARSE_BLOCK]))
# a lone CR ends a csv.reader row, so this is two rows of one field each
@example("value,weight\n1\r,2\n", moments._PARSE_BLOCK)
def test_loader_equals_csv_reader_oracle(text, block):
    with mock.patch.object(moments, "_PARSE_BLOCK", block):
        got = load_outcome(load_distribution_csv, text)
    assert got == load_outcome(load_distribution_csv_oracle, text)
