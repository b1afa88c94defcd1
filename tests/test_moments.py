"""Unit and property tests for the finite-distribution tail machinery."""

import io
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momenttail.moments import (
    DegenerateDistributionError,
    DistributionFormatError,
    EmpiricalDistribution,
    InconsistentMomentsError,
    load_distribution_csv,
    max_lower_bound,
    moment,
    normalize,
    tail_second_moment,
    verify_theorem,
)
from momenttail.numutil import to_json
from oracles import (
    mean_oracle,
    moment_oracle,
    normalize_oracle,
    rejection_oracle,
    tail_second_moment_oracle,
    total_weight_oracle,
)


def dist(*pairs):
    return EmpiricalDistribution.from_pairs(pairs)


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

    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(((5.0, 1.0),), normalized=True)


class TestNormalize:
    def test_identity_case(self):
        out = normalize(TWO_POINT)
        assert out.entries.tolist() == [[2.0, 0.5], [0.0, 0.5]]
        assert out.normalized

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
    d = normalize(EmpiricalDistribution.from_pairs(pairs))
    assert moment(d, 1) == pytest.approx(1.0, abs=1e-12)
    again = normalize(d)
    for (v1, w1), (v2, w2) in zip(d.entries, again.entries):
        assert v2 == pytest.approx(v1, rel=1e-12, abs=1e-12)
        assert w2 == pytest.approx(w1, rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(finite_dists)
def test_theorem_holds_on_random_support(pairs):
    d = EmpiricalDistribution.from_pairs(pairs)
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
    base = EmpiricalDistribution.from_pairs(pairs)
    scaled = EmpiricalDistribution.from_pairs([(v * c, w) for v, w in pairs])
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
    d = EmpiricalDistribution.from_pairs(pairs)
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
    d = EmpiricalDistribution.from_pairs(pairs)
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
@given(wide_dists)
def test_tail_equals_generator_form(pairs):
    for d in (EmpiricalDistribution.from_pairs(pairs), normalize(dist(*pairs))):
        ref = [tuple(p) for p in d.entries.tolist()]
        atoms = sorted(set(d.values.tolist()))
        top = atoms[-1]
        cutoffs = atoms + [(lo + hi) / 2 for lo, hi in zip(atoms, atoms[1:])]
        cutoffs += [-1.0, -math.inf, top, 2 * top + 1.0, math.inf]
        for b in cutoffs:
            assert tail_second_moment(d, b) == tail_second_moment_oracle(ref, b), b


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
            TWO_POINT.normalized = True

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
