"""Tests for partitions, hook-length degrees, involutions and degree bounds."""

import math
from fractions import Fraction
from math import factorial

import pytest

from momenttail import symchar
from momenttail.moments import TheoremViolationError
from momenttail.symchar import (
    DegreeTable,
    Partition,
    XiMoments,
    degree,
    degree_table,
    involutions,
    involutions_asym,
    max_degree_asym_bound,
    p_asym,
    p_asym_log,
    p_exact,
    partitions,
    second_moment_degree_bound,
    xi_moments,
)

from oracles import (
    conjugate,
    degree_hooks,
    involutions_bruteforce,
    partitions_bruteforce,
)


class TestPartitions:
    def test_n4_reverse_lex(self):
        got = [p.parts for p in partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_n1(self):
        assert [p.parts for p in partitions(1)] == [(1,)]

    def test_n5_count(self):
        got = [p.parts for p in partitions(5)]
        assert len(got) == 7
        assert got[0] == (5,)
        assert got[-1] == (1,) * 5

    def test_n0_convention(self):
        assert [p.parts for p in partitions(0)] == [()]

    def test_order_matches_bruteforce(self):
        for n in range(16):
            got = [p.parts for p in partitions(n)]
            assert got == sorted(partitions_bruteforce(n), reverse=True)

    def test_counts_match_pentagonal_recurrence(self):
        for n in range(1, 36):
            assert len(partitions(n)) == p_exact(n)

    def test_partition_type_validates(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((3, 0))

    def test_guard(self):
        with pytest.raises(ValueError):
            partitions(61)


class TestPartitionCount:
    def test_small_values(self):
        assert p_exact(0) == 1
        assert p_exact(1) == 1
        assert p_exact(4) == 5
        assert p_exact(5) == 7

    def test_asym_ratio_moderate_range(self):
        for n in range(20, 61, 5):
            ratio = p_asym(n) / p_exact(n)
            assert 0 < ratio < 2

    def test_asym_log_identity(self):
        for n in (1, 10, 50):
            expected = math.pi * math.sqrt(2 * n / 3) - math.log(4 * n * math.sqrt(3))
            assert p_asym_log(n) == pytest.approx(expected, rel=1e-15)
            assert p_asym(n) == pytest.approx(math.exp(expected), rel=1e-12)

    def test_asym_monotone(self):
        vals = [p_asym(n) for n in range(1, 80)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestDegree:
    def test_row_partition_is_trivial(self):
        assert degree(Partition((7,))) == 1

    def test_column_partition_is_sign(self):
        assert degree(Partition((1,) * 7)) == 1

    def test_standard_tableaux_of_2_1(self):
        assert degree(Partition((2, 1))) == 2

    def test_divisibility_always_exact(self):
        for lam in partitions(9):
            # degree_hooks raises ArithmeticError unless the hooks divide 9!
            assert degree_hooks(lam.parts) >= 1

    def test_equals_hook_length_formula_to_n30(self):
        for n in range(31):
            for lam in partitions(n):
                assert degree(lam) == degree_hooks(lam.parts)

    def test_conjugate_symmetry(self):
        for n in range(1, 26):
            for lam in partitions(n):
                assert degree(lam) == degree(Partition(conjugate(lam.parts)))


class TestInvolutions:
    def test_brute_force_agreement(self):
        for n in range(0, 9):
            assert involutions(n) == involutions_bruteforce(n)

    def test_known_small_values(self):
        assert involutions(1) == 1
        assert involutions(3) == 4
        assert involutions(4) == 10

    def test_asym_log_identity(self):
        for n in (5, 30, 200):
            lf = math.fsum(math.log(k) for k in range(2, n + 1))
            expected = math.sqrt(n) - 0.25 - math.log(2 * math.sqrt(math.pi * n)) + lf / 2
            assert involutions_asym(n).log == pytest.approx(expected, rel=1e-12)

    def test_asym_ratio_recorded_range(self):
        # this asymptotic form runs a factor ~(2 pi n)^(1/4) below the exact
        # recurrence; the ratio is a report, frozen here at its actual band
        for n in range(20, 61, 5):
            ratio = math.exp(involutions_asym(n).log - math.log(involutions(n)))
            assert 0.18 < ratio < 0.35
            assert ratio == pytest.approx((2 * math.pi * n) ** -0.25, rel=0.12)

    def test_finite_at_n200(self):
        assert math.isfinite(involutions_asym(200).log)


class TestDegreeTable:
    def test_n3(self):
        table = degree_table(3)
        assert [d for _, d in table.rows] == [1, 2, 1]
        assert table.sum_degrees == 4
        assert table.sum_degree_squares == 6

    def test_n4(self):
        table = degree_table(4)
        assert [d for _, d in table.rows] == [1, 3, 2, 3, 1]
        assert table.sum_degrees == 10
        assert table.sum_degree_squares == 24

    def test_n1(self):
        table = degree_table(1)
        assert table.sum_degrees == 1
        assert table.sum_degree_squares == 1

    def test_identities_to_n20(self):
        for n in range(1, 21):
            table = degree_table(n)
            assert table.sum_degree_squares == factorial(n)
            assert table.sum_degrees == involutions(n)
            assert len(table.rows) == p_exact(n)

    def test_guard(self):
        with pytest.raises(ValueError):
            degree_table(0)
        with pytest.raises(ValueError):
            degree_table(61)

    @pytest.mark.parametrize("name, fake, message", [
        ("degree", lambda lam: 1, "degree squares sum to 7, expected 5!"),
        ("involutions", lambda n: 1, "degrees sum to 26, expected t(5)"),
        ("max_degree", property(lambda table: 4), "max degree 4 misses the bound 120 / 26"),
    ], ids=["squares", "sum", "max-bound"])
    def test_failed_exact_check_raises(self, monkeypatch, name, fake, message):
        # each is a theorem on the exact table, so a miss is a bug: exit 1 in the CLI
        monkeypatch.setattr(DegreeTable if name == "max_degree" else symchar, name, fake)
        with pytest.raises(TheoremViolationError) as err:
            degree_table(5)
        assert str(err.value) == message
        assert isinstance(err.value, RuntimeError)  # `except RuntimeError` still catches it


def test_empty_partition_is_self_conjugate_with_degree_1():
    empty = Partition(())
    assert (conjugate(empty.parts), degree(empty)) == ((), 1)


@pytest.mark.parametrize("call, message", [
    (lambda: partitions(-1), "n must be non-negative"),
    (lambda: p_exact(-1), "n must be non-negative"),
    (lambda: involutions(-1), "n must be non-negative"),
    (lambda: p_asym_log(0), "n must be positive"),
    (lambda: involutions_asym(0), "n must be positive"),
    (lambda: xi_moments(0), "n must be positive"),
    (lambda: second_moment_degree_bound(0), "n must be positive"),
    (lambda: max_degree_asym_bound(0), "n must be positive"),
    (lambda: XiMoments(n=4, p_n=1, t_n=10, e_xi=1.0, e_xi_log=0.0, e_xi2=1.0, e_xi2_log=0.0,
                       e_xi_asym=1.0, e_xi2_asym=1.0), "moment pair violates Cauchy-Schwarz"),
], ids=["partitions-neg", "p-exact-neg", "involutions-neg",
        "p-asym-log-0", "involutions-asym-0", "xi-moments-0", "degree-bound-0",
        "asym-bound-0", "xi-cauchy-schwarz"])
def test_guard_rejects(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestXiMoments:
    def test_n4_second_moment(self):
        assert xi_moments(4).e_xi2 == pytest.approx(0.2, rel=1e-15)

    def test_n4_first_moment(self):
        assert xi_moments(4).e_xi == pytest.approx(2 / math.sqrt(24), rel=1e-12)

    def test_cauchy_schwarz_for_all_n(self):
        for n in range(1, 61):
            xm = xi_moments(n)
            assert xm.e_xi2 >= xm.e_xi**2 * (1 - 1e-12)
            # and exactly, in integers: p(n) n! >= t(n)^2
            assert xm.p_n * factorial(n) >= xm.t_n**2

    def test_asym_fields_positive(self):
        xm = xi_moments(30)
        assert xm.e_xi_asym > 0
        assert xm.e_xi2_asym > 0


class TestSecondMomentDegreeBound:
    def test_n4(self):
        bound = second_moment_degree_bound(4)
        assert Fraction(bound.numerator, bound.denominator) == Fraction(24, 10)
        assert bound.value == pytest.approx(2.4, rel=1e-12)
        assert degree_table(4).max_degree >= bound.value

    def test_n5(self):
        bound = second_moment_degree_bound(5)
        assert Fraction(bound.numerator, bound.denominator) == Fraction(120, 26)
        assert degree_table(5).max_degree == 6

    def test_n1(self):
        bound = second_moment_degree_bound(1)
        assert Fraction(bound.numerator, bound.denominator) == 1

    def test_exact_rational_comparison_to_n30(self):
        for n in range(1, 31):
            bound = second_moment_degree_bound(n)
            max_deg = degree_table(n).max_degree
            assert Fraction(max_deg) >= Fraction(bound.numerator, bound.denominator)


class TestAsymDegreeBound:
    def test_eps_one_is_vacuous(self):
        assert max_degree_asym_bound(10, eps=1.0).value == 0.0

    def test_log_vs_direct_evaluation(self):
        for n in range(1, 31):
            direct = (
                math.exp(0.25)
                * math.sqrt(math.pi * n)
                * math.exp(-math.sqrt(n))
                * math.sqrt(factorial(n))
            )
            assert max_degree_asym_bound(n).value == pytest.approx(direct, rel=1e-12)

    def test_ratio_report_at_n25(self):
        bound = max_degree_asym_bound(25, eps=0.0)
        max_deg = degree_table(25).max_degree
        ratio = math.exp(math.log(max_deg) - bound.log)
        # asymptotic with no rate: recorded, only sanity-ranged here
        assert 0.1 < ratio < 10

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            max_degree_asym_bound(10, eps=1.5)
