import itertools
import math

import pytest

from braidarr import arrangements, dyckwords, numbers, partitions, paths, poset, sketches
from braidarr.numbers import (
    IntPolynomial,
    charpoly_A_closed,
    charpoly_C_closed,
    raney,
    regions_A_closed,
    regions_B_closed,
    regions_Delta_closed,
    regions_Gamma_closed,
    shift,
    zaslavsky,
)


def raney_convolution_check(n, m, r):
    """The convolution identity: over the compositions of n into r
    nonnegative parts, the products of raney(k_i, m, 1) sum to raney(n, m, r)."""
    compositions = (ks for ks in itertools.product(range(n + 1), repeat=r) if sum(ks) == n)
    total = sum(math.prod(raney(k, m, 1) for k in ks) for ks in compositions)
    return total == raney(n, m, r)


def regions_A_axis_identity(n, m):
    """The regions of A_n^(m) by the axis points of their paths: n! times the
    sum over k of (k + 1) raney(n - k, m, m k)."""
    return math.factorial(n) * sum((k + 1) * raney(n - k, m, m * k) for k in range(1, n + 1))


def brute_force_unlabeled_paths(ups: int, m: int) -> int:
    """Independent oracle: count step sequences with nonnegative prefixes."""

    def count(ups_left: int, downs_left: int, height: int) -> int:
        if ups_left == 0 and downs_left == 0:
            return 1
        total = 0
        if ups_left:
            total += count(ups_left - 1, downs_left, height + m)
        if downs_left and height > 0:
            total += count(ups_left, downs_left - 1, height - 1)
        return total

    return count(ups, m * ups, 0)


class TestIntPolynomial:
    def test_normalization_and_degree(self):
        assert IntPolynomial([4, -5, 1, 0, 0]).coefficients == (4, -5, 1)
        assert IntPolynomial([]).degree == -1
        assert IntPolynomial([0]).degree == -1
        assert IntPolynomial([7]).degree == 0

    def test_from_roots(self):
        assert IntPolynomial.from_roots([1, 4]) == IntPolynomial([4, -5, 1])
        assert IntPolynomial.from_roots([]) == IntPolynomial([1])

    def test_evaluation(self):
        p = IntPolynomial([4, -5, 1])
        assert p(0) == 4
        assert p(1) == 0
        assert p(-1) == 10

    def test_arithmetic(self):
        p = IntPolynomial([1, 1])
        q = IntPolynomial([-1, 1])
        assert p * q == IntPolynomial([-1, 0, 1])
        assert p + q == IntPolynomial([0, 2])
        assert p - q == IntPolynomial([2])

    def test_text(self):
        assert IntPolynomial([4, -5, 1]).to_text() == "t^2 - 5*t + 4"
        assert IntPolynomial([0, -3, 1]).to_text() == "t^2 - 3*t"
        assert IntPolynomial([0, 1]).to_text() == "t"
        assert IntPolynomial([]).to_text() == "0"
        assert IntPolynomial([0, 56, -15, 1]).to_text() == "t^3 - 15*t^2 + 56*t"

    def test_alternating_signs(self):
        assert IntPolynomial([4, -5, 1]).has_alternating_signs(2)
        assert IntPolynomial([0, -3, 1]).has_alternating_signs(2)
        assert not IntPolynomial([4, 5, 1]).has_alternating_signs(2)


class TestRaney:
    def test_empty_path_case(self):
        for m in (1, 2, 5):
            for r in (1, 2, 7):
                assert raney(0, m, r) == 1

    def test_table_derived_values(self):
        # region counts 10 and 180 divided by n!
        assert raney(2, 1, 2) == 5
        assert raney(3, 2, 2) == 30

    def test_against_brute_force_paths(self):
        for m in (1, 2, 3):
            for n in range(5):
                assert raney(n, m, 1) == brute_force_unlabeled_paths(n, m)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            raney(2, 0, 1)
        with pytest.raises(ValueError):
            raney(2, 1, 0)
        with pytest.raises(ValueError):
            raney(-1, 1, 1)


class TestClosedForms:
    def test_charpoly_A_table_rows(self):
        assert charpoly_A_closed(2, 1) == IntPolynomial([4, -5, 1])
        assert charpoly_A_closed(4, 4) == IntPolynomial([6840, -7922, 1139, -58, 1])

    def test_charpoly_A_single_coordinate(self):
        assert charpoly_A_closed(1, 3) == IntPolynomial([-1, 1])

    def test_charpoly_C(self):
        assert charpoly_C_closed(2, 1) == IntPolynomial([0, -3, 1])
        assert charpoly_C_closed(3, 2) == IntPolynomial([0, 56, -15, 1])
        for m in (1, 2, 4):
            assert charpoly_C_closed(1, m) == IntPolynomial([0, 1])

    def test_signs_alternate(self):
        for n in range(1, 5):
            for m in range(1, 5):
                for p in (charpoly_A_closed(n, m), charpoly_C_closed(n, m)):
                    assert p.is_monic_of_degree(n)
                    assert p.has_alternating_signs(n)


class TestShift:
    def test_table_rows(self):
        assert shift(IntPolynomial([0, -3, 1]), -1) == IntPolynomial([4, -5, 1])
        assert shift(IntPolynomial([0, 56, -15, 1]), -1) == IntPolynomial(
            [-72, 89, -18, 1]
        )

    def test_identity_shift(self):
        p = IntPolynomial([3, 0, -2, 7])
        assert shift(p, 0) == p

    def test_shift_round_trip(self):
        p = IntPolynomial([5, -1, 4, 0, 2])
        for c in (-3, -1, 1, 2, 10):
            assert shift(shift(p, c), -c) == p

    def test_connects_A_and_C(self):
        for n in range(1, 6):
            for m in range(1, 6):
                assert shift(charpoly_C_closed(n, m), -1) == charpoly_A_closed(n, m)


class TestZaslavsky:
    def test_table_values(self):
        assert zaslavsky(IntPolynomial([4, -5, 1]), 2) == 10
        assert zaslavsky(IntPolynomial([3360, -4034, 719, -46, 1]), 4) == 8160
        assert zaslavsky(IntPolynomial([-1, 1]), 1) == 2

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            zaslavsky(IntPolynomial([4, -5, 1]), 3)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            zaslavsky(IntPolynomial([0, 0, -1]), 2)


class TestRegionFormulas:
    def test_A_closed(self):
        assert regions_A_closed(3, 3) == 312
        assert regions_A_closed(2, 2) == 14
        for m in (1, 2, 9):
            assert regions_A_closed(1, m) == 2

    def test_axis_identity_examples(self):
        assert regions_A_axis_identity(2, 1) == 10
        assert regions_A_axis_identity(3, 2) == 180
        assert regions_A_axis_identity(1, 1) == 2

    def test_three_route_agreement(self):
        for n in range(1, 5):
            for m in range(1, 5):
                closed = regions_A_closed(n, m)
                assert zaslavsky(charpoly_A_closed(n, m), n) == closed
                assert math.factorial(n) * raney(n, m, 2) == closed

    def test_B_closed(self):
        assert regions_B_closed(2, 1) == 6
        assert regions_B_closed(3, 1) == 54
        for m in (1, 2, 5):
            assert regions_B_closed(1, m) == 1

    def test_Gamma_closed(self):
        assert regions_Gamma_closed(1, 1) == 2
        assert regions_Gamma_closed(2, 1) == 8
        assert regions_Gamma_closed(2, 2) == 12

    def test_Delta_closed(self):
        assert regions_Delta_closed(2, 1) == 4
        assert regions_Delta_closed(1, 1) == 1


class TestRaneyConvolution:
    def test_small_cases(self):
        assert raney_convolution_check(2, 1, 2)
        assert raney_convolution_check(3, 2, 2)
        for m in (1, 3):
            for r in (2, 4):
                assert raney_convolution_check(0, m, r)


def test_routes_read_no_closed_form():
    """The independence invariant: no route module binds a closed form, so
    of the modules only ``cli`` reads one."""
    closed = {id(f) for name, f in vars(numbers).items() if name.endswith("_closed")}
    assert closed
    for module in (arrangements, poset, sketches, paths, partitions, dyckwords):
        bound = [name for name, value in vars(module).items() if id(value) in closed]
        assert not bound, (module.__name__, bound)


def test_routes_call_no_closed_form(monkeypatch):
    """The independence invariant at run time: with every closed form made to
    raise, the ff and poset routes still give the closed forms' chi."""
    sizes = [(n, m) for n in range(1, 5) for m in (1, 2)]
    expected = {
        (family, n, m): closed(n, m)
        for family, closed in (("A", charpoly_A_closed), ("C", charpoly_C_closed))
        for n, m in sizes
    }

    def refuse(*args, **kwargs):
        raise AssertionError("a route called a closed form")

    for name in list(vars(numbers)):
        if name.endswith("_closed"):
            monkeypatch.setattr(numbers, name, refuse)
    for (family, n, m), chi in expected.items():
        spec = arrangements.ArrangementSpec.preset(f"{family}:{n},{m}")
        assert arrangements.charpoly_ff(spec) == chi, (family, n, m)
        if family == "A":
            assert poset.rank_sums(spec)[1] == chi, (n, m)
