import json

import pytest

from braidarr.arrangements import (
    ADDITIVE,
    MULTIPLICATIVE,
    ArrangementSpec,
    InadmissibleModulus,
    PointCountGuard,
    charpoly_ff,
    count_complement_points,
    hyperplanes_of,
    modulus_admissible,
    plan_moduli,
    regions_convolution_check,
    _is_prime,
    _two_is_primitive_root,
    verify_shift_theorem,
)
from braidarr.numbers import IntPolynomial, charpoly_A_closed, charpoly_C_closed, zaslavsky


def brute_force_count(spec: ArrangementSpec, q: int) -> int:
    """Independent oracle: test every tuple against every hyperplane."""
    import itertools

    total = 0
    for point in itertools.product(range(q), repeat=spec.n):
        ok = True
        if spec.flavor == MULTIPLICATIVE and spec.include_coordinate_hyperplanes:
            ok = all(x % q != 0 for x in point)
        if ok:
            for (i, j), values in spec.pair_shifts.items():
                for s in values:
                    if spec.flavor == MULTIPLICATIVE:
                        if point[i - 1] % q == (pow(2, s % (q - 1), q) * point[j - 1]) % q:
                            ok = False
                            break
                    else:
                        if (point[i - 1] - point[j - 1]) % q == s % q:
                            ok = False
                            break
                if not ok:
                    break
        total += ok
    return total


class TestSpec:
    def test_presets(self):
        a = ArrangementSpec.preset("A:2,1")
        assert a.flavor == MULTIPLICATIVE and a.include_coordinate_hyperplanes
        assert a.pair_shifts[(1, 2)] == frozenset({-1, 0, 1})
        b = ArrangementSpec.preset("B:2,1")
        assert not b.include_coordinate_hyperplanes
        c = ArrangementSpec.preset("C:3,2")
        assert c.flavor == ADDITIVE
        gamma = ArrangementSpec.preset("Gamma:2,2")
        assert gamma.pair_shifts[(1, 2)] == frozenset({-1, 0, 1, 2})
        delta = ArrangementSpec.preset("Delta:2,2")
        assert not delta.include_coordinate_hyperplanes

    def test_bad_presets(self):
        for name in ("X:2,1", "A:0,1", "A:2", "A:2,1,3", "A"):
            with pytest.raises(ValueError):
                ArrangementSpec.preset(name)

    def test_additive_rejects_coordinates(self):
        with pytest.raises(ValueError):
            ArrangementSpec(2, ADDITIVE, {(1, 2): [0]}, True)

    def test_json_round_trip(self):
        spec = ArrangementSpec(3, MULTIPLICATIVE, {(1, 2): [0], (1, 3): [1]}, True)
        data = json.loads(json.dumps(spec.to_json_dict()))
        back = ArrangementSpec.from_json_dict(data)
        assert back.n == 3
        assert back.pair_shifts == spec.pair_shifts
        assert back.include_coordinate_hyperplanes


class TestHyperplanes:
    def test_A21_expansion(self):
        planes = hyperplanes_of(ArrangementSpec.preset("A:2,1"))
        assert len(planes) == 5
        rendered = {str(h) for h in planes}
        assert rendered == {
            "x1 = 0",
            "x2 = 0",
            "x1 = 2^0 x2",
            "x1 = 2^1 x2",
            "x2 = 2^1 x1",
        }

    def test_B21_drops_coordinates(self):
        assert len(hyperplanes_of(ArrangementSpec.preset("B:2,1"))) == 3

    def test_C21_expansion(self):
        planes = hyperplanes_of(ArrangementSpec.preset("C:2,1"))
        assert [(h.i, h.j, h.k) for h in planes] == [(1, 2, -1), (1, 2, 0), (1, 2, 1)]
        assert [str(h) for h in planes] == ["x1 - x2 = -1", "x1 - x2 = 0", "x1 - x2 = 1"]

    def test_count_formula(self):
        for n in (2, 3, 4):
            for m in (1, 2, 3):
                planes = hyperplanes_of(ArrangementSpec.preset(f"A:{n},{m}"))
                assert len(planes) == n + (2 * m + 1) * n * (n - 1) // 2

    def test_idempotent_and_duplicate_free(self):
        spec = ArrangementSpec.preset("A:3,2")
        first = hyperplanes_of(spec)
        second = hyperplanes_of(spec)
        assert first == second
        assert len(set(first)) == len(first)


class TestModuli:
    def test_multiplicative_plan_properties(self):
        plan = plan_moduli(ArrangementSpec.preset("A:3,2"))
        assert len(plan) == 5
        for q in plan:
            assert _is_prime(q) and _two_is_primitive_root(q)
            assert q - 1 > (2 + 1) * 3

    def test_known_primitive_root_primes(self):
        spec = ArrangementSpec.preset("A:4,4")
        assert plan_moduli(spec) == (29, 37, 53, 59, 61, 67)

    def test_additive_plan(self):
        assert plan_moduli(ArrangementSpec.preset("C:2,1")) == (9, 10, 11, 12)

    def test_admissibility(self):
        mult = ArrangementSpec.preset("A:2,1")
        assert modulus_admissible(mult, 11)
        assert not modulus_admissible(mult, 12)  # composite
        assert not modulus_admissible(mult, 7)  # 2 has order 3 mod 7
        assert not modulus_admissible(mult, 3)  # below the cycle bound
        add = ArrangementSpec.preset("C:2,1")
        assert modulus_admissible(add, 7)
        assert not modulus_admissible(add, 2)

    def test_count_rejects_inadmissible(self):
        with pytest.raises(InadmissibleModulus):
            count_complement_points(ArrangementSpec.preset("A:2,1"), 7)


class TestCounting:
    def test_A21_at_11(self):
        assert count_complement_points(ArrangementSpec.preset("A:2,1"), 11) == 70

    def test_C21_at_7(self):
        assert count_complement_points(ArrangementSpec.preset("C:2,1"), 7) == 28

    def test_A1m_at_5(self):
        for m in (1, 2, 3):
            assert count_complement_points(ArrangementSpec.preset(f"A:1,{m}"), 5) == 4

    def test_against_brute_force(self):
        cases = [
            (ArrangementSpec.preset("A:2,1"), 11),
            (ArrangementSpec.preset("A:2,2"), 13),
            (ArrangementSpec.preset("B:2,1"), 11),
            (ArrangementSpec.preset("C:2,1"), 9),
            (ArrangementSpec.preset("C:3,1"), 11),
            (ArrangementSpec.preset("A:3,1"), 11),
            (ArrangementSpec.preset("Gamma:3,1"), 11),
            (ArrangementSpec(3, MULTIPLICATIVE, {(1, 2): [0], (2, 3): [2]}, True), 11),
            (ArrangementSpec(3, ADDITIVE, {(1, 2): [0, 2], (1, 3): [-1]}), 12),
        ]
        for spec, q in cases:
            assert count_complement_points(spec, q) == brute_force_count(spec, q)

    def test_guard(self):
        spec = ArrangementSpec.preset("A:4,4")
        with pytest.raises(PointCountGuard):
            count_complement_points(spec, 6700417)


class TestCharpolyFF:
    def test_table_rows(self):
        assert charpoly_ff(ArrangementSpec.preset("A:2,1")) == IntPolynomial([4, -5, 1])
        assert charpoly_ff(ArrangementSpec.preset("A:4,2")) == IntPolynomial(
            [1320, -1682, 395, -34, 1]
        )

    def test_additive_closed_form(self):
        assert charpoly_ff(ArrangementSpec.preset("C:3,2")) == charpoly_C_closed(3, 2)

    def test_matches_closed_forms_small_grid(self):
        for n in (1, 2, 3):
            for m in (1, 2):
                assert charpoly_ff(
                    ArrangementSpec.preset(f"A:{n},{m}")
                ) == charpoly_A_closed(n, m)
                assert charpoly_ff(
                    ArrangementSpec.preset(f"C:{n},{m}")
                ) == charpoly_C_closed(n, m)

    def test_interpolant_matches_extra_moduli(self):
        spec = ArrangementSpec.preset("A:2,2")
        p = charpoly_ff(spec)
        plan = plan_moduli(spec, count=8)
        for q in plan:
            assert p(q) == count_complement_points(spec, q)

    def test_explicit_moduli(self):
        spec = ArrangementSpec.preset("A:2,1")
        assert charpoly_ff(spec, [11, 13, 19, 29]) == IntPolynomial([4, -5, 1])
        with pytest.raises(ValueError):
            charpoly_ff(spec, [11, 13, 19])  # no held-out modulus
        with pytest.raises(InadmissibleModulus):
            charpoly_ff(spec, [7, 11, 13, 19])

    def test_empty_arrangement(self):
        spec = ArrangementSpec(2, MULTIPLICATIVE, {}, False)
        assert charpoly_ff(spec) == IntPolynomial([0, 0, 1])


class TestShiftTheorem:
    def test_uniform_interval(self):
        assert verify_shift_theorem(2, {(1, 2): [-1, 0, 1]})

    def test_shifted_set(self):
        assert verify_shift_theorem(2, {(1, 2): [0, 2]})

    def test_asymmetric_tuple(self):
        assert verify_shift_theorem(3, {(1, 2): [0], (1, 3): [1], (2, 3): []})


class TestRegionsConvolution:
    def test_interval(self):
        assert regions_convolution_check([-1, 0, 1], 2)

    def test_braid_with_zeros(self):
        assert regions_convolution_check([0], 2)

    def test_single_coordinate(self):
        assert regions_convolution_check([0], 1)

    def test_wider_case(self):
        assert regions_convolution_check([-1, 0, 1], 3)
        assert regions_convolution_check([0, 1], 3)


def test_zaslavsky_composes_with_ff():
    for name, expected in [("B:2,1", 6), ("Gamma:2,1", 8), ("Delta:2,1", 4)]:
        spec = ArrangementSpec.preset(name)
        assert zaslavsky(charpoly_ff(spec), spec.n) == expected
