import itertools
import json
from unittest import mock

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from braidarr import arrangements, cli
from braidarr.arrangements import (
    ADDITIVE,
    MULTIPLICATIVE,
    ArrangementSpec,
    InadmissibleModulus,
    InterpolationMismatch,
    SizeGuard,
    charpoly_ff,
    count_complement_points,
    hyperplanes_of,
    least_modulus,
    modulus_admissible,
    plan_moduli,
    regions_convolution_check,
    _check_interpolant,
    _is_prime,
    _two_is_primitive_root,
    verify_shift_theorem,
)
from braidarr.numbers import IntPolynomial, charpoly_A_closed, charpoly_C_closed, zaslavsky
from braidarr.poset import rank_sums
from braidarr.sketches import regions_by_projection
from test_poset import sparse_specs


def brute_force_count(spec: ArrangementSpec, q: int) -> int:
    """Independent oracle: test every tuple against every hyperplane."""
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


def listed_preset(family: str, n: int, m: int) -> ArrangementSpec:
    """The spec of the preset, built from a literal dict of all its pairs."""
    flavor, coords, clip = arrangements.PRESETS[family]
    shifts = list(range(clip - m, m + 1))
    pairs = {(i, j): shifts for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return ArrangementSpec(n, flavor, pairs, coords)


def guard_fields(spec: ArrangementSpec) -> tuple:
    """What the kernel's size guard reads of a spec, none of it its pairs:
    with the sorted plan, also whether it applies and |S|."""
    symmetric = arrangements._symmetric_shifts(spec)
    return (spec.n, spec.m_max, spec.flavor, spec.include_coordinate_hyperplanes, spec.planes,
            symmetric is not None, len(symmetric or ()))


def no_count(*args):
    raise AssertionError("a count ran for a target past the budget")


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@st.composite
def count_problems(draw):
    """A sparse spec with n in 1..4 and the first admissible modulus from a
    small start, so that :func:`brute_force_count` stays cheap.  At n = 4 at
    least one pair has no planes."""
    n = draw(st.integers(1, 4))
    flavor = draw(st.sampled_from((MULTIPLICATIVE, ADDITIVE)))
    coords = flavor == MULTIPLICATIVE and draw(st.booleans())
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    present = draw(st.sets(st.sampled_from(pairs), max_size=5)) if pairs else ()
    shifts = st.sets(st.integers(-1, 1), min_size=1)
    spec = ArrangementSpec(n, flavor, {p: draw(shifts) for p in present}, coords)
    q = draw(st.integers(2, (40, 16, 9, 6)[n - 1]))
    while not modulus_admissible(spec, q):
        q += 1
    return spec, q


@st.composite
def symmetric_problems(draw):
    """A spec whose every pair has one shift set S = -S with 0 in S, built by
    ``uniform`` (from a range or a set) or from a dict as a ``--spec`` file
    is, and one of its first three planned moduli."""
    n = draw(st.integers(1, 5))
    flavor = draw(st.sampled_from("AC"))
    coords = flavor == "A" and draw(st.booleans())
    positive = draw(st.sets(st.integers(1, 3), max_size=2))
    shifts = sorted({0} | positive | {-k for k in positive})
    build = draw(st.sampled_from(["range", "set", "dict"]))
    event(f"n={n} {flavor} coords={coords} {build}")
    if build == "dict":
        pairs = itertools.combinations(range(1, n + 1), 2)
        data = {"n": n, "flavor": flavor, "coords": coords,
                "shifts": {f"{i},{j}": shifts for i, j in pairs}}
        spec = ArrangementSpec.from_json_dict(data)
    else:
        values = range(-max(shifts), max(shifts) + 1) if build == "range" else shifts
        spec = ArrangementSpec.uniform(
            n, values, MULTIPLICATIVE if flavor == "A" else ADDITIVE, coords
        )
    return spec, draw(st.sampled_from(plan_moduli(spec)[:3]))


def old_plan(spec: ArrangementSpec) -> tuple[int, ...]:
    """The n + 2 moduli planned before the plan started at
    :func:`least_modulus`, kept as a reference: the admissible ones from
    (m_max + 1) n + 2 on (multiplicative) or n (2 m_max + 2) + 1 on
    (additive)."""
    if spec.flavor == MULTIPLICATIVE:
        start = (spec.m_max + 1) * spec.n + 2
    else:
        start = spec.n * (2 * spec.m_max + 2) + 1
    admissible = (q for q in itertools.count(start) if modulus_admissible(spec, q))
    return tuple(itertools.islice(admissible, spec.n + 2))


def admissible_walk(spec: ArrangementSpec) -> list[int]:
    """Every admissible modulus from :func:`least_modulus` through the last
    of the old plan, which is at least the last planned one."""
    last = old_plan(spec)[-1]
    return [q for q in range(least_modulus(spec), last + 1) if modulus_admissible(spec, q)]


def assert_counts_are_chi(spec: ArrangementSpec) -> None:
    """The proof obligation of planning from the bound: the count at every
    admissible modulus is chi there."""
    chi = charpoly_ff(spec)
    walk = admissible_walk(spec)
    assert set(plan_moduli(spec)) <= set(walk)
    for q in walk:
        assert count_complement_points(spec, q) == chi(q), q


@st.composite
def walk_specs(draw):
    """A sparse spec of either flavor with n <= 4 and shifts in [-2, 2],
    {0} included, so that m_max = 0 and q = 1 (additive) occur."""
    n = draw(st.integers(1, 4))
    flavor = draw(st.sampled_from((MULTIPLICATIVE, ADDITIVE)))
    coords = flavor == MULTIPLICATIVE and draw(st.booleans())
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    present = draw(st.sets(st.sampled_from(pairs))) if pairs else ()
    shifts = st.sets(st.integers(-2, 2), min_size=1, max_size=3)
    return ArrangementSpec(n, flavor, {p: draw(shifts) for p in present}, coords)


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

    def test_preset_shape_matches_spec(self):
        # the kernel's guard reads these before the preset's pairs are listed
        for family in arrangements.PRESETS:
            for n, m in itertools.product((1, 2, 4), (1, 3)):
                spec = ArrangementSpec.preset(f"{family}:{n},{m}")
                assert guard_fields(spec) == guard_fields(listed_preset(family, n, m))

    @given(
        st.sampled_from(sorted(arrangements.PRESETS)), st.integers(1, 4), st.integers(1, 3)
    )
    def test_preset_matches_its_listed_pairs(self, family, n, m):
        """The preset's spec, whose pairs are listed when first read, and the
        same spec from a literal dict give the same answer on every route."""
        listed = listed_preset(family, n, m)
        event(f"{family}, n={n}")
        # Each reads a fresh preset, so no route sees pairs another listed.
        routes = [
            charpoly_ff,
            lambda spec: rank_sums(spec)[1],
            cli._closed_charpoly,
            regions_by_projection,
            hyperplanes_of,
            ArrangementSpec.to_json_dict,
            guard_fields,
        ]
        for route in routes:
            preset = ArrangementSpec.preset(f"{family}:{n},{m}")
            assert outcome(route, preset) == outcome(route, listed)
        assert set(preset.uniform_shifts or ()) == set(listed.uniform_shifts or ())
        assert preset.m_max == listed.m_max and preset.planes == listed.planes

    def test_huge_m_lists_no_shifts(self, traced_peak):
        # a preset's shifts stay a range: listed, 2 * 10^6 + 1 take about 100 MB
        spec, peak = traced_peak(ArrangementSpec.preset, "A:3,1000000")
        assert peak < 2**20
        assert len(spec.uniform_shifts) == 2 * 10**6 + 1
        assert (spec.m_max, spec.planes) == (10**6, 3)

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

    @given(sparse_specs())
    def test_duplicate_free_on_sparse_specs(self, spec):
        planes = hyperplanes_of(spec)
        assert len(set(planes)) == len(planes)
        assert len(planes) == spec.n * spec.include_coordinate_hyperplanes + sum(
            map(len, spec.pair_shifts.values())
        )


class TestModuli:
    def test_multiplicative_plan_properties(self):
        spec = ArrangementSpec.preset("A:3,2")
        plan = plan_moduli(spec)
        assert len(plan) == 5
        for q in plan:
            assert _is_prime(q) and _two_is_primitive_root(q)
            assert q >= least_modulus(spec)

    def test_known_primitive_root_primes(self):
        # least_modulus is 4 * 4 + 2 = 18
        spec = ArrangementSpec.preset("A:4,4")
        assert plan_moduli(spec) == (19, 29, 37, 53, 59, 61)

    def test_additive_plan(self):
        # least_modulus is 2 * 1 + 1 = 3
        assert plan_moduli(ArrangementSpec.preset("C:2,1")) == (3, 4, 5, 6)

    def test_plan_starts_at_the_bound(self):
        # without planes every modulus from 1 on is admissible
        assert plan_moduli(ArrangementSpec(3, ADDITIVE)) == (1, 2, 3, 4, 5)
        assert plan_moduli(ArrangementSpec.uniform(2, [0], ADDITIVE)) == (1, 2, 3, 4)
        # m_max = 0: q = 2 is refused, and so is 7, where 2 has order 3
        assert plan_moduli(ArrangementSpec.uniform(1, [], MULTIPLICATIVE, True)) == (3, 5, 11)

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
            # n = 5: x1 pinned with its orbit weight, then two pinning levels
            (ArrangementSpec.preset("A:5,1"), 11),
            (ArrangementSpec.preset("B:5,1"), 11),
            (ArrangementSpec.preset("Gamma:5,1"), 11),
            (ArrangementSpec.preset("Delta:5,1"), 11),
            (ArrangementSpec.preset("C:5,1"), 10),
        ]
        for spec, q in cases:
            assert count_complement_points(spec, q) == brute_force_count(spec, q)

    @given(count_problems())
    def test_sparse_specs_against_brute_force(self, problem):
        # n = 1 and 2 run through the padded shapes, n >= 4 through pinning
        spec, q = problem
        event(f"n={spec.n} missing pairs={spec.n * (spec.n - 1) // 2 - len(spec.pair_shifts)}")
        assert count_complement_points(spec, q) == brute_force_count(spec, q)

    def test_guard(self):
        spec = ArrangementSpec.preset("A:4,4")
        with pytest.raises(SizeGuard):
            count_complement_points(spec, 6700417)

    @given(symmetric_problems())
    def test_sorted_plan_matches_the_recursion(self, problem):
        spec, q = problem
        # every spec with a pair takes the sorted plan
        assert (arrangements._symmetric_shifts(spec) is None) == (spec.n == 1)
        sorted_count = count_complement_points(spec, q)
        with mock.patch.object(arrangements, "_symmetric_shifts", return_value=None):
            assert count_complement_points(spec, q) == sorted_count

    @pytest.mark.parametrize(
        "spec",
        [
            ArrangementSpec.preset("Gamma:3,2"),
            ArrangementSpec.uniform(3, [-1, 0, 1, 2], MULTIPLICATIVE),
            ArrangementSpec.uniform(3, [-2, 2], MULTIPLICATIVE, True),
            ArrangementSpec.uniform(4, [-1, 1], ADDITIVE),
            ArrangementSpec(3, ADDITIVE, {(1, 2): [-1, 0, 1], (1, 3): [-1, 0, 1], (2, 3): [0]}),
        ],
        ids=["Gamma-preset", "Gamma-shaped", "no-zero", "no-zero-additive", "one-pair-differs"],
    )
    def test_general_plan_kept(self, spec):
        q = plan_moduli(spec)[0]
        with mock.patch.object(arrangements, "_count_increasing") as sorted_plan:
            assert count_complement_points(spec, q) == brute_force_count(spec, q)
        sorted_plan.assert_not_called()


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

    @pytest.mark.parametrize(
        "spec",
        [pytest.param(ArrangementSpec.preset(name), id=name)
         for name in (f"{family}:{n},{m}" for family in arrangements.PRESETS
                      for n in range(1, 5) for m in (1, 2))]
        + [pytest.param(ArrangementSpec(n, ADDITIVE), id=f"no planes, n={n}")
           for n in (1, 2, 4)]
        + [pytest.param(ArrangementSpec.uniform(n, [0], flavor, flavor == MULTIPLICATIVE),
                        id=f"shift 0, {flavor}, n={n}")
           for n in (2, 4) for flavor in (MULTIPLICATIVE, ADDITIVE)],
    )
    def test_counts_are_chi_from_the_bound(self, spec):
        assert_counts_are_chi(spec)

    @given(walk_specs())
    def test_sparse_counts_are_chi_from_the_bound(self, spec):
        event(f"{spec.flavor} m_max={spec.m_max}")
        assert_counts_are_chi(spec)

    @pytest.mark.parametrize(
        "name",
        [f"{family}:{n},{m}"
         for family in arrangements.PRESETS for n in range(1, 6) for m in (1, 2, 3)],
    )
    def test_old_plan_gives_the_same_chi(self, name):
        spec = ArrangementSpec.preset(name)
        assert charpoly_ff(spec) == charpoly_ff(spec, old_plan(spec))

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

    def test_oversized_target_refused_before_planning(self, monkeypatch):
        def no_planning(*args, **kwargs):
            raise AssertionError("plan_moduli ran for a target past the budget")

        monkeypatch.setattr(arrangements, "plan_moduli", no_planning)
        with pytest.raises(SizeGuard):
            charpoly_ff(ArrangementSpec(10**6, ADDITIVE))

    def test_budget_messages_at_the_boundary(self, monkeypatch):
        # Without planes any modulus from 1 on is admissible, and the plan is
        # 1..n+2.  n = 9 fits the work budget.  The steps of n = 10 alone
        # would fit too, but the price of its contractions does not, so it is
        # refused before any count, as is every n from 11 on.
        spec = ArrangementSpec(9, ADDITIVE)
        assert plan_moduli(spec) == tuple(range(1, 12))
        arrangements.check_kernel_cost(spec, plan_moduli(spec), "n=9")
        assert sum(q**9 for q in range(1, 13)) < arrangements.WORK_BUDGET
        monkeypatch.setattr(arrangements, "count_complement_points", no_count)
        with pytest.raises(SizeGuard, match="no 12 admissible moduli"):
            charpoly_ff(ArrangementSpec(10, ADDITIVE))
        with pytest.raises(SizeGuard, match="no 13 admissible moduli"):
            charpoly_ff(ArrangementSpec(11, ADDITIVE))

    def test_sorted_plan_budget(self, monkeypatch):
        # w q^(n-1) refused A:7,1 and C:8,1; the sorted plan's step count
        # admits them, and with moduli from the bound B:7,1 too; B:7,2,
        # pinned at two values of x1, is refused before any count
        for name in ("A:7,1", "C:8,1", "B:7,1"):
            spec = ArrangementSpec.preset(name)
            arrangements.check_kernel_cost(spec, plan_moduli(spec), name)
        monkeypatch.setattr(arrangements, "count_complement_points", no_count)
        with pytest.raises(SizeGuard, match="moduli up to 101 break"):
            charpoly_ff(ArrangementSpec.preset("B:7,2"))

    @given(
        st.sampled_from(sorted(arrangements.PRESETS)), st.integers(1, 5), st.integers(1, 4)
    )
    def test_random_presets_match_closed_forms(self, family, n, m):
        chi = charpoly_ff(ArrangementSpec.preset(f"{family}:{n},{m}"))
        event(f"{family}, n={n}")
        if family == "A":
            assert chi == charpoly_A_closed(n, m)
        elif family == "C":
            assert chi == charpoly_C_closed(n, m)
        else:
            assert zaslavsky(chi, n) == cli.ROUTES["closed"].regions(family, n, m)


class TestInterpolantChecks:
    """Each structural check on a fabricated polynomial."""

    def test_true_polynomials_pass(self):
        _check_interpolant(ArrangementSpec.preset("A:2,1"), IntPolynomial([4, -5, 1]))
        _check_interpolant(ArrangementSpec.preset("C:2,1"), IntPolynomial([0, -3, 1]))
        # without planes chi = t^n, which t - 1 does not divide
        _check_interpolant(ArrangementSpec(2, MULTIPLICATIVE), IntPolynomial([0, 0, 1]))

    def test_multiplicative_needs_root_one(self):
        # monic with alternating signs, but chi(1) = 2
        with pytest.raises(InterpolationMismatch, match=r"not divisible by t - 1"):
            _check_interpolant(ArrangementSpec.preset("B:2,1"), IntPolynomial([6, -5, 1]))

    def test_additive_needs_root_zero(self):
        # (t - 1)(t - 2): monic with alternating signs, but chi(0) = 2
        with pytest.raises(InterpolationMismatch, match=r"not divisible by t,"):
            _check_interpolant(ArrangementSpec.preset("C:2,1"), IntPolynomial([2, -3, 1]))

    def test_monic_and_signs(self):
        spec = ArrangementSpec.preset("A:2,1")
        with pytest.raises(InterpolationMismatch, match="not monic of degree 2"):
            _check_interpolant(spec, IntPolynomial([4, -5, 2]))
        with pytest.raises(InterpolationMismatch, match="non-alternating signs"):
            _check_interpolant(spec, IntPolynomial([-4, 3, 1]))


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
