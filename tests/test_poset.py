import itertools
import random
from fractions import Fraction

import pytest

from braidarr.arrangements import ArrangementSpec, Hyperplane, hyperplanes_of
from braidarr.numbers import (
    IntPolynomial,
    charpoly_A_closed,
    regions_B_closed,
    zaslavsky,
)
from braidarr.poset import (
    ambient_flat,
    build_poset,
    charpoly_from_poset,
    flat_dimension_by_rank,
    intersect_flat,
)

# Hyperplane set from the worked six-coordinate example: x1 = 0, x1 = 2^2 x2,
# x4 = 2 x3, x5 = 2^3 x4, x5 = 2^4 x3.
EXAMPLE_PLANES = [
    Hyperplane("coord", 1),
    Hyperplane("pair", 1, 2, 2),
    Hyperplane("pair", 4, 3, 1),
    Hyperplane("pair", 5, 4, 3),
    Hyperplane("pair", 5, 3, 4),
]
# x5 = 2^5 x3 contradicts the path x3 -> x4 -> x5 of label sum 4.
CONFLICT = Hyperplane("pair", 5, 3, 5)


def fold(planes, n):
    """Intersection of a plane list, one intersect_flat step per plane."""
    flat = ambient_flat(n)
    for h in planes:
        flat = intersect_flat(flat, h)
    return flat


class TestGraph:
    """Loop closure and component merging of the folded intersection."""

    def test_example_graph(self):
        flat = fold(EXAMPLE_PLANES, 6)
        assert flat.loops == frozenset({1, 2})
        assert flat.components == (((3, 0), (4, 1), (5, 4)), ((6, 0),))

    def test_empty(self):
        flat = fold([], 4)
        assert flat.loops == frozenset()
        assert flat.components == (((1, 0),), ((2, 0),), ((3, 0),), ((4, 0),))

    def test_single_coordinate(self):
        flat = fold([Hyperplane("coord", 1)], 3)
        assert flat.loops == frozenset({1})

    def test_loop_closure_spreads(self):
        planes = [Hyperplane("coord", 1), Hyperplane("pair", 1, 2, 1)]
        for order in (planes, planes[::-1]):
            flat = fold(order, 3)
            assert flat.loops == frozenset({1, 2})
            assert flat.components == (((3, 0),),)


class TestConsistency:
    """Consistent plane sets keep one dimension per component; a conflict
    forces its component to zero, as the rank of the true normals does."""

    def test_example_consistent(self):
        flat = fold(EXAMPLE_PLANES, 6)
        assert flat.dimension == flat_dimension_by_rank(EXAMPLE_PLANES, 6) == 2

    def test_conflicting_path_sums(self):
        planes = EXAMPLE_PLANES + [CONFLICT]
        assert fold(planes, 6).dimension == flat_dimension_by_rank(planes, 6) == 1

    def test_empty_graph(self):
        assert fold([], 3).dimension == flat_dimension_by_rank([], 3) == 3


class TestFlatOf:
    def test_example_dimension(self):
        flat = fold(EXAMPLE_PLANES, 6)
        assert flat.dimension == 2
        assert flat.loops == frozenset({1, 2})
        assert flat_dimension_by_rank(EXAMPLE_PLANES, 6) == 2

    def test_ambient(self):
        flat = fold([], 3)
        assert flat == ambient_flat(3)
        assert flat.dimension == 3

    def test_origin(self):
        planes = [Hyperplane("coord", i) for i in (1, 2, 3)]
        assert fold(planes, 3).dimension == 0

    def test_conflict_collapses_to_loops(self):
        for planes in (EXAMPLE_PLANES + [CONFLICT], [CONFLICT] + EXAMPLE_PLANES):
            flat = fold(planes, 6)
            assert flat.loops == frozenset({1, 2, 3, 4, 5})
            assert flat.components == (((6, 0),),)


class TestGraphRankAgreement:
    """Folded intersection versus exact rank of the true normals.

    The folded flat's dimension must equal n - rank on every plane subset,
    and folding in reverse order must give the same flat.  Exhaustive over
    small arrangements, sampled over the largest.
    """

    def check_subset(self, planes, n):
        flat = fold(planes, n)
        assert flat.dimension == flat_dimension_by_rank(planes, n)
        assert fold(planes[::-1], n) == flat

    def test_exhaustive_small(self):
        for name in ("A:2,1", "A:2,2", "A:3,1"):
            planes = hyperplanes_of(ArrangementSpec.preset(name))
            n = ArrangementSpec.preset(name).n
            for r in range(len(planes) + 1):
                for subset in itertools.combinations(planes, r):
                    self.check_subset(list(subset), n)

    def test_sampled_A32(self):
        spec = ArrangementSpec.preset("A:3,2")
        planes = hyperplanes_of(spec)
        for r in range(4):
            for subset in itertools.combinations(planes, r):
                self.check_subset(list(subset), 3)
        rng = random.Random(20240811)
        for _ in range(2000):
            r = rng.randint(4, len(planes))
            subset = rng.sample(planes, r)
            self.check_subset(subset, 3)


class TestIntersectFlat:
    def test_conflicting_merge_forces_zero(self):
        flat = ambient_flat(2)
        flat = intersect_flat(flat, Hyperplane("pair", 1, 2, 0))
        assert flat.dimension == 1
        flat = intersect_flat(flat, Hyperplane("pair", 1, 2, 1))
        assert flat.dimension == 0
        assert flat.loops == frozenset({1, 2})

    def test_idempotent(self):
        flat = ambient_flat(3)
        h = Hyperplane("pair", 1, 3, 2)
        once = intersect_flat(flat, h)
        assert intersect_flat(once, h) == once


class TestBuildPoset:
    def test_A21_poset(self):
        poset = build_poset(ArrangementSpec.preset("A:2,1"))
        assert len(poset) == 7
        mus = sorted(node.mu for node in poset.nodes)
        assert mus == [-1, -1, -1, -1, -1, 1, 4]
        assert charpoly_from_poset(poset, 2) == IntPolynomial([4, -5, 1])

    def test_A11_poset(self):
        poset = build_poset(ArrangementSpec.preset("A:1,1"))
        assert len(poset) == 2

    def test_B21_poset(self):
        poset = build_poset(ArrangementSpec.preset("B:2,1"))
        assert len(poset) == 5
        p = charpoly_from_poset(poset, 2)
        assert p == IntPolynomial([2, -3, 1])
        assert zaslavsky(p, 2) == regions_B_closed(2, 1)

    def test_empty_arrangement(self):
        spec = ArrangementSpec(2, "multiplicative", {}, False)
        poset = build_poset(spec)
        assert len(poset) == 1
        assert charpoly_from_poset(poset, 2) == IntPolynomial([0, 0, 1])

    def test_A31_table_row(self):
        poset = build_poset(ArrangementSpec.preset("A:3,1"))
        assert charpoly_from_poset(poset, 3) == IntPolynomial([-30, 41, -12, 1])

    def test_matches_closed_form_grid(self):
        for n in (1, 2, 3):
            for m in (1, 2):
                poset = build_poset(ArrangementSpec.preset(f"A:{n},{m}"))
                assert charpoly_from_poset(poset, n) == charpoly_A_closed(n, m)

    def test_A41_matches_closed_form(self):
        poset = build_poset(ArrangementSpec.preset("A:4,1"))
        assert charpoly_from_poset(poset, 4) == charpoly_A_closed(4, 1)

    def test_all_presets_match_ff_route(self):
        from braidarr.arrangements import charpoly_ff

        for family in ("A", "B", "Gamma", "Delta"):
            for n in (1, 2, 3):
                for m in (1, 2):
                    spec = ArrangementSpec.preset(f"{family}:{n},{m}")
                    poset_poly = charpoly_from_poset(build_poset(spec), n)
                    assert poset_poly == charpoly_ff(spec), (family, n, m)

    def test_chi_at_one_vanishes(self):
        for name in ("A:2,1", "A:3,2", "B:2,1", "Gamma:2,1", "Delta:2,2"):
            spec = ArrangementSpec.preset(name)
            p = charpoly_from_poset(build_poset(spec), spec.n)
            assert p(1) == 0

    def test_rejects_additive(self):
        with pytest.raises(ValueError):
            build_poset(ArrangementSpec.preset("C:2,1"))

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            build_poset(ArrangementSpec.preset("A:6,1"))


def generic_point(flat, rng):
    """Rational point of the flat on no other flat: zero on the loops and
    2^off * c on each component, with a distinct odd c per component."""
    values = rng.sample(range(1, 10**6, 2), len(flat.components))
    point = {v: Fraction(0) for v in flat.loops}
    for c, comp in zip(values, flat.components):
        point.update({v: Fraction(2) ** off * c for v, off in comp})
    return point


def lies_on(point, flat):
    """The point satisfies the flat's equations x_v = 0 and x_v = 2^off c."""
    if any(point[v] != 0 for v in flat.loops):
        return False
    for comp in flat.components:
        (u, off_u), rest = comp[0], comp[1:]
        if any(point[v] * Fraction(2) ** off_u != point[u] * Fraction(2) ** off for v, off in rest):
            return False
    return True


class TestContainment:
    def test_reverse_inclusion_order(self):
        rng = random.Random(7)
        for name in ("A:2,1", "B:2,2", "Gamma:3,1"):
            poset = build_poset(ArrangementSpec.preset(name))
            for b, node_b in enumerate(poset.nodes):
                point = generic_point(node_b.flat, rng)
                for a, node_a in enumerate(poset.nodes):
                    expected = a == b or a in poset.below[b]
                    assert lies_on(point, node_a.flat) == expected, (name, a, b)

    def test_hasse_edges(self):
        poset = build_poset(ArrangementSpec.preset("A:2,1"))
        edges = poset.hasse_edges()
        # ambient covered by 5 lines, each line covering the origin
        assert len(edges) == 10

    def test_hasse_is_transitive_reduction(self):
        for name in ("A:3,1", "Delta:3,2"):
            poset = build_poset(ArrangementSpec.preset(name))
            below = poset.below
            reduction = sorted(
                (a, b)
                for b, lower in enumerate(below)
                for a in lower
                if not any(a in below[c] for c in lower)
            )
            assert poset.hasse_edges() == reduction, name

    def test_json_dump_shape(self):
        poset = build_poset(ArrangementSpec.preset("A:1,1"))
        data = poset.to_json_dict()
        assert data["n"] == 1
        assert len(data["flats"]) == 2
        assert data["hasse"] == [[0, 1]]
