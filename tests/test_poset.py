import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidarr.arrangements import (
    MULTIPLICATIVE,
    ArrangementSpec,
    SizeGuard,
    charpoly_ff,
    hyperplanes_of,
)
from braidarr.numbers import (
    IntPolynomial,
    charpoly_A_closed,
    regions_B_closed,
    zaslavsky,
)
from braidarr import poset as poset_module
from braidarr.poset import build_poset, rank_sums

# The planes of the worked six-coordinate example as rows (i, j, k) of
# x_i = 2^k x_j, 0-based, x_i = 0 being (i, i, 1): x1 = 0, x1 = 2^2 x2,
# x4 = 2 x3, x5 = 2^3 x4, x5 = 2^4 x3.
EXAMPLE_PLANES = [(0, 0, 1), (0, 1, 2), (3, 2, 1), (4, 3, 3), (4, 2, 4)]
# x5 = 2^5 x3 contradicts the path x3 -> x4 -> x5 of label sum 4.
CONFLICT = (4, 2, 5)


# The scalar reference: one flat and one plane at a time, on Flat tuples.
# build_poset closes whole ranks at once on arrays; these tests hold it to
# this closure.


@dataclass(frozen=True)
class Flat:
    """Canonical form of a nonempty intersection of hyperplanes.

    ``cells[v-1]`` is None when x_v = 0 on the flat, and otherwise
    ``(r, off)``: x_v = 2^off * x_r, where r is the smallest coordinate of
    v's component, so ``cells[r-1] == (r, 0)``.  Each flat has exactly one
    such tuple, so equal flats compare and hash equal.  ``loops`` and
    ``components`` give the grouped form of the JSON dump: (vertex, offset)
    pairs sorted by vertex, and components sorted by their smallest vertex.
    """

    cells: tuple

    @property
    def dimension(self):
        return sum(1 for v, cell in enumerate(self.cells, 1) if cell == (v, 0))

    @property
    def loops(self):
        return frozenset(v for v, cell in enumerate(self.cells, 1) if cell is None)

    @property
    def components(self):
        groups = {}
        for v, cell in enumerate(self.cells, 1):
            if cell is not None:
                groups.setdefault(cell[0], []).append((v, cell[1]))
        return tuple(tuple(group) for group in groups.values())


def flat_of(poset, a):
    """Node a's row of cells as a Flat."""
    rows = zip(poset.root[a].tolist(), poset.off[a].tolist())
    return Flat(tuple(None if r < 0 else (r + 1, o) for r, o in rows))


def check_order_and_dump(poset, spec):
    """The nodes are the scalar closure's flats sorted by (-dimension, sorted
    loops, components), and each JSON flat reads the same loops and
    components as its Flat."""
    flats = [flat_of(poset, a) for a in range(len(poset))]
    expected = sorted(
        scalar_closure(spec),
        key=lambda f: (-f.dimension, tuple(sorted(f.loops)), f.components),
    )
    assert flats == expected
    for entry, flat in zip(reference_dump(poset)["flats"], flats):
        assert entry["dim"] == flat.dimension
        assert entry["loops"] == sorted(flat.loops)
        assert entry["components"] == [[list(pair) for pair in comp] for comp in flat.components]
    check_rendered(poset, spec)


def charpoly_from_poset(poset, n):
    """The sum of mu(X) t^dim(X) over a whole poset's flats: the reference
    for ``rank_sums``, which sums each rank as the closure goes."""
    coeffs = [0] * (n + 1)
    for dim, mu in zip(poset.dims.tolist(), poset.mu.tolist()):
        coeffs[dim] += mu
    return IntPolynomial(coeffs)


def reference_dump(poset):
    """The JSON form as Python objects, flat by flat: the reference for the
    text ``IntersectionPoset.json_chunks`` renders from the arrays."""
    flats = []
    rows = zip(poset.dims.tolist(), poset.mu.tolist(), poset.root.tolist(), poset.off.tolist())
    for index, (dim, mu, roots, offs) in enumerate(rows):
        loops, components = [], {}
        for v, (r, o) in enumerate(zip(roots, offs), 1):
            if r < 0:
                loops.append(v)
            else:
                # A root is its component's first vertex, so the groups
                # come out sorted by smallest vertex.
                components.setdefault(r, []).append([v, o])
        flats.append(
            {"id": index, "dim": dim, "mu": mu, "loops": loops,
             "components": list(components.values())}
        )
    return {"n": poset.root.shape[1], "flats": flats, "hasse": poset.edges.tolist()}


def check_rendered(poset, spec, target="A:1,1"):
    """The rendered dump is the reference's ``json.dumps`` text, and the
    rank sums are the poset's flats per dimension and chi."""
    text = "".join(poset.json_chunks(target))
    expected = json.dumps(reference_dump(poset) | {"target": target}, sort_keys=True)
    if text != expected:  # shown where it starts: pytest's diff of two long lines takes minutes
        at = next((i for i, pair in enumerate(zip(text, expected)) if len(set(pair)) > 1), len(text))
        pytest.fail(f"at {at}: {text[at - 40 : at + 40]!r} != {expected[at - 40 : at + 40]!r}")
    counts, chi = rank_sums(spec)
    assert counts == [int((poset.dims == spec.n - rank).sum()) for rank in range(len(counts))]
    assert sum(counts) == len(poset)
    assert chi == charpoly_from_poset(poset, spec.n)


def ambient_flat(n):
    return Flat(tuple((v, 0) for v in range(1, n + 1)))


def _zero_component(flat, root):
    """The flat with every coordinate of root's component forced to zero."""
    return Flat(tuple(None if cell and cell[0] == root else cell for cell in flat.cells))


def intersect_flat(flat, h):
    """Intersect a flat with one plane, a row (i, j, k) of x_i = 2^k x_j.

    A conflicting merge (same component, wrong offset gap) forces the free
    value of that component to zero, so the component joins the loop set
    rather than emptying the intersection; every hyperplane here passes
    through the origin.  The coordinate row (i, i, 1) is such a conflict.
    """
    i, j, k = h
    cell_i, cell_j = flat.cells[i], flat.cells[j]
    if cell_i is None and cell_j is None:
        return flat
    if cell_i is None or cell_j is None:
        return _zero_component(flat, (cell_i or cell_j)[0])
    (root_i, off_i), (root_j, off_j) = cell_i, cell_j
    if root_i == root_j:
        return flat if off_i == k + off_j else _zero_component(flat, root_i)
    # x_(root_i) = 2^shift x_(root_j); the larger root's cells move onto the smaller.
    shift = k + off_j - off_i
    keep, move = root_j, root_i
    if root_i < root_j:
        keep, move, shift = root_i, root_j, -shift
    return Flat(
        tuple((keep, cell[1] + shift) if cell and cell[0] == move else cell for cell in flat.cells)
    )


def scalar_closure(spec):
    """Every flat with its mask (bit h set when plane h contains it), closed
    flat by flat from the ambient flat with ``intersect_flat``."""
    planes = hyperplanes_of(spec).tolist()
    start = ambient_flat(spec.n)
    masks, frontier = {}, [start]
    seen = {start}
    while frontier:
        flat = frontier.pop()
        mask = 0
        for bit, h in enumerate(planes):
            nxt = intersect_flat(flat, h)
            if nxt == flat:
                mask |= 1 << bit
            elif nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
        masks[flat] = mask
    return masks


def fold(planes, n):
    """Intersection of a plane list, one intersect_flat step per plane."""
    flat = ambient_flat(n)
    for h in planes:
        flat = intersect_flat(flat, h)
    return flat


def flat_dimension_by_rank(hyperplanes, n):
    """Dimension of the intersection via exact rank of the true normals.

    The row (i, j, k) of ``x_i = 2^k x_j`` has normal e_i - 2^k e_j, which
    is -e_i for the coordinate row (i, i, 1).  This route never looks at the
    combinatorial flat form, so it serves as an independent cross-check.
    """
    rows = []
    for i, j, k in hyperplanes:
        row = [Fraction(0)] * n
        row[i] += 1
        row[j] -= 2**k
        rows.append(row)
    return n - _rank(rows, n)


def _rank(rows, width):
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                for c in range(col, width):
                    rows[r][c] -= factor * rows[rank][c]
        rank += 1
    return rank


def flat_set(poset):
    """The nodes' flats, checked to be distinct."""
    flats = {flat_of(poset, a) for a in range(len(poset))}
    assert len(flats) == len(poset)
    return flats


def masks_of(poset, spec):
    """Each node's mask (bit h set when plane h contains it), read off the
    scalar closure by the node's flat."""
    masks = scalar_closure(spec)
    return [masks[flat_of(poset, a)] for a in range(len(poset))]


def contains(masks, a, b):
    """Node a contains node b: every plane containing a contains b."""
    return masks[a] & ~masks[b] == 0


def strictly_above(masks):
    """``above[a, b]``: node a strictly contains node b, read off the masks."""
    return np.array(
        [[a != b and contains(masks, a, b) for b in range(len(masks))] for a in range(len(masks))],
        dtype=bool,
    )


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
        flat = fold([(0, 0, 1)], 3)
        assert flat.loops == frozenset({1})

    def test_loop_closure_spreads(self):
        planes = [(0, 0, 1), (0, 1, 1)]
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
        planes = [(i, i, 1) for i in range(3)]
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
            planes = hyperplanes_of(ArrangementSpec.preset(name)).tolist()
            n = ArrangementSpec.preset(name).n
            for r in range(len(planes) + 1):
                for subset in itertools.combinations(planes, r):
                    self.check_subset(list(subset), n)

    def test_sampled_A32(self):
        spec = ArrangementSpec.preset("A:3,2")
        planes = hyperplanes_of(spec).tolist()
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
        flat = intersect_flat(flat, (0, 1, 0))
        assert flat.dimension == 1
        flat = intersect_flat(flat, (0, 1, 1))
        assert flat.dimension == 0
        assert flat.loops == frozenset({1, 2})

    def test_idempotent(self):
        flat = ambient_flat(3)
        h = (0, 2, 2)
        once = intersect_flat(flat, h)
        assert intersect_flat(once, h) == once


class TestBuildPoset:
    def test_A21_poset(self):
        poset = build_poset(ArrangementSpec.preset("A:2,1"))
        assert len(poset) == 7
        mus = sorted(poset.mu.tolist())
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

    def test_flats_are_cut_out_by_their_planes(self):
        """Mask order rests on each flat being the intersection of the planes
        that contain it; the cells name each component by its smallest
        vertex, at offset 0."""
        for name in ("A:3,2", "Gamma:3,2", "Delta:4,1"):
            spec = ArrangementSpec.preset(name)
            planes = hyperplanes_of(spec).tolist()
            poset = build_poset(spec)
            masks = masks_of(poset, spec)
            for a in range(len(poset)):
                flat = flat_of(poset, a)
                containing = [h for bit, h in enumerate(planes) if masks[a] >> bit & 1]
                assert containing == [h for h in planes if intersect_flat(flat, h) == flat]
                assert fold(containing, spec.n) == flat, (name, flat)
                assert flat_dimension_by_rank(containing, spec.n) == flat.dimension
                for v, cell in enumerate(flat.cells, 1):
                    if cell is not None:
                        root = cell[0]
                        assert root <= v and flat.cells[root - 1] == (root, 0), (name, flat)

    def test_closure_matches_scalar_reference(self):
        """The rank-by-rank array closure finds the flats that the
        flat-at-a-time closure finds."""
        for name in ("A:3,2", "B:3,2", "Gamma:3,2", "Delta:4,1", "A:4,1", "B:1,1"):
            spec = ArrangementSpec.preset(name)
            assert flat_set(build_poset(spec)) == scalar_closure(spec).keys(), name

    def test_masks_past_one_word(self):
        """A:3,11 has 72 planes, more plane bits than one 64-bit word holds."""
        spec = ArrangementSpec.preset("A:3,11")
        poset = build_poset(spec)
        assert flat_set(poset) == scalar_closure(spec).keys()
        assert charpoly_from_poset(poset, 3) == charpoly_A_closed(3, 11)

    def test_large_shifts_pack_exactly(self):
        """An offset at the packing's bound, here x4 = 2^-3500 x1 through the
        chain of the three largest shifts, comes back exact."""
        spec = ArrangementSpec(
            4, MULTIPLICATIVE, {(1, 2): [1500, -7], (2, 3): [1000], (3, 4): [1000, 3]}, True
        )
        poset = build_poset(spec)
        assert flat_set(poset) == scalar_closure(spec).keys()
        flats = [flat_of(poset, a) for a in range(len(poset))]
        offsets = {off for flat in flats for comp in flat.components for _, off in comp}
        assert min(offsets) == -3500
        check_order_and_dump(poset, spec)

    def test_rejects_additive(self):
        with pytest.raises(ValueError):
            build_poset(ArrangementSpec.preset("C:2,1"))

    def test_budget_guard(self):
        """A:5,30 would cut 113,465 rank-2 flats by 615 planes, and A:8,1
        408,471 rank-4 flats by 92 planes."""
        with pytest.raises(SizeGuard, match="memory budget"):
            build_poset(ArrangementSpec.preset("A:5,30"))
        with pytest.raises(SizeGuard, match="rank 4 .* memory budget"):
            build_poset(ArrangementSpec.preset("A:8,1"))

    def test_sparse_n6_matches_ff_route(self):
        """A 6-cycle with a chord, all shifts 0, plus the coordinate planes.
        With m = 0 the admissible moduli start at 3, which keeps the eight ff
        counts under a second."""
        pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)]
        spec = ArrangementSpec(6, MULTIPLICATIVE, {pair: [0] for pair in pairs}, True)
        moduli = [3, 5, 11, 13, 19, 29, 37, 53]
        assert charpoly_from_poset(build_poset(spec), 6) == charpoly_ff(spec, moduli)


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
            spec = ArrangementSpec.preset(name)
            poset = build_poset(spec)
            masks = masks_of(poset, spec)
            for b in range(len(poset)):
                point = generic_point(flat_of(poset, b), rng)
                for a in range(len(poset)):
                    assert lies_on(point, flat_of(poset, a)) == contains(masks, a, b), (name, a, b)

    def test_hasse_edges(self):
        poset = build_poset(ArrangementSpec.preset("A:2,1"))
        edges = poset.edges.tolist()
        # ambient covered by 5 lines, each line covering the origin
        assert len(edges) == 10

    def test_hasse_is_transitive_reduction(self):
        """The covers the closure recorded equal the transitive reduction of
        mask containment."""
        for name in ("A:3,1", "Delta:3,2"):
            spec = ArrangementSpec.preset(name)
            poset = build_poset(spec)
            masks = masks_of(poset, spec)
            below = [
                {a for a in range(len(poset)) if a != b and contains(masks, a, b)}
                for b in range(len(poset))
            ]
            reduction = sorted(
                [a, b]
                for b, lower in enumerate(below)
                for a in lower
                if not any(a in below[c] for c in lower)
            )
            assert poset.edges.tolist() == reduction, name

    def test_json_dump_shape(self):
        poset = build_poset(ArrangementSpec.preset("A:1,1"))
        data = json.loads("".join(poset.json_chunks("A:1,1")))
        assert data["n"] == 1
        assert len(data["flats"]) == 2
        assert data["hasse"] == [[0, 1]]


@st.composite
def sparse_specs(draw):
    """A multiplicative spec with n <= 4 and a random subset of pairs, each
    with a few shifts in [-2, 2]: the paper's sub-arrangements."""
    n = draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    shifts = {
        pair: draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2, unique=True))
        for pair in chosen
    }
    return ArrangementSpec(n, MULTIPLICATIVE, shifts, draw(st.booleans()))


@given(sparse_specs())
def test_random_sparse_poset(spec):
    """On a random sub-arrangement: the closure equals the scalar closure,
    poset chi equals ff chi, the stored edges are exactly the covers of mask
    containment, every mu is the scalar recursion over it, and the node
    order and JSON flats are those of the scalar flats."""
    poset = build_poset(spec)
    assert flat_set(poset) == scalar_closure(spec).keys()
    assert charpoly_from_poset(poset, spec.n) == charpoly_ff(spec)
    above = strictly_above(masks_of(poset, spec))
    through = (above.astype(np.int64) @ above.astype(np.int64)) > 0
    covers = sorted(map(list, zip(*(x.tolist() for x in np.nonzero(above & ~through)))))
    assert poset.edges.tolist() == covers
    mu = []
    for b in range(len(poset)):
        higher = np.nonzero(above[:, b])[0]
        mu.append(-sum(mu[a] for a in higher) if len(higher) else 1)
    assert poset.mu.tolist() == mu
    check_order_and_dump(poset, spec)


@st.composite
def preset_specs(draw):
    """A multiplicative preset within a few thousand flats."""
    family = draw(st.sampled_from(["A", "B", "Gamma", "Delta"]))
    n = draw(st.integers(1, 4))
    return ArrangementSpec.preset(f"{family}:{n},{draw(st.integers(1, 4 - n // 2))}")


@given(st.one_of(preset_specs(), sparse_specs()), st.text(max_size=6))
def test_rendered_dump_and_rank_sums(spec, target):
    """The dump rendered from the arrays is the reference's text byte for
    byte, with any target, and the rank sums agree with the whole poset."""
    check_rendered(build_poset(spec), spec, target)


@pytest.mark.parametrize(
    "spec",
    [
        ArrangementSpec(1, MULTIPLICATIVE, {}, True),
        # one flat and no edges
        ArrangementSpec(1, MULTIPLICATIVE, {}, False),
        ArrangementSpec(3, MULTIPLICATIVE, {}, False),
        # negative offsets
        ArrangementSpec(3, MULTIPLICATIVE, {(1, 2): [-3], (2, 3): [-5, 2]}, True),
        # offsets 8 * 10^8 apart, which no table over their range could hold
        ArrangementSpec(2, MULTIPLICATIVE, {(1, 2): [400000000, -400000000]}, False),
        # two-digit vertices
        ArrangementSpec(10, MULTIPLICATIVE, {(1, 10): [1], (9, 10): [-2]}, True),
    ],
)
def test_rendered_dump_edge_cases(spec):
    check_rendered(build_poset(spec), spec, 'dir/"quoted"\\é.json')


def reference_cut(code, key, ijk):
    """``_cut`` with each root's component summed by a loop over the roots,
    the form the two scatters replaced."""
    root, off = code.decode(key)
    weighted = code.cells(root, off) * code.powers
    comp_cells = np.zeros((len(key), root.shape[1] + 1), dtype=np.int64)
    comp_weight = np.zeros_like(comp_cells)
    for r in range(root.shape[1]):
        in_r = root == r
        comp_cells[:, r] = (weighted * in_r).sum(axis=1)
        comp_weight[:, r] = (code.powers * in_r).sum(axis=1)
    i, j, k = ijk.T
    ri, rj, oi, oj = root[:, i], root[:, j], off[:, i], off[:, j]
    same = ri == rj
    contains = same & ((ri < 0) | (oi == k + oj))
    hi = np.maximum(ri, rj)
    shift = np.where(ri > rj, 1, -1) * (k + oj - oi)
    delta = np.where(
        ~same & (ri >= 0) & (rj >= 0),
        ((np.minimum(ri, rj) - hi) * code.radix + shift)
        * np.take_along_axis(comp_weight, hi, axis=1),
        -np.take_along_axis(comp_cells, hi, axis=1),
    )
    return contains, key[:, None] + delta


@given(st.one_of(preset_specs(), sparse_specs()), st.data())
def test_cut_matches_the_loop_over_roots(spec, data):
    """On random rows of cells, zero coordinates among them, ``_cut``'s
    scatters give the containment and keys of the loop over the roots."""
    code = poset_module._CellCode(spec)
    n = spec.n
    ijk = hyperplanes_of(spec)
    cell = st.one_of(
        st.just((-1, 0)),
        st.tuples(st.integers(0, n - 1), st.integers(-code.bound, code.bound)),
    )
    rows = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=1, max_size=8))
    root, off = np.array(rows, dtype=np.int64).transpose(2, 0, 1)
    key = code.cells(root, off) @ code.powers
    contains, cut = poset_module._cut(code, key, ijk)
    want_contains, want_cut = reference_cut(code, key, ijk)
    assert np.array_equal(contains, want_contains)
    assert np.array_equal(cut, want_cut)
