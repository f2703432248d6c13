import itertools
import math

import pytest

from braidarr.arrangements import ArrangementSpec, SizeGuard, hyperplanes_of
from braidarr.numbers import raney, regions_B_closed
from braidarr.partitions import (
    DecoratedNonNestingPartition,
    check_partition,
    partition_chunks,
    partition_to_sketch,
    sketch_to_partition,
)
from braidarr.sketches import (
    Sketch,
    regions_by_projection,
    witness_point,
)
from test_sketches import chunk_lines, hyperplane_side, sketch_objects

SKETCH_52 = "3^2 3^1 1^2 3^0 1^1 1^0 0 5^0 5^1 5^2 4^0 2^0 4^1 2^1 4^2 2^2"
PARTITION_52 = "3 3 1 3 1 1 | 5 5 5 4 2 4 2 4 2"
# Same arc diagram with the red line moved past the isolated block labeled 5.
PARTITION_52_MOVED = "3 3 1 3 1 1 5 5 5 | 4 2 4 2 4 2"
# Every size with (m+1)n <= 10, n = 0 with two values of m.
STREAM_SIZES = [(n, m) for n in range(6) for m in range(1, 10) if (m + 1) * n <= 10 and (n or m <= 2)]


ISOLATED = "isolated"
TANGLED = "tangled"


def block_positions(d, label):
    """Positions of a block inside its own side."""
    side = d.side1 if label in d.side1 else d.side2
    return tuple(p for p, lab in enumerate(side) if lab == label)


def side_of(d, label):
    return 1 if label in d.side1 else 2


def classify_blocks(d):
    """Reference: label -> ISOLATED when a block's points are consecutive,
    else TANGLED."""
    out = {}
    for label in range(1, d.n + 1):
        positions = block_positions(d, label)
        out[label] = ISOLATED if positions[-1] - positions[0] == d.m else TANGLED
    return out


def b_equivalent(d1, d2):
    """Reference: the same region once the coordinate hyperplanes are dropped.

    The diagrams with red lines removed must coincide, and the red line must
    sit on the same side of every tangled block; it may move past isolated
    blocks only.
    """
    if d1.m != d2.m:
        return False
    if d1.side1 + d1.side2 != d2.side1 + d2.side2:
        return False
    classes = classify_blocks(d1)
    for label, kind in classes.items():
        if kind == TANGLED and side_of(d1, label) != side_of(d2, label):
            return False
    return True


def _is_canonical(d):
    """Reference: the red line is not immediately followed by an isolated
    block (the first right-hand block, if any, is tangled)."""
    if not d.side2:
        return True
    return classify_blocks(d)[d.side2[0]] == TANGLED


def _arcs(side):
    """Reference: the arcs (p, q) joining consecutive occurrences of a label."""
    last_seen = {}
    arcs = []
    for position, label in enumerate(side):
        if label in last_seen:
            arcs.append((last_seen[label], position))
        last_seen[label] = position
    return arcs


def _non_nesting(side):
    """Reference: no arc lies strictly inside another, by all pairs of arcs."""
    arcs = _arcs(side)
    for a1, b1 in arcs:
        for a2, b2 in arcs:
            if a1 < a2 and b2 < b1:
                return False
    return True


class TestConstruction:
    def test_parse_and_text(self):
        d = DecoratedNonNestingPartition.parse(PARTITION_52)
        assert d.m == 2 and d.n == 5
        assert d.to_text() == PARTITION_52

    def test_empty_sides(self):
        left = DecoratedNonNestingPartition.parse("1 1 |")
        assert left.side2 == ()
        right = DecoratedNonNestingPartition.parse("| 1 1")
        assert right.side1 == ()

    # The constructor does not check; text is checked where it is parsed.
    def test_rejects_wrong_block_size(self):
        with pytest.raises(ValueError, match="block 1 has 2 points, expected 3"):
            DecoratedNonNestingPartition.parse("| 1 1", 2)

    def test_rejects_nesting(self):
        # arcs of block 1 sit strictly inside the arcs of block 2
        with pytest.raises(ValueError, match="nesting arcs"):
            DecoratedNonNestingPartition.parse("| 2 1 1 1 2 2", 2)

    def test_rejects_nesting_diagram_from_example(self):
        # arc 4-5 nests strictly inside arc 3-6
        with pytest.raises(ValueError, match="nesting arcs"):
            DecoratedNonNestingPartition.parse("| 1 1 2 3 3 2", 1)

    # Every size with (m+1) n <= 9, and n, m = 4, 1.
    @pytest.mark.parametrize(
        "n,m", [(n, m) for n in range(1, 5) for m in range(1, 9) if (m + 1) * n <= 9] + [(4, 1)]
    )
    def test_nesting_matches_all_pairs_of_arcs(self, n, m):
        """``check_partition``, which reads a side as a word of occurrences,
        against the arcs compared in pairs, on every side of n blocks of m + 1."""
        non_nesting = 0
        for side in itertools.product(range(1, n + 1), repeat=n * (m + 1)):
            if any(side.count(label) != m + 1 for label in range(1, n + 1)):
                continue
            expected = _non_nesting(side)
            non_nesting += expected
            for sides in ((side, ()), ((), side)):
                d = DecoratedNonNestingPartition(m, *sides)
                if expected:
                    check_partition(d)
                else:
                    with pytest.raises(ValueError, match="nesting arcs"):
                        check_partition(d)
        assert non_nesting == math.factorial(n) * raney(n, m, 1)

    def test_rejects_straddling_block(self):
        with pytest.raises(ValueError, match="one side of the red line"):
            DecoratedNonNestingPartition.parse("1 | 1 2 2", 1)

    def test_crossings_are_fine(self):
        d = DecoratedNonNestingPartition(1, (), (1, 2, 1, 2))
        assert d.n == 2


class TestSketchPartitionBijection:
    def test_five_block_diagram(self):
        d = sketch_to_partition(Sketch.parse(SKETCH_52))
        assert d.to_text() == PARTITION_52
        blocks = {label: block_positions(d, label) for label in (3, 1, 5, 4, 2)}
        assert blocks[3] == (0, 1, 3) and blocks[1] == (2, 4, 5)
        assert blocks[5] == (0, 1, 2)
        assert blocks[4] == (3, 5, 7) and blocks[2] == (4, 6, 8)

    def test_trivial_sides(self):
        assert sketch_to_partition(Sketch.parse("0 1^0 1^1")).to_text() == "| 1 1"
        assert sketch_to_partition(Sketch.parse("1^1 1^0 0")).to_text() == "1 1 |"

    def test_inverse_on_examples(self):
        for text in (SKETCH_52, "0 1^0 1^1", "1^1 1^0 0"):
            s = Sketch.parse(text)
            assert partition_to_sketch(sketch_to_partition(s)) == s

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    def test_exhaustive_round_trip(self, n, m):
        seen = set()
        for s in sketch_objects(n, m):
            d = sketch_to_partition(s)
            assert partition_to_sketch(d) == s
            seen.add(d)
        # distinct sketches map to distinct partitions
        assert len(seen) == math.factorial(n) * raney(n, m, 2)

    @pytest.mark.parametrize("n,m", STREAM_SIZES)
    def test_text_stream_matches_objects(self, n, m):
        expected = [sketch_to_partition(s, m).to_text() for s in sketch_objects(n, m)]
        assert chunk_lines(partition_chunks(n, m)) == expected

    def test_text_stream_guards_when_built(self):
        with pytest.raises(SizeGuard):
            partition_chunks(7, 1)
        with pytest.raises(ValueError, match="need n >= 0"):
            partition_chunks(-1, 1)


class TestBlockClassification:
    def test_mixed_diagram_classes(self):
        d = DecoratedNonNestingPartition.parse(PARTITION_52)
        classes = classify_blocks(d)
        assert classes[5] == ISOLATED
        assert all(classes[label] == TANGLED for label in (1, 2, 3, 4))

    def test_disjoint_consecutive_blocks(self):
        d = DecoratedNonNestingPartition(1, (1, 1), (2, 2))
        assert set(classify_blocks(d).values()) == {ISOLATED}

    def test_interleaved_blocks(self):
        d = DecoratedNonNestingPartition(2, (), (1, 2, 1, 2, 1, 2))
        assert set(classify_blocks(d).values()) == {TANGLED}


class TestBEquivalence:
    def test_isolated_block_pair(self):
        d1 = DecoratedNonNestingPartition.parse(PARTITION_52)
        d2 = DecoratedNonNestingPartition.parse(PARTITION_52_MOVED)
        assert b_equivalent(d1, d2)
        assert b_equivalent(d2, d1)

    def test_reflexive(self):
        d = DecoratedNonNestingPartition.parse(PARTITION_52)
        assert b_equivalent(d, d)

    def test_moving_past_tangled_block_breaks(self):
        d1 = DecoratedNonNestingPartition.parse("| 1 2 1 2")
        d2 = DecoratedNonNestingPartition.parse("1 2 1 2 |")
        assert not b_equivalent(d1, d2)

    def test_different_diagrams_differ(self):
        d1 = DecoratedNonNestingPartition.parse("| 1 1 2 2")
        d2 = DecoratedNonNestingPartition.parse("| 2 2 1 1")
        assert not b_equivalent(d1, d2)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2)])
    def test_equivalence_relation_and_class_count(self, n, m):
        diagrams = [sketch_to_partition(s) for s in sketch_objects(n, m)]
        for d in diagrams:
            assert b_equivalent(d, d)
        for d1, d2 in itertools.combinations(diagrams, 2):
            assert b_equivalent(d1, d2) == b_equivalent(d2, d1)
        for d1, d2, d3 in itertools.permutations(diagrams, 3):
            if b_equivalent(d1, d2) and b_equivalent(d2, d3):
                assert b_equivalent(d1, d3)
        classes = []
        for d in diagrams:
            for cls in classes:
                if b_equivalent(cls[0], d):
                    cls.append(d)
                    break
            else:
                classes.append([d])
        assert len(classes) == regions_B_closed(n, m)
        # exactly one canonical representative per class
        for cls in classes:
            assert sum(1 for d in cls if _is_canonical(d)) == 1


    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_classes_are_b_signatures(self, n, m):
        """Two sketches are B-equivalent exactly when the witness points of
        their regions lie on the same side of every plane of B."""
        planes = hyperplanes_of(ArrangementSpec.preset(f"B:{n},{m}")).tolist()
        sketches = sketch_objects(n, m)
        signatures = [
            tuple(hyperplane_side(witness_point(s), h) for h in planes) for s in sketches
        ]
        diagrams = [sketch_to_partition(s) for s in sketches]
        for a, b in itertools.combinations(range(len(sketches)), 2):
            assert b_equivalent(diagrams[a], diagrams[b]) == (signatures[a] == signatures[b])


class TestCountBRegions:
    @pytest.mark.parametrize(
        "n,m,expected", [(1, 1, 1), (2, 1, 6), (2, 2, 10), (3, 1, 54)]
    )
    def test_counts(self, n, m, expected):
        assert regions_by_projection(ArrangementSpec.preset(f"B:{n},{m}")) == expected
        assert expected == regions_B_closed(n, m)

    def test_guard(self):
        # 7,207,200 sketches, past the enumeration's memory budget
        with pytest.raises(SizeGuard):
            regions_by_projection(ArrangementSpec.preset("B:7,1"))
