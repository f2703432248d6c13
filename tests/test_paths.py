import bisect
import io
import itertools
import json
import math
import random
from collections import Counter
from contextlib import redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidarr import arrangements, cli
from braidarr.arrangements import SizeGuard
from braidarr.dyckwords import axis_points, step_sequences
from braidarr.numbers import charpoly_A_closed, charpoly_C_closed, raney
from braidarr.paths import (
    DecoratedDyckPath,
    LabeledDyckPath,
    check_labeled_path,
    compartment_distribution,
    path_chunks,
    path_to_sketch,
    sketch_to_path,
)
from braidarr.sketches import Sketch
from test_sketches import assert_chunked, chunk_lines, sketch_objects

# Three-coordinate all-positive region (mark at the start).
SKETCH_32 = "0 3^0 3^1 3^2 1^0 2^0 1^1 2^1 1^2 2^2"
# Five-coordinate region with both signs (mark after six steps).
SKETCH_52 = "3^2 3^1 1^2 3^0 1^1 1^0 0 5^0 5^1 5^2 4^0 2^0 4^1 2^1 4^2 2^2"
# Labeled 1-Dyck path with 3 primitive parts and 2 compartments.
COMPARTMENT_PATH = LabeledDyckPath(1, tuple("UUUDDUDDUUDDUD"), (9, 2, 8, 6, 4, 1, 5))


def enumerate_decorated_paths(n, m):
    """Reference: all decorated paths of size n as objects, ordered by
    (part-1 steps, part-2 steps, labels).  The first parts are sorted, the
    second parts and the permutations come in lex order, and each pair of
    parts takes every permutation of [n] once, so the loops run in that
    order."""
    firsts = sorted(s for ups in range(n + 1) for s in step_sequences(ups, m))
    labelings = list(itertools.permutations(range(1, n + 1)))
    return [
        DecoratedDyckPath(LabeledDyckPath(m, steps1 + steps2, labels), len(steps1))
        for steps1 in firsts
        for steps2 in step_sequences(n - steps1.count("U"), m)
        for labels in labelings
    ]


def reference_decomposition(path):
    """Reference: the compartments by the iterated largest-remaining-label
    rule, one max over the remaining labels per compartment."""
    points = axis_points(path.steps, path.m)
    ups = [a // (path.m + 1) for a in points]  # up-steps before each axis point
    pieces = []
    done = 0
    while done < len(points) - 1:
        remaining = path.labels[ups[done] : ups[-1]]
        top = ups[done] + remaining.index(max(remaining))
        stop = bisect.bisect_right(ups, top)  # the end of the part holding label top
        steps, labels = path.steps[points[done] : points[stop]], path.labels[ups[done] : ups[stop]]
        pieces.append(LabeledDyckPath(path.m, steps, labels))
        done = stop
    return tuple(pieces)


def assemble_compartments(pieces):
    """The labeled path whose compartments are ``pieces``: compartment maxima
    decrease along a path, so the pieces go in by largest label, descending.
    A piece is one compartment when it is nonempty and its largest label lies
    in its last primitive part."""
    for piece in pieces:
        # the up-steps before the last primitive part starts
        start = axis_points(piece.steps, piece.m)[-2] // (piece.m + 1) if piece.labels else 0
        if max(piece.labels, default=0) not in piece.labels[start:]:
            raise ValueError(f"piece {piece} is not connected")
    pieces = sorted(pieces, key=lambda p: -max(p.labels))
    steps = tuple(s for p in pieces for s in p.steps)
    labels = tuple(label for p in pieces for label in p.labels)
    return LabeledDyckPath(pieces[0].m, steps, labels)


def shifted_coefficient_identity(n, m):
    """chi_A(t) = chi_C(t - 1) on absolute coefficients: |[t^j] chi_A| is the
    sum over i of C(i, j) |[t^i] chi_C|."""
    a, c = charpoly_A_closed(n, m), charpoly_C_closed(n, m)
    return all(
        abs(a.coefficient(j)) == sum(abs(c.coefficient(i)) * math.comb(i, j) for i in range(j, n + 1))
        for j in range(n + 1)
    )


def unlabeled_census(n, m):
    """The unlabeled paths with k up-steps for k = 0..n, and {k: the paths
    with n up-steps and k + 1 axis points}."""
    by_upsteps = tuple(sum(1 for _ in step_sequences(k, m)) for k in range(n + 1))
    by_axis_points = Counter(len(axis_points(s, m)) - 1 for s in step_sequences(n, m))
    return by_upsteps, by_axis_points


class TestLabeledDyckPath:
    def test_validation(self):
        # The constructor does not check; text is checked where it is parsed.
        with pytest.raises(ValueError, match="negative prefix sum"):
            check_labeled_path(LabeledDyckPath(1, ("D", "U"), (1,)))
        with pytest.raises(ValueError, match="need 1 down-steps, got 2"):
            check_labeled_path(LabeledDyckPath(1, ("U", "D", "D"), (1,)))
        with pytest.raises(ValueError, match="1 up-steps but 2 labels"):
            check_labeled_path(LabeledDyckPath(1, ("U", "D"), (1, 2)))
        with pytest.raises(ValueError, match="distinct positive"):
            check_labeled_path(LabeledDyckPath(1, ("U", "D", "U", "D"), (1, 1)))

    def test_arbitrary_positive_labels_allowed(self):
        path = LabeledDyckPath(1, ("U", "D"), (17,))
        assert path.up_count == 1

    def test_text(self):
        assert COMPARTMENT_PATH.to_text().startswith("U9 U2 U8 D D U6")


class TestDecoratedDyckPath:
    def test_mark_must_sit_on_axis(self):
        assert DecoratedDyckPath.parse("U1 D | U2 D").part1().labels == (1,)
        with pytest.raises(ValueError, match="mark 1 is not an x-axis point"):
            DecoratedDyckPath.parse("U1 | D U2 D")

    def test_labels_must_be_initial_segment(self):
        with pytest.raises(ValueError, match="exactly 1..n"):
            DecoratedDyckPath.parse("| U2 D")

    def test_text_round_trip(self):
        d = sketch_to_path(Sketch.parse(SKETCH_52))
        assert DecoratedDyckPath.parse(d.to_text()) == d

    def test_parse_mark_at_origin(self):
        d = DecoratedDyckPath.parse("| U1 D")
        assert d.mark == 0 and d.m == 1


class TestSketchPathBijection:
    def test_all_positive_example(self):
        d = sketch_to_path(Sketch.parse(SKETCH_32))
        assert d.mark == 0
        assert d.path.labels == (3, 1, 2)
        assert d.part1().steps == ()

    def test_mixed_example(self):
        d = sketch_to_path(Sketch.parse(SKETCH_52))
        assert d.mark == 6
        assert d.part1().labels == (3, 1)
        assert d.part2().labels == (5, 4, 2)
        assert d.to_text() == "U3 D U1 D D D | U5 D D U4 U2 D D D D"

    def test_trivial(self):
        d = sketch_to_path(Sketch.parse("0 1^0 1^1"))
        assert d.to_text() == "| U1 D"

    def test_inverses_on_examples(self):
        for text in (SKETCH_32, SKETCH_52, "0 1^0 1^1", "1^1 1^0 0 2^0 2^1"):
            s = Sketch.parse(text)
            assert path_to_sketch(sketch_to_path(s)) == s

    @pytest.mark.parametrize(
        "n,m",
        [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (5, 1)],
    )
    def test_round_trip_sketch_first(self, n, m):
        for s in sketch_objects(n, m):
            assert path_to_sketch(sketch_to_path(s)) == s

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    def test_round_trip_path_first(self, n, m):
        for d in enumerate_decorated_paths(n, m):
            assert sketch_to_path(path_to_sketch(d)) == d

    def test_empty_sides(self):
        s_left = Sketch.parse("1^1 1^0 0")
        assert sketch_to_path(s_left).part2().steps == ()
        s_right = Sketch.parse("0 1^0 1^1")
        assert sketch_to_path(s_right).part1().steps == ()

    def test_empty_path_with_a_huge_m(self, traced_peak):
        # the word's exponent counts are sized by its steps, not by m
        sketch, peak = traced_peak(path_to_sketch, DecoratedDyckPath.parse("|", 10**6))
        assert sketch == Sketch((), ())
        assert peak < 10**6


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,m,expected", [(1, 1, 2), (2, 1, 10), (2, 2, 14), (3, 1, 84)]
    )
    def test_counts(self, n, m, expected):
        lines = chunk_lines(path_chunks(n, m))
        assert len(lines) == expected
        assert len(set(lines)) == expected
        assert expected == math.factorial(n) * raney(n, m, 2)

    def test_guard(self):
        with pytest.raises(SizeGuard):
            path_chunks(13, 1)
        with pytest.raises(SizeGuard):
            compartment_distribution(13, 1)

    def test_deterministic_order(self):
        assert list(path_chunks(2, 2)) == list(path_chunks(2, 2))


# Every size with n (m+1) <= 12, and n = 0.
REFERENCE_SIZES = [
    (n, m) for n in range(7) for m in range(1, 12) if (m + 1) * n <= 12 and (n or m <= 7)
]


class TestPathLines:
    """The path table's lines against the objects' text, the reference."""

    @pytest.mark.parametrize("n,m", [size for size in REFERENCE_SIZES if size != (6, 1)])
    def test_every_size(self, n, m):
        expected = [d.to_text() for d in enumerate_decorated_paths(n, m)]
        assert chunk_lines(path_chunks(n, m)) == expected

    def test_chunks_six_one(self):
        lines = [d.to_text() for d in enumerate_decorated_paths(6, 1)]
        assert_chunked(path_chunks(6, 1), lines, 13)  # 123 chunks

    # 84 lines of 7 tokens in chunks of 83 and 1, 42 and 42, and 1 each
    @pytest.mark.parametrize("tokens", [83 * 7, 42 * 7 + 6, 1])
    def test_chunk_edges(self, monkeypatch, tokens):
        monkeypatch.setattr(arrangements, "CHUNK_WORDS", tokens)
        lines = [d.to_text() for d in enumerate_decorated_paths(3, 1)]
        assert_chunked(path_chunks(3, 1), lines, 7)

    # n = 0, whose one line is "| "; one long line; empty first and second parts
    @pytest.mark.parametrize("n,m", [(0, 2), (1, 12), (2, 1), (4, 2)])
    def test_cli_forms(self, n, m):
        lines = [d.to_text() for d in enumerate_decorated_paths(n, m)]
        expected = {
            "table": "".join(f"{line}\n" for line in lines),
            "csv": "index,item\n" + "".join(f'{i},"{line}"\n' for i, line in enumerate(lines)),
            "json": json.dumps(lines, sort_keys=True) + "\n",
        }
        for output, text in expected.items():
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli.run(["enumerate", "paths", str(n), str(m), "--output", output]) == 0
            assert out.getvalue() == text, output


ORDER_SIZES = [(0, 1), (1, 3), (2, 3), (3, 1), (3, 2), (4, 1)]


class TestEnumerationOrder:
    """Each enumerator returns its documented order, not just a stable one."""

    @pytest.mark.parametrize("n,m", ORDER_SIZES)
    def test_paths_sorted(self, n, m):
        paths = enumerate_decorated_paths(n, m)
        key = lambda d: (d.part1().steps, d.part2().steps, d.path.labels)
        assert paths == sorted(paths, key=key)
        assert chunk_lines(path_chunks(n, m)) == [d.to_text() for d in paths]

    @pytest.mark.parametrize("n,m", ORDER_SIZES)
    def test_sketches_sorted(self, n, m):
        sketches = sketch_objects(n, m)
        assert sketches == sorted(sketches, key=Sketch.sort_key)


class TestAxisPoints:
    def test_three_part_path(self):
        points = axis_points(COMPARTMENT_PATH.steps, 1)
        assert points == [0, 8, 12, 14]
        # labels (9, 2, 8, 6 | 4, 1 | 5) split after 4 and 6 up-steps
        assert [a // 2 for a in points] == [0, 4, 6, 7]

    @pytest.mark.parametrize("n,m", [(3, 1), (2, 3), (4, 2)])
    def test_every_path_by_its_heights(self, n, m):
        for steps in step_sequences(n, m):
            heights = list(itertools.accumulate((m if s == "U" else -1 for s in steps), initial=0))
            points = axis_points(steps, m)
            assert points == [a for a, h in enumerate(heights) if h == 0]
            assert [a // (m + 1) for a in points] == [steps[:a].count("U") for a in points]

    def test_negative_prefix(self):
        assert axis_points((), 2) == [0]
        with pytest.raises(ValueError, match="negative prefix sum"):
            axis_points("UDDD", 2)


class TestPrimitivePartsAndCompartments:
    """The primitive parts of a path, ``len(axis_points) - 1``, and its
    compartments by ``reference_decomposition``."""

    def test_three_part_path(self):
        assert len(axis_points(COMPARTMENT_PATH.steps, 1)) - 1 == 3
        assert len(reference_decomposition(COMPARTMENT_PATH)) == 2

    def test_empty_path(self):
        empty = LabeledDyckPath(1, (), ())
        assert len(axis_points(empty.steps, 1)) - 1 == 0
        assert reference_decomposition(empty) == ()

    def test_two_parts(self):
        path = LabeledDyckPath(1, ("U", "D", "U", "D"), (1, 2))
        assert len(axis_points(path.steps, 1)) - 1 == 2

    def test_largest_label_position_matters(self):
        high_first = LabeledDyckPath(1, ("U", "D", "U", "D"), (2, 1))
        low_first = LabeledDyckPath(1, ("U", "D", "U", "D"), (1, 2))
        assert len(reference_decomposition(high_first)) == 2
        assert len(reference_decomposition(low_first)) == 1

    def test_compartments_never_exceed_parts(self):
        for d in enumerate_decorated_paths(3, 1):
            p = d.part2()
            assert len(reference_decomposition(p)) <= len(axis_points(p.steps, 1)) - 1

    def test_single_compartment_path(self):
        path = LabeledDyckPath(2, ("U", "D", "D"), (5,))
        assert reference_decomposition(path) == (path,)

    def test_examples_match_reference(self):
        for labels, count in (((), 0), ((1,), 1), ((2, 1), 2), ((1, 2), 1)):
            steps = ("U", "D") * len(labels)
            assert len(reference_decomposition(LabeledDyckPath(1, steps, labels))) == count

    def test_decomposition_recombines(self):
        pieces = reference_decomposition(COMPARTMENT_PATH)
        assert len(pieces) == 2
        assert pieces[0].labels == (9, 2, 8, 6)
        assert pieces[1].labels == (4, 1, 5)
        steps = tuple(s for piece in pieces for s in piece.steps)
        assert steps == COMPARTMENT_PATH.steps


@st.composite
def labeled_paths(draw):
    """A labeled path with n <= 9 up-steps of rise m <= 3 and distinct
    labels in 1..40, drawn step by step."""
    n = draw(st.integers(0, 9))
    m = draw(st.integers(1, 3))
    steps = []
    height = ups = 0
    while ups < n or height:
        if ups < n and (height == 0 or draw(st.booleans())):
            steps.append("U")
            height += m
            ups += 1
        else:
            steps.append("D")
            height -= 1
    labels = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n, unique=True))
    return LabeledDyckPath(m, tuple(steps), tuple(labels))


class TestCompartmentWalk:
    """``compartment_distribution``, which counts every labelling of a step
    pair at once, against ``reference_decomposition`` on each path of the
    object reference."""

    @pytest.mark.parametrize("n,m", REFERENCE_SIZES)
    def test_every_decorated_path(self, n, m):
        paths = enumerate_decorated_paths(n, m)
        counts = Counter(len(reference_decomposition(d.part2())) for d in paths)
        for d in paths:
            reference_decomposition(d.part1())
        assert compartment_distribution(n, m) == [counts[j] for j in range(n + 1)]

    @given(labeled_paths())
    def test_random_labeled_paths(self, path):
        """The rule ``compartment_distribution`` counts by: the compartments
        are the distinct suffix maxima of the labels at the part starts, and
        one ends where the maximum differs from the next start's, or from 0
        past the last; labels need not be 1..n."""
        check_labeled_path(path)
        starts, height, ups = [], 0, 0  # the first label of each primitive part
        for step in path.steps:
            if height == 0:
                starts.append(ups)
            height += path.m if step == "U" else -1
            ups += step == "U"
        maxima = [max(path.labels[a:]) for a in starts] + [0]
        ends = sum(a != b for a, b in zip(maxima, maxima[1:]))
        assert ends == len(reference_decomposition(path))


class TestReconstruction:
    def test_shuffled_compartments_reassemble(self):
        rng = random.Random(7)
        for d in enumerate_decorated_paths(3, 1):
            for path in (d.part1(), d.part2()):
                pieces = list(reference_decomposition(path))
                if not pieces:
                    continue
                rng.shuffle(pieces)
                assert assemble_compartments(pieces) == path

    @given(labeled_paths())
    def test_connected_exactly_when_one_compartment(self, path):
        if len(reference_decomposition(path)) == 1:
            assert assemble_compartments([path]) == path
        else:
            with pytest.raises(ValueError, match="not connected"):
                assemble_compartments([path])

    def test_rejects_disconnected_piece(self):
        with pytest.raises(ValueError):
            assemble_compartments([LabeledDyckPath(1, ("U", "D", "U", "D"), (2, 1))])


class TestCompartmentDistribution:
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (1, 1, [1, 1]),
            (2, 1, [4, 5, 1]),
            (2, 2, [6, 7, 1]),
            (3, 1, [30, 41, 12, 1]),
        ],
    )
    def test_matches_coefficients(self, n, m, expected):
        distribution = compartment_distribution(n, m)
        assert distribution == expected
        poly = charpoly_A_closed(n, m)
        assert distribution == [abs(poly.coefficient(j)) for j in range(n + 1)]

    @pytest.mark.parametrize("n,m", [(1, 2), (3, 2), (4, 1)])
    def test_matches_coefficients_wider(self, n, m):
        poly = charpoly_A_closed(n, m)
        assert compartment_distribution(n, m) == [
            abs(poly.coefficient(j)) for j in range(n + 1)
        ]

    def test_total_is_region_count(self):
        for n, m in [(2, 1), (2, 2), (3, 1), (4, 1)]:
            assert sum(compartment_distribution(n, m)) == math.factorial(n) * raney(
                n, m, 2
            )


class TestShiftedCoefficientIdentity:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("m", range(1, 6))
    def test_grid(self, n, m):
        assert shifted_coefficient_identity(n, m)


class TestUnlabeledCensus:
    def test_catalan_case(self):
        assert unlabeled_census(3, 1)[0] == (1, 1, 2, 5)

    def test_axis_point_counts(self):
        assert unlabeled_census(2, 1)[1] == {1: 1, 2: 1}
        assert unlabeled_census(2, 2)[1][2] == raney(0, 2, 4)

    def test_past_the_labelled_guard(self):
        # the labelled enumeration of n = 7, m = 1 is refused; its census
        # walks a few thousand steps
        by_upsteps, by_axis_points = unlabeled_census(7, 1)
        assert by_upsteps[7] == 429
        assert by_axis_points[7] == 1

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (2, 4), (1, 5)])
    def test_matches_raney_formulas(self, n, m):
        by_upsteps, by_axis_points = unlabeled_census(n, m)
        for k in range(n + 1):
            assert by_upsteps[k] == raney(k, m, 1)
        for k in range(1, n + 1):
            assert by_axis_points[k] == raney(n - k, m, m * k)
