import hashlib
import io
import itertools
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidarr import arrangements, cli
from braidarr.arrangements import (
    MULTIPLICATIVE,
    ArrangementSpec,
    SizeGuard,
    charpoly_ff,
    hyperplanes_of,
)
from braidarr.dyckwords import DOWN, UP, complete_word, is_orderly, step_sequences
from braidarr.numbers import (
    raney,
    regions_A_closed,
    regions_B_closed,
    regions_Delta_closed,
    regions_Gamma_closed,
    zaslavsky,
)
from braidarr.partitions import partition_chunks
from braidarr.sketches import (
    LETTER_ENTRIES,
    InfeasibleSystem,
    LogPoint,
    OnHyperplane,
    Sketch,
    _check_guard,
    _side_table as side_table,
    _sketch_rows,
    _solve_side,
    is_valid_sketch,
    point_to_sketch,
    regions_by_projection,
    sketch_chunks,
    witness_point,
)
from test_poset import sparse_specs

LONG_WORD = "3^2 3^1 1^2 3^0 1^1 1^0 0 5^0 5^1 5^2 4^0 2^0 4^1 2^1 4^2 2^2"

# All ten sketches of the n=2, m=1 arrangement, derived by hand.
ALL_21_SKETCHES = {
    "0 1^0 2^0 1^1 2^1",
    "0 2^0 1^0 2^1 1^1",
    "0 1^0 1^1 2^0 2^1",
    "0 2^0 2^1 1^0 1^1",
    "1^1 2^1 1^0 2^0 0",
    "2^1 1^1 2^0 1^0 0",
    "1^1 1^0 2^1 2^0 0",
    "2^1 2^0 1^1 1^0 0",
    "2^1 2^0 0 1^0 1^1",
    "1^1 1^0 0 2^0 2^1",
}

# Every size with (m+1)n <= 10, n = 0 with two values of m.
STREAM_SIZES = [(n, m) for n in range(6) for m in range(1, 10) if (m + 1) * n <= 10 and (n or m <= 2)]


def _is_orderly(word, m):
    """Reference: one orderly side, by its definition.  Exponents per
    subscript are complete and increasing, and of any two letters with
    exponents below m the earlier keeps its lead after adding 1 to both."""
    position = {letter: idx for idx, letter in enumerate(word)}
    subscripts = {i for i, _ in word}
    if len(position) != len(word) or len(word) != (m + 1) * len(subscripts):
        return False
    for i in subscripts:
        for k in range(m + 1):
            if (i, k) not in position:
                return False
        for k in range(m):
            if position[(i, k)] > position[(i, k + 1)]:
                return False
    low = [(i, k) for (i, k) in word if k < m]
    for a, b in itertools.permutations(low, 2):
        if position[a] < position[b] and position[(a[0], a[1] + 1)] > position[(b[0], b[1] + 1)]:
            return False
    return True


def _is_orderly_by_completion(word, m):
    """Reference: ``is_orderly`` as it was before its one queue walk.  A word
    is orderly exactly when its exponent-0 labels are distinct, m + 1 letters
    each, and ``complete_word`` on its skeleton (an up-step i per letter
    (i, 0), a down-step per other letter) gives it back."""
    labels = [i for i, k in word if k == 0]
    if len(set(labels)) != len(labels) or len(word) != (m + 1) * len(labels):
        return False
    steps = [UP if k == 0 else DOWN for _, k in word]
    try:
        return tuple(complete_word(steps, labels, m)) == tuple(word)
    except ValueError:  # a down-step with nothing pending
        return False


def is_valid_by_reference(sketch, m):
    return _is_orderly(sketch.w2, m) and _is_orderly(sketch.w1[::-1], m)


def _sorted_words(size, m):
    """Reference: the sorted orderly words on {0, ..., size-1} as tuples,
    letter (p, k) coded as ``p * (m + 1) + k``."""
    width = m + 1
    templates = [
        [p * width + k for p, k in complete_word(steps, range(size), m)]
        for steps in step_sequences(size, m)
    ]
    words = []
    for labels in itertools.permutations(range(size)):
        code = [p * width + k for p in labels for k in range(width)]
        words.extend(tuple(map(code.__getitem__, template)) for template in templates)
    words.sort()
    return words


def _side_table(n, m, left, right):
    """Reference: pairs (a left word, the right words it takes) in
    ``Sketch.sort_key`` order, each side word rendered once by ``left`` or
    ``right`` from its letters coded ``(i - 1) * (m + 1) + k``."""
    width = m + 1
    universe = range(1, n + 1)
    lefts = []  # (reversed word, the complementary subset)
    rights = {}  # subset -> its rendered sorted words
    for size in range(n + 1):
        coded = _sorted_words(size, m)
        for subset in itertools.combinations(universe, size):
            code = [(i - 1) * width + k for i in subset for k in range(width)]
            words = [tuple(map(code.__getitem__, word)) for word in coded]
            rights[subset] = list(map(right, words))
            complement = tuple(i for i in universe if i not in subset)
            lefts.extend((word[::-1], complement) for word in words)
    lefts.sort()
    return [(left(word), rights[complement]) for word, complement in lefts]


def reference_sketches(n, m):
    letters = [(i, k) for i in range(1, n + 1) for k in range(m + 1)]

    def word(code):
        return tuple(map(letters.__getitem__, code))

    return [Sketch(w1, w2) for w1, rights in _side_table(n, m, word, word) for w2 in rights]


def reference_lines(n, m, label, zero):
    text = [label((i, k)) for i in range(1, n + 1) for k in range(m + 1)].__getitem__
    table = _side_table(
        n, m,
        lambda code: " ".join([*map(text, code), zero]),
        lambda code: " ".join(["", *map(text, code)]),
    )
    return [prefix + line for prefix, lines in table for line in lines]


def reference_partition_lines(n, m):
    return reference_lines(n, m, lambda letter: str(letter[0]), "|") if n else ["| "]


def chunk_lines(chunks):
    """The lines of an enumeration's chunks: their joined text, split."""
    return "\n".join(chunks).split("\n")


def sketch_objects(n, m):
    """The sketches of size (n, m), parsed from the printed text, in its order."""
    return [Sketch.parse(line) for line in chunk_lines(sketch_chunks(n, m))]


def assert_matches_reference(n, m):
    lines = reference_lines(n, m, "{0[0]}^{0[1]}".format, "0")
    assert chunk_lines(sketch_chunks(n, m)) == lines
    assert sketch_objects(n, m) == reference_sketches(n, m)
    assert chunk_lines(partition_chunks(n, m)) == reference_partition_lines(n, m)


# Every size with n (m+1) <= 14 that the guard admits, and n = 0.
REFERENCE_SIZES = [
    (n, m) for n in range(7) for m in range(1, 14) if n * (m + 1) <= 14 and (n or m <= 3)
]


class TestReference:
    """The array enumeration against the tuple side table it replaced."""

    @settings(max_examples=12)
    @given(st.sampled_from(REFERENCE_SIZES))
    def test_random_size(self, size):
        assert_matches_reference(*size)

    # n = 0; 3- and 4-character letters in one line; a full partition line
    @pytest.mark.parametrize("n,m", [(0, 1), (0, 1000), (1, 12), (2, 11), (3, 3)])
    def test_fixed_size(self, n, m):
        assert_matches_reference(n, m)

    @pytest.mark.parametrize("kind", ["sketches", "partitions"])
    @pytest.mark.parametrize("n,m", [(0, 2), (1, 12), (2, 11), (3, 1)])
    def test_cli_forms(self, kind, n, m):
        if kind == "sketches":
            lines = reference_lines(n, m, "{0[0]}^{0[1]}".format, "0")
        else:
            lines = reference_partition_lines(n, m)
        expected = {
            "table": "".join(f"{line}\n" for line in lines),
            "csv": "index,item\n" + "".join(f'{i},"{line}"\n' for i, line in enumerate(lines)),
            "json": json.dumps(lines, sort_keys=True) + "\n",
        }
        for output, text in expected.items():
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli.run(["enumerate", kind, str(n), str(m), "--output", output]) == 0
            assert out.getvalue() == text, output

    def test_six_one(self):
        lines = reference_lines(6, 1, "{0[0]}^{0[1]}".format, "0")
        assert chunk_lines(sketch_chunks(6, 1)) == lines
        assert_chunked(sketch_chunks(6, 1), lines, 13)  # 123 chunks


def assert_chunked(chunks, lines, width):
    """``chunks`` are ``lines`` in chunks of ``CHUNK_WORDS // width`` lines
    (at least one), the last holding the rest: each its lines joined by
    newlines, none ending in one."""
    per_chunk = max(1, arrangements.CHUNK_WORDS // width)
    chunks = list(chunks)
    sizes = [chunk.count("\n") + 1 for chunk in chunks]
    assert not any(chunk.endswith("\n") for chunk in chunks)
    assert len(chunks) == -(-len(lines) // per_chunk)
    assert sizes[:-1] == [per_chunk] * (len(chunks) - 1)
    assert sizes[-1] == len(lines) - per_chunk * (len(chunks) - 1)
    assert "\n".join(chunks) == "\n".join(lines)


class TestChunks:
    """Enumerations print a chunk of lines at a time, one str each."""

    def test_partitions_five_four(self):
        lines = reference_partition_lines(5, 4)
        assert_chunked(partition_chunks(5, 4), lines, 26)  # 570 chunks

    # 84 lines of 7 tokens in chunks of 83 and 1, 42 and 42, and 1 each; the
    # side table is coded as many rows at a time
    @pytest.mark.parametrize("tokens", [83 * 7, 42 * 7 + 6, 1])
    @pytest.mark.parametrize("kind", ["sketches", "partitions"])
    def test_chunk_edges(self, monkeypatch, tokens, kind):
        monkeypatch.setattr(arrangements, "CHUNK_WORDS", tokens)
        if kind == "sketches":
            chunks, lines = sketch_chunks(3, 1), reference_lines(3, 1, "{0[0]}^{0[1]}".format, "0")
        else:
            chunks, lines = partition_chunks(3, 1), reference_partition_lines(3, 1)
        assert_chunked(chunks, lines, 7)


class TestSideTable:
    @pytest.mark.parametrize("n,m", [(5, 2), (6, 1)])
    def test_each_word_held_once(self, traced_peak, n, m):
        """The table's peak is under 3.5 word tables; with a left and a right
        row per word and a sorted copy of the left rows it traced 4.8-5.0."""
        (words, *_), peak = traced_peak(side_table, n, m)
        assert peak < 3.5 * len(words) * (n * (m + 1) + 1) * 4

    @pytest.mark.parametrize("n,m", [(6, 1), (4, 10)])
    def test_one_size_of_words_at_a_time(self, traced_peak, n, m):
        """Each size's words are built, sorted and coded in place, one size
        at a time: the peak is the table and the largest size's words, 2.0
        to 2.2 tables traced; with every size's words kept and a coded copy
        it traced 2.8-3.0."""
        (words, *_), peak = traced_peak(side_table, n, m)
        assert peak < 2.5 * words.nbytes


class TestParsing:
    def test_round_trip(self):
        s = Sketch.parse(LONG_WORD)
        assert s.to_text() == LONG_WORD
        assert s.n == 5 and s.m == 2

    def test_long_sketch_text(self):
        text = Sketch((), tuple((1, k) for k in range(100001))).to_text()
        assert text == " ".join(["0"] + [f"1^{k}" for k in range(100001)])

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            Sketch.parse("1^0 1^1")  # no zero
        with pytest.raises(ValueError):
            Sketch.parse("0 0 1^0")
        with pytest.raises(ValueError):
            Sketch.parse("0 banana")


class TestValidity:
    def test_long_word_is_valid(self):
        assert is_valid_sketch(Sketch.parse(LONG_WORD))

    def test_reversed_exponent_pair_invalid(self):
        assert not is_valid_sketch(Sketch.parse("0 1^1 1^0"))

    def test_unreversed_left_side_invalid(self):
        assert not is_valid_sketch(Sketch.parse("1^0 1^1 0"))

    def test_missing_letter_invalid(self):
        assert not is_valid_sketch(Sketch.parse("0 1^0 1^1 2^0"))

    def test_split_subscript_invalid(self):
        assert not is_valid_sketch(Sketch.parse("1^1 0 1^0 2^0 2^1"))

    def test_interleaving_condition(self):
        # (1,0) before (2,0) forces (1,1) before (2,1)
        assert not is_valid_sketch(Sketch.parse("0 1^0 2^0 2^1 1^1"))
        assert is_valid_sketch(Sketch.parse("0 1^0 2^0 1^1 2^1"))

    def test_all_enumerated_are_valid(self):
        for s in sketch_objects(2, 2):
            assert is_valid_sketch(s)
            assert is_valid_by_reference(s, 2)


class TestIsOrderly:
    """``is_orderly``, one walk with the pending queue, against the
    definition in ``_is_orderly`` and the skeleton's completion in
    ``_is_orderly_by_completion``."""

    # Every size <= 3 with (m+1) size <= 9, and the empty word.
    @pytest.mark.parametrize(
        "size,m", [(0, 1)] + [(s, m) for s in range(1, 4) for m in range(1, 9) if (m + 1) * s <= 9]
    )
    def test_every_arrangement_of_the_letters(self, size, m):
        letters = [(i, k) for i in range(1, size + 1) for k in range(m + 1)]
        orderly = 0
        for word in itertools.permutations(letters):
            verdict = is_orderly(word, m)
            assert verdict == _is_orderly(word, m) == _is_orderly_by_completion(word, m), word
            orderly += verdict
        assert orderly == math.factorial(size) * raney(size, m, 1)

    @pytest.mark.parametrize("n,m", [(4, 1), (4, 2), (3, 3), (5, 1), (2, 6), (3, 4)])
    def test_orderly_words_and_their_adjacent_swaps(self, n, m):
        letters = [(i, k) for i in range(1, n + 1) for k in range(m + 1)]
        words = [tuple(map(letters.__getitem__, code)) for code in _sorted_words(n, m)]
        assert all(map(_is_orderly, words, itertools.repeat(m)))
        for word in words:
            assert is_orderly(word, m)
            for p in range(len(word) - 1):
                swapped = word[:p] + (word[p + 1], word[p]) + word[p + 2:]
                verdict = is_orderly(swapped, m)
                assert verdict == _is_orderly(swapped, m), swapped
                assert verdict == _is_orderly_by_completion(swapped, m), swapped

    def test_words_with_repeated_letters(self):
        letters = [(i, k) for i in (1, 2) for k in range(3)]
        for length in range(5):
            for word in itertools.product(letters, repeat=length):
                for m in (1, 2):
                    verdict = is_orderly(word, m)
                    assert verdict == _is_orderly(word, m), (word, m)
                    assert verdict == _is_orderly_by_completion(word, m), (word, m)


class TestEnumeration:
    def test_single_coordinate(self):
        sketches = sketch_objects(1, 1)
        assert [s.to_text() for s in sketches] == ["0 1^0 1^1", "1^1 1^0 0"]

    def test_n2_m1_complete_list(self):
        assert {s.to_text() for s in sketch_objects(2, 1)} == ALL_21_SKETCHES

    @pytest.mark.parametrize(
        "n,m",
        [
            (1, 1), (1, 2), (1, 3), (1, 9),
            (2, 1), (2, 2), (2, 3), (2, 4),
            (3, 1), (3, 2), (4, 1), (5, 1),
        ],
    )
    def test_counts_match_raney(self, n, m):
        sketches = sketch_objects(n, m)
        assert len(sketches) == math.factorial(n) * raney(n, m, 2)
        assert len(set(sketches)) == len(sketches)

    def test_sorted_output(self):
        sketches = sketch_objects(2, 2)
        keys = [s.sort_key() for s in sketches]
        assert keys == sorted(keys)

    def test_guard(self):
        with pytest.raises(SizeGuard):
            sketch_chunks(7, 1)
        # (m+1) n = 14, past the old rule, is within the budgets
        assert chunk_lines(sketch_chunks(1, 6))

    def test_guard_grid(self):
        """The budgets admit every size the old (m+1) n <= 12 rule did, and
        refuse the first sizes past 2.5 * 10^7 letters."""
        for n in range(13):
            for m in range(1, 13):
                if (m + 1) * n <= 12:
                    _check_guard(n, m)
        for n, m in [(7, 1), (6, 2), (5, 5)]:
            with pytest.raises(SizeGuard, match="memory budget"):
                _check_guard(n, m)

    # At n = 1 the alphabet's n (m+1) letters, 24 entries each, weigh as
    # much as the 2 (m+2) printed ones: 8 (m + 2) + 24 (m + 1) <= 10^8.
    @pytest.mark.parametrize("n,m", [(1, 3124998), (2, 1765), (3, 76)])
    def test_largest_admitted_m(self, n, m):
        _check_guard(n, m)
        with pytest.raises(SizeGuard, match="memory budget"):
            _check_guard(n, m + 1)

    @pytest.mark.parametrize("n,m", STREAM_SIZES)
    def test_text_stream_matches_objects(self, n, m):
        expected = reference_lines(n, m, "{0[0]}^{0[1]}".format, "0")
        assert chunk_lines(sketch_chunks(n, m)) == expected

    def test_text_stream_guards_when_built(self):
        with pytest.raises(SizeGuard):
            sketch_chunks(7, 1)
        with pytest.raises(ValueError, match="need n >= 0"):
            sketch_chunks(-1, 1)

    # Sizes at or past the old (m+1) n <= 12 rule, with exponents up to 11.
    @pytest.mark.parametrize("n,m", [(1, 11), (2, 6), (3, 3), (3, 4)])
    def test_order_past_the_old_rule(self, n, m):
        sketches = sketch_objects(n, m)
        assert len(sketches) == len(set(sketches)) == regions_A_closed(n, m)
        assert all(is_valid_sketch(s) for s in sketches)
        assert all(is_valid_by_reference(s, m) for s in sketches)
        keys = [s.sort_key() for s in sketches]
        assert keys == sorted(keys)


class TestWitness:
    def test_trivial_positive(self):
        point = witness_point(Sketch.parse("0 1^0 1^1"))
        assert point[0].sign == 1

    def test_mixed_signs(self):
        point = witness_point(Sketch.parse("1^1 1^0 0 2^0 2^1"))
        assert point[0].sign == -1 and point[1].sign == 1

    def test_long_word_round_trip(self):
        s = Sketch.parse(LONG_WORD)
        assert point_to_sketch(witness_point(s), 2) == s

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_exhaustive_round_trip(self, n, m):
        for s in sketch_objects(n, m):
            assert point_to_sketch(witness_point(s), m) == s

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1)])
    def test_witnesses_avoid_all_hyperplanes(self, n, m):
        planes = hyperplanes_of(ArrangementSpec.preset(f"A:{n},{m}")).tolist()
        for s in sketch_objects(n, m):
            point = witness_point(s)
            for h in planes:
                assert hyperplane_side(point, h) != 0

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2)])
    def test_distinct_sketches_separated(self, n, m):
        planes = hyperplanes_of(ArrangementSpec.preset(f"A:{n},{m}")).tolist()
        sketches = sketch_objects(n, m)
        signatures = set()
        for s in sketches:
            point = witness_point(s)
            signatures.add(tuple(hyperplane_side(point, h) for h in planes))
        assert len(signatures) == len(sketches)

    def test_witness_json_pinned(self):
        """sha256 of the witness JSON, as ``biject sketch-to-witness`` prints it,
        of every sketch with (m+1)n <= 8 in enumeration order; taken from the
        solver that relaxed on Fraction weights."""
        digest = hashlib.sha256()
        for n in range(1, 5):
            for m in range(1, 8 // n):
                for s in sketch_objects(n, m):
                    line = json.dumps([lp.to_json_dict() for lp in witness_point(s)]) + "\n"
                    digest.update(line.encode())
        assert digest.hexdigest() == (
            "66ba8b725b4bdc4e1b581877dd429f7daac2bd2e97f43e17705c54b1e1f5b7e7"
        )


def all_pairs_solve_side(word, scale):
    """Reference: ``_solve_side`` with one constraint for every pair of
    letters of different subscripts, not only consecutive ones."""
    variables = sorted({i for i, _ in word})
    if not variables:
        return {}
    edges = []
    for a in range(len(word)):
        i, k = word[a]
        for b in range(a + 1, len(word)):
            j, l = word[b]
            if i == j:
                continue
            # constraint X_i - X_j <= (l - k) - 1/scale, i.e. relax j -> i
            edges.append((j, i, (l - k) * scale - 1))
    return bellman_ford(variables, edges, scale)


def forward_solve_side(word, scale):
    """Reference: ``_solve_side`` relaxing its edges in word order, so that
    each pass moves a bound back by one letter only."""
    variables = sorted({i for i, _ in word})
    if not variables:
        return {}
    edges = [(j, i, (l - k) * scale - 1) for (i, k), (j, l) in zip(word, word[1:]) if i != j]
    return bellman_ford(variables, edges, scale)


def bellman_ford(variables, edges, scale):
    """The distances from an implicit source at distance 0, ``edges`` relaxed
    in the order given, as exponents in units of 1/``scale``."""
    dist = dict.fromkeys(variables, 0)
    for _ in range(len(variables) - 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    for u, v, w in edges:
        if dist[u] + w < dist[v]:
            raise InfeasibleSystem("negative cycle in difference constraints")
    return {v: Fraction(d, scale) for v, d in dist.items()}


@st.composite
def orderly_sides(draw, max_size=60):
    """(m, an orderly side on the subscripts 1..size, size up to ``max_size``):
    the completion of a random step sequence, its up-steps labelled by a
    random permutation."""
    m = draw(st.integers(1, 3))
    size = draw(st.integers(1, max_size))
    labels = draw(st.permutations(range(1, size + 1)))
    steps, ups, height = [], size, 0
    while ups or height:
        up = ups > 0 and (height == 0 or draw(st.booleans()))
        steps.append(UP if up else DOWN)
        ups, height = (ups - 1, height + m) if up else (ups, height - 1)
    return m, tuple(complete_word(steps, labels, m))


# Distinct numerators, over a denominator larger than any two differ by: no
# two exponents differ by an integer, so no two values 2^k x_i tie and every
# point has a sketch.
DENOMINATOR = 10**6 + 3
RANDOM_POINTS = st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(
            st.tuples(st.sampled_from([-1, 1]), st.integers(0, 10**6)),
            min_size=1, max_size=12, unique_by=lambda coordinate: coordinate[1],
        ),
    )
)


class TestSolveSide:
    @settings(max_examples=150)
    @given(RANDOM_POINTS)
    def test_consecutive_letters_match_all_pairs(self, drawn):
        m, coordinates = drawn
        point = tuple(LogPoint(sign, Fraction(num, DENOMINATOR)) for sign, num in coordinates)
        sketch = point_to_sketch(point, m)
        scale = sketch.n + 1
        for word in (sketch.w2, sketch.w1[::-1]):
            assert _solve_side(word, scale) == all_pairs_solve_side(word, scale)
        assert point_to_sketch(witness_point(sketch), m) == sketch

    @settings(max_examples=100, deadline=None)
    @given(orderly_sides())
    def test_reverse_order_matches_word_order(self, drawn):
        m, word = drawn
        assert is_orderly(word, m)
        scale = len(word) // (m + 1) + 1
        assert _solve_side(word, scale) == forward_solve_side(word, scale)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("size", [50, 200])
    @pytest.mark.parametrize("family", ["increasing", "decreasing", "blocked"])
    def test_families_match_word_order(self, family, size, m):
        labels = range(size, 0, -1) if family == "decreasing" else range(1, size + 1)
        if family == "blocked":  # each label's letters together
            steps = ([UP] + [DOWN] * m) * size
        else:  # every (i, 0) first, then the rest in queue order
            steps = [UP] * size + [DOWN] * (size * m)
        word = tuple(complete_word(steps, labels, m))
        assert is_orderly(word, m)
        assert _solve_side(word, size + 1) == forward_solve_side(word, size + 1)


def fraction_point_to_sketch(point, m):
    """Reference: ``point_to_sketch`` sorting and comparing the Fraction
    exponents themselves, as it did before integer keys."""
    negatives, positives = [], []
    for idx, lp in enumerate(point, start=1):
        if lp.sign == 0:
            raise OnHyperplane(f"coordinate {idx} is zero")
        for k in range(m + 1):
            entry = (lp.exp + k, (idx, k))
            (positives if lp.sign > 0 else negatives).append(entry)
    negatives.sort(key=lambda e: (-e[0], e[1]))
    positives.sort(key=lambda e: (e[0], e[1]))
    for group in (negatives, positives):
        for a, b in zip(group, group[1:]):
            if a[0] == b[0]:
                raise OnHyperplane(f"symbols {a[1]} and {b[1]} compare equal at this point")
    return Sketch(tuple(l for _, l in negatives), tuple(l for _, l in positives))


def sketch_or_error(to_sketch, point, m):
    try:
        return to_sketch(point, m)
    except OnHyperplane as exc:
        return f"OnHyperplane: {exc}"


# Small numerators and denominators, so that many points tie (2^k x_i =
# 2^l x_j) and a few have a zero coordinate: about half lie on a hyperplane.
TYING_POINTS = st.tuples(
    st.integers(1, 3),
    st.lists(
        st.builds(
            LogPoint,
            st.sampled_from([-1, 1] * 6 + [0]),
            st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)),
        ),
        min_size=1, max_size=6,
    ),
)


class TestPointToSketch:
    @settings(max_examples=400)
    @given(TYING_POINTS)
    def test_integer_keys_match_fractions(self, drawn):
        m, point = drawn
        expected = sketch_or_error(fraction_point_to_sketch, point, m)
        assert sketch_or_error(point_to_sketch, point, m) == expected

    def test_positive_unit(self):
        point = (LogPoint(1, Fraction(0)),)
        assert point_to_sketch(point, 1).to_text() == "0 1^0 1^1"

    def test_negative_positive_pair(self):
        point = (LogPoint(-1, Fraction(0)), LogPoint(1, Fraction(0)))
        assert point_to_sketch(point, 1).to_text() == "1^1 1^0 0 2^0 2^1"

    def test_zero_coordinate_rejected(self):
        with pytest.raises(OnHyperplane):
            point_to_sketch((LogPoint(0, Fraction(0)),), 1)

    def test_tie_rejected(self):
        # x1 = 2 x2 exactly
        point = (LogPoint(1, Fraction(1)), LogPoint(1, Fraction(0)))
        with pytest.raises(OnHyperplane):
            point_to_sketch(point, 1)


def hyperplane_side(point, h):
    """Reference: the exact sign of x_i - 2^k x_j for the row (i, j, k) of
    :func:`hyperplanes_of`, at a point of ``LogPoint`` coordinates; for the
    coordinate row (i, i, 1) that is the sign of x_i - 2 x_i = -x_i."""
    i, j, k = h
    a, b = point[i], point[j]
    if a.sign == 0 and b.sign == 0:
        return 0
    if a.sign != b.sign:
        return 1 if a.sign > b.sign else -1
    left = a.exp
    right = k + b.exp
    if left == right:
        return 0
    magnitude = 1 if left > right else -1
    return magnitude if a.sign > 0 else -magnitude


class TestHyperplaneSide:
    def test_exponent_comparison(self):
        point = (LogPoint(1, Fraction(0)), LogPoint(1, Fraction(2)))
        assert hyperplane_side(point, (0, 1, 1)) == -1

    def test_sign_dominates(self):
        point = (LogPoint(-1, Fraction(1)), LogPoint(1, Fraction(0)))
        assert hyperplane_side(point, (0, 1, 0)) == -1

    def test_rational_exponents(self):
        point = (LogPoint(1, Fraction(1, 2)), LogPoint(1, Fraction(0)))
        assert hyperplane_side(point, (0, 1, 1)) == -1

    def test_coordinate_plane(self):
        # x1 = -2^3, so x1 - 2 x1 = 2^3 > 0
        point = (LogPoint(-1, Fraction(3)),)
        assert hyperplane_side(point, (0, 0, 1)) == 1

    def test_on_plane_gives_zero(self):
        point = (LogPoint(1, Fraction(3)), LogPoint(1, Fraction(1)))
        assert hyperplane_side(point, (0, 1, 2)) == 0


REGION_FORMULAS = {
    "A": regions_A_closed,
    "B": regions_B_closed,
    "Gamma": regions_Gamma_closed,
    "Delta": regions_Delta_closed,
}


class TestRegionsByProjection:
    """The distinct sign vectors of the sketches of A_n^(M) on a
    sub-arrangement's planes, against the closed formulas and Zaslavsky."""

    @pytest.mark.parametrize(
        "n,m", [(n, m) for n in range(1, 5) for m in range(1, 4)] + [(5, 1), (5, 2), (6, 1)]
    )
    def test_closed_formulas(self, n, m):
        for family, closed in REGION_FORMULAS.items():
            spec = ArrangementSpec.preset(f"{family}:{n},{m}")
            assert regions_by_projection(spec) == closed(n, m), family

    @given(sparse_specs())
    def test_random_sparse_specs(self, spec):
        assert regions_by_projection(spec) == zaslavsky(charpoly_ff(spec), spec.n)

    @given(sparse_specs(), st.data())
    def test_one_sign_rule(self, spec, data):
        """On every row (i, j, k) of ``hyperplanes_of``, the coordinate row
        (i, i, 1) among them, letter i^0 precedes j^k in the point's sketch
        exactly when x_i < 2^k x_j: the rule the projection reads."""
        # No two exponents differ by an integer, so no two values 2^k x_i tie.
        exponent = st.builds(Fraction, st.integers(-20, 20), st.just(7))
        coordinate = st.builds(LogPoint, st.sampled_from([-1, 1]), exponent)
        point = data.draw(st.lists(
            coordinate, min_size=spec.n, max_size=spec.n, unique_by=lambda x: x.exp % 1,
        ))
        sketch = point_to_sketch(point, max(spec.m_max, 1))
        word = sketch.w1 + ((0, 0),) + sketch.w2
        position = {letter: at for at, letter in enumerate(word)}
        for i, j, k in hyperplanes_of(spec).tolist():
            below = hyperplane_side(point, (i, j, k)) < 0
            assert (position[(i + 1, 0)] < position[(j + 1, k)]) == below, (i, j, k)

    def test_no_planes(self):
        assert regions_by_projection(ArrangementSpec(3, MULTIPLICATIVE)) == 1

    def test_refusals(self):
        with pytest.raises(SizeGuard):
            regions_by_projection(ArrangementSpec.preset("B:7,1"))
        with pytest.raises(ValueError, match="multiplicative"):
            regions_by_projection(ArrangementSpec.preset("C:2,1"))

    def test_guard_before_the_pairs(self, monkeypatch):
        # the guard refuses a preset before its 5 * 10^9 pairs are listed
        def refuse(spec):
            raise AssertionError("listed the pairs of an oversized preset")

        monkeypatch.setattr(ArrangementSpec, "pair_shifts", property(refuse))
        with pytest.raises(SizeGuard):
            regions_by_projection(ArrangementSpec.preset("B:100000,1"))

    def test_peak_within_the_guard(self, traced_peak):
        # chunked; unchunked, the sign rows of every sketch peaked at 5.8
        # int64 entries per printed letter
        _, lines, width = _sketch_rows(6, 1)
        count, peak = traced_peak(regions_by_projection, ArrangementSpec.preset("B:6,1"))
        assert count == regions_B_closed(6, 1)
        assert peak < LETTER_ENTRIES * 8 * lines * width
