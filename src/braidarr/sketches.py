"""Sketches: the words that encode regions of the multiplicative arrangement.

A sketch ``w1 0 w2`` records the total order of 0 and all values ``2^k x_i``
(k in [0, m]) on some point with no coordinate zero: w1 lists the negative
values in increasing order, w2 the positive ones.  Witness construction goes
the other way, producing an exact point (signs plus rational exponents of 2)
realizing a given sketch.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .arrangements import MULTIPLICATIVE, WORK_BUDGET, ArrangementSpec
from .arrangements import check_budgets, hyperplanes_of
from .dyckwords import Letter, complete_word, is_orderly, step_sequences
from .numbers import raney

# int64 entries at an enumeration's peak per printed letter and per letter
# (i, k) of the alphabet.  Sketches and partitions from the side table of
# words traced (peak tracemalloc / ru_maxrss less the interpreter) 0.5 / 0.5
# per printed letter at (6, 1) and (5, 4) in table form (0.6-0.7 / 0.7 with
# every size's words kept); in json sketches 2.1 / 2.3 and 1.8 / 1.8,
# partitions 1.4 / 1.5 and 1.1 / 1.1; and at (1, 3124998), where the alphabet
# is half the printed letters, 7.2 / 7.2 and 3.1 / 3.1 per (i, k).  Paths
# from their own table trace 0.1 / 0.2 and 0.03 / 0.05, 1.5 / 1.6 and 1.1 /
# 1.2 in json, and 2.8 / 3.3 per (i, k).
# The region projection traces 0.6-0.74 / 0.72-0.87 at (6, 1), (5, 4), (4, 10).
LETTER_ENTRIES = 4
ALPHABET_ENTRIES = 24

CHUNK_TOKENS = 1 << 18  # letters rendered or projected at a time


@functools.lru_cache(maxsize=1024)  # bounded: a long sketch has many letters
def _letter_text(letter: Letter) -> str:
    return f"{letter[0]}^{letter[1]}"


class OnHyperplane(ValueError):
    """The point lies on a hyperplane, so it determines no region."""


class InfeasibleSystem(ValueError):
    """Difference constraints admit no solution; the sketch was invalid."""


@dataclass(frozen=True, slots=True)
class Sketch:
    """Word ``w1 0 w2`` over letters (subscript, exponent)."""

    w1: tuple[Letter, ...]
    w2: tuple[Letter, ...]

    @property
    def letters(self) -> tuple[Letter, ...]:
        return self.w1 + self.w2

    @property
    def n(self) -> int:
        return max((i for i, _ in self.letters), default=0)

    @property
    def m(self) -> int:
        return max((k for _, k in self.letters), default=0)

    def rise(self, m: int | None = None) -> int:
        """The sketch's m.  ``m`` is required for the empty sketch, whose m
        cannot be read off its letters, and must agree with any other's."""
        if not (self.w1 or self.w2):
            if m is None:
                raise ValueError("cannot infer m from the empty sketch; pass it explicitly")
            if m < 1:
                raise ValueError(f"m must be positive, got {m}")
            return m
        if m is not None and m != self.m:
            raise ValueError(f"m={m} disagrees with the sketch's m={self.m}")
        return self.m

    def sort_key(self) -> tuple[Letter, ...]:
        # (0, 0) marks the zero letter; real letters have subscript >= 1.
        return self.w1 + ((0, 0),) + self.w2

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        return " ".join([*map(_letter_text, self.w1), "0", *map(_letter_text, self.w2)])

    @classmethod
    def parse(cls, text: str) -> "Sketch":
        """Parse the ``i^k`` / ``0`` space-separated format."""
        w1: list[Letter] = []
        w2: list[Letter] = []
        current = w1
        seen_zero = False
        for token in text.split():
            if token == "0":
                if seen_zero:
                    raise ValueError("more than one zero letter")
                seen_zero = True
                current = w2
                continue
            try:
                i_text, k_text = token.split("^")
                current.append((int(i_text), int(k_text)))
            except ValueError:
                raise ValueError(f"bad sketch letter {token!r}") from None
        if not seen_zero:
            raise ValueError("sketch has no zero letter")
        return cls(tuple(w1), tuple(w2))


@dataclass(frozen=True)
class LogPoint:
    """One coordinate ``sign * 2^exp`` with an exact rational exponent."""

    sign: int
    exp: Fraction

    def to_json_dict(self) -> dict:
        return {"sign": self.sign, "exp": str(self.exp)}


def is_valid_sketch(sketch: Sketch) -> bool:
    """Check the defining conditions of a sketch.

    With n and m the largest subscript and exponent, every letter (i, k), i in
    [n] and k in [0, m], must appear once, all letters of a subscript on one
    side of the zero; w2 and the reverse of w1 must both be orderly (exponents
    of one subscript increase, and earlier letters keep their lead after
    adding 1 to exponents).  A nonempty sketch needs m >= 1.
    """
    letters = sketch.letters
    if len(set(letters)) != len(letters):
        return False
    n, m = sketch.n, sketch.m
    if n == 0 or m < 1:  # n = 0 only for the empty sketch, m >= 1 for any other
        return n == 0 and not letters
    subs1 = {i for i, _ in sketch.w1}
    subs2 = {i for i, _ in sketch.w2}
    if subs1 & subs2:
        return False
    if subs1 | subs2 != set(range(1, n + 1)):
        return False
    # Each orderly side holds exactly the letters (i, 0..m) of its subscripts.
    return is_orderly(sketch.w2, m) and is_orderly(sketch.w1[::-1], m)


def text_chunks(n: int, m: int, zero: str, exponents: bool = True) -> Iterator[str]:
    """The sketches of size (n, m) as text, in ``Sketch.sort_key`` order:
    letters as ``i^k`` (``i`` without ``exponents``), ``zero`` between the
    sides, rendered from the side table in the chunks of :func:`render_chunks`."""
    rows, lines, width = _sketch_rows(n, m)
    code = np.arange(n * (m + 1), dtype=np.int32)
    letters = _digits(code // (m + 1) + 1)
    if exponents:
        letters = np.hstack([letters, _digits(code % (m + 1), "^")])
    return render_chunks([zero, letters], rows, lines, width)


def regions_by_projection(spec: ArrangementSpec) -> int:
    """The regions of a multiplicative ``spec``, counted as the distinct sign
    vectors on its planes of the sketches of A_n^(M), M = max(``spec.m_max``,
    1): each region of A_n^(M) lies in exactly one region of the spec's.

    A sketch lists the values 2^k x_i in increasing order, so x_i > 0 when
    letter (i, 0) follows the zero letter, and x_i < 2^k x_j when (i, 0)
    precedes (j, k): a plane's sign is whether its ``low`` token precedes its
    ``high`` one.  Rows are read ``CHUNK_TOKENS`` letters at a time, each
    chunk's signs packed to bits; one ``np.unique`` counts the packed rows."""
    if spec.flavor != MULTIPLICATIVE:
        raise ValueError("regions by projection need a multiplicative arrangement")
    if not (spec.planes or spec.include_coordinate_hyperplanes):
        return 1
    m = max(spec.m_max, 1)
    rows, lines, width = _sketch_rows(spec.n, m)
    planes = hyperplanes_of(spec)
    low, high = np.array([(0, (h.i - 1) * (m + 1) + 1) if h.kind == "coord" else
                          ((h.i - 1) * (m + 1) + 1, (h.j - 1) * (m + 1) + h.k + 1)
                          for h in planes]).T
    per_chunk = max(1, CHUNK_TOKENS // width)
    packed = []
    for start in range(0, lines, per_chunk):
        line = rows(np.arange(start, min(start + per_chunk, lines)))
        position = np.empty(line.shape, np.int32)
        np.put_along_axis(position, line, np.arange(width, dtype=np.int32), axis=1)
        packed.append(np.packbits(position.take(low, 1) < position.take(high, 1), axis=1))
    signs = np.concatenate(packed)
    return len(np.unique(signs.view(np.dtype((np.void, signs.shape[1]))).ravel()))


def render_chunks(tokens: Sequence[str | np.ndarray], rows: Callable[[np.ndarray], np.ndarray],
                  lines: int, width: int) -> Iterator[str]:
    """Lines 0 to ``lines - 1``, rendered when read, as one str per chunk of
    ``CHUNK_TOKENS // width`` lines (at least one, the last the rest), joined
    by newlines with none at the end.  ``rows`` maps line numbers to their
    codes, ``width`` a line; code t is the t-th token (a str is one, an array
    one per uint8 row, NULs dropped) and a space.  Lines must be equally long.
    A chunk is gathered from one byte table and decoded once."""
    cells = byte_cells(tokens, " ")
    per_chunk = max(1, CHUNK_TOKENS // width)

    def chunks() -> Iterator[str]:
        for start in range(0, lines, per_chunk):
            line = np.arange(start, min(start + per_chunk, lines))
            text = cells[rows(line)].view(np.uint8)
            text = text[text != 0]
            line_bytes = text.size // line.size
            text[line_bytes - 1::line_bytes] = ord("\n")
            yield str(text[:-1].data, "ascii")

    return chunks()


def sketch_chunks(n: int, m: int) -> Iterator[str]:
    """``s.to_text()`` of each sketch s of size (n, m), in ``Sketch.sort_key``
    order, in chunks."""
    return text_chunks(n, m, "0")


def _sketch_rows(n: int, m: int) -> tuple[Callable[[np.ndarray], np.ndarray], int, int]:
    """The sketches of :func:`_side_table` as ``(rows, lines, width)``: ``rows``
    maps line numbers (0 to ``lines - 1``, in ``Sketch.sort_key`` order) to
    their rows of ``width`` tokens, left row and reversed right row added."""
    words, order, first, count = _side_table(n, m)
    ends = np.cumsum(count)
    shift = first - ends + count  # line l of left row j takes right row shift[j] + l

    def rows(line: np.ndarray) -> np.ndarray:
        left = np.searchsorted(ends, line, side="right")
        return words[order[left]] + words[shift[left] + line, ::-1]

    return rows, int(ends[-1]), words.shape[1]


def _side_table(n: int, m: int) -> tuple[np.ndarray, ...]:
    """The sketches of size (n, m) in ``Sketch.sort_key`` order, after the
    guard, as arrays ``(words, order, first, count)``: left row ``order[j]``
    with each right row from ``first[j]`` to ``first[j] + count[j] - 1``.

    Letter (i, k) is token ``(i - 1) * (m + 1) + k + 1``.  A row of n (m+1) +
    1 tokens is a reversed orderly word on a subset of [n], then 0s, the zero
    letter: a left row, and read backwards a right row, so a sketch is a row
    and a reversed row added.  0 sorts first, as the zero letter does in the
    key; right words keep the order of ``_sorted_words``, which coding onto a
    subset keeps.  Rows are big-endian int32, so that ``_row_order`` sorts
    long rows by their bytes without a copy."""
    _check_guard(n, m)
    width = m + 1
    # the orderly words on k letters, one per region of C:k,m
    lengths = [math.factorial(k) * raney(k, m, 1) for k in range(n + 1)]
    subsets = [s for size in range(n + 1) for s in itertools.combinations(range(n), size)]
    sizes = np.array([lengths[len(s)] for s in subsets])
    offsets = dict(zip(subsets, (np.cumsum(sizes) - sizes).tolist()))
    words = np.zeros((sizes.sum(), n * width + 1), ">i4")
    first, count = np.empty((2, len(words)), np.int32)
    for size in range(n + 1):  # one size's words alive at a time
        sorted_words = _sorted_words(size, m)[:, ::-1]
        place = np.arange(size * width, dtype=np.int32)
        step = max(1, CHUNK_TOKENS // max(1, place.size))  # coded a chunk at a time, no copy
        for subset in itertools.combinations(range(n), size):
            code = np.array(subset, np.int32)[place // width] * width + place % width + 1
            rows = slice(offsets[subset], offsets[subset] + lengths[size])
            for row in range(0, lengths[size], step):
                words[rows, :place.size][row:row + step] = code[sorted_words[row:row + step]]
            first[rows] = offsets[tuple(sorted(set(range(n)) - set(subset)))]
            count[rows] = lengths[n - size]
    del sorted_words  # the largest size's words, not held while the rows are ordered
    order = _row_order(words, n * width)
    return words, order, first[order], count[order]


def _sorted_words(size: int, m: int) -> np.ndarray:
    """The sorted orderly words on {0, ..., size-1}, one big-endian int32 row
    each, letter (p, k) coded as ``p * (m + 1) + k``: each step sequence's
    ``complete_word`` on ``range(size)``, relabelled by every permutation in
    place and sorted in place: by one packed key a row (:func:`_row_keys`)
    where those fit, the sorted keys written back as rows, otherwise by the
    rows' bytes, so no copy of the words is made.  The one word on at most
    one letter is built without walking it."""
    width = m + 1
    if size < 2:
        return np.arange(size * width, dtype=">i4")[None]
    steps = list(step_sequences(size, m))
    codes = (p * width + k for s in steps for p, k in complete_word(s, range(size), m))
    templates = np.fromiter(codes, np.int32, len(steps) * size * width).reshape(len(steps), -1)
    labels = np.array(list(itertools.permutations(range(size))), ">i4")
    words = np.take(labels, templates // width, axis=1)  # C-ordered, so reshaped in place
    words *= width
    words += templates % width
    words = words.reshape(len(labels) * len(steps), -1)
    keys = _row_keys(words, size * width - 1)
    if keys is None:
        words.view(np.dtype((np.void, words.shape[1] * 4))).sort(axis=0)
        return words
    keys.sort()
    bits = (size * width - 1).bit_length()
    for column in reversed(range(words.shape[1])):  # each row read back off its key
        words[:, column] = keys & ((1 << bits) - 1)
        keys >>= bits
    return words


def _row_order(rows: np.ndarray, top: int) -> np.ndarray:
    """The lexicographic order of distinct big-endian int32 rows of tokens in
    [0, ``top``]: an argsort of their :func:`_row_keys` where those fit,
    otherwise of the rows' bytes."""
    keys = _row_keys(rows, top)
    if keys is None:
        return np.argsort(rows.view(np.dtype((np.void, rows.shape[1] * 4))).ravel())
    return np.argsort(keys)


def _row_keys(rows: np.ndarray, top: int) -> np.ndarray | None:
    """One int64 key per row of tokens in [0, ``top``], its tokens packed a
    column at a time as digits of ``top``'s bit length, so that keys order as
    the rows do; None when a row's tokens need more than 63 bits."""
    bits = top.bit_length()
    if rows.shape[1] * bits > 63:
        return None
    keys = np.zeros(len(rows), np.int64)
    for column in rows.T:
        keys <<= bits
        keys |= column
    return keys


def byte_cells(tokens: Sequence[str | np.ndarray], suffix: str = "") -> np.ndarray:
    """One void cell per token (a str is one, a uint8 array one per row): its
    bytes NUL-padded to the longest token's, then ``suffix``."""
    blocks = [np.uint8([list(t.encode())]) if isinstance(t, str) else t for t in tokens]
    cell = max(block.shape[1] for block in blocks) + len(suffix)
    table = np.vstack([np.pad(block, ((0, 0), (0, cell - block.shape[1]))) for block in blocks])
    table[:, cell - len(suffix) :] = np.frombuffer(suffix.encode(), np.uint8)
    return table.view(np.dtype((np.void, cell))).ravel()


def _digits(values: np.ndarray, prefix: str = "", suffix: str = "") -> np.ndarray:
    """``prefix``, each value's decimal text and ``suffix``, a uint8 row each,
    leading zeros NUL, after a sign column when some value is negative."""
    size = np.abs(values)
    powers = [10**p for p in reversed(range(len(str(size.max(initial=0)))))]
    columns = [np.where(size < (p if p > 1 else 0), 0, size // p % 10 + 48) for p in powers]
    sign = [np.where(values < 0, ord("-"), 0)] if values.min(initial=0) < 0 else []
    ends = [np.tile(np.frombuffer(text.encode(), np.uint8), (len(values), 1)) for text in (prefix, suffix)]
    return np.column_stack([ends[0], *(c.astype(np.uint8) for c in sign + columns), ends[1]])


def witness_point(sketch: Sketch) -> tuple[LogPoint, ...]:
    """An exact point whose induced total order is the given sketch.

    Coordinates named in w2 are positive, those in w1 negative.  Exponents
    come from the difference-constraint system "earlier symbol strictly
    smaller", solved by Bellman-Ford with a uniform slack of 1/(n + 1).
    """
    n, m = sketch.n, sketch.m
    positive = _solve_side(sketch.w2, n + 1)
    negative = _solve_side(tuple(reversed(sketch.w1)), n + 1)
    coords = []
    for i in range(1, n + 1):
        if i in positive:
            coords.append(LogPoint(1, positive[i]))
        elif i in negative:
            coords.append(LogPoint(-1, negative[i]))
        else:
            raise ValueError(f"subscript {i} missing from sketch")
    point = tuple(coords)
    if point_to_sketch(point, m) != sketch:
        raise InfeasibleSystem("witness does not reproduce its sketch")
    return point


def _solve_side(word: Sequence[Letter], scale: int) -> dict[int, Fraction]:
    """Solve X_i + k < X_j + l for consecutive letters of different subscripts.

    Encoded as X_i - X_j <= (l - k) - 1/scale, in integer units of 1/scale,
    and relaxed from an implicit source at distance 0; a negative cycle would
    mean the side ordering is contradictory, which cannot happen for a valid
    sketch.  The constraint of any later pair holds too: the chain between
    them weighs no more, as exponents of one subscript increase.
    """
    variables = sorted({i for i, _ in word})
    if not variables:
        return {}
    # constraint X_i - X_j <= (l - k) - 1/scale, i.e. relax j -> i
    edges = [(j, i, (l - k) * scale - 1) for (i, k), (j, l) in zip(word, word[1:]) if i != j]
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


def point_to_sketch(point: Sequence[LogPoint], m: int) -> Sketch:
    """Total order of 0 and all 2^k x_i at the point, written as a sketch.
    Exponents are compared as integers, times the lcm of their denominators
    and negated on the negative side, which lists the largest first."""
    scale = math.lcm(*(lp.exp.denominator for lp in point))
    sides: tuple[list, list] = ([], [])  # negatives, positives
    for idx, lp in enumerate(point, start=1):
        if lp.sign == 0:
            raise OnHyperplane(f"coordinate {idx} is zero")
        sign = 1 if lp.sign > 0 else -1
        exp = lp.exp.numerator * (scale // lp.exp.denominator)
        sides[sign > 0].extend((sign * (exp + k * scale), (idx, k)) for k in range(m + 1))
    for group in sides:
        group.sort()
        for a, b in zip(group, group[1:]):
            if a[0] == b[0]:
                raise OnHyperplane(
                    f"symbols {a[1]} and {b[1]} compare equal at this point"
                )
    negatives, positives = sides
    return Sketch(
        tuple(letter for _, letter in negatives),
        tuple(letter for _, letter in positives),
    )


def _check_guard(n: int, m: int) -> None:
    """Refuse, by :func:`check_budgets`, a size whose lines (n (m+1) + 1 letters
    per region of A_n^(m), ``LETTER_ENTRIES`` each) and alphabet (n (m+1)
    letters, ``ALPHABET_ENTRIES`` each), at one step a letter, break a budget;
    the regions' product stops past the work budget, so this is quick."""
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    alphabet = n * (m + 1)
    letters = (alphabet + 1) * (2 if n else 1)
    for j in range(n * m + 3, n * m + n + 2):
        if letters > WORK_BUDGET:
            break
        letters *= j
    entries = LETTER_ENTRIES * letters + ALPHABET_ENTRIES * alphabet
    check_budgets(f"enumerating n={n}, m={m}", entries, letters + alphabet, "letters")
