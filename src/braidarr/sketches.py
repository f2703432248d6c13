"""Sketches: the words that encode regions of the multiplicative arrangement.

A sketch ``w1 0 w2`` records the total order of 0 and all values ``2^k x_i``
(k in [0, m]) on some point with no coordinate zero: w1 lists the negative
values in increasing order, w2 the positive ones.  Witness construction goes
the other way, producing an exact point (signs plus rational exponents of 2)
realizing a given sketch.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .arrangements import WORK_BUDGET, Hyperplane, check_budgets
from .dyckwords import Letter, complete_word, step_sequences

# int64 entries at an enumeration's peak per printed letter (traced: 2 to
# 3.3) and per letter (i, k) of the alphabet; at n = 1, where the alphabet is
# half the printed letters, the peak traced 20 to 22 entries per (i, k).
LETTER_ENTRIES = 4
ALPHABET_ENTRIES = 24


class _LetterText(dict):
    """The ``i^k`` text of each letter, formatted once on first use."""

    def __missing__(self, letter: Letter) -> str:
        text = self[letter] = f"{letter[0]}^{letter[1]}"
        return text


_LETTER_TEXT = _LetterText()


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
        text = _LETTER_TEXT.__getitem__
        return " ".join([*map(text, self.w1), "0", *map(text, self.w2)])

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
    adding 1 to exponents).
    """
    letters = sketch.letters
    if len(set(letters)) != len(letters):
        return False
    n, m = sketch.n, sketch.m
    if n == 0:
        return not letters
    subs1 = {i for i, _ in sketch.w1}
    subs2 = {i for i, _ in sketch.w2}
    if subs1 & subs2:
        return False
    if subs1 | subs2 != set(range(1, n + 1)):
        return False
    # Each orderly side holds exactly the letters (i, 0..m) of its subscripts.
    return _is_orderly(sketch.w2, m) and _is_orderly(tuple(reversed(sketch.w1)), m)


def _is_orderly(word: Sequence[Letter], m: int) -> bool:
    """Conditions on one side: exponents per subscript complete and increasing,
    and relative order preserved under the exponent +1 shift."""
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


def enumerate_sketches(n: int, m: int) -> list[Sketch]:
    """All sketches for given n and m, in ``Sketch.sort_key`` order."""
    _check_guard(n, m)
    letters = [(i, k) for i in range(1, n + 1) for k in range(m + 1)]

    def word(code: Sequence[int]) -> tuple[Letter, ...]:
        return tuple(map(letters.__getitem__, code))

    return [Sketch(w1, w2) for w1, rights in _side_table(n, m, word, word) for w2 in rights]


def text_lines(n: int, m: int, label: Callable[[Letter], str], zero: str) -> Iterator[str]:
    """The sketches of ``enumerate_sketches(n, m)`` as text, in that order:
    ``label`` of each letter and ``zero`` between the sides, space-separated.
    The size guard runs at once; each line is made when read, as the text of
    its left word (with the zero) plus the text of a right word."""
    _check_guard(n, m)
    text = [label((i, k)) for i in range(1, n + 1) for k in range(m + 1)].__getitem__
    table = _side_table(n, m, lambda code: " ".join([*map(text, code), zero]),
                        lambda code: " ".join(["", *map(text, code)]))
    return itertools.chain.from_iterable(map(prefix.__add__, texts) for prefix, texts in table)


def sketch_lines(n: int, m: int) -> Iterator[str]:
    """``s.to_text()`` for each sketch s of ``enumerate_sketches(n, m)``."""
    return text_lines(n, m, "{0[0]}^{0[1]}".format, "0")


def _side_table(n: int, m: int, left: Callable, right: Callable) -> Iterator[tuple]:
    """The sketches of size (n, m) in ``Sketch.sort_key`` order, as pairs (a
    left word, the right words it takes), each side word rendered once by
    ``left`` or ``right`` from its letters coded ``(i - 1) * (m + 1) + k``.

    A left word is a reversed orderly word on a subset of [n], and takes the
    orderly words on the complement.  The key's zero letter sorts before
    every real letter, so keys compare as w1 (a proper prefix first), then
    w2: the left words are sorted once, and right words keep the order of
    ``_sorted_words``, which the coding and relabelling onto a subset keep.
    """
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
    return ((left(word), rights[complement]) for word, complement in lefts)


def _sorted_words(size: int, m: int) -> list[tuple[int, ...]]:
    """The sorted orderly words on {0, ..., size-1}, letter (p, k) coded as
    ``p * (m + 1) + k``, which keeps the order of letters.

    A word is ``complete_word`` of its step sequence and its up-step labels,
    and relabelling the word of ``range(size)`` gives it for every labelling.
    """
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
    """Solve X_i + k < X_j + l for all letter pairs in word order.

    Encoded as X_i - X_j <= (l - k) - 1/scale, in integer units of 1/scale,
    and relaxed from an implicit source at distance 0; a negative cycle would
    mean the side ordering is contradictory, which cannot happen for a valid
    sketch.
    """
    variables = sorted({i for i, _ in word})
    if not variables:
        return {}
    edges: list[tuple[int, int, int]] = []
    for a in range(len(word)):
        i, k = word[a]
        for b in range(a + 1, len(word)):
            j, l = word[b]
            if i == j:
                continue
            # constraint X_i - X_j <= (l - k) - 1/scale, i.e. relax j -> i
            edges.append((j, i, (l - k) * scale - 1))
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
    """Total order of 0 and all 2^k x_i at the point, written as a sketch."""
    negatives: list[tuple[Fraction, Letter]] = []
    positives: list[tuple[Fraction, Letter]] = []
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
                raise OnHyperplane(
                    f"symbols {a[1]} and {b[1]} compare equal at this point"
                )
    return Sketch(
        tuple(letter for _, letter in negatives),
        tuple(letter for _, letter in positives),
    )


def hyperplane_side(point: Sequence[LogPoint], h: Hyperplane) -> int:
    """Exact sign of x_i - 2^k x_j (or of x_i for a coordinate hyperplane)."""
    if h.kind == "coord":
        return point[h.i - 1].sign
    a = point[h.i - 1]
    b = point[h.j - 1]
    if a.sign == 0 and b.sign == 0:
        return 0
    if a.sign != b.sign:
        return 1 if a.sign > b.sign else -1
    left = a.exp
    right = h.k + b.exp
    if left == right:
        return 0
    magnitude = 1 if left > right else -1
    return magnitude if a.sign > 0 else -magnitude


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
