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
from typing import Sequence

from .arrangements import Hyperplane
from .dyckwords import Letter, complete_word, step_sequences

ENUMERATION_LIMIT = 12


class EnumerationGuard(ValueError):
    """Requested enumeration exceeds the configured size guard."""


class OnHyperplane(ValueError):
    """The point lies on a hyperplane, so it determines no region."""


class InfeasibleSystem(ValueError):
    """Difference constraints admit no solution; the sketch was invalid."""


@dataclass(frozen=True)
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

    def sort_key(self) -> tuple[Letter, ...]:
        # (0, 0) marks the zero letter; real letters have subscript >= 1.
        return self.w1 + ((0, 0),) + self.w2

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        parts = [f"{i}^{k}" for i, k in self.w1]
        parts.append("0")
        parts.extend(f"{i}^{k}" for i, k in self.w2)
        return " ".join(parts)

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


def is_valid_sketch(
    sketch: Sketch, n: int | None = None, m: int | None = None
) -> bool:
    """Check the defining conditions of a sketch.

    Every letter (i, k) with i in [n] and k in [0, m] must appear exactly
    once, all letters of a subscript on one side of the zero; w2 and the
    reverse of w1 must both be orderly (exponents of one subscript increase,
    and earlier letters keep their lead after adding 1 to exponents).
    """
    letters = sketch.letters
    if len(set(letters)) != len(letters):
        return False
    if n is None:
        n = sketch.n
    if m is None:
        m = sketch.m
    if n == 0:
        return not letters
    subs1 = {i for i, _ in sketch.w1}
    subs2 = {i for i, _ in sketch.w2}
    if subs1 & subs2:
        return False
    if subs1 | subs2 != set(range(1, n + 1)):
        return False
    if len(letters) != (m + 1) * n:
        return False
    if any(not 0 <= k <= m for _, k in letters):
        return False
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


def enumerate_sketches(n: int, m: int, limit: int = ENUMERATION_LIMIT) -> list[Sketch]:
    """All sketches for given n and m, sorted lexicographically."""
    _check_guard(n, m, limit)
    out: list[Sketch] = []
    universe = list(range(1, n + 1))
    for mask in range(1 << n):
        negatives = tuple(universe[b] for b in range(n) if not mask >> b & 1)
        positives = tuple(universe[b] for b in range(n) if mask >> b & 1)
        for word1 in _orderly_words(negatives, m):
            w1 = tuple(reversed(word1))
            for word2 in _orderly_words(positives, m):
                out.append(Sketch(w1, word2))
    out.sort(key=Sketch.sort_key)
    return out


def _orderly_words(subscripts: tuple[int, ...], m: int) -> list[tuple[Letter, ...]]:
    words = []
    for steps in step_sequences(len(subscripts), m):
        for labels in itertools.permutations(subscripts):
            words.append(complete_word(steps, labels, m))
    return words


def witness_point(sketch: Sketch) -> tuple[LogPoint, ...]:
    """An exact point whose induced total order is the given sketch.

    Coordinates named in w2 are positive, those in w1 negative.  Exponents
    come from the difference-constraint system "earlier symbol strictly
    smaller", solved by Bellman-Ford with a uniform rational slack.
    """
    n = sketch.n
    m = sketch.m
    slack = Fraction(1, n + 1)
    positive = _solve_side(sketch.w2, slack)
    negative = _solve_side(tuple(reversed(sketch.w1)), slack)
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


def _solve_side(word: Sequence[Letter], slack: Fraction) -> dict[int, Fraction]:
    """Solve X_i + k < X_j + l for all letter pairs in word order.

    Encoded as X_i - X_j <= (l - k) - slack and relaxed from an implicit
    source at distance 0; a negative cycle would mean the side ordering is
    contradictory, which cannot happen for a valid sketch.
    """
    variables = sorted({i for i, _ in word})
    if not variables:
        return {}
    edges: list[tuple[int, int, Fraction]] = []
    for a in range(len(word)):
        i, k = word[a]
        for b in range(a + 1, len(word)):
            j, l = word[b]
            if i == j:
                continue
            # constraint X_i - X_j <= (l - k) - slack, i.e. relax j -> i
            edges.append((j, i, Fraction(l - k) - slack))
    dist = {v: Fraction(0) for v in variables}
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
    return dist


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


def _check_guard(n: int, m: int, limit: int) -> None:
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    size = (m + 1) * n
    if size > limit:
        raise EnumerationGuard(
            f"(m+1)*n = {size} exceeds the enumeration limit of {limit}"
        )
