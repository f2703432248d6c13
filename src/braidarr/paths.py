"""Labeled and decorated Dyck paths, their sketch bijection, and the
compartment statistic whose distribution gives the characteristic polynomial
coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

import numpy as np

from .dyckwords import DOWN, UP, axis_points, complete_word, step_sequences
from .sketches import Sketch, _check_guard, _digits, render_chunks


@dataclass(frozen=True)
class LabeledDyckPath:
    """Up-steps of rise m and unit down-steps, prefixes never negative,
    up-steps labeled with distinct positive integers (not necessarily [n]).

    Not checked by the constructor: paths from the enumerator or a valid
    sketch are valid by construction, and ``DecoratedDyckPath.parse``
    validates text (:func:`check_decorated_path`).
    """

    m: int
    steps: tuple[str, ...]
    labels: tuple[int, ...]

    @property
    def up_count(self) -> int:
        return len(self.labels)

    def _tokens(self) -> list[str]:
        """The text tokens: ``U<label>`` per up-step, ``D`` per down-step."""
        labels = iter(self.labels)
        return [f"U{next(labels)}" if s == UP else DOWN for s in self.steps]

    def to_text(self) -> str:
        return " ".join(self._tokens())

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class DecoratedDyckPath:
    """A labeled path with label set [n] plus a marked point on the x-axis.

    The mark is a prefix index with height 0; the equivalent view as an
    ordered pair of paths is computed, not stored.
    """

    path: LabeledDyckPath
    mark: int

    @property
    def n(self) -> int:
        return self.path.up_count

    @property
    def m(self) -> int:
        return self.path.m

    def part1(self) -> LabeledDyckPath:
        ups = self.mark // (self.m + 1)  # up-steps before the mark, an axis point
        return LabeledDyckPath(self.m, self.path.steps[: self.mark], self.path.labels[:ups])

    def part2(self) -> LabeledDyckPath:
        ups = self.mark // (self.m + 1)
        return LabeledDyckPath(self.m, self.path.steps[self.mark :], self.path.labels[ups:])

    def to_text(self) -> str:
        tokens = self.path._tokens()
        tokens.insert(self.mark, "|")
        # The empty path prints "| ", the form of every path with an empty part 1.
        return " ".join(tokens) if len(tokens) > 1 else "| "

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def parse(cls, text: str, m: int | None = None) -> "DecoratedDyckPath":
        """Parse ``U3 D D U1 D D | U5 ...``; m defaults to downs/ups."""
        tokens = text.split()
        if tokens.count("|") != 1:
            raise ValueError("path text needs exactly one '|' mark")
        mark_token = tokens.index("|")
        steps: list[str] = []
        labels: list[int] = []
        for token in tokens:
            if token == "|":
                continue
            if token == "D":
                steps.append(DOWN)
            elif token.startswith("U"):
                steps.append(UP)
                try:
                    labels.append(int(token[1:]))
                except ValueError:
                    raise ValueError(f"bad path token {token!r}") from None
            else:
                raise ValueError(f"bad path token {token!r}")
        if m is None:
            ups = len(labels)
            downs = len(steps) - ups
            if ups == 0 or downs % ups:
                raise ValueError("cannot infer m; pass it explicitly")
            m = downs // ups
        decorated = cls(LabeledDyckPath(m, tuple(steps), tuple(labels)), mark_token)
        check_decorated_path(decorated)
        return decorated


def check_labeled_path(path: LabeledDyckPath) -> None:
    """Raise ValueError unless ``path`` is a labeled path (see the class)."""
    if path.m < 1:
        raise ValueError(f"m must be positive, got {path.m}")
    ups = sum(1 for s in path.steps if s == UP)
    downs = len(path.steps) - ups
    if any(s not in (UP, DOWN) for s in path.steps):
        raise ValueError("steps must be 'U' or 'D'")
    if downs != path.m * ups:
        raise ValueError(f"{ups} up-steps need {path.m * ups} down-steps, got {downs}")
    axis_points(path.steps, path.m)
    if len(path.labels) != ups:
        raise ValueError(f"{ups} up-steps but {len(path.labels)} labels")
    if len(set(path.labels)) != len(path.labels) or any(label < 1 for label in path.labels):
        raise ValueError("labels must be distinct positive integers")


def check_decorated_path(decorated: DecoratedDyckPath) -> None:
    """Raise ValueError unless ``decorated`` is a decorated path: a labeled
    path with label set [n] whose mark is an x-axis point."""
    path = decorated.path
    check_labeled_path(path)
    if set(path.labels) != set(range(1, path.up_count + 1)):
        raise ValueError("decorated path labels must be exactly 1..n")
    if decorated.mark not in axis_points(path.steps, path.m):
        raise ValueError(f"mark {decorated.mark} is not an x-axis point")


def sketch_to_path(sketch: Sketch, m: int | None = None) -> DecoratedDyckPath:
    """Translate a sketch into a decorated path.

    In w1 the letters with exponent m become up-steps, in w2 those with
    exponent 0; everything else is a down-step.  The mark sits where the w1
    part of the path ends.  ``m`` is needed only for the empty sketch (see
    :meth:`Sketch.rise`).
    """
    m = sketch.rise(m)
    steps1 = tuple(UP if k == m else DOWN for _, k in sketch.w1)
    labels1 = tuple(i for i, k in sketch.w1 if k == m)
    steps2 = tuple(UP if k == 0 else DOWN for _, k in sketch.w2)
    labels2 = tuple(i for i, k in sketch.w2 if k == 0)
    path = LabeledDyckPath(m, steps1 + steps2, labels1 + labels2)
    return DecoratedDyckPath(path, len(steps1))


def path_to_sketch(decorated: DecoratedDyckPath) -> Sketch:
    """Inverse translation.

    w2 is the unique completion of the second part.  The first part decodes
    the same way and then has its exponents complemented (k -> m - k), which
    is exactly what reading w1 forward with exponent-m up-steps means.
    """
    m = decorated.m
    p1 = decorated.part1()
    p2 = decorated.part2()
    w2 = tuple(complete_word(p2.steps, p2.labels, m))
    mirrored = complete_word(p1.steps, p1.labels, m)
    w1 = tuple((i, m - k) for i, k in mirrored)
    return Sketch(w1, w2)


def path_chunks(n: int, m: int) -> Iterator[str]:
    """``d.to_text()`` for each decorated path d of size n, in the order of
    :func:`_path_table`, in chunks (:func:`render_chunks`): each pair's
    template, j - 1 at its j-th up-step, n at the mark and n + 1 at each
    down-step, read through each label row."""
    pairs, labels = _path_table(n, m)
    steps = np.frombuffer("".join(f"{p1}|{p2}" for p1, p2 in pairs).encode(), np.uint8)
    steps = steps.reshape(len(pairs), -1)
    templates = np.cumsum(steps == ord(UP), axis=1, dtype=np.int32) - 1
    templates[steps == ord("|")] = n
    templates[steps == ord(DOWN)] = n + 1

    def rows(line: np.ndarray) -> np.ndarray:
        return np.take_along_axis(labels[line % len(labels)], templates[line // len(labels)], 1)

    tokens = ["|", _digits(np.arange(1, n + 1), UP), DOWN]
    chunks = render_chunks(tokens, rows, len(pairs) * len(labels), steps.shape[1])
    return chunks if n else iter(["| "])  # ``to_text`` of the empty path


def _path_table(n: int, m: int) -> tuple[list[tuple[str, str]], np.ndarray]:
    """After the size guard, the sorted step pairs (part 1, part 2) of size n
    as text, and the permutations of [n] in lex order as int32 rows
    followed by 0 and n + 1, the codes of ``|`` and ``D`` (``Ui`` is i).
    Decorated path l is pair l // n! labelled by permutation l % n!."""
    _check_guard(n, m)
    firsts = sorted("".join(s) for ups in range(n + 1) for s in step_sequences(ups, m))
    pairs = [(s1, "".join(s2)) for s1 in firsts for s2 in step_sequences(n - s1.count(UP), m)]
    return pairs, np.array([(*p, 0, n + 1) for p in permutations(range(1, n + 1))], np.int32)


def compartment_distribution(n: int, m: int) -> list[int]:
    """Entry j: decorated paths whose second part has j compartments.  A
    compartment ends at the part holding the largest label not yet in one,
    the largest from any of its parts onwards, so the compartments are the
    distinct suffix maxima of the labels at part 2's part starts, and one
    ends where the maximum differs from the next start's (0 past the last);
    ``reference_decomposition`` in the tests is the reference."""
    pairs, labels = _path_table(n, m)
    suffix_max = np.maximum.accumulate(labels[:, n::-1], axis=1)[:, ::-1]
    counts = np.zeros(n + 1, np.int64)
    for p1, p2 in pairs:
        # part 2's axis points, after part 1's len(p1) // (m + 1) up-steps
        maxima = suffix_max[:, [(len(p1) + a) // (m + 1) for a in axis_points(p2, m)]]
        counts += np.bincount((maxima[:, 1:] != maxima[:, :-1]).sum(1), minlength=n + 1)
    return counts.tolist()
