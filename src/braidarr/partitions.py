"""Decorated non-nesting partitions: the sketches' words with exponents dropped.

A decorated partition is an ordered pair of arc diagrams separated by a red
line; block labels are stored positionally (one label array per side), and
arcs join consecutive occurrences of each label.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .dyckwords import Letter, is_orderly
from .sketches import Sketch, text_chunks


@dataclass(frozen=True)
class DecoratedNonNestingPartition:
    """Ordered pair of non-nesting partitions with blocks of size m + 1.

    ``side1[p]`` / ``side2[p]`` give the label at position p of each diagram.
    Labels are exactly 1..n, each appearing m + 1 times on a single side.

    Not checked by the constructor: partitions from the enumerator or a
    valid sketch are valid by construction, and :meth:`parse` validates text
    (:func:`check_partition`).
    """

    m: int
    side1: tuple[int, ...]
    side2: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(set(self.side1)) + len(set(self.side2))

    def to_text(self) -> str:
        left = " ".join(str(v) for v in self.side1)
        right = " ".join(str(v) for v in self.side2)
        if left and right:
            return f"{left} | {right}"
        return f"{left} |" if left else f"| {right}"

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def parse(cls, text: str, m: int | None = None) -> "DecoratedNonNestingPartition":
        tokens = text.split()
        if tokens.count("|") != 1:
            raise ValueError("partition text needs exactly one '|' red line")
        cut = tokens.index("|")
        side1 = tuple(map(_parse_label, tokens[:cut]))
        side2 = tuple(map(_parse_label, tokens[cut + 1 :]))
        if m is None:
            combined = side1 + side2
            if not combined:
                raise ValueError("cannot infer m from an empty diagram")
            m = combined.count(combined[0]) - 1
        d = cls(m, side1, side2)
        check_partition(d)
        return d


def check_partition(d: DecoratedNonNestingPartition) -> None:
    """Raise ValueError unless ``d`` is a decorated non-nesting partition
    (see the class)."""
    if d.m < 1:
        raise ValueError(f"m must be positive, got {d.m}")
    labels1 = set(d.side1)
    labels2 = set(d.side2)
    if labels1 & labels2:
        raise ValueError("a block must lie entirely on one side of the red line")
    n = len(labels1) + len(labels2)
    if labels1 | labels2 != set(range(1, n + 1)):
        raise ValueError("labels must be exactly 1..n")
    for side in (d.side1, d.side2):
        sizes = Counter(side)
        for label in set(side):
            if sizes[label] != d.m + 1:
                raise ValueError(f"block {label} has {sizes[label]} points, expected {d.m + 1}")
        # Arcs nest exactly when the occurrence-numbered side is not orderly.
        if not is_orderly(_occurrences(side), d.m):
            raise ValueError("nesting arcs")


def _parse_label(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"bad partition label {token!r}") from None


def _occurrences(side: Sequence[int]) -> list[Letter]:
    """Each label of ``side`` with the number of times it occurred before."""
    seen: Counter[int] = Counter()
    out = []
    for label in side:
        out.append((label, seen[label]))
        seen[label] += 1
    return out


def sketch_to_partition(
    sketch: Sketch, m: int | None = None
) -> DecoratedNonNestingPartition:
    """Replace every letter by its subscript and the zero by the red line.

    ``m`` is needed only for the empty sketch (see :meth:`Sketch.rise`).
    """
    return DecoratedNonNestingPartition(
        sketch.rise(m),
        tuple(i for i, _ in sketch.w1),
        tuple(i for i, _ in sketch.w2),
    )


def partition_chunks(n: int, m: int) -> Iterator[str]:
    """``sketch_to_partition(s, m).to_text()`` for each sketch s of size
    (n, m), in ``Sketch.sort_key`` order, in chunks (``render_chunks``)."""
    chunks = text_chunks(n, m, "|", exponents=False)
    # ``to_text`` writes n = 0's empty diagram "| ", not the joined "|".
    return chunks if n else iter([DecoratedNonNestingPartition(m, (), ()).to_text()])


def partition_to_sketch(d: DecoratedNonNestingPartition) -> Sketch:
    """Restore exponents from occurrence order.

    On the right of the red line a label's occurrence after j others gets
    exponent j; on the left it gets m - j, matching the mirrored reading.
    """
    w1 = tuple((label, d.m - j) for label, j in _occurrences(d.side1))
    return Sketch(w1, tuple(_occurrences(d.side2)))

