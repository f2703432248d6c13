"""Step grammar shared by sketch words, labeled paths and partition sides.

A word over letters ``(i, k)`` with consistent exponent interleaving is
equivalent to a labeled path: letters with exponent 0 are up-steps (rise m)
and everything else is a down-step.  The inverse direction fills each
down-step with a forced letter; the choice is unique, so paths and words
carry exactly the same information.  The forced letter is the oldest
pending one; read on a partition side (a label's j-th occurrence as exponent
j - 1) this first in, first out rule says no two arcs nest.  This module
holds the one walk over paths (:func:`axis_points`) and the one over sketch
or partition sides (:func:`is_orderly`, a single pass with that queue).
"""
from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

UP = "U"
DOWN = "D"

Letter = tuple[int, int]


def step_sequences(ups: int, m: int) -> Iterator[tuple[str, ...]]:
    """All step tuples with ``ups`` up-steps of rise m and nonnegative prefixes.

    Yielded in lexicographic order ('D' sorts before 'U'), by a depth-first
    walk on an explicit stack, so a path of any length needs no recursion.
    """
    out: list[str] = []
    # (steps of out to keep, step to add, up-steps left, height after it)
    stack = [(0, "", ups, 0)]
    while stack:
        kept, step, ups_left, height = stack.pop()
        del out[kept:]
        if step:
            out.append(step)
        if ups_left == 0 and height == 0:
            yield tuple(out)
            continue
        if ups_left > 0:
            stack.append((len(out), UP, ups_left - 1, height + m))
        if height > 0:
            stack.append((len(out), DOWN, ups_left, height - 1))


def complete_word(steps: Sequence[str], labels: Sequence[int], m: int) -> Iterator[Letter]:
    """The letters, in order, of the unique valid word whose up-steps carry
    ``labels`` in order.

    Up-steps emit ``(label, 0)``.  A letter ``(i, k)`` with k < m makes
    ``(i, k + 1)`` pending, and a down-step emits the pending letter whose
    predecessor came first, so the pending letters (one per label at most)
    form one queue.
    """
    pending: deque[Letter] = deque()
    up_count = 0
    for step in steps:
        if step == UP:
            letter = (labels[up_count], 0)
            up_count += 1
        elif pending:
            letter = pending.popleft()
        else:
            raise ValueError("down-step with no pending letter; not a valid path")
        if letter[1] < m:
            pending.append((letter[0], letter[1] + 1))
        yield letter


def axis_points(steps: Sequence[str], m: int) -> list[int]:
    """The prefix lengths, 0 first, at which the path of ``steps`` is on the
    axis; at prefix length a it has taken a // (m + 1) up-steps.  Raises
    ValueError if a prefix goes below the axis."""
    points = [0]
    height = 0
    for length, step in enumerate(steps, 1):
        height += m if step == UP else -1
        if height < 0:
            raise ValueError("negative prefix sum")
        if height == 0:
            points.append(length)
    return points


def is_orderly(word: Sequence[Letter], m: int) -> bool:
    """Whether ``word`` is an orderly side: each letter (i, 0..m) of its
    subscripts once, in increasing exponents, and of two letters below
    exponent m the earlier keeps its lead when both exponents grow by 1.

    One walk with the queue of ``complete_word``: a letter (i, 0) opens label
    i, once; any other must head the queue; (i, k), k < m, queues (i, k + 1);
    at the end the queue is empty, m + 1 letters a label.  In an orderly word
    (i, k - 1) precedes (i, k), k > 0, and the lead rule queues every other
    letter after it, so it heads the queue.  Conversely the walk takes each
    label's letters once, in increasing exponents, keeping every lead.
    """
    pending: deque[Letter] = deque()
    labels: set[int] = set()
    for letter in word:
        i, k = letter
        if k == 0:
            if i in labels:
                return False
            labels.add(i)
        elif not pending or pending.popleft() != letter:
            return False
        if k < m:
            pending.append((i, k + 1))
    return not pending and len(word) == (m + 1) * len(labels)
