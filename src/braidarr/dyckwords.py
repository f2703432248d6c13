"""Step grammar shared by sketch words and labeled paths.

A word over letters ``(i, k)`` with consistent exponent interleaving is
equivalent to a labeled path: letters with exponent 0 are up-steps (rise m)
and everything else is a down-step.  The inverse direction fills each
down-step with a forced letter; the choice is unique, so paths and words
carry exactly the same information.
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
