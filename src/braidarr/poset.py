"""Intersection posets of multiplicative arrangements.

Flats are represented combinatorially: a set of zero-forced coordinates plus
a partition of the remaining coordinates into components, where each
component carries integer offsets meaning ``x_v = 2^(offset_v) * c`` for a
shared free value c.  This canonical form is exact and hashable; it keys the
closure and is the JSON format.

Every hyperplane passes through the origin, so flats are ordered by
hyperplane masks: X contains Y exactly when every hyperplane containing X
also contains Y.  The closure records each flat's mask as it goes, and the
lattice is graded by dimension, which gives the Hasse relation directly.

A second, independent route computes flat dimensions by exact row reduction
on the true hyperplane normals (coefficients 1 and -2^k); tests compare the
two.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arrangements import MULTIPLICATIVE, ArrangementSpec, Hyperplane, hyperplanes_of
from .numbers import IntPolynomial

POSET_DIMENSION_GUARD = 5


@dataclass(frozen=True)
class Flat:
    """Canonical form of a nonempty intersection of hyperplanes.

    ``components`` holds the non-zero-forced coordinates grouped together;
    each component is a tuple of (vertex, offset) pairs sorted by vertex with
    the smallest vertex at offset 0.  Components are sorted by their smallest
    vertex.  The dimension is the number of components.
    """

    n: int
    loops: frozenset[int]
    components: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.components)

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.loops)), self.components)


@dataclass(frozen=True)
class PosetNode:
    flat: Flat
    mu: int
    index: int


class IntersectionPoset:
    """All flats of an arrangement with Mobius values and the Hasse relation.

    Nodes are sorted by descending dimension (ambient space first) and then
    by canonical key, so node order is deterministic.
    """

    def __init__(self, nodes: Sequence[PosetNode], below: Sequence[frozenset[int]]):
        self.nodes = tuple(nodes)
        self.below = tuple(below)  # indices of flats strictly containing node i

    def __len__(self) -> int:
        return len(self.nodes)

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Cover pairs (a, b) where b covers a.

        The lattice is graded by dimension, so b covers a exactly when a is
        below b and one dimension higher.
        """
        dims = [node.flat.dimension for node in self.nodes]
        return sorted(
            (a, b)
            for b, lower in enumerate(self.below)
            for a in lower
            if dims[a] == dims[b] + 1
        )

    def to_json_dict(self) -> dict:
        flats = []
        for node in self.nodes:
            flats.append(
                {
                    "id": node.index,
                    "dim": node.flat.dimension,
                    "mu": node.mu,
                    "loops": sorted(node.flat.loops),
                    "components": [
                        [[v, off] for v, off in comp] for comp in node.flat.components
                    ],
                }
            )
        return {
            "n": self.nodes[0].flat.n if self.nodes else 0,
            "flats": flats,
            "hasse": [[a, b] for a, b in self.hasse_edges()],
        }


def _flat_from_parts(
    n: int, loops: frozenset[int], components: list[dict[int, int]]
) -> Flat:
    canonical = []
    for offsets in components:
        rep = min(offsets)
        base = offsets[rep]
        canonical.append(tuple(sorted((v, off - base) for v, off in offsets.items())))
    canonical.sort(key=lambda comp: comp[0][0])
    return Flat(n, loops, tuple(canonical))


def ambient_flat(n: int) -> Flat:
    return Flat(n, frozenset(), tuple(((v, 0),) for v in range(1, n + 1)))


def intersect_flat(flat: Flat, h: Hyperplane) -> Flat:
    """Intersect a flat with one multiplicative hyperplane.

    A conflicting merge (same component, wrong offset gap) forces the free
    value of that component to zero, so the component joins the loop set
    rather than emptying the intersection; every hyperplane here passes
    through the origin.
    """
    comps = [dict(c) for c in flat.components]
    loops = set(flat.loops)

    def loop_component(idx: int) -> None:
        loops.update(comps[idx].keys())
        del comps[idx]

    if h.kind == "coord":
        if h.i not in loops:
            loop_component(_component_index(comps, h.i))
        return _flat_from_parts(flat.n, frozenset(loops), comps)
    i, j, k = h.i, h.j, h.k  # x_i = 2^k x_j
    i_looped, j_looped = i in loops, j in loops
    if i_looped and j_looped:
        return flat
    if i_looped != j_looped:
        loop_component(_component_index(comps, j if i_looped else i))
        return _flat_from_parts(flat.n, frozenset(loops), comps)
    ci = _component_index(comps, i)
    cj = _component_index(comps, j)
    if ci == cj:
        if comps[ci][i] == k + comps[ci][j]:
            return flat
        loop_component(ci)
        return _flat_from_parts(flat.n, frozenset(loops), comps)
    delta = k + comps[cj][j] - comps[ci][i]
    merged = dict(comps[cj])
    merged.update({v: off + delta for v, off in comps[ci].items()})
    comps = [c for idx, c in enumerate(comps) if idx not in (ci, cj)]
    comps.append(merged)
    return _flat_from_parts(flat.n, frozenset(loops), comps)


def _component_index(comps: list[dict[int, int]], v: int) -> int:
    for idx, comp in enumerate(comps):
        if v in comp:
            return idx
    raise KeyError(v)


def build_poset(spec: ArrangementSpec) -> IntersectionPoset:
    """All flats by incremental intersection, with Mobius values.

    Starts from the ambient flat and repeatedly intersects known flats with
    single hyperplanes until closure.  A hyperplane that leaves a flat
    unchanged contains it, and sets that hyperplane's bit in the flat's mask.
    Flats are then ordered by reverse inclusion (mask subset) and the
    defining Mobius recursion runs top-down.
    """
    if spec.flavor != MULTIPLICATIVE:
        raise ValueError("posets are built for multiplicative arrangements only")
    if spec.n > POSET_DIMENSION_GUARD:
        raise ValueError(
            f"n={spec.n} exceeds the poset guard of {POSET_DIMENSION_GUARD}"
        )
    planes = hyperplanes_of(spec)
    start = ambient_flat(spec.n)
    flats = {start}
    frontier = [start]
    masks: dict[Flat, int] = {}
    while frontier:
        flat = frontier.pop()
        mask = 0
        for bit, h in enumerate(planes):
            nxt = intersect_flat(flat, h)
            if nxt == flat:
                mask |= 1 << bit
            elif nxt not in flats:
                flats.add(nxt)
                frontier.append(nxt)
        masks[flat] = mask
    ordered = sorted(flats, key=lambda f: (-f.dimension, f.sort_key()))
    ordered_masks = [masks[flat] for flat in ordered]
    # A flat strictly containing b has higher dimension, so it sorts before b.
    below = [
        frozenset(a for a in range(b) if not ordered_masks[a] & ~mask_b)
        for b, mask_b in enumerate(ordered_masks)
    ]
    mu: list[int] = []
    for index in range(len(ordered)):
        if not below[index]:
            mu.append(1)  # the ambient flat
        else:
            mu.append(-sum(mu[a] for a in below[index]))
    nodes = [PosetNode(flat, mu[i], i) for i, flat in enumerate(ordered)]
    return IntersectionPoset(nodes, below)


def charpoly_from_poset(poset: IntersectionPoset, n: int) -> IntPolynomial:
    """Mobius-weighted dimension generating polynomial."""
    coeffs = [0] * (n + 1)
    for node in poset.nodes:
        coeffs[node.flat.dimension] += node.mu
    return IntPolynomial(coeffs)


def flat_dimension_by_rank(hyperplanes: Iterable[Hyperplane], n: int) -> int:
    """Dimension of the intersection via exact rank of the true normals.

    Row for ``x_i = 0`` is e_i; row for ``x_i = 2^k x_j`` is e_i - 2^k e_j.
    This route never looks at the combinatorial flat form, so it serves as an
    independent cross-check.
    """
    rows = []
    for h in hyperplanes:
        row = [Fraction(0)] * n
        if h.kind == "coord":
            row[h.i - 1] = Fraction(1)
        else:
            row[h.i - 1] = Fraction(1)
            row[h.j - 1] = Fraction(-(2**h.k))
        rows.append(row)
    return n - _rank(rows, n)


def _rank(rows: list[list[Fraction]], width: int) -> int:
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                for c in range(col, width):
                    rows[r][c] -= factor * rows[rank][c]
        rank += 1
    return rank
