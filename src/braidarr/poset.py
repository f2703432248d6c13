"""Intersection posets of multiplicative arrangements.

Flats are represented combinatorially, one cell per coordinate: either the
coordinate is zero on the flat, or it is ``x_v = 2^off * x_r`` for the
smallest coordinate r of its component, whose own cell is ``(r, 0)``.  Naming
each component by its smallest coordinate makes this form canonical with no
normalisation pass, so it is exact and hashable; it keys the closure, and the
JSON format reads the zero set and the components off it.

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

    ``cells[v-1]`` is None when x_v = 0 on the flat, and otherwise
    ``(r, off)``: x_v = 2^off * x_r, where r is the smallest coordinate of
    v's component, so ``cells[r-1] == (r, 0)``.  Each flat has exactly one
    such tuple, so equal flats compare and hash equal.  ``loops`` and
    ``components`` give the grouped form of the JSON dump: (vertex, offset)
    pairs sorted by vertex, and components sorted by their smallest vertex.
    """

    cells: tuple[tuple[int, int] | None, ...]

    @property
    def n(self) -> int:
        return len(self.cells)

    @property
    def dimension(self) -> int:
        return sum(1 for v, cell in enumerate(self.cells, 1) if cell == (v, 0))

    @property
    def loops(self) -> frozenset[int]:
        return frozenset(v for v, cell in enumerate(self.cells, 1) if cell is None)

    @property
    def components(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # A root is the first vertex of its component in vertex order, so the
        # groups come out sorted by smallest vertex.
        groups: dict[int, list[tuple[int, int]]] = {}
        for v, cell in enumerate(self.cells, 1):
            if cell is not None:
                groups.setdefault(cell[0], []).append((v, cell[1]))
        return tuple(tuple(group) for group in groups.values())

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.loops)), self.components)


@dataclass(frozen=True)
class PosetNode:
    flat: Flat
    mu: int


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
        for index, node in enumerate(self.nodes):
            flats.append(
                {
                    "id": index,
                    "dim": node.flat.dimension,
                    "mu": node.mu,
                    "loops": sorted(node.flat.loops),
                    "components": [
                        [[v, off] for v, off in comp] for comp in node.flat.components
                    ],
                }
            )
        return {
            "n": self.nodes[0].flat.n,
            "flats": flats,
            "hasse": [[a, b] for a, b in self.hasse_edges()],
        }


def ambient_flat(n: int) -> Flat:
    return Flat(tuple((v, 0) for v in range(1, n + 1)))


def _zero_component(flat: Flat, root: int) -> Flat:
    """The flat with every coordinate of root's component forced to zero."""
    return Flat(tuple(None if cell and cell[0] == root else cell for cell in flat.cells))


def intersect_flat(flat: Flat, h: Hyperplane) -> Flat:
    """Intersect a flat with one multiplicative hyperplane.

    A conflicting merge (same component, wrong offset gap) forces the free
    value of that component to zero, so the component joins the loop set
    rather than emptying the intersection; every hyperplane here passes
    through the origin.
    """
    cell_i = flat.cells[h.i - 1]
    if h.kind == "coord":
        return flat if cell_i is None else _zero_component(flat, cell_i[0])
    cell_j = flat.cells[h.j - 1]  # h is x_i = 2^k x_j
    if cell_i is None and cell_j is None:
        return flat
    if cell_i is None or cell_j is None:
        return _zero_component(flat, (cell_i or cell_j)[0])
    (root_i, off_i), (root_j, off_j) = cell_i, cell_j
    if root_i == root_j:
        return flat if off_i == h.k + off_j else _zero_component(flat, root_i)
    # x_(root_i) = 2^shift x_(root_j); the larger root's cells move onto the smaller.
    shift = h.k + off_j - off_i
    keep, move = root_j, root_i
    if root_i < root_j:
        keep, move, shift = root_i, root_j, -shift
    return Flat(
        tuple((keep, cell[1] + shift) if cell and cell[0] == move else cell for cell in flat.cells)
    )


def check_poset_size(n: int, flavor: str) -> None:
    """Refuse a target the poset route does not build: an additive one, or
    one past the dimension guard.  A preset is checked from its (n, m)
    before its spec is built."""
    if flavor != MULTIPLICATIVE:
        raise ValueError("posets are built for multiplicative arrangements only")
    if n > POSET_DIMENSION_GUARD:
        raise ValueError(f"n={n} exceeds the poset guard of {POSET_DIMENSION_GUARD}")


def build_poset(spec: ArrangementSpec) -> IntersectionPoset:
    """All flats by incremental intersection, with Mobius values.

    Starts from the ambient flat and repeatedly intersects known flats with
    single hyperplanes until closure.  A hyperplane that leaves a flat
    unchanged contains it, and sets that hyperplane's bit in the flat's mask.
    Flats are then ordered by reverse inclusion (mask subset) and the
    defining Mobius recursion runs top-down.
    """
    check_poset_size(spec.n, spec.flavor)
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
    nodes = [PosetNode(flat, value) for flat, value in zip(ordered, mu)]
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
