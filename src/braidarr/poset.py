"""Intersection posets of multiplicative arrangements.

Flats are represented combinatorially, one cell per coordinate: either the
coordinate is zero on the flat, or it is ``x_v = 2^off * x_r`` for the
smallest coordinate r of its component, whose own cell is ``(r, 0)``.  Naming
each component by its smallest coordinate makes this form canonical with no
normalisation pass.  A poset keeps its flats as two int64 arrays of cells,
``root`` and ``off``, one row per flat (0-based, root -1 for a zero
coordinate); one lexsort on them gives the node order, and the JSON format
reads the zero set and the components off each row.

The lattice is closed one rank at a time on integer numpy arrays.  Each
flat is one packed int64 key, decoded into its rows of cells when it is
cut.  One vectorised step over every flat of a rank and every hyperplane
gives, per (flat, plane) pair, whether the plane contains the flat (that
plane's bit in the flat's mask) or else the key of the child flat.  Every
hyperplane passes through the origin, so a plane that does not contain a
flat X cuts it in a flat one dimension lower, and these (X, child) pairs are
exactly the Hasse covers; they are recorded as the closure finds them.
Flats are ordered by hyperplane masks: X contains Y exactly when every
hyperplane containing X also contains Y.  The Mobius recursion runs rank by
rank on the masks packed into uint64 words.  Every array is an integer
array; there is no floating point anywhere.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .arrangements import MULTIPLICATIVE, ArrangementSpec, SizeGuard, check_budgets, hyperplanes_of
from .numbers import IntPolynomial

# (flat, plane) pairs per closure step and (flat, flat) pairs per Mobius step;
# bounds each temporary array to 256 KB.
BLOCK = 1 << 15
# int64 entries per (flat, plane) pair at the peak of cutting a rank, in the
# edges' _dedupe: the parents and child keys of the cut pairs, child indices,
# edge codes, _dedupe's argsort, sorted copy, inverse and two cumsum
# temporaries, and the distinct children.  Traced peaks were 8 to 9.5.
CUT_ENTRIES = 10


class IntersectionPoset:
    """All flats of an arrangement with Mobius values and the Hasse relation.

    Node a is row a of ``root`` and ``off``: coordinate v + 1 is zero on the
    flat when ``root[a, v]`` is -1, and otherwise ``x_(v+1) = 2^off[a, v] *
    x_(r+1)`` with r = ``root[a, v]`` the first vertex of v's component
    (all 0-based).  ``dims[a]`` is the flat's dimension and ``mu[a]`` its
    Mobius value.  Nodes are sorted by descending dimension (ambient space
    first), then by sorted zero coordinates, then by components (see
    :func:`_order`), so node order is deterministic.  ``masks[a]`` is node
    a's hyperplane mask: bit h % 64 of word h // 64 is set when hyperplane h
    (in ``hyperplanes_of`` order) contains the flat, so node a contains node
    b exactly when ``masks[a]`` is a subset of ``masks[b]``.  ``edges`` are
    the sorted cover pairs (a, b), b covered by a, found by the closure.
    """

    def __init__(
        self, root: np.ndarray, off: np.ndarray, mu: np.ndarray, masks: np.ndarray,
        edges: np.ndarray,
    ):
        self.root, self.off, self.mu, self.masks, self.edges = root, off, mu, masks, edges
        self.dims = (root == np.arange(root.shape[1])).sum(axis=1)

    def __len__(self) -> int:
        return len(self.mu)

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Cover pairs (a, b) where b covers a, as the closure recorded them."""
        return list(map(tuple, self.edges.tolist()))

    def to_json_dict(self) -> dict:
        flats = []
        rows = zip(self.dims.tolist(), self.mu.tolist(), self.root.tolist(), self.off.tolist())
        for index, (dim, mu, roots, offs) in enumerate(rows):
            loops, components = [], {}
            for v, (r, o) in enumerate(zip(roots, offs), 1):
                if r < 0:
                    loops.append(v)
                else:
                    # A root is its component's first vertex, so the groups
                    # come out sorted by smallest vertex.
                    components.setdefault(r, []).append([v, o])
            flats.append(
                {"id": index, "dim": dim, "mu": mu, "loops": loops,
                 "components": list(components.values())}
            )
        return {"n": self.root.shape[1], "flats": flats, "hasse": self.edges.tolist()}


def check_poset_size(n: int, flavor: str, bound: int) -> None:
    """Refuse an additive target, or, with :class:`SizeGuard`, one whose keys
    (see :class:`_CellCode`) overflow int64 when offsets reach ``bound``.  A
    preset's bound is (n - 1) m, so it is checked before its spec is built."""
    if flavor != MULTIPLICATIVE:
        raise ValueError("posets are built for multiplicative arrangements only")
    base = (n + 1) * (2 * bound + 1)
    # C^n >= 2^63 once (bit length of C, less 1) * n >= 63, so C^n is formed
    # only for n < 63 and a huge n is refused at once.
    if (base.bit_length() - 1) * n >= 63 or base**n > np.iinfo(np.int64).max:
        raise SizeGuard(
            f"n={n} or its shifts are too large for the poset route: offsets reach "
            f"{bound}, and a flat's {n} cells must pack into one int64 key"
        )


class _CellCode:
    """The packing of a flat's cells into one int64 key.

    A cell is 0 when its coordinate is zero and ``(root + 1) * R + off + B``
    otherwise; the key is the base-C number whose digit v is cell v, with
    ``R = 2B + 1`` and ``C = (n + 1) R``.  An offset is a sum of plane shifts
    along a path in a tree of merges, whose edges join distinct coordinate
    pairs, so B, the sum of the n - 1 largest per-pair shifts, bounds
    ``|off|`` and every key lies in [0, C^n); :func:`check_poset_size` has
    checked that C^n fits in an int64.
    """

    def __init__(self, n: int, bound: int):
        self.bound = bound
        self.radix = 2 * bound + 1
        self.base = (n + 1) * self.radix
        self.powers = self.base ** np.arange(n, dtype=np.int64)

    def cells(self, root: np.ndarray, off: np.ndarray) -> np.ndarray:
        return np.where(root < 0, 0, (root + 1) * self.radix + off + self.bound)

    def decode(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cells = keys[:, None] // self.powers % self.base
        root = cells // self.radix - 1
        return root, np.where(root < 0, 0, cells % self.radix - self.bound)


def build_poset(spec: ArrangementSpec) -> IntersectionPoset:
    """All flats, closed rank by rank from the ambient flat, with Mobius values.

    Rank r + 1 is every child of a rank-r flat.  For each (flat, plane) pair
    the plane either contains the flat, which sets its mask bit, or gives a
    child one dimension lower and the cover edge (flat, child).  Children are
    de-duplicated on their packed keys, and then :func:`check_budgets`
    refuses the new rank if its cut or the Mobius sums up to it break a
    budget (the ambient flat's cut is no larger than the plane list).
    """
    n = spec.n
    # B of _CellCode, from the shifts, so that no plane is listed before the check.
    largest = sorted((max(map(abs, ks)) for ks in spec.pair_shifts.values()), reverse=True)
    bound = sum(largest[: n - 1])
    check_poset_size(n, spec.flavor, bound)
    code = _CellCode(n, bound)
    planes = hyperplanes_of(spec)
    # 0-based (i, j, k) of x_i = 2^k x_j.  x_i = 0 is stored as x_i = 2^1 x_i,
    # which holds exactly when x_i = 0, so one rule serves both kinds.
    ijk = np.array(
        [(h.i - 1, h.i - 1, 1) if h.kind == "coord" else (h.i - 1, h.j - 1, h.k) for h in planes],
        dtype=np.int64,
    ).reshape(-1, 3)
    ambient = code.cells(np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    key = np.array([ambient @ code.powers])
    keys, contained, edges = [], [], []
    start = work = 0
    step = max(1, BLOCK // max(len(planes), 1))
    while len(key):
        keys.append(key)
        parents, cut = [], []
        for lo in range(0, len(key), step):
            contains, child = _cut(code, key[lo : lo + step], ijk)
            contained.append(contains)
            parent, _ = np.nonzero(~contains)
            parents.append(parent + lo)
            cut.append(child[~contains])
        children, child = _dedupe(np.concatenate(cut))
        # The children are cut next, and Mobius compares each with every
        # earlier flat by mask words.
        work += len(children) * (start + len(key)) * -(-len(planes) // 64)
        check_budgets(
            f"the poset's rank {len(keys)} ({len(children)} flats)",
            CUT_ENTRIES * len(children) * len(planes), work, "mask word comparisons",
        )
        # Two planes can cut a flat in the same child: one edge per pair.
        pairs, _ = _dedupe(np.concatenate(parents) * len(children) + child)
        parent, child = np.divmod(pairs, len(children))
        edges.append(np.stack([start + parent, start + len(key) + child], axis=1))
        start += len(key)
        key = children

    root, off = code.decode(np.concatenate(keys))
    bits = np.packbits(np.concatenate(contained), axis=1, bitorder="little")
    masks = np.ascontiguousarray(np.pad(bits, ((0, 0), (0, -bits.shape[1] % 8)))).view("<u8")
    mu = _mobius(masks, np.cumsum([0] + [len(k) for k in keys]))

    order = _order(root, off)
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    covers = position[np.concatenate(edges)]
    covers = covers[np.lexsort((covers[:, 1], covers[:, 0]))]
    return IntersectionPoset(root[order], off[order], mu[order], masks[order], covers)


def _order(root: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The node order: descending dimension, then the sorted zero
    coordinates, then the components in order of their first vertex, each a
    list of (vertex, offset) pairs, all compared lexicographically.

    One lexsort gives it.  Each row is taken in (root, vertex) order, which
    puts the zero coordinates (root -1) first.  The zero coordinates are read
    padded with -1, so that a shorter list sorts first, and then every
    position as (continues its component, vertex, offset), so that a
    component that ends sorts before one that goes on.  Flats with the same
    zero coordinates cover the same vertices, so their positions line up.
    """
    vertex = np.argsort(root, axis=1, kind="stable")
    first = np.take_along_axis(root, vertex, axis=1)
    loops = np.where(first < 0, vertex, -1)
    shifted = np.take_along_axis(off, vertex, axis=1)
    starts = first == vertex
    triples = np.stack([~starts, vertex, shifted], axis=2).reshape(len(root), -1)
    keys = np.column_stack([-starts.sum(axis=1), loops, triples])
    # lexsort reads its last key first.
    return np.lexsort(keys[:, ::-1].T)


def _dedupe(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values and each value's index among them.

    This is ``np.unique(values, return_inverse=True)`` on a stable argsort:
    ``np.unique``'s default sort loads numpy's SIMD sort code, which added
    about 1.5 MB to the peak RSS of a poset dump (numpy 2.4, x86-64).
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(len(values), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _cut(code: _CellCode, key: np.ndarray, ijk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut each flat of ``key`` with each plane ``x_i = 2^k x_j`` of ``ijk``.

    Returns ``contains[f, h]``, whether plane h contains flat f, and the
    packed key of the cut flat, meaningful where it does not.  A plane that
    does not contain a flat merges the components of x_i and x_j, or forces
    one component to zero: the nonzero one of x_i, x_j, or their shared
    component when its offsets conflict.  Either way only the cells of
    component ``hi``, the larger of the two roots, change, so the child's key
    is the parent's plus one component sum.
    """
    root, off = code.decode(key)
    weighted = code.cells(root, off) * code.powers
    # Sums over each root's component of the weighted cells and of the digit
    # weights; column n, which root -1 indexes, stays 0.
    comp_cells = np.zeros((len(key), root.shape[1] + 1), dtype=np.int64)
    comp_weight = np.zeros_like(comp_cells)
    for r in range(root.shape[1]):
        in_r = root == r
        comp_cells[:, r] = (weighted * in_r).sum(axis=1)
        comp_weight[:, r] = (code.powers * in_r).sum(axis=1)
    i, j, k = ijk.T
    ri, rj, oi, oj = root[:, i], root[:, j], off[:, i], off[:, j]
    same = ri == rj
    contains = same & ((ri < 0) | (oi == k + oj))
    hi = np.maximum(ri, rj)
    # x_(ri) = 2^(k + oj - oi) x_(rj), so hi's cells move onto lo = min(ri, rj)
    # with their offsets shifted.  The entries np.where drops may wrap; the
    # kept ones are differences of two keys in [0, C^n).
    shift = np.where(ri > rj, 1, -1) * (k + oj - oi)
    delta = np.where(
        ~same & (ri >= 0) & (rj >= 0),
        ((np.minimum(ri, rj) - hi) * code.radix + shift)
        * np.take_along_axis(comp_weight, hi, axis=1),
        -np.take_along_axis(comp_cells, hi, axis=1),
    )
    return contains, key[:, None] + delta


def _mobius(masks: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """Mobius values mu(0, X) of the flats in rank order; rank r holds rows
    ``bounds[r]:bounds[r + 1]``.

    Every flat strictly containing one of rank r has a lower rank, so
    ``mu[rank r] = -(above @ mu[earlier ranks])`` where ``above[b, a]`` says
    ``masks[a]`` is a subset of ``masks[b]``.  The sum of |mu| over a
    central arrangement's flats is its number of regions, so no int64 sum
    overflows.
    """
    mu = np.zeros(len(masks), dtype=np.int64)
    mu[0] = 1  # the ambient flat
    words = masks.shape[1]
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        earlier = masks[:lo]
        step = max(1, BLOCK // (lo * max(words, 1)))
        for b in range(lo, hi, step):
            rows = masks[b : min(b + step, hi)]
            outside = np.zeros((len(rows), lo), dtype=bool)
            for w in range(words):
                outside |= (earlier[:, w] & ~rows[:, w, None]) != 0
            mu[b : b + len(rows)] = -((~outside).astype(np.int64) @ mu[:lo])
    return mu


def charpoly_from_poset(poset: IntersectionPoset, n: int) -> IntPolynomial:
    """Mobius-weighted dimension generating polynomial."""
    coeffs = [0] * (n + 1)
    for dim, mu in zip(poset.dims.tolist(), poset.mu.tolist()):
        coeffs[dim] += mu
    return IntPolynomial(coeffs)
