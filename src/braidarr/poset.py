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
cut.  The planes are the int64 rows (i, j, k) of ``hyperplanes_of``, each
x_i = 2^k x_j, the coordinate plane x_i = 0 being the row (i, i, 1), so one
rule cuts both kinds.  One vectorised step over every flat of a rank and
every plane gives, per (flat, plane) pair, whether the plane contains the
flat or else the key of the child flat.  Every hyperplane passes through the
origin, so a plane that does not contain a flat X cuts it in a flat one
dimension lower, and these (X, plane, child) cuts give exactly the Hasse
covers; they are recorded as the closure finds them.  The same cuts give
the Mobius values, by Weisner's theorem (see :func:`_ranks`), so no two
flats are ever compared.  Every array is an integer array; there is no
floating point anywhere.
"""
from __future__ import annotations

import json
from typing import Iterator

import numpy as np

from .arrangements import (
    MULTIPLICATIVE, ArrangementSpec, SizeGuard, check_budgets, hyperplanes_of, index_chunks,
)
from .numbers import IntPolynomial
from .sketches import _digits, byte_cells

# int64 entries per (flat, plane) pair at the peak of cutting a rank, in the
# children's _dedupe: the int32 parents and planes of the cuts, the child keys
# (sorted in place), their argsort with its merge buffer, the inverse and the
# distinct children, beside the earlier ranks' keys, Mobius values and edges.
# Peaks per pair of the largest rank cut, tracemalloc / ru_maxrss less the
# interpreter (numpy 2.4, x86-64): A:5,2 4.95 / 5.7-6.6, A:5,4 4.56 / 6.5,
# A:6,1 4.50 / 5.7-7.1, A:6,2 5.21 / 7.0; this is the largest, rounded up.
CUT_ENTRIES = 8
# int64 entries per printed number (2n + 3 or fewer per flat, 2 per edge) at
# the JSON dump's peak, building its id tables (about 4 bytes a number; a chunk
# takes 2 MB).  Traced, tracemalloc / ru_maxrss less the RSS before the dump:
# A:6,1 0.46 / 0.47, A:5,4 0.51 / 0.58, A:6,2 0.48 / 0.52; 3 dates from 12-15 MB chunks.
DUMP_ENTRIES = 3


class IntersectionPoset:
    """All flats of an arrangement with Mobius values and the Hasse relation.

    Node a is row a of ``root`` and ``off``: coordinate v + 1 is zero on the
    flat when ``root[a, v]`` is -1, and otherwise ``x_(v+1) = 2^off[a, v] *
    x_(r+1)`` with r = ``root[a, v]`` the first vertex of v's component
    (all 0-based).  ``dims[a]`` is the flat's dimension and ``mu[a]`` its
    Mobius value.  Nodes are sorted by descending dimension (ambient space
    first), then by sorted zero coordinates, then by components (see
    :func:`_order`), so node order is deterministic.  ``edges`` are the
    sorted Hasse cover pairs (a, b) the closure found: a is a flat and b the
    flat one dimension lower that a plane cuts from it.
    """

    def __init__(self, root: np.ndarray, off: np.ndarray, mu: np.ndarray, edges: np.ndarray):
        self.root, self.off, self.mu, self.edges = root, off, mu, edges
        self.dims = (root == np.arange(root.shape[1])).sum(axis=1)

    def __len__(self) -> int:
        return len(self.mu)

    def json_chunks(self, target: str) -> Iterator[str]:
        """``json.dumps`` of ``{"flats", "hasse": edges, "n", "target"}``, keys
        sorted, in chunks, after the budget check (``DUMP_ENTRIES``).  Flat a
        is ``{"components", "dim", "id": a, "loops", "mu"}`` (vertices 1-based,
        ids 0-based): n component slots, dim and id, and n loop slots, read in
        a stable argsort of its roots (loops, then components) and gathered a
        chunk of rows at a time from uint8 text tables, NULs then dropped."""
        n, count = self.root.shape[1], len(self)
        numbers = count * (2 * n + 3) + 2 * len(self.edges)
        check_budgets("the poset's JSON dump", DUMP_ENTRIES * numbers, numbers, "numbers")
        v, ids, slot = np.arange(1, n + 1), np.arange(count), np.arange(n)
        # Cell 0 is empty; a slot opens the first component, a later one, or goes on.
        heads = byte_cells(["", *(_digits(v, p, ", ") for p in ("[[", "], [[", ", ["))])
        loops = byte_cells(["", _digits(v), _digits(v, ", ")])
        dims = byte_cells(['], "dim": 0, "id": ', _digits(v, ']], "dim": ', ', "id": ')])
        covers = byte_cells([_digits(ids, ", [", ", "), _digits(ids, "", "]")])  # a, count + b
        ids = byte_cells([_digits(ids, "", ', "loops": [')])
        # Every flat and cover starts with ", ", which each list's first chunk cuts.
        yield '{"flats": ['
        for rows in index_chunks(count, 2 * n + 3):
            vertex = np.argsort(self.root[rows], axis=1, kind="stable")
            first = np.take_along_axis(self.root[rows], vertex, axis=1)
            loop = first < 0
            opened = loop.sum(axis=1, keepdims=True)  # the first component's slot
            head = np.where(first == vertex, np.where(slot == opened, 0, 1), 2) * n + vertex + 1
            head = heads[np.where(loop, 0, head)].view(np.uint8).reshape(len(vertex), n, -1)
            offsets = _digits(np.take_along_axis(self.off[rows], vertex, axis=1).ravel(), "", "]")
            offsets = offsets.reshape(len(vertex), n, -1) * ~loop[:, :, None]
            text = [np.tile(np.frombuffer(b', {"components": [', np.uint8), (len(vertex), 1)),
                    np.concatenate([head, offsets], axis=2), dims[self.dims[rows]], ids[rows],
                    loops[np.where(slot < opened, vertex + 1 + n * (slot > 0), 0)],
                    _digits(self.mu[rows], '], "mu": ', "}")]
            text = np.hstack([t.view(np.uint8).reshape(len(vertex), -1) for t in text])
            yield text.tobytes().translate(None, b"\0").decode("ascii")[2 * (rows[0] == 0) :]
        yield '], "hasse": ['
        for rows in index_chunks(len(self.edges), 2):
            text = covers[self.edges[rows] + [0, count]].tobytes()
            yield text.translate(None, b"\0").decode("ascii")[2 * (rows[0] == 0) :]
        yield f'], "n": {n}, "target": {json.dumps(target)}}}'


class _CellCode:
    """The packing of a flat's cells into one int64 key, after refusing an
    additive spec, or, with :class:`SizeGuard`, one whose keys overflow.

    A cell is 0 when its coordinate is zero and ``(root + 1) * R + off + B``
    otherwise; the key is the base-C number whose digit v is cell v, with
    ``R = 2B + 1`` and ``C = (n + 1) R``.  An offset is a sum of plane shifts
    along a path in a tree of merges, whose edges join distinct coordinate
    pairs, so B, the sum of the n - 1 largest per-pair shifts, bounds
    ``|off|`` and every key lies in [0, C^n), which must fit in an int64.  B
    is read off the shifts, so that no plane is listed before the check, nor
    a uniform spec's pairs.
    """

    def __init__(self, spec: ArrangementSpec):
        if spec.flavor != MULTIPLICATIVE:
            raise ValueError("posets are built for multiplicative arrangements only")
        n = spec.n
        if spec.uniform_shifts is not None:
            self.bound = (n - 1) * spec.m_max
        else:
            largest = sorted((max(map(abs, ks)) for ks in spec.pair_shifts.values()), reverse=True)
            self.bound = sum(largest[: n - 1])
        self.radix = 2 * self.bound + 1
        self.base = (n + 1) * self.radix
        # C^n >= 2^63 once (bit length of C, less 1) * n >= 63, so C^n is
        # formed only for n < 63 and a huge n is refused at once.
        if (self.base.bit_length() - 1) * n >= 63 or self.base**n > np.iinfo(np.int64).max:
            raise SizeGuard(
                f"n={n} or its shifts are too large for the poset route: offsets reach "
                f"{self.bound}, and a flat's {n} cells must pack into one int64 key"
            )
        self.powers = self.base ** np.arange(n, dtype=np.int64)

    def cells(self, root: np.ndarray, off: np.ndarray) -> np.ndarray:
        return np.where(root < 0, 0, (root + 1) * self.radix + off + self.bound)

    def decode(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cells = keys[:, None] // self.powers % self.base
        root = cells // self.radix - 1
        return root, np.where(root < 0, 0, cells % self.radix - self.bound)


def build_poset(spec: ArrangementSpec) -> IntersectionPoset:
    """All flats of ``spec`` from :func:`_ranks`, in the node order of
    :func:`_order`, with one cover per (parent, child) pair of cuts."""
    code = _CellCode(spec)
    keys, mus, edges = [], [], []
    above = start = 0
    for key, mu, parent, child in _ranks(spec, code):
        pairs = parent.astype(np.int64) * len(key) + child
        pairs.sort(kind="stable")
        parent, child = np.divmod(pairs[_firsts(pairs)], len(key))
        edges.append(np.stack([above + parent, start + child], axis=1))
        keys.append(key)
        mus.append(mu)
        above, start = start, start + len(key)
        del pairs, parent, child  # not held through the next rank's cut

    root, off = code.decode(np.concatenate(keys))
    order = _order(root, off)
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    # sorted as one int64 key each, a sort of one column
    covers = position[np.concatenate(edges)]
    covers = covers[:, 0] * len(order) + covers[:, 1]
    covers.sort(kind="stable")
    covers = np.stack(np.divmod(covers, len(order)), axis=1)
    return IntersectionPoset(root[order], off[order], np.concatenate(mus)[order], covers)


def rank_sums(spec: ArrangementSpec) -> tuple[list[int], IntPolynomial]:
    """The flats of each rank r (of dimension n - r) and chi, the sum of
    mu(X) t^dim(X), summed as :func:`_ranks` closes each rank."""
    counts, coeffs = [], [0] * (spec.n + 1)
    for key, mu, parent, child in _ranks(spec, _CellCode(spec)):
        coeffs[spec.n - len(counts)] = int(mu.sum())
        counts.append(len(key))
        del parent, child  # not held through the next rank's cut
    return counts, IntPolynomial(coeffs)


def _ranks(spec: ArrangementSpec, code: _CellCode) -> Iterator[tuple[np.ndarray, ...]]:
    """The flats of ``spec``, closed rank by rank from the ambient flat.

    Yields each rank's sorted keys, Mobius values, and the cuts into it as
    parent indices in the rank above and child indices in this one.  Rank
    r + 1 is every child of a rank-r flat.  Each (flat, plane) pair whose
    plane does not contain the flat is a cut: it gives a child one dimension
    lower, and the cover (flat, child).  Children are de-duplicated on their
    packed keys, and then :func:`check_budgets` refuses the new rank if
    cutting it breaks a budget (the ambient flat's cut is no larger than the
    plane list).

    Mobius values come from the cuts by Weisner's theorem (Stanley, EC I,
    ch. 3): in a finite lattice, the mu(0, y) with y v a = x sum to 0 for
    any atom a <= x.  The flats under reverse inclusion form a geometric
    lattice whose atoms are the planes (all pass through the origin), and
    Y v H is Y cut by H.  Take for H the smallest plane h(X) cut into X.  A
    Y with Y v H = X != Y is not contained in H, so X covers Y by
    semimodularity, and ``mu(X) = -sum mu(Y)`` over the cuts (Y, h(X)) into
    X.  A partial sum is at most the rank above's sum of |mu|, a coefficient
    of chi, at most the number of regions, so the int64 sums are exact.
    """
    n = spec.n
    ijk = hyperplanes_of(spec)
    ambient = code.cells(np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    key, mu = np.array([ambient @ code.powers]), np.ones(1, dtype=np.int64)
    parent = child = np.zeros(0, dtype=np.int64)
    rank = work = 0
    while len(key):
        yield key, mu, parent, child
        del parent, child  # the consumer's now, not held through the next cut
        rank += 1
        # The parent, plane and child key of each cut, a chunk of flats a step.
        # The budget keeps a rank's flats, and so parent indices, in int32.
        cuts = ([], [], [])
        for rows in index_chunks(len(key), len(ijk)):
            contains, cut = _cut(code, key[rows], ijk)
            parent, plane = np.nonzero(~contains)
            cuts[0].append(rows[parent].astype(np.int32))
            cuts[1].append(plane.astype(np.int32))
            cuts[2].append(cut[~contains])
        parent, plane, cut = map(np.concatenate, cuts)
        del cuts
        children, child = _dedupe(cut)
        del cut
        # The children are cut next.
        work += len(children) * len(ijk)
        check_budgets(
            f"the poset's rank {rank} ({len(children)} flats)",
            CUT_ENTRIES * len(children) * len(ijk), work, "(flat, plane) cuts",
        )
        # Weisner's sum for each child X over the cuts (Y, h(X)) into it.
        lowest = np.full(len(children), len(ijk), dtype=np.int32)
        np.minimum.at(lowest, child, plane)
        weisner = plane == lowest[child]
        mu_children = np.zeros(len(children), dtype=np.int64)
        np.subtract.at(mu_children, child[weisner], mu[parent[weisner]])
        key, mu = children, mu_children


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
    """The sorted distinct values and each value's index among them; the
    int64 ``values`` are overwritten, so that no copy of them is held.

    This is ``np.unique(values, return_inverse=True)`` on a stable argsort:
    ``np.unique``'s default sort loads numpy's SIMD sort code, which added
    about 1.5 MB to the peak RSS of a poset dump (numpy 2.4, x86-64).
    """
    order = np.argsort(values, kind="stable")
    values[:] = values[order]
    first = _firsts(values)
    distinct = values[first]
    # Each sorted value's index among the distinct ones.
    np.cumsum(first, out=values)
    values -= 1
    inverse = np.empty_like(values)
    inverse[order] = values
    return distinct, inverse


def _firsts(ordered: np.ndarray) -> np.ndarray:
    """Whether each value of a sorted array differs from the one before."""
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return first


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
    # weights.  Zero coordinates (root -1) land in column n, which no cut reads.
    comp_cells = np.zeros((len(key), root.shape[1] + 1), dtype=np.int64)
    comp_weight = np.zeros_like(comp_cells)
    rows = np.arange(len(key))[:, None]
    np.add.at(comp_cells, (rows, root), weighted)
    np.add.at(comp_weight, (rows, root), code.powers)
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
