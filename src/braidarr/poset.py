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
gives, per (flat, plane) pair, whether the plane contains the flat or else
the key of the child flat.  Every hyperplane passes through the origin, so a
plane that does not contain a flat X cuts it in a flat one dimension lower,
and these (X, plane, child) cuts give exactly the Hasse covers; they are
recorded as the closure finds them.  The same cuts give the Mobius values,
by Weisner's theorem (see :func:`build_poset`), so no two flats are ever
compared.  Every array is an integer array; there is no floating point
anywhere.
"""
from __future__ import annotations

import numpy as np

from .arrangements import MULTIPLICATIVE, ArrangementSpec, SizeGuard, check_budgets, hyperplanes_of
from .numbers import IntPolynomial

# (flat, plane) pairs per closure step; bounds each temporary array of _cut
# to 256 KB.
BLOCK = 1 << 15
# int64 entries per (flat, plane) pair at the peak of cutting a rank, in the
# children's _dedupe: the int32 parents and planes of the cuts, the child keys
# (sorted in place), their argsort with its merge buffer, the inverse and the
# distinct children, beside the earlier ranks' keys, Mobius values and edges.
# Peaks per pair of the largest rank cut, tracemalloc / ru_maxrss less the
# interpreter (numpy 2.4, x86-64): A:5,2 4.95 / 5.7-6.6, A:5,4 4.56 / 6.5,
# A:6,1 4.50 / 5.7-7.1, A:6,2 5.21 / 7.0; this is the largest, rounded up.
CUT_ENTRIES = 8
# int64 entries per printed number (2n + 3 or fewer per flat, 2 per edge) at
# the JSON dump's peak.  Traced, tracemalloc / ru_maxrss less the RSS before
# the dump: A:6,1 10.3 / 10.0, A:5,4 10.6 / 10.0, A:6,2 10.5 / 10.1, rounded
# up here; the encoder's buffer of small strings adds a few MB at any size.
DUMP_ENTRIES = 11


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

    def to_json_dict(self) -> dict:
        """The JSON form, refused if its dump breaks a budget (``DUMP_ENTRIES``)."""
        numbers = len(self) * (2 * self.root.shape[1] + 3) + 2 * len(self.edges)
        check_budgets("the poset's JSON dump", DUMP_ENTRIES * numbers, numbers, "numbers")
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
    (see :class:`_CellCode`) overflow int64 when offsets reach ``bound``."""
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

    Rank r + 1 is every child of a rank-r flat.  Each (flat, plane) pair whose
    plane does not contain the flat is a cut: it gives a child one dimension
    lower and the cover edge (flat, child).  Children are de-duplicated on
    their packed keys, and then :func:`check_budgets` refuses the new rank if
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
    # B of _CellCode, from the shifts, so that no plane is listed before the
    # check, nor a uniform spec's pairs.
    if spec.uniform_shifts is not None:
        bound = (n - 1) * spec.m_max
    else:
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
    key, mu = np.array([ambient @ code.powers]), np.ones(1, dtype=np.int64)
    keys, mus, edges = [], [], []
    start = work = 0
    step = max(1, BLOCK // max(len(planes), 1))
    while len(key):
        keys.append(key)
        mus.append(mu)
        # The parent, plane and child key of each cut, one block per step.
        # The budget keeps a rank's flats, and so parent indices, in int32.
        cuts = ([], [], [])
        for lo in range(0, len(key), step):
            contains, child = _cut(code, key[lo : lo + step], ijk)
            parent, plane = np.nonzero(~contains)
            cuts[0].append((parent + lo).astype(np.int32))
            cuts[1].append(plane.astype(np.int32))
            cuts[2].append(child[~contains])
        parent, plane, cut = map(np.concatenate, cuts)
        del cuts
        children, child = _dedupe(cut)
        del cut
        # The children are cut next.
        work += len(children) * len(planes)
        check_budgets(
            f"the poset's rank {len(keys)} ({len(children)} flats)",
            CUT_ENTRIES * len(children) * len(planes), work, "(flat, plane) cuts",
        )
        # Weisner's sum for each child X over the cuts (Y, h(X)) into it.
        lowest = np.full(len(children), len(planes), dtype=np.int32)
        np.minimum.at(lowest, child, plane)
        weisner = plane == lowest[child]
        mu_children = np.zeros(len(children), dtype=np.int64)
        np.subtract.at(mu_children, child[weisner], mu[parent[weisner]])
        # Two planes can cut a flat in the same child: one edge per pair.
        pairs = parent.astype(np.int64) * len(children) + child
        pairs.sort(kind="stable")
        parent, child = np.divmod(pairs[_firsts(pairs)], len(children))
        edges.append(np.stack([start + parent, start + len(key) + child], axis=1))
        start += len(key)
        key, mu = children, mu_children

    root, off = code.decode(np.concatenate(keys))
    order = _order(root, off)
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    covers = position[np.concatenate(edges)]
    covers = covers[np.lexsort((covers[:, 1], covers[:, 0]))]
    return IntersectionPoset(root[order], off[order], np.concatenate(mus)[order], covers)


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


def charpoly_from_poset(poset: IntersectionPoset, n: int) -> IntPolynomial:
    """Mobius-weighted dimension generating polynomial."""
    coeffs = [0] * (n + 1)
    for dim, mu in zip(poset.dims.tolist(), poset.mu.tolist()):
        coeffs[dim] += mu
    return IntPolynomial(coeffs)
