"""Arrangement specifications and the finite field counting route.

An :class:`ArrangementSpec` describes either a multiplicative arrangement
(coordinate hyperplanes ``x_i = 0`` plus ``x_i = 2^k x_j``) or an additive
deformation of the braid arrangement (``x_i - x_j = k``).  Characteristic
polynomials are recovered by counting points of ``(Z_q)^n`` off all reduced
hyperplanes at several admissible moduli and interpolating exactly.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .numbers import IntPolynomial, shift, zaslavsky

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"

# The budgets of one call, which check_budgets enforces: the steps it takes
# in all, and the int64 entries it holds at once.  The ff kernel builds each
# temporary (words, bools or indices) a chunk of CHUNK_WORDS entries at a time.
WORK_BUDGET = 2 * 10**10
MEMORY_BUDGET = 10**8
CHUNK_WORDS = 1 << 15

# Preset family: flavor, coordinate planes, and the lowest shift as -m plus
# this offset; the highest shift is m.
PRESETS = {
    "A": (MULTIPLICATIVE, True, 0),
    "B": (MULTIPLICATIVE, False, 0),
    "C": (ADDITIVE, False, 0),
    "Gamma": (MULTIPLICATIVE, True, 1),
    "Delta": (MULTIPLICATIVE, False, 1),
}


class InadmissibleModulus(ValueError):
    """The modulus does not satisfy the flavor's admissibility conditions."""


class InterpolationMismatch(ArithmeticError):
    """Interpolated polynomial failed a structural or held-out check."""


class NonIntegerCoefficient(ArithmeticError):
    """Exact interpolation produced a non-integer coefficient."""


class SizeGuard(ValueError):
    """A route refuses a target's size: the work or memory budget of the
    kernel, the poset closure or an enumeration, or the poset's int64 key."""


@dataclass(frozen=True)
class Hyperplane:
    """One hyperplane in canonical form.

    kind "coord": x_i = 0 (multiplicative flavor only).
    kind "pair" (multiplicative flavor): x_i = 2^k x_j with k >= 0; a
    negative shift is stored with i and j swapped so the power is always
    nonnegative.
    kind "diff" (additive flavor): x_i - x_j = k with i < j, k any integer.
    """

    kind: str
    i: int
    j: int = 0
    k: int = 0

    def __str__(self) -> str:
        if self.kind == "coord":
            return f"x{self.i} = 0"
        if self.kind == "pair":
            return f"x{self.i} = 2^{self.k} x{self.j}"
        return f"x{self.i} - x{self.j} = {self.k}"


class ArrangementSpec:
    """Dimension, flavor, per-pair shift sets, and the coordinate flag.

    Immutable after construction.  ``pair_shifts`` maps ordered pairs
    ``(i, j)`` with ``1 <= i < j <= n`` to finite sets of integer shifts;
    missing pairs mean no hyperplane between those coordinates.  A spec from
    :meth:`uniform` holds its one shift set and lists its n(n-1)/2 pairs only
    when ``pair_shifts`` is first read; ``planes``, ``m_max`` and
    ``uniform_shifts``, which the routes' size guards read, list none.
    """

    def __init__(
        self,
        n: int,
        flavor: str,
        pair_shifts: Mapping[tuple[int, int], Iterable[int]] | None = None,
        include_coordinate_hyperplanes: bool = False,
    ):
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if flavor not in (MULTIPLICATIVE, ADDITIVE):
            raise ValueError(f"unknown flavor {flavor!r}")
        if flavor == ADDITIVE and include_coordinate_hyperplanes:
            raise ValueError("coordinate hyperplanes only exist in the multiplicative flavor")
        shifts: dict[tuple[int, int], frozenset[int]] = {}
        for (i, j), values in (pair_shifts or {}).items():
            if not (1 <= i < j <= n):
                raise ValueError(f"pair ({i}, {j}) out of range for n={n}")
            fs = frozenset(int(v) for v in values)
            if fs:
                shifts[(i, j)] = fs
        self.n = n
        self.flavor = flavor
        self.include_coordinate_hyperplanes = include_coordinate_hyperplanes
        self._pairs: dict[tuple[int, int], frozenset[int]] | None = shifts
        sets = set(shifts.values())
        # Largest absolute shift; 0 when there are no pair hyperplanes.
        self.m_max = max((abs(k) for fs in sets for k in fs), default=0)
        full = len(shifts) == n * (n - 1) // 2
        self._uniform: Collection[int] | None = sets.pop() if full and len(sets) == 1 else None

    @classmethod
    def uniform(
        cls,
        n: int,
        shifts: Iterable[int],
        flavor: str = MULTIPLICATIVE,
        include_coordinate_hyperplanes: bool = False,
    ) -> "ArrangementSpec":
        """Same shift set on every coordinate pair, in O(1) for a ``range``
        of shifts: it stays a range, and the pairs are not listed."""
        spec = cls(n, flavor, None, include_coordinate_hyperplanes)
        values = shifts if isinstance(shifts, range) else frozenset(int(v) for v in shifts)
        if n > 1 and values:
            spec._pairs, spec._uniform = None, values
            # |k| is largest at an end of a range.
            ends = (values[0], values[-1]) if isinstance(values, range) else values
            spec.m_max = max(map(abs, ends))
        return spec

    @property
    def pair_shifts(self) -> Mapping[tuple[int, int], frozenset[int]]:
        if self._pairs is None:
            pairs = itertools.combinations(range(1, self.n + 1), 2)
            self._pairs = dict.fromkeys(pairs, frozenset(self._uniform))
        return self._pairs

    @property
    def planes(self) -> int:
        """How many pairs have planes."""
        return self.n * (self.n - 1) // 2 if self._pairs is None else len(self._pairs)

    @property
    def uniform_shifts(self) -> Collection[int] | None:
        """The shift set of every pair (a range for a preset), or None when
        there is no pair or two pairs' sets differ."""
        return self._uniform

    @classmethod
    def preset(cls, name: str) -> "ArrangementSpec":
        """Parse preset strings like ``A:3,2`` or ``Gamma:2,1``.

        A: coordinate hyperplanes plus shifts [-m, m] (multiplicative).
        B: A without the coordinate hyperplanes.
        C: additive shifts [-m, m] (the extended Catalan arrangement).
        Gamma: A with the shift -m removed from every pair.
        Delta: Gamma without the coordinate hyperplanes.
        """
        family, n, m = parse_preset(name)
        flavor, coords, clip = PRESETS[family]
        return cls.uniform(n, range(-m + clip, m + 1), flavor, coords)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ArrangementSpec":
        """Load the CLI spec format: ``{"n", "flavor": "A"|"C", "coords", "shifts"}``.

        Types are checked, never coerced: ``n`` is an integer, ``coords`` a
        boolean (false when absent) and ``shifts`` an object (or absent or
        null) mapping ``"i,j"`` to lists of integers.  Any other key is
        refused, so that a misspelt key is not read as absent.
        """
        if not isinstance(data, Mapping):
            raise ValueError("spec must be a JSON object")
        for key in data:
            if key not in ("n", "flavor", "coords", "shifts"):
                raise ValueError(
                    f"unknown spec key {key!r}; expected 'n', 'flavor', 'coords' or 'shifts'"
                )
        if "n" not in data:
            raise ValueError("spec has no 'n'")
        n = data["n"]
        if not _is_int(n):
            raise ValueError(f"spec 'n' must be an integer, got {n!r}")
        flavor = data.get("flavor")
        if flavor not in ("A", "C"):
            raise ValueError(f"flavor must be 'A' or 'C', got {flavor!r}")
        coords = data.get("coords", False)
        if not isinstance(coords, bool):
            raise ValueError(f"spec 'coords' must be true or false, got {coords!r}")
        shifts = data.get("shifts")
        if shifts is None:
            shifts = {}
        if not isinstance(shifts, Mapping):
            raise ValueError(f"spec 'shifts' must be an object, got {shifts!r}")
        pair_shifts, keys = {}, {}
        for key, values in shifts.items():
            if not isinstance(values, list) or not all(map(_is_int, values)):
                raise ValueError(f"shifts of {key!r} must be a list of integers")
            try:
                i, j = map(int, key.split(","))
            except ValueError:
                raise ValueError(f"bad shifts key {key!r}; expected 'i,j'") from None
            if (i, j) in keys:
                raise ValueError(f"shifts keys {keys[(i, j)]!r} and {key!r} name the same pair")
            pair_shifts[(i, j)], keys[(i, j)] = values, key
        flavor = MULTIPLICATIVE if flavor == "A" else ADDITIVE
        return cls(n, flavor, pair_shifts, coords)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "flavor": "A" if self.flavor == MULTIPLICATIVE else "C",
            "coords": self.include_coordinate_hyperplanes,
            "shifts": {
                f"{i},{j}": sorted(values)
                for (i, j), values in sorted(self.pair_shifts.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"ArrangementSpec(n={self.n}, flavor={self.flavor!r}, "
            f"pairs={self.planes}, coords={self.include_coordinate_hyperplanes})"
        )


def parse_preset(name: str) -> tuple[str, int, int]:
    """Split a preset name like ``A:3,2`` into its family, n and m."""
    try:
        family, params = name.split(":")
        n_text, m_text = params.split(",")
        n, m = int(n_text), int(m_text)
    except ValueError:
        raise ValueError(f"bad preset {name!r}; expected e.g. 'A:3,2'") from None
    if family not in PRESETS or n < 1 or m < 1:
        raise ValueError(f"bad preset {name!r}")
    return family, n, m


def _is_int(value: object) -> bool:
    """An integer that is not a bool, as JSON ``true``/``false`` load as bools."""
    return isinstance(value, int) and not isinstance(value, bool)


def hyperplanes_of(spec: ArrangementSpec) -> list[Hyperplane]:
    """Hyperplane list in canonical order, each plane once.

    Coordinate planes come first, then pair hyperplanes ordered by pair and
    ascending shift.  For the multiplicative flavor a shift k < 0 is stored
    as ``x_j = 2^(-k) x_i`` so that stored powers are nonnegative.  A pair
    (i, j), i < j, and its set of shifts each appear once, and a stored plane's
    first index is the smaller exactly when k >= 0, so no two planes coincide.
    """
    planes: list[Hyperplane] = []
    if spec.flavor == MULTIPLICATIVE and spec.include_coordinate_hyperplanes:
        planes.extend(Hyperplane("coord", i) for i in range(1, spec.n + 1))
    for (i, j), shifts in sorted(spec.pair_shifts.items()):
        for k in sorted(shifts):
            if spec.flavor == MULTIPLICATIVE:
                h = Hyperplane("pair", i, j, k) if k >= 0 else Hyperplane("pair", j, i, -k)
            else:
                h = Hyperplane("diff", i, j, k)
            planes.append(h)
    return planes


def least_modulus(spec: ArrangementSpec) -> int:
    """No smaller modulus is admissible for ``spec``."""
    return spec.n * spec.m_max + (2 if spec.flavor == MULTIPLICATIVE else 1)


def modulus_admissible(spec: ArrangementSpec, q: int) -> bool:
    """Check whether q provably yields the correct point count.

    Any conflict among the hyperplane constraints shows up as a cycle whose
    label sum is nonzero and at most n * m_max in absolute value, so the
    count matches the characteristic polynomial once q clears that bound
    (q - 1 > n * m_max multiplicative, q > n * m_max additive).
    Multiplicative flavor additionally needs q to be an odd prime with 2 a
    primitive root (verified from the factorization of q - 1) so that powers
    of 2 behave like the rationals.
    """
    if q < least_modulus(spec):
        return False
    return spec.flavor == ADDITIVE or (_is_prime(q) and _two_is_primitive_root(q))


def plan_moduli(spec: ArrangementSpec) -> tuple[int, ...]:
    """The n + 2 smallest admissible moduli, in ascending order."""
    start = least_modulus(spec)
    admissible = (q for q in itertools.count(start) if modulus_admissible(spec, q))
    return tuple(itertools.islice(admissible, spec.n + 2))


def check_budgets(context: str, entries: int, work: int, steps: str) -> None:
    """Refuse, with :class:`SizeGuard`, a call that would take more than
    ``WORK_BUDGET`` ``steps`` in all or hold more than ``MEMORY_BUDGET`` int64
    entries at once."""
    if work > WORK_BUDGET:
        raise SizeGuard(f"{context} would take over {WORK_BUDGET} {steps}, the work budget")
    if entries > MEMORY_BUDGET:
        raise SizeGuard(
            f"{context} would hold {entries} int64 entries at once, "
            f"over the memory budget of {MEMORY_BUDGET}"
        )


def check_kernel_cost(spec: ArrangementSpec, moduli: Iterable[int], context: str) -> None:
    """Refuse counts that break a budget (see :func:`check_budgets`), reading
    ``spec``'s n, flavor, coordinate flag, ``planes`` and ``uniform_shifts``
    but none of its pairs.

    Memory: a count allocates n weight vectors of q entries and one q x q
    int64 block per pair with planes, and n q + planes q^2 must stay within
    ``MEMORY_BUDGET`` at every modulus.  Work: with x1 pinned to w values (1
    when additive or with the coordinate planes, else 2) a count takes
    w q^(n-1) steps for n >= 3, and a padded target (n <= 2) pins a padding
    coordinate to its one value and takes q^n.  For n >= 4 each of its
    w q^(n-4) contractions is priced at 3 * 10^4 steps more, which binds
    where q is small and n large (a least-squares fit to traced counts of
    Gamma:4..6, Delta:4..6 and targets without planes at n = 5..9 gave
    25 us a contraction and 0.8 ns a step, so 31,000).  The sorted plan
    takes q^2 steps for its block and w (6 C(r, n-1) + 10^4 C(r, n-4))
    more, r being q - |S|: 6 C(r, n-1) bounds the r'^3 steps of the
    contractions over all pinned tuples, and a pinned value costs 10^4
    steps (a least-squares fit to traced counts of A:5..7, B:5..6 and
    C:5..8 gave 7,500, and a step 0.3 to 1.7 ns, as in the general plan).
    These prices were fitted to the int64 matmul kernel; the packed kernel
    that replaced it takes about as long on small blocks and a thirtieth of
    the time at n = 4, so they over-bound it.
    The sum over ``moduli`` must stay within ``WORK_BUDGET``.  The moduli
    are read in order up to the first excess, so a lazy range for a huge n
    is never listed, and no power past 2^64 is formed.
    """
    n = spec.n
    pinned = 1 if spec.flavor == ADDITIVE or spec.include_coordinate_hyperplanes else 2
    exponent, rows = (n - 1, pinned) if n >= 3 else (n, 1)
    symmetric = _symmetric_shifts(spec)
    work = 0
    for q in moduli:
        # q^e >= 2^64 > WORK_BUDGET once (bit length of q, less 1) * e >= 64.
        if (q.bit_length() - 1) * exponent >= 64:
            work += WORK_BUDGET + 1
        elif symmetric is None:
            contractions = q ** (n - 4) if n >= 4 else 0
            work += rows * (q**exponent + 3 * 10**4 * contractions)
        else:
            r = max(0, q - len(symmetric))
            pins = math.comb(r, n - 4) if n >= 4 else 0
            work += q * q + pinned * (6 * math.comb(r, n - 1) + 10**4 * pins)
        entries = n * q + spec.planes * q * q
        check_budgets(f"{context}: the counts up to q={q}", entries, work, "kernel steps")


def check_countable(spec: ArrangementSpec) -> None:
    """Refuse a target that no n + 2 admissible moduli can count within the
    budgets.  Such moduli are at least the n + 2 integers from
    :func:`least_modulus` on, so this needs no planning."""
    n, start = spec.n, least_modulus(spec)
    check_kernel_cost(
        spec, range(start, start + n + 2),
        f"no {n + 2} admissible moduli fit the kernel budget for n={n}",
    )


def _symmetric_shifts(spec: ArrangementSpec) -> Collection[int] | None:
    """The one shift set S of ``spec`` if S = -S and 0 is in S, else None."""
    shifts = spec.uniform_shifts
    if shifts is None or 0 not in shifts:
        return None
    # A range is symmetric when its ends are.
    ends = (shifts[0], shifts[-1]) if isinstance(shifts, range) else shifts
    return shifts if all(-k in shifts for k in ends) else None


def count_complement_points(spec: ArrangementSpec, q: int) -> int:
    """Number of points of (Z_q)^n on none of the reduced hyperplanes.

    The count splits by the symmetry of the arrangement (the orbit-counting
    step of the finite field method).  Additive planes are invariant under
    x -> x + c(1,...,1), whose orbits have size q and one point with x1 = 0.
    Multiplicative planes are linear, so x -> c x with c in F_q^* acts on
    the points with x1 != 0 in orbits of size q - 1, each with one point at
    x1 = 1; the points with x1 = 0 are counted as they are, unless the
    coordinate planes remove them.  So x1 gets the weight q e_0, (q-1) e_1
    or e_0 + (q-1) e_1, and a count costs w q^(n-1) steps, not q^n.

    Every other coordinate gets a 0/1 weight over Z_q (0 at x = 0 when the
    coordinate planes are present), and each pair a bool block that is False
    on its planes, or, without planes, a read-only broadcast view of ones
    that allocates nothing.  A target with n < 4 is padded with 4 - n
    one-value coordinates that meet no plane, placed after x1, so
    :func:`_count_assignments` always sees four coordinates or more, the last
    with a 0/1 weight, at O(q) cost for n <= 2 and O(q^2 / 64) words for
    n = 3.

    The sorted plan: if every pair has one shift set S = -S with 0 in S, a
    point off the planes has distinct coordinates, and the planes are
    invariant under the permutations of x2..xn.  So the count after x1's pin
    is (n-1)! times the increasing tuples x2 < ... < xn of live values that
    the one block allows pairwise (:func:`_count_increasing`).
    """
    n = spec.n
    check_kernel_cost(spec, (q,), f"q={q} breaks the kernel budget for n={n}")
    if not modulus_admissible(spec, q):
        raise InadmissibleModulus(
            f"q={q} is not admissible for flavor {spec.flavor!r} "
            f"(n={n}, m_max={spec.m_max})"
        )
    weight = np.ones(q, dtype=np.int64)
    first = np.zeros(q, dtype=np.int64)
    if spec.flavor == ADDITIVE:
        first[0] = q
    elif spec.include_coordinate_hyperplanes:
        weight[0] = 0
        first[1] = q - 1
    else:
        first[:2] = 1, q - 1
    cols = np.arange(q)

    def block(shifts: Iterable[int]) -> np.ndarray:
        out = np.ones((q, q), dtype=bool)
        for s in shifts:
            if spec.flavor == MULTIPLICATIVE:
                rows = (pow(2, s % (q - 1), q) * cols) % q
            else:
                rows = (cols + s) % q
            out[rows, cols] = False
        return out

    symmetric = _symmetric_shifts(spec)
    if symmetric is not None:
        allowed, total = block(symmetric), 0
        for value in np.flatnonzero(first):
            live = np.flatnonzero(weight * allowed[value])
            # n = 2 reads only how many values are live
            tri = np.triu(allowed[np.ix_(live, live)], 1) if n > 2 else live
            total += int(first[value]) * _count_increasing(tri, n - 1)
        return math.factorial(n - 1) * total
    # No step writes into a weight vector, so x2..xn share one.
    pad = max(0, 4 - n)
    unary = [first] + [np.ones(1, dtype=np.int64)] * pad + [weight] * (n - 1)
    coordinate = [1] + [0] * pad + list(range(2, n + 1))
    pair: dict[tuple[int, int], np.ndarray] = {}
    for a, b in itertools.combinations(range(len(unary)), 2):
        shifts = spec.pair_shifts.get((coordinate[a], coordinate[b]))
        ones = np.broadcast_to(True, (len(unary[a]), len(unary[b])))
        pair[(a, b)] = ones if shifts is None else block(shifts)
    return _count_assignments(unary, pair)


def _count_assignments(
    unary: list[np.ndarray], pair: dict[tuple[int, int], np.ndarray]
) -> int:
    """Sum over assignments of the product of unary weights and pair blocks.

    Coordinate 0 is pinned to each value of nonzero weight, its rows of the
    blocks (0, t) folded into the weights, until four are left.  Those, (a,
    b, c, d), are summed as ``w0[a] w1[b] w2[c] B01[a, b] B02[a, c] B12[b, c]
    popcount(D0[a] & D1[b] & D2[c])``, D_t being the rows of block (t, 3)
    times the 0/1 weight w3, packed by :func:`_pack`: the edge-iterating
    clique count (Chiba and Nishizeki, SIAM J. Comput. 14 (1985)) with
    word-parallel intersection.  The pairs (a, b) are listed a chunk of a at
    a time, and a chunk of pairs meets a chunk of D2's rows at once, so that
    a temporary holds at most ``CHUNK_WORDS`` entries (or one row of a
    block).  Only x1's weight exceeds 1, and its entries sum to q, so an
    int64 sum is at most q^min(n, 4): under the work budget at most
    2 * 10^10 for n >= 4 and below 3 * 10^15 for n <= 3 (q < 141422), far
    below 2^63.
    """
    if len(unary) > 4:
        rest = {(a - 1, b - 1): block for (a, b), block in pair.items() if a > 0}
        total = 0
        for value in np.flatnonzero(unary[0]):
            pinned = [unary[t] * pair[(0, t)][value] for t in range(1, len(unary))]
            total += int(unary[0][value]) * _count_assignments(pinned, rest)
        return total
    live = np.flatnonzero(unary[0])
    rows = [_pack(pair[(t, 3)][live if t == 0 else slice(None)], unary[3]) for t in range(3)]
    return _count_four(unary[:3], live, [pair[(0, 1)], pair[(0, 2)], pair[(1, 2)]], rows)


def _count_four(weights: Sequence[np.ndarray], live: np.ndarray,
                blocks: Sequence[np.ndarray], rows: Sequence[np.ndarray]) -> int:
    """:func:`_count_assignments` of four coordinates from the weights (w0,
    w1, w2), ``live``, the values of nonzero w0, the blocks (B01, B02, B12)
    and the packed rows (D0 on ``live``, D1, D2)."""
    (w0, w1, w2), (b01, b02, b12), (d0, d1, d2) = weights, blocks, rows
    words = max(1, len(d2))
    width = max(1, min(len(w2), CHUNK_WORDS // words))  # values of c a chunk meets
    step = max(1, CHUNK_WORDS // max(1, len(w1)))
    pairs = max(1, CHUNK_WORDS // (words * width))
    total = 0
    for start in range(0, len(live), step):
        a, b = np.nonzero(b01[live[start : start + step]] & (w1 != 0))
        a += start
        for s in range(0, len(a), pairs):
            pa, pb = a[s : s + pairs], b[s : s + pairs]
            both, weight = d0[:, pa] & d1[:, pb], w0[live[pa]] * w1[pb]
            for c in range(0, len(w2), width):
                cols = slice(c, c + width)
                meet = both[:, :, None] & d2[:, None, cols]  # runs along c
                count = np.bitwise_count(meet).sum(axis=0, dtype=np.uint32)
                count *= b02[live[pa], cols] & b12[pb, cols]
                total += int(weight @ np.einsum("pc,c->p", count, w2[cols]))
    return total


def _count_increasing(tri: np.ndarray, k: int) -> int:
    """Increasing k-tuples of rows of ``tri``, a strict upper triangle of 0/1,
    with ``tri[i, j] = 1`` at every two of them: values are pinned in order,
    each keeping the later values it allows, until four are left, which
    :func:`_count_four` counts once each with ``tri`` as every block (three
    behind a one-value coordinate that allows every row)."""
    if k < 3:
        return int(tri.sum()) if k == 2 else len(tri)
    if tri.sum() < k * (k - 1) // 2:  # fewer edges than a k-tuple has
        return 0
    if k > 4:
        total = 0
        for i in range(len(tri) - k + 1):
            later = tri[i].nonzero()[0]
            if len(later) >= k - 1:
                total += _count_increasing(tri[later][:, later], k - 1)
        return total
    ones = np.ones(len(tri), dtype=np.int64)
    rows = _pack(tri, ones)
    if k == 4:
        return _count_four([ones] * 3, np.arange(len(tri)), [tri] * 3, [rows] * 3)
    every = np.ones((1, len(tri)), dtype=bool)
    return _count_four([ones[:1], ones, ones], np.arange(1), [every, every, tri],
                       [_pack(every, ones), rows, rows])


def _pack(block: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The rows of a 0/1 ``block`` times the 0/1 ``weight`` of its columns as
    bitsets of uint64 words (padding bits 0), one column of words a row,
    packed a chunk at a time; the rows of a broadcast view are packed once."""
    rows, cols = block.shape
    if rows > 1 and block.strides[0] == 0:
        return np.broadcast_to(_pack(block[:1], weight), (-(-cols // 64), rows))
    out = np.zeros((rows, -(-cols // 64)), dtype=np.uint64)
    step = max(1, CHUNK_WORDS // max(1, cols))
    for start in range(0, rows, step):
        bits = (block[start : start + step] != 0) & (weight != 0)
        out.view(np.uint8)[start : start + step, : -(-cols // 8)] = np.packbits(bits, axis=1)
    return np.ascontiguousarray(out.T)


def charpoly_ff(
    spec: ArrangementSpec, moduli: Sequence[int] | None = None
) -> IntPolynomial:
    """Characteristic polynomial via counting and exact interpolation.

    Counts at n + 1 admissible moduli fix the unique polynomial of degree at
    most n; the result must pass ``_check_interpolant`` and must reproduce
    the count at a held-out (n+2)-th modulus.  A target whose
    n + 2 counts would break a kernel budget is refused before any count,
    and one that no n + 2 admissible moduli could fit before planning.  An
    override meets the budgets before its moduli are tested for admissibility.
    """
    n = spec.n
    check_countable(spec)
    if moduli is None:
        qs = list(plan_moduli(spec))
    else:
        qs = sorted(set(int(q) for q in moduli))
        if len(qs) < n + 2:
            raise ValueError(
                f"need at least {n + 2} moduli for degree {n} plus a held-out check, "
                f"got {len(qs)}"
            )
    check_kernel_cost(spec, qs, f"moduli up to {qs[-1]} break the kernel budget for n={n}")
    if moduli is not None:
        for q in qs:
            if not modulus_admissible(spec, q):
                raise InadmissibleModulus(f"override modulus {q} is inadmissible")
    nodes = qs[: n + 1]
    counts = [count_complement_points(spec, q) for q in nodes]
    poly = _lagrange_interpolate(nodes, counts)
    _check_interpolant(spec, poly)
    held_out = qs[n + 1]
    expected = count_complement_points(spec, held_out)
    if poly(held_out) != expected:
        raise InterpolationMismatch(
            f"held-out check failed at q={held_out}: poly gives {poly(held_out)}, "
            f"count gives {expected}"
        )
    return poly


def _check_interpolant(spec: ArrangementSpec, poly: IntPolynomial) -> None:
    """The shape every characteristic polynomial of ``spec`` has (Stanley,
    *An Introduction to Hyperplane Arrangements*, Lect. 1-2): monic of degree
    n with alternating signs and, when the target has a plane, divisible by
    t - 1 if multiplicative (the planes are linear, so the arrangement is
    central) and by t if additive (every plane contains the line along
    (1, ..., 1))."""
    n = spec.n
    if not poly.is_monic_of_degree(n):
        raise InterpolationMismatch(
            f"interpolant {poly} is not monic of degree {n}; moduli too small?"
        )
    if not poly.has_alternating_signs(n):
        raise InterpolationMismatch(f"interpolant {poly} has non-alternating signs")
    if not (spec.planes or spec.include_coordinate_hyperplanes):
        return
    if spec.flavor == MULTIPLICATIVE and poly(1) != 0:
        raise InterpolationMismatch(
            f"interpolant {poly} is not divisible by t - 1, as a central arrangement's is"
        )
    if spec.flavor == ADDITIVE and poly.coefficient(0) != 0:
        raise InterpolationMismatch(
            f"interpolant {poly} is not divisible by t, as a translation-invariant "
            "arrangement's is"
        )


def verify_shift_theorem(
    n: int,
    pair_shifts: Mapping[tuple[int, int], Iterable[int]],
    moduli: Sequence[int] | None = None,
) -> bool:
    """Check that the multiplicative polynomial equals the additive one at t - 1.

    Both arrangements are built from the same shift tuple; the multiplicative
    side carries the coordinate hyperplanes, the additive side has none.
    """
    mult = ArrangementSpec(n, MULTIPLICATIVE, pair_shifts, True)
    add = ArrangementSpec(n, ADDITIVE, pair_shifts, False)
    return charpoly_ff(mult, moduli) == shift(charpoly_ff(add, moduli), -1)


def regions_convolution_check(shifts: Iterable[int], n: int) -> bool:
    """True iff r(mult_n) equals sum over k of C(n,k) r(add_k) r(add_{n-k}).

    Uses the uniform shift set on all pairs; the k = 0 term contributes the
    one-region empty arrangement.
    """
    values = frozenset(shifts)
    additive_regions = [1]  # index k
    for k in range(1, n + 1):
        spec_k = ArrangementSpec.uniform(k, values, ADDITIVE, False)
        additive_regions.append(zaslavsky(charpoly_ff(spec_k), k))
    mult = ArrangementSpec.uniform(n, values, MULTIPLICATIVE, True)
    lhs = zaslavsky(charpoly_ff(mult), n)
    rhs = sum(
        math.comb(n, k) * additive_regions[k] * additive_regions[n - k]
        for k in range(n + 1)
    )
    return lhs == rhs


def _lagrange_interpolate(xs: Sequence[int], ys: Sequence[int]) -> IntPolynomial:
    """Exact Lagrange interpolation over the rationals; rejects non-integers."""
    size = len(xs)
    coeffs = [Fraction(0)] * size
    for i in range(size):
        basis = [Fraction(1)]
        denominator = 1
        for j in range(size):
            if j == i:
                continue
            # basis <- basis * (t - xs[j])
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, b in enumerate(basis):
                nxt[d + 1] += b
                nxt[d] -= xs[j] * b
            basis = nxt
            denominator *= xs[i] - xs[j]
        scale = Fraction(ys[i], denominator)
        for d, b in enumerate(basis):
            coeffs[d] += b * scale
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise NonIntegerCoefficient(f"coefficient {c} is not an integer")
        out.append(int(c))
    return IntPolynomial(out)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def _prime_factors(x: int) -> set[int]:
    factors = set()
    f = 2
    while f * f <= x:
        while x % f == 0:
            factors.add(f)
            x //= f
        f += 1
    if x > 1:
        factors.add(x)
    return factors


def _two_is_primitive_root(q: int) -> bool:
    """ord(2) == q - 1 for odd prime q, via the factorization of q - 1."""
    if q == 2:
        return False
    return all(pow(2, (q - 1) // p, q) != 1 for p in _prime_factors(q - 1))
