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
from fractions import Fraction
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .numbers import IntPolynomial, shift

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"

# The budgets of one call, which check_budgets enforces: the steps it takes
# in all, and the int64 entries it holds at once.  Every chunked loop, the ff
# kernel's and index_chunks', builds each temporary a chunk of CHUNK_WORDS.
WORK_BUDGET = 2 * 10**10
MEMORY_BUDGET = 10**8
CHUNK_WORDS = 1 << 15


def index_chunks(count: int, width: int) -> Iterator[np.ndarray]:
    """The int64 indices 0 to ``count - 1``, ``CHUNK_WORDS // width`` (at least 1) at a time."""
    step = max(1, CHUNK_WORDS // max(1, width))
    for start in range(0, count, step):
        yield np.arange(start, min(start + step, count))


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
    """Exact interpolation gave a non-integer coefficient, or its polynomial
    failed a structural or held-out check."""


class SizeGuard(ValueError):
    """A route refuses a target's size: the work or memory budget of the
    kernel, the poset closure or an enumeration, or the poset's int64 key."""


class ArrangementSpec:
    """Dimension, flavor, per-pair shift sets, and the coordinate flag.

    Immutable after construction.  ``pair_shifts`` maps ordered pairs
    ``(i, j)`` with ``1 <= i < j <= n`` to finite sets of integer shifts;
    missing pairs mean no hyperplane between those coordinates.  A spec from
    :meth:`uniform` holds its one shift set and lists its n(n-1)/2 pairs only
    when ``pair_shifts`` is first read; ``pairs``, ``m_max`` and
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
                raise ValueError(f"pair ({i}, {j}) out of range: need 1 <= i < j <= {n}")
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
    def pairs(self) -> int:
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
            f"pairs={self.pairs}, coords={self.include_coordinate_hyperplanes})"
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


def hyperplanes_of(spec: ArrangementSpec) -> np.ndarray:
    """The planes as int64 rows (i, j, k) in canonical order, each plane once.

    Coordinates are 0-based.  Multiplicative, a row is x_i = 2^k x_j with
    k >= 0, a shift k < 0 being stored as (j, i, -k); the coordinate plane
    x_i = 0 is the row (i, i, 1), as x_i = 2 x_i holds exactly when x_i = 0
    (the loop at i with gain 2 of the gain graph), so one rule reads both
    kinds.  Additive, a row is x_i - x_j = k with i < j.  Coordinate planes
    come first, then pair planes by pair and ascending shift.  A pair (i, j),
    i < j, and its set of shifts each appear once, and a multiplicative row's
    first index is the smaller exactly when k >= 0, so no two rows coincide.
    A shift past int64 raises OverflowError; both readers refuse it first.
    """
    rows = [(i, i, 1) for i in range(spec.n)] if spec.include_coordinate_hyperplanes else []
    for (i, j), shifts in sorted(spec.pair_shifts.items()):
        for k in sorted(shifts):
            swap = spec.flavor == MULTIPLICATIVE and k < 0
            rows.append((j - 1, i - 1, -k) if swap else (i - 1, j - 1, k))
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def least_modulus(spec: ArrangementSpec) -> int:
    """No smaller modulus is admissible for ``spec``."""
    return spec.n * spec.m_max + (2 if spec.flavor == MULTIPLICATIVE else 1)


def _refusal(spec: ArrangementSpec, q: int) -> str | None:
    """Why the count at q may differ from chi(q), or None if it cannot.

    The count is chi(q) while reduction mod q keeps the intersection lattice
    (Athanasiadis, Adv. Math. 122 (1996)), whose flats are fixed by which
    cycles of planes are balanced (Zaslavsky, "Biased graphs", JCTB 1989-95).
    A cycle's shift sum s has |s| <= n m_max.  Additive, it is balanced mod q
    when q | s, so q > n m_max keeps the lattice; multiplicative, a gain cycle
    over the powers of 2, when ord_q(2) | s, so an odd prime q with ord_q(2) >
    n m_max does.  Primality is a base-2 Fermat screen, then odd trial
    division, at most about 5,000 divisions: a counted q has met the memory
    price n q <= 10^8 of :meth:`_Plan.check`, which runs first.
    """
    if q < least_modulus(spec):
        return f"it is below least_modulus = {least_modulus(spec)}"
    if spec.flavor == ADDITIVE:
        return None
    if pow(2, q - 1, q) != 1 or any(q % f == 0 for f in range(3, math.isqrt(q) + 1, 2)):
        return "it is not an odd prime"
    order, bound = q - 1, spec.n * spec.m_max
    for p in _prime_factors(q - 1):
        while order % p == 0 and pow(2, order // p, q) == 1:
            order //= p
    return None if order > bound else f"2 has order {order} mod {q}, not above n*m_max = {bound}"


def plan_moduli(spec: ArrangementSpec) -> tuple[int, ...]:
    """The n + 2 smallest admissible moduli, in ascending order."""
    start = least_modulus(spec)
    admissible = (q for q in itertools.count(start) if _refusal(spec, q) is None)
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


class _Plan(NamedTuple):
    """The counts the kernel makes for ``spec``: the sorted plan's shift set
    S, or None; the k of each count, the coordinates it leaves free; whether
    the origin counts; ``price(q)``, their work steps at q, fitted to the
    int64 matmul kernel, which the packed one matches on small blocks and
    beats 30-fold at n = 4; and ``tally(pin, weight, block)``, the sum of
    those counts at q, which :meth:`count` weights by x1's orbit."""

    spec: ArrangementSpec
    symmetric: Collection[int] | None
    ks: range
    origin: bool
    price: Callable[[int], int]
    tally: Callable[[int, np.ndarray, Callable], int]

    def check(self, moduli: Iterable[int], context: str) -> None:
        """Refuse counts that break a budget (see :func:`check_budgets`): the
        ones this plan lists, so no pair of a uniform spec is read.  Work:
        ``price(q)`` summed over ``moduli``, read in order up to the first
        excess, so a lazy range for a huge n is never listed, and no power
        past 2^64 is formed.  Memory: n q + pairs q^2 at each modulus.  A
        count holds n weight vectors of q entries and one q x q bool block
        per distinct shift set, so this over-bounds it by about 8 planes, and
        a preset's pairs share one block."""
        spec = self.spec
        work = 0
        for q in moduli:
            # q^(n-1) >= 2^64 > WORK_BUDGET once (bit length of q, less 1) * (n-1) >= 64.
            if (q.bit_length() - 1) * (spec.n - 1) >= 64:
                work += WORK_BUDGET + 1
            else:
                work += self.price(q)
            entries = spec.n * q + spec.pairs * q * q
            check_budgets(f"{context}: the counts up to q={q}", entries, work, "kernel steps")

    def count(self, q: int) -> int:
        """The points off the planes at q: the tally, weighted by x1's orbit
        of q - pin points, plus the origin.  The tally reads x1's pin, the
        0/1 weight of a coordinate over Z_q (0 at x = 0 with the coordinate
        planes) and ``block(shifts)``: a read-only q x q bool block, False on
        the planes, built once per distinct shift set and shared by the pairs
        that have it, or for no shifts a broadcast view of ones that
        allocates nothing."""
        spec = self.spec
        pin = 0 if spec.flavor == ADDITIVE else 1
        weight = np.ones(q, dtype=np.int64)
        if spec.include_coordinate_hyperplanes:
            weight[0] = 0
        cols = np.arange(q)
        blocks: dict[frozenset[int], np.ndarray] = {}

        def block(shifts: Iterable[int]) -> np.ndarray:
            key = frozenset(shifts)
            if key not in blocks:
                blocks[key] = out = np.ones((q, q), bool) if key else np.broadcast_to(True, (q, q))
                for s in key:
                    if spec.flavor == MULTIPLICATIVE:
                        rows = (pow(2, s % (q - 1), q) * cols) % q
                    else:
                        rows = (cols + s) % q
                    out[rows, cols] = False
                out.flags.writeable = False
            return blocks[key]

        return (q - pin) * self.tally(pin, weight, block) + self.origin


def _plan(spec: ArrangementSpec) -> _Plan:
    """The one choice of plan: :func:`_sorted_plan` if every pair has one
    shift set S with S = -S and 0 in S, else :func:`_general_plan`.

    Both split the count by the arrangement's symmetry (the orbit-counting
    step of the finite field method).  Additive planes are invariant under
    x -> x + c(1,...,1), whose orbits have size q and one point with x1 = 0,
    so N = q N[x1 = 0].  Multiplicative planes are linear, so x -> c x with
    c in F_q^* acts on the points with x1 != 0 in orbits of size q - 1, each
    with one point at x1 = 1: N = (q-1) N[x1 = 1] + N[x1 = 0], the last
    term 0 with the coordinate planes.  Without them the slice x1 = 0 is
    invariant under the same scaling, so N[x1 = 0] = (q-1) N[x1 = 0, x2 = 1]
    + N[x1 = x2 = 0], and so on: the slice x1 = ... = xd = 0, x(d+1) = 1
    (k = n - 1 - d) is counted while the d coordinates at 0 meet no plane,
    that is while no pair (i, j) with j <= d has planes, and the origin
    counts once when no pair has any.  A uniform spec's pair (1, 2) has
    planes, so its one slice is x1 = 0, x2 = 1, and no pair is read.  Each
    count pins one coordinate, and every slice is summed from the spec's
    own blocks, never from another target's count."""
    n, shifts = spec.n, spec.uniform_shifts
    symmetric = False
    if shifts is not None and 0 in shifts:
        # A range is symmetric when its ends are.
        ends = (shifts[0], shifts[-1]) if isinstance(shifts, range) else shifts
        symmetric = all(-k in shifts for k in ends)
    # How many leading coordinates may be 0 at once.
    if spec.flavor == ADDITIVE or spec.include_coordinate_hyperplanes:
        zeros = 0
    elif shifts is not None:
        zeros = 1
    else:
        zeros = min((j for _, j in spec.pair_shifts), default=n + 1) - 1
    ks = range(n - 1, max(n - 2 - zeros, -1), -1)
    return (_sorted_plan if symmetric else _general_plan)(spec, ks, zeros == n)


def _general_plan(spec: ArrangementSpec, ks: range, origin: bool) -> _Plan:
    """The plan for any spec.  A count passes all n coordinates to
    :func:`_count_assignments`, its set ones (x1..xd at 0, x(d+1) at the
    pin) as one-hot 0/1 weights, whose rows of the blocks its pin loop folds
    into the weights after them.  Price: q^k steps for a count of k
    coordinates plus, for k >= 3, 3 * 10^4 for each of its q^(k-3)
    contractions, which binds where q is small and n large (a least-squares
    fit to traced counts of Gamma:4..6, Delta:4..6 and targets without
    planes at n = 5..9 gave 25 us a contraction and 0.8 ns a step)."""
    n = spec.n

    def price(q: int) -> int:
        return sum(q**k + (3 * 10**4 * q ** (k - 3) if k >= 3 else 0) for k in ks)

    def tally(pin: int, weight: np.ndarray, block: Callable) -> int:
        pairs = itertools.combinations(range(n), 2)
        pair = {(a, b): block(spec.pair_shifts.get((a + 1, b + 1), ())) for a, b in pairs}
        cols = np.arange(len(weight))
        zero, fixed = ((cols == value).astype(np.int64) for value in (0, pin))
        unary = ([zero] * (n - 1 - k) + [fixed] + [weight] * k for k in ks)
        return sum(_count_assignments(u, pair) for u in unary)

    return _Plan(spec, None, ks, origin, price, tally)


def _sorted_plan(spec: ArrangementSpec, ks: range, origin: bool) -> _Plan:
    """The plan when every pair has one shift set S = -S with 0 in S.  A
    point off the planes then has distinct coordinates, and the planes are
    invariant under the permutations of x2..xn, so the count after x1's pin
    is (n-1)! times the increasing tuples x2 < ... < xn of live values that
    the one block allows pairwise (:func:`_count_increasing`), and the slice
    x1 = 0, x2 = 1 (k = n - 2) is (n-2)! times those of x3..xn allowed with
    0 and 1; k < 2 reads only how many are live.  Price: q^2 steps for the
    block, and 6 C(r, k) + 10^4 C(r, k-3) for each count, r being q - |S|:
    6 C(r, k) bounds the r'^3 steps of the contractions over all pinned
    tuples, and a pinned value costs 10^4 steps (a least-squares fit to
    traced counts of A:5..7, B:5..6 and C:5..8 gave 7,500, and a step 0.3
    to 1.7 ns)."""
    n, symmetric = spec.n, spec.uniform_shifts

    def price(q: int) -> int:
        r = max(0, q - len(symmetric))
        work = q * q
        for k in ks:
            work += 6 * math.comb(r, k) + (10**4 * math.comb(r, k - 3) if k >= 3 else 0)
        return work

    def tally(pin: int, weight: np.ndarray, block: Callable) -> int:
        allowed, total = block(symmetric), 0
        for k in ks:
            live = np.flatnonzero(weight * allowed[pin] * (allowed[0] if k < n - 1 else 1))
            tri = np.triu(allowed[np.ix_(live, live)], 1) if k > 1 else live
            total += math.factorial(k) * _count_increasing(tri, k)
        return total

    return _Plan(spec, symmetric, ks, origin, price, tally)


def count_complement_points(spec: ArrangementSpec, q: int) -> int:
    """Number of points of (Z_q)^n on none of the reduced hyperplanes: the
    counts of :func:`_plan`, once q meets their guard and is admissible."""
    n, plan = spec.n, _plan(spec)
    plan.check((q,), f"q={q} breaks the kernel budget for n={n}")
    if (reason := _refusal(spec, q)) is not None:
        raise InadmissibleModulus(
            f"q={q} is not admissible for flavor {spec.flavor!r} "
            f"(n={n}, m_max={spec.m_max}): {reason}"
        )
    return plan.count(q)


def _count_assignments(unary: list[np.ndarray], pair: dict[tuple[int, int], np.ndarray]) -> int:
    """Sum over assignments of the product of 0/1 unary weights and pair blocks.

    Fewer than four coordinates are padded in front with one-value coordinates
    that every block allows; more are cut to four by pinning coordinate 0 to
    each value of nonzero weight, its rows of the blocks (0, t) folded into the
    weights.  The four, (a, b, c, d), are summed as ``w0[a] w1[b] w2[c] B01[a,
    b] B02[a, c] B12[b, c] popcount(D0[a] & D1[b] & D2[c])``, D_t being the
    rows of block (t, 3) times w3, each distinct block packed once by
    :func:`_pack`: the edge-iterating clique count (Chiba and Nishizeki, SIAM
    J. Comput. 14 (1985)) with word-parallel intersection.  A chunk of a lists
    the pairs (a, b), and a chunk of pairs meets a chunk of D2's rows at once,
    so a temporary holds at most ``CHUNK_WORDS`` entries (or one block row).
    """
    if len(unary) > 4:
        rest = {(a - 1, b - 1): block for (a, b), block in pair.items() if a > 0}
        return sum(
            _count_assignments([unary[t] * pair[(0, t)][value] for t in range(1, len(unary))], rest)
            for value in np.flatnonzero(unary[0])
        )
    pad = 4 - len(unary)
    if pad:
        unary = [np.ones(1, dtype=np.int64)] * pad + unary
        pair = {(a + pad, b + pad): block for (a, b), block in pair.items()}
        ones = [np.ones((1, len(w)), dtype=bool) for w in unary]
        pair.update({(a, b): ones[b] for a, b in itertools.combinations(range(4), 2) if a < pad})
    (w0, w1, w2, w3), (b01, b02, b12) = unary, (pair[(0, 1)], pair[(0, 2)], pair[(1, 2)])
    b03, b13, b23 = pair[(0, 3)], pair[(1, 3)], pair[(2, 3)]
    d2 = _pack(b23, w3)
    d1 = d2 if b13 is b23 else _pack(b13, w3)
    d0 = d1 if b03 is b13 else d2 if b03 is b23 else _pack(b03, w3)
    live = w0.nonzero()[0]
    words = max(1, len(d2))
    # range loops here and in _pack (run once per pinned value): index_chunks cost 5-7 %.
    width = max(1, min(len(w2), CHUNK_WORDS // words))  # values of c a chunk meets
    step = max(1, CHUNK_WORDS // max(1, len(w1)))
    pairs = max(1, CHUNK_WORDS // (words * width))
    total = 0
    for start in range(0, len(live), step):
        a, b = np.nonzero(b01[live[start : start + step]] & (w1 != 0))
        a = live[start + a]
        for s in range(0, len(a), pairs):
            pa, pb = a[s : s + pairs], b[s : s + pairs]
            both = d0[:, pa] & d1[:, pb]
            for c in range(0, len(w2), width):
                cols = slice(c, c + width)
                meet = both[:, :, None] & d2[:, None, cols]  # runs along c
                count = np.bitwise_count(meet).sum(axis=0, dtype=np.uint32)
                count *= b02[pa, cols] & b12[pb, cols]
                total += int(count.sum(axis=0, dtype=np.int64) @ w2[cols])
    return total


def _count_increasing(tri: np.ndarray, k: int) -> int:
    """Increasing k-tuples of rows of ``tri``, a strict upper triangle of 0/1,
    with ``tri[i, j] = 1`` at every two of them: values are pinned in order,
    each keeping the later values it allows, until four are left, which
    :func:`_count_assignments` counts with ``tri`` as every block."""
    if k < 3:  # k = 0 is the one empty tuple
        return int(tri.sum()) if k == 2 else len(tri) ** k
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
    return _count_assignments([ones] * k, dict.fromkeys(itertools.combinations(range(k), 2), tri))


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
    the count at every further modulus, held out: the planned (n+2)-th, or
    each one an override lists past its first n + 1.  A target whose
    n + 2 counts would break a kernel budget is refused before any count,
    and one that no n + 2 admissible moduli could fit before planning.  An
    override meets the budgets before its moduli are tested for admissibility.
    """
    n, plan, start = spec.n, _plan(spec), least_modulus(spec)
    # Admissible moduli are at least the n + 2 integers from least_modulus
    # on, so a target that those break is refused with no planning.
    context = f"no {n + 2} admissible moduli fit the kernel budget for n={n}"
    plan.check(range(start, start + n + 2), context)
    if moduli is None:
        qs = list(plan_moduli(spec))
    else:
        qs = sorted(set(int(q) for q in moduli))
        if len(qs) < n + 2:
            raise ValueError(
                f"need at least {n + 2} moduli for degree {n} plus a held-out check, "
                f"got {len(qs)}"
            )
    plan.check(qs, f"moduli up to {qs[-1]} break the kernel budget for n={n}")
    if moduli is not None:
        for q in qs:
            if (reason := _refusal(spec, q)) is not None:
                raise InadmissibleModulus(f"override modulus {q} is inadmissible: {reason}")
    nodes = qs[: n + 1]
    counts = [count_complement_points(spec, q) for q in nodes]
    poly = _lagrange_interpolate(nodes, counts)
    _check_interpolant(spec, poly)
    for held_out in qs[n + 1 :]:
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
    if not (spec.pairs or spec.include_coordinate_hyperplanes):
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


def verify_shift_theorem(n: int, pair_shifts: Mapping[tuple[int, int], Iterable[int]]) -> bool:
    """Check that the multiplicative polynomial equals the additive one at t - 1.

    Both arrangements are built from the same shift tuple; the multiplicative
    side carries the coordinate hyperplanes, the additive side has none.
    """
    mult = ArrangementSpec(n, MULTIPLICATIVE, pair_shifts, True)
    add = ArrangementSpec(n, ADDITIVE, pair_shifts, False)
    return charpoly_ff(mult) == shift(charpoly_ff(add), -1)


def _lagrange_interpolate(xs: Sequence[int], ys: Sequence[int]) -> IntPolynomial:
    """Exact Lagrange interpolation in O(n^2) integer steps; rejects
    non-integers.  Each ``P(t) / (t - x_i)``, P = Π (t - x_j), is scaled by
    L / Π_{j≠i} (x_i - x_j), L the lcm of those denominators, so the sum is
    L times the interpolant."""
    size = len(xs)
    full = IntPolynomial.from_roots(xs).coefficients  # P, lowest degree first
    denominators = [math.prod(xi - xj for j, xj in enumerate(xs) if j != i)
                    for i, xi in enumerate(xs)]
    lcm = math.lcm(*denominators)
    coeffs = [0] * size
    for xi, y, denominator in zip(xs, ys, denominators):
        scale, quotient = y * (lcm // denominator), 0
        for d in range(size, 0, -1):
            quotient = full[d] + xi * quotient  # the coefficient of t^(d-1)
            coeffs[d - 1] += scale * quotient
    for c in coeffs:
        if c % lcm:
            raise InterpolationMismatch(f"coefficient {Fraction(c, lcm)} is not an integer")
    return IntPolynomial([c // lcm for c in coeffs])


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
