"""Arrangement specifications and the finite field counting route.

An :class:`ArrangementSpec` describes either a multiplicative arrangement
(coordinate hyperplanes ``x_i = 0`` plus ``x_i = 2^k x_j``) or an additive
deformation of the braid arrangement (``x_i - x_j = k``).  Characteristic
polynomials are recovered by counting points of ``(Z_q)^n`` off all reduced
hyperplanes at several admissible moduli and interpolating exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .numbers import IntPolynomial, shift, zaslavsky

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"
BASE = 2

POINT_COUNT_BUDGET = 10**9

PRESET_NAMES = ("A", "B", "C", "Gamma", "Delta")


class InadmissibleModulus(ValueError):
    """The modulus does not satisfy the flavor's admissibility conditions."""


class InterpolationMismatch(ArithmeticError):
    """Interpolated polynomial failed a structural or held-out check."""


class NonIntegerCoefficient(ArithmeticError):
    """Exact interpolation produced a non-integer coefficient."""


class PointCountGuard(ValueError):
    """Requested point count exceeds the q^n budget."""


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
    missing pairs mean no hyperplane between those coordinates.
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
        self.pair_shifts = shifts
        self.include_coordinate_hyperplanes = include_coordinate_hyperplanes

    @classmethod
    def uniform(
        cls,
        n: int,
        shifts: Iterable[int],
        flavor: str = MULTIPLICATIVE,
        include_coordinate_hyperplanes: bool = False,
    ) -> "ArrangementSpec":
        """Same shift set on every coordinate pair."""
        values = frozenset(shifts)
        pair_shifts = {
            (i, j): values for i in range(1, n + 1) for j in range(i + 1, n + 1)
        }
        return cls(n, flavor, pair_shifts, include_coordinate_hyperplanes)

    @classmethod
    def preset(cls, name: str) -> "ArrangementSpec":
        """Parse preset strings like ``A:3,2`` or ``Gamma:2,1``.

        A: coordinate hyperplanes plus shifts [-m, m] (multiplicative).
        B: A without the coordinate hyperplanes.
        C: additive shifts [-m, m] (the extended Catalan arrangement).
        Gamma: A with the shift -m removed from every pair.
        Delta: Gamma without the coordinate hyperplanes.
        """
        try:
            family, params = name.split(":")
            n_text, m_text = params.split(",")
            n, m = int(n_text), int(m_text)
        except ValueError:
            raise ValueError(f"bad preset {name!r}; expected e.g. 'A:3,2'") from None
        if family not in PRESET_NAMES or n < 1 or m < 1:
            raise ValueError(f"bad preset {name!r}")
        full = range(-m, m + 1)
        clipped = range(-m + 1, m + 1)
        if family == "A":
            return cls.uniform(n, full, MULTIPLICATIVE, True)
        if family == "B":
            return cls.uniform(n, full, MULTIPLICATIVE, False)
        if family == "C":
            return cls.uniform(n, full, ADDITIVE, False)
        if family == "Gamma":
            return cls.uniform(n, clipped, MULTIPLICATIVE, True)
        return cls.uniform(n, clipped, MULTIPLICATIVE, False)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ArrangementSpec":
        """Load the CLI spec format: ``{"n", "flavor": "A"|"C", "coords", "shifts"}``."""
        if not isinstance(data, Mapping):
            raise ValueError("spec must be a JSON object")
        if "n" not in data:
            raise ValueError("spec has no 'n'")
        flavor = {"A": MULTIPLICATIVE, "C": ADDITIVE}.get(data.get("flavor"))
        if flavor is None:
            raise ValueError(f"flavor must be 'A' or 'C', got {data.get('flavor')!r}")
        pair_shifts = {}
        for key, values in (data.get("shifts") or {}).items():
            i_text, j_text = key.split(",")
            pair_shifts[(int(i_text), int(j_text))] = values
        return cls(int(data["n"]), flavor, pair_shifts, bool(data.get("coords", False)))

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

    @property
    def m_max(self) -> int:
        """Largest absolute shift; 0 when there are no pair hyperplanes."""
        return max(
            (abs(k) for values in self.pair_shifts.values() for k in values),
            default=0,
        )

    def __repr__(self) -> str:
        return (
            f"ArrangementSpec(n={self.n}, flavor={self.flavor!r}, "
            f"pairs={len(self.pair_shifts)}, coords={self.include_coordinate_hyperplanes})"
        )


def hyperplanes_of(spec: ArrangementSpec) -> list[Hyperplane]:
    """Deduplicated hyperplane list in canonical order.

    Coordinate planes come first, then pair hyperplanes ordered by pair and
    ascending shift.  For the multiplicative flavor a shift k < 0 is stored
    as ``x_j = 2^(-k) x_i`` so that stored powers are nonnegative;
    deduplication happens through that normal form.
    """
    planes: list[Hyperplane] = []
    seen: set[tuple] = set()
    if spec.flavor == MULTIPLICATIVE and spec.include_coordinate_hyperplanes:
        for i in range(1, spec.n + 1):
            planes.append(Hyperplane("coord", i))
            seen.add(("coord", i))
    for (i, j) in sorted(spec.pair_shifts):
        for k in sorted(spec.pair_shifts[(i, j)]):
            if spec.flavor == MULTIPLICATIVE:
                h = Hyperplane("pair", i, j, k) if k >= 0 else Hyperplane("pair", j, i, -k)
            else:
                h = Hyperplane("diff", i, j, k)
            key = (h.kind, h.i, h.j, h.k)
            if key not in seen:
                seen.add(key)
                planes.append(h)
    return planes


def modulus_admissible(spec: ArrangementSpec, q: int) -> bool:
    """Check whether q provably yields the correct point count.

    Any conflict among the hyperplane constraints shows up as a cycle whose
    label sum is nonzero and at most n * m_max in absolute value, so the
    count matches the characteristic polynomial once q clears that bound.
    Multiplicative flavor additionally needs q to be an odd prime with 2 a
    primitive root (verified from the factorization of q - 1) so that powers
    of 2 behave like the rationals.  Planned moduli use stricter thresholds;
    see :func:`plan_moduli`.
    """
    bound = spec.n * spec.m_max
    if spec.flavor == MULTIPLICATIVE:
        return q - 1 > bound and _is_prime(q) and _two_is_primitive_root(q)
    return q > bound


def plan_moduli(spec: ArrangementSpec, count: int | None = None) -> tuple[int, ...]:
    """Smallest ``count`` planned moduli (default n + 2) in ascending order.

    Planning thresholds are deliberately generous: primes with
    q - 1 > (m_max + 1) n for the multiplicative flavor, integers
    q > n (2 m_max + 2) for the additive one.  The held-out evaluation in
    :func:`charpoly_ff` would catch any residual insufficiency.
    """
    if count is None:
        count = spec.n + 2
    if spec.flavor == MULTIPLICATIVE:
        chosen: list[int] = []
        q = (spec.m_max + 1) * spec.n + 2
        while len(chosen) < count:
            if _is_prime(q) and _two_is_primitive_root(q):
                chosen.append(q)
            q += 1
        return tuple(chosen)
    start = spec.n * (2 * spec.m_max + 2) + 1
    return tuple(range(start, start + count))


def count_complement_points(spec: ArrangementSpec, q: int) -> int:
    """Number of points of (Z_q)^n on none of the reduced hyperplanes.

    The first coordinates are enumerated in nested loops with pruning; once
    three coordinates remain the count is closed out with exact int64 matrix
    contractions, which is what makes the q^n kernel fast enough in Python.
    """
    if q**spec.n > POINT_COUNT_BUDGET:
        raise PointCountGuard(
            f"q^n = {q}^{spec.n} exceeds the {POINT_COUNT_BUDGET} point budget"
        )
    if not modulus_admissible(spec, q):
        raise InadmissibleModulus(
            f"q={q} is not admissible for flavor {spec.flavor!r} "
            f"(n={spec.n}, m_max={spec.m_max})"
        )
    n = spec.n
    allow_zero = not (
        spec.flavor == MULTIPLICATIVE and spec.include_coordinate_hyperplanes
    )
    unary = []
    for _ in range(n):
        u = np.ones(q, dtype=np.int64)
        if not allow_zero:
            u[0] = 0
        unary.append(u)
    pair: dict[tuple[int, int], np.ndarray] = {}
    cols = np.arange(q)
    for (i, j), values in spec.pair_shifts.items():
        matrix = np.ones((q, q), dtype=np.int64)
        for s in values:
            if spec.flavor == MULTIPLICATIVE:
                factor = pow(BASE, s % (q - 1), q)
                rows = (factor * cols) % q
            else:
                rows = (cols + s) % q
            matrix[rows, cols] = 0
        pair[(i - 1, j - 1)] = matrix
    return _count_assignments(q, unary, pair)


def _count_assignments(
    q: int, unary: list[np.ndarray], pair: dict[tuple[int, int], np.ndarray]
) -> int:
    n = len(unary)
    ones = None
    if n == 1:
        return int(unary[0].sum())
    if n == 2:
        m01 = pair.get((0, 1))
        if m01 is None:
            return int(unary[0].sum()) * int(unary[1].sum())
        return int((unary[0][:, None] * unary[1][None, :] * m01).sum())
    if n == 3:
        def mat(a: int, b: int) -> np.ndarray:
            m = pair.get((a, b))
            if m is None:
                nonlocal ones
                if ones is None:
                    ones = np.ones((q, q), dtype=np.int64)
                return ones
            return m

        p = mat(0, 1) * unary[0][:, None] * unary[1][None, :]
        r = mat(1, 2)
        quad = mat(0, 2) * unary[2][None, :]
        return int(((p @ r) * quad).sum())
    sub_pair = {
        (a - 1, b - 1): m for (a, b), m in pair.items() if a >= 1
    }
    first_rows = [pair.get((0, t)) for t in range(1, n)]
    total = 0
    for a in np.flatnonzero(unary[0]):
        sub_unary = []
        for t in range(1, n):
            rows = first_rows[t - 1]
            if rows is None:
                sub_unary.append(unary[t])
            else:
                sub_unary.append(unary[t] * rows[a])
        total += _count_assignments(q, sub_unary, sub_pair)
    return total


def charpoly_ff(
    spec: ArrangementSpec, moduli: Sequence[int] | None = None
) -> IntPolynomial:
    """Characteristic polynomial via counting and exact interpolation.

    Counts at n + 1 admissible moduli fix the unique polynomial of degree at
    most n; the result must be monic of degree n with alternating signs and
    must reproduce the count at a held-out (n+2)-th modulus.
    """
    n = spec.n
    if moduli is None:
        qs = list(plan_moduli(spec))
    else:
        qs = sorted(set(int(q) for q in moduli))
        if len(qs) < n + 2:
            raise ValueError(
                f"need at least {n + 2} moduli for degree {n} plus a held-out check, "
                f"got {len(qs)}"
            )
        for q in qs:
            if not modulus_admissible(spec, q):
                raise InadmissibleModulus(f"override modulus {q} is inadmissible")
    if max(qs) ** n > POINT_COUNT_BUDGET:
        raise PointCountGuard(
            f"largest planned modulus {max(qs)} breaks the q^n budget for n={n}"
        )
    nodes = qs[: n + 1]
    counts = [count_complement_points(spec, q) for q in nodes]
    poly = _lagrange_interpolate(nodes, counts)
    if not poly.is_monic_of_degree(n):
        raise InterpolationMismatch(
            f"interpolant {poly} is not monic of degree {n}; moduli too small?"
        )
    if not poly.has_alternating_signs(n):
        raise InterpolationMismatch(f"interpolant {poly} has non-alternating signs")
    held_out = qs[n + 1]
    expected = count_complement_points(spec, held_out)
    if poly(held_out) != expected:
        raise InterpolationMismatch(
            f"held-out check failed at q={held_out}: poly gives {poly(held_out)}, "
            f"count gives {expected}"
        )
    return poly


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
