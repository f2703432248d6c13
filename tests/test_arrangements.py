import contextlib
import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from braidarr import arrangements, cli
from braidarr.arrangements import (
    ADDITIVE,
    MULTIPLICATIVE,
    ArrangementSpec,
    InadmissibleModulus,
    InterpolationMismatch,
    SizeGuard,
    charpoly_ff,
    count_complement_points,
    hyperplanes_of,
    least_modulus,
    plan_moduli,
    _check_interpolant,
    _lagrange_interpolate,
    verify_shift_theorem,
)
from braidarr.numbers import IntPolynomial, charpoly_A_closed, charpoly_C_closed, zaslavsky
from braidarr.poset import rank_sums
from braidarr.sketches import regions_by_projection
from test_poset import sparse_specs


def brute_force_count(spec: ArrangementSpec, q: int) -> int:
    """Independent oracle: test every tuple against every hyperplane."""
    total = 0
    for point in itertools.product(range(q), repeat=spec.n):
        ok = True
        if spec.flavor == MULTIPLICATIVE and spec.include_coordinate_hyperplanes:
            ok = all(x % q != 0 for x in point)
        if ok:
            for (i, j), values in spec.pair_shifts.items():
                for s in values:
                    if spec.flavor == MULTIPLICATIVE:
                        if point[i - 1] % q == (pow(2, s % (q - 1), q) * point[j - 1]) % q:
                            ok = False
                            break
                    else:
                        if (point[i - 1] - point[j - 1]) % q == s % q:
                            ok = False
                            break
                if not ok:
                    break
        total += ok
    return total


def listed_preset(family: str, n: int, m: int) -> ArrangementSpec:
    """The spec of the preset, built from a literal dict of all its pairs."""
    flavor, coords, clip = arrangements.PRESETS[family]
    shifts = list(range(clip - m, m + 1))
    pairs = {(i, j): shifts for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return ArrangementSpec(n, flavor, pairs, coords)


def guard_fields(spec: ArrangementSpec) -> tuple:
    """What the kernel's size guard reads of a spec: its shape and its plan,
    that is whether the sorted plan applies, |S|, the k of each count and
    whether the origin counts."""
    plan = arrangements._plan(spec)
    return (spec.n, spec.m_max, spec.flavor, spec.include_coordinate_hyperplanes, spec.pairs,
            plan.symmetric is not None, len(plan.symmetric or ()), list(plan.ks), plan.origin)


def no_count(*args):
    raise AssertionError("a count ran for a target past the budget")


def modulus_admissible(spec: ArrangementSpec, q: int) -> bool:
    """Whether q passes every admissibility test of ``spec``."""
    return arrangements._refusal(spec, q) is None


def kernel_price(spec: ArrangementSpec, moduli) -> int:
    """The work ``arrangements._plan(spec).check`` prices ``spec``'s counts
    at over ``moduli``."""
    with mock.patch.object(arrangements, "check_budgets") as budgets:
        arrangements._plan(spec).check(moduli, "price")
    return budgets.call_args.args[2]


def reference_kernel_price(spec: ArrangementSpec, moduli) -> int:
    """Reference for the size guard's work: the price it took before the
    kernel's plan was listed in one place, which priced every slice
    k = n - 2, ..., 0 of a multiplicative general plan without coordinate
    planes, whether the kernel reaches it or not."""
    n = spec.n
    sliced = spec.flavor == MULTIPLICATIVE and not spec.include_coordinate_hyperplanes
    shifts, symmetric = spec.uniform_shifts, None
    if shifts is not None and 0 in shifts:
        ends = (shifts[0], shifts[-1]) if isinstance(shifts, range) else shifts
        symmetric = shifts if all(-k in shifts for k in ends) else None
    work = 0
    for q in moduli:
        if (q.bit_length() - 1) * (n - 1) >= 64:
            work += arrangements.WORK_BUDGET + 1
        elif symmetric is None:
            for k in range(n - 1, -1 if sliced else n - 2, -1):
                work += q**k + (3 * 10**4 * q ** (k - 3) if k >= 3 else 0)
        else:
            r = max(0, q - len(symmetric))
            work += q * q
            for k in (n - 1, n - 2)[: 1 + sliced]:
                work += 6 * math.comb(r, k) + (10**4 * math.comb(r, k - 3) if k >= 3 else 0)
    return work


@contextlib.contextmanager
def outermost_calls(name: str):
    """Record ``(args, result)`` of each call of ``arrangements.<name>`` that
    no other call of it encloses, read through a ``wraps`` mock."""
    real, calls, depth = getattr(arrangements, name), [], 0

    def spy(*args):
        nonlocal depth
        depth += 1
        try:
            result = real(*args)
        finally:
            depth -= 1
        if not depth:
            calls.append((args, result))
        return result

    with mock.patch.object(arrangements, name, wraps=spy):
        yield calls


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@st.composite
def count_problems(draw):
    """A sparse spec with n in 1..4 and the first admissible modulus from a
    small start, so that :func:`brute_force_count` stays cheap.  At n = 4 at
    least one pair has no planes."""
    n = draw(st.integers(1, 4))
    flavor = draw(st.sampled_from((MULTIPLICATIVE, ADDITIVE)))
    coords = flavor == MULTIPLICATIVE and draw(st.booleans())
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    present = draw(st.sets(st.sampled_from(pairs), max_size=5)) if pairs else ()
    shifts = st.sets(st.integers(-1, 1), min_size=1)
    spec = ArrangementSpec(n, flavor, {p: draw(shifts) for p in present}, coords)
    q = draw(st.integers(2, (40, 16, 9, 6)[n - 1]))
    while not modulus_admissible(spec, q):
        q += 1
    return spec, q


@st.composite
def sliced_specs(draw, sizes=st.integers(1, 5), shifts=st.integers(-1, 1)):
    """A multiplicative spec without coordinate planes whose first ``free``
    coordinates, x1 always and x2 or x3 at times, have no pairs, so that the
    kernel's slice x1 = 0 recurses to x2 = 0 and beyond; the other pairs
    are drawn as present or not."""
    n = draw(sizes)
    free = draw(st.integers(min(n, 1), min(n, 3)))
    pairs = list(itertools.combinations(range(free + 1, n + 1), 2))
    present = draw(st.sets(st.sampled_from(pairs))) if pairs else ()
    event(f"n={n} free={free}")
    shift_sets = st.sets(shifts, min_size=1, max_size=3)
    return ArrangementSpec(n, MULTIPLICATIVE, {p: draw(shift_sets) for p in present})


@st.composite
def priced_specs(draw):
    """A preset with n <= 8 and m <= 40, taking either plan, or a spec of
    :func:`sliced_specs` or :func:`sparse_specs`, taking the general plan."""
    kind = draw(st.sampled_from(["preset", "sliced", "sparse"]))
    event(kind)
    if kind == "preset":
        family = draw(st.sampled_from(sorted(arrangements.PRESETS)))
        n, m = draw(st.integers(1, 8)), draw(st.integers(1, 40))
        return ArrangementSpec.preset(f"{family}:{n},{m}")
    return draw(sliced_specs() if kind == "sliced" else sparse_specs())


def two_pin_count(spec: ArrangementSpec, q: int) -> int:
    """Reference for the slice x1 = 0 of a multiplicative spec without
    coordinate planes: the count with x1 pinned to 0 with weight 1 and to 1
    with weight q - 1, each a full contraction of x2..xn, as the kernel
    took it before it counted the slice by its own scaling orbit."""
    cols = np.arange(q)

    def block(shifts) -> np.ndarray:
        out = np.ones((q, q), dtype=bool)
        for s in shifts:
            out[(pow(2, s % (q - 1), q) * cols) % q, cols] = False
        return out

    n = spec.n
    rows = [block(spec.pair_shifts.get((1, t), ())) for t in range(2, n + 1)]
    rest = {(a, b): block(spec.pair_shifts.get((a + 2, b + 2), ()))
            for a, b in itertools.combinations(range(n - 1), 2)}
    return sum(
        weight * arrangements._count_assignments([row[x1].astype(np.int64) for row in rows], rest)
        for x1, weight in ((0, 1), (1, q - 1))
    )


@st.composite
def plan_problems(draw):
    """A preset with n <= 5 and m <= 2 at its first planned modulus, or a
    spec of :func:`count_problems` or :func:`sliced_specs` at a small
    admissible one."""
    kind = draw(st.sampled_from(["preset", "sparse", "sliced"]))
    event(kind)
    if kind == "sparse":
        return draw(count_problems())
    if kind == "preset":
        family = draw(st.sampled_from(sorted(arrangements.PRESETS)))
        n, m = draw(st.integers(1, 5)), draw(st.integers(1, 2))
        spec = ArrangementSpec.preset(f"{family}:{n},{m}")
        return spec, plan_moduli(spec)[0]
    spec = draw(sliced_specs())
    q = draw(st.integers(2, 40))
    while not modulus_admissible(spec, q):
        q += 1
    return spec, q


@st.composite
def symmetric_problems(draw):
    """A spec whose every pair has one shift set S = -S with 0 in S, built by
    ``uniform`` (from a range or a set) or from a dict as a ``--spec`` file
    is, and one of its first three planned moduli."""
    n = draw(st.integers(1, 5))
    flavor = draw(st.sampled_from("AC"))
    coords = flavor == "A" and draw(st.booleans())
    positive = draw(st.sets(st.integers(1, 3), max_size=2))
    shifts = sorted({0} | positive | {-k for k in positive})
    build = draw(st.sampled_from(["range", "set", "dict"]))
    event(f"n={n} {flavor} coords={coords} {build}")
    if build == "dict":
        pairs = itertools.combinations(range(1, n + 1), 2)
        data = {"n": n, "flavor": flavor, "coords": coords,
                "shifts": {f"{i},{j}": shifts for i, j in pairs}}
        spec = ArrangementSpec.from_json_dict(data)
    else:
        values = range(-max(shifts), max(shifts) + 1) if build == "range" else shifts
        spec = ArrangementSpec.uniform(
            n, values, MULTIPLICATIVE if flavor == "A" else ADDITIVE, coords
        )
    return spec, draw(st.sampled_from(plan_moduli(spec)[:3]))


def old_plan(spec: ArrangementSpec) -> tuple[int, ...]:
    """The n + 2 moduli planned before the plan started at
    :func:`least_modulus`, kept as a reference: the admissible ones from
    (m_max + 1) n + 2 on (multiplicative) or n (2 m_max + 2) + 1 on
    (additive)."""
    if spec.flavor == MULTIPLICATIVE:
        start = (spec.m_max + 1) * spec.n + 2
    else:
        start = spec.n * (2 * spec.m_max + 2) + 1
    admissible = (q for q in itertools.count(start) if modulus_admissible(spec, q))
    return tuple(itertools.islice(admissible, spec.n + 2))


def two_is_primitive_root(q: int) -> bool:
    """The multiplicative admissibility rule before the order rule, kept as
    a reference: 2 has order q - 1 modulo q, which makes q prime (Lucas'
    test): 2^(q-1) is 1 and 2^((q-1)/p) is not, for every prime p dividing
    q - 1."""
    return pow(2, q - 1, q) == 1 and all(
        pow(2, (q - 1) // p, q) != 1 for p in arrangements._prime_factors(q - 1)
    )


def primitive_root_plan(spec: ArrangementSpec) -> tuple[int, ...]:
    """The n + 2 moduli a multiplicative spec was planned at before the order
    rule: the primes from :func:`least_modulus` on where 2 is a primitive
    root."""
    qs = (q for q in itertools.count(least_modulus(spec)) if two_is_primitive_root(q))
    return tuple(itertools.islice(qs, spec.n + 2))


def admissible_walk(spec: ArrangementSpec) -> list[int]:
    """Every admissible modulus from :func:`least_modulus` through the last
    of the old plan, which is at least the last planned one."""
    last = old_plan(spec)[-1]
    return [q for q in range(least_modulus(spec), last + 1) if modulus_admissible(spec, q)]


def assert_counts_are_chi(spec: ArrangementSpec) -> None:
    """The proof obligation of planning from the bound: the count at every
    admissible modulus is chi there."""
    chi = charpoly_ff(spec)
    walk = admissible_walk(spec)
    assert set(plan_moduli(spec)) <= set(walk)
    for q in walk:
        assert count_complement_points(spec, q) == chi(q), q


@st.composite
def walk_specs(draw):
    """A sparse spec of either flavor with n <= 4 and shifts in [-2, 2],
    {0} included, so that m_max = 0 and q = 1 (additive) occur."""
    n = draw(st.integers(1, 4))
    flavor = draw(st.sampled_from((MULTIPLICATIVE, ADDITIVE)))
    coords = flavor == MULTIPLICATIVE and draw(st.booleans())
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    present = draw(st.sets(st.sampled_from(pairs))) if pairs else ()
    shifts = st.sets(st.integers(-2, 2), min_size=1, max_size=3)
    return ArrangementSpec(n, flavor, {p: draw(shifts) for p in present}, coords)


def matmul_assignments(unary: list[np.ndarray], pair: dict[tuple[int, int], np.ndarray]) -> int:
    """Reference for the packed contraction: the int64 matmul recursion that
    it replaced.  Coordinate 0 is pinned to each value of nonzero weight
    until three coordinates are left, which ``((P @ M12) * Q).sum()``
    contracts over the rows where coordinate 0's weight is nonzero, P and Q
    being those rows of blocks (0, 1) and (0, 2) times their weights."""
    live = np.flatnonzero(unary[0])
    if len(unary) == 3:
        p = pair[(0, 1)][live] * unary[0][live, None] * unary[1][None, :]
        quad = pair[(0, 2)][live] * unary[2][None, :]
        return int(((p @ pair[(1, 2)].astype(np.int64)) * quad).sum())
    rest = {(a - 1, b - 1): block for (a, b), block in pair.items() if a > 0}
    total = 0
    for value in live:
        pinned = [unary[t] * pair[(0, t)][value] for t in range(1, len(unary))]
        total += int(unary[0][value]) * matmul_assignments(pinned, rest)
    return total


def matmul_increasing(tri: np.ndarray, k: int) -> int:
    """Reference for the packed count of increasing k-tuples: values are
    pinned in order until three are left, which ``((T @ T) * T).sum()``
    counts."""
    if k < 3:
        return int(tri.sum()) if k == 2 else len(tri)
    if k == 3:
        t = tri.astype(np.int64)
        return int(((t @ t) * t).sum())
    total = 0
    for i in range(len(tri) - k + 1):
        later = tri[i].nonzero()[0]
        total += matmul_increasing(tri[later][:, later], k - 1)
    return total


def reference_lagrange(xs, ys) -> IntPolynomial:
    """Reference for the integer interpolation: the Lagrange interpolation
    over Fractions that it replaced, O(n^3) Fraction operations."""
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
            raise InterpolationMismatch(f"coefficient {c} is not an integer")
        out.append(int(c))
    return IntPolynomial(out)


# 1 to 10 distinct nodes, negative ones and unsorted orders among them.
interpolation_nodes = st.lists(st.integers(-60, 60), min_size=1, max_size=10, unique=True)


# Column counts of a packed row on both sides of one and two uint64 words.
PACKED_WIDTHS = (0, 1, 2, 5, 63, 64, 65, 127, 128, 129)


@st.composite
def assignment_problems(draw):
    """General-plan inputs of 3 to 6 coordinates, as they are after x1's pin:
    0/1 weights, each block random 0/1 or a broadcast view of ones.  The
    last coordinate, whose rows are packed, takes a width from
    ``PACKED_WIDTHS``; the others have at most 12, 12, 6 or 4 values, 0
    among them, so three coordinates are padded to four.  A weight or block
    density of 0 leaves no live value, and the chunk size is drawn small
    enough to cut the loops."""
    k = draw(st.integers(3, 6))
    sizes = [draw(st.integers(0, (12, 12, 6, 4)[k - 3])) for _ in range(k - 1)]
    sizes.append(draw(st.sampled_from(PACKED_WIDTHS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)))
    unary = [(rng.random(size) < density).astype(np.int64) for size in sizes]
    pair = {}
    for a, b in itertools.combinations(range(k), 2):
        shape = (sizes[a], sizes[b])
        ones = draw(st.booleans())
        pair[(a, b)] = np.broadcast_to(True, shape) if ones else rng.random(shape) < density
    event(f"k={k} width={sizes[-1]} density={density}")
    return unary, pair, draw(st.sampled_from((1, 7, 64, arrangements.CHUNK_WORDS)))


@st.composite
def triangles(draw):
    """A random strict upper triangle of 0/1, k in 3..5 and the chunk size:
    r rows on both sides of 64 and 128 (at most 70 for k = 5, where the
    reference pins twice), fewer than k among them.  Chunks of fewer than
    r^2 / 16 entries are left out, as they would take minutes."""
    k = draw(st.integers(3, 5))
    r = draw(st.sampled_from([w for w in PACKED_WIDTHS if k < 5 or w <= 70] + [70]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    event(f"k={k} r={r}")
    tri = np.triu(rng.random((r, r)) < density, 1)
    chunks = (1, 7, 64, 1000, arrangements.CHUNK_WORDS)
    return tri, k, draw(st.sampled_from([c for c in chunks if c >= r * r // 16]))


class TestSpec:
    def test_presets(self):
        a = ArrangementSpec.preset("A:2,1")
        assert a.flavor == MULTIPLICATIVE and a.include_coordinate_hyperplanes
        assert a.pair_shifts[(1, 2)] == frozenset({-1, 0, 1})
        b = ArrangementSpec.preset("B:2,1")
        assert not b.include_coordinate_hyperplanes
        c = ArrangementSpec.preset("C:3,2")
        assert c.flavor == ADDITIVE
        gamma = ArrangementSpec.preset("Gamma:2,2")
        assert gamma.pair_shifts[(1, 2)] == frozenset({-1, 0, 1, 2})
        delta = ArrangementSpec.preset("Delta:2,2")
        assert not delta.include_coordinate_hyperplanes

    def test_bad_presets(self):
        for name in ("X:2,1", "A:0,1", "A:2", "A:2,1,3", "A"):
            with pytest.raises(ValueError):
                ArrangementSpec.preset(name)

    def test_additive_rejects_coordinates(self):
        with pytest.raises(ValueError):
            ArrangementSpec(2, ADDITIVE, {(1, 2): [0]}, True)

    def test_preset_shape_matches_spec(self):
        # the kernel's guard reads these before the preset's pairs are listed
        for family in arrangements.PRESETS:
            for n, m in itertools.product((1, 2, 4), (1, 3)):
                spec = ArrangementSpec.preset(f"{family}:{n},{m}")
                assert guard_fields(spec) == guard_fields(listed_preset(family, n, m))
                assert spec._pairs is None or n == 1  # the plan listed none

    @given(
        st.sampled_from(sorted(arrangements.PRESETS)), st.integers(1, 4), st.integers(1, 3)
    )
    def test_preset_matches_its_listed_pairs(self, family, n, m):
        """The preset's spec, whose pairs are listed when first read, and the
        same spec from a literal dict give the same answer on every route."""
        listed = listed_preset(family, n, m)
        event(f"{family}, n={n}")
        # Each reads a fresh preset, so no route sees pairs another listed.
        routes = [
            charpoly_ff,
            lambda spec: rank_sums(spec)[1],
            cli._closed_charpoly,
            regions_by_projection,
            lambda spec: hyperplanes_of(spec).tolist(),
            ArrangementSpec.to_json_dict,
            guard_fields,
        ]
        for route in routes:
            preset = ArrangementSpec.preset(f"{family}:{n},{m}")
            assert outcome(route, preset) == outcome(route, listed)
        assert set(preset.uniform_shifts or ()) == set(listed.uniform_shifts or ())
        assert preset.m_max == listed.m_max and preset.pairs == listed.pairs

    def test_huge_m_lists_no_shifts(self, traced_peak):
        # a preset's shifts stay a range: listed, 2 * 10^6 + 1 take about 100 MB
        spec, peak = traced_peak(ArrangementSpec.preset, "A:3,1000000")
        assert peak < 2**20
        assert len(spec.uniform_shifts) == 2 * 10**6 + 1
        assert (spec.m_max, spec.pairs) == (10**6, 3)

    def test_json_round_trip(self):
        spec = ArrangementSpec(3, MULTIPLICATIVE, {(1, 2): [0], (1, 3): [1]}, True)
        data = json.loads(json.dumps(spec.to_json_dict()))
        back = ArrangementSpec.from_json_dict(data)
        assert back.n == 3
        assert back.pair_shifts == spec.pair_shifts
        assert back.include_coordinate_hyperplanes


class TestHyperplanes:
    def test_A21_expansion(self):
        # x1 = 0, x2 = 0, then x2 = 2 x1, x1 = x2 and x1 = 2 x2 for the
        # shifts -1, 0, 1 of the pair (1, 2)
        planes = hyperplanes_of(ArrangementSpec.preset("A:2,1"))
        assert planes.dtype == np.int64
        assert planes.tolist() == [[0, 0, 1], [1, 1, 1], [1, 0, 1], [0, 1, 0], [0, 1, 1]]

    def test_B21_drops_coordinates(self):
        assert len(hyperplanes_of(ArrangementSpec.preset("B:2,1"))) == 3

    def test_C21_expansion(self):
        planes = hyperplanes_of(ArrangementSpec.preset("C:2,1"))
        assert planes.tolist() == [[0, 1, -1], [0, 1, 0], [0, 1, 1]]

    def test_count_formula(self):
        for n in (2, 3, 4):
            for m in (1, 2, 3):
                planes = hyperplanes_of(ArrangementSpec.preset(f"A:{n},{m}"))
                assert len(planes) == n + (2 * m + 1) * n * (n - 1) // 2

    def test_idempotent_and_duplicate_free(self):
        spec = ArrangementSpec.preset("A:3,2")
        first = hyperplanes_of(spec)
        second = hyperplanes_of(spec)
        assert np.array_equal(first, second)
        assert len(np.unique(first, axis=0)) == len(first)

    @given(sparse_specs())
    def test_duplicate_free_on_sparse_specs(self, spec):
        planes = hyperplanes_of(spec)
        assert planes.shape == (len(planes), 3)
        assert len(np.unique(planes, axis=0)) == len(planes)
        assert len(planes) == spec.n * spec.include_coordinate_hyperplanes + sum(
            map(len, spec.pair_shifts.values())
        )


class TestModuli:
    def test_multiplicative_plan_properties(self):
        def admissible(spec, q):
            # q is an odd prime by trial division, and the powers of 2 first
            # reach 1 past 2^(n m_max)
            if q < 3 or not all(q % f for f in range(2, math.isqrt(q) + 1)):
                return False
            return next(e for e in range(1, q) if pow(2, e, q) == 1) > spec.n * spec.m_max

        spec = ArrangementSpec.preset("A:3,2")
        plan = plan_moduli(spec)
        assert len(plan) == 5
        start = least_modulus(spec)
        assert plan == tuple(q for q in range(start, plan[-1] + 1) if admissible(spec, q))
        # the bound of a target without pair planes is 2, so every odd prime
        # passes; that of A:4,4 is 18
        for spec in (ArrangementSpec.uniform(1, [], MULTIPLICATIVE, True),
                     ArrangementSpec.preset("A:4,4")):
            assert all(
                modulus_admissible(spec, q) == admissible(spec, q) for q in range(1, 1500)
            )

    def test_known_primitive_root_primes(self):
        # least_modulus is 4 * 4 + 2 = 18.  2 is a primitive root mod 19, 29,
        # 37 and 53; it has order 20 mod 41 and 23 mod 47, above n m_max = 16,
        # and only 11, 5 and 14 mod the refused 23, 31 and 43.
        spec = ArrangementSpec.preset("A:4,4")
        assert primitive_root_plan(spec) == (19, 29, 37, 53, 59, 61)
        assert plan_moduli(spec) == (19, 29, 37, 41, 47, 53)

    def test_additive_plan(self):
        # least_modulus is 2 * 1 + 1 = 3
        assert plan_moduli(ArrangementSpec.preset("C:2,1")) == (3, 4, 5, 6)

    def test_plan_starts_at_the_bound(self):
        # without planes every modulus from 1 on is admissible
        assert plan_moduli(ArrangementSpec(3, ADDITIVE)) == (1, 2, 3, 4, 5)
        assert plan_moduli(ArrangementSpec.uniform(2, [0], ADDITIVE)) == (1, 2, 3, 4)
        # m_max = 0: q = 2 is refused as even, and 7, where 2 has order 3,
        # is admitted like every odd prime
        assert plan_moduli(ArrangementSpec.uniform(1, [], MULTIPLICATIVE, True)) == (3, 5, 7)

    def test_admissibility(self):
        mult = ArrangementSpec.preset("A:2,1")
        assert modulus_admissible(mult, 11)
        assert modulus_admissible(mult, 7)  # 2 has order 3 mod 7, above n m_max = 2
        assert not modulus_admissible(mult, 12)  # composite
        assert not modulus_admissible(mult, 3)  # below the cycle bound
        assert not modulus_admissible(ArrangementSpec.preset("A:3,1"), 7)  # 3 = n m_max
        add = ArrangementSpec.preset("C:2,1")
        assert modulus_admissible(add, 7)
        assert not modulus_admissible(add, 2)

    def test_count_rejects_inadmissible(self):
        reason = r"2 has order 3 mod 7, not above n\*m_max = 3$"
        with pytest.raises(InadmissibleModulus, match=reason):
            count_complement_points(ArrangementSpec.preset("A:3,1"), 7)

    @pytest.mark.parametrize("q", [341, 561, 645])
    def test_base_2_pseudoprimes_refused(self, q):
        # Each passes the Fermat screen, and the powers of 2 mod q repeat
        # after 10, 40 and 28 steps, above n m_max = 2: only the primality
        # test refuses them.
        spec = ArrangementSpec.preset("A:2,1")
        assert pow(2, q - 1, q) == 1
        assert not modulus_admissible(spec, q)
        assert arrangements._refusal(spec, q) == "it is not an odd prime"

    def test_order_bound_is_needed(self, monkeypatch):
        # A:3,1 at q = 7, where 2 has order 3 = n m_max, with admissibility
        # off: x2/x1, x3/x1 and x3/x2 must each lie off the powers of 2, a
        # subgroup of index 2 in F_7^*, which no three values can do.
        monkeypatch.setattr(arrangements, "_refusal", lambda spec, q: None)
        assert count_complement_points(ArrangementSpec.preset("A:3,1"), 7) == 0
        assert charpoly_A_closed(3, 1)(7) == 12


class TestCounting:
    def test_A21_at_11(self):
        assert count_complement_points(ArrangementSpec.preset("A:2,1"), 11) == 70

    def test_C21_at_7(self):
        assert count_complement_points(ArrangementSpec.preset("C:2,1"), 7) == 28

    def test_A1m_at_5(self):
        for m in (1, 2, 3):
            assert count_complement_points(ArrangementSpec.preset(f"A:1,{m}"), 5) == 4

    def test_against_brute_force(self):
        cases = [
            (ArrangementSpec.preset("A:2,1"), 11),
            (ArrangementSpec.preset("A:2,2"), 13),
            (ArrangementSpec.preset("B:2,1"), 11),
            (ArrangementSpec.preset("C:2,1"), 9),
            (ArrangementSpec.preset("C:3,1"), 11),
            (ArrangementSpec.preset("A:3,1"), 11),
            (ArrangementSpec.preset("Gamma:3,1"), 11),
            (ArrangementSpec(3, MULTIPLICATIVE, {(1, 2): [0], (2, 3): [2]}, True), 11),
            (ArrangementSpec(3, ADDITIVE, {(1, 2): [0, 2], (1, 3): [-1]}), 12),
            # n = 5: x1 pinned with its orbit weight, then two pinning levels
            (ArrangementSpec.preset("A:5,1"), 11),
            (ArrangementSpec.preset("B:5,1"), 11),
            (ArrangementSpec.preset("Gamma:5,1"), 11),
            (ArrangementSpec.preset("Delta:5,1"), 11),
            (ArrangementSpec.preset("C:5,1"), 10),
        ]
        for spec, q in cases:
            assert count_complement_points(spec, q) == brute_force_count(spec, q)

    @given(count_problems())
    def test_sparse_specs_against_brute_force(self, problem):
        # n = 1 and 2 run through the padded shapes, n >= 4 through pinning
        spec, q = problem
        event(f"n={spec.n} missing pairs={spec.n * (spec.n - 1) // 2 - len(spec.pair_shifts)}")
        assert count_complement_points(spec, q) == brute_force_count(spec, q)

    @given(sliced_specs(), st.data())
    def test_slices_against_brute_force(self, spec, data):
        # n = 5 keeps to the shift 0, so that q = 3 or 5 is admissible
        if spec.n == 5:
            spec = ArrangementSpec(5, MULTIPLICATIVE, {p: [0] for p in spec.pair_shifts})
        q = data.draw(st.integers(2, (40, 16, 9, 6, 5)[spec.n - 1]))
        while not modulus_admissible(spec, q):
            q += 1
        assert count_complement_points(spec, q) == brute_force_count(spec, q)

    @given(sliced_specs(st.just(5), st.integers(-3, 3)), st.sampled_from((53, 59, 61)))
    def test_slices_against_two_pins(self, spec, q):
        # past brute force: 53^5 points
        assert count_complement_points(spec, q) == two_pin_count(spec, q)

    @pytest.mark.parametrize(
        "target, free", [("B:5,1", [4, 3]), ("Delta:5,1", [4, 4, 3, 3])], ids=["B:5,1", "Delta:5,1"]
    )
    def test_slice_contracts_n_minus_2_coordinates(self, target, free):
        # x1 = 1 leaves x2..x5 free, and the slice x1 = 0, x2 = 1 leaves
        # x3..x5: no second count of four free coordinates.  The sorted plan
        # (B) counts 4- and 3-tuples.  The general plan (Delta) passes all
        # five coordinates, the set ones as one-hot weights, and pins the
        # first of the five, so each count also makes one call of four.
        spec, q = ArrangementSpec.preset(target), 11
        expected = two_pin_count(spec, q)
        with mock.patch.object(
            arrangements, "_count_assignments", wraps=arrangements._count_assignments
        ) as kernel:
            assert count_complement_points(spec, q) == expected
        calls = [call.args[0] for call in kernel.call_args_list]
        assert [sum(np.count_nonzero(w) > 1 for w in unary) for unary in calls] == free

    @given(plan_problems())
    def test_the_plan_is_what_runs_and_what_is_priced(self, problem):
        # The outermost counts are the plan's, one for one: the general
        # plan's count k sets x1..x(n-1-k) to 0 and the next coordinate to
        # the pin by one-hot weights, the sorted plan's counts k-tuples.
        spec, q = problem
        plan = arrangements._plan(spec)
        symmetric, ks, origin = plan.symmetric, plan.ks, plan.origin
        name = "_count_assignments" if symmetric is None else "_count_increasing"
        with outermost_calls(name) as calls:
            total = count_complement_points(spec, q)
        n = spec.n
        pin, scale = (0, q) if spec.flavor == ADDITIVE else (1, q - 1)
        assert len(calls) == len(ks)
        if symmetric is None:
            one_hot = np.eye(q, dtype=np.int64)
            weight = np.ones(q, dtype=np.int64)
            weight[0] = not spec.include_coordinate_hyperplanes
            for ((unary, _), _), k in zip(calls, ks):
                expected = [one_hot[0]] * (n - 1 - k) + [one_hot[pin]] + [weight] * k
                assert len(unary) == n
                assert all(map(np.array_equal, unary, expected))
            counted = sum(result for _, result in calls)
        else:
            assert [args[1] for args, _ in calls] == list(ks)
            counted = sum(math.factorial(args[1]) * result for args, result in calls)
        # the origin adds 1 exactly when the plan says so, and that is when
        # it meets no plane
        assert total - scale * counted == origin
        coords = spec.flavor == ADDITIVE or spec.include_coordinate_hyperplanes
        assert origin == (not coords and not spec.pair_shifts)
        # the guard prices those counts: it drops the reference's unreached
        # slices, which only a general plan with some but not all has
        price, reference = kernel_price(spec, [q]), reference_kernel_price(spec, [q])
        assert price <= reference
        assert (price < reference) == (symmetric is None and 1 < len(ks) < n)

    def test_guard(self):
        spec = ArrangementSpec.preset("A:4,4")
        with pytest.raises(SizeGuard):
            count_complement_points(spec, 6700417)

    @given(symmetric_problems())
    def test_sorted_plan_matches_the_recursion(self, problem):
        spec, q = problem
        # every spec with a pair takes the sorted plan; the general plan's
        # record, built for the same counts, gives the same total
        plan = arrangements._plan(spec)
        assert (plan.symmetric is None) == (spec.n == 1)
        general = arrangements._general_plan(spec, plan.ks, plan.origin)
        assert general.count(q) == count_complement_points(spec, q)

    @pytest.mark.parametrize(
        "spec",
        [
            ArrangementSpec.preset("Gamma:3,2"),
            ArrangementSpec.uniform(3, [-1, 0, 1, 2], MULTIPLICATIVE),
            ArrangementSpec.uniform(3, [-2, 2], MULTIPLICATIVE, True),
            ArrangementSpec.uniform(4, [-1, 1], ADDITIVE),
            ArrangementSpec(3, ADDITIVE, {(1, 2): [-1, 0, 1], (1, 3): [-1, 0, 1], (2, 3): [0]}),
        ],
        ids=["Gamma-preset", "Gamma-shaped", "no-zero", "no-zero-additive", "one-pair-differs"],
    )
    def test_general_plan_kept(self, spec):
        q = plan_moduli(spec)[0]
        with mock.patch.object(arrangements, "_count_increasing") as sorted_plan:
            assert count_complement_points(spec, q) == brute_force_count(spec, q)
        sorted_plan.assert_not_called()


class TestPackedKernel:
    """The AND-popcount contraction of the last four coordinates against the
    int64 matmul recursion it replaced."""

    @given(assignment_problems())
    def test_general_plan_matches_matmul(self, problem):
        unary, pair, chunk = problem
        with mock.patch.object(arrangements, "CHUNK_WORDS", chunk):
            packed = arrangements._count_assignments(unary, pair)
        assert packed == matmul_assignments(unary, pair)

    @given(triangles())
    def test_sorted_plan_matches_matmul(self, problem):
        tri, k, chunk = problem
        with mock.patch.object(arrangements, "CHUNK_WORDS", chunk):
            packed = arrangements._count_increasing(tri, k)
        assert packed == matmul_increasing(tri, k)

    def test_degenerate_inputs(self):
        ones = np.ones(3, dtype=np.int64)
        block = np.ones((3, 3), dtype=bool)
        pair = dict.fromkeys(itertools.combinations(range(4), 2), block)
        full = [ones] * 4
        assert arrangements._count_assignments(full, pair) == 3**4
        # no live value
        assert arrangements._count_assignments([0 * ones] + full[1:], pair) == 0
        # a zero-width block: the last coordinate has no value
        empty = dict(pair)
        empty.update({(t, 3): np.ones((3, 0), dtype=bool) for t in range(3)})
        last = np.ones(0, dtype=np.int64)
        assert arrangements._count_assignments(full[:3] + [last], empty) == 0
        # fewer than four coordinates are padded, none at all to one assignment
        assert arrangements._count_assignments([], {}) == 1
        assert arrangements._count_assignments([ones], {}) == 3
        # fewer rows than k, and a triangle with no row
        tri = np.triu(np.ones((3, 3), dtype=bool), 1)
        assert arrangements._count_assignments(full, dict.fromkeys(pair, tri)) == 0
        for k in (3, 4, 5):
            assert arrangements._count_increasing(tri[:k - 1, :k - 1], k) == 0
            assert arrangements._count_increasing(tri[:0, :0], k) == 0
        with mock.patch.object(arrangements, "CHUNK_WORDS", 1):
            assert arrangements._count_increasing(tri, 3) == 1
            assert arrangements._count_assignments(full, pair) == 3**4

    def test_each_distinct_block_is_packed_once(self):
        # The sorted plan's 4-tuples pack their triangle once for all three
        # blocks into the last coordinate.
        tri = np.triu(np.ones((9, 9), dtype=bool), 1)
        with mock.patch.object(arrangements, "_pack", wraps=arrangements._pack) as pack:
            assert arrangements._count_increasing(tri, 4) == math.comb(9, 4)
        assert [call.args[0] is tri for call in pack.call_args_list] == [True]
        # A preset's pairs share one block, so each contraction of the
        # general plan packs it once.
        spec, q = ArrangementSpec.preset("Gamma:6,1"), 11
        expected = count_complement_points(spec, q)
        with mock.patch.object(
            arrangements, "_count_assignments", wraps=arrangements._count_assignments
        ) as kernel, mock.patch.object(arrangements, "_pack", wraps=arrangements._pack) as pack:
            assert count_complement_points(spec, q) == expected
        tails = [call for call in kernel.call_args_list if len(call.args[0]) == 4]
        assert len(pack.call_args_list) == len(tails) > 1
        assert len({id(call.args[0]) for call in pack.call_args_list}) == 1

    @pytest.mark.parametrize(
        "target, q, blocks",
        [("A:4,300", 1213, 2), ("Gamma:4,125", 509, 6), ("Delta:4,125", 509, 6)],
    )
    def test_count_holds_no_packed_tensor(self, traced_peak, target, q, blocks):
        # The sorted plan holds one block and its triangle on the live
        # values, the general plan at most its six blocks: bools, q^2 bytes
        # each.
        # A chunk's temporaries are a few of CHUNK_WORDS 8-byte entries.
        # Packed over every pair of rows, the last coordinate would take
        # q * q * words * 8 bytes, over 15 MB here; the matmul kernel
        # peaked at 18 MB (A:4,300) and 16 MB (Gamma:4,125).
        spec = ArrangementSpec.preset(target)
        assert modulus_admissible(spec, q)
        _, peak = traced_peak(count_complement_points, spec, q)
        bound = blocks * q * q + 4 * 8 * arrangements.CHUNK_WORDS
        assert peak < bound < q * q * -(-q // 64) * 8 / 4

    @pytest.mark.parametrize("target", ["Gamma:4,125", "Delta:4,125"])
    def test_general_plan_holds_one_block(self, traced_peak, target):
        # The six pairs of a preset share one shift set, so the general plan
        # holds one q^2-byte block for all of them.
        q = 509
        spec = ArrangementSpec.preset(target)
        assert modulus_admissible(spec, q)
        _, peak = traced_peak(count_complement_points, spec, q)
        assert peak < q * q + 4 * 8 * arrangements.CHUNK_WORDS

    @pytest.mark.parametrize(
        "flavor, coords, q",
        [(MULTIPLICATIVE, True, 11), (MULTIPLICATIVE, False, 13), (ADDITIVE, False, 9)],
    )
    def test_one_block_per_shift_set(self, flavor, coords, q):
        # Four pairs share {0, 1}, one has {-1} and one no planes: one count
        # builds the shared block once and reuses it, read-only, on the
        # other three pairs.
        shared, other = [0, 1], [-1]
        shifts = {(1, 2): shared, (1, 3): shared, (2, 4): shared, (3, 4): shared, (2, 3): other}
        spec = ArrangementSpec(4, flavor, shifts, coords)
        with mock.patch.object(
            arrangements, "_count_assignments", wraps=arrangements._count_assignments
        ) as kernel:
            assert count_complement_points(spec, q) == brute_force_count(spec, q)
        # The first count gets every pair's block: x1, x2, x3 and x4 are
        # coordinates 0..3, x1 set to its pin by a one-hot weight.  Without
        # the coordinate planes the slice x1 = 0 is counted after it.
        (unary, pair), _ = kernel.call_args_list[0]
        assert list(np.flatnonzero(unary[0])) == [0 if flavor == ADDITIVE else 1]
        assert pair[(0, 1)] is pair[(0, 2)] is pair[(1, 3)] is pair[(2, 3)]
        assert pair[(1, 2)] is not pair[(0, 1)]
        assert pair[(0, 3)].strides == (0, 0)  # no planes: a view of ones
        assert not any(block.flags.writeable for block in pair.values())

    def test_broadcast_rows_are_packed_once(self, traced_peak):
        # Without planes every block is a broadcast view: packed in full, the
        # rows of x2 against x3 would take q^2 / 8 = 50 MB at q = 20000.
        q = 20000
        count, peak = traced_peak(count_complement_points, ArrangementSpec(3, ADDITIVE), q)
        assert count == q**3
        assert peak < 2 * 8 * arrangements.CHUNK_WORDS + 64 * q


class TestCharpolyFF:
    def test_table_rows(self):
        assert charpoly_ff(ArrangementSpec.preset("A:2,1")) == IntPolynomial([4, -5, 1])
        assert charpoly_ff(ArrangementSpec.preset("A:4,2")) == IntPolynomial(
            [1320, -1682, 395, -34, 1]
        )

    def test_additive_closed_form(self):
        assert charpoly_ff(ArrangementSpec.preset("C:3,2")) == charpoly_C_closed(3, 2)

    def test_matches_closed_forms_small_grid(self):
        for n in (1, 2, 3):
            for m in (1, 2):
                assert charpoly_ff(
                    ArrangementSpec.preset(f"A:{n},{m}")
                ) == charpoly_A_closed(n, m)
                assert charpoly_ff(
                    ArrangementSpec.preset(f"C:{n},{m}")
                ) == charpoly_C_closed(n, m)

    @pytest.mark.parametrize(
        "spec",
        [pytest.param(ArrangementSpec.preset(name), id=name)
         for name in (f"{family}:{n},{m}" for family in arrangements.PRESETS
                      for n in range(1, 5) for m in (1, 2))]
        + [pytest.param(ArrangementSpec(n, ADDITIVE), id=f"no planes, n={n}")
           for n in (1, 2, 4)]
        + [pytest.param(ArrangementSpec.uniform(n, [0], flavor, flavor == MULTIPLICATIVE),
                        id=f"shift 0, {flavor}, n={n}")
           for n in (2, 4) for flavor in (MULTIPLICATIVE, ADDITIVE)],
    )
    def test_counts_are_chi_from_the_bound(self, spec):
        assert_counts_are_chi(spec)

    @given(walk_specs())
    def test_sparse_counts_are_chi_from_the_bound(self, spec):
        event(f"{spec.flavor} m_max={spec.m_max}")
        assert_counts_are_chi(spec)

    @pytest.mark.parametrize(
        "name",
        [f"{family}:{n},{m}"
         for family in arrangements.PRESETS for n in range(1, 6) for m in (1, 2, 3)],
    )
    def test_old_plan_gives_the_same_chi(self, name):
        spec = ArrangementSpec.preset(name)
        assert charpoly_ff(spec) == charpoly_ff(spec, old_plan(spec))

    def test_explicit_moduli(self):
        spec = ArrangementSpec.preset("A:2,1")
        assert charpoly_ff(spec, [11, 13, 19, 29]) == IntPolynomial([4, -5, 1])
        # 2 has order 3 mod 7 and 8 mod 17, above n m_max = 2
        assert charpoly_ff(spec, [7, 11, 13, 17]) == IntPolynomial([4, -5, 1])
        with pytest.raises(ValueError):
            charpoly_ff(spec, [11, 13, 19])  # no held-out modulus
        with pytest.raises(InadmissibleModulus, match=r"^override modulus 7 is inadmissible: 2 has"):
            charpoly_ff(ArrangementSpec.preset("A:3,1"), [7, 11, 13, 17, 19])

    def test_every_override_modulus_is_counted(self):
        # each modulus past the first n + 1 is a held-out check, as the guard
        # prices it: none is dropped unread
        spec, moduli = ArrangementSpec.preset("A:2,1"), [7, 11, 13, 17, 19, 23, 29]
        count = arrangements.count_complement_points
        with mock.patch.object(arrangements, "count_complement_points", wraps=count) as spy:
            assert charpoly_ff(spec, moduli) == IntPolynomial([4, -5, 1])
        assert [call.args[1] for call in spy.call_args_list] == moduli
        off_by_one = mock.Mock(side_effect=lambda spec, q: count(spec, q) + (q == 29))
        with mock.patch.object(arrangements, "count_complement_points", off_by_one):
            with pytest.raises(InterpolationMismatch, match=r"^held-out check failed at q=29"):
                charpoly_ff(spec, moduli)

    def test_empty_arrangement(self):
        spec = ArrangementSpec(2, MULTIPLICATIVE, {}, False)
        assert charpoly_ff(spec) == IntPolynomial([0, 0, 1])

    def test_held_out_refusal(self, monkeypatch):
        # one point too many at A:3,1's held-out modulus, 19
        count = arrangements.count_complement_points
        monkeypatch.setattr(
            arrangements, "count_complement_points", lambda spec, q: count(spec, q) + (q == 19)
        )
        with pytest.raises(InterpolationMismatch, match=r"^held-out check failed at q=19"):
            charpoly_ff(ArrangementSpec.preset("A:3,1"))

    def test_oversized_target_refused_before_planning(self, monkeypatch):
        # a huge n, or a huge m, whose trial division in plan_moduli would
        # not end in time
        def no_planning(*args, **kwargs):
            raise AssertionError("plan_moduli ran for a target past the budget")

        monkeypatch.setattr(arrangements, "plan_moduli", no_planning)
        for spec in (ArrangementSpec(10**6, ADDITIVE),
                     ArrangementSpec.preset(f"A:2,{10**12}"),
                     ArrangementSpec.preset(f"C:3,{10**12}"),
                     ArrangementSpec.preset(f"Gamma:2,{10**8}")):
            with pytest.raises(SizeGuard, match=f"^no {spec.n + 2} admissible moduli fit"):
                charpoly_ff(spec)

    @pytest.mark.parametrize("name", ["A:4,1", "Gamma:3,2", "B:5,1"])
    def test_one_plan_record_per_call(self, name):
        # a count builds its plan record once, and charpoly_ff once for its
        # guard and once in each of its n + 2 counts
        spec = ArrangementSpec.preset(name)
        with mock.patch.object(arrangements, "_plan", wraps=arrangements._plan) as plan:
            count_complement_points(spec, plan_moduli(spec)[0])
            assert plan.call_count == 1
            plan.reset_mock()
            charpoly_ff(spec)
            assert plan.call_count == spec.n + 3

    def test_budget_messages_at_the_boundary(self, monkeypatch):
        # Without planes any modulus from 1 on is admissible, and the plan is
        # 1..n+2.  n = 9 fits the work budget.  The steps of n = 10 alone
        # would fit too, but the price of its contractions does not, so it is
        # refused before any count, as is every n from 11 on.
        spec = ArrangementSpec(9, ADDITIVE)
        assert plan_moduli(spec) == tuple(range(1, 12))
        arrangements._plan(spec).check(plan_moduli(spec), "n=9")
        assert sum(q**9 for q in range(1, 13)) < arrangements.WORK_BUDGET
        monkeypatch.setattr(arrangements, "count_complement_points", no_count)
        with pytest.raises(SizeGuard, match="no 12 admissible moduli"):
            charpoly_ff(ArrangementSpec(10, ADDITIVE))
        with pytest.raises(SizeGuard, match="no 13 admissible moduli"):
            charpoly_ff(ArrangementSpec(11, ADDITIVE))

    @pytest.mark.parametrize("n", range(3, 8))
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_slice_is_priced(self, n, m):
        # at the same moduli a B or Delta count pins x1 = 1 as its A or Gamma
        # partner does, and counts its slice x1 = 0 besides
        for sliced, partner in (("B", "A"), ("Delta", "Gamma")):
            moduli = plan_moduli(ArrangementSpec.preset(f"{partner}:{n},{m}"))
            prices = [kernel_price(ArrangementSpec.preset(f"{family}:{n},{m}"), moduli)
                      for family in (sliced, partner)]
            assert prices[0] > prices[1], (sliced, prices)

    def test_price_against_the_reference(self):
        # Presets A, B, C and Gamma keep their price; Delta and sparse sliced
        # specs pay only for the slices the kernel reaches, which for Delta
        # stop at x1 = 0, x2 = 1.
        for family, n, m in itertools.product(arrangements.PRESETS, range(2, 8), (1, 2, 3)):
            spec = ArrangementSpec.preset(f"{family}:{n},{m}")
            moduli = plan_moduli(spec)
            price, reference = kernel_price(spec, moduli), reference_kernel_price(spec, moduli)
            if family == "Delta":
                assert price <= reference and (price < reference) == (n > 2), (family, n, m)
            else:
                assert price == reference, (family, n, m)
        sparse = [
            (ArrangementSpec(5, MULTIPLICATIVE, {(3, 4): [-1, 0, 1], (3, 5): [0, 2], (4, 5): [1]}),
             [4, 3, 2, 1]),
            (ArrangementSpec(5, MULTIPLICATIVE, {(1, 2): [0]}), [4, 3]),
            (ArrangementSpec(6, MULTIPLICATIVE, {(2, 6): [0], (5, 6): [1]}), [5, 4, 3, 2, 1, 0]),
            (ArrangementSpec(4, MULTIPLICATIVE), [3, 2, 1, 0]),
        ]
        for spec, ks in sparse:
            assert list(arrangements._plan(spec).ks) == ks
            moduli = plan_moduli(spec)
            price, reference = kernel_price(spec, moduli), reference_kernel_price(spec, moduli)
            assert price <= reference and (price < reference) == (len(ks) < spec.n), ks

    @given(priced_specs())
    def test_prices_grow_with_q(self, spec):
        # charpoly_ff first prices the n + 2 integers from least_modulus, which
        # bounds every admissible set of moduli only while each plan's price
        # and the memory term are nondecreasing in q
        plan = arrangements._plan(spec)
        event("general" if plan.symmetric is None else "sorted")
        general = arrangements._general_plan(spec, plan.ks, plan.origin)
        qs = range(least_modulus(spec), least_modulus(spec) + 300)
        with mock.patch.object(arrangements, "check_budgets") as budgets:
            for q in qs:
                arrangements._plan(spec).check([q], "price")
        entries = [call.args[1] for call in budgets.call_args_list]
        for series in (entries, [plan.price(q) for q in qs], [general.price(q) for q in qs]):
            assert all(a <= b for a, b in zip(series, series[1:]))

    def test_sorted_plan_budget(self, monkeypatch):
        # w q^(n-1) refused A:7,1 and C:8,1; the sorted plan's step count
        # admits them, and with moduli from the bound B:7,1 too; with the
        # slice x1 = 0 priced as a count of n - 2 coordinates, so is B:7,3;
        # with moduli where 2 has large order, B:7,5 too, while B:7,6, like
        # A:7,6, is refused before any count
        for name in ("A:7,1", "C:8,1", "B:7,1", "B:7,3", "B:7,5"):
            spec = ArrangementSpec.preset(name)
            arrangements._plan(spec).check(plan_moduli(spec), name)
        monkeypatch.setattr(arrangements, "count_complement_points", no_count)
        with pytest.raises(SizeGuard, match="moduli up to 107 break"):
            charpoly_ff(ArrangementSpec.preset("B:7,6"))

    @given(st.one_of(
        st.builds(lambda family, n, m: ArrangementSpec.preset(f"{family}:{n},{m}"),
                  st.sampled_from(["A", "B", "Gamma", "Delta"]), st.integers(1, 5),
                  st.integers(1, 3)),
        sparse_specs(),
    ))
    def test_order_plan_matches_primitive_root_plan(self, spec):
        reference = primitive_root_plan(spec)
        event("other moduli" if plan_moduli(spec) != reference else "same moduli")
        assert charpoly_ff(spec) == charpoly_ff(spec, reference)

    @given(
        st.sampled_from(sorted(arrangements.PRESETS)), st.integers(1, 5), st.integers(1, 4)
    )
    def test_random_presets_match_closed_forms(self, family, n, m):
        chi = charpoly_ff(ArrangementSpec.preset(f"{family}:{n},{m}"))
        event(f"{family}, n={n}")
        if family == "A":
            assert chi == charpoly_A_closed(n, m)
        elif family == "C":
            assert chi == charpoly_C_closed(n, m)
        else:
            assert zaslavsky(chi, n) == cli.ROUTES["closed"].regions(family, n, m)


class TestInterpolantChecks:
    """Each structural check on a fabricated polynomial."""

    def test_true_polynomials_pass(self):
        _check_interpolant(ArrangementSpec.preset("A:2,1"), IntPolynomial([4, -5, 1]))
        _check_interpolant(ArrangementSpec.preset("C:2,1"), IntPolynomial([0, -3, 1]))
        # without planes chi = t^n, which t - 1 does not divide
        _check_interpolant(ArrangementSpec(2, MULTIPLICATIVE), IntPolynomial([0, 0, 1]))

    def test_multiplicative_needs_root_one(self):
        # monic with alternating signs, but chi(1) = 2
        with pytest.raises(InterpolationMismatch, match=r"not divisible by t - 1"):
            _check_interpolant(ArrangementSpec.preset("B:2,1"), IntPolynomial([6, -5, 1]))

    def test_additive_needs_root_zero(self):
        # (t - 1)(t - 2): monic with alternating signs, but chi(0) = 2
        with pytest.raises(InterpolationMismatch, match=r"not divisible by t,"):
            _check_interpolant(ArrangementSpec.preset("C:2,1"), IntPolynomial([2, -3, 1]))

    def test_monic_and_signs(self):
        spec = ArrangementSpec.preset("A:2,1")
        with pytest.raises(InterpolationMismatch, match="not monic of degree 2"):
            _check_interpolant(spec, IntPolynomial([4, -5, 2]))
        with pytest.raises(InterpolationMismatch, match="non-alternating signs"):
            _check_interpolant(spec, IntPolynomial([-4, 3, 1]))


class TestInterpolation:
    """The integer interpolation against the Fraction one it replaced."""

    @given(interpolation_nodes, st.data())
    def test_integer_data_gives_the_polynomial(self, xs, data):
        coeffs = data.draw(st.lists(st.integers(-10**6, 10**6), max_size=len(xs)))
        poly = IntPolynomial(coeffs)
        ys = [poly(x) for x in xs]
        event(f"nodes={len(xs)}")
        assert _lagrange_interpolate(xs, ys) == reference_lagrange(xs, ys) == poly

    @given(interpolation_nodes, st.data())
    def test_random_data_fails_alike(self, xs, data):
        ys = data.draw(st.lists(st.integers(-10**9, 10**9), min_size=len(xs), max_size=len(xs)))
        got = outcome(_lagrange_interpolate, xs, ys)
        event("non-integer" if isinstance(got, tuple) else "integer")
        assert got == outcome(reference_lagrange, xs, ys)

    def test_non_integer_coefficient(self):
        # t (t - 1) / 2 takes integer values, and its lowest non-integer
        # coefficient is -1/2
        with pytest.raises(InterpolationMismatch, match=r"^coefficient -1/2 is not an integer$"):
            _lagrange_interpolate([2, 0, 1], [1, 0, 0])


class TestShiftTheorem:
    def test_uniform_interval(self):
        assert verify_shift_theorem(2, {(1, 2): [-1, 0, 1]})

    def test_shifted_set(self):
        assert verify_shift_theorem(2, {(1, 2): [0, 2]})

    def test_asymmetric_tuple(self):
        assert verify_shift_theorem(3, {(1, 2): [0], (1, 3): [1], (2, 3): []})


def regions_convolution_check(shifts, n):
    """The regions of the multiplicative arrangement with one shift set on
    every pair are the sum over k of C(n, k) r(add_k) r(add_(n-k)), r(add_k)
    the regions of the additive one on k coordinates (one for k = 0)."""
    def regions(k, flavor=ADDITIVE):
        if k == 0:
            return 1
        spec = ArrangementSpec.uniform(k, frozenset(shifts), flavor, flavor == MULTIPLICATIVE)
        return zaslavsky(charpoly_ff(spec), k)

    additive = [regions(k) for k in range(n + 1)]
    return regions(n, MULTIPLICATIVE) == sum(
        math.comb(n, k) * additive[k] * additive[n - k] for k in range(n + 1)
    )


class TestRegionsConvolution:
    def test_interval(self):
        assert regions_convolution_check([-1, 0, 1], 2)

    def test_braid_with_zeros(self):
        assert regions_convolution_check([0], 2)

    def test_single_coordinate(self):
        assert regions_convolution_check([0], 1)

    def test_wider_case(self):
        assert regions_convolution_check([-1, 0, 1], 3)
        assert regions_convolution_check([0, 1], 3)


def test_zaslavsky_composes_with_ff():
    for name, expected in [("B:2,1", 6), ("Gamma:2,1", 8), ("Delta:2,1", 4)]:
        spec = ArrangementSpec.preset(name)
        assert zaslavsky(charpoly_ff(spec), spec.n) == expected
