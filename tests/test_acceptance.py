"""Acceptance suite.

Each test runs one acceptance criterion end to end at exact integer
tolerance and prints a single pass line on success (visible with
``pytest -s``); a failure raises with the offending case.
"""
import math
import random
import time

from braidarr.arrangements import (
    ArrangementSpec,
    charpoly_ff,
    verify_shift_theorem,
)
from braidarr.arrangements import hyperplanes_of
from braidarr.numbers import (
    charpoly_A_closed,
    raney,
    regions_A_closed,
    regions_B_closed,
    regions_Delta_closed,
    regions_Gamma_closed,
    zaslavsky,
)
from braidarr.partitions import partition_to_sketch, sketch_to_partition
from braidarr.paths import compartment_distribution, path_to_sketch, sketch_to_path
from braidarr.poset import rank_sums
from braidarr.sketches import (
    point_to_sketch,
    regions_by_projection,
    witness_point,
)
from test_numbers import raney_convolution_check, regions_A_axis_identity
from test_paths import shifted_coefficient_identity, unlabeled_census
from test_sketches import hyperplane_side, sketch_objects

TABLE1 = [
    (2, 1, 10),
    (2, 2, 14),
    (3, 1, 84),
    (3, 2, 180),
    (3, 3, 312),
    (4, 1, 1008),
    (4, 2, 3432),
    (4, 3, 8160),
    (4, 4, 15960),
]

def _report(number: int, label: str, started: float) -> None:
    print(f"criterion {number} ({label}): PASS in {time.time() - started:.1f}s")


def test_criterion_1_table_reproduction():
    started = time.time()
    for n, m, expected_regions in TABLE1:
        closed = charpoly_A_closed(n, m)
        ff = charpoly_ff(ArrangementSpec.preset(f"A:{n},{m}"))
        assert ff == closed, f"ff route disagrees at (n={n}, m={m})"
        if n <= 3:
            poset_poly = rank_sums(ArrangementSpec.preset(f"A:{n},{m}"))[1]
            assert poset_poly == closed, f"poset route disagrees at (n={n}, m={m})"
        assert zaslavsky(closed, n) == expected_regions, (n, m)
    _report(1, "Table 1 reproduction, three routes", started)


def test_criterion_2_shift_theorem_randomized():
    started = time.time()
    rng = random.Random(918273645)
    cases = []
    # ten uniform tuples, then ten with independently drawn per-pair sets
    for _ in range(10):
        n = rng.choice([2, 3])
        values = rng.sample(range(-3, 4), rng.randint(1, 3))
        cases.append((n, {
            (i, j): list(values)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }))
    for _ in range(10):
        n = 3
        cases.append((n, {
            (i, j): rng.sample(range(-3, 4), rng.randint(0, 3))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }))
    asymmetric = sum(
        1 for _, shifts in cases if len({frozenset(v) for v in shifts.values()}) > 1
    )
    assert asymmetric >= 5, f"only {asymmetric} asymmetric tuples drawn"
    for n, shifts in cases:
        assert verify_shift_theorem(n, shifts), (n, shifts)
    _report(2, f"shift theorem on 20 specs, {asymmetric} asymmetric", started)


def test_criterion_3_bijection_round_trips():
    started = time.time()
    expected_sizes = {(1, 1): 2, (1, 2): 2, (2, 1): 10, (2, 2): 14, (3, 1): 84}
    for (n, m), size in expected_sizes.items():
        sketches = sketch_objects(n, m)
        assert len(sketches) == size == math.factorial(n) * raney(n, m, 2)
        for s in sketches:
            assert path_to_sketch(sketch_to_path(s)) == s, s
            assert partition_to_sketch(sketch_to_partition(s)) == s, s
    _report(3, "sketch/path/partition round trips", started)


def test_criterion_4_witness_soundness():
    started = time.time()
    for n, m in [(2, 1), (2, 2), (3, 1)]:
        planes = hyperplanes_of(ArrangementSpec.preset(f"A:{n},{m}")).tolist()
        for s in sketch_objects(n, m):
            point = witness_point(s)
            assert point_to_sketch(point, m) == s, s
            for h in planes:
                assert hyperplane_side(point, h) != 0, (s, h)
    _report(4, "witness points off every hyperplane", started)


def test_criterion_5_compartment_statistic():
    started = time.time()
    for n, m in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        distribution = compartment_distribution(n, m)
        poly = charpoly_A_closed(n, m)
        expected = [abs(poly.coefficient(j)) for j in range(n + 1)]
        assert distribution == expected, (n, m, distribution, expected)
    assert compartment_distribution(3, 1) == [30, 41, 12, 1]
    _report(5, "compartment distribution equals |coefficients|", started)


def test_criterion_6_sub_arrangement_counts():
    started = time.time()
    for n, m in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        for family, closed in (
            ("B", regions_B_closed),
            ("Gamma", regions_Gamma_closed),
            ("Delta", regions_Delta_closed),
        ):
            spec = ArrangementSpec.preset(f"{family}:{n},{m}")
            via_ff = zaslavsky(charpoly_ff(spec), n)
            assert via_ff == closed(n, m), (family, n, m, via_ff)
            assert regions_by_projection(spec) == closed(n, m), (family, n, m)
    _report(6, "B/Gamma/Delta closed forms vs ff and by projection", started)


def test_criterion_7_identity_suite():
    started = time.time()
    for r in (2, 3):
        for n in range(6):
            for m in (1, 2, 3):
                assert raney_convolution_check(n, m, r), (n, m, r)
    for n in range(1, 6):
        for m in range(1, 5):
            assert regions_A_axis_identity(n, m) == regions_A_closed(n, m), (n, m)
    for n in range(1, 6):
        for m in (1, 2, 3):
            assert shifted_coefficient_identity(n, m), (n, m)
    for n in range(1, 6):
        for m in range(1, 6):
            if (m + 1) * n > 10:
                continue
            by_upsteps, by_axis_points = unlabeled_census(n, m)
            for k in range(n + 1):
                assert by_upsteps[k] == raney(k, m, 1), (n, m, k)
            for k in range(1, n + 1):
                assert by_axis_points[k] == raney(n - k, m, m * k), (n, m, k)
    _report(7, "convolution, axis, coefficient, census identities", started)
