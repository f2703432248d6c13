"""Property tests on random sketches past the exhaustive enumeration limit.

Sketches are read off random exact points through ``point_to_sketch``, so
they are drawn independently of the enumerators and the bijections they
test.  A point on a hyperplane determines no region and is rejected.
"""
from fractions import Fraction

from hypothesis import given, reject
from hypothesis import strategies as st
from test_sketches import is_valid_by_reference

from braidarr.partitions import (
    DecoratedNonNestingPartition,
    partition_to_sketch,
    sketch_to_partition,
)
from braidarr.paths import DecoratedDyckPath, path_to_sketch, sketch_to_path
from braidarr.sketches import (
    LogPoint,
    OnHyperplane,
    Sketch,
    is_valid_sketch,
    point_to_sketch,
    witness_point,
)

# Exponents are multiples of 1/97, so two symbols tie only when two
# exponents differ by an integer of at most m.
log_points = st.builds(
    LogPoint, st.sampled_from((-1, 1)), st.integers(-2000, 2000).map(lambda a: Fraction(a, 97))
)


@st.composite
def sketches(draw):
    """A sketch of size n <= 10 with m <= 4, and its m."""
    m = draw(st.integers(1, 4))
    point = tuple(draw(st.lists(log_points, min_size=1, max_size=10)))
    try:
        return point_to_sketch(point, m), m
    except OnHyperplane:
        reject()


@given(sketches())
def test_random_sketch_is_valid(drawn):
    sketch, m = drawn
    assert is_valid_sketch(sketch)
    assert is_valid_by_reference(sketch, m)


@given(sketches())
def test_text_round_trips(drawn):
    sketch, m = drawn
    path = sketch_to_path(sketch)
    partition = sketch_to_partition(sketch)
    assert Sketch.parse(sketch.to_text()) == sketch
    assert DecoratedDyckPath.parse(path.to_text(), m) == path
    assert DecoratedNonNestingPartition.parse(partition.to_text(), m) == partition


@given(sketches())
def test_bijection_round_trips(drawn):
    sketch, _ = drawn
    assert path_to_sketch(sketch_to_path(sketch)) == sketch
    assert partition_to_sketch(sketch_to_partition(sketch)) == sketch


@given(sketches())
def test_witness_reproduces_sketch(drawn):
    sketch, m = drawn
    assert point_to_sketch(witness_point(sketch), m) == sketch
