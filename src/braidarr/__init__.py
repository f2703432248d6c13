"""Exact region counting and bijections for multiplicative refinements of the
braid arrangement."""

from .arrangements import (
    ArrangementSpec,
    charpoly_ff,
    count_complement_points,
    hyperplanes_of,
    plan_moduli,
    verify_shift_theorem,
)
from .numbers import (
    IntPolynomial,
    charpoly_A_closed,
    charpoly_C_closed,
    raney,
    regions_A_closed,
    regions_B_closed,
    regions_Delta_closed,
    regions_Gamma_closed,
    shift,
    zaslavsky,
)
from .partitions import (
    DecoratedNonNestingPartition,
    partition_to_sketch,
    sketch_to_partition,
)
from .paths import (
    DecoratedDyckPath,
    LabeledDyckPath,
    compartment_distribution,
    path_to_sketch,
    sketch_to_path,
)
from .poset import build_poset, rank_sums
from .sketches import (
    LogPoint,
    Sketch,
    is_valid_sketch,
    point_to_sketch,
    regions_by_projection,
    witness_point,
)

__version__ = "0.1.0"
