"""Exact region counting and bijections for multiplicative refinements of the
braid arrangement."""

from .arrangements import (
    ArrangementSpec,
    Hyperplane,
    charpoly_ff,
    count_complement_points,
    hyperplanes_of,
    plan_moduli,
    regions_convolution_check,
    verify_shift_theorem,
)
from .numbers import (
    IntPolynomial,
    charpoly_A_closed,
    charpoly_C_closed,
    raney,
    raney_convolution_check,
    regions_A_axis_identity,
    regions_A_closed,
    regions_B_closed,
    regions_Delta_closed,
    regions_Gamma_closed,
    shift,
    zaslavsky,
)
from .partitions import (
    DecoratedNonNestingPartition,
    b_equivalent,
    classify_blocks,
    count_B_regions_enum,
    partition_to_sketch,
    sketch_to_partition,
)
from .paths import (
    DecoratedDyckPath,
    LabeledDyckPath,
    compartment_distribution,
    compartments,
    enumerate_decorated_paths,
    path_to_sketch,
    primitive_parts,
    shifted_coefficient_identity,
    sketch_to_path,
    unlabeled_census,
)
from .poset import build_poset, charpoly_from_poset
from .sketches import (
    LogPoint,
    Sketch,
    enumerate_sketches,
    hyperplane_side,
    is_valid_sketch,
    point_to_sketch,
    witness_point,
)

__version__ = "0.1.0"
