"""Median graph combinatorics with exact rational certificates for
witness-set families, plus the coarse (defect-measured) counterpart."""

from .errors import (
    BudgetExceeded,
    ConditionViolation,
    CornerFailure,
    EmptySet,
    MedianCertError,
    MedianViolation,
    NotCoarseMedian,
    NotFound,
    NotMedian,
    PreconditionViolation,
    ReductionFailure,
)
from .median_core import (
    MedianGraph,
    VertexSet,
    deep_point_exact,
    hull,
    interval,
    iterated_median,
    join,
    median,
    reduce_generators,
)
from .cube_complex import (
    Hyperplane,
    NormalCubePath,
    crosses,
    hyperplanes,
    normal_cube_path,
    rank,
    separators,
    step_map,
)
from .propa_engine import (
    Cat0WitnessProvider,
    PropACertificate,
    SparseL1Vector,
    certify,
    chi,
    eligible_sample,
    variation,
    verify_conditions,
    xi,
)
from .coarse_median import (
    CoarseMedianInstance,
    CoarseParams,
    CoarseWitnessProvider,
    check_lemma_6_2,
    check_lemma_6_5,
    coarse_interval,
    coarsened_grid,
    discover_deep_scale,
    estimate_params,
    find_deep_point,
    from_median_graph,
    l_constants,
    measured_h5,
    median_closure,
    verify_C2_exact,
    witness_sets_coarse,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "ConditionViolation", "CornerFailure", "EmptySet",
    "MedianCertError", "MedianViolation", "NotCoarseMedian", "NotFound",
    "NotMedian", "PreconditionViolation", "ReductionFailure",
    "MedianGraph", "VertexSet", "deep_point_exact", "hull", "interval",
    "iterated_median", "join", "median", "reduce_generators",
    "Hyperplane", "NormalCubePath", "crosses", "hyperplanes",
    "normal_cube_path", "rank", "separators", "step_map",
    "Cat0WitnessProvider", "PropACertificate", "SparseL1Vector", "certify",
    "chi", "eligible_sample", "variation", "verify_conditions", "xi",
    "CoarseMedianInstance", "CoarseParams", "CoarseWitnessProvider",
    "check_lemma_6_2", "check_lemma_6_5", "coarse_interval",
    "coarsened_grid", "discover_deep_scale", "estimate_params",
    "find_deep_point", "from_median_graph", "l_constants", "measured_h5",
    "median_closure", "verify_C2_exact", "witness_sets_coarse",
    "__version__",
]
