"""Exact-arithmetic lattice computations for generalized Kummer surfaces:
Pell-driven alternate 9A2 configurations, the modular two-structures
criterion, and the exhaustive pruned isometry search cross-checking it."""

__version__ = "0.1.0"

from .ns_lattice import (  # noqa: F401
    DivisorClass,
    InvalidPolarization,
    NSModel,
    build_k3,
    build_ns,
    curve_a,
    curve_b,
    L_class,
)
from .kummer_structures import (  # noqa: F401
    DecisionReport,
    NoPellSolution,
    construct,
    check_hypotheses,
    decide,
    scan,
)
from .isometry_search import (  # noqa: F401
    block_sets,
    classify_order,
    compute_aut_d2,
    d2_configuration,
    prune,
    replacement_config,
    search,
    standard_config,
)
from . import exact_linalg, fm_lattices, pell  # noqa: F401
