r"""Projective invariants, pants-decomposition coordinates, and degeneration
functionals for the PSL(n,R) Hitchin component.

The package exposes exact-rational and float64 flag linear algebra, cross
and triple ratios, the shear/triangle invariant calculus on a pants
decomposition, a Fuchsian-locus tracer for closed curves, and the length
and entropy bounds evaluated along internal parameter rays.
"""

__version__ = "0.1.0"

from .linalg import (
    EXACT,
    FLOAT64,
    Backend,
    BackendError,
    DegenerateError,
    Flag,
    Subspace,
    is_generic_triple,
    subspace_intersect,
    subspace_sum,
    wedge_det,
)
from .invariants import (
    INFINITY,
    cross_ratio,
    cross_ratio_flags,
    eigen_gap_check,
    is_infinite,
    project_curve_point,
    triple_index_set,
    triple_ratio,
)
from .flags import (
    reconstruct_triple,
    sym_power,
    veronese_flag,
)
from .pants import (
    HitchinParams,
    PantsDecomposition,
    PantsInvariants,
    chain_decomposition,
    check_closed_leaf,
    lambda_gaps_from_invariants,
    standard_genus2,
    xi_forward,
    xi_inverse,
)
from .fuchsian import FuchsianSurfaceData, fuchsian_invariants, genus2_surface
from .tracer import PsiEncoding, PsiTracer, r_and_s, validate_psi
from .degeneration import (
    compute_K,
    compute_L,
    count_bound_gamma0,
    count_bound_gamma1,
    entropy_upper_bound,
    internal_sequence_scan,
    k_edge,
    length_lower_bound,
)

__all__ = [
    "EXACT",
    "FLOAT64",
    "Backend",
    "BackendError",
    "DegenerateError",
    "Flag",
    "FuchsianSurfaceData",
    "HitchinParams",
    "INFINITY",
    "PantsDecomposition",
    "PantsInvariants",
    "PsiEncoding",
    "PsiTracer",
    "Subspace",
    "chain_decomposition",
    "check_closed_leaf",
    "compute_K",
    "compute_L",
    "count_bound_gamma0",
    "count_bound_gamma1",
    "cross_ratio",
    "cross_ratio_flags",
    "eigen_gap_check",
    "entropy_upper_bound",
    "fuchsian_invariants",
    "genus2_surface",
    "internal_sequence_scan",
    "is_generic_triple",
    "is_infinite",
    "k_edge",
    "lambda_gaps_from_invariants",
    "length_lower_bound",
    "project_curve_point",
    "r_and_s",
    "reconstruct_triple",
    "standard_genus2",
    "subspace_intersect",
    "subspace_sum",
    "sym_power",
    "triple_index_set",
    "triple_ratio",
    "validate_psi",
    "veronese_flag",
    "wedge_det",
    "xi_forward",
    "xi_inverse",
]
