"""Numerical laboratory for Bergman-space geometry and operator checks on
strongly pseudo-convex domains.

Layout mirrors the pipeline: polynomial domains (`domain`), the boundary-
weighted metric and distance estimator (`metric`), gauges and boundary-
concentrated integrals (`gauge`), separated point sets (`lattice`),
reproducing kernels (`kernel`), the Galerkin operator model (`operators`),
the boundary covering (`covering`), and the batch driver (`cli`).
"""

from .domain import DomainSpec, ellipsoid, unit_ball
from .metric import DistanceBudget, DistanceEstimator, Polydisc, distance
from .gauge import cap_contains, cap_measure, fr_integral, shell_volume
from .lattice import Lattice, build_separated, count_neighbors, partition_separated
from .kernel import EXACT_BALL, FEFFERMAN, KernelMode, kernel_eval, reproducing_residual
from .operators import (
    GalerkinSpace,
    OperatorMatrix,
    berezin,
    build_galerkin,
    compactness_report,
    cutoff_family,
    discrete_sum_matrix,
    hankel_and_commutator,
    loc_assemble,
    offdiag_split_search,
    oscillation_profile,
    partition_toeplitz_h,
    toeplitz_matrix,
)
from .covering import Cover, build_cover, build_packing, fit_engulfing_constant

__version__ = "0.1.0"

__all__ = [
    "DomainSpec", "ellipsoid", "unit_ball",
    "DistanceBudget", "DistanceEstimator", "Polydisc", "distance",
    "cap_measure", "fr_integral", "shell_volume",
    "Lattice", "build_separated", "count_neighbors", "partition_separated",
    "EXACT_BALL", "FEFFERMAN", "KernelMode", "kernel_eval", "reproducing_residual",
    "GalerkinSpace", "OperatorMatrix", "berezin", "build_galerkin", "compactness_report",
    "cutoff_family", "discrete_sum_matrix", "hankel_and_commutator", "loc_assemble",
    "offdiag_split_search", "oscillation_profile", "partition_toeplitz_h", "toeplitz_matrix",
    "Cover", "build_cover", "build_packing", "cap_contains", "fit_engulfing_constant",
]
