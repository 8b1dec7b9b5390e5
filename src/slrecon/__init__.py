"""Structured low-rank k-space completion toolkit."""

from .grid import IndexSet2D, count_shifts, dilate, predicted_rank, valid_output_set
from .lifting import (
    KSpaceArray,
    LiftingConfig,
    adjoint_apply,
    apply_filter,
    gram_matrix,
    lift_dense,
)
from .phantom import (
    EdgePolynomial,
    Phantom,
    SamplingMask,
    dirac_fourier,
    make_mask,
    phantom_fourier,
    random_edge_polynomial,
    sample_kspace,
)
from .giraf import IRLSConfig, giraf_solve
from .baselines import SVTConfig, delift, svt_solve, tv_solve, zero_fill
from .analysis import numerical_rank, phase_transition, rho1_estimate, rho2, snr_db, subspace_check
from .report import IterationRecord, SolverReport

__all__ = [
    "IndexSet2D",
    "count_shifts",
    "dilate",
    "predicted_rank",
    "valid_output_set",
    "KSpaceArray",
    "LiftingConfig",
    "adjoint_apply",
    "apply_filter",
    "gram_matrix",
    "lift_dense",
    "EdgePolynomial",
    "Phantom",
    "SamplingMask",
    "dirac_fourier",
    "make_mask",
    "phantom_fourier",
    "random_edge_polynomial",
    "sample_kspace",
    "IRLSConfig",
    "giraf_solve",
    "SVTConfig",
    "delift",
    "svt_solve",
    "tv_solve",
    "zero_fill",
    "numerical_rank",
    "phase_transition",
    "rho1_estimate",
    "rho2",
    "snr_db",
    "subspace_check",
    "IterationRecord",
    "SolverReport",
]
