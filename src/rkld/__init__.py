"""Langevin dynamics in a reproducing kernel Hilbert space via spectral Galerkin truncation."""

from .config import ConfigError, ExperimentConfig, Manifest
from .diagnostics import (
    RateFit,
    TheoryConstants,
    discrepancy_budget,
    fit_loglog,
    gibbs_concentration_bound,
    ou_moment_bounds,
    ou_stationary_variances,
    spectral_gap,
    theory_constants,
)
from .dynamics import (
    ChainConfig,
    NumericalAbort,
    RunSummary,
    make_rng,
    run_blocks,
    run_chain,
    run_ensemble,
)
from .objective import Dataset, LossFamily, MinimizerPair, ObjectiveSpec, loss_family
from .spectral import (
    DiagonalOperator,
    KernelSpec,
    SpectralVector,
    operator_a,
    resolvent_s_eta,
    rkhs_norm,
)

__version__ = "0.1.0"
