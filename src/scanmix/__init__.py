"""Exact and empirical mixing analysis for single-site coloring dynamics.

The library studies random single-site updates ("glauber") and deterministic
left-to-right sweeps ("scan") for proper q-colorings and general
constraint-graph colorings of paths and small graphs: exact transition
kernels and spectra, eigenvector-weighted mixing bounds for the auxiliary
sign chains, exact coupling drift ledgers, canonical-path congestion, and
clamped-versus-free disagreement experiments.
"""

__version__ = "0.1.0"

from .domain import (
    BudgetExceededError,
    Graph,
    ImproperColoringError,
    TargetGraph,
    VertexWeights,
    enumerate_colorings,
    enumerate_h_colorings,
)
from .dynamics import ChainSpec, RandomTape, metropolis_update
from .kernels import (
    ChainKernel,
    NonErgodicError,
    SpectralReport,
    build_kernel,
    build_sign_kernel,
    poincare_constant,
    tv_mixing_time,
    verify_comparison,
)
from .congestion import canonical_congestion, ergodicity_report
from .coupling import coupled_sweep, coupling_time
from .percolation import lb_experiment, sample_pi0, segment_layout, transfer_count
from .wilson import closed_form_eigen, estimate_rho, wilson_bounds
