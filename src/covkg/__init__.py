"""Covariant Klein-Gordon toolkit.

Numerical verification of the multisymplectic formulation, covariant
phase space, and prequantization of the free Klein-Gordon field on a
periodic spatial box with a truncated Fourier mode set.
"""

from ._version import __version__
from .lattice import (
    ModeLattice,
    build_lattice,
    dft_forward,
    dft_inverse,
)
from .multisymplectic import (
    action_between_slices,
    action_criticality,
    coords,
    dtheta_fd,
    hamilton_residual,
    hamiltonian,
    omega_eval,
    theta_eval,
)
from .observables import (
    Pmu,
    a_k,
    a_star_k,
    bracket_regularized,
    energy_integral,
    momentum_integral,
    noether_divergence,
    pmu_bracket_identity,
    slice_integral,
)
from .phase_space import (
    fd_delta_theta,
    gram_matrix,
    omega_sigma,
    theta_difference_vs_action,
    theta_sigma,
)
from .prequant import (
    DegreeOverflowError,
    PolarizedState,
    commutator,
    inner_product,
    monomial,
    op_a,
    op_a_star,
    op_p,
    vacuum,
)
from .reporting import Report, RunConfig
from .solution import (
    Solution,
    evolve_exact,
    from_cauchy,
    from_modes,
    kg_residual,
    leapfrog_evolve,
    random_solution,
)

__all__ = [
    "__version__",
    "ModeLattice", "build_lattice", "dft_forward", "dft_inverse",
    "coords", "omega_eval", "theta_eval", "dtheta_fd",
    "hamiltonian", "hamilton_residual", "action_between_slices",
    "action_criticality",
    "Solution", "from_modes", "from_cauchy", "random_solution",
    "evolve_exact", "kg_residual", "leapfrog_evolve",
    "Pmu",
    "slice_integral", "a_k", "a_star_k", "bracket_regularized",
    "noether_divergence", "pmu_bracket_identity",
    "energy_integral", "momentum_integral",
    "theta_sigma", "omega_sigma", "fd_delta_theta", "gram_matrix",
    "theta_difference_vs_action",
    "PolarizedState", "DegreeOverflowError", "vacuum", "monomial",
    "op_a", "op_a_star", "op_p", "commutator", "inner_product",
    "RunConfig", "Report",
]
