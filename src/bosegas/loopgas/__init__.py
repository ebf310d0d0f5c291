"""Poisson-Wiener loop gas: free measure, Gibbs perturbation, identities."""

from .checks import (
    CylindricalFunctional,
    ExpPairing,
    One,
    Pairing,
    PairingProduct,
    integration_by_parts_check,
    mean_pairing,
    sigma_independence_check,
    spectral_log_partition,
    trace_identity_check,
)
from .energy import interaction_energy, intra_energy, pair_energy
from .free import (
    characteristic_functional,
    free_density,
    free_log_partition,
    free_rdm,
    pairing,
    sample_free_poisson,
    sample_free_poisson_batch,
    time_integrals,
    time_integrals_of,
    winding_masses,
)
from .gibbs import GibbsChain, gibbs_sample
from .loops import BridgeLoop, LoopBatch, LoopConfiguration, fill_bridges
from .observables import (
    LoopTestFunction,
    reduced_density_matrix,
)
from .potential import PairPotential, gaussian_repulsion, hard_core
from .regions import (
    DIRICHLET,
    PERIODIC,
    BoxRegion,
    diagonal_mass,
    dirichlet_mode_trace,
    kernel,
    periodic_mode_trace,
)

__all__ = [
    "BoxRegion",
    "BridgeLoop",
    "CylindricalFunctional",
    "DIRICHLET",
    "ExpPairing",
    "GibbsChain",
    "LoopBatch",
    "LoopConfiguration",
    "LoopTestFunction",
    "One",
    "PERIODIC",
    "Pairing",
    "PairingProduct",
    "PairPotential",
    "characteristic_functional",
    "diagonal_mass",
    "dirichlet_mode_trace",
    "free_density",
    "free_log_partition",
    "free_rdm",
    "gaussian_repulsion",
    "gibbs_sample",
    "hard_core",
    "integration_by_parts_check",
    "interaction_energy",
    "intra_energy",
    "kernel",
    "mean_pairing",
    "pair_energy",
    "pairing",
    "periodic_mode_trace",
    "reduced_density_matrix",
    "sample_free_poisson",
    "sample_free_poisson_batch",
    "sigma_independence_check",
    "spectral_log_partition",
    "time_integrals",
    "time_integrals_of",
    "trace_identity_check",
    "winding_masses",
]
