"""Thermal Gaussian loop fields: sampling, Weyl functionals, mixing, perturbations."""

from .fields import (
    FieldGrid,
    ThermalFieldParams,
    char_functional,
    covariance,
    ergodicity_diagnostic,
    loop_kernel,
    pair_field,
    sample_fields,
    weyl_expectation,
)
from .mixing import (
    mixing_decomposition_check,
    mixing_nodes,
    renormalized_mixing,
)
from .perturb import (
    PolynomialPerturbation,
    mollify,
    reweighted_state,
)

__all__ = [
    "FieldGrid",
    "ThermalFieldParams",
    "char_functional",
    "covariance",
    "ergodicity_diagnostic",
    "loop_kernel",
    "pair_field",
    "sample_fields",
    "weyl_expectation",
    "mixing_decomposition_check",
    "mixing_nodes",
    "renormalized_mixing",
    "PolynomialPerturbation",
    "mollify",
    "reweighted_state",
]
