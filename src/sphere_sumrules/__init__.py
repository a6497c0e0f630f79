"""Exact and approximate spectral sum rules for -Delta psi = E Sigma psi
on the unit d-sphere (d = 2..5) with a positive density Sigma.

The exact route renormalizes away the divergent zero-mode contribution of
the weighted resolvent and evaluates the remaining convergent series in
harmonic coefficient space; the approximate route combines a variational
(Rayleigh-Ritz) head with a Weyl-law tail.  Green's-function kernels and a
cross-module invariant suite support validation, and the `sphere-sumrules`
console script drives sweeps, scans, and tabulations.
"""

from .density import DensitySpec, kappa_bound
from .errors import (CutoffTooSmallError, DivergentSumError,
                     NonConvergenceError, SphereSumRulesError,
                     UnsupportedDensityError, UnsupportedOrderError,
                     ValidationError)
from .greens import GreenOrder, green_closed_form, green_spectral
from .harmonics import (HarmonicIndex, coupling_W, degeneracy, eigenvalue,
                        pair_strength, sphere_volume)
from .rayleigh_ritz import (GeneralizedProblem, SpectrumEstimate, assemble,
                            basis_size, partial_sum, solve_spectrum,
                            truncated_basis)
from .sumrules import (EpsilonCoeffs, SumRuleResult, closed_form_reference,
                       density_integrals, epsilon_closed, epsilon_recursive,
                       p_min, sum_rule, sum_rule_shifted, zeta_uniform)
from .weyl import (DeltaSample, WeylModel, delta, delta_model, fit_delta,
                   hurwitz_zeta, hybrid_sum_rule, uniform_prefactor,
                   weyl_model)

__version__ = "0.1.0"

__all__ = [
    "CutoffTooSmallError", "DeltaSample", "DensitySpec", "DivergentSumError",
    "EpsilonCoeffs", "GeneralizedProblem", "GreenOrder", "HarmonicIndex",
    "NonConvergenceError", "SpectrumEstimate", "SphereSumRulesError",
    "SumRuleResult", "UnsupportedDensityError",
    "UnsupportedOrderError", "ValidationError", "WeylModel", "assemble",
    "basis_size", "closed_form_reference", "coupling_W", "degeneracy",
    "delta", "delta_model", "density_integrals", "eigenvalue",
    "epsilon_closed", "epsilon_recursive", "fit_delta", "green_closed_form",
    "green_spectral", "hurwitz_zeta", "hybrid_sum_rule",
    "kappa_bound", "p_min", "pair_strength", "partial_sum", "sphere_volume",
    "sum_rule", "sum_rule_shifted", "solve_spectrum", "truncated_basis",
    "uniform_prefactor", "weyl_model", "zeta_uniform",
]
