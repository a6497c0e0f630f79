"""High-energy level asymptotics and the hybrid sum-rule estimator.

For -Delta psi = E Sigma psi on S^d the counting function grows like
N(Lambda) ~ C_d * (integral of Sigma^{d/2}) * Lambda^{d/2} with
C_d = 1 / ((4 pi)^{d/2} Gamma(1 + d/2)).  Inverting it gives the level
asymptote E_n ~ A n^{2/d}; for the tilted density 1 + kappa Y_{1,0} the
prefactor A has closed forms in d = 3, 4, 5 built from Gauss
hypergeometric values.  Summing the asymptote turns spectral tails into
Hurwitz zeta values, which combine with the variational low-lying levels
into a hybrid estimate of the renormalized sum rules, and supply the
tail-discrepancy diagnostic Delta(d, ell_max, s) together with its
power-law fit.
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import harmonics, rayleigh_ritz, tails
from .density import DensitySpec, check_kappa
from .errors import (DivergentSumError, NonConvergenceError, ValidationError,
                     check_integer)
from .quadrature import quadrature
from .sumrules import SumRuleResult, _check_sum_rule_orders, p_min, zeta_uniform

def hurwitz_zeta(s, a):
    """Hurwitz zeta sum_{n>=0} (n+a)^(-s) for s > 1, a > 0."""
    if s <= 1.0:
        raise DivergentSumError(
            "the tail sum diverges for exponent s <= 1, got %r" % (s,))
    if a <= 0.0:
        raise ValidationError("offset must be positive, got %r" % (a,))
    return float(special.zeta(s, a))


def counting_coefficient(d):
    """Leading coefficient C_d of the counting law N ~ C_d I Lambda^{d/2}."""
    return 1.0 / ((4.0 * math.pi) ** (d / 2.0) * math.gamma(1.0 + d / 2.0))


def uniform_prefactor(d):
    """Level-asymptote prefactor A at kappa = 0, any dimension."""
    return (counting_coefficient(d) * harmonics.sphere_volume(d)) ** (-2.0 / d)


def sigma_integral_quadrature(d, kappa):
    """integral over S^d of (1 + kappa Y_{1,0})^{d/2} by polar quadrature."""
    rule = quadrature((d - 2) / 2.0, 200)
    slope = check_kappa(d, kappa) * math.sqrt(
        harmonics.degeneracy(d, 1) / harmonics.sphere_volume(d))
    profile = 1.0 + slope * rule.nodes
    return float(rule.integrate(profile ** (d / 2.0))) * \
        harmonics.sphere_volume(d - 1)


@dataclass(frozen=True)
class WeylModel:
    """Leading-order level asymptote E_n ~ prefactor * n^{2/d}."""

    d: int
    prefactor: float
    sigma_integral: float
    kappa: float

    def level(self, n):
        """Asymptotic n-th level A n^{2/d}."""
        return self.prefactor * np.asarray(n, dtype=float) ** (2.0 / self.d)

    def counting(self, lam):
        """Counting estimate N(lam) = C_d * sigma_integral * lam^{d/2}."""
        return counting_coefficient(self.d) * self.sigma_integral * \
            np.asarray(lam, dtype=float) ** (self.d / 2.0)

    def tail(self, p, first):
        """sum_{n >= first} 1/E_n^p under the asymptote."""
        exponent = 2.0 * p / self.d
        return self.prefactor ** (-float(p)) * hurwitz_zeta(exponent, first)


def _closed_prefactor(d, kappa):
    pi = math.pi
    if d == 3:
        cubic = (4.0 * kappa ** 3 + 6.0 * math.sqrt(2.0) * pi * kappa ** 2
                 + 6.0 * pi ** 2 * kappa + math.sqrt(2.0) * pi ** 3)
        z = 2.0 * math.sqrt(2.0) * kappa / (math.sqrt(2.0) * kappa + pi)
        f3 = float(special.hyp2f1(-1.5, 1.5, 3.0, z))
        return (2.0 ** (1.0 / 6.0) * 3.0 ** (2.0 / 3.0) * pi
                / (cubic ** (1.0 / 3.0) * f3 ** (2.0 / 3.0)))
    if d == 4:
        return 4.0 * math.sqrt(6.0) * pi / math.sqrt(
            3.0 * kappa ** 2 + 8.0 * pi ** 2)
    if d == 5:
        z = (2.0 * math.sqrt(6.0) * kappa
             / (pi ** 1.5 + math.sqrt(6.0) * kappa))
        f5 = float(special.hyp2f1(-2.5, 2.5, 5.0, z))
        return (60.0 ** 0.4 * pi ** 1.5
                / ((pi ** 1.5 + math.sqrt(6.0) * kappa) * f5 ** 0.4))
    raise ValidationError(
        "closed level asymptotes cover d in {3, 4, 5}, got %r" % (d,))


def weyl_model(d, kappa=0.0):
    """Leading Weyl asymptote for the tilted density 1 + kappa Y_{1,0}.

    The prefactor follows the closed forms (hypergeometric in d = 3 and 5);
    the counting integral of Sigma^{d/2} is recomputed by quadrature and
    must reproduce the same prefactor, a cross-check of both routes.
    Negative kappa is accepted only where the closed forms keep their
    arguments in domain (all admissible kappa for d = 4; rejected for
    d = 3 and 5 where the hypergeometric argument turns negative).
    """
    kappa = check_kappa(d, kappa)
    if d in (3, 5) and kappa < 0.0:
        raise ValidationError(
            "kappa < 0 pushes the hypergeometric argument of the d=%d "
            "level formula outside [0, 1); only kappa >= 0 is supported"
            % (d,))
    prefactor = _closed_prefactor(d, kappa)
    sigma_integral = sigma_integral_quadrature(d, kappa)
    from_counting = (counting_coefficient(d) * sigma_integral) ** (-2.0 / d)
    if abs(from_counting - prefactor) > 1e-8 * abs(prefactor):
        raise NonConvergenceError(
            "level prefactor %.12g disagrees with the counting-law "
            "inversion %.12g for d=%d kappa=%g"
            % (prefactor, from_counting, d, kappa))
    return WeylModel(d, prefactor, sigma_integral, kappa)


# ----------------------------------------------------------------------
# hybrid estimator


def _exact_uniform_tail(d, p, skip):
    """sum over the exact uniform spectrum of 1/E^p past `skip` nonzero
    eigenvalues (eigenvalues consumed shell by shell, ascending)."""
    consumed = 0
    ell = 0
    total = zeta_uniform(d, p)
    while True:
        ell += 1
        g = harmonics.degeneracy(d, ell)
        lam = float(harmonics.eigenvalue(d, ell))
        if consumed + g <= skip:
            consumed += g
            total -= g / lam ** p
            continue
        part = skip - consumed
        total -= part / lam ** p
        return total


def hybrid_sum_rule(d, p, kappa, ell_max, retain=0.5):
    """Variational head plus Weyl tail for the order-p renormalized sum.

    The lowest M = floor(retain * basis_size) nonzero variational
    eigenvalues are summed directly and the rest of the spectrum is
    replaced by the level asymptote, giving prefactor^-p * zeta_H(2p/d,
    M+1).  The reported truncation error is the same head/tail split
    evaluated on the exactly known uniform spectrum: for kappa = 0 it *is*
    the error; for small kappa it remains the dominant, computable part.
    """
    d, p = _check_sum_rule_orders(d, p)
    ell_max = check_integer(ell_max, "ell_max")
    if not isinstance(retain, numbers.Real) or not 0.0 < retain < 1.0:
        raise ValidationError("retain fraction must be in (0, 1), got %r"
                              % (retain,))
    model = weyl_model(d, kappa)
    density = DensitySpec.tilted(d, kappa)
    problem = rayleigh_ritz.assemble(d, ell_max, density)
    spectrum = rayleigh_ritz.solve_spectrum(problem)
    size = spectrum.total_count
    m_keep = int(math.floor(retain * size))
    head = rayleigh_ritz.partial_sum(spectrum, p, m_keep)
    tail = model.tail(p, m_keep + 1)
    uniform_tail = weyl_model(d, 0.0).tail(p, m_keep + 1)
    trunc = abs(_exact_uniform_tail(d, p, m_keep) - uniform_tail)
    return SumRuleResult(d, p, head + tail, trunc, "hybrid", ell_max)


# ----------------------------------------------------------------------
# tail-discrepancy diagnostic


@dataclass(frozen=True)
class DeltaSample:
    """Exact vs Weyl spectral tail from one cutoff, for the uniform density.

    delta is |exact_tail - weyl_tail| where exact_tail sums
    g_ell / lambda_ell^s beyond ell_max and weyl_tail applies the level
    asymptote from the matching rank onward.  The two tails nearly cancel:
    each is far larger than their difference.
    """

    d: int
    s: float
    ell_max: int
    delta: float
    exact_tail: float
    weyl_tail: float


def delta(d, ell_max, s):
    """Tail discrepancy Delta(d, ell_max, s) for the uniform density."""
    d = check_integer(d, "sphere dimension d", least=2, most=None)
    if s < p_min(d):
        raise DivergentSumError(
            "both tails diverge for d=%d, s=%r: need s >= %d"
            % (d, s, p_min(d)))
    ell_max = check_integer(ell_max, "ell_max", least=1, most=None)

    def term(l):
        return np.exp(harmonics.log_degeneracy(d, l)) / \
            (l * (l + d - 1.0)) ** s

    exact_tail, _ = tails.accelerated_sum(term, ell_max + 1,
                                          switch=ell_max + 201)
    rank = rayleigh_ritz.basis_size(d, ell_max)
    weyl_tail = uniform_prefactor(d) ** (-float(s)) * hurwitz_zeta(
        2.0 * s / d, float(rank))
    return DeltaSample(d, s, ell_max, abs(exact_tail - weyl_tail),
                       exact_tail, weyl_tail)


def delta_model(a, b, c, ell_max):
    """Power-law model a / (1 + b ell_max^2)^c used to fit Delta scans."""
    ell = np.asarray(ell_max, dtype=float)
    return a / (1.0 + b * ell ** 2) ** c


def fit_delta(samples):
    """Least-squares fit of a Delta scan to a / (1 + b ell^2)^c.

    Gauss-Newton on the log residuals with parameters (log a, log b, c)
    and backtracking halving; initialization is deterministic: a from the
    first sample, c = 1/2, b from matching the last sample.  Returns
    {a, b, c, residual, n_samples} with residual the root-mean-square log
    misfit.  A warning is issued when the normal system is nearly
    degenerate (all samples deep in the b ell^2 >> 1 regime).
    """
    samples = sorted(samples, key=lambda smp: smp.ell_max)
    if len(samples) < 5:
        raise ValidationError(
            "need at least 5 samples to fit 3 parameters, got %d"
            % len(samples))
    if any(smp.delta <= 0.0 for smp in samples):
        raise ValidationError("fit needs strictly positive samples")
    ell = np.array([smp.ell_max for smp in samples], dtype=float)
    logd = np.log([smp.delta for smp in samples])

    a0 = samples[0].delta
    c0 = 0.5
    ratio = (a0 / samples[-1].delta) ** (1.0 / c0)
    b0 = max((ratio - 1.0) / ell[-1] ** 2, 1e-8)
    theta = np.array([math.log(a0), math.log(b0), c0])

    def residuals(th):
        la, lb, c = th
        return la - c * np.log1p(np.exp(lb) * ell ** 2) - logd

    res = residuals(theta)
    cost = float(res @ res)
    warned = False
    for _ in range(200):
        la, lb, c = theta
        u = np.exp(lb) * ell ** 2
        jac = np.column_stack([np.ones_like(ell),
                               -c * u / (1.0 + u),
                               -np.log1p(u)])
        normal = jac.T @ jac
        cond = np.linalg.cond(normal)
        if cond > 1e10 and not warned:
            warnings.warn(
                "fit parameters are nearly degenerate (condition number "
                "%.2g): samples do not constrain a and b separately"
                % cond, RuntimeWarning)
            warned = True
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        scale = 1.0
        for _ in range(40):
            trial = theta + scale * step
            tres = residuals(trial)
            tcost = float(tres @ tres)
            if tcost <= cost:
                break
            scale *= 0.5
        else:
            raise NonConvergenceError("backtracking stalled in the fit")
        moved = float(np.max(np.abs(scale * step)))
        theta, res, previous, cost = trial, tres, cost, tcost
        if moved < 1e-13 or previous - cost < 1e-24 * max(1.0, cost):
            return {"a": float(math.exp(theta[0])),
                    "b": float(math.exp(theta[1])),
                    "c": float(theta[2]),
                    "residual": float(math.sqrt(cost / len(ell))),
                    "n_samples": len(ell)}
    raise NonConvergenceError("fit did not converge within 200 iterations")
