"""Cross-module invariant suite behind the `validate` CLI subcommand.

Each check recomputes one structural identity two independent ways and
reports the measured residual against its default tolerance.  The suite is
meant as a fast self-test of an installation: every check runs in at most
a few seconds and touches a different seam between modules.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import greens, harmonics, rayleigh_ritz, sumrules, weyl
from .density import DensitySpec
from .errors import ValidationError
from .quadrature import quadrature


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self):
        return self.residual <= self.tolerance


def _orthonormality():
    d = 3
    idx = [harmonics.HarmonicIndex(d, l, m)
           for l in range(0, 3) for m in harmonics.enumerate_m(d, l)]
    rule1 = quadrature(0.5, 12)
    rule2 = quadrature(0.0, 12)
    nphi = 16
    phi = np.linspace(0.0, 2.0 * math.pi, nphi, endpoint=False)
    grid = tuple(a.ravel() for a in np.meshgrid(
        np.arccos(rule1.nodes), np.arccos(rule2.nodes), phi, indexing="ij"))
    w12 = np.outer(rule1.weights, rule2.weights).ravel()
    wts = np.repeat(w12, nphi) * (2.0 * math.pi / nphi)
    vals = np.array([harmonics.eval_harmonic(i, grid) for i in idx])
    gram = (vals * wts) @ vals.conj().T
    return float(np.max(np.abs(gram - np.eye(len(idx)))))


def _addition_theorem():
    d, ell = 4, 3
    angles = (0.7, 1.1, 2.0, 0.9)
    total = 0.0
    for m in harmonics.enumerate_m(d, ell):
        v = harmonics.eval_harmonic(harmonics.HarmonicIndex(d, ell, m),
                                    angles)
        total += abs(v) ** 2
    want = harmonics.degeneracy(d, ell) / harmonics.sphere_volume(d)
    return abs(total - want) / want


def _coupling_symmetry():
    i1 = harmonics.HarmonicIndex(3, 2, (1, 1))
    i2 = harmonics.HarmonicIndex(3, 3, (2, -1))
    i3 = harmonics.HarmonicIndex(3, 2, (2, 2))
    a = harmonics.coupling_W(i1, i2, i3)
    b = harmonics.coupling_W(i1, i3, i2)
    return abs(a - b)


def _coincidence_sum():
    d, l, big = 3, 2, 1
    zonal = harmonics.HarmonicIndex(d, big, (0,) * (d - 1))
    total = 0.0
    for m in harmonics.enumerate_m(d, l):
        i = harmonics.HarmonicIndex(d, l, m)
        total += harmonics.coupling_W(i, i, zonal)
    return abs(total)


def _pair_strength_anchor():
    worst = 0.0
    for l in range(1, 6):
        got = harmonics.pair_strength(3, 1, l, l + 1)
        want = (l + 1.0) * (l + 2.0) / (4.0 * math.pi ** 2)
        worst = max(worst, abs(got - want) / want)
        got2 = harmonics.pair_strength(2, 1, l, l + 1)
        want2 = (l + 1.0) / (4.0 * math.pi)
        worst = max(worst, abs(got2 - want2) / want2)
    return worst


def _zonal_vs_generic():
    d, L = 3, 2
    worst = 0.0
    zonal = harmonics.HarmonicIndex(d, L, (0,) * (d - 1))
    for (l1, l2, m2) in ((2, 2, 1), (3, 3, 2), (2, 4, 0), (3, 5, 1)):
        got = harmonics.zonal_coupling_w(d, L, l1, l2, m2)
        i1 = harmonics.HarmonicIndex(d, l1, (m2, m2))
        i2 = harmonics.HarmonicIndex(d, l2, (m2, m2))
        want = harmonics.coupling_W(i1, i2, zonal)
        worst = max(worst, abs(got - want))
    return worst


def _conjugation():
    idx = harmonics.HarmonicIndex(4, 3, (2, 1, -1))
    omega = (0.8, 1.3, 0.4, 2.2)
    lhs = np.conj(harmonics.eval_harmonic(idx, omega))
    partner = idx.conjugate_partner()
    rhs = idx.conjugate_phase() * harmonics.eval_harmonic(partner, omega)
    return abs(lhs - rhs)


def _density_guards():
    bad = 0
    try:
        DensitySpec.tilted(3, 2.3)
        bad += 1
    except ValidationError:
        pass
    try:
        DensitySpec.from_coeffs(
            3, {harmonics.HarmonicIndex(3, 1, (1, 1)): 0.5 + 0.1j})
        bad += 1
    except ValidationError:
        pass
    return float(bad)


def _density_rho():
    den = DensitySpec.zonal(3, {1: 0.4, 2: 0.35})
    rho = den.rho_by_degree()
    want = {1: 0.4 ** 2, 2: 0.35 ** 2}
    return max(abs(rho[k] - want[k]) for k in want)


def _zeta_values():
    zeta3 = weyl.hurwitz_zeta(3.0, 1.0)
    targets = {
        (2, 2): 1.0,
        (3, 2): 1.0 / 16.0 + math.pi ** 2 / 12.0,
        (4, 3): 2.0 * zeta3 / 27.0 + 23.0 / 1458.0,
        (5, 3): 5.0 / 6144.0 + 19.0 * math.pi ** 2 / 2304.0,
    }
    return max(abs(sumrules.zeta_uniform(d, p) - v)
               for (d, p), v in targets.items())


def _table_integrals():
    den = DensitySpec.tilted(3, 1.0)
    worst = 0.0
    got = sumrules.density_integrals("I1", (0,), den)["value"]
    worst = max(worst, abs(got - 1.0 / 3.0))
    got = sumrules.density_integrals("I2", (0, 0), den)["value"]
    worst = max(worst, abs(got - 1.0 / 9.0))
    got = sumrules.density_integrals("J2", (0, 0, 0), den)["value"]
    want = sumrules.zeta_uniform(3, 3) + \
        (4.0 * math.pi ** 2 - 29.0) / (96.0 * math.pi ** 2)
    worst = max(worst, abs(got - want))
    return worst


def _epsilon_routes():
    den = DensitySpec.tilted(3, 1.0)
    closed = sumrules.epsilon_closed(den)
    rec = [sumrules.epsilon_recursive(den, k) for k in (1, 2, 3, 4)]
    return max(abs(a - b) for a, b in zip(closed.eps, rec))


def _closed_form_match():
    den = DensitySpec.tilted(3, 1.0)
    got = sumrules.sum_rule(3, 2, den).value
    want = sumrules.closed_form_reference(3, 2, 1.0)
    return abs(got - want) / abs(want)


def _shifted_cancellation():
    den = DensitySpec.tilted(3, 1.0)
    want = sumrules.sum_rule(3, 2, den).value
    g1, g2 = 1e-3, 1e-4
    z1 = sumrules.sum_rule_shifted(3, 2, den, g1)["Z_renorm"]
    z2 = sumrules.sum_rule_shifted(3, 2, den, g2)["Z_renorm"]
    extrap = (g1 * z2 - g2 * z1) / (g1 - g2)
    return abs(extrap - want) / abs(want)


def _green_cross():
    res = greens.green_spectral(greens.GreenOrder(3, 1), 0.0, 2500)
    want = greens.green_closed_form(3, 1, math.pi / 2.0)
    gap = abs(res["value"] - want)
    return gap / max(res["tail_bound"], 1e-300)


def _green_anchor():
    worst = abs(greens.green_closed_form(3, 0, math.pi / 2.0)
                + 1.0 / (8.0 * math.pi ** 2))
    worst = max(worst, abs(greens.green_closed_form(2, 0, math.pi)
                           + 1.0 / (4.0 * math.pi)))
    return worst


def _green_mean():
    rule = quadrature(0.5, 400)
    vals = np.array([greens.green_closed_form(3, 1, math.acos(x))
                     for x in rule.nodes])
    return abs(float(rule.integrate(vals)) * harmonics.sphere_volume(2))


def _block_vs_full():
    den = DensitySpec.tilted(3, 1.0)
    sz = rayleigh_ritz.solve_spectrum(
        rayleigh_ritz.assemble(3, 4, den, mode="zonal_blocks"))
    sf = rayleigh_ritz.solve_spectrum(
        rayleigh_ritz.assemble(3, 4, den, mode="full"))
    return float(np.max(np.abs(sz.expand() - sf.expand())))


def _uniform_spectrum():
    spec = rayleigh_ritz.solve_spectrum(
        rayleigh_ritz.assemble(3, 3, DensitySpec.uniform(3)))
    want = np.repeat([0.0, 3.0, 8.0, 15.0], [1, 4, 9, 16])
    return float(np.max(np.abs(spec.expand() - want)))


def _zero_mode():
    spec = rayleigh_ritz.solve_spectrum(
        rayleigh_ritz.assemble(3, 6, DensitySpec.tilted(3, 1.5)))
    return abs(float(spec.values[0]))


def _prefactor_consistency():
    worst = 0.0
    for d in (3, 5):
        model = weyl.weyl_model(d, 1.0)
        rebuilt = (weyl.counting_coefficient(d)
                   * model.sigma_integral) ** (-2.0 / d)
        worst = max(worst, abs(rebuilt - model.prefactor) / model.prefactor)
    return worst


def _hybrid_identity():
    res = weyl.hybrid_sum_rule(3, 3, 0.0, 8)
    exact = sumrules.zeta_uniform(3, 3)
    return abs(abs(res.value - exact) - res.trunc_error)


CHECKS = (
    ("harmonics", "orthonormality", _orthonormality, 1e-10),
    ("harmonics", "addition-theorem", _addition_theorem, 1e-12),
    ("harmonics", "coupling-slot-symmetry", _coupling_symmetry, 1e-14),
    ("harmonics", "coincidence-sum-vanishes", _coincidence_sum, 1e-14),
    ("harmonics", "pair-strength-anchors", _pair_strength_anchor, 1e-12),
    ("harmonics", "zonal-vs-generic-coupling", _zonal_vs_generic, 1e-13),
    ("harmonics", "conjugation-pairing", _conjugation, 1e-12),
    ("density", "guards-reject-invalid", _density_guards, 0.0),
    ("density", "degree-densities", _density_rho, 1e-14),
    ("sumrules", "uniform-zeta-closed-forms", _zeta_values, 1e-10),
    ("sumrules", "tilted-density-integrals", _table_integrals, 1e-9),
    ("sumrules", "perturbation-recursion-vs-closed", _epsilon_routes, 1e-10),
    ("sumrules", "engine-vs-closed-form", _closed_form_match, 1e-8),
    ("sumrules", "shifted-divergence-cancellation", _shifted_cancellation,
     1e-6),
    ("greens", "closed-vs-spectral-within-bound", _green_cross, 1.0),
    ("greens", "closed-form-anchors", _green_anchor, 1e-13),
    ("greens", "zero-spatial-mean", _green_mean, 1e-10),
    ("rayleigh_ritz", "blocks-vs-full-spectrum", _block_vs_full, 1e-10),
    ("rayleigh_ritz", "uniform-spectrum-exact", _uniform_spectrum, 1e-10),
    ("rayleigh_ritz", "zero-mode-survives", _zero_mode, 1e-10),
    ("weyl", "prefactor-vs-counting", _prefactor_consistency, 1e-10),
    ("weyl", "hybrid-error-identity", _hybrid_identity, 1e-12),
)


def available_modules():
    return tuple(sorted({module for module, *_ in CHECKS}))


def run_suite(modules=None, tolerance=None):
    """Run the invariant checks, optionally filtered and with one shared
    tolerance override; returns a list of CheckResult."""
    if modules:
        unknown = set(modules) - set(available_modules())
        if unknown:
            raise ValidationError(
                "unknown validation module(s) %s; available: %s"
                % (", ".join(sorted(unknown)),
                   ", ".join(available_modules())))
    results = []
    for module, name, func, tol in CHECKS:
        if modules and module not in modules:
            continue
        if tolerance is not None:
            tol = float(tolerance)
        results.append(CheckResult(module, name, float(func()), tol))
    return results
