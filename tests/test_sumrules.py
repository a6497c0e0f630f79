"""Exact renormalized sum-rule engine: closed forms, dual routes, guards.

Oracles: the uniform-density constants are classical zeta-type sums with
known closed forms; the tilt-family integrals have hand-derived polynomial
expressions in kappa; and the full engine is checked against the quartic/
sextic closed forms for (d, p) in {(3,2), (3,3), (4,3), (5,3)}.
"""

import bisect
import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import zeta

from sphere_sumrules import harmonics, rayleigh_ritz, sumrules, weyl
from sphere_sumrules.density import DensitySpec, kappa_bound
from sphere_sumrules.errors import (
    CutoffTooSmallError,
    DivergentSumError,
    SphereSumRulesError,
    UnsupportedDensityError,
    UnsupportedOrderError,
    ValidationError,
    check_integer,
)
from sphere_sumrules.greens import GreenOrder
from sphere_sumrules.harmonics import HarmonicIndex, sphere_volume
from sphere_sumrules.sumrules import (
    MAX_ELL_CUT,
    _check_ell_cut,
    _cubic_core,
    _cubic_trace,
    closed_form_reference,
    density_integrals,
    epsilon_closed,
    epsilon_recursive,
    p_min,
    sum_rule,
    sum_rule_shifted,
    zeta_uniform,
)
from sphere_sumrules.weyl import hybrid_sum_rule

import reference
from test_zonal_properties import zonal_densities

PI = math.pi


# ----------------------------------------------------------------------
# uniform-density constants


def test_p_min():
    assert [p_min(d) for d in (2, 3, 4, 5)] == [2, 2, 3, 3]


def test_zeta_uniform_closed_forms():
    cases = {
        (2, 2): 1.0,
        (2, 3): 2 * (float(zeta(3, 1)) - 1.0),
        (3, 2): 1.0 / 16 + PI ** 2 / 12,
        (3, 3): (2 * PI ** 2 - 3) / 96,
        (4, 3): 2 * float(zeta(3, 1)) / 27 + 23.0 / 1458,
        (5, 3): 5.0 / 6144 + 19 * PI ** 2 / 2304,
    }
    for (d, p), want in cases.items():
        assert zeta_uniform(d, p) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("switch", [200, 800, 3000])
def test_uniform_trace_within_four_ulp_of_closed_forms(switch):
    # the closed forms of the validate suite's uniform-zeta check
    cases = {
        (2, 2): 1.0,
        (3, 2): 1.0 / 16 + PI ** 2 / 12,
        (4, 3): 2 * weyl.hurwitz_zeta(3.0, 1.0) / 27 + 23.0 / 1458,
        (5, 3): 5.0 / 6144 + 19 * PI ** 2 / 2304,
    }
    for (d, p), want in cases.items():
        got, _ = sumrules._spectral_trace(d, p, switch=switch)
        assert abs(got - want) <= 4 * math.ulp(want), (d, p)


def test_zeta_uniform_sanity_vs_direct_sum():
    # brute partial sum plus crude remainder bound brackets the value
    for d, p in ((2, 2), (3, 2), (4, 3), (5, 3)):
        direct = 0.0
        from sphere_sumrules.harmonics import degeneracy, eigenvalue
        for ell in range(1, 4000):
            direct += degeneracy(d, ell) / eigenvalue(d, ell) ** p
        assert direct < zeta_uniform(d, p)
        assert zeta_uniform(d, p) - direct < 1e-3


def test_zeta_uniform_divergence_guard():
    for d, p in ((2, 1), (3, 1), (4, 2), (5, 2)):
        with pytest.raises(DivergentSumError):
            zeta_uniform(d, p)


# ----------------------------------------------------------------------
# density integrals of the tilt family: hand-derived kappa polynomials


I3_QUARTIC = {2: 1 / (120 * PI), 3: 1 / (144 * PI ** 2),
              4: 3 / (1120 * PI ** 2), 5: 1 / (240 * PI ** 3)}
J1_CLOSED = {2: lambda k: 1.0 + k ** 2 / (8 * PI),
             3: lambda k: (3 + 4 * PI ** 2) / 48 + 11 * k ** 2 / (36 * PI ** 2)}
J2_QUADRATIC = {2: 3 / (32 * PI),
                3: (4 * PI ** 2 - 29) / (96 * PI ** 2),
                4: 277 / (4608 * PI ** 2),
                5: 2833 / (96000 * PI ** 3) + 1 / (80 * PI)}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_first_moments_of_tilt_family(d, kappa):
    den = DensitySpec.tilted(d, kappa)
    got = density_integrals("I1", (0,), den)
    assert got["value"] == pytest.approx(kappa ** 2 / d, rel=1e-9)
    got = density_integrals("I2", (0, 0), den)
    assert got["value"] == pytest.approx(kappa ** 2 / d ** 2, rel=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_cubic_moment_of_tilt_family(d, kappa):
    den = DensitySpec.tilted(d, kappa)
    want = kappa ** 2 / d ** 3 + I3_QUARTIC[d] * kappa ** 4
    got = density_integrals("I3", (0, 0, 0), den)
    assert got["value"] == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_quadratic_weighted_sum_j1(d, kappa):
    den = DensitySpec.tilted(d, kappa)
    got = density_integrals("J1", (0, 0), den)
    assert got["value"] == pytest.approx(J1_CLOSED[d](kappa), rel=1e-8)


def test_j1_divergent_for_high_dimension():
    for d in (4, 5):
        with pytest.raises(DivergentSumError):
            density_integrals("J1", (0, 0), DensitySpec.tilted(d, 1.0))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_cubic_weighted_sum_j2(d, kappa):
    den = DensitySpec.tilted(d, kappa)
    want = zeta_uniform(d, 3) + J2_QUADRATIC[d] * kappa ** 2
    got = density_integrals("J2", (0, 0, 0), den)
    assert got["value"] == pytest.approx(want, rel=1e-8)


def test_density_integrals_argument_checks():
    den = DensitySpec.tilted(3, 1.0)
    with pytest.raises(ValidationError):
        density_integrals("I1", (0, 0), den)       # wrong order count
    with pytest.raises(ValidationError):
        density_integrals("X9", (0,), den)         # unknown kind
    with pytest.raises(CutoffTooSmallError):
        density_integrals("J2", (0, 0, 0), den, ell_cut=1)


def test_density_integrals_uniform_density():
    den = DensitySpec.uniform(3)
    assert density_integrals("I1", (0,), den)["value"] == pytest.approx(0.0)
    got = density_integrals("J2", (0, 0, 0), den)
    assert got["value"] == pytest.approx(zeta_uniform(3, 3), rel=1e-10)


def test_cubic_weighted_sum_requires_zonal_density():
    # degrees {1, 2} admit a coupled triple, so the cubic term is live and
    # the engine must refuse the non-zonal case rather than silently drop it
    den = DensitySpec.from_coeffs(3, {
        HarmonicIndex(3, 1, (1, 1)): 0.2,
        HarmonicIndex(3, 1, (1, -1)): -0.2,
        HarmonicIndex(3, 2, (1, 1)): 0.1,
        HarmonicIndex(3, 2, (1, -1)): -0.1,
    })
    with pytest.raises(UnsupportedDensityError):
        density_integrals("J2", (0, 0, 0), den)
    # a pure degree-1 non-zonal density has no coupled triple: fine
    pure = DensitySpec.from_coeffs(3, {HarmonicIndex(3, 1, (1, 1)): 0.2,
                                       HarmonicIndex(3, 1, (1, -1)): -0.2})
    got = density_integrals("J2", (0, 0, 0), pure)["value"]
    want = zeta_uniform(3, 3) + J2_QUADRATIC[3] * pure.rho_by_degree()[1]
    assert got == pytest.approx(want, rel=1e-8)


def test_trunc_error_shrinks_with_cutoff():
    den = DensitySpec.tilted(3, 1.5)
    loose = density_integrals("J2", (0, 0, 0), den, ell_cut=40)
    tight = density_integrals("J2", (0, 0, 0), den, ell_cut=320)
    assert tight["trunc_error"] < loose["trunc_error"]
    assert abs(loose["value"] - tight["value"]) < 1e-6


# zonal density whose degrees 1, 2 and 3 make every coupled-triple shape live
CUBIC_COEFFS = {1: 0.3, 2: 0.2, 3: 0.1}


@pytest.fixture(scope="module")
def cubic_sum_rules():
    """sum_rule(d, 3) of the CUBIC_COEFFS density at cutoffs 200 and 800."""
    return {d: {cut: sum_rule(d, 3, DensitySpec.zonal(d, CUBIC_COEFFS),
                              ell_cut=cut) for cut in (200, 800)}
            for d in (3, 4, 5)}


@pytest.mark.parametrize("d", [3, 4, 5])
def test_cubic_trunc_error_covers_gap_to_fourfold_cutoff(cubic_sum_rules, d):
    coarse, fine = cubic_sum_rules[d][200], cubic_sum_rules[d][800]
    assert coarse.trunc_error >= abs(coarse.value - fine.value)


def test_cubic_sum_rule_past_gauss_jacobi_failure(cubic_sum_rules):
    # Gauss-Jacobi rules for these bands fail to converge near cutoff 740
    res3 = cubic_sum_rules[3][800]
    res5 = sum_rule(5, 3, DensitySpec.zonal(5, CUBIC_COEFFS), ell_cut=740)
    for res in (res3, res5):
        assert math.isfinite(res.value) and math.isfinite(res.trunc_error)
    assert res5.ell_cut == 740


# The (trace, top shell) at cut 200 and inner 184 of the cubic trace's
# earlier route, the (m2, n) grid that summed every block on its own, as
# float.hex: a density whose top degree 5 reaches past the cut, both
# weight patterns and both floors.  They stay as that grid's values; the
# route that sums the blocks by their moments is held to them at 1e-12.
CUBIC_CORE_PINS = [
    ('three', 2, (0, 0, 0), None, '0x1.2367d6ff64495p-13', '0x1.15463915568c8p-42'),
    ('three', 2, (0, 0, 0), 0.001, '0x1.1ff0a43a8c1ffp-1', '0x1.15463797c5730p-42'),
    ('three', 2, (1, 2, 0), None, '0x1.6c662f00c73cfp-18', '0x1.918a82ba83358p-88'),
    ('three', 2, (1, 2, 0), 0.001, '0x1.27a806e995045p+16', '0x1.918a7e61c1524p-88'),
    ('three', 3, (0, 0, 0), None, '0x1.ae0f3e6d1436ep-15', '0x1.e8a6091743fe0p-37'),
    ('three', 3, (0, 0, 0), 0.001, '0x1.3d91f8a9f5041p-3', '0x1.e8a6067b8aa3dp-37'),
    ('three', 3, (1, 2, 0), None, '0x1.f754e3881346bp-22', '0x1.5a6b7eb98da72p-82'),
    ('three', 3, (1, 2, 0), 0.001, '0x1.adf7a85fff78bp+13', '0x1.5a6b7b004b241p-82'),
    ('three', 4, (0, 0, 0), None, '0x1.e666a2901483fp-16', '0x1.5bce89fef4abap-31'),
    ('three', 4, (0, 0, 0), 0.001, '0x1.06759848d8865p-4', '0x1.5bce8826da57fp-31'),
    ('three', 4, (1, 2, 0), None, '0x1.661a2938c27e3p-24', '0x1.e35a3e63e4761p-77'),
    ('three', 4, (1, 2, 0), 0.001, '0x1.08dfe385205d6p+12', '0x1.e35a393ab2120p-77'),
    ('three', 5, (0, 0, 0), None, '0x1.b02a81a17d78fp-16', '0x1.b46c5ef40a01dp-26'),
    ('three', 5, (0, 0, 0), 0.001, '0x1.1de8f4bea0c13p-5', '0x1.b46c5ca77e3afp-26'),
    ('three', 5, (1, 2, 0), None, '0x1.95d4bb272f0cep-26', '0x1.296281aca04bdp-71'),
    ('three', 5, (1, 2, 0), 0.001, '0x1.cbbb7d12817a3p+10', '0x1.29627e850903ap-71'),
    ('wide', 2, (0, 0, 0), None, '0x1.5fe0b5affb888p-21', '0x1.517b88bd4af50p-50'),
    ('wide', 2, (0, 0, 0), 0.001, '0x1.984d629175978p-12', '0x1.517b86ea1de96p-50'),
    ('wide', 2, (1, 2, 0), None, '0x1.509cbaefcdb9ep-25', '0x1.f18d415003285p-96'),
    ('wide', 2, (1, 2, 0), 0.001, '0x1.3113cc39369edp+4', '0x1.f18d3be4b6362p-96'),
    ('wide', 3, (0, 0, 0), None, '0x1.03a0863affdfep-22', '0x1.7111b13a6f5d4p-44'),
    ('wide', 3, (0, 0, 0), 0.001, '0x1.516e8ae0997f1p-13', '0x1.7111af3fb2a00p-44'),
    ('wide', 3, (1, 2, 0), None, '0x1.acb7bbb405fc9p-29', '0x1.0976cb38a7431p-89'),
    ('wide', 3, (1, 2, 0), 0.001, '0x1.7614b8de6d1bcp+2', '0x1.0976c85a81bccp-89'),
    ('wide', 4, (0, 0, 0), None, '0x1.38be08aa20b0fp-23', '0x1.2c37f698f38b7p-38'),
    ('wide', 4, (0, 0, 0), 0.001, '0x1.5f50fa07fb9f4p-14', '0x1.2c37f4ffbc9d8p-38'),
    ('wide', 4, (1, 2, 0), None, '0x1.1b59bd7ce8f15p-31', '0x1.a68c219c2b8ccp-84'),
    ('wide', 4, (1, 2, 0), 0.001, '0x1.343c8262931ffp+1', '0x1.a68c1d141971dp-84'),
    ('wide', 5, (0, 0, 0), None, '0x1.3e05c588a768ep-23', '0x1.9f0e1733db12fp-33'),
    ('wide', 5, (0, 0, 0), 0.001, '0x1.bf865e4d496eep-15', '0x1.9f0e1501fd905p-33'),
    ('wide', 5, (1, 2, 0), None, '0x1.2f58074242993p-33', '0x1.1e1e0b61b6144p-78'),
    ('wide', 5, (1, 2, 0), 0.001, '0x1.43e830632acb4p+0', '0x1.1e1e085598d89p-78'),
]


def _pinned_core(name, d, exps, gamma):
    coeffs = {"three": CUBIC_COEFFS,
              "wide": {2: 0.05, 4: 0.03, 5: 0.02}}[name]
    return _cubic_core(DensitySpec.zonal(d, coeffs), exps, gamma, 200, 184)


@pytest.mark.parametrize("name, d, exps, gamma, trace, shell", CUBIC_CORE_PINS)
def test_cubic_core_is_pinned_to_the_bit(name, d, exps, gamma, trace, shell):
    # the grid's pins, which the moments meet to 3.5e-13 (the shells of
    # 'wide' at d = 4 and 5) and the traces to 7.5e-15; 1e-12 leaves room
    # for the moments' cancellation, which grows with the degrees
    got = _pinned_core(name, d, exps, gamma)
    for value, pin in zip(got, (trace, shell)):
        assert value == pytest.approx(float.fromhex(pin), rel=1e-12, abs=0)


# The same cases as float.hex of the route that sums the blocks by their
# moments.  Values of a change that only reorganises its pass must not move
# by a bit.
MOMENT_CORE_PINS = [
    ('three', 2, (0, 0, 0), None, '0x1.2367d6ff64494p-13', '0x1.15463915568c0p-42'),
    ('three', 2, (0, 0, 0), 0.001, '0x1.1ff0a43a8c1fbp-1', '0x1.15463797c5728p-42'),
    ('three', 2, (1, 2, 0), None, '0x1.6c662f00c73ccp-18', '0x1.918a82ba83349p-88'),
    ('three', 2, (1, 2, 0), 0.001, '0x1.27a806e995045p+16', '0x1.918a7e61c151bp-88'),
    ('three', 3, (0, 0, 0), None, '0x1.ae0f3e6d14369p-15', '0x1.e8a609174400dp-37'),
    ('three', 3, (0, 0, 0), 0.001, '0x1.3d91f8a9f5048p-3', '0x1.e8a6067b8aa6ep-37'),
    ('three', 3, (1, 2, 0), None, '0x1.f754e38813472p-22', '0x1.5a6b7eb98da93p-82'),
    ('three', 3, (1, 2, 0), 0.001, '0x1.adf7a85fff78dp+13', '0x1.5a6b7b004b25fp-82'),
    ('three', 4, (0, 0, 0), None, '0x1.e666a29014844p-16', '0x1.5bce89fef4b0bp-31'),
    ('three', 4, (0, 0, 0), 0.001, '0x1.06759848d885fp-4', '0x1.5bce8826da5cfp-31'),
    ('three', 4, (1, 2, 0), None, '0x1.661a2938c27e6p-24', '0x1.e35a3e63e47d5p-77'),
    ('three', 4, (1, 2, 0), 0.001, '0x1.08dfe385205d7p+12', '0x1.e35a393ab2196p-77'),
    ('three', 5, (0, 0, 0), None, '0x1.b02a81a17d78ep-16', '0x1.b46c5ef40a01ap-26'),
    ('three', 5, (0, 0, 0), 0.001, '0x1.1de8f4bea0c15p-5', '0x1.b46c5ca77e3a6p-26'),
    ('three', 5, (1, 2, 0), None, '0x1.95d4bb272f0cfp-26', '0x1.296281aca04bdp-71'),
    ('three', 5, (1, 2, 0), 0.001, '0x1.cbbb7d12817a5p+10', '0x1.29627e8509040p-71'),
    ('wide', 2, (0, 0, 0), None, '0x1.5fe0b5affb889p-21', '0x1.517b88bd4aed4p-50'),
    ('wide', 2, (0, 0, 0), 0.001, '0x1.984d629175971p-12', '0x1.517b86ea1de18p-50'),
    ('wide', 2, (1, 2, 0), None, '0x1.509cbaefcdb9fp-25', '0x1.f18d4150031ddp-96'),
    ('wide', 2, (1, 2, 0), 0.001, '0x1.3113cc39369edp+4', '0x1.f18d3be4b62b2p-96'),
    ('wide', 3, (0, 0, 0), None, '0x1.03a0863affe04p-22', '0x1.7111b13a6f77ap-44'),
    ('wide', 3, (0, 0, 0), 0.001, '0x1.516e8ae0997f3p-13', '0x1.7111af3fb2b6fp-44'),
    ('wide', 3, (1, 2, 0), None, '0x1.acb7bbb405fc9p-29', '0x1.0976cb38a7542p-89'),
    ('wide', 3, (1, 2, 0), 0.001, '0x1.7614b8de6d1bcp+2', '0x1.0976c85a81d30p-89'),
    ('wide', 4, (0, 0, 0), None, '0x1.38be08aa20b08p-23', '0x1.2c37f698f3ea1p-38'),
    ('wide', 4, (0, 0, 0), 0.001, '0x1.5f50fa07fb9e9p-14', '0x1.2c37f4ffbcf93p-38'),
    ('wide', 4, (1, 2, 0), None, '0x1.1b59bd7ce8f16p-31', '0x1.a68c219c2c2d0p-84'),
    ('wide', 4, (1, 2, 0), 0.001, '0x1.343c8262931fep+1', '0x1.a68c1d141a038p-84'),
    ('wide', 5, (0, 0, 0), None, '0x1.3e05c588a769cp-23', '0x1.9f0e1733dbb39p-33'),
    ('wide', 5, (0, 0, 0), 0.001, '0x1.bf865e4d496f2p-15', '0x1.9f0e1501fe35bp-33'),
    ('wide', 5, (1, 2, 0), None, '0x1.2f58074242996p-33', '0x1.1e1e0b61b67f3p-78'),
    ('wide', 5, (1, 2, 0), 0.001, '0x1.43e830632acb3p+0', '0x1.1e1e08559947fp-78'),
]


@pytest.mark.parametrize("name, d, exps, gamma, trace, shell",
                         MOMENT_CORE_PINS)
def test_cubic_core_by_moments_is_pinned_to_the_bit(name, d, exps, gamma,
                                                    trace, shell):
    got = _pinned_core(name, d, exps, gamma)
    assert tuple(v.hex() for v in got) == (trace, shell)


@pytest.mark.parametrize("name, d, exps, gamma, rel", [
    # 'three' runs by moments from start 9 on, 'wide' block by block below
    # 15; each within 1.6e-15 of the 40-digit trace
    *[("three", d, exps, gamma, 1e-14) for d in (2, 3, 4, 5)
      for exps, gamma in (((0, 0, 0), None), ((1, 2, 0), 1e-3))],
    ("wide", 3, (0, 0, 0), None, 1e-14),
    ("wide", 5, (1, 2, 0), 1e-3, 1e-14),
    # 7.5e-9 (d = 2) and 4.0e-9 (d = 4) off, as the grid was: the entries
    # the triangle rule zeroes come out of the band recurrence as rounding
    # residue, which the weights gamma^-(e+1), up to 1e9 at l = 0, lift;
    # set to 0, the residue leaves 4e-16
    ("wide", 2, (1, 2, 0), 1e-3, 1e-8),
    ("wide", 4, (1, 2, 0), 1e-3, 1e-8),
])
def test_cubic_core_matches_the_40_digit_trace(name, d, exps, gamma, rel):
    coeffs = {"three": CUBIC_COEFFS,
              "wide": {2: 0.05, 4: 0.03, 5: 0.02}}[name]
    want = reference.cubic_trace(d, coeffs, exps, gamma, 14)
    got, _ = _cubic_core(DensitySpec.zonal(d, coeffs), exps, gamma, 14, 13)
    assert reference.relative_error(got, want) <= rel


# ----------------------------------------------------------------------
# perturbation coefficients: closed forms vs the recursion


def _densities_for_epsilon():
    rng = np.random.default_rng(20240817)
    dens = [DensitySpec.tilted(3, 0.8), DensitySpec.tilted(4, 1.0),
            DensitySpec.zonal(3, {1: 0.5, 2: 0.3}),
            DensitySpec.zonal(5, {1: 0.7, 3: 0.2})]
    for _ in range(3):
        coeffs = {L: float(rng.uniform(-0.3, 0.3)) for L in (1, 2, 3)}
        dens.append(DensitySpec.zonal(3, coeffs))
    return dens


def test_epsilon_recursion_matches_closed_forms():
    for den in _densities_for_epsilon():
        closed = epsilon_closed(den)
        for k in (1, 2, 3, 4):
            got = epsilon_recursive(den, k)
            assert got == pytest.approx(closed.eps[k - 1], abs=1e-10), \
                "order %d for %r" % (k, den)


def test_epsilon_on_non_zonal_density():
    c = 0.25 + 0.1j
    i_plus = HarmonicIndex(3, 1, (1, 1))
    i_minus = HarmonicIndex(3, 1, (1, -1))
    den = DensitySpec.from_coeffs(3, {i_plus: c, i_minus: -c.conjugate()})
    closed = epsilon_closed(den)
    for k in (1, 2, 3, 4):
        assert epsilon_recursive(den, k) == pytest.approx(closed.eps[k - 1],
                                                          abs=1e-10)


def test_epsilon_on_zonal_density_builds_only_the_zero_mode_block():
    den = DensitySpec.zonal(3, {1: 0.3, 2: 0.2, 3: 0.1})
    with mock.patch.object(rayleigh_ritz, "_zonal_blocks",
                           wraps=rayleigh_ritz._zonal_blocks) as build:
        epsilon_recursive(den, 4)
    assert build.call_count == 1
    assert build.call_args.kwargs["stop"] == 1


@pytest.mark.parametrize("den", [
    DensitySpec.zonal(3, {1: 0.3, 2: 0.2, 3: 0.1}),
    DensitySpec.from_coeffs(3, {HarmonicIndex(3, 1, (1, 1)): 0.25 + 0.1j,
                                HarmonicIndex(3, 1, (1, -1)): -0.25 + 0.1j,
                                HarmonicIndex(3, 2, (0, 0)): 0.1})],
    ids=["zonal", "non-zonal"])
def test_epsilon_default_cutoff_is_the_smallest_accepted(den):
    build = "_zonal_blocks" if den.is_zonal else "assemble"
    for k in (1, 2, 3, 4):
        smallest = k * den.ell_max
        with mock.patch.object(rayleigh_ritz, build,
                               wraps=getattr(rayleigh_ritz, build)) as spy:
            got = epsilon_recursive(den, k)
        assert spy.call_args.args[1] == smallest
        assert got == epsilon_recursive(den, k, ell_cut=smallest)
        with pytest.raises(CutoffTooSmallError):
            epsilon_recursive(den, k, ell_cut=smallest - 1)


def test_epsilon_first_orders_analytic():
    # eps_1 = 1 and eps_2 = -I1(0)/Vol for any density
    den = DensitySpec.tilted(3, 1.2)
    vol = sphere_volume(3)
    i1 = density_integrals("I1", (0,), den)["value"]
    assert epsilon_recursive(den, 1) == pytest.approx(1.0, abs=1e-14)
    assert epsilon_recursive(den, 2) == pytest.approx(-i1 / vol, abs=1e-12)


def test_epsilon_uniform_density_is_trivial():
    den = DensitySpec.uniform(4)
    for k in (1, 2, 3, 4, 5, 6):
        want = 1.0 if k == 1 else 0.0
        assert epsilon_recursive(den, k) == pytest.approx(want, abs=1e-14)


def test_epsilon_order_guard():
    den = DensitySpec.tilted(3, 0.5)
    epsilon_recursive(den, 5)
    epsilon_recursive(den, 6)
    with pytest.raises(UnsupportedOrderError):
        epsilon_recursive(den, 7)
    with pytest.raises(ValidationError):
        epsilon_recursive(den, 0)


@pytest.mark.parametrize("call", [
    lambda den: sum_rule(3, 2, den),
    lambda den: sum_rule_shifted(3, 2, den, 0.1),
    lambda den: epsilon_closed(den),
    lambda den: epsilon_recursive(den, 2),
    lambda den: density_integrals("I1", (0,), den),
], ids=["sum_rule", "sum_rule_shifted", "epsilon_closed",
        "epsilon_recursive", "density_integrals"])
def test_non_density_argument_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call("x")


# ----------------------------------------------------------------------
# full sum rules against the closed references


CLOSED_PAIRS = [(3, 2), (3, 3), (4, 3), (5, 3)]


@pytest.mark.parametrize("d,p", CLOSED_PAIRS)
@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.0])
def test_sum_rule_matches_closed_reference(d, p, kappa):
    den = DensitySpec.tilted(d, kappa)
    res = sum_rule(d, p, den)
    want = closed_form_reference(d, p, kappa)
    assert res.value == pytest.approx(want, rel=1e-6)
    assert res.d == d and res.p == p
    assert res.provenance == "exact-engine"


@pytest.mark.parametrize("ell_cut", [200, 3000])
@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
def test_sum_rule_2_on_tilt_within_rounding_of_closed_form(kappa, ell_cut):
    got = sum_rule(3, 2, DensitySpec.tilted(3, kappa), ell_cut=ell_cut)
    assert abs(got.value - closed_form_reference(3, 2, kappa)) <= 1e-15


def test_closed_reference_samples():
    # spot values of the quartic/sextic kappa polynomials at kappa = 1
    want_32 = (3 + 4 * PI ** 2) / 48 + 7 / (36 * PI ** 2) + 1 / (36 * PI ** 4)
    assert closed_form_reference(3, 2, 1.0) == pytest.approx(want_32, rel=1e-14)
    want_33 = ((2 * PI ** 2 - 3) / 96 + (1.0 / 24 - 103 / (288 * PI ** 2))
               + 5 / (288 * PI ** 4) - 1 / (216 * PI ** 6))
    assert closed_form_reference(3, 3, 1.0) == pytest.approx(want_33, rel=1e-14)


def test_sum_rule_even_in_kappa():
    for d, p in ((3, 2), (4, 3)):
        plus = sum_rule(d, p, DensitySpec.tilted(d, 0.9)).value
        minus = sum_rule(d, p, DensitySpec.tilted(d, -0.9)).value
        assert plus == pytest.approx(minus, rel=1e-10)


def test_sum_rule_uniform_reduces_to_zeta():
    for d, p in CLOSED_PAIRS:
        res = sum_rule(d, p, DensitySpec.uniform(d))
        assert res.value == pytest.approx(zeta_uniform(d, p), rel=1e-10)


def test_sum_rule_2_with_nonpolar_tilt_is_rotation_invariant():
    # p = 2 needs no cubic integral, so any degree-1 density with the same
    # rho_1 must give the tilt-family value
    c = 1.0 / math.sqrt(2)
    i_plus = HarmonicIndex(3, 1, (1, 1))
    i_minus = HarmonicIndex(3, 1, (1, -1))
    den = DensitySpec.from_coeffs(3, {i_plus: c, i_minus: -c})
    assert den.rho_by_degree()[1] == pytest.approx(1.0)
    res = sum_rule(3, 2, den)
    assert res.value == pytest.approx(closed_form_reference(3, 2, 1.0),
                                      rel=1e-6)


def test_sum_rule_divergence_and_order_guards():
    den = DensitySpec.tilted(4, 1.0)
    with pytest.raises(DivergentSumError):
        sum_rule(4, 2, den)
    with pytest.raises(DivergentSumError):
        sum_rule(5, 2, DensitySpec.tilted(5, 1.0))
    with pytest.raises(UnsupportedOrderError):
        sum_rule(3, 4, DensitySpec.tilted(3, 1.0))
    with pytest.raises(UnsupportedOrderError):
        sum_rule(3, 1, DensitySpec.tilted(3, 1.0))


def test_closed_reference_rejects_out_of_bound_kappa():
    with pytest.raises(ValidationError):
        closed_form_reference(3, 2, 2.5)
    with pytest.raises(UnsupportedOrderError):
        closed_form_reference(2, 2, 1.0)   # no closed form kept for (2, 2)


# ----------------------------------------------------------------------
# shifted (regularized) route


def test_shifted_route_extrapolates_to_exact():
    d, p, kappa = 3, 2, 1.0
    den = DensitySpec.tilted(d, kappa)
    want = closed_form_reference(d, p, kappa)
    g1, g2 = 1e-3, 1e-4
    z1 = sum_rule_shifted(d, p, den, g1)["Z_renorm"]
    z2 = sum_rule_shifted(d, p, den, g2)["Z_renorm"]
    extrap = (g1 * z2 - g2 * z1) / (g1 - g2)
    assert extrap == pytest.approx(want, abs=2e-8)


def test_shifted_total_grows_like_gamma_power():
    d, p = 3, 3
    den = DensitySpec.tilted(d, 1.0)
    for gamma in (1e-2, 1e-3):
        z = sum_rule_shifted(d, p, den, gamma)["Z"]
        assert z * gamma ** p == pytest.approx(1.0, rel=1e-2)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 6: at p = 3 the 1/gamma^2 pieces of the renormalized "
    "lead and of the per-degree terms cancel in floating point, so "
    "|Z_renorm - sum_rule| reads 7.0e-2 (d = 3) and 3.9e-2 (d = 5) at "
    "gamma = 1e-8, against 1.6e-5 and 3.4e-6 at gamma = 1e-4"))
def test_shifted_cubic_renormalization_holds_at_small_gamma():
    # the renormalized value approaches the exact one like gamma, so at
    # gamma = 1e-8 it must sit within 1e-6 of it
    for d in (3, 5):
        den = DensitySpec.tilted(d, 1.0)
        z = sum_rule_shifted(d, 3, den, 1e-8)["Z_renorm"]
        assert abs(z - sum_rule(d, 3, den).value) <= 1e-6


def test_shifted_requires_positive_gamma():
    den = DensitySpec.tilted(3, 1.0)
    with pytest.raises(ValidationError):
        sum_rule_shifted(3, 2, den, 0.0)
    with pytest.raises(ValidationError):
        sum_rule_shifted(3, 2, den, -1e-3)


@pytest.mark.parametrize("gamma", [math.inf, math.nan, 1e300, 1e-300, 1e40,
                                   "small", None])
def test_shifted_rejects_gamma_out_of_range(gamma):
    # inf, nan and 1e300 / 1e-300 overflow or underflow gamma's own powers;
    # at 1e40 the zero-mode energy's Taylor polynomial overflows at p = 3
    den = DensitySpec.tilted(3, 1.0)
    with pytest.raises(ValidationError):
        sum_rule_shifted(3, 3, den, gamma)


@pytest.mark.parametrize("cut", [250.5, "300", math.inf, math.nan, -5, True,
                                 10 ** 19, MAX_ELL_CUT + 1, 1e300])
def test_cutoff_must_be_a_non_negative_integer(cut):
    # cutoffs above the ceiling are rejected before anything is sized by
    # them
    den = DensitySpec.tilted(3, 0.7)
    for call in (lambda: sum_rule(3, 2, den, ell_cut=cut),
                 lambda: sum_rule_shifted(3, 2, den, 1e-3, ell_cut=cut),
                 lambda: density_integrals("J1", (0, 0), den, ell_cut=cut),
                 lambda: epsilon_recursive(den, 2, ell_cut=cut)):
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize("value, shown", [
    (1e300, "1.00e+300"),
    pytest.param(10 ** 5000, "1.00e+5000", id="10**5000"),
    (2 * 10 ** 6, "2000000"), (10 ** 19, "10000000000000000000")])
def test_value_above_the_ceiling_is_shown_in_a_short_message(value, shown):
    # past 20 digits the value is shown in exponent form: 1e300 in full
    # made a message of 347 characters
    with pytest.raises(ValidationError) as info:
        check_integer(value, "degree")
    assert str(info.value) == ("degree=%s is above the supported ceiling %d"
                               % (shown, MAX_ELL_CUT))
    assert len(str(info.value)) < 80


def test_ceiling_is_at_least_a_million():
    assert MAX_ELL_CUT >= 10 ** 6
    assert _check_ell_cut(MAX_ELL_CUT) == MAX_ELL_CUT


@contextlib.contextmanager
def _sums_forbidden():
    """Make any degree sum or cubic trace fail the test instead of running."""
    with contextlib.ExitStack() as stack:
        for name in ("_spectral_trace", "_band_sum", "_cubic_core"):
            stack.enter_context(mock.patch.object(
                sumrules, name, side_effect=AssertionError(name)))
        yield


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("exps, gamma", [((0, 0, 0), None), ((0, 1, 2), None),
                                         ((0, 0, 0), 0.1)])
def test_cubic_trace_working_set_does_not_grow_with_the_cut(exps, gamma):
    # by moments past 9, in passes of 20 starts: the traced peak at
    # ell_cut = 800 is that at 200, to the 1.3 kB the interpreter's own
    # objects move it by; a weight, moment or band held over the whole cut
    # would add 4.8 kB
    den = DensitySpec.zonal(3, {1: 0.1, 2: 0.05, 3: 0.02})
    with mock.patch.object(sumrules, "_PASS_POINTS", 16 * 20):
        peaks = [_traced_peak(lambda: _cubic_trace(den, exps, gamma, cut))
                 for cut in (200, 800)]
    assert peaks[1] <= peaks[0] + 2048


# cycles of degree 9 or more in u: every block is summed on its own, and
# the working set grows with the cut
BLOCKWISE = [{2: 0.05, 6: 0.02}, {4: 0.05, 7: 0.02},
             {2: 0.05, 9: 0.02, 11: 0.01}]


@pytest.mark.parametrize("coeffs", BLOCKWISE)
def test_cubic_bytes_bound_the_traced_peak(coeffs):
    # the byte count checked against MAX_BYTES bounds the working set of
    # the block-by-block sums, and not loosely
    den = DensitySpec.zonal(3, coeffs)
    peak = _traced_peak(lambda: _cubic_trace(den, (0, 0, 0), None, 300))
    need, _ = sumrules._block_cost(den, (0, 0, 0), 300)
    assert peak <= need <= 2 * peak


@pytest.mark.parametrize("coeffs", BLOCKWISE)
@pytest.mark.parametrize("exps, gamma", [
    ((0, 0, 0), None), ((0, 0, 1), None), ((0, 1, 0), None),
    ((1, 0, 0), None), ((0, 1, 2), None), ((0, 0, 0), 0.1)])
def test_cubic_bytes_bound_the_traced_peak_of_every_weight_pattern(
        coeffs, exps, gamma):
    # the working set depends on the weight powers (distinct powers of D1
    # and D2 weight a band once for each), and the count bounds it
    # whatever they are
    den = DensitySpec.zonal(3, coeffs)
    peak = _traced_peak(lambda: _cubic_trace(den, exps, gamma, 300))
    need, _ = sumrules._block_cost(den, exps, 300)
    assert peak <= need <= 2 * peak


def test_cubic_trace_past_its_budget_is_rejected_before_any_sum():
    # a coupled degree of 1000 would hold some 3 GB in its block-by-block
    # sums at the default cut; degrees {2, 9, 11}, summed block by block,
    # pass the work bound at a cut of 10^4
    high = DensitySpec.zonal(3, {2: 0.01, 1000: 0.001})
    den = DensitySpec.zonal(3, {2: 0.05, 9: 0.02, 11: 0.01})
    with _sums_forbidden():
        for call, match in (
                (lambda: sum_rule(3, 3, high), "cubic trace.*GB"),
                (lambda: density_integrals("J2", (0, 0, 0), high),
                 "cubic trace.*GB"),
                (lambda: sum_rule(3, 3, den, ell_cut=10 ** 4), "one by one"),
                (lambda: sum_rule_shifted(3, 3, den, 1e-2, ell_cut=10 ** 4),
                 "one by one"),
                (lambda: density_integrals("J2", (0, 1, 0), den,
                                           ell_cut=10 ** 4), "one by one")):
            with pytest.raises(ValidationError, match=match):
                call()


def test_cubic_budget_admits_cutoffs_up_to_its_bound():
    # the largest cut whose block-by-block sums fit the work bound passes,
    # the next one does not; a density with no coupled triple has no cubic
    # trace to bound
    den = DensitySpec.zonal(3, {2: 0.05, 9: 0.02, 11: 0.01})
    cut = bisect.bisect_right(
        range(MAX_ELL_CUT + 1), sumrules._MAX_BLOCK_WORK,
        key=lambda c: sumrules._block_cost(den, (0, 0, 0), c)[1]) - 1
    assert 9000 < cut < 10 ** 4
    sumrules._check_block_sums(den, (0, 0, 0), cut)
    with pytest.raises(ValidationError, match="one by one"):
        sumrules._check_block_sums(den, (0, 0, 0), cut + 1)
    sumrules._check_block_sums(DensitySpec.tilted(3, 1.0), (0, 0, 0),
                               MAX_ELL_CUT)


@pytest.mark.parametrize("coeffs", [{1: 0.1, 2: 0.05, 3: 0.02},
                                    {2: 0.05, 4: 0.03, 5: 0.02}])
def test_cubic_trace_by_moments_is_admitted_up_to_the_ceiling(coeffs):
    # past 3 top the moments sum the blocks, so the block-by-block sums
    # stop at 3 top whatever the cut
    den = DensitySpec.zonal(3, coeffs)
    sumrules._check_block_sums(den, (0, 1, 2), MAX_ELL_CUT)
    assert (sumrules._block_cost(den, (0, 0, 0), MAX_ELL_CUT)
            == sumrules._block_cost(den, (0, 0, 0), 3 * max(coeffs)))


def test_integral_float_cutoff_is_the_integer_cutoff():
    den = DensitySpec.tilted(3, 0.7)
    assert sum_rule(3, 2, den, ell_cut=250.0) == sum_rule(3, 2, den,
                                                          ell_cut=250)
    assert sum_rule(3, 2, den, ell_cut=np.int64(250)).ell_cut == 250
    # valid cutoffs keep the clamp to the default and the lower bound
    assert sum_rule(3, 2, den, ell_cut=0).ell_cut == 200
    with pytest.raises(CutoffTooSmallError):
        density_integrals("J1", (0, 0), den, ell_cut=0)


# ----------------------------------------------------------------------
# rejected inputs

# values no numeric argument accepts (None is the default of ell_cut)
NOT_NUMBERS = st.sampled_from([None, "3", b"3", [3], (3,), 1j, object()])

BAD_CUTOFFS = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=MAX_ELL_CUT + 1),
    st.floats().filter(lambda x: not (math.isfinite(x) and x.is_integer()
                                      and 0 <= x <= MAX_ELL_CUT)),
    st.just(True), NOT_NUMBERS.filter(lambda v: v is not None))

# gamma <= 0, nan, inf, or so small or large that gamma^3 or gamma^-3
# under- or overflows; a numeric string is read as its number
BAD_GAMMAS = st.one_of(
    st.floats(max_value=0.0), st.just(math.nan),
    st.floats(min_value=5e-324, max_value=1e-110), st.floats(min_value=1e110),
    NOT_NUMBERS.filter(lambda v: v not in ("3", b"3")))


def _bad(valid):
    """Integers, floats and other values outside the set valid."""
    return st.one_of(
        st.integers(-10, 10), st.floats(), st.just(True),
        NOT_NUMBERS).filter(lambda v: isinstance(v, bool)
                            or all(v != good for good in valid))


@given(den=zonal_densities(), data=st.data())
def test_rejected_inputs_raise_package_errors(den, data):
    # every rejection is typed, never a raw numpy, scipy or Python error
    d = den.d
    cut = data.draw(BAD_CUTOFFS, label="ell_cut")
    small = data.draw(st.integers(0, den.ell_max), label="small ell_cut")
    gamma = data.draw(BAD_GAMMAS, label="gamma")
    p = data.draw(_bad({q for q in (2, 3) if q >= p_min(d)}), label="p")
    dd = data.draw(_bad({d}), label="d")
    dh = data.draw(_bad({2, 3, 4, 5}), label="hybrid d")
    orders = data.draw(st.one_of(
        NOT_NUMBERS.map(lambda v: (v, 0, 0)), st.just((0, -1, 0)),
        st.just((0.5, 0, 0)), st.just((0, 0)), st.just(None)), label="orders")
    calls = {
        "sum_rule ell_cut": lambda: sum_rule(d, 3, den, ell_cut=cut),
        "shifted ell_cut": lambda: sum_rule_shifted(d, 3, den, 1e-3,
                                                    ell_cut=cut),
        "integral ell_cut": lambda: density_integrals("J2", (0, 0, 0), den,
                                                      ell_cut=cut),
        "integral small ell_cut": lambda: density_integrals(
            "J1", (0, 0), den, ell_cut=small),
        "integral orders": lambda: density_integrals("J2", orders, den),
        "shifted gamma": lambda: sum_rule_shifted(d, 3, den, gamma),
        "sum_rule p": lambda: sum_rule(d, p, den),
        "shifted p": lambda: sum_rule_shifted(d, p, den, 1e-3),
        "hybrid p": lambda: hybrid_sum_rule(d, p, 0.5, 4),
        "sum_rule d": lambda: sum_rule(dd, 3, den),
        "shifted d": lambda: sum_rule_shifted(dd, 3, den, 1e-3),
        "hybrid d": lambda: hybrid_sum_rule(dh, 3, 0.5, 4),
    }
    for what, call in calls.items():
        with pytest.raises(SphereSumRulesError):
            call()


def _pair(value, ell=1):
    """A non-zonal density on S^3 with coefficient `value` at m = (1, 1)
    and its conjugate partner."""
    idx = HarmonicIndex(3, ell, (1, 1))
    return DensitySpec.from_coeffs(3, {idx: value,
                                       idx.conjugate_partner(): -value})


def _tilt_problem():
    return rayleigh_ritz.assemble(3, 4, DensitySpec.tilted(3, 0.5))


# every entry point with an input that once raised a raw Python error,
# returned a value or was silently truncated
LISTED_INPUTS = {
    "hybrid float ell_max": lambda: hybrid_sum_rule(3, 3, 1.0, 30.5),
    "hybrid str ell_max": lambda: hybrid_sum_rule(3, 3, 1.0, "30"),
    "assemble float ell_max": lambda: rayleigh_ritz.assemble(
        3, 4.5, DensitySpec.tilted(3, 0.5)),
    "basis_size float ell_max": lambda: rayleigh_ritz.basis_size(3, 2.5),
    "delta float ell_max": lambda: weyl.delta(3, 2.5, 2),
    "epsilon str order": lambda: epsilon_recursive(
        DensitySpec.tilted(3, 0.5), "a"),
    "epsilon float order": lambda: epsilon_recursive(
        DensitySpec.tilted(3, 0.5), 2.5),
    "zeta str order": lambda: zeta_uniform(3, "a"),
    "partial_sum float count": lambda: rayleigh_ritz.partial_sum(
        rayleigh_ritz.solve_spectrum(_tilt_problem()), 2, 2.5),
    "green infinite gamma": lambda: GreenOrder(3, 1, math.inf),
    "epsilon_closed d=6": lambda: epsilon_closed(DensitySpec.zonal(6, {1: 0.1})),
}


@pytest.mark.parametrize("call", LISTED_INPUTS.values(), ids=LISTED_INPUTS)
def test_listed_inputs_raise_package_errors(call):
    with pytest.raises(SphereSumRulesError):
        call()


@pytest.mark.parametrize("make", [
    lambda: DensitySpec.zonal(3, {1: math.nan}),
    lambda: DensitySpec.zonal(3, {1: 0.1, 2: math.inf}),
    lambda: _pair(math.nan),
    lambda: _pair(-math.inf),
], ids=["zonal nan", "zonal inf", "non-zonal nan", "non-zonal inf"])
def test_non_finite_coefficients_are_rejected_by_name(make):
    # a NaN once passed the positivity check, and an inf failed it only as
    # a density that is not positive
    with pytest.raises(ValidationError, match="not finite"):
        make()


@contextlib.contextmanager
def _dense_forbidden():
    """Make any dense block assembly fail the test instead of allocating."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            rayleigh_ritz, "truncated_basis",
            side_effect=AssertionError("truncated_basis")))
        stack.enter_context(mock.patch.object(
            harmonics, "_zonal_bands",
            side_effect=AssertionError("_zonal_bands")))
        yield


@pytest.mark.parametrize("call", [
    lambda: epsilon_recursive(_pair(0.1), 1, ell_cut=30),
    lambda: rayleigh_ritz.assemble(3, 30, _pair(0.1)),
    lambda: epsilon_recursive(DensitySpec.tilted(3, 0.5), 1, ell_cut=9000),
    lambda: hybrid_sum_rule(3, 3, 0.5, 9000),
], ids=["epsilon non-zonal", "assemble non-zonal", "epsilon zonal",
        "hybrid"])
def test_dense_block_past_its_budget_is_rejected_before_assembly(call):
    # the full d = 3 matrix at ell_max = 30 has 10416 rows (1.7 GB with
    # its factor), the m2 = 0 block at 9000 needs 1.3 GB; the assembly is
    # stubbed out, so a missing check fails here instead of allocating
    with _dense_forbidden():
        with pytest.raises(ValidationError, match="budget"):
            call()


@pytest.mark.parametrize("coeffs", [{199: 1e-4}, {1: 0.2, 199: 1e-4}])
@pytest.mark.parametrize("p", [2, 3])
def test_top_degree_past_the_default_cut_is_finite(coeffs, p):
    # the tails start two degrees past the density's top degree, so their
    # stencil never reaches a band's l' = 0 row
    den = DensitySpec.zonal(3, coeffs)
    got = sum_rule(3, p, den)
    assert math.isfinite(got.value) and math.isfinite(got.trunc_error)
    assert got.value == pytest.approx(sum_rule(3, p, den, ell_cut=800).value,
                                      rel=0, abs=1e-13)


def test_integral_past_the_default_cut_returns_a_value():
    got = density_integrals("J1", (0, 0), DensitySpec.zonal(3, {230: 1e-4}))
    assert math.isfinite(got["value"]) and math.isfinite(got["trunc_error"])
