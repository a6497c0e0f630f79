"""Renormalized Green's kernels: closed forms vs spectral sums.

Dual routes throughout: every closed-form kernel is re-derived through the
addition-theorem spectral sum within its reported tail bound, and the q=0
conditionally convergent members through Abel (radial) regularization.
"""

import math

import numpy as np
import pytest

from sphere_sumrules import greens, sumrules
from sphere_sumrules import harmonics as H
from sphere_sumrules.errors import DivergentSumError, ValidationError
from sphere_sumrules.greens import GreenOrder, green_closed_form, green_spectral
from sphere_sumrules.quadrature import quadrature

PI = math.pi


def test_closed_form_anchors():
    assert green_closed_form(3, 0, PI / 2) == pytest.approx(
        -1 / (8 * PI ** 2), rel=1e-13)
    assert green_closed_form(2, 0, PI) == pytest.approx(
        -1 / (4 * PI), rel=1e-13)
    assert green_closed_form(2, 1, PI) == pytest.approx(
        -(PI ** 2 - 6) / (24 * PI), rel=1e-13)
    assert green_closed_form(3, 1, PI) == pytest.approx(
        -(2 * PI ** 2 - 3) / (96 * PI ** 2), rel=1e-13)
    # the d=3, q=1 kernel is the quadratic (6t^2 - 12 pi t + 4 pi^2 + 3)/96pi^2
    t = PI / 2
    assert green_closed_form(3, 1, t) == pytest.approx(
        (6 * t ** 2 - 12 * PI * t + 4 * PI ** 2 + 3) / (96 * PI ** 2),
        rel=1e-13)


def test_domain_guard():
    with pytest.raises(ValidationError):
        green_closed_form(3, 1, 0.0)
    with pytest.raises(ValidationError):
        green_closed_form(3, 1, -0.2)
    with pytest.raises(ValidationError):
        green_closed_form(3, 1, PI + 1e-9)
    # the antipode is regular and must be accepted
    green_closed_form(3, 1, PI)


@pytest.mark.parametrize("d,q", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2)])
@pytest.mark.parametrize("theta", [PI / 3, PI / 2, 2 * PI / 3])
def test_spectral_matches_closed_within_bound(d, q, theta):
    # (3,1) tail decays only like 1/ell, so it needs a deeper cutoff to
    # push the reported bound under 1e-6
    cut = 60000 if (d, q) == (3, 1) else 4000
    res = green_spectral(GreenOrder(d, q), math.cos(theta), cut)
    want = green_closed_form(d, q, theta)
    assert res["tail_bound"] <= 1e-6
    assert abs(res["value"] - want) <= res["tail_bound"]


def test_borderline_pair_has_no_envelope_bound():
    # (4,1) converges but the degeneracy growth defeats the tail envelope;
    # the reported bound must be honest (infinite), the value still good
    res = green_spectral(GreenOrder(4, 1), math.cos(PI / 2), 6000)
    assert res["tail_bound"] == math.inf
    want = green_closed_form(4, 1, PI / 2)
    assert res["value"] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("theta", [PI / 3, PI / 2, 2 * PI / 3])
def test_abel_regularization_for_conditional_sums(d, theta):
    res = green_spectral(GreenOrder(d, 0), math.cos(theta), 4000,
                         regularize=True)
    want = green_closed_form(d, 0, theta)
    assert res["value"] == pytest.approx(want, abs=5e-5 * max(1, abs(want)))


def test_conditional_sum_refused_without_regularization():
    with pytest.raises(DivergentSumError):
        green_spectral(GreenOrder(3, 0), 0.5)


def test_coincidence_limit_is_partial_degree_sum():
    res = green_spectral(GreenOrder(3, 1), 1.0, 3000)
    partial = sum(H.degeneracy(3, l) / (l * (l + 2)) ** 2
                  for l in range(1, 3001))
    assert res["value"] * H.sphere_volume(3) == pytest.approx(partial,
                                                              rel=1e-13)


def test_shifted_kernel_keeps_zero_mode():
    gam = 1e-2
    res = green_spectral(GreenOrder(3, 1, gam), math.cos(PI / 2), 3000)
    direct = 1 / (gam ** 2 * H.sphere_volume(3)) + sum(
        H.addition_eval(3, l, math.cos(PI / 2)) / (l * (l + 2) + gam) ** 2
        for l in range(1, 3001))
    assert res["value"] == pytest.approx(direct, rel=1e-12)


def test_gamma_derivative_consistency():
    # -d/dgamma of the shifted q=0 sum must reproduce the q=1 kernel, and
    # the second derivative (over 2) the q=2 kernel; finite differences at
    # two gamma offsets with linear extrapolation kill the gamma bias
    def shifted_sum(gamma, t, cut=4000):
        return float(greens._spectral_terms(2, 0, gamma, math.cos(t),
                                            cut).sum())

    t = 2 * PI / 3
    h = 1e-4
    fd1 = lambda g: -(shifted_sum(g + h, t) - shifted_sum(g - h, t)) / (2 * h)
    fd2 = lambda g: (shifted_sum(g + h, t) - 2 * shifted_sum(g, t)
                     + shifted_sum(g - h, t)) / (2 * h * h)
    for q, fd in ((1, fd1), (2, fd2)):
        v1, v2 = fd(2e-4), fd(4e-4)
        extrap = 2 * v1 - v2
        assert extrap == pytest.approx(green_closed_form(2, q, t), abs=1e-6)


@pytest.mark.parametrize("d,q", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1),
                                 (3, 2), (4, 0), (4, 1), (4, 2)])
def test_closed_forms_have_zero_spatial_mean(d, q):
    rule = quadrature((d - 2) / 2.0, 600)
    vals = np.array([green_closed_form(d, q, math.acos(x))
                     for x in rule.nodes])
    mean = float(rule.integrate(vals)) * H.sphere_volume(d - 1)
    # q = 0 kernels carry an integrable endpoint singularity, so the
    # polynomial rule converges more slowly there
    tol = 1e-5 if q == 0 else 1e-10
    assert mean == pytest.approx(0.0, abs=tol)


def test_kernel_self_convolution_raises_order():
    # project the closed (3,1) kernel on the degree basis, square the
    # coefficients, and compare with the (3,3) spectral kernel: convolution
    # on the sphere multiplies the inverse-eigenvalue weights
    rule = quadrature(0.5, 800)
    gvals = np.array([green_closed_form(3, 1, math.acos(x))
                      for x in rule.nodes])
    vol3, vol2 = H.sphere_volume(3), H.sphere_volume(2)
    coeff = {}
    for l in range(1, 41):
        cl = H.gegenbauer(1.0, l, rule.nodes) / H.gegenbauer_at_one(1.0, l)
        coeff[l] = float(rule.integrate(gvals * cl)) * vol2 * \
            H.degeneracy(3, l) / vol3
    for l in (1, 2, 3):
        want = H.degeneracy(3, l) / vol3 / (l * (l + 2)) ** 2
        assert coeff[l] == pytest.approx(want, rel=1e-7)
    for t in (PI / 3, PI / 2):
        x = math.cos(t)
        pred = sum(vol3 / H.degeneracy(3, l) * coeff[l] ** 2
                   * H.gegenbauer(1.0, l, x) / H.gegenbauer_at_one(1.0, l)
                   for l in coeff)
        want = green_spectral(GreenOrder(3, 3), x, 3000)["value"]
        assert pred == pytest.approx(want, rel=1e-8)


def test_green_order_validation():
    with pytest.raises(ValidationError):
        GreenOrder(1, 1)
    with pytest.raises(ValidationError):
        GreenOrder(3, -1)
    with pytest.raises(ValidationError):
        GreenOrder(3, 1, -0.5)


@pytest.mark.parametrize("ell_cut", [250.5, "300", math.inf, math.nan, -5,
                                     True, None, 7, 10 ** 19,
                                     sumrules.MAX_ELL_CUT + 1])
def test_spectral_rejects_bad_cutoffs(ell_cut):
    with pytest.raises(ValidationError):
        green_spectral(GreenOrder(3, 2), 0.5, ell_cut)


def test_spectral_takes_integral_float_cutoff():
    want = green_spectral(GreenOrder(3, 2), 0.5, 250)
    assert green_spectral(GreenOrder(3, 2), 0.5, 250.0) == want
    assert green_spectral(GreenOrder(3, 2), 0.5, np.int64(250)) == want


def test_closed_form_pairs_supported():
    for d in (2, 3, 4):
        for q in (0, 1, 2):
            val = green_closed_form(d, q, 1.0)
            assert np.isfinite(val)
    with pytest.raises(ValidationError):
        green_closed_form(5, 0, 1.0)


def test_short_distance_divergence_sign():
    # approaching the coincidence point the q=0 kernel blows up with the
    # sign of the flat-space fundamental solution: -log for d=2, +1/theta
    # for d=3
    assert green_closed_form(2, 0, 1e-6) > 1.0
    assert green_closed_form(3, 0, 1e-6) > 1.0
