"""Smoothed level asymptotics, hybrid tail completion, and tail-gap fits.

The closed level prefactors are cross-checked internally against the
counting-integral route (the model constructor enforces agreement at
1e-8, so constructing a model is itself a dual-route test).
"""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from sphere_sumrules import harmonics as H
from sphere_sumrules import sumrules as sr
from sphere_sumrules import weyl
from sphere_sumrules.errors import DivergentSumError, ValidationError

PI = math.pi


# ----------------------------------------------------------------------
# special functions


def test_hurwitz_zeta_values():
    assert weyl.hurwitz_zeta(2, 1) == pytest.approx(PI ** 2 / 6, abs=1e-14)
    assert weyl.hurwitz_zeta(3, 2) == pytest.approx(
        float(special.zeta(3.0)) - 1.0, abs=1e-14)
    with pytest.raises(DivergentSumError):
        weyl.hurwitz_zeta(1.0, 1.0)


def test_hurwitz_zeta_brute_bracket():
    # partial sum brackets the value from below, partial sum plus the
    # integral remainder bound from above (s = 1.2 decays very slowly)
    brute = float(np.sum((np.arange(10 ** 6) + 100.0) ** -1.2))
    hi = brute + (10 ** 6 + 99.0) ** -0.2 / 0.2
    got = weyl.hurwitz_zeta(1.2, 100)
    assert brute < got < hi


# ----------------------------------------------------------------------
# smoothed level models


def test_uniform_prefactors():
    for d, want in ((2, 1.0), (3, 3 ** (2 / 3)), (4, 2 * math.sqrt(3)),
                    (5, 60 ** 0.4)):
        assert weyl.uniform_prefactor(d) == pytest.approx(want, abs=1e-13)


def test_d4_model_is_explicit():
    m = weyl.weyl_model(4, 0.0)
    assert m.level(7) == pytest.approx(2 * math.sqrt(3) * math.sqrt(7),
                                       abs=1e-12)
    assert m.sigma_integral == pytest.approx(8 * PI ** 2 / 3, abs=1e-10)
    m = weyl.weyl_model(4, 1.3)
    # the d=4 density integral is exactly 8 pi^2/3 + kappa^2
    assert m.sigma_integral == pytest.approx(8 * PI ** 2 / 3 + 1.3 ** 2,
                                             abs=1e-8)
    assert m.prefactor == pytest.approx(
        4 * math.sqrt(6) * PI / math.sqrt(3 * 1.3 ** 2 + 8 * PI ** 2),
        rel=1e-10)


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("kappa", [0.0, 1.0, 2.0])
def test_closed_prefactor_consistent_with_counting_route(d, kappa):
    # the constructor cross-checks the closed prefactor against the
    # sigma-integral route at 1e-8 and raises on mismatch
    m = weyl.weyl_model(d, kappa)
    assert m.prefactor > 0
    assert m.level(10) == pytest.approx(m.prefactor * 10 ** (2.0 / d),
                                        rel=1e-12)


def test_model_kappa_sign_restrictions():
    with pytest.raises(ValidationError):
        weyl.weyl_model(3, -0.5)
    with pytest.raises(ValidationError):
        weyl.weyl_model(5, -0.5)
    assert weyl.weyl_model(4, -1.0).prefactor > 0
    with pytest.raises(ValidationError):
        weyl.weyl_model(2, 0.0)
    with pytest.raises(ValidationError):
        weyl.weyl_model(3, 2.5)     # positivity bound


def test_counting_matches_exact_count_at_large_degree():
    d = 3
    lam = 1000 * (1000 + d - 1.0)
    exact = 1 + sum(H.degeneracy(d, l) for l in range(1, 1001))
    model = weyl.weyl_model(d, 0.0).counting(lam)
    assert model / exact == pytest.approx(1.0, abs=0.05)


def test_model_tail_is_hurwitz_zeta():
    m = weyl.weyl_model(3, 0.0)
    want = m.prefactor ** -3 * weyl.hurwitz_zeta(2.0, 11)
    assert m.tail(3, 11) == pytest.approx(want, rel=1e-13)


# ----------------------------------------------------------------------
# hybrid estimator


def test_hybrid_uniform_error_identity():
    # at kappa = 0 the reported truncation discrepancy IS the error
    r = weyl.hybrid_sum_rule(3, 3, 0.0, 30)
    want = sr.zeta_uniform(3, 3)
    assert abs(r.value - want) < 5e-5
    assert abs(r.value - want) == pytest.approx(r.trunc_error, abs=1e-12)
    assert r.provenance == "hybrid"
    assert r.p == 3 and r.d == 3


def test_hybrid_tracks_closed_form_with_tilt():
    ref = sr.closed_form_reference(3, 3, 2.0)
    r = weyl.hybrid_sum_rule(3, 3, 2.0, 30)
    assert abs(r.value - ref) < 2e-3


def test_hybrid_degrades_in_higher_dimension():
    # with matched (generous) cutoffs the d=5 tail model is weaker
    err3 = abs(weyl.hybrid_sum_rule(3, 3, 2.0, 30).value
               - sr.closed_form_reference(3, 3, 2.0))
    err5 = abs(weyl.hybrid_sum_rule(5, 3, 2.0, 15).value
               - sr.closed_form_reference(5, 3, 2.0))
    assert err5 > err3


def test_hybrid_retention_fraction():
    r_half = weyl.hybrid_sum_rule(3, 3, 1.0, 12, retain=0.5)
    r_all = weyl.hybrid_sum_rule(3, 3, 1.0, 12, retain=0.9)
    ref = sr.closed_form_reference(3, 3, 1.0)
    assert abs(r_all.value - ref) < abs(r_half.value - ref) + 1e-4


# ----------------------------------------------------------------------
# tail-gap diagnostic and its fit


def test_delta_tails_nearly_cancel():
    s = weyl.delta(5, 10, 3)
    assert s.delta == pytest.approx(abs(s.exact_tail - s.weyl_tail), rel=1e-12)
    assert s.delta < 0.05 * s.exact_tail
    s2 = weyl.delta(5, 20, 3)
    assert s2.delta <= 0.5 * s.delta


def test_delta_strictly_decreasing_in_cutoff():
    vals = [weyl.delta(5, l, 3).delta for l in (10, 14, 20, 28, 40)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_delta_divergent_exponent_refused():
    with pytest.raises(DivergentSumError):
        weyl.delta(4, 10, 2)


@pytest.mark.parametrize("s", [math.nan, math.inf, "x", "3", None, 3j, True])
def test_delta_rejects_non_numeric_or_non_finite_exponent(s):
    with pytest.raises(ValidationError, match="exponent s"):
        weyl.delta(3, 10, s)


@pytest.mark.xfail(strict=True, reason=(
    "the reference fit-curve values (a=0.0145028, b=0.0409641, c=0.477369) "
    "track the magnitude of the spectral tail itself, about 6.7e-3 at "
    "ell_max=10, while the defined quantity |exact tail - model tail| is "
    "already 1.4e-4 there and falls with a steeper exponent (refit gives "
    "c near 1.43); no quantity matching the definition stays within 20% "
    "of that curve"))
def test_delta_matches_reference_fit_curve():
    for ell in (10, 20, 40, 60):
        s = weyl.delta(5, ell, 3)
        fit = weyl.delta_model(0.0145028, 0.0409641, 0.477369, ell)
        assert abs(s.delta - fit) <= 0.2 * fit


def test_exact_tail_magnitude_tracks_reference_fit_curve():
    # what the reference curve does describe: the size of the exact tail
    for ell in (10, 20, 40, 60):
        s = weyl.delta(5, ell, 3)
        fit = weyl.delta_model(0.0145028, 0.0409641, 0.477369, ell)
        assert abs(s.exact_tail - fit) <= 0.2 * fit


def test_reference_fit_value_at_huge_cutoff():
    got = weyl.delta_model(0.0145028, 0.0409641, 0.477369, 1e5)
    assert got == pytest.approx(1.12e-6, rel=0.01)


def test_fit_recovers_noiseless_parameters():
    ells = np.array([8, 12, 18, 27, 40, 60, 90])
    samples = [weyl.DeltaSample(5, 3, int(l),
                                float(weyl.delta_model(0.01, 0.04, 0.5, l)),
                                0.0, 0.0) for l in ells]
    fit = weyl.fit_delta(samples)
    assert fit["a"] == pytest.approx(0.01, abs=1e-8)
    assert fit["b"] == pytest.approx(0.04, abs=1e-7)
    assert fit["c"] == pytest.approx(0.5, abs=1e-8)
    assert fit["residual"] < 1e-10
    assert fit["n_samples"] == 7


def test_fit_of_exact_tail_magnitude_lands_in_reference_window():
    samples = [weyl.DeltaSample(5, 3, l, weyl.delta(5, l, 3).exact_tail,
                                0.0, 0.0) for l in range(10, 61, 5)]
    fit = weyl.fit_delta(samples)
    assert 0.38 <= fit["c"] <= 0.57


def test_fit_of_definitional_gap_lands_outside_reference_window():
    samples = [weyl.DeltaSample(5, 3, l, weyl.delta(5, l, 3).delta,
                                0.0, 0.0) for l in range(10, 61, 5)]
    fit = weyl.fit_delta(samples)
    assert not 0.38 <= fit["c"] <= 0.57
    assert fit["c"] > 1.0


def test_fit_guards():
    ells = (8, 12, 18, 27)
    few = [weyl.DeltaSample(5, 3, l, float(weyl.delta_model(0.01, 0.04, 0.5, l)),
                            0.0, 0.0) for l in ells]
    with pytest.raises(ValidationError):
        weyl.fit_delta(few)
    deep = [weyl.DeltaSample(5, 3, int(l),
                             float(weyl.delta_model(0.01, 50.0, 0.5, l)),
                             0.0, 0.0)
            for l in (200, 300, 450, 700, 1000, 1500)]
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        weyl.fit_delta(deep)
    assert any("degenerate" in str(w.message) for w in wlist)
