"""Pair strengths and band sums against the code they replaced.

Oracle: the log-gamma pass, the pair-strength formula, the Euler-Maclaurin
tails, the band sum, the uniform trace and the J2 trace as they were first
written: `math.lgamma` through `np.vectorize`, one pass per log-gamma term,
one pair-strength call per offset for its direct degrees and two more for
its tail (the integral's nodes, then the stencil), and the three band sums
of J2 taken one by one.  The engine now evaluates `math.lgamma` once per
distinct argument of one pair-strength call, takes every offset of a band
sum in one such call, evaluates each tail's summand once and takes each
distinct J2 band sum once, but it forms every argument and every sum in
the same order, so each value must equal the oracle's exactly
(==, np.array_equal): pair strengths on lattice grids and at continuous
degrees, J1 and J2, and both sum rules on random zonal densities.
"""

from contextlib import contextmanager
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sphere_sumrules import harmonics, sumrules, tails
from sphere_sumrules.density import DensitySpec
from sphere_sumrules.errors import DivergentSumError
from sphere_sumrules.harmonics import (_lgamma, _pair_strength_raw,
                                       degeneracy, log_degeneracy,
                                       log_gegenbauer_at_one, pair_strength,
                                       sphere_volume)
from sphere_sumrules.sumrules import (_cubic_trace, density_integrals,
                                      p_min, sum_rule, sum_rule_shifted)

from test_zonal_properties import zonal_densities


# ----------------------------------------------------------------------
# the oracle, as first written


_oracle_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _oracle_log_degeneracy(d, ell):
    ell = np.asarray(ell, dtype=float)
    return (np.log(2 * ell + d - 1)
            + _oracle_lgamma(ell + d - 1) - _oracle_lgamma(ell + 1)
            - math.lgamma(d))


def _oracle_log_gegenbauer_at_one(alpha, n):
    n = np.asarray(n, dtype=float)
    return (_oracle_lgamma(n + 2 * alpha) - _oracle_lgamma(n + 1)
            - math.lgamma(2 * alpha))


def _oracle_pair_strength_raw(d, L, l, lp):
    alpha = (d - 1) / 2.0
    l = np.asarray(l, dtype=float)
    lp = np.asarray(lp, dtype=float)
    k = (l + lp - L) / 2.0
    sigma = (l + lp + L) / 2.0
    lg = _oracle_lgamma
    log_a = (np.log(L + alpha) - np.log(sigma + alpha) + math.lgamma(L + 1)
             - lg(k + 1) - lg(l - k + 1) - lg(lp - k + 1)
             + lg(alpha + k) + lg(alpha + l - k)
             + lg(alpha + lp - k) - 2.0 * math.lgamma(alpha)
             + lg(2 * alpha + sigma) - lg(alpha + sigma)
             - math.lgamma(2 * alpha + L))
    log_s = (_oracle_log_degeneracy(d, l) + _oracle_log_degeneracy(d, lp)
             - math.log(sphere_volume(d))
             + _oracle_log_gegenbauer_at_one(alpha, L)
             - math.log(degeneracy(d, L))
             + log_a - _oracle_log_gegenbauer_at_one(alpha, l)
             - _oracle_log_gegenbauer_at_one(alpha, lp))
    return np.exp(log_s)


def _oracle_pair_strength(d, L, l, lp):
    l = np.asarray(l)
    lp_arr = np.broadcast_to(np.asarray(lp), l.shape) if l.ndim \
        else np.asarray(lp)
    scalar = l.ndim == 0
    l = np.atleast_1d(l).astype(float)
    lp_arr = np.atleast_1d(lp_arr).astype(float)
    ok = ((np.rint(l + lp_arr + L).astype(int) % 2 == 0)
          & (np.abs(l - lp_arr) <= L) & (L <= l + lp_arr)
          & (l >= 0) & (lp_arr >= 0))
    out = np.zeros_like(l)
    if np.any(ok):
        out[ok] = _oracle_pair_strength_raw(d, L, l[ok], lp_arr[ok])
    return float(out[0]) if scalar else out


def _oracle_pair_strength_offset(d, L, delta):
    if abs(delta) > L or (L + delta) % 2 != 0:
        return None
    return lambda l: _oracle_pair_strength_raw(
        d, L, np.asarray(l, dtype=float), np.asarray(l, dtype=float) + delta)


def _oracle_integral_to_infinity(f, a):
    """int_a^inf f(l) dl via the substitution l = a/t, t in (0, 1]."""
    l = a / tails._T
    vals = f(l) * a / (tails._T * tails._T)
    if not np.all(np.isfinite(vals)):
        raise DivergentSumError("tail integrand not finite; sum likely divergent")
    return float(np.dot(tails._W, vals))


def _oracle_tail(f, start):
    a = float(start)
    h = tails._STEP
    integral = _oracle_integral_to_infinity(f, a)
    stencil = f(np.array([a - 2 * h, a - h, a, a + h, a + 2 * h]))
    fa = float(stencil[2])
    d1 = float(stencil[0] - 8 * stencil[1] + 8 * stencil[3] - stencil[4]) / (12 * h)
    d3 = float(-stencil[0] + 2 * stencil[1] - 2 * stencil[3] + stencil[4]) / (2 * h ** 3)
    correction = -d1 / 12.0 + d3 / 720.0
    value = integral + 0.5 * fa + correction
    return value, abs(d3) / 720.0


def _oracle_accelerated_sum(f, first, switch=200):
    switch = max(int(switch), int(first))
    l_direct = np.arange(first, switch, dtype=float)
    head = float(np.sum(f(l_direct))) if l_direct.size else 0.0
    tail, err = _oracle_tail(f, switch)
    return head + tail, err


def _oracle_spectral_trace(d, p, gamma=0.0, switch=200):
    sumrules._check_convergent(d, p, "uniform trace")

    def f(l):
        l = np.asarray(l, dtype=float)
        return np.exp(harmonics.log_degeneracy(d, l)
                      - p * np.log(l * (l + d - 1) + gamma))

    return _oracle_accelerated_sum(f, 1, switch=switch)


def _oracle_band_sum(d, L, a, b, gamma=0.0, switch=200):
    total = 0.0
    err = 0.0
    for delta in range(-L, L + 1):
        smooth = _oracle_pair_strength_offset(d, L, delta)
        if smooth is None:
            continue
        start = max(1, 1 - delta)
        ls = np.arange(start, switch, dtype=float)
        lam1 = ls * (ls + d - 1) + gamma
        lam2 = (ls + delta) * (ls + delta + d - 1) + gamma
        direct = _oracle_pair_strength(d, L, ls, ls + delta)
        total += float(np.sum(direct / (lam1 ** a * lam2 ** b)))

        def f(l, s=smooth, dlt=delta):
            l = np.asarray(l, dtype=float)
            v1 = l * (l + d - 1) + gamma
            v2 = (l + dlt) * (l + dlt + d - 1) + gamma
            return s(l) / (v1 ** a * v2 ** b)

        tval, terr = _oracle_tail(f, switch)
        total += tval
        err += terr
    return total, err


def _oracle_J2(q, p, r, density, switch):
    d = density.d
    value, err = _oracle_spectral_trace(d, p + q + r + 3, 0.0, switch)
    for L, rho in sorted(density.rho_by_degree().items()):
        for aa, bb in ((q + 1, p + r + 2), (p + 1, q + r + 2),
                       (r + 1, p + q + 2)):
            bval, berr = _oracle_band_sum(d, L, aa, bb, 0.0, switch)
            value += rho * bval
            err += rho * berr
    cval, cerr = _cubic_trace(density, (q, p, r), gamma=None, lcut=switch)
    return value + cval, err + cerr


@contextmanager
def _oracle_engine():
    """The package's engine with the oracle's band-sum path swapped in."""
    with mock.patch.object(harmonics, "log_degeneracy",
                           _oracle_log_degeneracy), \
            mock.patch.multiple(sumrules, _band_sum=_oracle_band_sum,
                                _spectral_trace=_oracle_spectral_trace,
                                _J2=_oracle_J2):
        yield


# ----------------------------------------------------------------------
# pair strengths


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
def test_pair_strength_matches_oracle_on_lattice(d, L):
    ls = np.arange(0, 80)
    for delta in range(-L - 1, L + 2):
        got = pair_strength(d, L, ls, ls + delta)
        assert np.array_equal(got, _oracle_pair_strength(d, L, ls, ls + delta))
    for l, lp in ((L, 0), (3, 3 + L), (7, 7), (40, 40 + L)):
        assert pair_strength(d, L, l, lp) == _oracle_pair_strength(d, L, l, lp)


# continuous degrees >= 200: the tail's own nodes (Gauss-Legendre and the
# difference stencil), a fine grid, and degrees just below powers of two,
# where l + d - 1 and l + (d - 1) part in the last bit
CONTINUOUS = np.concatenate([
    200.0 / tails._T, 200.0 + tails._STEP * np.arange(-2, 3),
    np.linspace(200.0, 5000.0, 331),
    np.subtract.outer(2.0 ** np.arange(8, 13), np.linspace(0.01, 4.9, 40))
    .ravel()])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_pair_strength_offset_matches_oracle_at_continuous_degrees(d, L):
    nodes = CONTINUOUS
    for delta in range(-L, L + 1, 2):
        got = _pair_strength_raw(d, L, nodes, nodes + delta)
        assert np.array_equal(got, _oracle_pair_strength_offset(d, L, delta)(nodes))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_log_degeneracy_and_gegenbauer_norm_match_oracle(d):
    ells = np.concatenate([np.arange(1.0, 300.0), CONTINUOUS])
    assert np.array_equal(log_degeneracy(d, ells),
                          _oracle_log_degeneracy(d, ells))
    alpha = (d - 1) / 2.0
    assert np.array_equal(log_gegenbauer_at_one(alpha, ells),
                          _oracle_log_gegenbauer_at_one(alpha, ells))
    assert log_degeneracy(d, 7) == _oracle_log_degeneracy(d, 7)


# ----------------------------------------------------------------------
# _lgamma at its edges


def test_lgamma_keeps_shapes_and_values():
    grid = np.array([[0.5, 1.0, 2.5], [2.5, 1e-3, 171.5]])
    got = _lgamma(grid)
    assert got.shape == grid.shape
    assert np.array_equal(got, _oracle_lgamma(grid))
    scalar = _lgamma(3.5)
    assert isinstance(scalar, np.ndarray) and scalar.shape == ()
    assert scalar == math.lgamma(3.5)
    assert _lgamma(np.array([])).shape == (0,)


def test_lgamma_equals_math_lgamma_on_shuffled_repeats():
    # sorted runs with repeats, as a degree grid gives, shuffled, so the
    # gather back to each element's place is checked, and at the 0-d and
    # empty ends
    rng = np.random.default_rng(7)
    runs = np.concatenate([np.arange(1, 60) + s for s in (0.5, 1.0, 2.5)])
    x = rng.permutation(np.tile(runs, 4)).reshape(12, -1)
    got = _lgamma(x)
    assert got.shape == x.shape
    for g, v in zip(got.ravel().tolist(), x.ravel().tolist()):
        assert g == math.lgamma(v)
    zero_d = _lgamma(np.array(7.25))
    assert zero_d.shape == () and zero_d == math.lgamma(7.25)
    assert _lgamma(np.empty((0, 3))).shape == (0, 3)


def test_lgamma_passes_nan_and_inf_through():
    got = _lgamma(np.array([np.nan, 2.0, np.nan, np.inf]))
    assert np.isnan(got[[0, 2]]).all()
    assert got[1] == 0.0 and got[3] == np.inf


@pytest.mark.parametrize("bad", [0, 0.0, -1, -2.0, np.array([1.5, -3.0])])
def test_lgamma_raises_at_poles(bad):
    with pytest.raises(ValueError):
        _lgamma(bad)


# ----------------------------------------------------------------------
# band sums, J-traces and the sum rules


@pytest.mark.parametrize("start", [2, 30, 200, 203, 1000])
def test_tails_match_oracle(start):
    summands = [lambda l: l ** -2.0, lambda l: (2 * l + 1) / (l * (l + 1)) ** 3]
    for d in (2, 3, 4, 5):
        smooth = _oracle_pair_strength_offset(d, 2, -2)
        summands.append(lambda l, s=smooth, d=d: s(l + 2.0) / (
            (l + 2.0) * (l + d + 1.0)) ** 2)
    for f in summands:
        assert (tails.accelerated_sum(f, start, switch=start)
                == _oracle_tail(f, start))
        for first in (1, 7):
            assert (tails.accelerated_sum(f, first, switch=start)
                    == _oracle_accelerated_sum(f, first, switch=start))


@pytest.mark.parametrize("L", [1, 2, 3, 7, 100])
def test_band_sum_is_one_pair_strength_pass(L):
    with mock.patch.object(harmonics, "_pair_strength_raw",
                           wraps=harmonics._pair_strength_raw) as spy:
        got = sumrules._band_sum(3, L, 2, 1)
    assert spy.call_count == 1
    if L <= 7:
        assert got == _oracle_band_sum(3, L, 2, 1)


@pytest.mark.parametrize("points", [1, 400, 1000])
def test_band_sum_split_into_passes_is_bitwise_the_same(points):
    cases = ((3, 4, 1, 1, 0.0, 200), (5, 3, 2, 1, 1e-3, 300),
             (2, 6, 1, 2, 0.0, 1000))
    whole = [sumrules._band_sum(*c) for c in cases]
    with mock.patch.object(sumrules, "_PASS_POINTS", points):
        assert [sumrules._band_sum(*c) for c in cases] == whole
        groups = list(sumrules._band_passes(6, 1000, tails.tail_points(1000)))
    # every offset once, in order, never split; a pass past the bound holds
    # a single offset
    assert [g[0] for group in groups for g in group] == list(range(-6, 7, 2))
    for group in groups:
        size = sum(g[3].size for g in group)
        assert size <= points or len(group) == 1


def test_j2_takes_each_band_sum_once():
    den = DensitySpec.zonal(3, {1: 0.2, 2: 0.1, 3: 0.05})
    for orders, per_degree in (((0, 0, 0), 1), ((0, 1, 1), 2),
                               ((1, 0, 2), 3)):
        with mock.patch.object(sumrules, "_band_sum",
                               wraps=sumrules._band_sum) as spy:
            density_integrals("J2", orders, den)
        assert spy.call_count == 3 * per_degree


@settings(max_examples=10)
@given(den=zonal_densities(), kind=st.sampled_from(["J1", "J2"]),
       orders=st.tuples(*[st.integers(0, 2)] * 3))
def test_density_integrals_match_oracle(den, kind, orders):
    orders = orders[:2] if kind == "J1" else orders
    assume(sum(orders) + len(orders) >= p_min(den.d))
    got = density_integrals(kind, orders, den)
    with _oracle_engine():
        want = density_integrals(kind, orders, den)
    assert got == want


@settings(max_examples=8)
@given(den=zonal_densities(), data=st.data())
def test_sum_rules_match_oracle(den, data):
    d = den.d
    p = data.draw(st.sampled_from([q for q in (2, 3) if q >= p_min(d)]),
                  label="p")
    got = [sum_rule(d, p, den)] + [sum_rule_shifted(d, p, den, g)
                                   for g in (1e-3, 1e-4)]
    with _oracle_engine():
        want = [sum_rule(d, p, den)] + [sum_rule_shifted(d, p, den, g)
                                        for g in (1e-3, 1e-4)]
    assert got == want


def test_tilt_sum_rules_match_oracle():
    for d, p in ((3, 2), (3, 3), (4, 3), (5, 3)):
        den = DensitySpec.tilted(d, 0.6 * sumrules.kappa_bound(d))
        got = (sum_rule(d, p, den), sum_rule_shifted(d, p, den, 1e-3))
        with _oracle_engine():
            want = (sum_rule(d, p, den), sum_rule_shifted(d, p, den, 1e-3))
        assert got == want
