"""Pair strengths against a 40-digit reference, band sums against the code
they replaced.

The degree factors (pair strengths, the degeneracy of a continuous degree,
C_n^a(1)) are checked against `reference`, which takes them from the Gamma
function in mpmath at 40 digits, to 4e-15 relative.

Oracle for the aggregation: the Euler-Maclaurin tails, the band sum, the
uniform trace and the J1 and J2 traces as they were first written, on the
package's own pair strengths and degeneracy: one pair-strength call per
offset for its direct degrees and two more for its tail (the integral's
nodes, then the stencil), and the three band sums of J2 taken one by one;
with a shift gamma, each band sum gains its l = 0 rows.  The engine now
takes every offset of a band sum in one pair-strength call, evaluates each
tail's summand once and takes each distinct band sum once, but it forms
every sum in the same order, so each value must equal the oracle's exactly
(==): J1 and J2, and both sum rules and their shifted route on random
zonal densities.
"""

from contextlib import contextmanager
from unittest import mock

from mpmath import mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from sphere_sumrules import harmonics, sumrules, tails
from sphere_sumrules.density import DensitySpec
from sphere_sumrules.errors import DivergentSumError
from sphere_sumrules.harmonics import (_degeneracy_at, _pair_strength_raw,
                                       gegenbauer_at_one, pair_strength,
                                       sphere_volume)
from sphere_sumrules.sumrules import (_cubic_trace, density_integrals,
                                      p_min, sum_rule, sum_rule_shifted)

from test_zonal_properties import zonal_densities


# ----------------------------------------------------------------------
# the oracle: the summation as first written, on the package's degree factors


def _oracle_pair_strength_offset(d, L, delta):
    if abs(delta) > L or (L + delta) % 2 != 0:
        return None
    return lambda l: _pair_strength_raw(
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
        return _degeneracy_at(d, l) / (l * (l + d - 1) + gamma) ** p

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
        direct = pair_strength(d, L, ls, ls + delta)
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


def _oracle_J(orders, density, switch, gamma=None):
    d = density.d
    shift = 0.0 if gamma is None else gamma
    if len(orders) == 2:
        q, p = orders
        pairs = ((q + 1, p + 1),)
    else:
        q, p, r = orders
        pairs = ((q + 1, p + r + 2), (p + 1, q + r + 2), (r + 1, p + q + 2))
    value, err = _oracle_spectral_trace(d, sum(orders) + len(orders), shift,
                                        switch)
    for L, rho in sorted(density.rho_by_degree().items()):
        for aa, bb in pairs:
            bval, berr = _oracle_band_sum(d, L, aa, bb, shift, switch)
            if gamma is not None:
                # the l = 0 rows: l = 0 couples only to l' = L, at 1/Vol
                lam = harmonics.eigenvalue(d, L) + gamma
                bval += (gamma ** -aa * lam ** -bb
                         + lam ** -aa * gamma ** -bb) / sphere_volume(d)
            value += rho * bval
            err += rho * berr
    if len(orders) == 3:
        cval, cerr = _cubic_trace(density, orders, gamma, switch)
        value, err = value + cval, err + cerr
    return value, err


@contextmanager
def _oracle_engine():
    """The package's engine with the oracle's band-sum path swapped in."""
    with mock.patch.multiple(sumrules, _band_sum=_oracle_band_sum,
                             _spectral_trace=_oracle_spectral_trace,
                             _J=_oracle_J):
        yield


# ----------------------------------------------------------------------
# degree factors against the reference


RTOL = 4e-15

# degrees from the first ones to MAX_ELL_CUT
LATTICE = np.array([*range(11), 200, 1000, 5000, 10 ** 6])

# continuous degrees: some of the tail's own nodes at the default switch
# (Gauss-Legendre, the difference stencil), non-integers, and degrees just
# below powers of two, where l + d - 1 and l + (d - 1) part in the last bit
CONTINUOUS = np.concatenate([
    tails.tail_points(200)[::9], [0.25, 37.3, 200.5, 5000.5, 10 ** 6 + 0.5],
    2.0 ** np.arange(8, 13) - 0.01])


def _allowed(L, l, lp):
    return l >= 0 and lp >= 0 and (l + lp + L) % 2 == 0 \
        and abs(l - lp) <= L <= l + lp


def _assert_pair_strengths(d, L, ls, delta, got):
    # at l' = l + delta exactly: the float l + delta may have rounded
    for g, l in zip(got.tolist(), ls.tolist()):
        with mp.workdps(reference.DIGITS):
            want = reference.pair_strength(d, L, l, mp.mpf(l) + delta)
        assert reference.relative_error(g, want) <= RTOL, (d, L, l, delta)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
def test_pair_strength_matches_oracle_on_lattice(d, L):
    for delta in range(-L - 1, L + 2):
        got = pair_strength(d, L, LATTICE, LATTICE + delta)
        ok = np.array([_allowed(L, l, l + delta) for l in LATTICE.tolist()])
        assert not got[~ok].any()
        _assert_pair_strengths(d, L, LATTICE[ok], delta, got[ok])
        _assert_pair_strengths(d, L, LATTICE[ok], delta, _pair_strength_raw(
            d, L, LATTICE[ok], LATTICE[ok] + delta))
    for l, lp in ((L, 0), (3, 3 + L), (7, 7), (40, 40 + L)):
        got = pair_strength(d, L, l, lp)
        assert isinstance(got, float)
        if _allowed(L, l, lp):
            _assert_pair_strengths(d, L, np.array([l]), lp - l,
                                   np.array([got]))
        else:
            assert got == 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_pair_strength_offset_matches_oracle_at_continuous_degrees(d, L):
    for delta in range(-L, L + 1, 2):
        nodes = CONTINUOUS[CONTINUOUS + delta >= 0]
        _assert_pair_strengths(d, L, nodes, delta,
                               _pair_strength_raw(d, L, nodes, nodes + delta))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("L", [7, 60])
def test_pair_strength_matches_reference_at_high_support_degree(d, L):
    # at L = 60 and l = 10^6, (k+1)_{d-2+L} alone is past 1e366; its L
    # ratios to (a+k)_L stay near 1
    ls = np.array([L, L + 0.5, L + 37.3, 200.0, 5000.5, 10.0 ** 6])
    for delta in range(-L, L + 1, 2):
        _assert_pair_strengths(d, L, ls, delta,
                               _pair_strength_raw(d, L, ls, ls + delta))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_log_degeneracy_and_gegenbauer_norm_match_oracle(d):
    # relative errors, that is differences of the logs
    ells = np.concatenate([LATTICE[1:], CONTINUOUS])
    for g, l in zip(_degeneracy_at(d, ells).tolist(), ells.tolist()):
        assert reference.relative_error(g, reference.degeneracy(d, l)) <= RTOL
    alpha = (d - 1) / 2.0
    for n in LATTICE.tolist():
        want = reference.gegenbauer_at_one(alpha, n)
        assert reference.relative_error(gegenbauer_at_one(alpha, n),
                                        want) <= RTOL


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_reference_pair_strengths_sum_to_degeneracy(d):
    # completeness: sum over l' of S_L(l, l') is the integral of
    # sum_m |Y_lm|^2 |Y_LM|^2, which is g_l / Vol
    dps = mp.dps
    with mp.workdps(reference.DIGITS):
        for L in range(5):
            for l in (L, 7, 200):
                total = sum(reference.pair_strength(d, L, l, lp)
                            for lp in range(abs(l - L), l + L + 1, 2))
                want = reference.degeneracy(d, l) / reference.volume(d)
                assert abs(total / want - 1) < 1e-35
    assert mp.dps == dps


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_zero_row_pair_strength_is_inverse_volume(d):
    # l = 0 couples only to l' = L, at S_L(0, L) = 1/Vol: the shifted
    # J-trace adds its l = 0 rows with that weight
    for L in range(9):
        with mp.workdps(reference.DIGITS):
            want = 1 / reference.volume(d)
        assert reference.relative_error(pair_strength(d, L, 0, L),
                                        want) <= RTOL, (d, L)


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
    # the shifted route is the same trace: one band sum per degree
    for p in (2, 3):
        with mock.patch.object(sumrules, "_band_sum",
                               wraps=sumrules._band_sum) as spy:
            sum_rule_shifted(3, p, den, 1e-3)
        assert spy.call_count == 3


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
