"""Property tests of the zonal couplings and the cubic trace.

Random positive zonal densities on S^2..S^5 with degrees up to 4 drive six
checks: Jacobi-matrix band entries against the generic Gauss-Jacobi
coupling W, the cubic trace (by blocks at low degrees, by the blocks'
moments past them) against a naive loop over m2 blocks and coupled
triples with dense band matrices (also on fixed densities whose
parity-allowed triples the triangle rule forbids), the
zero-mode energy recursion against its closed forms, the zonal-block
variational spectrum against the full-matrix one, the single zero mode of
that spectrum, and the exact sum rules against the linear extrapolation of
the gamma-shifted route to gamma = 0.  Fixed densities also pin the
symmetry classes of coupled triples under each pattern of weight powers,
and the cubic trace against the naive loop for each pattern, and past
3 top + 20 for degrees up to 11 (whose cycles are summed block by block
everywhere) and up to 5 (by moments past 15).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphere_sumrules.density import DensitySpec
from sphere_sumrules.harmonics import (HarmonicIndex, _zonal_bands,
                                       coupling_W, degeneracy, enumerate_m,
                                       sphere_volume)
from sphere_sumrules import rayleigh_ritz, sumrules
from sphere_sumrules.sumrules import (_coupled_triples, _cubic_classes,
                                      _cubic_core, epsilon_closed,
                                      epsilon_recursive, p_min, sum_rule,
                                      sum_rule_shifted)


@st.composite
def zonal_densities(draw):
    """Positive zonal density: sum_L |c_L| max|Y_{L,0}| stays below 0.9."""
    d = draw(st.integers(2, 5))
    degrees = draw(st.sets(st.integers(1, 4), min_size=1, max_size=4))
    raw = {L: draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 1.0))
           for L in sorted(degrees)}
    vol = sphere_volume(d)
    reach = sum(abs(c) * math.sqrt(degeneracy(d, L) / vol)
                for L, c in raw.items())
    scale = 0.9 / max(reach, 1.0)
    return DensitySpec.zonal(d, {L: c * scale for L, c in raw.items()})


def _zonal_band_matrix(d, L, m2, n):
    """Dense w_L(l, l', m2) for m2 <= l, l' < m2 + n, scattered from the
    parity rows of `_zonal_bands` (row o // 2 holds offset o)."""
    diag = _zonal_bands(d, [L], [m2], n)[L][:, 0]
    out = np.zeros((n, n))
    for o in range(L % 2, min(L, n - 1) + 1, 2):
        i = np.arange(n - o)
        out[i, i + o] = out[i + o, i] = diag[o // 2, :n - o]
    return out


@given(den=zonal_densities(), data=st.data())
def test_band_entries_match_generic_coupling(den, data):
    d = den.d
    L = data.draw(st.sampled_from(sorted(den.zonal_coeffs())))
    m2 = data.draw(st.integers(0, 6))
    l_hi = m2 + data.draw(st.integers(L, 10))
    band = _zonal_band_matrix(d, L, m2, l_hi - m2 + 1)
    l1 = data.draw(st.integers(m2, l_hi))
    l2 = data.draw(st.integers(max(m2, l1 - L), min(l_hi, l1 + L)))
    # any admissible m-vector with leading entry m2 shares the reduced value
    tails = [()] if d == 2 else enumerate_m(d - 1, m2)
    m = (m2,) + data.draw(st.sampled_from(tails))
    want = coupling_W(HarmonicIndex(d, l1, m), HarmonicIndex(d, l2, m),
                      HarmonicIndex(d, L, (0,) * (d - 1)))
    got = band[l1 - m2, l2 - m2]
    assert got == pytest.approx(want, rel=1e-11,
                                abs=1e-11 * np.abs(band).max())


def _naive_cubic_trace(den, exps, gamma, lcut):
    """The cubic trace block by block: tr(D0 W_L2 D1 W_L3 D2 W_L1) per m2."""
    d = den.d
    zc = den.zonal_coeffs()
    floor = 1 if gamma is None else 0
    shift = 0.0 if gamma is None else gamma
    powers = [e + 1 for e in exps]
    total = 0.0
    for m2 in range(lcut + 1):
        lo = max(floor, m2)
        ls = np.arange(lo, lcut + 1, dtype=float)
        lam = ls * (ls + d - 1) + shift
        D = [np.diag(lam ** -pw) for pw in powers]
        k = lo - m2
        W = {L: _zonal_band_matrix(d, L, m2, lcut - m2 + 1)[k:, k:]
             for L in zc}
        for L1, L2, L3 in _coupled_triples(den):
            chain = D[0] @ W[L2] @ D[1] @ W[L3] @ D[2] @ W[L1]
            total += (degeneracy(d - 1, m2) * zc[L1] * zc[L2] * zc[L3]
                      * np.trace(chain))
    return total


def _small_passes(points, blocks=None):
    """The cubic trace's passes of `points` points and its chunks of
    `blocks` (default `points`) m2 blocks, so that small cuts cross their
    boundaries."""
    return mock.patch.multiple(sumrules, _PASS_POINTS=points,
                               _BLOCKS=blocks or points)


@given(den=zonal_densities(), lcut=st.integers(5, 30),
       exps=st.tuples(*[st.integers(0, 1)] * 3),
       gamma=st.one_of(st.none(), st.floats(1e-3, 1.0)),
       points=st.integers(1, 40))
def test_cubic_core_matches_naive_trace(den, lcut, exps, gamma, points):
    lcut = max(lcut, den.ell_max + 1)
    want = _naive_cubic_trace(den, exps, gamma, lcut)
    # passes of a few starts and chunks of a few blocks put boundaries
    # among the starts past 3 top, where the moments run, and among the
    # blocks below it, summed one by one
    with _small_passes(points):
        got, _ = _cubic_core(den, exps, gamma, lcut, lcut - 1)
    # abs=0: approx's default absolute tolerance of 1e-12 would swamp the
    # relative one on every trace below 1
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("d, coeffs, exps, gamma", [
    (2, {1: 0.2, 4: 0.3}, (0, 0, 0), 1e-2),
    (3, {1: 0.2, 4: 0.3}, (1, 0, 1), None),
    (4, {1: 0.2, 3: 0.1, 4: 0.3}, (0, 0, 0), 1e-2),
])
@pytest.mark.parametrize("points", [3, 7])
def test_cubic_core_keeps_to_coupled_triples(d, coeffs, exps, gamma, points):
    # parity allows (1, 1, 4) and its turns, but the triangle rule forbids
    # them; their traces cancel only across m2 blocks, not at a finite cut,
    # so a core that let them in drifts from the naive trace (by 8e-12
    # relative in the d = 2 case).  abs=0: approx's default absolute
    # tolerance of 1e-12 would swamp the relative one on traces this small.
    den = DensitySpec.zonal(d, coeffs)
    assert (1, 1, 4) not in _coupled_triples(den)
    want = _naive_cubic_trace(den, exps, gamma, 30)
    with _small_passes(points):
        got, _ = _cubic_core(den, exps, gamma, 30, 29)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("coeffs", [{1: 0.2, 2: 0.1, 3: 0.1},
                                    {1: 0.2, 4: 0.3}, {1: 0.2, 3: 0.1, 4: 0.3},
                                    {2: 0.1, 3: 0.1, 5: 0.1}])
@pytest.mark.parametrize("powers", [(1, 1, 1), (1, 1, 2), (1, 2, 1),
                                    (2, 1, 1), (1, 2, 3)])
def test_cubic_classes_partition_the_coupled_triples(coeffs, powers):
    # every coupled triple falls in exactly one class, and every class is
    # represented by a coupled triple; the {1, 4} densities hold (1, 1, 4),
    # which parity allows and the triangle rule forbids
    den = DensitySpec.zonal(3, coeffs)
    triples = _coupled_triples(den)
    classes = _cubic_classes(den, powers)
    assert sum(classes.values()) == len(triples)
    assert set(classes) <= set(triples)
    if len(set(powers)) == 3:
        assert classes == dict.fromkeys(triples, 1)


@pytest.mark.parametrize("powers, want", [
    # all orderings of a triple form one class
    ((1, 1, 1), {(1, 1, 2): 3, (1, 2, 3): 6, (2, 2, 2): 1, (2, 3, 3): 3}),
    # (a, a, b): the one reversal that keeps the weights swaps L1 and L3
    ((1, 1, 2), {(1, 1, 2): 2, (1, 2, 1): 1, (1, 2, 3): 2, (1, 3, 2): 2,
                 (2, 1, 3): 2, (2, 2, 2): 1, (2, 3, 3): 2, (3, 2, 3): 1}),
    # (a, b, a): it swaps L2 and L3
    ((1, 2, 1), {(1, 1, 2): 2, (2, 1, 1): 1, (1, 2, 3): 2, (2, 1, 3): 2,
                 (3, 1, 2): 2, (2, 2, 2): 1, (2, 3, 3): 1, (3, 2, 3): 2}),
    # (b, a, a): it swaps L1 and L2
    ((2, 1, 1), {(1, 1, 2): 1, (1, 2, 1): 2, (1, 2, 3): 2, (1, 3, 2): 2,
                 (2, 3, 1): 2, (2, 2, 2): 1, (2, 3, 3): 2, (3, 3, 2): 1}),
])
def test_cubic_classes_of_three_degrees(powers, want):
    # the cycle V_L1 -w0- V_L2 -w1- V_L3 -w2- keeps its trace under the moves
    # that map its weights onto themselves; 13 coupled triples in all
    den = DensitySpec.zonal(3, {1: 0.2, 2: 0.1, 3: 0.1})
    assert _cubic_classes(den, powers) == want


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("exps, gamma", [
    ((0, 0, 0), None), ((0, 0, 1), None), ((0, 1, 0), None),
    ((1, 0, 0), None), ((0, 1, 2), None),
    # shifted, each weight is 1/(lambda + gamma)^(e+1)
    ((0, 0, 0), 1e-3), ((0, 1, 2), 0.5),
])
def test_cubic_core_matches_naive_trace_per_weight_pattern(d, exps, gamma):
    # each weight pattern (all equal, (a, a, b), (a, b, a), (b, a, a), all
    # distinct) admits its own moves; the naive trace sums every ordered
    # triple, so a wrong move changes the result.  abs=0: approx's default
    # absolute tolerance of 1e-12 would swamp the relative one.
    den = DensitySpec.zonal(d, {1: 0.04, 2: -0.03, 3: 0.02})
    want = _naive_cubic_trace(den, exps, gamma, 22)
    with _small_passes(5):
        got, _ = _cubic_core(den, exps, gamma, 22, 21)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("lcut", [12, 15])
@pytest.mark.parametrize("blocks", [1, 2, 5])
@pytest.mark.parametrize("exps, gamma", [((0, 0, 0), None), ((0, 1, 2), None),
                                         ((0, 0, 0), 0.3)])
def test_cubic_core_matches_naive_trace_past_a_wide_pad(d, lcut, blocks, exps,
                                                        gamma):
    # degrees up to 11 move a band by up to 11 degrees, more than the cut
    # leaves above the last chunks of blocks, so a moved band reaches past
    # its block on either side.  Every start is summed block by block, in
    # chunks of a few blocks.  abs=0: approx's default absolute tolerance
    # of 1e-12 would swamp the relative one.
    den = DensitySpec.zonal(d, {2: 0.05, 9: 0.02, 11: 0.01})
    want = _naive_cubic_trace(den, exps, gamma, lcut)
    with _small_passes(blocks):
        got, _ = _cubic_core(den, exps, gamma, lcut, lcut - 1)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("exps", [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0),
                                  (0, 1, 2)])
@pytest.mark.parametrize("gamma", [None, 2.0])
@pytest.mark.parametrize("points", [3, 5])
def test_cubic_top_shell_matches_naive_shell_difference(d, exps, gamma,
                                                        points):
    # the top shell is the trace's cycles whose largest degree lies in
    # (inner, lcut], the naive trace at lcut less the naive trace at inner.
    # At these cuts the shell is 1.7e-5 to 0.25 of the trace, so the
    # difference keeps most of its digits; what rounding it carries is of
    # the order of the trace's last bits, hence the absolute term.  A
    # gamma of 2 keeps the l = 0 row from swamping the shell.
    den = DensitySpec.zonal(d, {1: 0.04, 2: -0.03, 3: 0.02})
    full = _naive_cubic_trace(den, exps, gamma, 12)
    want = full - _naive_cubic_trace(den, exps, gamma, 5)
    with _small_passes(points):
        _, got = _cubic_core(den, exps, gamma, 12, 5)
    assert abs(got - want) <= 1e-12 * abs(want) + 1e-14 * abs(full)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("coeffs, lcut, points, blocks", [
    # a cycle's degree in u reaches 16, past _MOMENT_DEGREE: the starts
    # past 33 are summed block by block too, in chunks of 7 blocks
    ({2: 0.05, 9: 0.02, 11: 0.01}, 53, 144 * 4, 7),
    # degree 7: the starts past 15 are summed by moments, in passes of 4,
    # and the 15 blocks below in chunks of 4
    ({2: 0.05, 4: 0.03, 5: 0.02}, 35, 36 * 4, 4),
])
@pytest.mark.parametrize("exps, gamma", [((0, 0, 0), None), ((0, 1, 2), None),
                                         ((0, 0, 0), 0.3)])
def test_cubic_core_matches_naive_trace_past_the_low_blocks(d, coeffs, lcut,
                                                            points, blocks,
                                                            exps, gamma):
    # at lcut = 3 top + 20 the trace's starts past 3 top are summed past
    # the block edge: their walks below a block's m2 must drop out, as
    # zeros of the block's bands or in the moments' sums over the blocks.
    # The top shell lies past 3 top too.  abs=0: approx's
    # default absolute tolerance of 1e-12 would swamp the relative one.
    den = DensitySpec.zonal(d, coeffs)
    want = _naive_cubic_trace(den, exps, gamma, lcut)
    shell = want - _naive_cubic_trace(den, exps, gamma, lcut - 16)
    with _small_passes(points, blocks):
        got = _cubic_core(den, exps, gamma, lcut, lcut - 16)
    assert got[0] == pytest.approx(want, rel=1e-12, abs=0)
    assert abs(got[1] - shell) <= 1e-11 * abs(shell) + 1e-14 * abs(want)


@given(den=zonal_densities())
def test_epsilon_recursion_matches_closed_forms(den):
    closed = epsilon_closed(den).eps
    for k in (1, 2, 3, 4):
        assert epsilon_recursive(den, k) == pytest.approx(closed[k - 1],
                                                          abs=1e-10)


@given(den=zonal_densities(), ell_max=st.integers(1, 3))
def test_zonal_blocks_match_full_matrix_spectrum(den, ell_max):
    spectra = [rayleigh_ritz.solve_spectrum(
        rayleigh_ritz.assemble(den.d, ell_max, den, mode=mode)).expand()
        for mode in ("zonal_blocks", "full")]
    np.testing.assert_allclose(*spectra, rtol=1e-10, atol=1e-10)


@given(den=zonal_densities(), ell_max=st.integers(1, 8))
def test_variational_spectrum_keeps_one_zero_mode(den, ell_max):
    # the constant solves the weak form with E = 0 for every density: the
    # merged spectrum holds it once, in the dense m2 = 0 block, and every
    # other level is clearly positive
    spec = rayleigh_ritz.solve_spectrum(
        rayleigh_ritz.assemble(den.d, ell_max, den))
    scale = max(1.0, float(abs(spec.values[-1])))
    zero = np.abs(spec.values) <= rayleigh_ritz.ZERO_MODE_TOL * scale
    assert np.flatnonzero(zero).tolist() == [0]
    assert spec.multiplicities[0] == 1
    assert spec.block_labels[0] == 0
    assert np.all(spec.values[1:] > 0)
    head = rayleigh_ritz.partial_sum(spec, 2, spec.total_count - 1)
    assert math.isfinite(head) and head > 0


@settings(max_examples=15)
@given(den=zonal_densities(), data=st.data())
def test_shifted_route_extrapolates_to_exact_sum_rule(den, data):
    d = den.d
    p = data.draw(st.sampled_from([q for q in (2, 3) if q >= p_min(d)]),
                  label="p")
    g1, g2 = 1e-3, 1e-4
    z1 = sum_rule_shifted(d, p, den, g1)["Z_renorm"]
    z2 = sum_rule_shifted(d, p, den, g2)["Z_renorm"]
    extrap = (g1 * z2 - g2 * z1) / (g1 - g2)
    assert extrap == pytest.approx(sum_rule(d, p, den).value, abs=1e-6)
