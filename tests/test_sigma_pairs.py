"""The overlap B = 1 + sigma of non-zonal densities against the triple loop.

Oracle: the coupling W and the sigma element as they were first written,
one (i, j, c) triple at a time, every level of W its own Gauss-Jacobi rule,
and the full overlap and the I-terms' zero-mode block built from them pair
by pair.  `rayleigh_ritz.sigma_pairs` keeps the floating-point sequence of
every nonzero W and accumulates each element in entry order, so both
builders must equal the loops exactly (np.array_equal), on random non-zonal
densities on S^2..S^5 at small cutoffs.  The array selection rules are
checked against the loop's rules triple by triple.
"""

import math
import tracemalloc
from unittest import mock
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sphere_sumrules import errors, harmonics, rayleigh_ritz
from sphere_sumrules.density import DensitySpec
from sphere_sumrules.errors import ValidationError
from sphere_sumrules.harmonics import (HarmonicIndex, _levels, _log_norm,
                                       _phase, _selection_mask, coupling_W,
                                       degeneracy, enumerate_m, gegenbauer,
                                       gegenbauer_all, sphere_volume)
from sphere_sumrules.quadrature import quadrature
from sphere_sumrules.sumrules import _zero_mode_block

from test_density import non_zonal_densities


# ----------------------------------------------------------------------
# the triple-loop oracle


def _loop_selection_ok(i1, i2, i3):
    if i1.m_d != i2.m_d + i3.m_d:
        return False
    if not abs(i1.ell - i2.ell) <= i3.ell <= i1.ell + i2.ell:
        return False
    return (i1.ell + i2.ell + i3.ell) % 2 == 0


def _loop_coupling_W(i1, i2, i3):
    if not _loop_selection_ok(i1, i2, i3):
        return 0.0
    d = i1.d
    value = (_phase(i1) * _phase(i2) * _phase(i3)
             * math.exp(_log_norm(i1) + _log_norm(i2) + _log_norm(i3))
             * 2.0 * math.pi)
    levels = [_levels(i) for i in (i1, i2, i3)]
    for k in range(d - 1):
        degs = [levels[j][k][0] for j in range(3)]
        sin_pow = sum(levels[j][k][2] for j in range(3))
        weight_exp = (sin_pow + d - k - 2) / 2.0
        rule = quadrature(weight_exp, sum(degs) // 2 + 4)
        integrand = np.ones_like(rule.nodes)
        for j in range(3):
            integrand = integrand * gegenbauer(levels[j][k][1], degs[j],
                                               rule.nodes)
        value *= rule.integrate(integrand)
    return value


def _loop_sigma_element(density, i, j):
    acc = 0.0
    for cidx, c in density.entries:
        w = _loop_coupling_W(i, j, cidx)
        if w:
            acc += c * w
    return acc


def _loop_full_overlap(d, ell_max, density):
    idx = rayleigh_ritz.truncated_basis(d, ell_max)
    n = len(idx)
    complex_density = any(abs(complex(c).imag) > 0 for _, c in density.entries)
    overlap = np.eye(n, dtype=complex if complex_density else float)
    for i in range(n):
        for j in range(i, n):
            if idx[j].ell - idx[i].ell > density.ell_max:
                break
            acc = _loop_sigma_element(density, idx[i], idx[j])
            if acc:
                overlap[i, j] += acc if complex_density else acc.real
                overlap[j, i] = np.conj(overlap[i, j])
    return overlap


def _loop_zero_mode_overlap(density, ell_cut):
    """Dense B of the non-zonal zero-mode block: support rows and columns."""
    basis = rayleigh_ritz.truncated_basis(density.d, ell_cut)
    pos = {idx: n for n, idx in enumerate(basis)}
    out = np.zeros((len(basis),) * 2, dtype=complex)
    done = set()
    for idx, _ in density.entries:
        s = pos[idx]
        for n, other in enumerate(basis):
            if n in done or abs(other.ell - idx.ell) > density.ell_max:
                continue
            i, j = min(s, n), max(s, n)
            b = (i == j) + _loop_sigma_element(density, basis[i], basis[j])
            if b:
                out[i, j] = b
                out[j, i] = np.conj(b) if i != j else b
        done.add(s)
    return out


# ----------------------------------------------------------------------
# builders against the oracle


@given(den=non_zonal_densities(), data=st.data())
def test_full_overlap_matches_triple_loop(den, data):
    cut = data.draw(st.integers(1, 2 * den.ell_max), label="ell_max")
    assume(rayleigh_ritz.basis_size(den.d, cut) <= 120)
    got = rayleigh_ritz.assemble(den.d, cut, den, mode="full").blocks[0]
    want = _loop_full_overlap(den.d, cut, den)
    assert got.overlap.dtype == want.dtype
    assert np.array_equal(got.overlap, want)


@given(den=non_zonal_densities(), data=st.data())
def test_zero_mode_block_matches_triple_loop(den, data):
    cut = data.draw(st.integers(den.ell_max, 2 * den.ell_max), label="cut")
    assume(rayleigh_ritz.basis_size(den.d, cut) <= 200)
    B, _, c = _zero_mode_block(den, cut)
    assert np.array_equal(B.toarray(), _loop_zero_mode_overlap(den, cut))
    assert np.array_equal(np.flatnonzero(c), sorted(
        rayleigh_ritz.truncated_basis(den.d, cut).index(idx)
        for idx, _ in den.entries))


@given(d=st.integers(2, 5), data=st.data())
def test_selection_mask_admits_exactly_the_loop_rule_triples(d, data):
    basis = rayleigh_ritz.truncated_basis(d, 3)
    third = data.draw(st.sampled_from(basis[1:]), label="third index")
    ell = np.array([h.ell for h in basis])
    md = np.array([h.m_d for h in basis])
    I, J = np.indices((len(basis),) * 2).reshape(2, -1)
    mask = _selection_mask(ell[I], md[I], ell[J], md[J], third)
    want = [_loop_selection_ok(basis[i], basis[j], third)
            for i, j in zip(I, J)]
    assert mask.tolist() == want
    for i, j in zip(I[mask], J[mask]):
        assert coupling_W(basis[i], basis[j], third) == _loop_coupling_W(
            basis[i], basis[j], third)


def test_sigma_pairs_accumulates_in_entry_order():
    # five coefficients with m_d = 0 and odd degree: many elements collect
    # three or more couplings, where the order of the sum shows in the
    # last bits
    den = DensitySpec.from_coeffs(3, {
        HarmonicIndex(3, 1, (0, 0)): 0.11, HarmonicIndex(3, 3, (0, 0)): -0.07,
        HarmonicIndex(3, 3, (1, 0)): 0.05, HarmonicIndex(3, 3, (2, 0)): 0.03,
        HarmonicIndex(3, 3, (3, 0)): -0.02})
    basis = rayleigh_ritz.truncated_basis(3, 4)
    I, J = np.triu_indices(len(basis))
    got = rayleigh_ritz.sigma_pairs(den, basis, I, J)
    want = np.array([_loop_sigma_element(den, basis[i], basis[j])
                     for i, j in zip(I, J)], dtype=complex)
    assert np.count_nonzero(want) > 0
    assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# the array passes beyond the property tests' size caps, and their edges


def _complex_density(d, degrees):
    """A fixed non-zonal density on S^d with complex coefficients on every
    m-vector of the given degrees, scaled as in `non_zonal_densities`."""
    raw = {}
    for n, (L, m) in enumerate((L, m) for L in degrees
                               for m in enumerate_m(d, L)):
        idx = HarmonicIndex(d, L, m)
        if idx in raw:
            continue
        partner = idx.conjugate_partner()
        c = complex(math.cos(1.3 * n + 0.4), 0.0)
        if partner != idx:
            c += complex(0.0, math.sin(0.7 * n + 1.1))
        raw[idx] = c
        raw[partner] = idx.conjugate_phase() * c.conjugate()
    vol = sphere_volume(d)
    reach = sum(abs(c) * math.sqrt(degeneracy(d, idx.ell) / vol)
                for idx, c in raw.items())
    return DensitySpec.from_coeffs(d, {idx: 0.9 * c / reach
                                       for idx, c in raw.items()})


@pytest.mark.parametrize("d, ell_max", [(3, 8), (4, 5)])
def test_full_overlap_matches_triple_loop_at_larger_cutoffs(d, ell_max):
    den = _complex_density(d, (1, 2, 3))
    got = rayleigh_ritz.assemble(d, ell_max, den, mode="full").blocks[0]
    want = _loop_full_overlap(d, ell_max, den)
    assert got.overlap.dtype == want.dtype == complex
    assert np.count_nonzero(want.imag) > 0
    assert np.array_equal(got.overlap, want)


def test_sigma_pairs_holds_its_couplings_to_the_budget():
    # the 76 entries of degrees 1-3 on S^5 at cutoff 3: some 23000
    # couplings, counted at about 28 MB, beside a 190 kB dense overlap
    den = _complex_density(5, (1, 2, 3))
    with mock.patch.object(errors, "MAX_BYTES", 8 * 10 ** 6), \
            mock.patch.object(harmonics, "_couplings") as couplings:
        for build in (lambda: rayleigh_ritz.assemble(5, 3, den, mode="full"),
                      lambda: _zero_mode_block(den, 3)):
            with pytest.raises(ValidationError, match="overlap terms"):
                build()
    couplings.assert_not_called()
    assert rayleigh_ritz.assemble(5, 3, den, mode="full").blocks[0].overlap \
        .shape == (77, 77)


@pytest.mark.parametrize("ell_max", [30, 75])
def test_sigma_pairs_count_bounds_the_traced_peak_at_d2(ell_max):
    # at d = 2 nearly every term has its own level integral, whose node
    # count grows with the degree, so 8 (20 d + 48) bytes a term fell
    # short of the peak; the pairs all pass the selection rules for some
    # entry, so the per-pair masks stay within the per-term count
    den = _complex_density(2, (1, 2, 3))
    basis = rayleigh_ritz.truncated_basis(2, ell_max)
    ell = np.array([h.ell for h in basis])
    md = np.array([h.m_d for h in basis])
    I, J = np.nonzero(np.triu(ell[None, :] - ell[:, None] <= den.ell_max))
    keep = np.zeros(I.size, dtype=bool)
    for cidx, _ in den.entries:
        keep |= _selection_mask(ell[I], md[I], ell[J], md[J], cidx)
    I, J = I[keep], J[keep]
    with mock.patch.object(rayleigh_ritz, "check_bytes",
                           wraps=errors.check_bytes) as check:
        tracemalloc.start()
        try:
            rayleigh_ritz.sigma_pairs(den, basis, I, J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    (counted, _), = [call.args for call in check.call_args_list]
    assert peak <= counted


def test_sigma_pairs_edge_cases_give_zeros_without_warnings():
    den = _complex_density(3, (1, 2))
    basis = rayleigh_ritz.truncated_basis(3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empty = rayleigh_ritz.sigma_pairs(den, basis, [], [])
        # every coefficient has odd degree sum with (0, 0): parity fails
        none = rayleigh_ritz.sigma_pairs(
            DensitySpec.from_coeffs(3, {HarmonicIndex(3, 1, (0, 0)): 0.1}),
            basis, [0, 1, 4], [0, 1, 4])
        # the degree-1 entries hit (0, 1..3), the degree-2 entries nothing
        I, J = np.zeros(4, dtype=int), np.arange(4)
        some = rayleigh_ritz.sigma_pairs(den, basis, I, J)
    assert empty.shape == (0,) and empty.dtype == complex
    assert none.dtype == complex and not np.any(none)
    want = [_loop_sigma_element(den, basis[i], basis[j]) for i, j in zip(I, J)]
    assert np.array_equal(some, np.array(want, dtype=complex))


def test_gegenbauer_rows_with_array_order_equal_scalar_calls():
    # six orders on the same nodes, in descending degree: row k covers the
    # orders of degree >= k, each bitwise equal to its scalar-order call
    x = np.cos(np.linspace(0.05, 3.1, 23))
    alphas = np.array([0.5, 1.0, 1.5, 3.5, 7.0, 12.5])
    degrees = np.array([9, 9, 6, 4, 1, 0])
    live = [x.size * int(np.sum(degrees >= k)) for k in range(10)]
    rows = harmonics._gegenbauer_rows(np.repeat(alphas, x.size),
                                      np.tile(x, 6), live)
    for k, row in enumerate(rows):
        assert row.shape == (live[k],)
        for a in range(live[k] // x.size):
            assert np.array_equal(row[a * x.size:(a + 1) * x.size],
                                  gegenbauer(alphas[a], k, x))
    assert k == 9
    for alpha in alphas:
        table = gegenbauer_all(float(alpha), 9, x)
        assert table.shape == (10, 23)
        for n in range(10):
            assert np.array_equal(table[n], gegenbauer(alpha, n, x))


def test_high_degree_coupling_keeps_table_rows_finite():
    # at the polar level the order-301 column needs degree 0 only; carried
    # to the degree 580 that the Legendre column needs, its table rows
    # would overflow on the rule's nodes from about degree 500 on
    i1 = HarmonicIndex(3, 300, (300, 0))
    i2, i3 = HarmonicIndex(3, 580, (0, 0)), HarmonicIndex(3, 280, (0, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = coupling_W(i1, i2, i3)
    assert got != 0.0 and got == _loop_coupling_W(i1, i2, i3)
