"""The I-terms as chains on the zero-mode coupling block.

Oracle: the explicit coefficient loops the I-terms were first written as,
each sigma element a sum of generic Gauss-Jacobi couplings W,

    I1(q)       = sum_j |c_j|^2 / lam_j^(q+1)
    I2(q, p)    = sum_j |c_j|^2 / lam_j^(q+p+2)
                  + sum_{j,j'} c_j* <j|sigma|j'> c_j' / (lam_j^(q+1) lam_j'^(p+1))
    I3(q, p, r) = the same expansion of c^H G B G B G c with B = 1 + sigma,
                  its sigma-sigma term summed over every nonzero internal
                  mode of degree <= 2 ell_max,

checked on random zonal and non-zonal densities.  On non-zonal densities the
cross-only block is also checked against the full variational overlap, and
the closed zero-mode coefficients against the projection recursion, which
reads the full assembly.
"""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sphere_sumrules import rayleigh_ritz
from sphere_sumrules.density import DensitySpec
from sphere_sumrules.errors import UnsupportedOrderError
from sphere_sumrules.harmonics import (HarmonicIndex, coupling_W, degeneracy,
                                       enumerate_m, sphere_volume)
from sphere_sumrules.sumrules import (_I, _green, _zero_mode_block,
                                      density_integrals, epsilon_closed,
                                      epsilon_recursive)

from test_density import non_zonal_densities
from test_zonal_properties import zonal_densities

KINDS = {"I1": 1, "I2": 2, "I3": 3}


# ----------------------------------------------------------------------
# the loop oracle


def _eigen(d, ell):
    return float(ell * (ell + d - 1))


def _sigma_element(density, j, jp):
    """<j|sigma|j'> = sum over coefficients of c_i W(j, i, j')."""
    total = 0.0 + 0.0j
    for idx, c in density.entries:
        total += c * coupling_W(j, idx, jp)
    return total


def _internal_indices(density):
    """Indices the coupling can reach from the support (degree <= 2 max)."""
    d = density.d
    out = []
    for ell in range(1, 2 * density.ell_max + 1):
        if density.is_zonal:
            out.append(HarmonicIndex(d, ell, (0,) * (d - 1)))
        else:
            out.extend(HarmonicIndex(d, ell, m) for m in enumerate_m(d, ell))
    return out


def _loop_I1(q, density):
    d = density.d
    return sum(abs(c) ** 2 / _eigen(d, idx.ell) ** (q + 1)
               for idx, c in density.entries) + 0.0j


def _loop_I2(q, p, density):
    d = density.d
    value = sum(abs(c) ** 2 / _eigen(d, idx.ell) ** (q + p + 2)
                for idx, c in density.entries) + 0.0j
    for j, cj in density.entries:
        for jp, cjp in density.entries:
            elem = _sigma_element(density, j, jp)
            if elem != 0:
                value += (cj.conjugate() * cjp * elem
                          / (_eigen(d, j.ell) ** (q + 1)
                             * _eigen(d, jp.ell) ** (p + 1)))
    return value


def _loop_I3(q, p, r, density):
    d = density.d
    value = sum(abs(c) ** 2 / _eigen(d, idx.ell) ** (q + p + r + 3)
                for idx, c in density.entries) + 0.0j
    for j, cj in density.entries:
        for jp, cjp in density.entries:
            elem = _sigma_element(density, j, jp)
            if elem != 0:
                lj, ljp = _eigen(d, j.ell), _eigen(d, jp.ell)
                value += cj.conjugate() * cjp * elem * (
                    1.0 / (lj ** (q + 1) * ljp ** (p + r + 2))
                    + 1.0 / (lj ** (q + p + 2) * ljp ** (r + 1)))
    for mid in _internal_indices(density):
        lmid = _eigen(d, mid.ell)
        left = {j: _sigma_element(density, j, mid) for j, _ in density.entries}
        for j, cj in density.entries:
            if left[j] == 0:
                continue
            for jpp, cjpp in density.entries:
                if left[jpp] == 0:
                    continue
                value += (cj.conjugate() * left[j] * left[jpp].conjugate()
                          * cjpp / (_eigen(d, j.ell) ** (q + 1)
                                    * lmid ** (p + 1)
                                    * _eigen(d, jpp.ell) ** (r + 1)))
    return value


LOOPS = {"I1": _loop_I1, "I2": _loop_I2, "I3": _loop_I3}


def _draw_orders(data):
    return {kind: data.draw(st.tuples(*[st.integers(0, 2)] * k),
                            label="%s orders" % kind)
            for kind, k in KINDS.items()}


def _check_against_loops(den, orders):
    for kind, o in orders.items():
        want = LOOPS[kind](*o, den)
        assert abs(want.imag) <= 1e-12 * abs(want)
        got = density_integrals(kind, o, den)["value"]
        assert got == pytest.approx(want.real, rel=1e-13, abs=1e-17), \
            "%s%r" % (kind, o)


@given(den=zonal_densities(), data=st.data())
def test_zonal_integrals_match_loop_formulas(den, data):
    _check_against_loops(den, _draw_orders(data))


@given(den=non_zonal_densities(), data=st.data())
def test_non_zonal_integrals_match_loop_formulas(den, data):
    _check_against_loops(den, _draw_orders(data))


def _check_cross_against_full(den, orders):
    cut = 2 * den.ell_max
    block = rayleigh_ritz.assemble(den.d, cut, den, mode="full").blocks[0]
    basis = rayleigh_ritz.truncated_basis(den.d, cut)
    coeffs = dict(den.entries)
    c = np.array([coeffs.get(idx, 0.0) for idx in basis], dtype=complex)
    full = (block.overlap, _green(block.stiffness), c)
    cross = _zero_mode_block(den, cut)
    for kind, o in orders.items():
        assert _I(o, cross) == pytest.approx(_I(o, full), rel=1e-13,
                                             abs=1e-17), "%s%r" % (kind, o)


@given(den=non_zonal_densities(), data=st.data())
def test_cross_block_chains_match_full_overlap(den, data):
    """Chains of at most two B's never read the entries the cross-only
    block leaves at zero (full assembly kept to small bases)."""
    assume(rayleigh_ritz.basis_size(den.d, 2 * den.ell_max) <= 110)
    _check_cross_against_full(den, _draw_orders(data))


def test_cross_block_chains_match_full_overlap_at_d5():
    den = _seeded_non_zonal(5, (2,), seed=4, picks=1)
    assert rayleigh_ritz.basis_size(5, 2 * den.ell_max) == 182
    _check_cross_against_full(den, {
        "I1": (2,), "I2": (0, 1), "I3": (1, 0, 2)})


def test_cross_block_stores_only_support_rows_and_columns():
    """A degree-6 density on S^5 couples into 10556 harmonics at 2 ell_max;
    the block keeps its support's rows and columns, not a dense square."""
    den = DensitySpec.from_coeffs(5, {HarmonicIndex(5, 6, (2, 1, 1, 0)): 0.03})
    B, G, c = _zero_mode_block(den, 12)
    n = rayleigh_ritz.basis_size(5, 12)
    assert B.shape == (n, n) == (10556, 10556)
    support = set(np.flatnonzero(c))
    rows, cols = B.nonzero()
    assert all(i in support or j in support for i, j in zip(rows, cols))
    assert B.nnz <= 2 * len(support) * n
    with pytest.raises(UnsupportedOrderError):
        _I((0, 0, 0, 0), (B, G, c))


# ----------------------------------------------------------------------
# closed zero-mode coefficients against the recursion


def _seeded_non_zonal(d, degrees, seed, picks=2):
    """Random positive non-zonal density on a few indices of the given
    degrees, scaled as the non_zonal_densities strategy scales."""
    rng = np.random.default_rng(seed)
    choices = [HarmonicIndex(d, L, m) for L in degrees
               for m in enumerate_m(d, L) if any(m)]
    raw = {}
    for n in rng.choice(len(choices), size=picks, replace=False):
        idx = choices[n]
        partner = idx.conjugate_partner()
        c = complex(*rng.uniform(-1.0, 1.0, size=2))
        if partner == idx:
            c = complex(c.real)
        raw[idx] = c
        raw[partner] = idx.conjugate_phase() * c.conjugate()
    vol = sphere_volume(d)
    reach = sum(abs(c) * np.sqrt(degeneracy(d, idx.ell) / vol)
                for idx, c in raw.items())
    return DensitySpec.from_coeffs(d, {idx: 0.9 * c / reach
                                       for idx, c in raw.items()})


@pytest.mark.parametrize("d, degrees, seed", [
    (3, (1, 2), 11), (3, (1, 2), 12), (4, (1,), 13)])
def test_non_zonal_epsilon_closed_matches_recursion(d, degrees, seed):
    den = _seeded_non_zonal(d, degrees, seed)
    assert not den.is_zonal
    closed = epsilon_closed(den).eps
    for k in (1, 2, 3, 4):
        got = epsilon_recursive(den, k, ell_cut=k * den.ell_max)
        assert got == pytest.approx(closed[k - 1], abs=1e-10), "order %d" % k
