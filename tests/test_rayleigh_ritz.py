"""Variational (generalized eigenproblem) route for density-weighted spectra.

The density couples degrees but, for zonal densities, never mixes the
deeper m-chain, so the truncated problem splits into one tridiagonal-like
band block per leading azimuthal class.  Tests pin the block layout, the
full-matrix dual route, exact uniform spectra, a hand-solved 2x2 pencil,
and the variational upper-bound property.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sphere_sumrules import rayleigh_ritz as rr
from sphere_sumrules.density import DensitySpec, kappa_bound
from sphere_sumrules.errors import ValidationError
from sphere_sumrules.harmonics import HarmonicIndex, coupling_W

from test_density import _rotated_tilt


def test_basis_size_reference_counts():
    assert rr.basis_size(2, 90) == 8281
    assert rr.basis_size(3, 30) == 10416
    assert rr.basis_size(4, 20) == 19481
    assert rr.basis_size(5, 15) == 27132
    assert rr.basis_size(3, 90) == 255346
    assert rr.basis_size(3, 0) == 1
    assert rr.basis_size(3, 2) == 14


def test_basis_size_gamma_ratio_formula():
    # (d + 2 l) Gamma(d + l) / (Gamma(d+1) Gamma(l+1)) counts all modes
    for d in (2, 3, 4, 5):
        for ell in range(0, 12):
            want = round((d + 2 * ell) * math.gamma(d + ell)
                         / (math.gamma(d + 1) * math.gamma(ell + 1)))
            assert rr.basis_size(d, ell) == want


def test_uniform_spectrum_is_exact():
    prob = rr.assemble(3, 3, DensitySpec.uniform(3))
    spec = rr.solve_spectrum(prob)
    want = np.repeat([0.0, 3.0, 8.0, 15.0], [1, 4, 9, 16])
    assert np.allclose(spec.expand(), want, atol=1e-12)


def test_partial_sum_skips_one_zero_mode():
    spec = rr.solve_spectrum(rr.assemble(3, 3, DensitySpec.uniform(3)))
    want = 4 / 9 + 9 / 64 + 16 / 225
    assert rr.partial_sum(spec, 2, 29) == pytest.approx(want, abs=1e-14)
    assert rr.partial_sum(spec, 2, 0) == 0.0
    with pytest.raises(ValidationError):
        rr.partial_sum(spec, 2, 10 ** 9)


def test_zonal_block_layout():
    prob = rr.assemble(3, 2, DensitySpec.tilted(3, 1.0))
    sizes = [len(b.stiffness) for b in prob.blocks]
    mults = [b.multiplicity for b in prob.blocks]
    assert sizes == [3, 2, 1]
    assert mults == [1, 3, 5]
    assert sum(s * m for s, m in zip(sizes, mults)) == rr.basis_size(3, 2)


def test_two_by_two_block_closed_form():
    # l in {0, 1}, m2 = 0: pencil A = diag(0, 3), B = [[1, b], [b, 1]] with
    # b = kappa W(0; 1; 1); det(A - E B) = 0 gives E in {0, 3/(1 - b^2)}
    kappa = 0.9
    i0 = HarmonicIndex(3, 0, (0, 0))
    i1 = HarmonicIndex(3, 1, (0, 0))
    b = kappa * coupling_W(i0, i1, i1)
    roots = [0.0, 3.0 / (1.0 - b * b)]
    prob = rr.assemble(3, 1, DensitySpec.tilted(3, kappa))
    blk = prob.blocks[0]
    got = np.sort(np.linalg.eigvals(
        np.linalg.solve(blk.overlap, np.diag(blk.stiffness))).real)
    assert np.allclose(got, roots, rtol=1e-12)
    spec = rr.solve_spectrum(prob)
    assert np.min(np.abs(spec.values - roots[1])) < 1e-10


def test_full_matrix_route_matches_zonal_blocks():
    den = DensitySpec.tilted(3, 1.0)
    sz = rr.solve_spectrum(rr.assemble(3, 6, den, mode="zonal_blocks"))
    sf = rr.solve_spectrum(rr.assemble(3, 6, den, mode="full"))
    assert sz.total_count == sf.total_count == rr.basis_size(3, 6) == 140
    assert np.max(np.abs(sz.expand() - sf.expand())) < 1e-10
    # one exact zero mode survives the density perturbation
    assert abs(sz.expand()[0]) < 1e-10
    assert abs(sf.expand()[0]) < 1e-10


def test_d2_blocks_and_full_route():
    den = DensitySpec.tilted(2, 0.8)
    prob = rr.assemble(2, 4, den)
    assert [b.multiplicity for b in prob.blocks] == [1, 2, 2, 2, 2]
    s_blocks = rr.solve_spectrum(prob)
    assert s_blocks.total_count == rr.basis_size(2, 4) == 25
    s_full = rr.solve_spectrum(rr.assemble(2, 4, den, mode="full"))
    assert np.max(np.abs(s_blocks.expand() - s_full.expand())) < 1e-10


def test_variational_upper_bound_monotone_in_cutoff():
    den = DensitySpec.tilted(3, 1.0)
    e8 = rr.solve_spectrum(rr.assemble(3, 8, den)).expand()
    e12 = rr.solve_spectrum(rr.assemble(3, 12, den)).expand()
    assert np.all(e8 >= e12[:len(e8)] - 1e-9)


def test_small_tilt_is_perturbative():
    spec = rr.solve_spectrum(rr.assemble(3, 8, DensitySpec.tilted(3, 0.01)))
    first = next(v for v in spec.expand() if v > 1e-8)
    assert abs(first - 3.0) < 5 * 0.01 ** 2


@given(d=st.integers(3, 5), ell_max=st.integers(1, 3),
       frac=st.floats(0.1, 0.9), axis=st.lists(
           st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_rotated_tilt_has_identical_spectrum(d, ell_max, frac, axis):
    # the spectrum is rotation invariant: a tilt about a random axis must
    # reproduce the polar tilt's zonal-block spectrum via the full route
    axis = np.array(axis[:d + 1])
    assume(np.linalg.norm(axis) > 0.1)
    kappa = frac * kappa_bound(d)
    den_rot = DensitySpec.from_coeffs(
        d, _rotated_tilt(d, kappa, axis / np.linalg.norm(axis)))
    rotated = rr.assemble(d, ell_max, den_rot, mode="full")
    polar = rr.assemble(d, ell_max, DensitySpec.tilted(d, kappa),
                        mode="zonal_blocks")
    np.testing.assert_allclose(rr.solve_spectrum(rotated).expand(),
                               rr.solve_spectrum(polar).expand(),
                               rtol=1e-10, atol=1e-10)


def test_non_zonal_density_refused_by_zonal_mode():
    c = 1.0 / math.sqrt(2.0)
    den = DensitySpec.from_coeffs(3, {HarmonicIndex(3, 1, (1, 1)): c,
                                      HarmonicIndex(3, 1, (1, -1)): -c})
    with pytest.raises(ValidationError):
        rr.assemble(3, 4, den, mode="zonal_blocks")
    # auto mode falls back to the full matrix and still works
    spec = rr.solve_spectrum(rr.assemble(3, 4, den))
    assert spec.total_count == rr.basis_size(3, 4)


def test_default_retention_is_half():
    spec = rr.solve_spectrum(rr.assemble(3, 6, DensitySpec.tilted(3, 1.0)))
    assert spec.retained_count == rr.basis_size(3, 6) // 2


def test_spectrum_rows_structure():
    spec = rr.solve_spectrum(rr.assemble(3, 1, DensitySpec.tilted(3, 0.5)))
    rows = list(spec.rows())
    assert [r[0] for r in rows] == list(range(len(rows)))
    assert sum(r[2] for r in rows) == rr.basis_size(3, 1)
    assert rows[0][1] == pytest.approx(0.0, abs=1e-12)


def test_near_bound_density_still_assembles():
    den = DensitySpec.tilted(3, 2.2)     # close to the positivity bound
    spec = rr.solve_spectrum(rr.assemble(3, 3, den))
    assert abs(spec.expand()[0]) < 1e-10


def test_indefinite_overlap_rejected():
    # the per-block Cholesky guard is the last line of defense should a
    # density slip past the sampled positivity check
    with pytest.raises(ValidationError):
        rr._check_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), "full")
    rr._check_spd(np.eye(3), "full")
