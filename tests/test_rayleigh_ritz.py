"""Variational (generalized eigenproblem) route for density-weighted spectra.

The density couples degrees but, for zonal densities, never mixes the
deeper m-chain, so the truncated problem splits into one tridiagonal-like
band block per leading azimuthal class.  Tests pin the block layout, the
full-matrix dual route, exact uniform spectra, a hand-solved 2x2 pencil,
the variational upper-bound property, every block's overlap against the
dense band matrices of its couplings, and the band solver against dense
solves and a 30-digit mpmath reference.
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy import linalg

from sphere_sumrules import harmonics
from sphere_sumrules import rayleigh_ritz as rr
from sphere_sumrules.density import DensitySpec, kappa_bound
from sphere_sumrules.errors import ValidationError
from sphere_sumrules.harmonics import HarmonicIndex, coupling_W

from test_density import _rotated_tilt
from test_zonal_properties import _zonal_band_matrix, zonal_densities


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


@pytest.mark.parametrize("p", ["a", "2", None, math.nan, math.inf, 2j])
def test_partial_sum_rejects_non_numeric_or_non_finite_power(p):
    spec = rr.solve_spectrum(rr.assemble(3, 3, DensitySpec.uniform(3)))
    with pytest.raises(ValidationError, match="power p"):
        rr.partial_sum(spec, p, 5)


def _running_partial_sum(spectrum, p, count):
    """partial_sum as a running total over the spectrum's entries."""
    total = 0.0
    remaining = count
    skip_zero = 1
    for value, mult in zip(spectrum.values, spectrum.multiplicities):
        take = int(mult)
        if skip_zero:
            drop = min(skip_zero, take)
            take -= drop
            skip_zero -= drop
        if take <= 0:
            continue
        take = min(take, remaining)
        total += take / float(value) ** p
        remaining -= take
        if remaining == 0:
            break
    return total


@pytest.mark.parametrize("d, ell_max", [(3, 30), (4, 14), (5, 9)])
def test_partial_sum_equals_running_total(d, ell_max):
    spec = rr.solve_spectrum(rr.assemble(d, ell_max,
                                         DensitySpec.tilted(d, 0.8)))
    for p in (2, 3):
        for count in (0, 1, 57, spec.total_count // 2, spec.total_count - 1):
            assert (rr.partial_sum(spec, p, count)
                    == _running_partial_sum(spec, p, count))


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
        rr._check_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), "dense", "full")
    rr._check_spd(np.eye(3), "dense", "full")
    # the same 2x2 matrix in lower band storage
    with pytest.raises(ValidationError, match="Cholesky factorization of "
                       "the m2=1 block overlap failed"):
        rr._check_spd(np.array([[1.0, 1.0], [2.0, 0.0]]), "band",
                      "m2=1 block")
    rr._check_spd(np.array([[1.0, 1.0, 1.0], [0.5, 0.5, 0.0]]), "band",
                  "m2=1 block")


def test_indefinite_band_block_rejected_in_assembly():
    # inflate the couplings of the m2 >= 1 rows only: the dense m2 = 0
    # block still passes, and the first band block's Cholesky check must
    # fail
    bands = harmonics._zonal_bands

    def inflated(d, degrees, m2, size):
        scale = np.where(np.asarray(m2) == 0, 1.0, 100.0)[:, None]
        return {L: diag * scale
                for L, diag in bands(d, degrees, m2, size).items()}

    with mock.patch.object(harmonics, "_zonal_bands", inflated):
        with pytest.raises(ValidationError, match="the density is not "
                           "positive on the truncated subspace: Cholesky "
                           "factorization of the m2=1 block overlap failed"):
            rr.assemble(3, 6, DensitySpec.tilted(3, 1.0))


def _dense_lower_band(matrix, width):
    """Lower band storage of a symmetric matrix, zero past its corner."""
    n = len(matrix)
    band = np.zeros((min(width, n - 1) + 1, n))
    for o in range(len(band)):
        band[o, :n - o] = np.diag(matrix, -o)
    return band


@given(den=zonal_densities(), ell_max=st.integers(1, 20),
       chunk=st.integers(1, 8))
def test_band_blocks_match_dense_band_matrices(den, ell_max, chunk):
    # every overlap, bitwise: 1 + sum_L c_L w_L from the dense band
    # matrices, taken in the same order, as the dense m2 = 0 block and in
    # lower band storage for m2 >= 1; small chunks put chunk boundaries
    # inside the grid
    d, zc = den.d, den.zonal_coeffs()
    with mock.patch.object(rr, "_BAND_CHUNK_ROWS", chunk):
        prob = rr.assemble(d, ell_max, den)
    assert [b.label for b in prob.blocks] == list(range(ell_max + 1))
    for block in prob.blocks:
        m2 = block.label
        n = ell_max - m2 + 1
        dense = np.eye(n)
        for L, c in zc.items():
            dense += c * _zonal_band_matrix(d, L, m2, n)
        ls = np.arange(m2, ell_max + 1)
        assert block.multiplicity == harmonics.degeneracy(d - 1, m2)
        assert np.array_equal(block.stiffness, ls * (ls + d - 1.0))
        if m2 == 0:
            assert block.storage == "dense"
            assert np.array_equal(block.overlap, dense)
        else:
            assert block.storage == "band"
            assert np.array_equal(block.overlap,
                                  _dense_lower_band(dense, den.ell_max))


def _dense_overlap(block):
    """The symmetric matrix behind a band block's lower band storage."""
    n = len(block.stiffness)
    overlap = np.zeros((n, n))
    for o, row in enumerate(block.overlap):
        i = np.arange(n - o)
        overlap[i + o, i] = overlap[i, i + o] = row[:n - o]
    return overlap


@given(den=zonal_densities(), ell_max=st.integers(1, 12))
def test_band_spectra_match_dense_solves(den, ell_max):
    # block 0 keeps the dense solve bit for bit; the band blocks agree
    # with a dense eigh of the same pencil to 1e-13
    prob = rr.assemble(den.d, ell_max, den)
    spec = rr.solve_spectrum(prob)
    for block in prob.blocks:
        got = spec.values[spec.block_labels == block.label]
        if block.storage == "dense":
            want = linalg.eigh(np.diag(block.stiffness), block.overlap,
                               eigvals_only=True)
            assert np.array_equal(got, want)
            continue
        want = linalg.eigh(np.diag(block.stiffness), _dense_overlap(block),
                           eigvals_only=True)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def _mpmath_block_eigenvalues(block):
    """E = 1/mu over the eigenvalues mu of A^{-1/2} B A^{-1/2}, formed from
    the block's float B at 30 digits."""
    n = len(block.stiffness)
    s = [1 / mpmath.sqrt(mpmath.mpf(float(a))) for a in block.stiffness]
    m = mpmath.zeros(n)
    for o, row in enumerate(block.overlap):
        for j in range(n - o):
            entry = s[j + o] * mpmath.mpf(float(row[j])) * s[j]
            m[j + o, j] = m[j, j + o] = entry
    mu = mpmath.eigsy(m, eigvals_only=True)
    return np.array(sorted(float(1 / x) for x in mu))


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("shape", ["tilt", "zonal"])
def test_band_solver_matches_mpmath(d, shape):
    # each band block's eigenvalues against a 30-digit solve of the same
    # float pencil, so only the solver is measured.  Both routes sit at an
    # ulp or two here, and which is closer flips from block to block, so
    # the comparison with the dense solve is over the whole problem.
    den = (DensitySpec.tilted(d, 0.8 * kappa_bound(d)) if shape == "tilt"
           else DensitySpec.zonal(d, {1: 0.3, 2: 0.2, 3: 0.1}))
    prob = rr.assemble(d, 12, den)
    spec = rr.solve_spectrum(prob)
    band_err = dense_err = 0.0
    with mpmath.workdps(30):
        for block in prob.blocks[1:]:
            exact = _mpmath_block_eigenvalues(block)
            got = spec.values[spec.block_labels == block.label]
            dense = linalg.eigh(np.diag(block.stiffness),
                                _dense_overlap(block), eigvals_only=True)
            rel = np.abs(got - exact) / exact
            assert rel.max() <= 4e-15
            band_err += rel.sum()
            dense_err += np.sum(np.abs(dense - exact) / exact)
    assert band_err <= dense_err
