"""The zonal band recurrence against its per-degree form.

Oracle: the band recurrence and `_times_jacobi` as they were first written,
one Gegenbauer recurrence per degree over all L + 1 offsets of a grid
truncated to size + L rows.  `harmonics._zonal_bands` runs one recurrence
to the top degree, keeps only each step's offsets of its own parity and
leaves out the terms that only added zeros, so every band entry must equal
the oracle's exactly (np.array_equal), and so must the single couplings,
the cubic trace and the zonal blocks built from them.
"""

import math
from unittest import mock

import numpy as np
import pytest

from sphere_sumrules import harmonics, rayleigh_ritz
from sphere_sumrules.density import DensitySpec
from sphere_sumrules.harmonics import (_log_zonal_norm, _zonal_bands,
                                       degeneracy, zonal_coupling_w)
from sphere_sumrules.sumrules import _cubic_core


# ----------------------------------------------------------------------
# the per-degree oracle


def _times_jacobi(c, b):
    """Upper diagonals of J c for a symmetric banded c that commutes with J.

    c[o, :, n] holds entry (n, n+o); b[:, n] = J[n-1, n], with zero first
    and last columns (the truncation edges).
    """
    out = np.zeros_like(c)
    out[:-1, :, 1:] += b[:, 1:-1] * c[1:, :, :-1]      # J[n, n-1] c[n-1, n+o]
    out[1:, :, :-1] += b[:, 1:-1] * c[:-1, :, 1:]      # J[n, n+1] c[n+1, n+o]
    out[0] += b[:, 1:] * c[1]                         # c[n+1, n] = c[n, n+1]
    return out


def _oracle_band_diagonals(d, L, m2, size):
    """(L + 1, len(m2), size) upper diagonals of w_L, one recurrence on the
    Jacobi diagonals truncated to size + L rows."""
    lam = np.asarray(m2, dtype=float).reshape(-1, 1) + (d - 1) / 2.0
    alpha = (d - 1) / 2.0
    rows = size + L
    n = np.arange(1, rows, dtype=float)
    b = np.zeros((lam.shape[0], rows + 1))
    b[:, 1:rows] = np.sqrt(n * (n + 2.0 * lam - 1.0)
                           / (4.0 * (n + lam) * (n + lam - 1.0)))
    c_prev = np.zeros((L + 1, lam.shape[0], rows))
    c = np.zeros_like(c_prev)
    c[0] = 1.0
    for k in range(1, L + 1):
        c, c_prev = (2.0 * (k + alpha - 1.0) * _times_jacobi(c, b)
                     - (k + 2.0 * alpha - 2.0) * c_prev) / k, c
    return math.exp(_log_zonal_norm(d, L)) * c[:, :, :size]


def _oracle_bands(d, degrees, m2, size):
    """`_zonal_bands`' layout, each degree from its own oracle run."""
    return {L: _oracle_band_diagonals(d, L, m2, size)[L % 2::2]
            for L in degrees}


M2_GRIDS = [[0], [1], [301], [0, 1, 2], list(range(7)), [5, 301]]


# ----------------------------------------------------------------------
# the bands


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_band_diagonals_equal_the_per_degree_recurrence(d, L):
    # sizes from a single column up past L cover both truncation edges;
    # the parity rows held equal the oracle's, whose other rows are zeros
    for m2 in M2_GRIDS:
        for size in sorted({1, 2, L, L + 1, L + 5, 40}):
            got = _zonal_bands(d, [L], m2, size)[L]
            want = _oracle_band_diagonals(d, L, m2, size)
            assert want.shape == (L + 1, len(m2), size)
            assert got.shape == (L // 2 + 1, len(m2), size)
            assert np.array_equal(got, want[L % 2::2])
            assert not want[1 - L % 2::2].any()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_zonal_coupling_w_equals_the_oracle_entry(d):
    # every pair of degrees up to m2 + 13, in both orders: inside the
    # selection rules the oracle's entry exactly, and an exact 0.0 for a
    # degree below m2, the wrong parity (where the oracle holds exact
    # zeros too), an offset past L, or L past lo + hi (where the oracle
    # holds rounding residues of a zero integral)
    for L in range(1, 7):
        for m2 in (0, 1, 3, 10):
            for hi in range(m2, m2 + 14):
                band = _oracle_band_diagonals(d, L, [m2], hi - m2 + 1)
                for lo in range(hi + 1):
                    o = hi - lo
                    parity = o % 2 == L % 2
                    if lo >= m2 and o <= L and not parity:
                        assert band[o, 0, lo - m2] == 0.0
                    allowed = lo >= m2 and parity and o <= L <= lo + hi
                    want = band[o, 0, lo - m2] if allowed else 0.0
                    for l1, l2 in ((lo, hi), (hi, lo)):
                        got = zonal_coupling_w(d, L, l1, l2, m2)
                        assert type(got) is float
                        assert got == want


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("degrees", [(1, 2, 3), (1, 4), (2, 3, 4), (3,),
                                     (2, 7), (1, 5, 6)])
def test_every_degree_from_one_recurrence(d, degrees):
    # the lower degrees are read off a recurrence run to the top one
    for m2 in M2_GRIDS:
        for size in (1, 3, 33):
            got = _zonal_bands(d, degrees, m2, size)
            want = _oracle_bands(d, degrees, m2, size)
            assert list(got) == sorted(degrees)
            for L in degrees:
                assert got[L].shape == (L // 2 + 1, len(m2), size)
                assert np.array_equal(got[L], want[L])


def test_no_degrees_give_no_bands():
    assert _zonal_bands(3, [], [0, 1], 10) == {}
    assert _zonal_bands(3, {}, [0], 1) == {}


# ----------------------------------------------------------------------
# consumers against the oracle bands


DENSITIES = [{1: 0.1, 2: 0.05, 3: 0.03}, {1: 0.1, 4: 0.03},
             {2: 0.08, 3: 0.04, 4: 0.02}]


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("coeffs", DENSITIES)
@pytest.mark.parametrize("exps, gamma", [((0, 0, 0), None),
                                         ((1, 0, 1), None),
                                         ((0, 0, 0), 1e-3)])
def test_cubic_core_equals_its_run_on_oracle_bands(d, coeffs, exps, gamma):
    # two chunks of m2 rows; the trace at 40 and its top shell above 24
    den = DensitySpec.zonal(d, coeffs)
    got = _cubic_core(den, exps, gamma, 40, 24)
    with mock.patch.object(harmonics, "_zonal_bands", _oracle_bands):
        want = _cubic_core(den, exps, gamma, 40, 24)
    assert got == want


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("coeffs", DENSITIES)
@pytest.mark.parametrize("ell_max, stop", [(70, None), (12, None), (30, 1)])
def test_zonal_blocks_equal_their_build_on_oracle_bands(d, coeffs, ell_max,
                                                        stop):
    # ell_max = 70 takes two chunks of m2 rows; stop = 1 is the zero-mode
    # block alone, as the I-terms and epsilon_recursive build it
    zc = DensitySpec.zonal(d, coeffs).zonal_coeffs()
    got = rayleigh_ritz._zonal_blocks(d, ell_max, zc, stop)
    with mock.patch.object(harmonics, "_zonal_bands", _oracle_bands):
        want = rayleigh_ritz._zonal_blocks(d, ell_max, zc, stop)
    assert len(got) == len(want) == (stop or ell_max + 1)
    for a, b in zip(got, want):
        assert (a.label, a.multiplicity, a.storage) == (b.label,
                                                        b.multiplicity,
                                                        b.storage)
        assert np.array_equal(a.stiffness, b.stiffness)
        assert np.array_equal(a.overlap, b.overlap)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_uniform_density_assembles_to_unit_overlaps(d):
    # no degrees: every block's overlap is the identity, the m2 = 0 block
    # dense and every other one a single band row
    ell_max = 70
    blocks = rayleigh_ritz.assemble(d, ell_max, DensitySpec.uniform(d)).blocks
    assert [b.label for b in blocks] == list(range(ell_max + 1))
    for m, block in enumerate(blocks):
        n = ell_max - m + 1
        ls = np.arange(m, ell_max + 1)
        assert block.multiplicity == degeneracy(d - 1, m)
        assert np.array_equal(block.stiffness, ls * (ls + d - 1.0))
        if m == 0:
            assert block.storage == "dense"
            assert np.array_equal(block.overlap, np.eye(n))
        else:
            assert block.storage == "band"
            assert np.array_equal(block.overlap, np.ones((1, n)))
