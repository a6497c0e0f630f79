"""Hyperspherical harmonic basis data, point values, and triple couplings.

The d=2 sphere doubles as the oracle layer: point values are checked
against scipy's spherical harmonics and triple couplings against a direct
two-angle quadrature of the product of three scipy harmonics.  Higher d is
then pinned by internal dual routes (generic vs reduced zonal couplings,
m-summed pair strengths) and by the addition theorem.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_gegenbauer, roots_legendre, sph_harm_y

from sphere_sumrules.errors import MAX_ELL_CUT, ValidationError
from sphere_sumrules.harmonics import (
    HarmonicIndex,
    _degeneracy_at,
    _zonal_bands,
    addition_eval,
    coupling_W,
    degeneracy,
    eigenvalue,
    enumerate_m,
    eval_harmonic,
    gegenbauer,
    gegenbauer_all,
    gegenbauer_at_one,
    pair_strength,
    sphere_volume,
    zonal_coupling_w,
)


# ----------------------------------------------------------------------
# scalar basis data


def test_sphere_volumes():
    assert sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_volume(3) == pytest.approx(2 * math.pi ** 2, rel=1e-15)
    assert sphere_volume(4) == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-15)
    assert sphere_volume(5) == pytest.approx(math.pi ** 3, rel=1e-15)


def test_eigenvalues():
    assert eigenvalue(3, 0) == 0
    assert eigenvalue(2, 5) == 30
    assert eigenvalue(5, 7) == 7 * 11


def test_degeneracies_match_closed_forms():
    for ell in range(0, 12):
        assert degeneracy(2, ell) == 2 * ell + 1
        assert degeneracy(3, ell) == (ell + 1) ** 2
        assert degeneracy(4, ell) == (ell + 1) * (ell + 2) * (2 * ell + 3) // 6
    # circle: one constant mode, two per positive frequency
    assert degeneracy(1, 0) == 1
    assert degeneracy(1, 4) == 2


def test_log_degeneracy_interpolates_integers():
    for d in (2, 3, 4, 5):
        ells = np.arange(1, 20, dtype=float)
        got = _degeneracy_at(d, ells)
        want = np.array([degeneracy(d, int(l)) for l in ells], dtype=float)
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Gegenbauer polynomials


def test_gegenbauer_against_scipy():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, size=12)
    for alpha in (0.5, 1.0, 1.5, 2.5):
        for n in (0, 1, 2, 5, 9):
            want = eval_gegenbauer(n, alpha, x)
            assert np.allclose(gegenbauer(alpha, n, x), want, rtol=1e-12)


def test_gegenbauer_all_matches_single():
    x = np.linspace(-0.9, 0.9, 7)
    table = gegenbauer_all(1.5, 6, x)
    for n in range(7):
        assert np.allclose(table[n], gegenbauer(1.5, n, x), rtol=1e-13)


@pytest.mark.parametrize("n", [2.5, "2", -1, None])
def test_gegenbauer_degree_must_be_a_non_negative_integer(n):
    with pytest.raises(ValidationError, match="Gegenbauer degree"):
        gegenbauer(1.0, n, 0.3)


def test_gegenbauer_keeps_the_shape_of_x():
    x = np.linspace(-0.9, 0.9, 12).reshape(3, 4)
    assert gegenbauer(1.5, 4, x).shape == (3, 4)
    assert gegenbauer(1.5, 0, x).shape == (3, 4)
    assert isinstance(gegenbauer(1.5, 4, 0.3), float)
    assert gegenbauer(1.5, 4, 2.0) == gegenbauer(1.5, 4, np.array([2.0]))[0]


def test_gegenbauer_at_one():
    # integer 2 alpha takes (n+1)_{2 alpha - 1}, the others (2 alpha)_n
    for alpha in (0.5, 1.0, 2.0, 0.7, 1.25):
        for n in (0, 1, 3, 8):
            want = math.gamma(n + 2 * alpha) / (
                math.factorial(n) * math.gamma(2 * alpha))
            assert gegenbauer_at_one(alpha, n) == pytest.approx(want, rel=1e-12)
            assert gegenbauer(alpha, n, 1.0) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n", [2.5, -1, "3", None])
def test_gegenbauer_at_one_rejects_non_integer_degree(n):
    with pytest.raises(ValidationError, match="Gegenbauer degree"):
        gegenbauer_at_one(1.5, n)


# ----------------------------------------------------------------------
# index enumeration


def test_enumerate_m_counts_match_degeneracy():
    for d in (2, 3, 4, 5):
        for ell in range(0, 6):
            assert len(enumerate_m(d, ell)) == degeneracy(d, ell)


def test_enumerate_m_order_and_shape():
    ms = enumerate_m(3, 2)
    assert ms[0] == (0, 0)
    assert ms == sorted(ms)
    assert all(len(m) == 2 for m in ms)
    # last entry is the only signed one
    assert (2, -2) in ms and (2, 2) in ms and (1, -1) in ms


def test_index_validation():
    with pytest.raises(ValidationError):
        HarmonicIndex(3, 2, (3, 0))     # m2 > ell
    with pytest.raises(ValidationError):
        HarmonicIndex(3, 2, (1, 2))     # |m3| > m2
    with pytest.raises(ValidationError):
        HarmonicIndex(3, 2, (1,))       # wrong m length
    with pytest.raises(ValidationError):
        HarmonicIndex(1, 2, (0,))       # dimension too small
    # negatives allowed only in the last slot
    HarmonicIndex(3, 2, (1, -1))
    with pytest.raises(ValidationError):
        HarmonicIndex(4, 2, (1, -1, 0))


@pytest.mark.parametrize("ell, m", [
    (2.5, (0, 0)), (-1, (0, 0)), (True, (0, 0)), ("2", (0, 0)),
    (math.nan, (0, 0)), (1e300, (0, 0)), (MAX_ELL_CUT + 1, (0, 0)),
    # int() read (1.7, 0) as (1, 0)
    (3, (1.7, 0)), (3, (1, 0.5)), (3, ("1", 0)), (3, (None, 0)),
    (3, (True, 0))])
def test_index_entries_must_be_integers_up_to_the_ceiling(ell, m):
    # each was accepted, or failed later with a raw TypeError or an
    # allocation sized by the degree
    with pytest.raises(ValidationError):
        HarmonicIndex(3, ell, m)


def test_integral_index_entries_read_as_ints():
    idx = HarmonicIndex(3, np.int64(3), (2.0, np.int32(-1)))
    assert idx == HarmonicIndex(3, 3, [2, -1])
    assert type(idx.ell) is int and {type(v) for v in idx.m} == {int}
    assert HarmonicIndex(3, MAX_ELL_CUT, (0, 0)).ell == MAX_ELL_CUT


# ----------------------------------------------------------------------
# point values: scipy is the oracle on S^2


def test_eval_matches_scipy_spherical_harmonics():
    rng = np.random.default_rng(3)
    for _ in range(12):
        ell = int(rng.integers(0, 6))
        m = int(rng.integers(-ell, ell + 1)) if ell else 0
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        mine = eval_harmonic(HarmonicIndex(2, ell, (m,)), (theta, phi))
        ref = complex(sph_harm_y(ell, m, theta, phi))
        assert mine == pytest.approx(ref, abs=1e-13)


def test_eval_rejects_wrong_angle_count():
    with pytest.raises(ValidationError):
        eval_harmonic(HarmonicIndex(3, 1, (0, 0)), (0.3, 0.4))


def test_zonal_values_are_real():
    for d in (3, 4, 5):
        idx = HarmonicIndex(d, 3, (0,) * (d - 1))
        val = eval_harmonic(idx, tuple([0.7] * (d - 1)) + (1.3,))
        assert abs(val.imag) == 0.0


def test_constant_mode_value():
    for d in (2, 3, 4, 5):
        idx = HarmonicIndex(d, 0, (0,) * (d - 1))
        val = eval_harmonic(idx, tuple([0.9] * (d - 1)) + (2.0,))
        assert val.real == pytest.approx(1.0 / math.sqrt(sphere_volume(d)),
                                         rel=1e-12)


def test_conjugation_pairing():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        omega = tuple(rng.uniform(0.1, math.pi - 0.1, size=d - 1)) + (
            float(rng.uniform(0, 2 * math.pi)),)
        for m in enumerate_m(d, 3):
            idx = HarmonicIndex(d, 3, m)
            partner = idx.conjugate_partner()
            lhs = np.conj(eval_harmonic(idx, omega))
            rhs = idx.conjugate_phase() * eval_harmonic(partner, omega)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_addition_theorem():
    rng = np.random.default_rng(9)
    for d in (2, 3, 4):
        omega1 = tuple(rng.uniform(0.2, math.pi - 0.2, size=d - 1)) + (
            float(rng.uniform(0, 2 * math.pi)),)
        omega2 = tuple(rng.uniform(0.2, math.pi - 0.2, size=d - 1)) + (
            float(rng.uniform(0, 2 * math.pi)),)
        for ell in (1, 3):
            acc = 0.0 + 0.0j
            for m in enumerate_m(d, ell):
                idx = HarmonicIndex(d, ell, m)
                acc += eval_harmonic(idx, omega1) * np.conj(
                    eval_harmonic(idx, omega2))
            cosg = _cos_geodesic(omega1, omega2)
            assert abs(acc.imag) < 1e-12
            assert acc.real == pytest.approx(addition_eval(d, ell, cosg),
                                             rel=1e-10)


def _cos_geodesic(omega1, omega2):
    """cos of the geodesic angle between two points given in polar angles."""
    def embed(omega):
        thetas, phi = omega[:-1], omega[-1]
        coords = []
        s = 1.0
        for theta in thetas:
            coords.append(s * math.cos(theta))
            s *= math.sin(theta)
        coords.extend([s * math.cos(phi), s * math.sin(phi)])
        return np.array(coords)
    return float(np.dot(embed(omega1), embed(omega2)))


def test_coincidence_sum_is_degeneracy_over_volume():
    d, ell = 3, 4
    omega = (1.1, 0.6, 2.7)
    acc = sum(abs(eval_harmonic(HarmonicIndex(d, ell, m), omega)) ** 2
              for m in enumerate_m(d, ell))
    assert acc == pytest.approx(degeneracy(d, ell) / sphere_volume(d),
                                rel=1e-10)


# ----------------------------------------------------------------------
# generic couplings: direct scipy quadrature is the oracle on S^2


def _coupling_oracle_2d(i1, i2, i3):
    """int Y*_{i1} Y_{i2} Y_{i3} sin(theta) dtheta dphi via scipy harmonics."""
    x, w = roots_legendre(40)
    theta = np.arccos(x)
    nphi = 32
    phi = 2 * math.pi * np.arange(nphi) / nphi
    acc = 0.0 + 0.0j
    for t, wt in zip(theta, w):
        row = (np.conj(sph_harm_y(i1.ell, i1.m_d, t, phi))
               * sph_harm_y(i2.ell, i2.m_d, t, phi)
               * sph_harm_y(i3.ell, i3.m_d, t, phi))
        acc += wt * row.sum() * (2 * math.pi / nphi)
    return acc


def test_coupling_matches_scipy_quadrature_on_s2():
    cases = [
        ((2, (0,)), (1, (1,)), (1, (-1,))),
        ((3, (2,)), (2, (1,)), (1, (1,))),
        ((2, (0,)), (2, (0,)), (2, (0,))),
        ((4, (-1,)), (3, (-2,)), (1, (1,))),
        ((0, (0,)), (2, (2,)), (2, (-2,))),
    ]
    for (l1, m1), (l2, m2), (l3, m3) in cases:
        i1 = HarmonicIndex(2, l1, m1)
        i2 = HarmonicIndex(2, l2, m2)
        i3 = HarmonicIndex(2, l3, m3)
        want = _coupling_oracle_2d(i1, i2, i3)
        assert abs(want.imag) < 1e-12
        assert coupling_W(i1, i2, i3) == pytest.approx(want.real, abs=1e-12)


def test_coupling_selection_rules():
    i = lambda l, m: HarmonicIndex(3, l, m)
    # azimuthal mismatch
    assert coupling_W(i(2, (1, 1)), i(1, (1, 1)), i(1, (1, 1))) == 0.0
    # parity: l1+l2+l3 odd
    assert coupling_W(i(2, (0, 0)), i(1, (0, 0)), i(2, (0, 0))) == 0.0
    # triangle violated
    assert coupling_W(i(4, (0, 0)), i(1, (0, 0)), i(1, (0, 0))) == 0.0


def test_coupling_symmetry_in_last_two_slots():
    i1 = HarmonicIndex(3, 3, (2, 1))
    i2 = HarmonicIndex(3, 2, (1, 0))
    i3 = HarmonicIndex(3, 3, (2, 1))
    assert coupling_W(i1, i2, i3) == pytest.approx(coupling_W(i1, i3, i2),
                                                   rel=1e-12)


def test_coupling_with_constant_slot():
    # int Y*_i Y_i Y_0 = 1/sqrt(Vol)
    for d in (2, 3, 5):
        idx = HarmonicIndex(d, 2, (1,) * (d - 2) + (1,))
        zero = HarmonicIndex(d, 0, (0,) * (d - 1))
        assert coupling_W(idx, idx, zero) == pytest.approx(
            1.0 / math.sqrt(sphere_volume(d)), rel=1e-12)


def test_coupling_rejects_mixed_dimensions():
    with pytest.raises(ValidationError):
        coupling_W(HarmonicIndex(3, 1, (0, 0)), HarmonicIndex(3, 1, (0, 0)),
                   HarmonicIndex(2, 0, (0,)))


# ----------------------------------------------------------------------
# reduced zonal couplings


def test_zonal_coupling_matches_generic():
    # shared m-vectors with the same leading entry all give one value
    for d, L in ((3, 1), (3, 2), (4, 2)):
        zonal_L = HarmonicIndex(d, L, (0,) * (d - 1))
        for l1, l2 in ((2, 3), (3, 3), (4, 2)):
            if (l1 + l2 + L) % 2 or not abs(l1 - l2) <= L <= l1 + l2:
                continue
            for m2 in range(0, min(l1, l2) + 1):
                want = zonal_coupling_w(d, L, l1, l2, m2)
                for tail in _m_tails(d, m2):
                    m = (m2,) + tail if d > 2 else (m2,)
                    got = coupling_W(HarmonicIndex(d, l1, m),
                                     HarmonicIndex(d, l2, m), zonal_L)
                    assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def _m_tails(d, m2):
    """A couple of admissible deeper m-chains below a leading entry m2."""
    if d == 2:
        return [()]
    tails = [t for t in enumerate_m(d - 1, m2)]
    return tails[:3] + tails[-1:]


def test_zonal_coupling_selection_rules():
    assert zonal_coupling_w(3, 2, 1, 2, 0) == 0.0      # parity
    assert zonal_coupling_w(3, 2, 1, 5, 0) == 0.0      # triangle
    assert zonal_coupling_w(3, 2, 2, 2, 3) == 0.0      # m2 above degree


def test_zonal_band_matrix_matches_entries():
    # parity row i holds w_L(l, l + o) at l = m2 + n, o = L % 2 + 2 i;
    # offsets of the wrong parity and pairs past the band are zeros
    d, L, m2, hi = 3, 2, 1, 6
    rows = _zonal_bands(d, [L], [m2], hi - m2 + 1)[L]
    assert rows.shape == (L // 2 + 1, 1, hi - m2 + 1)
    for l1 in range(m2, hi + 1):
        for l2 in range(l1, hi + 1):
            o = l2 - l1
            held = o <= L and o % 2 == L % 2
            got = rows[o // 2, 0, l1 - m2] if held else 0.0
            assert got == pytest.approx(
                zonal_coupling_w(d, L, l1, l2, m2), rel=1e-12, abs=1e-15)


def _mp_zonal_band(d, L, m2, ell_max):
    """w_L(l, l', m2) for m2 <= l, l' <= ell_max at 40 digits.

    Column j of C_L^alpha(J_lam) by the Gegenbauer recurrence on vectors:
    L steps from row j stay within rows j - L .. j + L, so each column is
    exact on that window of the untruncated Jacobi matrix.
    """
    mp = mpmath.mp
    with mpmath.workdps(40):
        lam = mp.mpf(m2) + mp.mpf(d - 1) / 2
        alpha = mp.mpf(d - 1) / 2
        size = ell_max - m2 + 1

        b = {n: (mp.sqrt(n * (n + 2 * lam - 1)
                         / (4 * (n + lam) * (n + lam - 1))) if n > 0 else 0)
             for n in range(-L - 1, size + L + 2)}

        h_L = (mp.pi * mp.power(2, 1 - 2 * alpha) * mp.gamma(L + 2 * alpha)
               / (mp.factorial(L) * (L + alpha) * mp.gamma(alpha) ** 2))
        vol_sub = 2 * mp.power(mp.pi, mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
        norm = 1 / mp.sqrt(vol_sub * h_L)
        out = np.zeros((size, size))
        for j in range(size):
            rows = range(j - L - 1, j + L + 2)      # one zero guard each side
            prev = {n: mp.mpf(0) for n in rows}
            cur = {n: mp.mpf(int(n == j)) for n in rows}
            for k in range(1, L + 1):
                nxt = dict.fromkeys(rows, mp.mpf(0))
                for n in rows[1:-1]:
                    xv = b[n] * cur[n - 1] + b[n + 1] * cur[n + 1]
                    nxt[n] = ((2 * (k + alpha - 1) * xv
                               - (k + 2 * alpha - 2) * prev[n]) / k)
                cur, prev = nxt, cur
            for i in range(max(0, j - L), min(size, j + L + 1)):
                out[i, j] = float(norm * cur[i])
    return out


def test_zonal_band_matrix_matches_mpmath_jacobi_reference():
    for d in (3, 5):
        for L in (2, 3):
            for m2 in (0, 17, 40):
                want = _mp_zonal_band(d, L, m2, 60)
                got = _zonal_bands(d, [L], [m2], 61 - m2)[L][:, 0]
                scale = np.max(np.abs(want))
                for o in range(L + 1):
                    if o % 2 != L % 2:
                        # the parity rule: offsets not held are zero
                        assert not np.diag(want, o).any()
                        continue
                    err = got[o // 2, :61 - m2 - o] - np.diag(want, o)
                    assert np.max(np.abs(err)) <= 1e-14 * scale


def test_zonal_band_matrix_finite_at_large_order():
    # Gauss-Jacobi rules fail to converge around this order and degree
    band = _zonal_bands(3, [3], [301], 740 - 301 + 1)[3]
    assert np.isfinite(band).all()
    assert np.abs(band).max() > 0.0


# ----------------------------------------------------------------------
# m-summed pair strengths


def test_pair_strength_anchors():
    # S_1 on S^3 and S^2 against hand-derived closed forms
    for l in (1, 2, 5, 11):
        want3 = (l + 1) * (l + 2) / (4 * math.pi ** 2)
        assert pair_strength(3, 1, l, l + 1) == pytest.approx(want3, rel=1e-11)
        want2 = (l + 1) / (4 * math.pi)
        assert pair_strength(2, 1, l, l + 1) == pytest.approx(want2, rel=1e-11)


def test_pair_strength_equals_zonal_m_sum():
    # dual route: sum over shared m-vectors of the reduced coupling squared,
    # weighted by how many chains share each leading entry
    for d, L in ((2, 2), (3, 2), (4, 1), (5, 2)):
        for l, lp in ((2, 2), (3, 5), (4, 4)):
            if (l + lp + L) % 2 or not abs(l - lp) <= L <= l + lp:
                continue
            acc = 0.0
            for m2 in range(0, min(l, lp) + 1):
                mult = degeneracy(d - 1, m2)
                acc += mult * zonal_coupling_w(d, L, l, lp, m2) ** 2
            assert pair_strength(d, L, l, lp) == pytest.approx(acc, rel=1e-10)


def test_pair_strength_selection_zeros_and_arrays():
    assert pair_strength(3, 2, 1, 2) == 0.0
    assert pair_strength(3, 2, 1, 5) == 0.0
    ls = np.arange(1, 8)
    got = pair_strength(3, 1, ls, ls + 1)
    want = (ls + 1) * (ls + 2) / (4 * math.pi ** 2)
    assert np.allclose(got, want, rtol=1e-11)

