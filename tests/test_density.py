"""Density container: constructors, reality/positivity guards, views."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sphere_sumrules.density import (DensitySpec, _angles_from_vector,
                                     kappa_bound)
from sphere_sumrules import harmonics
from sphere_sumrules.errors import MAX_ELL_CUT, ValidationError
from sphere_sumrules.harmonics import (HarmonicIndex, degeneracy,
                                       enumerate_m, eval_harmonic,
                                       sphere_volume)


def test_kappa_bound_values():
    # sqrt(Vol/(d+1)); on S^3 this is pi/sqrt(2)
    assert kappa_bound(3) == pytest.approx(math.pi / math.sqrt(2), rel=1e-14)
    for d in (2, 3, 4, 5):
        want = math.sqrt(sphere_volume(d) / (d + 1))
        assert kappa_bound(d) == pytest.approx(want, rel=1e-14)


def test_uniform_density():
    den = DensitySpec.uniform(3)
    assert den.entries == ()
    assert den.is_zonal
    assert den.ell_max == 0
    assert den.rho_by_degree() == {}
    assert den.evaluate((0.3, 1.0, 2.0)) == pytest.approx(1.0)


def test_tilted_density_basic():
    den = DensitySpec.tilted(3, 1.0)
    assert den.is_zonal
    assert den.ell_max == 1
    assert den.rho_by_degree() == pytest.approx({1: 1.0})
    assert den.zonal_coeffs() == pytest.approx({1: 1.0})
    # along the pole Y_{1,0} = sqrt((d+1)/Vol) cos(theta)
    scale = math.sqrt(4 / sphere_volume(3))
    assert den.evaluate((0.4, 0.2, 0.0)) == pytest.approx(
        1.0 + scale * math.cos(0.4), rel=1e-12)


def test_tilted_equals_degree_one_zonal():
    assert DensitySpec.tilted(3, 1.0) == DensitySpec.zonal(3, {1: 1.0})


def test_tilted_zero_is_uniform():
    assert DensitySpec.tilted(4, 0.0).entries == ()


def test_tilted_positivity_bound_enforced():
    for d in (2, 3, 4, 5):
        bound = kappa_bound(d)
        DensitySpec.tilted(d, 0.999 * bound)
        with pytest.raises(ValidationError):
            DensitySpec.tilted(d, bound)
        with pytest.raises(ValidationError):
            DensitySpec.tilted(d, -1.001 * bound)


def test_zonal_constructor_dict_and_list():
    a = DensitySpec.zonal(3, {1: 0.3, 2: 0.1})
    b = DensitySpec.zonal(3, [0.3, 0.1])
    assert a.entries == b.entries
    assert a.zonal_coeffs() == pytest.approx({1: 0.3, 2: 0.1})
    with pytest.raises(ValidationError):
        DensitySpec.zonal(3, {0: 0.5})


@pytest.mark.parametrize("coeffs", [{1.5: 0.1}, {"2": 0.1}, {1: 0.1, "a": 0.1},
                                    {True: 0.1}, {math.nan: 0.1}])
def test_zonal_degree_must_be_an_integer(coeffs):
    with pytest.raises(ValidationError, match="zonal degree"):
        DensitySpec.zonal(3, coeffs)


@pytest.mark.parametrize("L", [MAX_ELL_CUT + 1, 10 ** 7, 1e300])
def test_zonal_degree_above_the_ceiling_is_rejected_before_sampling(L):
    # the positivity sample at degree 10**7 ran past 10 s
    with mock.patch.object(harmonics, "gegenbauer",
                           side_effect=AssertionError("sampled")):
        with pytest.raises(ValidationError, match="ceiling"):
            DensitySpec.zonal(3, {L: 1e-9})
        with pytest.raises(ValidationError, match="ceiling"):
            DensitySpec.from_coeffs(3, [((3, L, (0, 0)), 1e-9)])


def test_integral_float_zonal_degree_is_the_integer_degree():
    assert DensitySpec.zonal(3, {2.0: 0.1}) == DensitySpec.zonal(3, {2: 0.1})


@pytest.mark.parametrize("c", ["a", None, [0.1], object()])
def test_non_numeric_coefficient_names_its_index(c):
    with pytest.raises(ValidationError, match=r"ell=1, m=\(0, 0\)"):
        DensitySpec.zonal(3, {1: c})
    with pytest.raises(ValidationError, match=r"ell=2, m=\(0, 0\)"):
        DensitySpec.from_coeffs(3, {HarmonicIndex(3, 2, (0, 0)): c})
    with pytest.raises(ValidationError, match="must be a number"):
        DensitySpec.zonal(3, [0.1, c])


def test_general_constructor_and_reality_guard():
    i_plus = HarmonicIndex(3, 1, (1, 1))
    i_minus = HarmonicIndex(3, 1, (1, -1))
    c = 0.2 + 0.1j
    # conj(Y_{1,(1,1)}) = -Y_{1,(1,-1)}, so the partner carries -conj(c)
    den = DensitySpec.from_coeffs(3, {i_plus: c, i_minus: -c.conjugate()})
    assert not den.is_zonal
    assert den.ell_max == 1
    assert den.rho_by_degree()[1] == pytest.approx(2 * abs(c) ** 2)
    with pytest.raises(ValidationError):
        DensitySpec.from_coeffs(3, {i_plus: c, i_minus: c.conjugate()})
    with pytest.raises(ValidationError):
        DensitySpec.from_coeffs(3, {i_plus: c})


def test_non_zonal_density_evaluates_real():
    i_plus = HarmonicIndex(3, 2, (1, 1))
    i_minus = HarmonicIndex(3, 2, (1, -1))
    c = 0.15 - 0.05j
    den = DensitySpec.from_coeffs(3, {i_plus: c, i_minus: -c.conjugate()})
    rng = np.random.default_rng(2)
    for _ in range(5):
        omega = tuple(rng.uniform(0.1, math.pi - 0.1, size=2)) + (
            float(rng.uniform(0, 2 * math.pi)),)
        val = den.evaluate(omega)
        assert isinstance(val, float)
    with pytest.raises(ValidationError):
        den.zonal_coeffs()


def test_degree_zero_coefficient_rejected():
    idx = HarmonicIndex(3, 0, (0, 0))
    with pytest.raises(ValidationError):
        DensitySpec.from_coeffs(3, {idx: 0.5})


def test_duplicate_coefficient_rejected():
    idx = HarmonicIndex(3, 1, (0, 0))
    with pytest.raises(ValidationError):
        DensitySpec(d=3, entries=((idx, 0.1), (idx, 0.2)))


def test_mixed_dimension_rejected():
    idx = HarmonicIndex(2, 1, (0,))
    with pytest.raises(ValidationError):
        DensitySpec.from_coeffs(3, {idx: 0.1})


def test_positivity_guard_on_zonal_profile():
    # a large degree-2 zonal coefficient drives Sigma negative at the
    # equator: min Sigma = 1 - c sqrt(9/Vol)/3, zero near c = 4.44 on S^3
    with pytest.raises(ValidationError):
        DensitySpec.zonal(3, {2: 5.0})
    DensitySpec.zonal(3, {2: 4.0})


def test_high_degree_positivity_check_keeps_two_rows():
    # the zonal profile's Gegenbauer values once came from a table of every
    # row up to the degree: 32.9 MB at degree 2000
    tracemalloc.start()
    try:
        DensitySpec.zonal(3, {2000: 1e-6})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_zero_coefficients_are_dropped():
    idx = HarmonicIndex(3, 1, (0, 0))
    den = DensitySpec.from_coeffs(3, {idx: 0.0})
    assert den.entries == ()
    assert den.is_zonal


def test_entries_sorted_by_degree():
    den = DensitySpec.zonal(4, {3: 0.05, 1: 0.2, 2: 0.1})
    assert [idx.ell for idx, _ in den.entries] == [1, 2, 3]


def test_evaluate_matches_harmonic_sum():
    den = DensitySpec.zonal(4, {1: 0.4, 3: 0.1})
    omega = (0.8, 1.2, 0.5, 3.0)
    want = 1.0
    for idx, c in den.entries:
        want += (c * eval_harmonic(idx, omega)).real
    assert den.evaluate(omega) == pytest.approx(want, rel=1e-12)


def _rotated_tilt(d, kappa, axis):
    """1 + kappa Y_{1,0} turned so that its pole points along the unit axis.

    Degree-1 harmonics are the coordinates x_1..x_{d+1} times
    sqrt((d+1)/Vol): m = (1,..,1,0,..,0) with j-1 ones is x_j for j < d,
    and m = (1,..,1,+-1) are -+(x_d +- i x_{d+1}) / sqrt(2).
    """
    entries = [(HarmonicIndex(d, 1, [1] * (j - 1) + [0] * (d - j)),
                kappa * axis[j - 1]) for j in range(1, d)]
    entries.append((HarmonicIndex(d, 1, [1] * (d - 1)),
                    -kappa * complex(axis[d - 1], -axis[d]) / math.sqrt(2.0)))
    entries.append((HarmonicIndex(d, 1, [1] * (d - 2) + [-1]),
                    kappa * complex(axis[d - 1], axis[d]) / math.sqrt(2.0)))
    return entries


_AXES = {3: (0.3, -0.5, 0.6, 0.55), 4: (-0.2, 0.4, 0.1, -0.7, 0.5)}


@pytest.mark.parametrize("d", [3, 4])
def test_rotated_tilt_past_bound_is_rejected(d):
    axis = np.array(_AXES[d]) / np.linalg.norm(_AXES[d])
    with pytest.raises(ValidationError, match="not positive"):
        DensitySpec.from_coeffs(d, _rotated_tilt(d, 1.2 * kappa_bound(d),
                                                 axis))


@pytest.mark.parametrize("d", [3, 4])
def test_rotated_tilt_inside_bound_is_accepted(d):
    axis = np.array(_AXES[d]) / np.linalg.norm(_AXES[d])
    den = DensitySpec.from_coeffs(d, _rotated_tilt(d, 0.9 * kappa_bound(d),
                                                   axis))
    assert not den.is_zonal
    # at the bound's scale Sigma = 1 + 0.9 cos(angle to the axis): 0.1 at
    # the antipode
    assert den.evaluate(_angles_from_vector(-axis)) == pytest.approx(
        0.1, abs=1e-12)


def test_complex_value_guard_applies_per_point():
    # a coefficient without its conjugate partner makes Sigma complex
    # wherever Y_{1,(1,1)} is nonzero; with the reality check bypassed the
    # sampled positivity check still refuses it
    idx = HarmonicIndex(3, 1, (1, 1))
    with mock.patch.object(DensitySpec, "_check_reality"):
        with pytest.raises(ValidationError, match="complex value"):
            DensitySpec.from_coeffs(3, {idx: 0.2})


def _scalar_angles(u):
    """Reference hyperspherical angles of one unit vector, point by point."""
    angles = []
    rest = 1.0
    for comp in u[:-2]:
        c = min(1.0, max(-1.0, comp / rest)) if rest > 1e-12 else 1.0
        angles.append(math.acos(c))
        rest = max(rest * math.sin(angles[-1]), 1e-300)
    angles.append(math.atan2(u[-1], u[-2]) % (2 * math.pi))
    return tuple(angles)


@st.composite
def non_zonal_densities(draw):
    """Conjugate-symmetric non-zonal density with degrees <= 3 on S^2..S^5.

    |Y_{L,m}| <= sqrt(g_L / Vol) (addition theorem), so keeping
    sum |c| sqrt(g_L / Vol) at 0.9 keeps Sigma >= 0.1.
    """
    d = draw(st.integers(2, 5))
    picks = draw(st.lists(
        st.integers(1, 3).flatmap(lambda L: st.tuples(
            st.just(L), st.sampled_from(enumerate_m(d, L)))),
        min_size=1, max_size=4))
    if not any(any(m) for _, m in picks):
        picks.append((1, tuple(enumerate_m(d, 1)[-1])))
    raw = {}
    for L, m in picks:
        idx = HarmonicIndex(d, L, m)
        partner = idx.conjugate_partner()
        c = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 1.0))
        if partner != idx:
            phase = draw(st.floats(0.0, 2 * math.pi))
            c *= complex(math.cos(phase), math.sin(phase))
        raw[idx] = c
        raw[partner] = idx.conjugate_phase() * c.conjugate()
    vol = sphere_volume(d)
    reach = sum(abs(c) * math.sqrt(degeneracy(d, idx.ell) / vol)
                for idx, c in raw.items())
    return DensitySpec.from_coeffs(d, {idx: 0.9 * c / reach
                                       for idx, c in raw.items()})


@given(den=non_zonal_densities(), seed=st.integers(0, 2 ** 32 - 1))
def test_array_evaluate_matches_per_point_values(den, seed):
    assert not den.is_zonal
    pts = np.random.default_rng(seed).standard_normal((40, den.d + 1))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pole = np.eye(den.d + 1)[0]
    pts = np.vstack([pts, pole, -pole])
    angles = _angles_from_vector(pts)
    want_angles = np.array([_scalar_angles(u) for u in pts]).T
    np.testing.assert_allclose(angles, want_angles, rtol=1e-13, atol=1e-14)
    got = den.evaluate(angles)
    assert got.shape == (len(pts),)
    want = [den.evaluate(tuple(a)) for a in want_angles.T]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)


def test_scalar_angles_give_python_scalars():
    den = DensitySpec.from_coeffs(3, _rotated_tilt(
        3, 1.0, np.array(_AXES[3]) / np.linalg.norm(_AXES[3])))
    omega = (0.8, 1.2, 0.5)
    assert type(den.evaluate(omega)) is float
    assert type(DensitySpec.uniform(3).evaluate(omega)) is float
    for idx, _ in den.entries:
        assert type(eval_harmonic(idx, omega)) is complex
    grid = tuple(np.full((2, 3), a) for a in omega)
    assert den.evaluate(grid).shape == (2, 3)
    assert np.all(den.evaluate(grid) == den.evaluate(omega))
