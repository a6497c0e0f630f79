"""Density container: constructors, reality/positivity guards, views."""

import math

import numpy as np
import pytest

from sphere_sumrules.density import DensitySpec, kappa_bound
from sphere_sumrules.errors import ValidationError
from sphere_sumrules.harmonics import HarmonicIndex, sphere_volume


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


def test_zero_coefficients_are_dropped():
    idx = HarmonicIndex(3, 1, (0, 0))
    den = DensitySpec.from_coeffs(3, {idx: 0.0})
    assert den.entries == ()
    assert den.is_zonal


def test_entries_sorted_by_degree():
    den = DensitySpec.zonal(4, {3: 0.05, 1: 0.2, 2: 0.1})
    assert [idx.ell for idx, _ in den.entries] == [1, 2, 3]


def test_evaluate_matches_harmonic_sum():
    from sphere_sumrules.harmonics import eval_harmonic
    den = DensitySpec.zonal(4, {1: 0.4, 3: 0.1})
    omega = (0.8, 1.2, 0.5, 3.0)
    want = 1.0
    for idx, c in den.entries:
        want += (c * eval_harmonic(idx, omega)).real
    assert den.evaluate(omega) == pytest.approx(want, rel=1e-12)
