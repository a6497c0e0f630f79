"""Euler-Maclaurin tail summation against exact zeta-function tails."""

import math
from unittest import mock

import numpy as np
import pytest
from scipy.special import zeta

from sphere_sumrules.errors import DivergentSumError
from sphere_sumrules.tails import accelerated_sum


def test_inverse_square_tail():
    # sum_{l>=30} 1/l^2 = zeta(2) - sum_{l<30}; the Euler-Maclaurin series
    # is truncated after the f''' term, so accuracy is ~1e-11 at this start
    want = float(zeta(2, 30))
    value, err = accelerated_sum(lambda l: l ** -2.0, 30, switch=30)
    assert value == pytest.approx(want, abs=1e-10)
    assert abs(value - want) <= 10 * err


def test_inverse_cube_tail():
    want = float(zeta(3, 25))
    value, err = accelerated_sum(lambda l: l ** -3.0, 25, switch=25)
    assert value == pytest.approx(want, abs=1e-10)
    assert abs(value - want) <= 10 * err


def test_accelerated_sum_matches_zeta():
    # with the default switch=200 the truncated series is deep enough for
    # the engine's working tolerance of 1e-10
    for s in (2.0, 2.5, 4.0):
        value, _ = accelerated_sum(lambda l: l ** -s, 1, switch=200)
        assert value == pytest.approx(float(zeta(s, 1)), rel=1e-10)


def test_accelerated_sum_with_oscillation_free_prefactor():
    # sum l(l+2)^-3 style summand typical of degree sums
    f = lambda l: (2 * l + 1) / (l * (l + 1)) ** 2
    # exact: sum (2l+1)/(l(l+1))^2 = sum [1/l^2 - 1/(l+1)^2] telescopes to 1
    value, _ = accelerated_sum(f, 1, switch=300)
    assert value == pytest.approx(1.0, rel=1e-11)


def test_switch_below_first_is_clamped():
    a, _ = accelerated_sum(lambda l: l ** -4.0, 50, switch=10)
    assert a == pytest.approx(float(zeta(4, 50)), rel=1e-11)


def test_non_finite_integrand_is_refused():
    with pytest.raises(DivergentSumError):
        with np.errstate(over="ignore"):
            accelerated_sum(lambda l: np.exp(l), 10, switch=10)


def test_error_estimate_tracks_truncation():
    # the reported estimate should bound the actual miss within a couple
    # of orders of magnitude for a clean power law
    want = float(zeta(2, 40))
    value, err = accelerated_sum(lambda l: l ** -2.0, 40, switch=40)
    assert abs(value - want) <= max(100 * err, 1e-13)


def test_each_tail_evaluates_its_summand_once():
    f = mock.Mock(side_effect=lambda l: l ** -2.0)
    accelerated_sum(f, 30, switch=30)
    assert f.call_count == 1
    f.reset_mock()
    accelerated_sum(f, 1, switch=200)
    assert f.call_count == 1
    f.reset_mock()
    # a switch clamped to first leaves no direct term
    accelerated_sum(f, 50, switch=10)
    assert f.call_count == 1
