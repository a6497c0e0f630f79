"""Gauss-Jacobi rule checks against analytic moments of (1-x^2)^alpha."""

import math
import warnings

import numpy as np
import pytest

from sphere_sumrules.errors import NonConvergenceError
from sphere_sumrules.harmonics import HarmonicIndex, coupling_W
from sphere_sumrules.quadrature import quadrature


def moment(alpha, k):
    # integral of x^(2k) (1-x^2)^alpha over [-1, 1]
    return math.gamma(k + 0.5) * math.gamma(alpha + 1.0) / \
        math.gamma(k + alpha + 1.5)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.5])
def test_even_moments(alpha):
    rule = quadrature(alpha, 8)
    for k in range(6):
        got = rule.integrate(rule.nodes ** (2 * k))
        assert got == pytest.approx(moment(alpha, k), rel=1e-13)


def test_odd_moments_vanish():
    rule = quadrature(1.5, 10)
    for k in (1, 3, 7):
        assert abs(rule.integrate(rule.nodes ** k)) < 1e-14


def test_total_weight_matches_beta_function():
    for alpha in (0.0, 0.5, 1.0, 3.0):
        want = math.sqrt(math.pi) * math.gamma(alpha + 1.0) / \
            math.gamma(alpha + 1.5)
        rule = quadrature(alpha, 6)
        assert rule.weights.sum() == pytest.approx(want, rel=1e-13)


def test_degree_exactness_boundary():
    # a 3-point rule is exact through degree 5, not degree 6
    rule = quadrature(0.0, 3)
    assert rule.integrate(rule.nodes ** 4) == pytest.approx(moment(0.0, 2), rel=1e-13)
    assert abs(rule.integrate(rule.nodes ** 6) - moment(0.0, 3)) > 1e-3


def test_nodes_inside_interval_and_sorted():
    rule = quadrature(0.5, 40)
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
    assert np.all(rule.weights > 0)


def test_node_arrays_are_cached():
    assert quadrature(1.0, 12).nodes is quadrature(1.0, 12).nodes


def test_rejects_bad_arguments():
    from sphere_sumrules.errors import ValidationError
    with pytest.raises(ValidationError):
        quadrature(0.5, 0)
    with pytest.raises(ValidationError):
        quadrature(-1.0, 4)


def test_failed_node_solve_raises_typed_error_before_any_warning():
    # scipy's node solve returns NaN for this rule, with RuntimeWarnings
    # on the way that once escaped ahead of the typed error; a degree-800
    # coupling on S^2 asks for it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError):
            quadrature(400.0, 404)
        with pytest.raises(NonConvergenceError):
            coupling_W(HarmonicIndex(2, 800, (0,)),
                       HarmonicIndex(2, 400, (-400,)),
                       HarmonicIndex(2, 400, (400,)))
