"""Iterated Green's functions of the Laplacian on S^d.

G^(d,q) is the kernel of the (q+1)-th power of the inverse Laplacian with
the zero mode projected out; it depends only on the geodesic angle and has
the degree expansion

    G^(d,q)(cos t) = (1/Vol) sum_{l>=1} g_l C_l(cos t)/C_l(1) / lambda_l^(q+1).

This module evaluates that sum directly (with a rigorous tail bound where
the |C_l(x)| <= C_l(1) envelope converges, and optional Abel regularization
where it converges only conditionally), and the closed forms in elementary
functions and polylogarithms for d = 2, 3, 4 and q <= 2.  The two routes
validate each other and the shifted kernel's gamma-expansion; the sum-rule
engine itself never consumes these kernels pointwise.
"""

from dataclasses import dataclass
import math

import numpy as np
from mpmath import fp
from scipy import special

from . import harmonics, tails
from .errors import (DivergentSumError, ValidationError, check_dimension,
                     check_gamma, check_integer)

__all__ = ["GreenOrder", "green_closed_form", "green_spectral",
           "dilog", "trilog"]

ZETA3 = float(special.zeta(3.0))


def dilog(z):
    """Li_2(z) for real z <= 1."""
    return float(special.spence(1.0 - z))


def trilog(z):
    """Li_3(z) for real z <= 1."""
    return float(fp.polylog(3, z))


@dataclass(frozen=True)
class GreenOrder:
    """Which kernel: dimension d, iteration order q, optional shift gamma."""

    d: int
    q: int
    gamma: float = None

    def __post_init__(self):
        object.__setattr__(self, "d", check_dimension(self.d))
        object.__setattr__(self, "q", check_integer(self.q, "kernel order q",
                                                    most=None))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", check_gamma(self.gamma))


def _term_decay_exponent(d, q):
    """Power-law exponent of the oscillatory terms, g_l C-ratio / lambda^(q+1)."""
    return (d - 1) - (d - 1) / 2.0 - 2.0 * (q + 1)


def _envelope_tail_bound(d, q, gamma, cut):
    """Bound on the dropped terms using |C_l(x)| <= C_l(1).

    For a decreasing positive envelope f, the tail past cut is at most
    f(cut+1) + integral of f from cut+1; infinite when the envelope sum
    itself diverges.
    """
    if (d - 1) - 2 * (q + 1) >= -1:
        return math.inf
    vol = harmonics.sphere_volume(d)
    shift = gamma or 0.0

    def f(l):
        return (harmonics._degeneracy_at(d, l)
                / (l * (l + d - 1) + shift) ** (q + 1) / vol)

    value, err = tails.accelerated_sum(f, cut + 1, switch=cut + 1)
    return float(value + abs(err) + f(cut + 1.0))


def _spectral_terms(d, q, gamma, cosgamma, ell_cut):
    x = float(cosgamma)
    if not -1.0 <= x <= 1.0:
        raise ValidationError("cos of the geodesic angle must be in [-1, 1], "
                              "got %r" % (cosgamma,))
    alpha = (d - 1) / 2.0
    ls = np.arange(1, ell_cut + 1, dtype=float)
    # g_l / C_l^alpha(1) = (2l + d - 1) / (d - 1)
    weights = harmonics.gegenbauer_all(alpha, ell_cut, x)[1:] \
        * (2 * ls + d - 1) / (d - 1)
    lam = ls * (ls + d - 1) + (gamma or 0.0)
    return weights / lam ** (q + 1) / harmonics.sphere_volume(d)


def green_spectral(order, cosgamma, ell_cut=2000, regularize=False):
    """Degree-sum evaluation of G^(d,q) at cos of the geodesic angle.

    Returns {"value", "tail_bound"}.  With a shift the zero-mode term
    1/(gamma^(q+1) Vol) is included explicitly.  Configurations whose terms
    do not decay absolutely are refused unless shifted or regularize=True,
    in which case Abel summation (r^l damping, Richardson-extrapolated
    r -> 1) supplies the value and a heuristic accuracy figure.
    """
    if not isinstance(order, GreenOrder):
        order = GreenOrder(*order)
    d, q, gamma = order.d, order.q, order.gamma
    ell_cut = check_integer(ell_cut, "ell_cut", least=8)
    absolutely = _term_decay_exponent(d, q) < -1.0
    if not absolutely and gamma is None and not regularize:
        raise DivergentSumError(
            "the degree sum for (d=%d, q=%d) does not converge absolutely; "
            "pass a shift gamma or regularize=True" % (d, q))
    terms = _spectral_terms(d, q, gamma, cosgamma, ell_cut)
    zero_mode = 0.0
    if gamma is not None:
        zero_mode = 1.0 / (gamma ** (q + 1) * harmonics.sphere_volume(d))
    if absolutely or gamma is not None and not regularize:
        return {"value": zero_mode + float(terms.sum()),
                "tail_bound": _envelope_tail_bound(d, q, gamma, ell_cut)}
    # Abel summation: damp by r^l, extrapolate r -> 1 through second order.
    rs = np.array([0.95, 0.97, 0.99])
    ls = np.arange(1, ell_cut + 1, dtype=float)
    sums = np.array([float(np.sum(terms * r ** ls)) for r in rs])
    eps = 1.0 - rs
    vand = np.vander(eps, 3, increasing=True)
    coeffs = np.linalg.solve(vand, sums)
    two_point = np.linalg.solve(np.vander(eps[1:], 2, increasing=True),
                                sums[1:])
    value = zero_mode + float(coeffs[0])
    return {"value": value,
            "tail_bound": abs(float(coeffs[0] - two_point[0])) + 1e-12}


# ----------------------------------------------------------------------
# closed forms, d = 2, 3, 4, order 0..2


def _closed_2(q, t):
    s2 = math.sin(t / 2.0) ** 2
    c2 = math.cos(t / 2.0) ** 2
    if q == 0:
        return -(math.log(s2) + 1.0) / (4.0 * math.pi)
    if q == 1:
        return (-6.0 * dilog(c2) + math.pi ** 2 - 6.0) / (24.0 * math.pi)
    return (-12.0 * trilog(s2) - 6.0 * dilog(c2)
            + 6.0 * math.log(s2) * dilog(s2)
            + 12.0 * ZETA3 + math.pi ** 2 - 12.0) / (24.0 * math.pi)


def _closed_3(q, t):
    pi = math.pi
    if q == 0:
        return (2.0 * (pi - t) / math.tan(t) - 1.0) / (8.0 * pi ** 2)
    if q == 1:
        return -(6.0 * t * t - 12.0 * pi * t + 4.0 * pi ** 2 + 3.0) \
            / (96.0 * pi ** 2)
    return (-3.0 * (t * t + 1.0) + 6.0 * pi * t
            + 2.0 * (t - 2.0 * pi) * (t - pi) * t / math.tan(t)
            - 2.0 * pi ** 2) / (192.0 * pi ** 2)


def _closed_4(q, t):
    pi = math.pi
    c = math.cos(t)
    ls = math.log(math.sin(t / 2.0))
    if q == 0:
        return (-7.0 * c - 6.0 * (c - 1.0) * ls + 4.0) \
            / (24.0 * pi ** 2 * (c - 1.0))
    c2 = math.cos(t / 2.0) ** 2
    s2 = math.sin(t / 2.0) ** 2
    if q == 1:
        return ((3.0 * pi ** 2 - 2.0) * (c + 1.0)
                + 36.0 * (2.0 * c + 1.0) * ls
                - 18.0 * (c + 1.0) * dilog(c2)) \
            / (432.0 * pi ** 2 * (c + 1.0))
    return (9.0 * pi ** 2 / s2 + 144.0 * ls - 72.0 * ls / (c + 1.0)
            - 216.0 * trilog(s2)
            + 36.0 * (3.0 / (c - 1.0) + 5.0) * dilog(c2)
            + 216.0 * ls * dilog(s2) + 216.0 * ZETA3
            - 30.0 * pi ** 2 - 8.0) / (7776.0 * pi ** 2)


def green_closed_form(d, q, theta):
    """Elementary/polylog form of G^(d,q) at geodesic angle theta.

    Available for d in {2, 3, 4} and q in {0, 1, 2}; the stored expansions
    are coefficients of gamma^q of the shifted kernel, so the kernel value
    carries the alternating sign (-1)^q.
    """
    if d not in (2, 3, 4) or q not in (0, 1, 2):
        raise ValidationError(
            "closed forms cover d in {2,3,4} and q in {0,1,2}, got d=%r q=%r"
            % (d, q))
    theta = float(theta)
    if not 0.0 < theta <= math.pi:
        raise ValidationError(
            "theta must lie in (0, pi]; the kernel is singular at the "
            "coincidence point theta=0 (got %r)" % (theta,))
    coeff = {2: _closed_2, 3: _closed_3, 4: _closed_4}[d](q, theta)
    return (-1.0) ** q * coeff
