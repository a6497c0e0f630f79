"""Euler-Maclaurin acceleration for slowly convergent spectral sums.

Several of the degree sums in this package decay only like l^-2, so direct
summation to a tolerance of 1e-10 is hopeless.  Every such sum here has a
summand that extends to a smooth function of a continuous degree variable,
which makes Euler-Maclaurin ideal: sum the first terms directly, then close
the tail with

    sum_{l>=a} f(l) = int_a^inf f + f(a)/2 - f'(a)/12 + f'''(a)/720 - ...

The integral is mapped to (0, 1] by l = a/t and done with Gauss-Legendre;
the derivatives use five-point central differences (f is cheap and smooth).

A tail is split into its points and its values: `tail_points(a)` gives the
degrees at which it needs f (the Gauss-Legendre nodes a/t, then the five
stencil degrees) and `tail_from_values` closes the tail from f at those
degrees.  A caller can so evaluate f once over the direct degrees and the
tail points together, or the tails of several summands in one pass.
"""

import numpy as np

from .errors import DivergentSumError

__all__ = ["accelerated_sum"]

# Gauss-Legendre size of the tail integral, and the step of the
# finite-difference derivatives at the start degree.
_GL_NODES = 120
_STEP = 0.5

# the Gauss-Legendre rule, mapped from [-1, 1] to [0, 1]
_T, _W = np.polynomial.legendre.leggauss(_GL_NODES)
_T, _W = 0.5 * (_T + 1.0), 0.5 * _W


def tail_points(start):
    """The degrees at which the tail from start needs its summand: the
    Gauss-Legendre nodes start/t of the integral, then the difference
    stencil start + (-2, -1, 0, 1, 2) * step."""
    a = float(start)
    h = _STEP
    return np.concatenate([a / _T, [a - 2 * h, a - h, a, a + h, a + 2 * h]])


def tail_from_values(values, start):
    """Euler-Maclaurin value of sum_{l=start}^inf f(l) from values, f at
    `tail_points(start)`.

    Returns (value, error_estimate) where the estimate is the magnitude of
    the last Euler-Maclaurin correction kept (a practical, not rigorous,
    gauge of the truncation level).
    """
    a = float(start)
    h = _STEP
    # int_a^inf f(l) dl via the substitution l = a/t, t in (0, 1]
    vals = values[:_GL_NODES] * a / (_T * _T)
    if not np.all(np.isfinite(vals)):
        raise DivergentSumError("tail integrand not finite; sum likely divergent")
    integral = float(np.dot(_W, vals))
    stencil = values[_GL_NODES:]
    fa = float(stencil[2])
    d1 = float(stencil[0] - 8 * stencil[1] + 8 * stencil[3] - stencil[4]) / (12 * h)
    d3 = float(-stencil[0] + 2 * stencil[1] - 2 * stencil[3] + stencil[4]) / (2 * h ** 3)
    correction = -d1 / 12.0 + d3 / 720.0
    value = integral + 0.5 * fa + correction
    return value, abs(d3) / 720.0


def accelerated_sum(f, first, switch=200):
    """sum_{l=first}^inf f(l): direct terms up to switch, then the tail,
    f evaluated once over both (switch = first sums the tail alone).

    f must accept numpy arrays of (possibly non-integer) degrees and decay
    at least like l^-2; switch should sit past any small-degree structure.
    Returns (value, error_estimate) as `tail_from_values`.
    """
    switch = max(int(switch), int(first))
    n = switch - int(first)
    values = f(np.concatenate([np.arange(first, switch, dtype=float),
                               tail_points(switch)]))
    tail, err = tail_from_values(values[n:], switch)
    return float(np.sum(values[:n])) + tail, err
