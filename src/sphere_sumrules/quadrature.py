"""Gauss-Jacobi quadrature with the symmetric weight (1-x^2)^alpha.

All angular integrals on the sphere reduce, level by level, to 1D integrals
of a polynomial against (1-x^2)^alpha on [-1, 1].  A Gauss-Jacobi rule with
n points integrates such integrands exactly for polynomial degree up to
2n - 1, so every coupling integral in this package is exact up to roundoff.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import ValidationError, NonConvergenceError

__all__ = ["QuadratureRule", "quadrature"]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for integrating f(x) (1-x^2)^alpha over [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    alpha: float

    def integrate(self, values):
        """Integral of f against the weight, given f sampled on the nodes."""
        return float(np.dot(self.weights, values))


@lru_cache(maxsize=4096)
def _cached_rule(alpha, npoints):
    """Nodes and weights, checked once per rule.  A failed check raises and
    is not cached, so every lookup of a bad rule raises again."""
    # a failed solve shows as non-finite output, checked below; scipy's
    # warnings on the way there would only precede that error
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        x, w = roots_jacobi(npoints, alpha, alpha)
    x, w = np.asarray(x), np.asarray(w)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w)) and np.all(w > 0)):
        raise NonConvergenceError(
            "Gauss-Jacobi node solve failed for alpha=%g, n=%d" % (alpha, npoints)
        )
    return x, w


def quadrature(alpha, npoints):
    """Gauss-Jacobi rule for the both-sided weight (1-x^2)^alpha.

    Parameters
    ----------
    alpha : float, > -1.  Jacobi exponent (half-integers welcome).
    npoints : int, >= 1.

    Returns
    -------
    QuadratureRule, exact for polynomial degree up to 2*npoints - 1.
    """
    if npoints < 1:
        raise ValidationError("quadrature needs npoints >= 1, got %r" % (npoints,))
    if not alpha > -1:
        raise ValidationError("Jacobi exponent must exceed -1, got %r" % (alpha,))
    x, w = _cached_rule(float(alpha), int(npoints))
    return QuadratureRule(nodes=x, weights=w, alpha=float(alpha))
