"""Reference values computed apart from the program under test.

Everything here is built from scipy's special functions and LAPACK and
from the definitions in the paper, never from `sphere_sumrules`:

* the Rayleigh-Ritz spectrum of a zonal density, one block per leading
  m-entry m2, with the overlap integrated by a Gauss-Jacobi rule from
  `scipy.special.roots_jacobi` and the polar functions from the
  orthonormal three-term recurrence of the Gegenbauer weight, normalized
  again numerically on the rule;
* the Weyl (counting-law) tail, with the integral of Sigma^{d/2} done by
  its own polar quadrature;
* the round-sphere constants zeta^{(d)}(p) in closed form and the basis
  counts as plain sums of degeneracies.
"""

import math

import numpy as np
from scipy import linalg, special

# Z_p of the round sphere (kappa = 0 of the paper's tilt formulas).
UNIFORM_Z = {
    (3, 2): 1.0 / 16.0 + math.pi ** 2 / 12.0,
    (3, 3): (2.0 * math.pi ** 2 - 3.0) / 96.0,
    (4, 3): 23.0 / 1458.0 + 2.0 * float(special.zeta(3.0)) / 27.0,
    (5, 3): (15.0 + 152.0 * math.pi ** 2) / 18432.0,
}


def sphere_volume(d):
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def degeneracy(d, ell):
    """Dimension of the degree-ell harmonics on S^d, C(l+d,d) - C(l+d-2,d)."""
    return math.comb(ell + d, d) - math.comb(ell + d - 2, d)


def basis_size(d, ell_max):
    return sum(degeneracy(d, ell) for ell in range(ell_max + 1))


def zonal_profile(d, coeffs, x):
    """Sigma(x) = 1 + sum_L c_L Y_{L,0}(x) on x = cos(theta_1)."""
    alpha = (d - 1) / 2.0
    vol = sphere_volume(d)
    out = np.ones_like(np.asarray(x, dtype=float))
    for L, c in coeffs.items():
        scale = math.sqrt(degeneracy(d, L) / vol)
        out = out + c * scale * (special.eval_gegenbauer(L, alpha, x)
                                 / special.eval_gegenbauer(L, alpha, 1.0))
    return out


def orthonormal_rows(size, lam, x):
    """Degrees 0..size-1 of the polynomials orthonormal against
    (1-x^2)^(lam-1/2), up to one common factor, at the points x.

    p_{k+1} = (x p_k - b_k p_{k-1}) / b_{k+1} with
    b_k^2 = k (k+2lam-1) / (4 (k+lam) (k+lam-1)) (DLMF 18.9.1 made
    orthonormal).  The values stay of order one at any degree, unlike
    C_k^lam, and the cost is one vector operation per degree, unlike
    `scipy.special.eval_gegenbauer`, whose cost grows with the degree.
    """
    k = np.arange(1, size, dtype=float)
    b = np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1)))
    rows = np.empty((size, len(x)))
    rows[0] = 1.0
    if size > 1:
        rows[1] = x / b[0]
    for j in range(2, size):
        rows[j] = (x * rows[j - 1] - b[j - 2] * rows[j - 2]) / b[j - 1]
    return rows


def zonal_spectrum(d, coeffs, ell_max):
    """Rayleigh-Ritz eigenvalues of -Delta psi = E Sigma psi, zonal Sigma.

    Returns (values, multiplicities), ascending.  Block m2 spans the
    degrees m2..ell_max; its polar functions are Gegenbauer polynomials of
    order m2 + (d-1)/2, orthonormal against (1-x^2)^(m2 + (d-2)/2).
    """
    top = max(coeffs, default=0)
    vals, mults = [], []
    for m2 in range(ell_max + 1):
        lam = m2 + (d - 1) / 2.0
        size = ell_max - m2 + 1
        x, w = special.roots_jacobi(size + top // 2 + 2, lam - 0.5, lam - 0.5)
        poly = orthonormal_rows(size, lam, x)
        poly /= np.sqrt((poly * poly) @ w)[:, None]
        overlap = (poly * (w * zonal_profile(d, coeffs, x))) @ poly.T
        ls = np.arange(m2, ell_max + 1, dtype=float)
        block = linalg.eigh(np.diag(ls * (ls + d - 1.0)), overlap,
                            eigvals_only=True)
        vals.extend(block)
        mults.extend([degeneracy(d - 1, m2)] * size)
    order = np.argsort(vals, kind="stable")
    return np.asarray(vals)[order], np.asarray(mults)[order]


def lowest_sum(values, mults, p, count=None):
    """sum of 1/E^p over the lowest `count` nonzero levels (all if None).

    values ascending with multiplicities; the first entry, the zero mode,
    is skipped.
    """
    values, mults = np.asarray(values[1:], float), np.asarray(mults[1:])
    if count is not None:
        before = np.cumsum(mults) - mults
        mults = np.clip(count - before, 0, mults)
    return float(np.sum(mults * values ** -float(p)))


def sigma_power_integral(d, coeffs):
    """integral over S^d of Sigma^{d/2}, by polar Gauss-Jacobi quadrature."""
    x, w = special.roots_jacobi(200, (d - 2) / 2.0, (d - 2) / 2.0)
    return float(w @ zonal_profile(d, coeffs, x) ** (d / 2.0)) * \
        sphere_volume(d - 1)


def weyl_tail(d, p, coeffs, first):
    """sum_{n >= first} 1/E_n^p with E_n = A n^{2/d} from the counting law."""
    counting = 1.0 / ((4.0 * math.pi) ** (d / 2.0) * math.gamma(1.0 + d / 2.0))
    prefactor = (counting * sigma_power_integral(d, coeffs)) ** (-2.0 / d)
    return prefactor ** (-float(p)) * float(special.zeta(2.0 * p / d, first))


def model_error(d, p, ell_max):
    """Error of the head/tail split on the round sphere, known exactly.

    The lowest half of the basis is summed over the exact levels
    l(l+d-1), the rest replaced by the Weyl tail of Sigma = 1.
    """
    keep = basis_size(d, ell_max) // 2
    ells = np.arange(ell_max + 1)
    head = lowest_sum(ells * (ells + d - 1.0),
                      [degeneracy(d, ell) for ell in ells], p, keep)
    return abs(UNIFORM_Z[(d, p)] - head - weyl_tail(d, p, {}, keep + 1))


def reference(d, p, coeffs, ell_max):
    """Variational bounds and the hybrid estimate of Z_p at one cutoff.

    Returns a dict with
    * lower: sum of 1/E^p over every nonzero variational level, a lower
      bound on Z_p by min-max (each variational level lies above the true
      one);
    * hybrid: the lowest half of those levels summed directly plus the
      Weyl tail from the next rank on;
    * model_error: `model_error(d, p, ell_max)`.
    """
    values, mults = zonal_spectrum(d, coeffs, ell_max)
    keep = basis_size(d, ell_max) // 2
    return {
        "lower": lowest_sum(values, mults, p),
        "hybrid": lowest_sum(values, mults, p, keep)
        + weyl_tail(d, p, coeffs, keep + 1),
        "model_error": model_error(d, p, ell_max),
    }
