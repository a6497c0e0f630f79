"""Hyperspherical harmonics on the unit d-sphere and their couplings.

Everything basis-level lives here: eigenvalues l(l+d-1) and degeneracies of
the Laplace-Beltrami operator, sphere volumes, Gegenbauer evaluation, the
explicit harmonic representation

    Y_{l,m}(Omega) = phase * N_{l,m} e^{i m_d phi}
                     prod_k (sin theta_k)^{m_{k+1}} C^{lambda_k}_{n_k}(cos theta_k)

with n_k = m_k - m_{k+1} and lambda_k = m_{k+1} + (d-k)/2 (|m_d| at the last
level), and the triple-product coupling coefficients

    W(i1, i2, i3) = int Y*_{i1} Y_{i2} Y_{i3} dOmega,

which generalize the Wigner 3j symbols.  The generic coupling integral
factorizes angle by angle, so each level is one exact Gauss-Jacobi
quadrature of a product of three Gegenbauer polynomials.

For densities that depend only on the polar angle the couplings collapse to
a reduced form w_L(l, l', m2) that depends on the shared m-vector only
through its leading entry.  These zonal couplings need no quadrature: in
the orthonormal Gegenbauer basis of order m2 + (d-1)/2 they are the entries
of C_L^((d-1)/2)(J) for the tridiagonal Jacobi matrix J, built band by band
for a whole grid of m2 at once (`zonal_band_diagonals`).  That reduction,
and the fully m-summed pair strength S_L(l, l') (a Gegenbauer
product-linearization identity, smooth in continuous l), are what make the
infinite degree sums in the sum-rule engine tractable.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import ValidationError
from .quadrature import quadrature

__all__ = [
    "HarmonicIndex", "degeneracy", "eigenvalue", "sphere_volume",
    "gegenbauer", "gegenbauer_all", "gegenbauer_at_one", "log_gegenbauer_at_one",
    "eval_harmonic", "coupling_W", "zonal_coupling_w", "zonal_band_diagonals",
    "addition_eval", "pair_strength", "log_degeneracy", "enumerate_m",
]

# ----------------------------------------------------------------------
# scalar basis data


def sphere_volume(d):
    """Surface volume of the unit d-sphere, 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def eigenvalue(d, ell):
    """Laplace-Beltrami eigenvalue l(l+d-1)."""
    return ell * (ell + d - 1)


def degeneracy(d, ell):
    """Exact integer multiplicity of degree ell on S^d (d >= 1)."""
    if ell < 0:
        raise ValidationError("degree must be non-negative, got %r" % (ell,))
    if ell == 0:
        return 1
    if d == 1:
        return 2
    return math.comb(ell + d - 1, ell) + math.comb(ell + d - 2, ell - 1)


def log_degeneracy(d, ell):
    """log of the degeneracy, valid for continuous ell > 0 (tail analysis)."""
    ell = np.asarray(ell, dtype=float)
    return _log_degeneracy(d, ell, *_lgamma(np.stack([ell + d - 1, ell + 1])))


def _log_degeneracy(d, ell, lg_top, lg_ell):
    """log_degeneracy from lgamma(ell + d - 1) and lgamma(ell + 1)."""
    return np.log(2 * ell + d - 1) + lg_top - lg_ell - math.lgamma(d)


def _lgamma(x):
    """math.lgamma elementwise, called once per distinct value of x.

    Degree grids repeat most of their arguments, so gathering from the
    distinct values costs far less than a call per element; the values are
    math.lgamma's own.
    """
    x = np.asarray(x, dtype=float)
    distinct, inverse = np.unique(x, return_inverse=True)
    values = np.fromiter(map(math.lgamma, distinct), dtype=float,
                         count=distinct.size)
    return values[inverse.ravel()].reshape(x.shape)


# ----------------------------------------------------------------------
# Gegenbauer polynomials


def gegenbauer(alpha, n, x):
    """C_n^alpha(x), row n of `gegenbauer_all` (alpha > -1/2)."""
    if n < 0:
        raise ValidationError("Gegenbauer degree must be >= 0, got %r" % (n,))
    if not alpha > -0.5:
        raise ValidationError("Gegenbauer order must exceed -1/2, got %r" % (alpha,))
    c = gegenbauer_all(alpha, n, x)[n]
    return c if c.ndim else float(c)


def gegenbauer_all(alpha, nmax, x):
    """C_0^alpha .. C_nmax^alpha at x by the three-term recurrence, stacked
    into an array of shape (nmax + 1,) + shape(x)."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 2.0 * alpha * x
    for k in range(2, nmax + 1):
        out[k] = (2.0 * (k + alpha - 1.0) * x * out[k - 1]
                  - (k + 2.0 * alpha - 2.0) * out[k - 2]) / k
    return out


def log_gegenbauer_at_one(alpha, n):
    """log C_n^alpha(1) = log [Gamma(n+2a) / (n! Gamma(2a))], continuous n."""
    n = np.asarray(n, dtype=float)
    return _log_gegenbauer_at_one(alpha,
                                  *_lgamma(np.stack([n + 2 * alpha, n + 1])))


def _log_gegenbauer_at_one(alpha, lg_top, lg_n):
    """log_gegenbauer_at_one from lgamma(n + 2 alpha) and lgamma(n + 1)."""
    return lg_top - lg_n - math.lgamma(2 * alpha)


def gegenbauer_at_one(alpha, n):
    """C_n^alpha(1), the maximum of |C_n^alpha| on [-1, 1] for alpha > 0."""
    return float(np.exp(log_gegenbauer_at_one(alpha, n)))


# ----------------------------------------------------------------------
# harmonic indices


@dataclass(frozen=True, order=True)
class HarmonicIndex:
    """Quantum numbers (d; ell; m2, ..., m_d) of one hyperspherical harmonic.

    The admissible chains satisfy ell >= m2 >= ... >= m_{d-1} >= |m_d| with
    every entry integral.  For d = 2 the m-vector has the single signed
    entry m_d.
    """

    d: int
    ell: int
    m: tuple = ()

    def __post_init__(self):
        if self.d < 2:
            raise ValidationError("harmonic index needs d >= 2, got %r" % (self.d,))
        if self.ell < 0:
            raise ValidationError("degree must be >= 0, got %r" % (self.ell,))
        m = tuple(int(v) for v in self.m)
        object.__setattr__(self, "m", m)
        if len(m) != self.d - 1:
            raise ValidationError(
                "m-vector for d=%d must have %d entries, got %r"
                % (self.d, self.d - 1, m))
        chain = (self.ell,) + m[:-1] + (abs(m[-1]),)
        for a, b in zip(chain, chain[1:]):
            if a < b:
                raise ValidationError("index ordering violated: %r" % (self,))

    @property
    def m_d(self):
        return self.m[-1]

    def quantum(self, k):
        """m_k for k = 1..d (m_1 = ell)."""
        return self.ell if k == 1 else self.m[k - 2]

    def conjugate_partner(self):
        """Index paired under complex conjugation (m_d sign flipped)."""
        return HarmonicIndex(self.d, self.ell, self.m[:-1] + (-self.m[-1],))

    def conjugate_phase(self):
        """Sign s with conj(Y_self) = s * Y_partner, i.e. (-1)^(m_d)."""
        return -1.0 if self.m_d % 2 else 1.0


def enumerate_m(d, ell):
    """All admissible m-vectors for degree ell on S^d, lexicographic order."""
    def rec(bound, slots):
        if slots == 1:
            for md in range(-bound, bound + 1):
                yield (md,)
            return
        for m in range(0, bound + 1):
            for rest in rec(m, slots - 1):
                yield (m,) + rest
    return list(rec(ell, d - 1))


# ----------------------------------------------------------------------
# normalization and point evaluation


def _log_h(n, lam):
    """log of h(n, lam) = int (1-x^2)^(lam-1/2) C_n^lam(x)^2 dx."""
    return (math.log(math.pi) + (1.0 - 2.0 * lam) * math.log(2.0)
            + math.lgamma(n + 2.0 * lam) - math.lgamma(n + 1.0)
            - math.log(n + lam) - 2.0 * math.lgamma(lam))


def _levels(idx):
    """Per-angle data (n_k, lambda_k, sine exponent) for k = 1..d-1."""
    d = idx.d
    out = []
    for k in range(1, d):
        mk = idx.quantum(k) if k > 1 else idx.ell
        mk1 = idx.quantum(k + 1)
        if k + 1 == d:
            mk1 = abs(mk1)
        out.append((mk - mk1, mk1 + (d - k) / 2.0, mk1))
    return out


def _log_norm(idx):
    """log of the normalization constant N_{l,m}."""
    acc = math.log(2.0 * math.pi)
    for n_k, lam_k, _ in _levels(idx):
        acc += _log_h(n_k, lam_k)
    return -0.5 * acc


def _phase(idx):
    """(-1)^((m_d + |m_d|)/2): -1 exactly for positive odd m_d."""
    md = idx.m_d
    return -1.0 if (md > 0 and md % 2 == 1) else 1.0


def eval_harmonic(idx, omega):
    """Value of Y_idx at omega = (theta_1, ..., theta_{d-1}, phi).

    theta_k in [0, pi], phi in [0, 2 pi).  Scalar angles give a complex;
    angle arrays of equal shape give a complex array of that shape, one
    value per point.  The zonal harmonics (m = 0) are real.
    """
    if len(omega) != idx.d:
        raise ValidationError(
            "omega for d=%d needs %d angles, got %d" % (idx.d, idx.d, len(omega)))
    thetas, phi = omega[:-1], omega[-1]
    value = _phase(idx) * math.exp(_log_norm(idx))
    for theta, (n_k, lam_k, sin_pow) in zip(thetas, _levels(idx)):
        value = value * (np.sin(theta) ** sin_pow
                         * gegenbauer(lam_k, n_k, np.cos(theta)))
    value = value * (np.cos(idx.m_d * phi) + 1j * np.sin(idx.m_d * phi))
    return value if np.ndim(value) else complex(value)


# ----------------------------------------------------------------------
# addition theorem


def addition_eval(d, ell, cosgamma):
    """sum_m Y_{l,m}(O) Y*_{l,m}(O') = (g_l/Vol) C_l^a(cos g)/C_l^a(1), a=(d-1)/2."""
    alpha = (d - 1) / 2.0
    ratio = gegenbauer(alpha, ell, cosgamma) / gegenbauer_at_one(alpha, ell)
    return degeneracy(d, ell) / sphere_volume(d) * ratio


# ----------------------------------------------------------------------
# generic triple-product coupling


def _selection_mask(ell1, md1, ell2, md2, i3):
    """Whether W(i1, i2, i3) passes the azimuthal, triangle and parity rules,
    from the first two slots' ell and m_d (integers or integer arrays)."""
    return ((md1 == md2 + i3.m_d)
            & (np.abs(ell1 - ell2) <= i3.ell) & (i3.ell <= ell1 + ell2)
            & ((ell1 + ell2 + i3.ell) % 2 == 0))


def _index_data(idx):
    """(phase, log N, per-level data) of one index: all a coupling reads."""
    return _phase(idx), _log_norm(idx), tuple(_levels(idx))


def _level_integral(d, k, levels):
    """Gauss-Jacobi integral of the three level-k Gegenbauer factors
    (n_k, lambda_k, sine exponent), k counted from 0, against their
    combined sine weight."""
    sin_pow = sum(lv[2] for lv in levels)
    weight_exp = (sin_pow + d - k - 2) / 2.0
    rule = quadrature(weight_exp, sum(lv[0] for lv in levels) // 2 + 4)
    integrand = np.ones_like(rule.nodes)
    for n_k, lam_k, _ in levels:
        integrand = integrand * gegenbauer(lam_k, n_k, rule.nodes)
    return rule.integrate(integrand)


def _coupling(data, integrals):
    """W from the three slots' `_index_data`, selection rules assumed.

    The integral factorizes into d-1 one-dimensional Gauss-Jacobi
    quadratures, exact for the polynomial part.  integrals maps
    (k, level-k data of the three slots) to that level's integral; callers
    evaluating many couplings share one dict, so each distinct level
    integral is taken once.
    """
    (p1, n1, lv1), (p2, n2, lv2), (p3, n3, lv3) = data
    value = p1 * p2 * p3 * math.exp(n1 + n2 + n3) * 2.0 * math.pi
    d = len(lv1) + 1
    for key in enumerate(zip(lv1, lv2, lv3)):
        if key not in integrals:
            integrals[key] = _level_integral(d, *key)
        value *= integrals[key]
    return value


def coupling_W(i1, i2, i3):
    """W = int Y*_{i1} Y_{i2} Y_{i3} dOmega (first slot conjugated).

    Zero is returned immediately when the azimuthal rule
    m_d(i1) = m_d(i2) + m_d(i3), the triangle rule, or the parity rule
    fails.  Otherwise the integral factorizes into d-1 one-dimensional
    Gauss-Jacobi quadratures that are exact for the polynomial part.
    """
    if not (i1.d == i2.d == i3.d):
        raise ValidationError("coupling of mixed dimensions: %d/%d/%d"
                              % (i1.d, i2.d, i3.d))
    if not _selection_mask(i1.ell, i1.m_d, i2.ell, i2.m_d, i3):
        return 0.0
    return _coupling([_index_data(i) for i in (i1, i2, i3)], {})


# ----------------------------------------------------------------------
# reduced zonal couplings


@lru_cache(maxsize=None)
def _log_zonal_norm(d, L):
    """log of [Vol(S^{d-1}) h(L, (d-1)/2)]^(-1/2), the zonal normalization."""
    vol_sub = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return -0.5 * (math.log(vol_sub) + _log_h(L, (d - 1) / 2.0))


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


def zonal_band_diagonals(d, L, m2, size):
    """Upper diagonals of the reduced couplings w_L on an (m2, n) grid.

    In the orthonormal basis C_n^lam / sqrt(h(n, lam)) of the weight
    (1-x^2)^(lam-1/2), lam = m2 + (d-1)/2, multiplication by x is the
    tridiagonal Jacobi matrix J_lam with zero diagonal and off-diagonals

        b_n = sqrt(n (n + 2 lam - 1) / (4 (n + lam) (n + lam - 1))),

    so the polar integral behind w_L is an entry of C_L^alpha(J_lam),
    alpha = (d-1)/2 (Golub & Welsch 1969).  The Gegenbauer three-term
    recurrence runs on the diagonals of J_lam truncated to size + L rows;
    a path of L steps between rows below `size` never reaches the cut, so
    every returned entry is exact and no quadrature is involved.

    m2 is a sequence of leading entries.  Returns D of shape
    (L + 1, len(m2), size) with D[o, r, n] = w_L(l, l + o, m2[r]) at
    l = m2[r] + n; offsets o of the wrong parity hold zeros.
    """
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


def zonal_coupling_w(d, L, l1, l2, m2):
    """Reduced coupling W(i1, i2, (L, 0)) for indices sharing an m-vector.

    For a zonal third slot the coupling depends on the shared m-vector only
    through its leading entry m2; the deeper-angle factors integrate to the
    squared norms and cancel against the normalizations.  What remains is a
    single polar integral of three Gegenbauer polynomials of order
    lam = m2 + (d-1)/2, (d-1)/2 against the weight (1-x^2)^(lam-1/2), read
    off the Jacobi matrix by `zonal_band_diagonals`.
    """
    if min(l1, l2) < m2 or m2 < 0:
        return 0.0
    if (l1 + l2 + L) % 2 != 0 or not abs(l1 - l2) <= L <= l1 + l2:
        return 0.0
    lo, hi = sorted((l1, l2))
    diag = zonal_band_diagonals(d, L, [m2], hi - m2 + 1)
    return float(diag[hi - lo, 0, lo - m2])


# ----------------------------------------------------------------------
# m-summed pair strength


def _pair_strength_raw(d, L, l, lp):
    """The smooth log-space pair-strength formula, no lattice rule checks.

    Valid wherever every log-gamma argument is positive, in particular for
    continuous degrees away from the small-l triangle boundary.
    """
    alpha = (d - 1) / 2.0
    l = np.asarray(l, dtype=float)
    lp = np.asarray(lp, dtype=float)
    k = (l + lp - L) / 2.0
    sigma = (l + lp + L) / 2.0
    # every log-gamma argument of the formula, the degeneracies' and the
    # Gegenbauer norms' included, in one pass: the grid's rows share most
    # of their values
    args = np.broadcast_arrays(
        k + 1, l - k + 1, lp - k + 1, alpha + k, alpha + l - k,
        alpha + lp - k, 2 * alpha + sigma, alpha + sigma,
        l + d - 1, l + 1, lp + d - 1, lp + 1, l + 2 * alpha, lp + 2 * alpha)
    (g_k, g_lk, g_lpk, g_ak, g_alk, g_alpk, g_as2, g_as,
     g_dl, g_l, g_dlp, g_lp, g_cl, g_clp) = _lgamma(np.stack(args))
    log_a = (np.log(L + alpha) - np.log(sigma + alpha) + math.lgamma(L + 1)
             - g_k - g_lk - g_lpk + g_ak + g_alk + g_alpk
             - 2.0 * math.lgamma(alpha) + g_as2 - g_as
             - math.lgamma(2 * alpha + L))
    log_s = (_log_degeneracy(d, l, g_dl, g_l)
             + _log_degeneracy(d, lp, g_dlp, g_lp)
             - math.log(sphere_volume(d))
             + _log_gegenbauer_at_one(alpha, math.lgamma(L + 2 * alpha),
                                      math.lgamma(L + 1))
             - math.log(degeneracy(d, L))
             + log_a - _log_gegenbauer_at_one(alpha, g_cl, g_l)
             - _log_gegenbauer_at_one(alpha, g_clp, g_lp))
    return np.exp(log_s)


def pair_strength(d, L, l, lp):
    """S_L(l, l') = sum over m, m' of |W(l,m; l',m'; L,M)|^2 (any fixed M).

    Equals (g_l g_l' / Vol) * (C_L^a(1)/g_L) * A_L(l,l') / (C_l^a(1) C_l'^a(1))
    with a = (d-1)/2 and A_L the Gegenbauer product-linearization
    coefficient of C_L^a in C_l^a C_l'^a (Dougall's expansion).  Zero when
    the triangle or parity rule fails.  Accepts array-valued integer l with
    lp = l + const.
    """
    l = np.asarray(l)
    lp_arr = np.broadcast_to(np.asarray(lp), l.shape) if l.ndim \
        else np.asarray(lp)
    scalar = l.ndim == 0
    l = np.atleast_1d(l).astype(float)
    lp_arr = np.atleast_1d(lp_arr).astype(float)
    ok = ((np.rint(l + lp_arr + L).astype(int) % 2 == 0)
          & (np.abs(l - lp_arr) <= L) & (L <= l + lp_arr)
          & (l >= 0) & (lp_arr >= 0))
    out = np.zeros_like(l)
    if np.any(ok):
        out[ok] = _pair_strength_raw(d, L, l[ok], lp_arr[ok])
    return float(out[0]) if scalar else out


def pair_strength_offset(d, L, delta):
    """Smooth callable f(l) = S_L(l, l + delta) for tail acceleration.

    Returns None when the offset pattern itself is excluded (parity or
    |delta| > L); otherwise f is valid for continuous l large enough that
    the triangle rule holds with slack.
    """
    if abs(delta) > L or (L + delta) % 2 != 0:
        return None
    return lambda l: _pair_strength_raw(d, L, np.asarray(l, dtype=float),
                                        np.asarray(l, dtype=float) + delta)
