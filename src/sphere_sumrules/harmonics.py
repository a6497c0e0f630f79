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
for a whole grid of m2 at once, every degree of a density read off one
recurrence that holds only the nonzero bands (`_zonal_bands`);
`zonal_coupling_w` reads a single entry off it.  That reduction, and the
fully m-summed pair strength S_L(l, l') (a Gegenbauer product-linearization
identity, smooth in continuous l), are what make the infinite degree sums
in the sum-rule engine tractable.  Every degree factor of those sums (the
pair strength, the degeneracy of a continuous degree, C_n^a(1)) is a ratio
of products of linear factors in the degree, taken as rising factorials
(`_rising`).
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
import math

import numpy as np

from .errors import MAX_ELL_CUT, ValidationError, check_integer, integral
from .quadrature import quadrature

__all__ = [
    "HarmonicIndex", "degeneracy", "eigenvalue", "sphere_volume",
    "gegenbauer", "gegenbauer_all", "gegenbauer_at_one",
    "eval_harmonic", "coupling_W", "zonal_coupling_w", "addition_eval",
    "pair_strength", "enumerate_m",
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


def _degeneracy_at(d, ell):
    """The degeneracy as a polynomial in ell, (2 ell + d - 1) (ell + 1)_{d-2}
    / (d - 1)!, for continuous degrees ell >= 0 and d >= 2, as the degree
    sums' tails need it."""
    ell = np.asarray(ell, dtype=float)
    return (2 * ell + d - 1) * _rising(ell + 1, d - 2) / math.factorial(d - 1)


def _rising(x, n, y=None):
    """The rising factorial (x)_n = x (x+1) ... (x+n-1) elementwise, or with
    y the ratio (x)_n / (y)_n taken factor by factor, which stays finite
    where the two products would overflow."""
    x = np.asarray(x, dtype=float)
    out = np.ones(np.broadcast(x, y).shape)
    for j in range(n):
        out *= (x + j) if y is None else (x + j) / (y + j)
    return out


# ----------------------------------------------------------------------
# Gegenbauer polynomials


def _gegenbauer_rows(alpha, x, live):
    """C_0^alpha, C_1^alpha, ... at the 1-D array x by the three-term
    recurrence, one row per entry of live: row k covers the first live[k]
    entries of x, live never increasing.

    alpha is a scalar or an array aligned with x; every entry runs the same
    floating-point sequence as a scalar-alpha call on it alone.
    """
    a = alpha
    row = prev = None
    for k, m in enumerate(live):
        if np.ndim(alpha):
            a = alpha[:m]
        if k == 0:
            row = np.ones(m)
        elif k == 1:
            row, prev = 2.0 * a * x[:m], row[:m]
        else:
            row, prev = (2.0 * (k + a - 1.0) * x[:m] * row[:m]
                         - (k + 2.0 * a - 2.0) * prev[:m]) / k, row[:m]
        yield row


def gegenbauer(alpha, n, x):
    """C_n^alpha(x), row n of `gegenbauer_all` (alpha > -1/2)."""
    n = check_integer(n, "Gegenbauer degree", most=None)
    if not alpha > -0.5:
        raise ValidationError("Gegenbauer order must exceed -1/2, got %r" % (alpha,))
    x = np.asarray(x, dtype=float)
    for c in _gegenbauer_rows(alpha, x.ravel(), repeat(x.size, n + 1)):
        pass
    return c.reshape(x.shape) if x.ndim else float(c[0])


def gegenbauer_all(alpha, nmax, x):
    """C_0^alpha .. C_nmax^alpha at x (scalar alpha) by the three-term
    recurrence, stacked into an array of shape (nmax + 1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size))
    for k, row in enumerate(_gegenbauer_rows(alpha, x.ravel(),
                                             repeat(x.size, nmax + 1))):
        out[k] = row
    return out.reshape((nmax + 1,) + x.shape)


def gegenbauer_at_one(alpha, n):
    """C_n^alpha(1) = (2 alpha)_n / n!, the maximum of |C_n^alpha| on [-1, 1]
    for alpha > 0.

    Each factor of a product adds its rounding, so where 2 alpha = m + 1 is
    a positive integer (every order (d-1)/2 of the d-sphere) the value is
    taken as (n+1)_m / m!, m factors rather than n.
    """
    n = check_integer(n, "Gegenbauer degree", most=None)
    m = 2 * alpha - 1
    if m >= 0 and float(m).is_integer():
        return float(_rising(n + 1, int(m)) / math.factorial(int(m)))
    return float(_rising(2 * alpha, n, 1.0))


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
        if type(self.ell) is not int or not 0 <= self.ell <= MAX_ELL_CUT:
            object.__setattr__(self, "ell", check_integer(self.ell, "degree"))
        m = tuple(v if type(v) is int else integral(v) for v in self.m)
        if None in m:
            raise ValidationError("m entries must be integers: %r" % (self.m,))
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


def _slots(indices):
    """(chains, phases, log norms) of a sequence of indices: all a coupling
    reads of its slots, one row per index.  A chain is
    (ell, m2, ..., m_{d-1}, |m_d|), so level k's data is (m_k, m_{k+1})."""
    chains = np.array([(h.ell,) + h.m[:-1] + (abs(h.m_d),) for h in indices],
                      dtype=np.int64)
    phases = np.array([_phase(h) for h in indices], dtype=float)
    log_norms = np.array([_log_norm(h) for h in indices], dtype=float)
    return chains, phases, log_norms


def _couplings(slot1, slot2, slot3):
    """W for triples that pass the selection rules, row h of each slot's
    `_slots` data being triple h (at least one).

    The integral factorizes into d-1 one-dimensional Gauss-Jacobi
    quadratures, exact for the polynomial part:
    W = phases exp(log norms) 2 pi I_0 I_1 ... I_{d-2}, multiplied in that
    order.  Level k's integral depends on the slots' (m_k, m_{k+1}) alone,
    so each distinct one is taken once per call (`_level_integrals`).
    """
    chains = np.stack([slot1[0], slot2[0], slot3[0]])
    _, rows, d = chains.shape
    # math.exp: np.exp differs from it in the last bit on some arguments
    exps = np.fromiter(map(math.exp, (slot1[2] + slot2[2] + slot3[2]).tolist()),
                       dtype=float, count=rows)
    value = slot1[1] * slot2[1] * slot3[1] * exps * 2.0 * math.pi
    # one key (k, m_k of the slots, m_{k+1} of the slots) per row and level
    level = np.broadcast_to(np.arange(d - 1), (1, rows, d - 1))
    keys = np.concatenate([level, chains[:, :, :-1], chains[:, :, 1:]])
    keys, inverse = _unique_rows(keys.reshape(7, -1).T)
    integrals = _level_integrals(d, keys)[inverse.reshape(rows, -1)]
    for k in range(d - 1):
        value = value * integrals[:, k]
    return value


def _unique_rows(rows):
    """The distinct rows of a non-negative integer array, in lexicographic
    order, and, per row, the position of its own among them.

    np.unique(rows, axis=0) sorts the rows as opaque records, which is
    slow; here the columns are folded into one int64 code per row (mixed
    radix, re-ranked whenever the next column would overflow it).
    """
    code = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        base = int(col.max()) + 1
        if (int(code.max()) + 1) * base > 1 << 62:
            code = np.unique(code, return_inverse=True)[1]
        code = code * base + col
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    return rows[first], inverse


def _ranges(starts, lengths):
    """The ranges start .. start + length - 1, concatenated."""
    total = int(lengths.sum())
    return np.repeat(starts - np.cumsum(lengths) + lengths,
                     lengths) + np.arange(total)


def _level_integrals(d, keys):
    """Level integrals for rows (k, top1, top2, top3, below1, below2,
    below3) of slot data (m_k, m_{k+1}), k counted from 0.

    Each is the Gauss-Jacobi integral of g1 g2 g3, g_s = C_{n_s}^{lam_s}
    with n_s = top_s - below_s and lam_s = below_s + (d-k-1)/2, against
    (1-x^2)^((below1 + below2 + below3 + d-k-2)/2) with
    (n1 + n2 + n3) // 2 + 4 points.  Each distinct factor (lam, rule, n)
    is read off one recurrence over the nodes of all factors, taken in
    descending degree so that the factors still climbing at step k are a
    prefix of them; no row past a factor's own degree is formed.
    """
    k, top, below = keys[:, 0], keys[:, 1:4].T, keys[:, 4:].T
    n = top - below
    rules, rule_of = _unique_rows(
        np.stack([below.sum(0) + d - k - 2, n.sum(0) // 2 + 4], axis=1))
    quad = [quadrature(w2 / 2.0, q) for w2, q in rules.tolist()]
    npts = rules[rule_of, 1]
    offsets = np.cumsum(npts) - npts
    # one factor per distinct (n, 2 lam, rule), in descending n
    top_n = int(n.max())
    factors, factor_of = _unique_rows(np.stack(
        [(top_n - n).ravel(), (2 * below + d - k - 1).ravel(),
         np.tile(rule_of, 3)], 1))
    factor_of = factor_of.reshape(3, -1)
    degree, fpts = top_n - factors[:, 0], rules[factors[:, 2], 1]
    # factor f's nodes start at start[f]; live[j] counts those of the
    # factors of degree >= j
    start = np.concatenate([[0], np.cumsum(fpts)])
    live = start[np.searchsorted(-degree, -np.arange(top_n + 2),
                                side="right")].tolist()
    values = np.empty(start[-1])
    for j, row in enumerate(_gegenbauer_rows(
            np.repeat(factors[:, 1] / 2.0, fpts),
            np.concatenate([quad[r].nodes for r in factors[:, 2].tolist()]),
            live[:-1])):
        values[live[j + 1]:live[j]] = row[live[j + 1]:]
    g1, g2, g3 = (values[_ranges(start[slot], npts)] for slot in factor_of)
    integrand = g1 * g2 * g3
    # one dot product per integral: a matrix-vector product over the rows
    # of a rule rounds differently in the last bit on many of them
    return np.array([quad[r].integrate(integrand[a:a + q]) for r, a, q in
                     zip(rule_of.tolist(), offsets.tolist(), npts.tolist())])


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
    return float(_couplings(*(_slots([i]) for i in (i1, i2, i3)))[0])


# ----------------------------------------------------------------------
# reduced zonal couplings


@lru_cache(maxsize=None)
def _log_zonal_norm(d, L):
    """log of [Vol(S^{d-1}) h(L, (d-1)/2)]^(-1/2), the zonal normalization."""
    return -0.5 * (math.log(sphere_volume(d - 1)) + _log_h(L, (d - 1) / 2.0))


def _jacobi_step(c, b, k, cols):
    """The offsets of parity k of J c, on the first cols columns, for c the
    offsets of parity k - 1 of a symmetric banded matrix that commutes
    with J.

    Row i of either array holds offset k % 2 + 2 i of its own parity, its
    column n the entry (n, n + offset); b[:, n] = J[n-1, n].  An entry of
    J c takes J[n, n-1] c[n-1, n+o] from offset o + 1 and J[n, n+1]
    c[n+1, n+o] from offset o - 1 (c[n, n+1] by symmetry when o = 0);
    the other parity's offsets, and offsets past c's top, are zero and
    are not added.
    """
    out = np.empty((k // 2 + 1,) + c.shape[1:-1] + (cols,))
    below, above = b[:, 1:cols], b[:, 1:cols + 1]
    if k % 2:
        np.multiply(above, c[:, :, 1:cols + 1], out=out)
    else:
        np.multiply(above, c[0, :, :cols], out=out[0])
        np.multiply(above, c[:, :, 1:cols + 1], out=out[1:])
    out[:-1, :, 1:] += below * c[k % 2:, :, :cols - 1]
    return out


def _zonal_bands(d, degrees, m2, size):
    """Upper diagonals of the reduced couplings w_L of every degree in
    degrees on an (m2, n) grid, from one Gegenbauer recurrence.

    Returns {L: D_L} with D_L of shape (L // 2 + 1, len(m2), size),
    D_L[i, r, n] = w_L(l, l + o, m2[r]) at l = m2[r] + n and offset
    o = L % 2 + 2 i; the offsets of the other parity are zero and not
    held.

    In the orthonormal basis C_n^lam / sqrt(h(n, lam)) of the weight
    (1-x^2)^(lam-1/2), lam = m2 + (d-1)/2, multiplication by x is the
    tridiagonal Jacobi matrix J_lam with zero diagonal and off-diagonals

        b_n = sqrt(n (n + 2 lam - 1) / (4 (n + lam) (n + lam - 1))),

    so the polar integral behind w_L is an entry of C_L^alpha(J_lam),
    alpha = (d-1)/2 (Golub & Welsch 1969), and needs no quadrature.  The
    recurrence C_k = (2 (k + alpha - 1) J C_{k-1}
    - (k + 2 alpha - 2) C_{k-2}) / k runs once, to the top degree, on the
    diagonals of J_lam, keeping at step k the offsets of k's parity alone;
    C_L for each degree is read off on the way, scaled to w_L.  Step k
    keeps the first size + top - k columns, all that the later steps read
    below column size, so no returned entry meets a truncation edge: each
    is exact, and bitwise the same whichever other degrees share the
    recurrence.  No degrees give an empty dict.
    """
    degrees = set(degrees)
    if not degrees:
        return {}
    top = max(degrees)
    lam = np.asarray(m2, dtype=float).reshape(-1, 1) + (d - 1) / 2.0
    alpha = (d - 1) / 2.0
    rows = size + top
    n = np.arange(1, rows, dtype=float)
    b = np.zeros((lam.shape[0], rows))
    nl = n + lam
    b[:, 1:] = np.sqrt(n * (n + 2.0 * lam - 1.0) / (4.0 * nl * (nl - 1.0)))
    c_prev, c = None, np.ones((1, lam.shape[0], rows))
    bands = {}
    for k in range(top + 1):
        if k == 1:  # C_1 = 2 alpha J: offset 1 alone, the off-diagonals b
            c, c_prev = (2.0 * alpha) * b[None, :, 1:], c
        elif k:
            cols = rows - k
            step = _jacobi_step(c, b, k, cols)
            step *= 2.0 * (k + alpha - 1.0)
            if k > 1:
                step[:-1] -= (k + 2.0 * alpha - 2.0) * c_prev[:, :, :cols]
            step /= k
            c, c_prev = step, c
        if k in degrees:
            bands[k] = math.exp(_log_zonal_norm(d, k)) * c[:, :, :size]
    return bands


def zonal_coupling_w(d, L, l1, l2, m2):
    """Reduced coupling W(i1, i2, (L, 0)) for indices sharing an m-vector.

    For a zonal third slot the coupling depends on the shared m-vector only
    through its leading entry m2; the deeper-angle factors integrate to the
    squared norms and cancel against the normalizations.  What remains is a
    single polar integral of three Gegenbauer polynomials of order
    lam = m2 + (d-1)/2, (d-1)/2 against the weight (1-x^2)^(lam-1/2), read
    off the Jacobi matrix by `_zonal_bands`.
    """
    if min(l1, l2) < m2 or m2 < 0:
        return 0.0
    if (l1 + l2 + L) % 2 != 0 or not abs(l1 - l2) <= L <= l1 + l2:
        return 0.0
    lo, hi = sorted((l1, l2))
    band = _zonal_bands(d, [L], [m2], hi - m2 + 1)[L]
    return float(band[(hi - lo) // 2, 0, lo - m2])


# ----------------------------------------------------------------------
# m-summed pair strength


def _pair_strength_raw(d, L, l, lp):
    """The smooth pair-strength formula, no lattice rule checks.

    With a = (d-1)/2, k = (l + l' - L)/2 and b = l' - k, Dougall's
    coefficient reduces to rising factorials,

        S_L(l, l') = P_b (2l+d-1) (2l'+d-1) (k+1)_{d-2+L} / ((k+L+a) (a+k)_L),

    where P_b = (L+a) [(a)_{L-b}/(L-b)!] [(a)_b/b!] / ((d-2)! (d-1)^2 g_L Vol)
    depends on the offset l' - l = 2b - L alone.  Valid for continuous
    k >= 0 and integer offsets |l' - l| <= L of the parity of L.
    """
    alpha = (d - 1) / 2.0
    l = np.asarray(l, dtype=float)
    lp = np.asarray(lp, dtype=float)
    k = (l + lp - L) / 2.0
    # (a)_j / j! for j = 0..L, factor by factor as _rising takes it
    half = np.cumprod(np.append(1.0, (alpha + np.arange(L))
                                / np.arange(1, L + 1)))
    scale = (L + alpha) / (math.factorial(d - 2) * (d - 1) ** 2
                           * degeneracy(d, L) * sphere_volume(d))
    prefactor = scale * half[::-1] * half
    b = np.rint(lp - k).astype(int)
    # (k+1)_{d-2+L} / (a+k)_L as L ratios, then (k+L+1)_{d-2}
    return (prefactor[b] * (2 * l + d - 1) * (2 * lp + d - 1)
            * _rising(k + 1, L, alpha + k) * _rising(k + L + 1, d - 2)
            / (k + L + alpha))


def _lattice_allowed(L, l, lp):
    """Where S_L(l, l') can be nonzero: l, l' >= 0 and the parity and
    triangle rules hold, for float degree arrays l and lp."""
    return ((np.rint(l + lp + L).astype(int) % 2 == 0)
            & (np.abs(l - lp) <= L) & (L <= l + lp)
            & (l >= 0) & (lp >= 0))


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
    ok = _lattice_allowed(L, l, lp_arr)
    out = np.zeros_like(l)
    if np.any(ok):
        out[ok] = _pair_strength_raw(d, L, l[ok], lp_arr[ok])
    return float(out[0]) if scalar else out
