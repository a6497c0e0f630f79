"""Exact renormalized sum rules for -Laplace psi = E Sigma psi on S^d.

The eigenvalue problem with a positive density Sigma has a zero mode and a
divergent sum over 1/E_n unless renormalized; the quantities computed here
are the renormalized power sums over the nonzero spectrum,

    Z_p = sum_{n >= 1} 1 / E_n^p,        p = 2, 3,

obtained without ever diagonalizing anything.  Everything reduces to sums
in harmonic coefficient space:

* I-type integrals: chains c^H G^(q1+1) B G^(q2+1) ... B G^(qk+1) c of
  the density's coefficient vector c through its coupling matrix
  B = 1 + sigma and the inverse Laplacian G = 1/lambda, on the block that
  holds the zero mode (exact finite sums, no truncation);
* J-type traces: an infinite degree sum handled by closed-form pair
  strengths S_L(l, l') plus Euler-Maclaurin tail acceleration, and (for
  zonal densities with coupled degree triples) a triple trace, taken on
  every m2 block at once as chains of banded products D W D W D closed by
  the third degree's band;
* the zero-mode energy coefficients eps_1..eps_4 of the gamma-shifted
  problem, both in closed form and by an independent linear-algebra
  recursion;
* a shifted diagnostic Z_p(gamma) whose renormalized limit reproduces the
  exact sum rules as gamma -> 0+.

The uniform-density values ("zeta functions" of the round sphere) come
from the same tail-accelerated traces.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy import sparse, special

from . import harmonics, rayleigh_ritz, tails
from .density import DensitySpec, check_density, check_kappa, kappa_bound
from .errors import (MAX_BYTES as _CUBIC_MAX_BYTES, MAX_ELL_CUT,
                     CutoffTooSmallError, DivergentSumError,
                     UnsupportedDensityError, UnsupportedOrderError,
                     ValidationError, check_bytes, check_dimension,
                     check_gamma, check_integer, integral)

__all__ = [
    "DensitySpec", "EpsilonCoeffs", "MAX_ELL_CUT", "SumRuleResult",
    "closed_form_reference",
    "density_integrals", "epsilon_closed", "epsilon_recursive", "kappa_bound",
    "p_min", "sum_rule", "sum_rule_shifted", "zeta_uniform",
]

DEFAULT_ELL_CUT = 200

_ORDER_COUNT = {"I1": 1, "I2": 2, "I3": 3, "J1": 2, "J2": 3}


def p_min(d):
    """Smallest power with a convergent uniform-density sum, floor((d+2)/2)."""
    return (d + 2) // 2


def _check_convergent(d, power, what):
    """Raise DivergentSumError unless a degree sum over 1/lambda^power
    converges on S^d, that is power >= p_min(d)."""
    if power < p_min(d):
        raise DivergentSumError(
            "divergent %s for d=%d, p=%d: convergence needs p >= %d"
            % (what, d, power, p_min(d)))


def _check_ell_cut(ell_cut):
    """The cutoff as an int in [0, MAX_ELL_CUT], None kept."""
    return None if ell_cut is None else check_integer(ell_cut, "ell_cut")


def _switch(density, ell_cut):
    """Degree where the direct sums hand over to their Euler-Maclaurin tails:
    two past the density's top degree at least, so no tail stencil (two
    half-degree steps each way) reaches a band's l' = 0 row, where lambda = 0."""
    return max(DEFAULT_ELL_CUT, ell_cut or 0, density.ell_max + 2)


@dataclass(frozen=True)
class EpsilonCoeffs:
    """Taylor coefficients of the shifted zero-mode energy E0(gamma)."""

    eps: tuple


@dataclass(frozen=True)
class SumRuleResult:
    d: int
    p: int
    value: float
    trunc_error: float
    provenance: str
    ell_cut: int


# ----------------------------------------------------------------------
# uniform traces


def _spectral_trace(d, p, gamma=0.0, switch=DEFAULT_ELL_CUT):
    """sum_{l>=1} g_l / (lambda_l + gamma)^p with Euler-Maclaurin tail."""
    _check_convergent(d, p, "uniform trace")

    def f(l):
        l = np.asarray(l, dtype=float)
        return np.exp(harmonics.log_degeneracy(d, l)
                      - p * np.log(l * (l + d - 1) + gamma))

    return tails.accelerated_sum(f, 1, switch=switch)


def zeta_uniform(d, p):
    """Uniform-density sum rule sum_{l>=1} g_l^{(d)} / (l(l+d-1))^p."""
    value, _ = _spectral_trace(check_dimension(d),
                               check_integer(p, "order p", least=1, most=None))
    return value


# ----------------------------------------------------------------------
# degree-pair band sums


def _band_sum(d, L, a, b, gamma=0.0, switch=DEFAULT_ELL_CUT):
    """sum_{l,l'>=1} S_L(l,l') / ((lam_l+g)^a (lam_l'+g)^b).

    Split by offset l' - l; each offset gives a smooth summand handled by
    direct summation plus an Euler-Maclaurin tail.
    """
    total = 0.0
    err = 0.0
    for delta in range(-L, L + 1):
        smooth = harmonics.pair_strength_offset(d, L, delta)
        if smooth is None:
            continue
        start = max(1, 1 - delta)
        ls = np.arange(start, switch, dtype=float)
        lam1 = ls * (ls + d - 1) + gamma
        lam2 = (ls + delta) * (ls + delta + d - 1) + gamma
        direct = harmonics.pair_strength(d, L, ls, ls + delta)
        total += float(np.sum(direct / (lam1 ** a * lam2 ** b)))

        def f(l, s=smooth, dlt=delta):
            l = np.asarray(l, dtype=float)
            v1 = l * (l + d - 1) + gamma
            v2 = (l + dlt) * (l + dlt + d - 1) + gamma
            return s(l) / (v1 ** a * v2 ** b)

        tval, terr = tails.tail_sum(f, switch)
        total += tval
        err += terr
    return total, err


# ----------------------------------------------------------------------
# cubic (triple-sigma) trace for zonal densities


def _coupled_triples(density):
    """Ordered degree triples in the support passing parity + triangle."""
    degs = sorted({idx.ell for idx, _ in density.entries})
    out = []
    for a in degs:
        for b in degs:
            for c in degs:
                if (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b:
                    out.append((a, b, c))
    return out


def _cubic_powers(exps, gamma):
    """Denominator powers of the three insertions: 1/lambda^(e+1) unshifted,
    1/(lambda + gamma) shifted."""
    return [e + 1 for e in exps] if gamma is None else [1, 1, 1]


# m2 rows per chunk of the cubic trace's (m2, n) grid: the working set is a
# few dozen arrays of this many rows by the cutoff, under 4 MB at the
# default cutoff.
_CUBIC_CHUNK_ROWS = 32


def _cubic_core(density, exps, gamma, cuts):
    """Triple trace over sigma insertions, truncated at each degree in cuts.

    gamma=None gives the unshifted trace over l >= 1 with weights
    1/lambda^(e+1); a positive gamma includes the l = 0 row with weights
    1/(lambda + gamma).  Each m2 block contributes g_{d-1}(m2) times

        sum over coupled (L1, L2, L3) of  tr(D0 V_L2 D1 V_L3 D2 V_L1),

    with D_k the diagonal weights and V_L = c_L W_L the density's banded
    couplings.  The blocks are stacked as rows of an (m2, n) grid,
    l = m2 + n, and each band is a grid array per offset o, V_L(l, l + o),
    zero where l + o falls off the block.  The weights are folded into the
    bands once, A_L[o] = D0 V_L D1 and C_L[o] = V_L D2.  Each ordered pair
    (L2, L3) of a coupled triple is traced as a chain: its band product
    M = D0 V_L2 D1 V_L3 D2 takes one multiply-add per offset pair (d1, d2),
    into offset e = d1 + d2, and is contracted with the sum of V_L1 over
    the L1 that `_coupled_triples` closes the pair with.  Pairs closed by
    the same degrees share one product and one contraction.  No other L1
    enters: a triple the triangle rule forbids vanishes only by
    cancellation across blocks.  Every cut shares one set of bands: a
    smaller cut only zeroes the weights of degrees above it.  Returns the
    traces as an array, one per cut.
    """
    d = density.d
    zc = density.zonal_coeffs()
    closers = {}
    for L1, L2, L3 in _coupled_triples(density):
        closers.setdefault((L2, L3), []).append(L1)
    pairs = {}
    for pair, L1s in closers.items():
        pairs.setdefault(tuple(L1s), []).append(pair)
    floor = 1 if gamma is None else 0
    shift = 0.0 if gamma is None else gamma
    powers = _cubic_powers(exps, gamma)
    cuts = np.asarray(cuts).reshape(-1, 1, 1)
    lcut = int(cuts.max())
    # the weights carry `pad` zero columns on either side, so a view
    # shifted by any band offset stays inside the array
    pad = density.ell_max
    total = np.zeros(cuts.shape[0])
    for first in range(0, lcut + 1, _CUBIC_CHUNK_ROWS):
        m2 = np.arange(first, min(first + _CUBIC_CHUNK_ROWS, lcut + 1))
        width = lcut - first + 1
        n = np.arange(-pad, width + pad)
        ls = m2[:, None] + n
        lam = np.where((n >= 0) & (ls >= floor) & (ls <= cuts),
                       ls * (ls + d - 1.0) + shift, np.inf)
        gm = np.array([float(harmonics.degeneracy(d - 1, m)) for m in m2])
        wts = [lam ** -pw for pw in powers]
        wts[0] = wts[0] * gm[:, None]

        def at(o):
            """Grid columns n = 0..width-1 of a padded array, moved by o."""
            return slice(pad + o, pad + o + width)

        V, A, C = {}, {}, {}
        for L, c in zc.items():
            diag = c * harmonics.zonal_band_diagonals(d, L, m2, width)
            for o in range(-L, L + 1, 2):
                if o >= 0:
                    v = diag[o]
                else:
                    v = np.zeros_like(diag[0])
                    v[:, -o:] = diag[-o, :, :max(0, width + o)]
                V[L, o] = v
                A[L, o] = wts[0][..., at(0)] * v * wts[1][..., at(o)]
                C[L, o] = np.zeros_like(wts[2])
                C[L, o][..., at(0)] = v * wts[2][..., at(o)]
        for L1s, closed in pairs.items():
            top = max(L1s)
            chain = {}
            for L2, L3 in closed:
                for d1 in range(-L2, L2 + 1, 2):
                    for d2 in range(-L3, L3 + 1, 2):
                        e = d1 + d2
                        if abs(e) > top:
                            continue
                        term = A[L2, d1] * C[L3, d2][..., at(d1)]
                        if e in chain:
                            chain[e] += term
                        else:
                            chain[e] = term
            for e, m in chain.items():
                closing = sum(V[L1, e] for L1 in L1s if abs(e) <= L1)
                total += np.sum(m * closing, axis=(1, 2))
    return total


def _cubic_bytes(density, lcut):
    """Bytes `_cubic_core` holds at once for the density's trace at lcut
    and its inner cut.

    Counted in arrays of `_CUBIC_CHUNK_ROWS` rows by the padded grid's
    lcut + 1 + 2 top columns, k = 2 cuts: the degrees l, and lam and three
    weights per cut; per degree L its L + 1 diagonals, (L + 1) // 2
    negative-offset bands, and L + 1 A and C bands per cut; up to top + 1
    chain bands per cut and 2k + 1 temporaries of a contraction; and six
    (top + 1)-band arrays of the Jacobi recurrence while a chunk's
    diagonals are built.
    """
    k = 2
    degrees = density.rho_by_degree()
    top = max(degrees)
    arrays = (1 + 4 * k + (k + 6) * (top + 1) + 2 * k + 1
              + sum((L + 1) * (1 + 2 * k) + (L + 1) // 2 for L in degrees))
    rows = min(_CUBIC_CHUNK_ROWS, lcut + 1)
    return 8 * rows * (lcut + 1 + 2 * top) * arrays


def _check_cubic_budget(density, lcut):
    """Reject, before any sum runs, a cut whose cubic trace would need more
    than MAX_BYTES (_CUBIC_MAX_BYTES here): about ell_cut = 44000 for
    degrees {1, 2, 3}."""
    if not _coupled_triples(density):
        return
    check_bytes(_cubic_bytes(density, lcut),
                "the cubic trace of this density at ell_cut=%d" % lcut)


def _cubic_trace(density, exps, gamma=None, lcut=DEFAULT_ELL_CUT):
    """Cubic trace with a shell-difference truncation estimate.

    The trace is also taken at an inner cut 16 degrees down.  Its summand
    falls like l^-(2 sum(powers)) while the m2-summed grid grows like
    l^(d-1), so the tail beyond lcut falls like lcut^-s with
    s = 2 sum(powers) - d, and the tail is the shell difference scaled by
    lcut / (s * shell width).
    """
    if not _coupled_triples(density):
        return 0.0, 0.0
    if not density.is_zonal:
        raise UnsupportedDensityError(
            "the cubic trace term is implemented for zonal densities only "
            "(non-zonal support would need the full coupling tensor)")
    inner = max(density.ell_max + 1, lcut - 16)
    value, inner_value = _cubic_core(density, exps, gamma, (lcut, inner))
    s = 2 * sum(_cubic_powers(exps, gamma)) - density.d
    err = (abs(value - inner_value) * lcut / (s * max(1, lcut - inner))
           + 1e-15 * abs(value))
    return float(value), float(err)


# ----------------------------------------------------------------------
# I-type integrals: chains on the zero-mode coupling block


def _lam(d, ell):
    return float(ell * (ell + d - 1))


def _as_real(value, what):
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ValidationError("%s evaluated to a complex value %r"
                              % (what, value))
    return float(value.real)


def _green(lam):
    """G = 1/lambda on the nonzero modes, 0 on the zero mode."""
    g = np.zeros(len(lam))
    g[lam > 0] = 1.0 / lam[lam > 0]
    return g


def _zero_mode_block(density, ell_cut):
    """(B, G, c) on the block of degree <= ell_cut that holds the zero mode.

    B = 1 + sigma is the density's overlap, G the inverse Laplacian and c
    the density's coefficient vector on the same basis.  A zonal density
    gives the variational problem's m2 = 0 block, built from the Jacobi
    bands.  For any other density B is a sparse matrix holding only the
    rows and columns of the full overlap at the density's own indices.
    That is all a chain with at most two B's reads: its first B acts on a
    vector that lives on those indices, and its last B is read only there.
    """
    d = density.d
    if density.is_zonal:
        zc = density.zonal_coeffs()
        block, = rayleigh_ritz._zonal_blocks(d, ell_cut, zc, stop=1)
        c = np.zeros(ell_cut + 1)
        c[list(zc)] = list(zc.values())
        return block.overlap, _green(block.stiffness), c
    basis = rayleigh_ritz.truncated_basis(d, ell_cut)
    pos = {idx: n for n, idx in enumerate(basis)}
    support = np.array([pos[idx] for idx, _ in density.entries])
    c = np.zeros(len(basis), dtype=complex)
    c[support] = [cj for _, cj in density.entries]
    ell = np.array([h.ell for h in basis])
    # pairs (support index, any index) within the triangle rule's degree
    # gap; a pair of two support indices is kept once, in the row of the
    # smaller one
    rows, other = np.nonzero(
        np.abs(ell[None, :] - ell[support][:, None]) <= density.ell_max)
    s = support[rows]
    keep = ~(np.isin(other, support) & (other < s))
    I = np.minimum(s, other)[keep]
    J = np.maximum(s, other)[keep]
    b = (I == J) + rayleigh_ritz.sigma_pairs(density, basis, I, J)
    hit = b != 0
    upper = sparse.csr_matrix((b[hit], (I[hit], J[hit])),
                              shape=(len(basis),) * 2)
    lam = np.array([harmonics.eigenvalue(d, h.ell) for h in basis],
                   dtype=float)
    return upper + sparse.triu(upper, 1).conj().T, _green(lam), c


def _I(orders, block):
    """c^H G^(q1+1) B G^(q2+1) ... B G^(qk+1) c for orders (q1, .., qk)."""
    if len(orders) > 3:
        # a third B would read entries the non-zonal block leaves out
        raise UnsupportedOrderError(
            "I-chains are supported through two B's, got orders %r"
            % (orders,))
    B, G, c = block
    v = G ** (orders[-1] + 1) * c
    for q in orders[-2::-1]:
        v = G ** (q + 1) * (B @ v)
    return _as_real(np.vdot(c, v), "I%d" % len(orders))


# ----------------------------------------------------------------------
# J-type traces


def _J1(q, p, density, switch):
    d = density.d
    s = p + q + 2
    _check_convergent(d, s, "trace J1(%d,%d)" % (q, p))
    value, err = _spectral_trace(d, s, 0.0, switch)
    for L, rho in sorted(density.rho_by_degree().items()):
        bval, berr = _band_sum(d, L, q + 1, p + 1, 0.0, switch)
        value += rho * bval
        err += rho * berr
    return value, err


def _J2(q, p, r, density, switch):
    d = density.d
    s = p + q + r + 3
    _check_convergent(d, s, "trace J2(%d,%d,%d)" % (q, p, r))
    _check_cubic_budget(density, switch)
    value, err = _spectral_trace(d, s, 0.0, switch)
    # the three insertions share their band sums when orders coincide
    # (all three at J2(0, 0, 0)); each distinct one is taken once
    bands = {}
    for L, rho in sorted(density.rho_by_degree().items()):
        for aa, bb in ((q + 1, p + r + 2), (p + 1, q + r + 2),
                       (r + 1, p + q + 2)):
            if (L, aa, bb) not in bands:
                bands[L, aa, bb] = _band_sum(d, L, aa, bb, 0.0, switch)
            bval, berr = bands[L, aa, bb]
            value += rho * bval
            err += rho * berr
    cval, cerr = _cubic_trace(density, (q, p, r), gamma=None, lcut=switch)
    return value + cval, err + cerr


def density_integrals(kind, orders, density, ell_cut=None):
    """One coefficient-space integral of the sum-rule expansion.

    kind is 'I1', 'I2', 'I3', 'J1' or 'J2'; orders is the tuple of kernel
    iteration orders (q,), (q, p) or (q, p, r).  I-type values are exact
    finite sums (trunc_error 0); J-type values carry the tail estimate of
    their accelerated degree sums.  Returns {"value", "trunc_error"}.
    """
    if not isinstance(kind, str) or kind not in _ORDER_COUNT:
        raise ValidationError("unknown integral kind %r" % (kind,))
    try:
        given = tuple(orders)
    except TypeError:
        raise ValidationError("kernel orders must be a tuple, got %r"
                              % (orders,)) from None
    if len(given) != _ORDER_COUNT[kind]:
        raise ValidationError("integral %s takes %d order(s), got %r"
                              % (kind, _ORDER_COUNT[kind], given))
    orders = tuple(check_integer(v, "kernel order", most=None) for v in given)
    check_density(density)
    ell_cut = _check_ell_cut(ell_cut)
    switch = _switch(density, ell_cut)
    if ell_cut is not None and ell_cut < density.ell_max + 1:
        raise CutoffTooSmallError(
            "ell_cut=%d is below the density's top degree %d + 1"
            % (ell_cut, density.ell_max))
    if kind[0] == "I":
        block = _zero_mode_block(
            density, max(1, len(orders) - 1) * density.ell_max)
        return {"value": _I(orders, block), "trunc_error": 0.0}
    if kind == "J1":
        value, err = _J1(*orders, density, switch)
    else:
        value, err = _J2(*orders, density, switch)
    return {"value": value, "trunc_error": err}


# ----------------------------------------------------------------------
# zero-mode energy coefficients


def epsilon_closed(density):
    """(eps_1..eps_4) of E0(gamma) from the closed coefficient formulas."""
    check_density(density)
    vol = harmonics.sphere_volume(density.d)
    block = _zero_mode_block(density, 2 * density.ell_max)
    i10 = _I((0,), block)
    i11 = _I((1,), block)
    i12 = _I((2,), block)
    i200 = _I((0, 0), block)
    i201 = _I((0, 1), block)
    i210 = _I((1, 0), block)
    i3000 = _I((0, 0, 0), block)
    e2 = -i10 / vol
    e3 = i11 / vol + 2.0 * (i10 / vol) ** 2 - i200 / vol
    e4 = (-i12 / vol + (i201 + i210) / vol - 4.0 * i10 * i11 / vol ** 2
          - 5.0 * (i10 / vol) ** 3 + 5.0 * i10 * i200 / vol ** 2
          - i3000 / vol)
    return EpsilonCoeffs(eps=(1.0, e2, e3, e4))


def epsilon_recursive(density, order, ell_cut=None):
    """eps_k by the projection recursion, independent of the closed forms.

    Represents the order-k wavefunction correction as a coefficient vector,
    applies the density as its coupling matrix and the inverted Laplacian
    as 1/lambda on the nonzero modes, and projects on the zero mode.  The
    coupling matrix is the overlap of the variational problem's block that
    holds the zero mode at row 0.  For a zonal density that is the m2 = 0
    block (the only block built), the block the closed forms' I-terms read
    too, so the two routes differ only in their algebra.  For any other
    density it is the full assembly, not the cross-only block of the
    I-terms, which keeps the recursion an independent check of that block.

    ell_cut defaults to order * max(1, ell_max), the smallest cutoff
    accepted: the order-k correction has degree at most k * ell_max, so
    every correction the recursion forms is exact there and a larger
    cutoff only adds work.
    """
    check_density(density)
    order = check_integer(order, "order", least=1, most=None)
    if order > 6:
        raise UnsupportedOrderError(
            "zero-mode coefficients are supported through order 6, got %d"
            % order)
    ell_cut = _check_ell_cut(ell_cut)
    needed = order * max(1, density.ell_max)
    if ell_cut is None:
        ell_cut = needed
    elif ell_cut < needed:
        raise CutoffTooSmallError(
            "ell_cut=%d cannot hold order-%d corrections (need >= %d)"
            % (ell_cut, order, needed))
    if density.is_zonal:
        block, = rayleigh_ritz._zonal_blocks(density.d, ell_cut,
                                             density.zonal_coeffs(), stop=1)
    else:
        block = rayleigh_ritz.assemble(density.d, ell_cut, density).blocks[0]
    B, ginv = block.overlap, _green(block.stiffness)
    b00 = B[0, 0].real
    psi = [np.zeros(B.shape[0], dtype=B.dtype)]
    psi[0][0] = 1.0
    eps = [1.0]
    for k in range(1, order + 1):
        if k > 1:
            val = -sum(eps[j - 1] * (B @ psi[k - j])[0]
                       for j in range(1, k)) / b00
            eps.append(_as_real(complex(val), "eps[%d]" % k))
        forced = sum(eps[j - 1] * (B @ psi[k - j]) for j in range(1, k + 1))
        psi.append(ginv * (forced - psi[k - 1]))
    return eps[order - 1]


# ----------------------------------------------------------------------
# the sum rules


def _check_sum_rule_orders(d, p):
    """(d, p) as ints: a supported d and a convergent p in {2, 3}."""
    d = check_dimension(d)
    if integral(p) not in (2, 3):
        raise UnsupportedOrderError(
            "sum rules are implemented for p in {2, 3}, got %r" % (p,))
    _check_convergent(d, int(p), "sum rule")
    return d, int(p)


def sum_rule(d, p, density, ell_cut=None):
    """The exact renormalized sum rule Z_p for the given density."""
    d, p = _check_sum_rule_orders(d, p)
    check_density(density, d)
    switch = _switch(density, _check_ell_cut(ell_cut))
    vol = harmonics.sphere_volume(d)
    block = _zero_mode_block(density, (p - 1) * density.ell_max)
    i10 = _I((0,), block)
    i200 = _I((0, 0), block)
    if p == 2:
        jval, jerr = _J1(0, 0, density, switch)
        value = jval + (i10 / vol) ** 2 - 2.0 * i200 / vol
    else:
        jval, jerr = _J2(0, 0, 0, density, switch)
        i3000 = _I((0, 0, 0), block)
        value = (jval - (i10 / vol) ** 3 + 3.0 * i10 * i200 / vol ** 2
                 - 3.0 * i3000 / vol)
    return SumRuleResult(d=d, p=p, value=value, trunc_error=jerr,
                         provenance="exact-engine", ell_cut=switch)


def closed_form_reference(d, p, kappa):
    """Reference polynomial-in-kappa value of Z_p for the tilt family."""
    if (d, p) not in ((3, 2), (3, 3), (4, 3), (5, 3)):
        raise UnsupportedOrderError(
            "no closed-form reference for (d, p) = (%r, %r)" % (d, p))
    kappa = check_kappa(d, kappa)
    pi = math.pi
    k2 = kappa * kappa
    if (d, p) == (3, 2):
        return ((3 + 4 * pi ** 2) / 48.0 + 7 * k2 / (36 * pi ** 2)
                + k2 ** 2 / (36 * pi ** 4))
    if (d, p) == (3, 3):
        return ((2 * pi ** 2 - 3) / 96.0
                + (1.0 / 24 - 103 / (288 * pi ** 2)) * k2
                + 5 * k2 ** 2 / (288 * pi ** 4) - k2 ** 3 / (216 * pi ** 6))
    if (d, p) == (4, 3):
        zeta3 = float(special.zeta(3.0))
        return (23 / 1458.0 + 2 * zeta3 / 27.0 + 49 * k2 / (1152 * pi ** 2)
                + 513 * k2 ** 2 / (143360 * pi ** 4)
                - 27 * k2 ** 3 / (32768 * pi ** 6))
    return ((15 + 152 * pi ** 2) / 18432.0
            + (529 / (96000 * pi ** 3) + 1 / (80 * pi)) * k2
            + 23 * k2 ** 2 / (2000 * pi ** 6) - k2 ** 3 / (125 * pi ** 9))


# ----------------------------------------------------------------------
# shifted diagnostic


def _renorm_lead(p, eps, gamma):
    """gamma^-p - 1/E0(gamma)^p for E0 = gamma (1 + x), regrouped so that
    the leading 1/gamma^p pieces cancel analytically rather than in
    floating point."""
    x = eps[1] * gamma + eps[2] * gamma ** 2 + eps[3] * gamma ** 3
    if p == 2:
        return (2.0 * x + x * x) / (gamma ** 2 * (1.0 + x) ** 2)
    return ((3.0 * x + 3.0 * x * x + x ** 3)
            / (gamma ** 3 * (1.0 + x) ** 3))


def sum_rule_shifted(d, p, density, gamma, ell_cut=None):
    """Z_p(gamma) and its renormalization against the zero-mode energy.

    Z is the coefficient-space trace with shifted denominators (the zero
    mode contributing 1/gamma); Z_renorm subtracts 1/E0(gamma)^p with the
    quartic Taylor polynomial E0.  The subtraction is evaluated in a
    regrouped form so the leading 1/gamma^p pieces cancel analytically
    rather than in floating point.
    """
    d, p = _check_sum_rule_orders(d, p)
    check_density(density, d)
    gamma = check_gamma(gamma)
    switch = _switch(density, _check_ell_cut(ell_cut))
    if p == 3:
        _check_cubic_budget(density, switch)
    vol = harmonics.sphere_volume(d)
    eps = epsilon_closed(density).eps
    try:
        lead = _renorm_lead(p, eps, gamma)
    except (OverflowError, ZeroDivisionError):
        raise ValidationError(
            "shift gamma=%r is out of range: the zero-mode energy's Taylor "
            "polynomial overflows" % (gamma,)) from None
    trace, _ = _spectral_trace(d, p, gamma, switch)
    finite = trace
    if p == 2:
        for L, rho in sorted(density.rho_by_degree().items()):
            dl = 1.0 / (_lam(d, L) + gamma)
            finite += rho * (2.0 / (gamma * vol) * dl
                             + _band_sum(d, L, 1, 1, gamma, switch)[0])
    else:
        for L, rho in sorted(density.rho_by_degree().items()):
            dl = 1.0 / (_lam(d, L) + gamma)
            finite += 3.0 * rho * ((dl / gamma ** 2 + dl * dl / gamma) / vol
                                   + _band_sum(d, L, 2, 1, gamma, switch)[0])
        if _coupled_triples(density):
            finite += _cubic_trace(density, (0, 0, 0), gamma=gamma,
                                   lcut=switch)[0]
    return {"Z": gamma ** -p + finite, "Z_renorm": lead + finite}
