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
* J-type traces tr(G^(q1+1) B ... G^(qk+1) B): an infinite degree sum
  handled by closed-form pair strengths S_L(l, l') plus Euler-Maclaurin
  tail acceleration, and (for zonal densities with coupled degree triples)
  a triple trace over the cycles of three banded couplings, whose m2
  blocks the moments of the block index sum at a cost linear in the cut
  (block by block, at a bounded cost, once a cycle is past degree 8);
* the zero-mode energy coefficients eps_1..eps_4 of the gamma-shifted
  problem, both in closed form and by an independent linear-algebra
  recursion;
* a shifted diagnostic Z_p(gamma), the same J-trace with G = 1/(lambda +
  gamma) and its l = 0 rows, whose renormalized limit reproduces the
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
from .errors import (MAX_ELL_CUT, CutoffTooSmallError, DivergentSumError,
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
    """One exact sum rule Z~_p on S^d.

    trunc_error estimates the truncation of the value's infinite degree
    sums (the Euler-Maclaurin remainders of the band sums and the uniform
    trace, and the cubic trace's cut), not floating-point rounding, which
    can exceed it: on the tilt at kappa = 0.1 of its bound, sum_rule(3, 3)
    is 8.3e-17 off the closed form while reporting 1.3e-17.
    """

    d: int
    p: int
    value: float
    trunc_error: float
    provenance: str
    ell_cut: int


# ----------------------------------------------------------------------
# uniform traces


def _spectral_trace(d, p, gamma=0.0, switch=DEFAULT_ELL_CUT, first=1):
    """sum_{l>=first} g_l / (lambda_l + gamma)^p with Euler-Maclaurin tail."""
    _check_convergent(d, p, "uniform trace")

    def f(l):
        return harmonics._degeneracy_at(d, l) / (l * (l + d - 1) + gamma) ** p

    return tails.accelerated_sum(f, first, switch=switch)


def zeta_uniform(d, p):
    """Uniform-density sum rule sum_{l>=1} g_l^{(d)} / (l(l+d-1))^p."""
    value, _ = _spectral_trace(check_dimension(d),
                               check_integer(p, "order p", least=1, most=None))
    return value


# ----------------------------------------------------------------------
# degree-pair band sums


# degrees per pair-strength pass of a band sum, direct and tail together;
# an offset is never split, so a pass past this holds a single offset
_PASS_POINTS = 2 ** 16


def _band_passes(L, switch, nodes):
    """The offsets delta of a degree-L band sum, grouped into passes of at
    most _PASS_POINTS degrees: per offset (delta, ls, ok, points), with ls
    the direct degrees l >= 1, l + delta >= 1 below switch, ok their
    lattice mask and points the allowed ones followed by the tail nodes."""
    group, size = [], 0
    for delta in range(-L, L + 1, 2):
        start = max(1, 1 - delta)
        # counted before the offset's arrays are made, as if every direct
        # degree were allowed, so no two passes' arrays are alive at once
        count = max(switch - start, 0) + nodes.size
        if group and size + count > _PASS_POINTS:
            yield group
            group, size = [], 0
        ls = np.arange(start, switch, dtype=float)
        ok = harmonics._lattice_allowed(L, ls, ls + delta)
        group.append((delta, ls, ok, np.concatenate([ls[ok], nodes])))
        size += count
    yield group


def _band_sum(d, L, a, b, gamma=0.0, switch=DEFAULT_ELL_CUT):
    """sum_{l,l'>=1} S_L(l,l') / ((lam_l+g)^a (lam_l'+g)^b).

    Split by offset l' - l; each offset gives a smooth summand handled by
    direct summation plus an Euler-Maclaurin tail.  The pair strengths of
    every offset's direct degrees and tail nodes come from one pass of the
    pair-strength formula (one per _PASS_POINTS degrees at large cutoffs);
    the offsets are then summed one by one, in order.
    """
    nodes = tails.tail_points(switch)
    v1a = (nodes * (nodes + d - 1) + gamma) ** a
    total = 0.0
    err = 0.0
    for group in _band_passes(L, switch, nodes):
        strengths = harmonics._pair_strength_raw(
            d, L, np.concatenate([points for _, _, _, points in group]),
            np.concatenate([points + delta for delta, _, _, points in group]))
        at = 0
        for delta, ls, ok, points in group:
            s = strengths[at:at + points.size]
            at += points.size
            lam1 = ls * (ls + d - 1) + gamma
            lam2 = (ls + delta) * (ls + delta + d - 1) + gamma
            direct = np.zeros_like(ls)
            direct[ok] = s[:-nodes.size]
            total += float(np.sum(direct / (lam1 ** a * lam2 ** b)))
            v2 = (nodes + delta) * (nodes + delta + d - 1) + gamma
            tval, terr = tails.tail_from_values(
                s[-nodes.size:] / (v1a * v2 ** b), switch)
            total += tval
            err += terr
    return total, err


# ----------------------------------------------------------------------
# cubic (triple-sigma) trace for zonal densities


def _coupled_triples(density):
    """Ordered degree triples in the support passing parity + triangle."""
    degs = sorted({idx.ell for idx, _ in density.entries})
    return [(a, b, c) for a in degs for b in degs for c in degs
            if (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b]


# The dihedral moves of the cycle V_L1 -w0- V_L2 -w1- V_L3 -w2- (back to
# V_L1), each as (degree order, weight order) of the moved triple: the two
# turns, then the reversals fixing L1, L2 and L3.
_CYCLE_MOVES = (((1, 2, 0), (1, 2, 0)), ((2, 0, 1), (2, 0, 1)),
                ((0, 2, 1), (2, 1, 0)), ((1, 0, 2), (0, 2, 1)),
                ((2, 1, 0), (1, 0, 2)))


def _cubic_classes(density, powers):
    """Coupled triples by symmetry class, {representative: orbit size}.

    tr(D0 V_L2 D1 V_L3 D2 V_L1) is the cycle V_L1 -w0- V_L2 -w1- V_L3 -w2-
    with (w0, w1, w2) = powers.  A turn leaves a trace unchanged, and so
    does a reversal, the transpose of a product of symmetric bands and
    diagonals; a move keeps the triple's trace when it maps the weights onto
    themselves.  Those moves form a group, and each orbit of coupled triples
    under it is one class, represented by its least triple.  The classes
    come in the order of their representatives; with distinct powers each
    triple is its own class.
    """
    moves = [deg for deg, wt in _CYCLE_MOVES
             if [powers[i] for i in wt] == list(powers)]
    classes = {}
    for triple in _coupled_triples(density):
        rep = min([triple] + [tuple(triple[i] for i in deg) for deg in moves])
        classes[rep] = classes.get(rep, 0) + 1
    return classes


def _cubic_plan(density, powers):
    """The chains of the cubic trace for weight powers, one per group of
    degree pairs (L2, L3) whose representatives share their closing degrees
    and class sizes: a list of (closing, parts), closing the [(L1, size)]
    of the group and parts {(e, hi): steps}, each step a multiply-add
    (L2, d1, L3, d2) into that part.

    A step takes offset d1 of V_L2 and d2 of V_L3 into the part of the band
    product at offset e = d1 + d2 whose cycles l -> l + d1 -> l + e -> l
    reach their largest degree at l + hi, hi = max(0, d1, e).  Offsets |e|
    past every closing degree are left out: no band closes them.
    """
    closers = {}
    for (L1, L2, L3), size in _cubic_classes(density, powers).items():
        closers.setdefault((L2, L3), []).append((L1, size))
    groups = {}
    for pair, closing in closers.items():
        groups.setdefault(tuple(closing), []).append(pair)
    plan = []
    for closing, pairs in groups.items():
        top, parts = max(L1 for L1, _ in closing), {}
        for L2, L3 in pairs:
            for d1 in range(-L2, L2 + 1, 2):
                for d2 in range(-L3, L3 + 1, 2):
                    if abs(d1 + d2) <= top:
                        parts.setdefault((d1 + d2, max(0, d1, d1 + d2)),
                                         []).append((L2, d1, L3, d2))
        plan.append((closing, parts))
    return plan


def _cycle_sums(plan, powers, band, wts, lo, a, b, inner, moments):
    """(trace, top shell) of the cycles l -> l + d1 -> l + e -> l from the
    starts l = a..b, the shell those with l + hi > inner: band(L, o)[c,
    i - lo, j] is coefficient c of V_L(i, i + o) at lead entry j for the
    rows i = lo.., wts[w][i - lo + top] (top = a - lo) is 1 / (lambda_i +
    gamma)^w or 0, as a column; P adds sum_c P_c moments[c].  Each part's
    chain is closed before the next starts, so it stays in cache."""
    w0, w1, w2 = powers
    top, blockwise = a - lo, len(moments) == 1
    # D0 and the moments: one moment (each block on its own) scales each
    # chain, more of them each closing band
    opening = wts[w0][2 * top:2 * top + b + 1 - a] * moments
    weighted, closed, trace, shell = {}, {}, 0.0, 0.0

    def at(x, o):  # x at the rows l + o of the starts l
        return x[:, a + o - lo:b + 1 + o - lo]

    def U(w, L, o):  # V_L(i, i + o) / (lambda_{i + o} + gamma)^w
        if (w, L, o) not in weighted:
            x = band(L, o)
            weighted[w, L, o] = x * wts[w][top + o:top + o + x.shape[1]]
        return weighted[w, L, o]

    for closing, parts in plan:
        for (e, hi), steps in parts.items():
            terms = [(at(U(w1, L2, d1), 0), at(U(w2, L3, d2), d1))
                     for L2, d1, L3, d2 in steps]
            if blockwise:  # one coefficient: the first product starts it
                chain = terms[0][0] * terms[0][1]
                for x, y in terms[1:]:
                    chain += x * y
                chain *= opening
            else:
                chain = np.zeros((max(len(x) + len(y) for x, y in terms)
                                  - 1,) + opening.shape[1:])
                for x, y in (sorted(t, key=len) for t in terms):
                    for k, xk in enumerate(x):
                        chain[k:k + len(y)] += xk * y
            cut = max(0, inner - hi + 1 - a)
            for L1, count in closing:
                if abs(e) > L1:
                    continue
                r = c = at(band(L1, -e), e)
                if not blockwise:
                    if (L1, e) not in closed:
                        size = len(moments) - len(c) + 1
                        closed[L1, e] = sum(ck * opening[k:k + size]
                                            for k, ck in enumerate(c))
                    r = closed[L1, e][:len(chain)]
                trace += count * np.vdot(chain, r)
                shell += count * np.vdot(chain[:, cut:], r[:, cut:])
    return trace, shell


def _block_bands(d, zc, first, count, end):
    """band(L, o) of `_cycle_sums` for the blocks first..first + count - 1,
    each a lead entry, at the degrees first - top..end + top: c_L times the
    block's (symmetric) zonal band, 0 below its m2."""
    top, up = max(zc), {}
    width = end + 3 * top + 1 - first
    for L, diags in harmonics._zonal_bands(
            d, zc, range(first, first + count), width - 2 * top).items():
        up[L] = np.zeros((len(diags), 1, width + count, count))
        # block j's degree m2 + n at row 2 top + j + n of column j
        s = up[L].strides
        np.multiply(diags, zc[L], out=np.lib.stride_tricks.as_strided(
            up[L][:, 0, 2 * top:], diags.shape, (s[0], s[2] + s[3], s[2])))
    # V_L is symmetric: offset o < 0 is offset -o moved by o
    return lambda L, o: up[L][abs(o) // 2, :, top + min(o, 0):][
        :, :width - top]


def _jacobi_bands(d, zc, lo, rows, scale):
    """band(L, o) of `_cycle_sums` at the degrees lo..lo + rows - 1 (lo >
    2 top), every block one lead entry, from C_L(J'), similar to C_L(J):
    J' has superdiagonal 1 and subdiagonal b^2(i) = (i (i + d - 2) - u) /
    (4 (i + alpha) (i + alpha - 1)), 0 at the block's i = m2, u = m2 (m2 +
    d - 2).  An entry at offset o is a polynomial in u of degree (L - o) /
    2, coefficient c that of (u / scale)^c, which depends on i alone.  C_k
    is (offset, coefficient, row)."""
    alpha, top = (d - 1) / 2.0, max(zc)
    i = np.arange(lo - top, lo + rows + top, dtype=float)
    den = 4.0 * (i + alpha) * (i + alpha - 1.0)
    p, q = i * (i + d - 2.0) / den, scale / den
    prev, c, bands = None, np.ones((1, 1, len(i))), {}
    for k in range(1, top + 1):
        # (J' C)[i, i + o] = C[i + 1, i + o] + b^2(i) C[i - 1, i + o]
        down, live = c[..., :-2], slice(k, len(i) - k)
        step = np.zeros((k + 1, k + 1, down.shape[-1]))
        step[1:, :c.shape[1]] = c[..., 2:]
        step[:k, :k] += p[live] * down
        step[:k, 1:] -= q[live] * down
        step *= 2.0 * (k + alpha - 1.0) / k
        if k > 1:
            step[1:-1, :prev.shape[1]] -= ((k + 2 * alpha - 2) / k
                                           * prev[..., 2:-2])
        prev, c = c, step
        if k in zc:
            bands[k] = (zc[k] * math.exp(harmonics._log_zonal_norm(d, k))
                        * c[:, :, top - k:top - k + rows, None])
    return lambda L, o: bands[L][(o + L) // 2, :(L - o) // 2 + 1]


# past this degree in u of a cycle the moments' monomials cancel too far;
# m2 blocks summed together where the cubic trace sums them one by one
_MOMENT_DEGREE, _BLOCKS = 8, 32


def _block_starts(density, lcut):
    """(l0, most): `_cubic_core` sums the starts l < l0 block by block,
    those below 3 top, and all of them once most, a cycle's largest degree
    in u, passes _MOMENT_DEGREE."""
    top = max(density.zonal_coeffs())
    most = max(sum(t) for t in _coupled_triples(density)) // 2
    if most > _MOMENT_DEGREE:
        return lcut + 1, most
    return min(3 * top, lcut + 1), most


# multiply-adds the block-by-block sums of one cubic trace may take, under
# a minute on one core: degrees {2, 9, 11} up to a cut of 9510
_MAX_BLOCK_WORK = 2 ** 35


def _block_cost(density, exps, lcut):
    """(bytes held, multiply-adds) of the cubic trace's block-by-block sums
    at lcut.  Bytes: arrays of the first chunk, _BLOCKS blocks by l0 + 3 top
    + _BLOCKS degrees; as its bands are built, each degree's diagonals
    three times (this chunk's, their zonal bands, the last chunk's) and the
    recurrence's top step three times, or as they are summed the diagonals,
    the coupled bands weighted by each power of D1 and D2, a chain, a
    product, D0 and the moments.  Work: a step per offset pair of each
    coupled triple's L2 and L3, at every block and start."""
    zc, triples = density.zonal_coeffs(), _coupled_triples(density)
    top, (l0, _) = max(zc), _block_starts(density, lcut)
    diagonals, rows = sum(L // 2 + 1 for L in zc), min(_BLOCKS, l0)
    coupled = {L for triple in triples for L in triple}
    arrays = max(3 * diagonals + 3 * (top // 2 + 1), diagonals + 4 + len(
        {exps[1], exps[2]}) * sum(L + 1 for L in coupled))
    work = sum((L2 + 1) * (L3 + 1) for _, L2, L3 in triples) * sum(
        min(_BLOCKS, l0 - f) * (l0 - f) for f in range(0, l0, _BLOCKS))
    return 8 * arrays * rows * (l0 + 3 * top + rows), work


def _check_block_sums(density, exps, lcut):
    """Reject, before any sum runs, a cubic trace whose block-by-block sums
    would hold more than MAX_BYTES or take more than _MAX_BLOCK_WORK."""
    if density.is_zonal and _coupled_triples(density):
        need, work = _block_cost(density, exps, lcut)
        what = "the cubic trace of this density at ell_cut=%d" % lcut
        check_bytes(need, what)
        if work > _MAX_BLOCK_WORK:
            raise ValidationError(
                "%s sums its m2 blocks one by one: %.1e multiply-adds, "
                "above the %.1e supported" % (what, work, _MAX_BLOCK_WORK))


def _cubic_core(density, exps, gamma, lcut, inner):
    """Triple trace over sigma insertions truncated at degree lcut, and its
    top shell, the cycles whose largest degree lies in (inner, lcut].

    The weights are 1/(lambda + gamma)^(e+1) for exps (e0, e1, e2):
    gamma=None gives the unshifted trace over l >= 1, a positive gamma
    includes the l = 0 row.  Each m2 block contributes g_{d-1}(m2) times

        sum over coupled (L1, L2, L3) of  tr(D0 V_L2 D1 V_L3 D2 V_L1),

    with D_k the diagonal weights and V_L = c_L W_L the density's banded
    couplings, each class of `_cubic_classes` traced once (a triple the
    triangle rule forbids, zero only over all blocks, never enters), as a
    sum over the degree l where a cycle l -> l + d1 -> l + e -> l starts
    (`_cycle_sums`).  From l0 = 3 top on, a cycle is a polynomial in
    u = m2 (m2 + d - 2) (`_jacobi_bands`), summed over the blocks m2 <= l
    by the moments sum_{m <= l} g_{d-1}(m) u(m)^k: a cost linear in lcut.
    Below l0, where the monomials' cancellation costs digits, and past it
    too once a cycle's degree in u passes _MOMENT_DEGREE (`_block_starts`),
    each block is summed on its own, _BLOCKS at a time (`_block_bands`),
    at a cost quadratic in lcut that `_check_block_sums` bounds.  The
    starts past l0 go in passes of _PASS_POINTS / (top + 1)^2 degrees, so
    the working set does not grow with lcut; a pass scales u by its value
    at its last start, so no moment overflows.
    """
    d, zc = density.d, density.zonal_coeffs()
    powers, top = [e + 1 for e in exps], max(zc)
    plan = _cubic_plan(density, powers)
    if not plan:
        return 0.0, 0.0

    def g(m2):  # g_{d-1}(m2); g_1 is 1, 2, 2, ...
        return (harmonics._degeneracy_at(d - 1, m2) if d > 2
                else np.where(m2 > 0, 2.0, 1.0))

    def cycles(band, a, b, moments):
        ls = np.arange(a - 2 * top, b + 2 * top + 1, dtype=float)
        live = (ls >= (1 if gamma is None else 0)) & (ls <= lcut)
        lam = np.where(live, ls * (ls + d - 1.0) + (gamma or 0.0),
                       np.inf)[:, None]
        wts = {w: lam ** -w for w in set(powers)}
        sums[:] += _cycle_sums(plan, powers, band, wts, a - top, a, b,
                               inner, moments)

    sums, (l0, most) = np.zeros(2), _block_starts(density, lcut)
    for first in range(0, l0, _BLOCKS):
        m2 = np.arange(first, min(l0, first + _BLOCKS))
        # the last chunk's bands go once these are built, so the heap they
        # held is reused, not returned and faulted back in
        band = _block_bands(d, zc, first, len(m2), l0 - 1)
        cycles(band, first, l0 - 1,
               (g(m2) * (np.arange(first, l0)[:, None] >= m2))[None])
    ks, carry, scale, a = np.arange(most + 1)[:, None], 0.0, 1.0, l0
    while a <= lcut:
        b = min(lcut, a + max(1, _PASS_POINTS // (top + 1) ** 2) - 1)
        last, rows = b * (b + d - 2.0), b - a + 1 + 2 * top
        m = np.arange(0 if a == l0 else a, b + 1, dtype=float)
        moments = carry * (scale / last) ** ks + np.cumsum(
            g(m) * (m * (m + d - 2) / last) ** ks, axis=1)
        carry, scale = moments[:, -1:], last
        cycles(_jacobi_bands(d, zc, a - top, rows, last), a, b,
               moments[:, len(m) - (b - a + 1):, None])
        a = b + 1
    return float(sums[0]), float(sums[1])


def _cubic_trace(density, exps, gamma=None, lcut=DEFAULT_ELL_CUT):
    """Cubic trace with a top-shell truncation estimate.

    The pass that takes the trace also sums its top shell, the cycles whose
    largest degree lies within 16 degrees below lcut.  The summand falls
    like l^-(2 sum(e + 1)) over the exps e while the blocks at a degree
    grow like l^(d-1), so the tail beyond lcut falls like lcut^-s with
    s = 2 sum(e + 1) - d, and the tail is the top shell scaled by
    lcut / (s * shell width).
    """
    if not _coupled_triples(density):
        return 0.0, 0.0
    if not density.is_zonal:
        raise UnsupportedDensityError(
            "the cubic trace term is implemented for zonal densities only "
            "(non-zonal support would need the full coupling tensor)")
    inner = max(density.ell_max + 1, lcut - 16)
    value, top_shell = _cubic_core(density, exps, gamma, lcut, inner)
    s = 2 * (sum(exps) + 3) - density.d
    err = (abs(top_shell) * lcut / (s * max(1, lcut - inner))
           + 1e-15 * abs(value))
    return value, err


# ----------------------------------------------------------------------
# I-type integrals: chains on the zero-mode coupling block


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


def _J(orders, density, switch, gamma=None):
    """tr(G^(q1+1) B ... G^(qk+1) B) over l >= 1 for orders (q1, .., qk),
    k = 2 (J1) or 3 (J2), with G = 1/lambda and B = 1 + sigma.

    Expanded in sigma: the uniform trace of power s = sum(q + 1), one band
    sum for each pair of sigma insertions and, with three, the cubic trace.
    A pair splits the cycle into two arcs of G powers: (q1+1, q2+1) with two
    insertions, and with three (q+1, s-q-1) for each q, the arc between the
    other two.  Each distinct (L, a, b) is summed once.

    With gamma, G = 1/(lambda + gamma) on every mode and the trace runs
    over l >= 0 less the uniform zero mode gamma^-s, so it is Z(gamma) -
    gamma^-s: l = 0 couples only to l' = L, with S_L(0, L) = 1/Vol, which
    adds the rows (gamma^-a (lambda_L+gamma)^-b + (lambda_L+gamma)^-a
    gamma^-b) / Vol to each band sum.  Returns (value, trunc_error).
    """
    d = density.d
    s = sum(orders) + len(orders)
    _check_convergent(d, s, "trace J%d(%s)" % (
        len(orders) - 1, ",".join(map(str, orders))))
    if len(orders) == 3:
        _check_block_sums(density, orders, switch)
    shift = 0.0 if gamma is None else gamma
    vol = harmonics.sphere_volume(d)
    value, err = _spectral_trace(d, s, shift, switch)
    arcs = orders if len(orders) == 3 else orders[:1]
    bands = {}
    for L, rho in sorted(density.rho_by_degree().items()):
        for a, b in ((q + 1, s - q - 1) for q in arcs):
            if (L, a, b) not in bands:
                bval, berr = _band_sum(d, L, a, b, shift, switch)
                if gamma is not None:
                    lam = harmonics.eigenvalue(d, L) + gamma
                    bval += (gamma ** -a * lam ** -b
                             + lam ** -a * gamma ** -b) / vol
                bands[L, a, b] = bval, berr
            bval, berr = bands[L, a, b]
            value += rho * bval
            err += rho * berr
    if len(orders) == 3:
        cval, cerr = _cubic_trace(density, orders, gamma, switch)
        value, err = value + cval, err + cerr
    return value, err


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
    value, err = _J(orders, density, switch)
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
    block alone, from `_zero_mode_block` as for the closed forms' I-terms,
    so the two routes differ only in their algebra.  For any other
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
        B, ginv, _ = _zero_mode_block(density, ell_cut)
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
    # the trace first: it checks its cost before the I-terms' block is built
    jval, jerr = _J((0,) * p, density, switch)
    block = _zero_mode_block(density, (p - 1) * density.ell_max)
    i10 = _I((0,), block)
    i200 = _I((0, 0), block)
    if p == 2:
        value = jval + (i10 / vol) ** 2 - 2.0 * i200 / vol
    else:
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
    the leading 1/gamma^p pieces cancel analytically.  The 1/gamma^(p-1)
    pieces left still cancel against the trace's zero-mode rows in floating
    point, which limits how small gamma may be."""
    x = eps[1] * gamma + eps[2] * gamma ** 2 + eps[3] * gamma ** 3
    if p == 2:
        return (2.0 * x + x * x) / (gamma ** 2 * (1.0 + x) ** 2)
    return ((3.0 * x + 3.0 * x * x + x ** 3)
            / (gamma ** 3 * (1.0 + x) ** 3))


def sum_rule_shifted(d, p, density, gamma, ell_cut=None):
    """Z_p(gamma) and its renormalization against the zero-mode energy.

    Z is the J-trace of `sum_rule` with shifted denominators 1/(lambda +
    gamma), its l = 0 rows included (the zero mode contributing 1/gamma);
    Z_renorm subtracts 1/E0(gamma)^p with the quartic Taylor polynomial E0.
    The subtraction is regrouped so that the leading 1/gamma^p pieces cancel
    analytically; the 1/gamma^(p-1) pieces still cancel in floating point,
    so at p = 3 Z_renorm loses its accuracy below gamma of about 1e-7.
    """
    d, p = _check_sum_rule_orders(d, p)
    check_density(density, d)
    gamma = check_gamma(gamma)
    switch = _switch(density, _check_ell_cut(ell_cut))
    eps = epsilon_closed(density).eps
    try:
        lead = _renorm_lead(p, eps, gamma)
    except (OverflowError, ZeroDivisionError):
        raise ValidationError(
            "shift gamma=%r is out of range: the zero-mode energy's Taylor "
            "polynomial overflows" % (gamma,)) from None
    finite, _ = _J((0,) * p, density, switch, gamma)
    return {"Z": gamma ** -p + finite, "Z_renorm": lead + finite}
