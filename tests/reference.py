"""A 40-digit reference for the degree factors of the exact engine.

Each function takes its value straight from the Gamma function in mpmath
arithmetic at 40 significant digits and returns an mpmath number; nothing
here shares arithmetic with the package.  Degrees may be continuous.

    g_l      = (2l + d - 1) Gamma(l + d - 1) / (Gamma(d) Gamma(l + 1))
    C_n^a(1) = Gamma(n + 2a) / (Gamma(2a) Gamma(n + 1))
    S_L(l, l') = (g_l g_l' / Vol) (C_L^a(1) / g_L) A_L(l, l')
                 / (C_l^a(1) C_l'^a(1)),

with a = (d-1)/2, Vol the volume of S^d and A_L Dougall's coefficient of
C_L^a in the product C_l^a C_l'^a, for k = (l + l' - L)/2 and
s = (l + l' + L)/2:

    A_L = (L + a)/(s + a) Gamma(L + 1) / (Gamma(k+1) Gamma(l-k+1) Gamma(l'-k+1))
          Gamma(a+k) Gamma(a+l-k) Gamma(a+l'-k) / Gamma(a)^2
          Gamma(2a+s) / (Gamma(a+s) Gamma(2a+L)).
"""

import math

from mpmath import mp, mpf

DIGITS = 40


def degeneracy(d, ell):
    """g_ell on S^d."""
    with mp.workdps(DIGITS):
        ell = mpf(ell)
        return ((2 * ell + d - 1) * mp.gamma(ell + d - 1)
                / (mp.gamma(d) * mp.gamma(ell + 1)))


def gegenbauer_at_one(alpha, n):
    """C_n^alpha(1)."""
    with mp.workdps(DIGITS):
        alpha, n = mpf(alpha), mpf(n)
        return mp.gamma(n + 2 * alpha) / (mp.gamma(2 * alpha) * mp.gamma(n + 1))


def volume(d):
    """Vol(S^d) = 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    with mp.workdps(DIGITS):
        half = (mpf(d) + 1) / 2
        return 2 * mp.pi ** half / mp.gamma(half)


def pair_strength(d, L, l, lp):
    """S_L(l, l') on S^d, off the lattice rules' zeros."""
    with mp.workdps(DIGITS):
        a = mpf(d - 1) / 2
        l, lp = mpf(l), mpf(lp)
        k = (l + lp - L) / 2
        s = (l + lp + L) / 2
        g = mp.gamma
        dougall = ((L + a) / (s + a) * g(L + 1)
                   / (g(k + 1) * g(l - k + 1) * g(lp - k + 1))
                   * g(a + k) * g(a + l - k) * g(a + lp - k) / g(a) ** 2
                   * g(2 * a + s) / (g(a + s) * g(2 * a + L)))
        return (degeneracy(d, l) * degeneracy(d, lp) / volume(d)
                * gegenbauer_at_one(a, L) / degeneracy(d, L) * dougall
                / (gegenbauer_at_one(a, l) * gegenbauer_at_one(a, lp)))


def relative_error(got, want):
    """|got - want| / |want| in 40-digit arithmetic, as a float."""
    with mp.workdps(DIGITS):
        return float(abs(mpf(float(got)) - want) / abs(want))


def cubic_trace(d, coeffs, exps, gamma, lcut):
    """The truncated cubic trace of a zonal density with coefficients
    {L: c_L}, block by block: the sum over m2 <= lcut of g_{d-1}(m2) times
    the sum over coupled (L1, L2, L3) of c_L1 c_L2 c_L3 tr(D0 W_L2 D1 W_L3
    D2 W_L1), W_L the block's couplings on its degrees m2..lcut and D_k
    the weights 1/(lambda + gamma)^(e_k + 1), l = 0 left out without gamma.

    W_L(n, n') of the block is [Vol(S^{d-1}) h(L, a)]^(-1/2) C_L^a(J)[n, n'],
    a = (d-1)/2, J the Jacobi matrix of the orthonormal Gegenbauer
    polynomials of order m2 + a (Golub & Welsch 1969), its entries
    sqrt(n (n + 2 lam - 1) / (4 (n + lam) (n + lam - 1))), and C_L^a
    taken by the three-term recurrence on dense matrices large enough
    that no entry read meets their edge."""
    with mp.workdps(DIGITS):
        a = mpf(d - 1) / 2
        top = max(coeffs)
        degs = sorted(coeffs)
        triples = [(x, y, z) for x in degs for y in degs for z in degs
                   if (x + y + z) % 2 == 0 and abs(x - y) <= z <= x + y]
        shift = 0 if gamma is None else mpf(gamma)
        total = mpf(0)
        for m2 in range(lcut + 1):
            lam = m2 + a
            size = lcut - m2 + 1 + top
            b = [mpf(0)] + [mp.sqrt(n * (n + 2 * lam - 1)
                                    / (4 * (n + lam) * (n + lam - 1)))
                            for n in range(1, size)] + [mpf(0)]
            prev, cur = None, [[mpf(int(i == j)) for j in range(size)]
                               for i in range(size)]
            W = {}
            for k in range(1, top + 1):
                # (J C)[i][j] = b_i C[i-1][j] + b_(i+1) C[i+1][j]
                step = [[(b[i] * cur[i - 1][j] if i else 0)
                         + (b[i + 1] * cur[i + 1][j] if i + 1 < size else 0)
                         for j in range(size)] for i in range(size)]
                new = [[(2 * (k + a - 1) * step[i][j]
                         - (k + 2 * a - 2) * (prev[i][j] if prev else 0)) / k
                        for j in range(size)] for i in range(size)]
                prev, cur = cur, new
                if k in coeffs:
                    h = (mp.pi * mpf(2) ** (1 - 2 * a) * mp.gamma(k + 2 * a)
                         / (mp.factorial(k) * (k + a) * mp.gamma(a) ** 2))
                    scale = mpf(coeffs[k]) / mp.sqrt(volume(d - 1) * h)
                    W[k] = [[scale * v for v in row] for row in cur]
            ls = range(m2, lcut + 1)
            D = [[(0 if l < (1 if gamma is None else 0)
                   else 1 / (l * (l + d - 1) + shift) ** (e + 1)) for l in ls]
                 for e in exps]
            n = len(ls)
            block = mpf(0)
            for L1, L2, L3 in triples:
                for i in range(n):
                    for j in range(max(0, i - L2), min(n, i + L2 + 1)):
                        for k in range(max(0, j - L3), min(n, j + L3 + 1)):
                            block += (D[0][i] * W[L2][i][j] * D[1][j]
                                      * W[L3][j][k] * D[2][k] * W[L1][k][i])
            g = (1 if m2 == 0 else 2) if d == 2 else (
                math.comb(m2 + d - 2, m2) + math.comb(m2 + d - 3, m2 - 1)
                if m2 else 1)
            total += g * block
        return total
