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
