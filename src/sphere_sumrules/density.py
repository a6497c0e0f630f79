"""Positive mass densities on the d-sphere, in harmonic coefficient form.

A density is stored as Sigma = 1 + sum_{l>=1,m} c_{l,m} Y_{l,m}: the
constant part is pinned to 1, so the total mass is always Vol(S^d) and the
perturbation engine's zero-order normalizations drop out.  Validation
enforces the conjugate-symmetry pattern that keeps Sigma real, and
positivity of Sigma on a sample: a zonal Sigma on its polar profile at 2048
angles, any other Sigma at 2048 fixed pseudo-random points of S^d, turned
into angle arrays and evaluated in one vectorised pass.  The one-parameter
family Sigma = 1 + kappa Y_{1,0} (a tilt along the polar axis) gets an exact
positivity bound |kappa| < sqrt(Vol/(d+1)) instead of a sampled one.
"""

import cmath
from dataclasses import dataclass
import math

import numpy as np

from . import harmonics
from .errors import ValidationError, check_dimension, check_integer

__all__ = ["DensitySpec", "check_density", "check_kappa", "kappa_bound"]

_GRID_POINTS = 2048
_REALITY_TOL = 1e-10


def kappa_bound(d):
    """Exact positivity threshold sqrt(Vol(S^d)/(d+1)) for the tilt family."""
    return math.sqrt(harmonics.sphere_volume(d) / (d + 1))


def check_kappa(d, kappa):
    """The tilt kappa as a float inside the positivity bound on S^d."""
    d = check_integer(d, "sphere dimension d", least=2, most=None)
    try:
        kappa = float(kappa)
    except (TypeError, ValueError):
        raise ValidationError("kappa must be a number, got %r"
                              % (kappa,)) from None
    bound = kappa_bound(d)
    if not abs(kappa) < bound:
        raise ValidationError(
            "kappa=%g violates the positivity bound |kappa| < %.6g for d=%d"
            % (kappa, bound, d))
    return kappa


def _zonal_profile(d, zcoeffs, x):
    """1 + sum_L c_L Y_{L,0}(theta) on x = cos(theta), vectorized."""
    alpha = (d - 1) / 2.0
    out = np.ones_like(np.asarray(x, dtype=float))
    for L, c in zcoeffs.items():
        scale = math.sqrt(harmonics.degeneracy(d, L) / harmonics.sphere_volume(d))
        out += c.real * scale * (harmonics.gegenbauer(alpha, L, x)
                                 / harmonics.gegenbauer_at_one(alpha, L))
    return out


def _angles_from_vector(u):
    """Hyperspherical angles (theta_1..theta_{d-1}, phi) of unit vectors.

    u is one unit vector of length d+1 or an (N, d+1) array of unit rows;
    each angle comes back as a scalar or as an array of N.
    """
    comps = np.asarray(u, dtype=float).T
    angles = []
    rest = np.ones_like(comps[0])
    for comp in comps[:-2]:
        c = np.where(rest > 1e-12, np.clip(comp / rest, -1.0, 1.0), 1.0)
        angles.append(np.arccos(c))
        rest = np.maximum(rest * np.sin(angles[-1]), 1e-300)
    angles.append(np.arctan2(comps[-1], comps[-2]) % (2 * math.pi))
    return tuple(angles)


@dataclass(frozen=True)
class DensitySpec:
    """A validated density Sigma = 1 + sum c_{l,m} Y_{l,m} on S^d."""

    d: int
    entries: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "d", check_integer(
            self.d, "sphere dimension d", least=2, most=None))
        cleaned = []
        seen = set()
        for idx, c in self.entries:
            if not isinstance(idx, harmonics.HarmonicIndex):
                idx = harmonics.HarmonicIndex(*idx)
            if idx.d != self.d:
                raise ValidationError("coefficient index %r has d != %d"
                                      % (idx, self.d))
            if idx.ell == 0:
                raise ValidationError(
                    "the constant part of the density is fixed to 1; "
                    "degree-0 coefficients are not accepted")
            if idx in seen:
                raise ValidationError("duplicate coefficient for %r" % (idx,))
            seen.add(idx)
            c = complex(c)
            if not cmath.isfinite(c):
                raise ValidationError("coefficient of %r is not finite: %r"
                                      % (idx, c))
            if c != 0:
                cleaned.append((idx, c))
        cleaned.sort(key=lambda item: (item[0].ell, item[0].m))
        object.__setattr__(self, "entries", tuple(cleaned))
        self._check_reality()
        self._check_positivity()

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls, d):
        """The constant density Sigma = 1."""
        return cls(d=d, entries=())

    @classmethod
    def tilted(cls, d, kappa):
        """The one-parameter family Sigma = 1 + kappa Y_{1,0}."""
        kappa = check_kappa(d, kappa)
        if kappa == 0.0:
            return cls.uniform(d)
        idx = harmonics.HarmonicIndex(d, 1, (0,) * (d - 1))
        return cls(d=d, entries=((idx, kappa),))

    @classmethod
    def zonal(cls, d, coeffs):
        """Density 1 + sum_L c_L Y_{L,0} from {degree: real c} or a list.

        A list/array is read as (c_1, c_2, ...) starting at degree 1.
        """
        if not isinstance(coeffs, dict):
            coeffs = {L + 1: c for L, c in enumerate(coeffs)}
        entries = []
        for L, c in sorted(coeffs.items()):
            L = int(L)
            if L < 1:
                raise ValidationError("zonal degrees must be >= 1, got %r" % (L,))
            entries.append((harmonics.HarmonicIndex(d, L, (0,) * (d - 1)),
                            complex(c)))
        return cls(d=d, entries=tuple(entries))

    @classmethod
    def from_coeffs(cls, d, coeffs):
        """General density from a mapping HarmonicIndex -> complex."""
        if isinstance(coeffs, dict):
            coeffs = coeffs.items()
        return cls(d=d, entries=tuple(coeffs))

    # -- validation -----------------------------------------------------

    def _check_reality(self):
        lookup = dict(self.entries)
        for idx, c in self.entries:
            partner = idx.conjugate_partner()
            want = idx.conjugate_phase() * c.conjugate()
            have = lookup.get(partner)
            if have is None or abs(have - want) > _REALITY_TOL * max(1.0, abs(c)):
                raise ValidationError(
                    "coefficients are not conjugate-symmetric: %r needs "
                    "partner %r with value %r" % (idx, partner, want))

    def _check_positivity(self):
        if not self.entries:
            return
        if self.is_zonal:
            x = np.cos(np.linspace(0.0, math.pi, _GRID_POINTS))
            vals = _zonal_profile(self.d, self.zonal_coeffs(), x)
        else:
            rng = np.random.default_rng(20260823)
            pts = rng.standard_normal((_GRID_POINTS, self.d + 1))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            vals = self.evaluate(_angles_from_vector(pts))
        worst = float(vals.min())
        if worst <= 0.0:
            raise ValidationError(
                "density is not positive: min sampled value %.6g" % worst)

    # -- views ----------------------------------------------------------

    @property
    def is_zonal(self):
        return all(not any(idx.m) for idx, _ in self.entries)

    @property
    def ell_max(self):
        """Largest degree carrying a coefficient (0 for the uniform density)."""
        return max((idx.ell for idx, _ in self.entries), default=0)

    def zonal_coeffs(self):
        """Real coefficients {L: c_L} of a zonal density."""
        if not self.is_zonal:
            raise ValidationError("density has non-zonal components")
        return {idx.ell: c.real for idx, c in self.entries}

    def rho_by_degree(self):
        """Rotation-invariant weights {L: sum_M |c_{L,M}|^2}."""
        rho = {}
        for idx, c in self.entries:
            rho[idx.ell] = rho.get(idx.ell, 0.0) + abs(c) ** 2
        return rho

    def evaluate(self, omega):
        """Sigma at angles omega = (theta_1, ..., theta_{d-1}, phi).

        Scalar angles give a float; angle arrays of equal shape give a
        float array of that shape.
        """
        total = np.full(np.shape(omega[-1]), 1.0 + 0.0j)
        for idx, c in self.entries:
            total += c * harmonics.eval_harmonic(idx, omega)
        complex_at = (np.abs(total.imag)
                      > 1e-8 * np.maximum(1.0, np.abs(total.real)))
        if complex_at.any():
            raise ValidationError("density evaluated to a complex value %r"
                                  % (complex(total[complex_at][0]),))
        return total.real if total.ndim else float(total.real)


def check_density(obj, d=None):
    """Reject all but a DensitySpec on S^d, or on a sphere the engines
    support (d = 2..5) when no d is given."""
    if not isinstance(obj, DensitySpec):
        raise ValidationError("density must be a DensitySpec, got %r"
                              % type(obj).__name__)
    if d is None:
        check_dimension(obj.d)
    elif obj.d != d:
        raise ValidationError("density has d=%d, asked for d=%r"
                              % (obj.d, d))
