"""Variational estimates for the weighted Laplacian spectrum on the d-sphere.

Projecting -Delta psi = E Sigma psi onto hyperspherical harmonics of degree
ell <= ell_max gives the generalized symmetric eigenproblem A x = E B x with
A = diag(lambda_ell) and overlap B_ij = delta_ij + sum_c c * W(i, j, c).
The computed eigenvalues bound the true ones from above and sink
monotonically as the basis grows.  For a zonal density the overlap couples
only harmonics sharing an m-vector and depends on it only through the
leading entry m2, so the problem splits into blocks of size
ell_max - m2 + 1, each carrying the degeneracy of the sphere one dimension
down as its multiplicity; that fast path turns one dense solve of dimension
in the tens of thousands into ell_max + 1 small ones.

Each zonal block's B is banded, of bandwidth the density's top degree,
and every block is built by one builder from one Jacobi band recurrence
per chunk of m2 rows.  In the blocks with m2 >= 1 every lambda_ell
is positive, so the pencil is the symmetric band matrix A^{-1/2} B A^{-1/2},
whose eigenvalues are 1/E: those blocks keep B in band storage and are
solved as band problems.  The m2 = 0 block, which holds the zero mode, is
expanded from its bands into a dense matrix; the full non-zonal matrix is
dense too.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from . import harmonics
from .density import DensitySpec, check_density
from .errors import (NonConvergenceError, ValidationError, check_bytes,
                     check_integer, check_real)

ZERO_MODE_TOL = 1e-10
# m2 rows per Jacobi band recurrence in zonal block assembly
_BAND_CHUNK_ROWS = 64


def basis_size(d, ell_max):
    """Number of harmonics with degree <= ell_max on S^d (exact integer)."""
    d = check_integer(d, "sphere dimension d", least=2, most=None)
    ell_max = check_integer(ell_max, "ell_max", most=None)
    total = math.comb(d + ell_max, ell_max)
    if ell_max >= 1:
        total += math.comb(d + ell_max - 1, ell_max - 1)
    return total


def truncated_basis(d, ell_max):
    """Degree-ordered harmonic indices with degree <= ell_max; within a
    degree, lexicographic m."""
    indices = tuple(harmonics.HarmonicIndex(d, ell, m)
                    for ell in range(ell_max + 1)
                    for m in harmonics.enumerate_m(d, ell))
    if len(indices) != basis_size(d, ell_max):
        raise ValidationError("basis enumeration does not match the closed "
                              "count for d=%d, ell_max=%d" % (d, ell_max))
    return indices


@dataclass(frozen=True)
class ProblemBlock:
    """One invariant block: A = diag(stiffness), overlap B, and how many
    identical copies of it the full problem contains.

    storage says how overlap holds B: "dense" is the n x n matrix, "band"
    the lower band overlap[o, j] = B[j + o, j] (zero where j + o >= n), the
    layout of `scipy.linalg.eig_banded` with lower=True.
    """

    label: int
    multiplicity: int
    stiffness: np.ndarray
    overlap: np.ndarray
    storage: str


@dataclass(frozen=True)
class GeneralizedProblem:
    """Truncated weak form A x = E B x, possibly split into blocks."""

    d: int
    ell_max: int
    blocks: tuple
    density: DensitySpec


def _check_spd(overlap, storage, what):
    try:
        if storage == "band":
            linalg.cholesky_banded(overlap, lower=True)
        else:
            np.linalg.cholesky(overlap)
    except linalg.LinAlgError:
        raise ValidationError(
            "the density is not positive on the truncated subspace: "
            "Cholesky factorization of the %s overlap failed" % (what,))


def sigma_pairs(density, basis, I, J):
    """<basis[i]|sigma|basis[j]> for every pair (i, j) = (I[k], J[k]).

    Each value is the sum over the density's coefficients c of
    c W(basis[i], basis[j], c), accumulated in entry order, as a complex
    array aligned with I and J.  The azimuthal, triangle and parity rules
    are applied to the pairs' (ell, m_d) arrays once per coefficient, before
    any coupling is evaluated; the couplings of every coefficient's
    surviving pairs are then evaluated together, each basis index's
    normalization taken once and each distinct level integral once.  Their
    working set, linear in the number of surviving pairs, is held to
    `errors.MAX_BYTES` before any coupling is evaluated.
    """
    I, J = np.asarray(I, dtype=int), np.asarray(J, dtype=int)
    ell = np.array([h.ell for h in basis], dtype=int)
    md = np.array([h.m_d for h in basis], dtype=int)
    # the degree ell - |m[0]| of an index's first-level Gegenbauer factor
    first = ell - np.array([abs(h.m[0]) for h in basis], dtype=int)
    ell_i, md_i, ell_j, md_j = ell[I], md[I], ell[J], md[J]
    hits = [np.flatnonzero(harmonics._selection_mask(
        ell_i, md_i, ell_j, md_j, cidx)) for cidx, _ in density.entries]
    sizes = [h.size for h in hits]
    sigma = np.zeros(len(I), dtype=complex)
    if not sum(sizes):
        return sigma
    # 8 (20 d + 48) bytes per term: the gathered slot data, the stacked
    # chains, the level keys and their sort; and 32 bytes per node of its
    # first-level integral, (n1 + n2 + n3) // 2 + 4 nodes: the three
    # factors gathered on them and their product.  Those integrals are
    # nearly all distinct at d = 2, where the node count grows with the
    # cutoff (tracemalloc reads 480-770 bytes per term at d = 3..5 and
    # 620-1120 at d = 2 up to ell_max = 75, over pairs that all pass the
    # selection rules for some entry)
    nodes = sum(int(((first[I[h]] + first[J[h]] + cidx.ell - abs(cidx.m[0]))
                     // 2 + 4).sum())
                for (cidx, _), h in zip(density.entries, hits))
    check_bytes(8 * (20 * density.d + 48) * sum(sizes) + 32 * nodes,
                "the coupling pass over %d overlap terms" % sum(sizes))
    pairs = np.concatenate(hits)
    used, at = np.unique(np.concatenate([I[pairs], J[pairs]]),
                         return_inverse=True)
    data = harmonics._slots([basis[n] for n in used.tolist()])
    entry = np.repeat(np.arange(len(hits)), sizes)
    entries = harmonics._slots([cidx for cidx, _ in density.entries])
    w = harmonics._couplings([a[at[:pairs.size]] for a in data],
                             [a[at[pairs.size:]] for a in data],
                             [a[entry] for a in entries])
    for (_, c), h, wc in zip(density.entries, hits,
                             np.split(w, np.cumsum(sizes)[:-1])):
        sigma[h] += c * wc
    return sigma


def _assemble_full(d, ell_max, density):
    complex_density = any(abs(complex(c).imag) > 0 for _, c in density.entries)
    # the dense overlap and its Cholesky factor, before any enumeration
    n = basis_size(d, ell_max)
    check_bytes(2 * n * n * (16 if complex_density else 8),
                "the full %d x %d overlap at ell_max=%d" % (n, n, ell_max))
    idx = truncated_basis(d, ell_max)
    ell = np.array([h.ell for h in idx])
    # pairs i <= j; past the density's top degree the triangle rule makes
    # every coupling an exact zero
    I, J = np.nonzero(np.triu(ell[None, :] - ell[:, None] <= density.ell_max))
    sigma = sigma_pairs(density, idx, I, J)
    # only nonzero elements are written, so untouched zeros keep their sign
    hit = sigma != 0
    I, J, sigma = I[hit], J[hit], sigma[hit]
    overlap = np.eye(n, dtype=complex if complex_density else float)
    overlap[I, J] += sigma if complex_density else sigma.real
    overlap[J, I] = np.conj(overlap[I, J])
    _check_spd(overlap, "dense", "full")
    stiffness = np.array([harmonics.eigenvalue(d, h.ell) for h in idx],
                         dtype=float)
    block = ProblemBlock(-1, 1, stiffness, overlap, "dense")
    return GeneralizedProblem(d, ell_max, (block,), density)


def _band_to_dense(band):
    """The symmetric matrix behind lower band storage."""
    n = band.shape[1]
    dense = np.zeros((n, n))
    for o, row in enumerate(band):
        i = np.arange(n - o)
        dense[i + o, i] = dense[i, i + o] = row[:n - o]
    return dense


def _zonal_blocks(d, ell_max, zc, stop=None):
    """The blocks m2 < stop (default ell_max + 1, every block) of a zonal
    density with coefficients zc = {L: c_L}.

    The bands come from one `harmonics._zonal_bands` recurrence per chunk
    of m2 rows, which gives every degree's bands of its own parity; each
    entry is 1 on the diagonal plus c_L w_L over the degrees in turn.  A
    block of size n keeps min(bandwidth, n - 1) + 1 rows in band storage.
    The m2 = 0 block holds the zero mode, whose zero stiffness rules out
    the band solve, so its bands are expanded into the symmetric dense
    matrix.
    """
    if stop is None:
        stop = ell_max + 1
    check_bytes(2 * 8 * (ell_max + 1) ** 2,
                "the dense m2 = 0 block at ell_max=%d" % ell_max)
    width = max(zc, default=0)
    offsets = np.arange(width + 1).reshape(-1, 1, 1)
    blocks = []
    for first in range(0, stop, _BAND_CHUNK_ROWS):
        m2 = np.arange(first, min(first + _BAND_CHUNK_ROWS, stop))
        size = ell_max - first + 1
        bands = np.zeros((width + 1, len(m2), size))
        bands[0] = 1.0
        diags = harmonics._zonal_bands(d, zc, m2, size)
        for L, c in zc.items():
            bands[L % 2:L + 1:2] += c * diags[L]
        # entries coupling to a degree past the cut lie outside the block
        bands[m2[:, None] + np.arange(size) + offsets > ell_max] = 0.0
        for r, m in enumerate(m2.tolist()):
            n = ell_max - m + 1
            rows = min(width, n - 1) + 1
            overlap = np.ascontiguousarray(bands[:rows, r, :n])
            storage = "band"
            if m == 0:
                overlap, storage = _band_to_dense(overlap), "dense"
            _check_spd(overlap, storage, "m2=%d block" % m)
            ls = np.arange(m, ell_max + 1)
            blocks.append(ProblemBlock(m, harmonics.degeneracy(d - 1, m),
                                       ls * (ls + d - 1.0), overlap, storage))
    return blocks


def _assemble_zonal(d, ell_max, density):
    blocks = tuple(_zonal_blocks(d, ell_max, density.zonal_coeffs()))
    return GeneralizedProblem(d, ell_max, blocks, density)


def assemble(d, ell_max, density, mode=None):
    """Build the truncated generalized eigenproblem for the given density.

    mode is "full" (one dense matrix over every harmonic), "zonal_blocks"
    (per-m2 blocks, zonal densities only), or None to pick the fast path
    automatically.
    """
    check_density(density, d)
    ell_max = check_integer(ell_max, "ell_max")
    if mode is None:
        mode = "zonal_blocks" if density.is_zonal else "full"
    if mode == "full":
        return _assemble_full(d, ell_max, density)
    if mode == "zonal_blocks":
        if not density.is_zonal:
            raise ValidationError("zonal block assembly needs a zonal "
                                  "density; use mode='full'")
        return _assemble_zonal(d, ell_max, density)
    raise ValidationError("mode must be 'full' or 'zonal_blocks', got %r"
                          % (mode,))


@dataclass(frozen=True)
class SpectrumEstimate:
    """Sorted variational eigenvalues with multiplicities.

    values holds one entry per (eigenvalue, block) pair; multiplicities
    counts the identical copies each entry stands for, so the total count
    with multiplicity equals the basis size.
    """

    d: int
    ell_max: int
    values: np.ndarray
    multiplicities: np.ndarray
    block_labels: np.ndarray
    density: DensitySpec

    @property
    def total_count(self):
        return int(self.multiplicities.sum())

    def expand(self):
        """Eigenvalues repeated according to multiplicity, ascending."""
        return np.repeat(self.values, self.multiplicities)

    def rows(self):
        """Deterministic export rows (n, E_n, multiplicity, block_m2)."""
        return [(n, float(self.values[n]), int(self.multiplicities[n]),
                 int(self.block_labels[n])) for n in range(len(self.values))]


def _scaled_band(block):
    """A^{-1/2} B A^{-1/2} in the lower band storage of the block's B."""
    s = block.stiffness ** -0.5
    scaled = block.overlap * s
    for o in range(len(scaled)):
        scaled[o, :len(s) - o] *= s[o:]
    return scaled


def solve_spectrum(problem):
    """All generalized eigenvalues of the problem, merged across blocks.

    A dense block is solved by `linalg.eigh` on the pencil (A, B).  A band
    block has A > 0 and is solved as the symmetric band matrix
    A^{-1/2} B A^{-1/2}, whose eigenvalues mu give E = 1/mu.  Blocks are
    independent; the merge sorts by (eigenvalue, block label), stably, so
    the result is deterministic.
    """
    values, mults, labels = [], [], []
    for block in problem.blocks:
        try:
            if block.storage == "band":
                vals = 1.0 / linalg.eig_banded(_scaled_band(block),
                                               lower=True, eigvals_only=True)
            else:
                a = np.diag(block.stiffness).astype(block.overlap.dtype)
                vals = linalg.eigh(a, block.overlap, eigvals_only=True)
        except linalg.LinAlgError as exc:
            raise NonConvergenceError(
                "generalized eigensolve failed on block %r: %s"
                % (block.label, exc))
        values.append(vals)
        mults.append(np.full(len(vals), block.multiplicity, dtype=int))
        labels.append(np.full(len(vals), block.label, dtype=int))
    values, mults, labels = (np.concatenate(a) for a in (values, mults,
                                                           labels))
    order = np.lexsort((labels, values))
    return SpectrumEstimate(problem.d, problem.ell_max, values[order],
                            mults[order], labels[order], problem.density)


def partial_sum(spectrum, p, count):
    """Sum of 1/E^p over the lowest `count` nonzero eigenvalues.

    The single zero mode (the constant solves the problem with E = 0) is
    skipped automatically; eigenvalues are consumed in ascending order with
    their multiplicities.
    """
    check_real(p, "power p")
    count = check_integer(count, "count of nonzero eigenvalues",
                          most=spectrum.total_count - 1)
    scale = max(1.0, float(abs(spectrum.values[-1])))
    if abs(spectrum.values[0]) > ZERO_MODE_TOL * scale:
        raise ValidationError(
            "lowest computed eigenvalue %g is not a numerical zero mode; "
            "refusing to drop it" % spectrum.values[0])
    # entry i takes what is left of count after the entries before it,
    # up to its multiplicity; one copy of the zero mode is dropped first
    mults = np.array(spectrum.multiplicities, dtype=np.int64)
    mults[0] -= 1
    take = np.clip(count - (np.cumsum(mults) - mults), 0, mults)
    used = take > 0
    terms = take[used] / spectrum.values[used] ** p
    # cumsum adds in order, as a running total would; np.sum pairs terms
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0
