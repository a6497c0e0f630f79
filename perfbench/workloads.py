"""The benchmark's four workloads.

Each workload turns a seed into inputs and a fixed list of operations.  The
seed moves values only (coefficients, kappa, rotation axes), never sizes,
cutoffs or the number and order of operations, so every seed asks for the
same work.  Every operation carries a check of its output against a value
computed apart from the program (`oracle`) or against a property the method
must have; checks run after the timed rounds.
"""

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

import oracle

EPS = np.finfo(float).eps
# Rounding allowance on a value that should equal a closed form.
ROUNDING = 64 * EPS
# |exact - hybrid| may reach this many times the head/tail split's error on
# the round sphere; 1.84 is the largest ratio seen over 25 seeds of the
# exact-bands zonal densities at REFERENCE_LMAX.
HYBRID_FACTOR = 4.0
# ... plus this many times the engine's own trunc_error.  At d = 5 the
# cubic trace's real truncation error is up to 4 times the trunc_error it
# reports, and it falls off only like 1/ell_cut (see FOUND in CHANGES.md);
# over 40 seeds the deviation beyond the model term reached 3.5 of them.
TRUNC_FACTOR = 8.0
# Cutoff of the oracle's spectrum behind the bound and hybrid checks; the
# cubic trace's references are finer, where the model error is largest.
REFERENCE_LMAX = 150
CUBIC_REFERENCE_LMAX = {3: 100, 4: 200, 5: 300}
# Criterion 4 (gamma route) and criterion 7 (hybrid at d=3) tolerances.
SHIFTED_TOL = 1e-6
SHIFTED_LEAD_TOL = 1e-3
HYBRID_D3_TOL = 2e-3
# Variational spectra against the oracle's, relative to max(1, E).
SPECTRUM_TOL = 1e-10
# A numerical zero mode, relative to the top of the spectrum.
ZERO_TOL = 1e-10
# epsilon_recursive against epsilon_closed (criterion 5).
EPSILON_TOL = 1e-10

TILT_PAIRS = ((3, 2), (3, 3), (4, 3), (5, 3))
SHIFTS = (1e-3, 1e-4)


class Op:
    """One operation of a workload: a call and the check of its output."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class CheckFailed(Exception):
    pass


def require(condition, message, *args):
    if not condition:
        raise CheckFailed(message % args)


def lazy(compute):
    """Memoize a reference value: computed at the first check, then kept."""
    box = []

    def get():
        if not box:
            box.append(compute())
        return box[0]
    return get


# ----------------------------------------------------------------------
# inputs


def random_zonal(rng, d, degrees):
    """Zonal coefficients {L: c_L} with random signs and sizes.

    They are scaled so that sum_L |c_L| max|Y_{L,0}| is a random fill in
    [0.3, 0.7]; Sigma therefore stays above 0.3 everywhere.
    """
    raw = {L: rng.uniform(0.3, 1.0) * float(rng.choice((-1.0, 1.0)))
           for L in degrees}
    worst = sum(abs(c) * math.sqrt(oracle.degeneracy(d, L)
                                   / oracle.sphere_volume(d))
                for L, c in raw.items())
    fill = rng.uniform(0.3, 0.7)
    return {L: float(c * fill / worst) for L, c in raw.items()}


def kappa_grid(rng, count):
    """One kappa in each of `count` equal strata of [0, 2], away from 0."""
    width = 2.0 / count
    return [float(width * (j + rng.uniform(0.1, 0.9))) for j in range(count)]


def random_axis(rng, d):
    axis = rng.standard_normal(d + 1)
    return axis / np.linalg.norm(axis)


def rotated_tilt(d, kappa, axis):
    """Sigma = 1 + kappa Y_{1,0} turned so that its pole points along axis.

    Degree-1 harmonics are the coordinates x_1..x_{d+1} times
    sqrt((d+1)/Vol): m = (1,..,1,0,..,0) with j-1 ones is x_j for j < d,
    and m = (1,..,1,+-1) are -+(x_d +- i x_{d+1}) / sqrt(2) in the same
    units.  Returns JSON-ready entries {ell, m, re, im}.
    """
    entries = []
    for j in range(1, d):
        m = [1] * (j - 1) + [0] * (d - j)
        entries.append({"ell": 1, "m": m, "re": kappa * axis[j - 1],
                        "im": 0.0})
    plus = -kappa * complex(axis[d - 1], -axis[d]) / math.sqrt(2.0)
    minus = kappa * complex(axis[d - 1], axis[d]) / math.sqrt(2.0)
    entries.append({"ell": 1, "m": [1] * (d - 1),
                    "re": plus.real, "im": plus.imag})
    entries.append({"ell": 1, "m": [1] * (d - 2) + [-1],
                    "re": minus.real, "im": minus.imag})
    return [{k: (float(v) if isinstance(v, (float, np.floating)) else v)
             for k, v in e.items()} for e in entries]


def as_coeffs(pkg, d, entries):
    return [(pkg.harmonics.HarmonicIndex(d, e["ell"], tuple(e["m"])),
             complex(e["re"], e["im"])) for e in entries]


def run_cli(pkg, argv):
    """cli.main in-process, with its standard output captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = pkg.cli.main(argv)
    return code, buffer.getvalue()


def cli_rows(output):
    code, text = output
    require(code == 0, "CLI exited with %r", code)
    return list(csv.DictReader(io.StringIO(text)))


# ----------------------------------------------------------------------
# checks


def check_closed_form(value, trunc_error, reference):
    require(math.isfinite(value), "value %r is not finite", value)
    tol = trunc_error + ROUNDING * abs(reference)
    require(abs(value - reference) <= tol,
            "value %.17g differs from the closed form %.17g by %.3g > %.3g",
            value, reference, abs(value - reference), tol)


def check_bounds(out, ref):
    """Min-max lower bound and hybrid agreement against oracle.reference."""
    value = out.value
    require(math.isfinite(value), "value %r is not finite", value)
    lower = ref["lower"]
    require(value >= lower - ROUNDING * abs(lower),
            "value %.17g is below the Rayleigh-Ritz bound %.17g", value, lower)
    tol = HYBRID_FACTOR * ref["model_error"] + TRUNC_FACTOR * out.trunc_error
    require(abs(value - ref["hybrid"]) <= tol,
            "value %.17g differs from head + Weyl tail %.17g by %.3g > %.3g",
            value, ref["hybrid"], abs(value - ref["hybrid"]), tol)


def check_spectrum(d, ell_max, values, mults, exact, p, reference):
    """Zero mode, basis count, min-max partial sum, oracle agreement."""
    values = np.asarray(values, dtype=float)
    mults = np.asarray(mults, dtype=int)
    require(int(mults.sum()) == oracle.basis_size(d, ell_max),
            "spectrum holds %d levels, the basis has %d",
            int(mults.sum()), oracle.basis_size(d, ell_max))
    zero = np.abs(values) <= ZERO_TOL * max(1.0, float(np.max(values)))
    require(int(mults[zero].sum()) == 1,
            "spectrum holds %d numerical zero modes, not 1",
            int(mults[zero].sum()))
    partial = float(np.sum(mults[~zero] * values[~zero] ** -float(p)))
    require(partial <= exact * (1.0 + ROUNDING),
            "variational sum %.17g exceeds the exact Z_%d %.17g",
            partial, p, exact)
    want_values, want_mults = reference
    got = np.repeat(values, mults)
    want = np.repeat(want_values, want_mults)
    require(got.shape == want.shape, "spectrum size differs from the oracle")
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, want)))
    require(err <= SPECTRUM_TOL,
            "spectrum differs from the oracle's by %.3g", err)


def check_hybrid(d, ell_max, value, reference_value):
    require(math.isfinite(value), "value %r is not finite", value)
    if d == 3 and ell_max >= 30:
        require(abs(value - reference_value) <= HYBRID_D3_TOL,
                "hybrid %.17g is more than 2e-3 from the closed form %.17g",
                value, reference_value)
    tol = HYBRID_FACTOR * oracle.model_error(d, 3, ell_max)
    require(abs(value - reference_value) <= tol,
            "hybrid %.17g differs from the closed form %.17g by %.3g > %.3g",
            value, reference_value, abs(value - reference_value), tol)


# ----------------------------------------------------------------------
# workloads


def exact_cubic(pkg, rng, workdir):
    """sum_rule(d, 3) at the default cutoff on zonal densities with
    coupled degree triples: the cubic trace dominates."""
    ops = []
    for d in (3, 4, 5):
        coeffs = random_zonal(rng, d, (1, 2, 3))
        density = pkg.DensitySpec.zonal(d, coeffs)
        ref = lazy(lambda d=d, c=coeffs: oracle.reference(
            d, 3, c, CUBIC_REFERENCE_LMAX[d]))
        ops.append(Op(
            "sum_rule d=%d p=3 zonal L=1,2,3" % d,
            lambda d=d, den=density: pkg.sumrules.sum_rule(d, 3, den),
            lambda out, ref=ref: check_bounds(out, ref())))
    return ops


def exact_bands(pkg, rng, workdir):
    """The exact engine without a cubic trace: tilts, multi-degree p=2
    zonal densities, single odd-degree p=3 zonal densities, the gamma
    route and single-kappa `exact` CLI calls."""
    ops = []
    closed = pkg.sumrules.closed_form_reference
    for d, p in TILT_PAIRS:
        for kappa in kappa_grid(rng, 4):
            density = pkg.DensitySpec.tilted(d, kappa)
            ops.append(Op(
                "sum_rule d=%d p=%d tilt" % (d, p),
                lambda d=d, p=p, den=density: pkg.sumrules.sum_rule(d, p, den),
                lambda out, d=d, p=p, k=kappa: check_closed_form(
                    out.value, out.trunc_error, closed(d, p, k))))
    for degrees in ((1, 2), (1, 3), (1, 2, 3), (2, 3, 4)):
        coeffs = random_zonal(rng, 3, degrees)
        density = pkg.DensitySpec.zonal(3, coeffs)
        ref = lazy(lambda c=coeffs: oracle.reference(3, 2, c, REFERENCE_LMAX))
        ops.append(Op(
            "sum_rule d=3 p=2 zonal L=%s" % ",".join(map(str, degrees)),
            lambda den=density: pkg.sumrules.sum_rule(3, 2, den),
            lambda out, ref=ref: check_bounds(out, ref())))
    for d in (3, 4, 5):
        coeffs = random_zonal(rng, d, (3,))
        density = pkg.DensitySpec.zonal(d, coeffs)
        ref = lazy(lambda d=d, c=coeffs: oracle.reference(
            d, 3, c, REFERENCE_LMAX))
        ops.append(Op(
            "sum_rule d=%d p=3 zonal L=3" % d,
            lambda d=d, den=density: pkg.sumrules.sum_rule(d, 3, den),
            lambda out, ref=ref: check_bounds(out, ref())))
    for d, p in TILT_PAIRS:
        kappa = kappa_grid(rng, 1)[0]
        density = pkg.DensitySpec.tilted(d, kappa)
        ops.append(Op(
            "sum_rule_shifted d=%d p=%d tilt" % (d, p),
            lambda d=d, p=p, den=density: [
                pkg.sumrules.sum_rule_shifted(d, p, den, g) for g in SHIFTS],
            lambda out, d=d, p=p, k=kappa: check_shifted(
                p, out, closed(d, p, k))))
    for d, p in TILT_PAIRS:
        kappa = kappa_grid(rng, 1)[0]
        argv = ["exact", "--d", str(d), "--p", str(p), "--kappa", repr(kappa)]
        ops.append(Op(
            "cli exact d=%d p=%d" % (d, p),
            lambda argv=argv: run_cli(pkg, argv),
            lambda out, d=d, p=p, k=kappa: check_cli_exact(
                out, closed(d, p, k))))
    return ops


def check_shifted(p, out, reference):
    (g1, g2), (z1, z2) = SHIFTS, out
    for gamma, z in zip(SHIFTS, out):
        lead = z["Z"] * gamma ** p
        require(abs(lead - 1.0) <= SHIFTED_LEAD_TOL,
                "gamma^p Z = %.6g at gamma=%g, not 1", lead, gamma)
    extrap = (g1 * z2["Z_renorm"] - g2 * z1["Z_renorm"]) / (g1 - g2)
    require(abs(extrap - reference) <= SHIFTED_TOL,
            "gamma -> 0 extrapolation %.17g is %.3g from the closed form",
            extrap, abs(extrap - reference))


def check_cli_exact(out, reference):
    rows = cli_rows(out)
    require(len(rows) == 1, "expected one row, got %d", len(rows))
    row = rows[0]
    require(float(row["reference"]) == reference,
            "reference column %s is not the closed form %.17g",
            row["reference"], reference)
    check_closed_form(float(row["value"]), float(row["trunc_error"]),
                      reference)


def variational(pkg, rng, workdir):
    """The Rayleigh-Ritz route: hybrid estimates, zonal block spectra, and
    single-point `hybrid` and `spectrum` CLI calls."""
    ops = []
    closed = pkg.sumrules.closed_form_reference
    cases = ((3, 30), (3, 60), (3, 100), (3, 150), (4, 40), (4, 60),
             (5, 30), (5, 40))
    for (d, ell_max), kappa in zip(cases, kappa_grid(rng, len(cases))):
        ops.append(Op(
            "hybrid_sum_rule d=%d lmax=%d" % (d, ell_max),
            lambda d=d, l=ell_max, k=kappa: pkg.weyl.hybrid_sum_rule(d, 3, k, l),
            lambda out, d=d, l=ell_max, k=kappa: check_hybrid(
                d, l, out.value, closed(d, 3, k))))
    for d, ell_max, degrees, p in ((3, 60, (1, 2, 3), 2), (3, 40, (1, 2), 2),
                                   (4, 40, (1, 3), 3), (5, 30, (1, 3), 3)):
        coeffs = random_zonal(rng, d, degrees)
        density = pkg.DensitySpec.zonal(d, coeffs)
        exact = lazy(lambda d=d, p=p, den=density:
                     pkg.sumrules.sum_rule(d, p, den).value)
        ref = lazy(lambda d=d, c=coeffs, l=ell_max:
                   oracle.zonal_spectrum(d, c, l))
        ops.append(Op(
            "assemble+solve_spectrum d=%d lmax=%d zonal L=%s"
            % (d, ell_max, ",".join(map(str, degrees))),
            lambda d=d, l=ell_max, den=density: pkg.rayleigh_ritz.solve_spectrum(
                pkg.rayleigh_ritz.assemble(d, l, den)),
            lambda out, d=d, l=ell_max, p=p, exact=exact, ref=ref:
                check_spectrum(d, l, out.values, out.multiplicities, exact(),
                               p, ref())))
    kappa = kappa_grid(rng, 1)[0]
    argv = ["hybrid", "--d", "3", "--p", "3", "--kappa", repr(kappa),
            "--lmax", "40"]
    ops.append(Op("cli hybrid d=3 lmax=40", lambda argv=argv: run_cli(pkg, argv),
                  lambda out, k=kappa: check_cli_hybrid(out, closed(3, 3, k))))
    for d, ell_max in ((3, 40), (4, 30)):
        kappa = kappa_grid(rng, 1)[0]
        argv = ["spectrum", "--d", str(d), "--lmax", str(ell_max),
                "--kappa", repr(kappa)]
        ref = lazy(lambda d=d, k=kappa, l=ell_max:
                   oracle.zonal_spectrum(d, {1: k}, l))
        ops.append(Op(
            "cli spectrum d=%d lmax=%d" % (d, ell_max),
            lambda argv=argv: run_cli(pkg, argv),
            lambda out, d=d, l=ell_max, k=kappa, ref=ref: check_cli_spectrum(
                d, l, out, closed(d, 3, k), ref())))
    return ops


def check_cli_hybrid(out, reference):
    rows = cli_rows(out)
    require(len(rows) == 1, "expected one row, got %d", len(rows))
    row = rows[0]
    check_hybrid(3, 40, float(row["hybrid"]), reference)
    require(abs(float(row["exact"]) - reference) <= 1e-12,
            "exact column %s is not the closed form %.17g",
            row["exact"], reference)


def check_cli_spectrum(d, ell_max, out, exact, reference):
    rows = cli_rows(out)
    check_spectrum(d, ell_max, [float(r["E_n"]) for r in rows],
                   [int(r["multiplicity"]) for r in rows], exact, 3,
                   reference)


def nonzonal(pkg, rng, workdir):
    """Tilts about a random axis: the generic coupling_W path, full-matrix
    assembly, the non-zonal positivity check, epsilon_recursive and a
    `spectrum --coeffs` CLI call."""
    ops = []
    closed = pkg.sumrules.closed_form_reference
    for d, p in TILT_PAIRS:
        kappa = kappa_grid(rng, 1)[0]
        entries = as_coeffs(pkg, d, rotated_tilt(d, kappa, random_axis(rng, d)))
        ops.append(Op(
            "from_coeffs+sum_rule d=%d p=%d rotated tilt" % (d, p),
            lambda d=d, p=p, e=entries: pkg.sumrules.sum_rule(
                d, p, pkg.DensitySpec.from_coeffs(d, e)),
            lambda out, d=d, p=p, k=kappa: check_closed_form(
                out.value, out.trunc_error, closed(d, p, k))))
    for d, ell_max in ((3, 4), (4, 3)):
        kappa = kappa_grid(rng, 1)[0]
        density = pkg.DensitySpec.from_coeffs(d, as_coeffs(
            pkg, d, rotated_tilt(d, kappa, random_axis(rng, d))))
        ref = lazy(lambda d=d, k=kappa, l=ell_max:
                   oracle.zonal_spectrum(d, {1: k}, l))
        ops.append(Op(
            "assemble+solve_spectrum d=%d lmax=%d full" % (d, ell_max),
            lambda d=d, l=ell_max, den=density: pkg.rayleigh_ritz.solve_spectrum(
                pkg.rayleigh_ritz.assemble(d, l, den)),
            lambda out, d=d, l=ell_max, k=kappa, ref=ref: check_spectrum(
                d, l, out.values, out.multiplicities, closed(d, 3, k), 3,
                ref())))
    kappa = kappa_grid(rng, 1)[0]
    density = pkg.DensitySpec.from_coeffs(3, as_coeffs(
        pkg, 3, rotated_tilt(3, kappa, random_axis(rng, 3))))
    eps = lazy(lambda den=density: pkg.sumrules.epsilon_closed(den).eps)
    for order in (2, 3):
        ops.append(Op(
            "epsilon_recursive d=3 order=%d" % order,
            lambda k=order, den=density: pkg.sumrules.epsilon_recursive(den, k),
            lambda out, k=order: check_epsilon(out, eps()[k - 1])))
    kappa = kappa_grid(rng, 1)[0]
    path = os.path.join(workdir, "coeffs-%d.json" % os.getpid())
    with open(path, "w") as handle:
        json.dump(rotated_tilt(3, kappa, random_axis(rng, 3)), handle)
    argv = ["spectrum", "--d", "3", "--lmax", "4", "--coeffs", path]
    ref = lazy(lambda k=kappa: oracle.zonal_spectrum(3, {1: k}, 4))
    ops.append(Op(
        "cli spectrum --coeffs d=3 lmax=4",
        lambda argv=argv: run_cli(pkg, argv),
        lambda out, k=kappa, ref=ref: check_cli_spectrum(
            3, 4, out, closed(3, 3, k), ref())))
    return ops


def check_epsilon(value, closed):
    require(abs(value - closed) <= EPSILON_TOL,
            "epsilon_recursive %.17g differs from epsilon_closed %.17g",
            value, closed)


# name -> (make_ops, worker processes per run).  An exact-cubic round
# takes about 10 s, so that workload runs in one process.
WORKLOADS = {
    "exact-cubic": (exact_cubic, 1),
    "exact-bands": (exact_bands, 2),
    "variational": (variational, 2),
    "nonzonal": (nonzonal, 2),
}
