"""Command-line driver for the sum-rule library.

Subcommands map onto the library's main entry points:

  exact     renormalized sum rules from the coefficient engine, swept over
            kappa, against the closed-form references where those exist
  hybrid    variational head plus Weyl tail against the exact engine
  delta     exact-vs-asymptotic tail discrepancy scan with optional fit
  spectrum  variational eigenvalues for one density
  green     kernel values over the polar angle
  validate  cross-module invariant suite

Everything is deterministic: sweeps run serially, rows are emitted in
sweep order, and floats are printed with 17 significant digits so output
files round-trip exactly.
"""

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import greens, rayleigh_ritz, sumrules, validate, weyl
from .density import DensitySpec
from .errors import (DivergentSumError, NonConvergenceError,
                     SphereSumRulesError, ValidationError, integral)
from .harmonics import HarmonicIndex


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; remap to 1 so that exit
    code 2 stays reserved for numerical failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def parse_range(text, integer=False):
    """Sweep syntax start:stop:step (stop inclusive), start:stop (step 1),
    or a single value."""
    parts = text.split(":")
    if len(parts) > 3:
        raise ValidationError("bad range %r: use start:stop:step" % (text,))
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise ValidationError("bad numeric range %r" % (text,))
    if not all(math.isfinite(v) for v in numbers):
        raise ValidationError("range %r must hold finite numbers" % (text,))
    if len(numbers) == 1:
        values = numbers
    else:
        start, stop = numbers[0], numbers[1]
        step = numbers[2] if len(numbers) == 3 else 1.0
        if step <= 0:
            raise ValidationError("range step must be positive in %r"
                                  % (text,))
        if stop < start:
            raise ValidationError("empty range %r" % (text,))
        # the values start + k step <= stop + 1e-9 step; one k spare (rounding)
        count = (stop - start) / step + 1e-9
        if count >= 10 ** 6:
            raise ValidationError("range %r exceeds 10^6 values" % (text,))
        values = [v for v in (start + k * step for k in range(int(count) + 2))
                  if v <= stop + 1e-9 * step]
    if integer:
        if any(abs(v - round(v)) > 1e-9 for v in values):
            raise ValidationError("range %r must contain integers" % (text,))
        return [int(round(v)) for v in values]
    return values


def load_density(d, path):
    """Coefficient file: JSON list of {ell, m: [..], re, im} entries."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ValidationError("cannot read coefficient file %s: %s"
                              % (path, exc))
    if not isinstance(data, list):
        raise ValidationError("coefficient file must hold a JSON list")
    entries = []
    for item in data:
        try:
            index = [integral(v) for v in [item["ell"], *item["m"]]]
            value = complex(float(item.get("re", 0.0)),
                            float(item.get("im", 0.0)))
        except (KeyError, TypeError, ValueError):
            index = [None]
        if None in index:
            raise ValidationError("coefficient entry %r is not {ell, m: [..], "
                                  "re, im} with integer ell and m" % (item,))
        entries.append((HarmonicIndex(d, index[0], index[1:]), value))
    return DensitySpec.from_coeffs(d, entries)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _emit(args, text):
    """Write text to the --out file if one is given, else to stdout."""
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValidationError("cannot write --out file: %s" % exc)
    else:
        sys.stdout.write(text)


def write_output(args, command, parameters, columns, rows, footer=None):
    if args.format == "json":
        payload = {"command": command, "parameters": parameters,
                   "rows": rows}
        if footer is not None:
            payload["fit"] = footer
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        if footer is not None:
            writer.writerow(["fit"] + ["%s=%s" % (k, _fmt(footer[k]))
                                       for k in sorted(footer)])
        text = buf.getvalue()
    _emit(args, text)
    return 0


def cmd_exact(args):
    kappas = parse_range(args.kappa) if args.kappa else [None]

    def one(kappa):
        if kappa is None:
            density = load_density(args.d, args.coeffs)
        else:
            density = DensitySpec.tilted(args.d, kappa)
        res = sumrules.sum_rule(args.d, args.p, density,
                                ell_cut=args.ell_cut)
        reference = difference = None
        if kappa is not None:
            try:
                reference = sumrules.closed_form_reference(
                    args.d, args.p, kappa)
                difference = abs(res.value - reference)
            except SphereSumRulesError:
                pass
        return {"kappa": kappa, "value": res.value, "reference": reference,
                "difference": difference, "trunc_error": res.trunc_error,
                "provenance": res.provenance, "ell_cut": res.ell_cut}

    rows = [one(kappa) for kappa in kappas]
    columns = ["kappa", "value", "reference", "difference", "trunc_error",
               "provenance", "ell_cut"]
    parameters = {"d": args.d, "p": args.p,
                  "ell_cut": args.ell_cut, "coeffs": args.coeffs}
    return write_output(args, "exact", parameters, columns, rows)


def cmd_hybrid(args):
    kappas = parse_range(args.kappa)

    def one(kappa):
        res = weyl.hybrid_sum_rule(args.d, args.p, kappa, args.lmax,
                                   retain=args.retain)
        exact = sumrules.sum_rule(args.d, args.p,
                                  DensitySpec.tilted(args.d, kappa)).value
        return {"kappa": kappa, "hybrid": res.value, "exact": exact,
                "difference": abs(res.value - exact),
                "trunc_error": res.trunc_error,
                "provenance": res.provenance, "ell_max": args.lmax}

    rows = [one(kappa) for kappa in kappas]
    columns = ["kappa", "hybrid", "exact", "difference", "trunc_error",
               "provenance", "ell_max"]
    parameters = {"d": args.d, "p": args.p, "ell_max": args.lmax,
                  "retain": args.retain}
    return write_output(args, "hybrid", parameters, columns, rows)


def cmd_delta(args):
    lmaxes = parse_range(args.lmax, integer=True)
    samples = [weyl.delta(args.d, l, args.s) for l in lmaxes]
    fit = None
    if args.fit:
        fit = weyl.fit_delta(samples)
    rows = []
    for smp in samples:
        fit_value = None
        if fit is not None:
            fit_value = float(weyl.delta_model(fit["a"], fit["b"], fit["c"],
                                               smp.ell_max))
        rows.append({"d": smp.d, "s": smp.s, "ell_max": smp.ell_max,
                     "delta": smp.delta, "fit_value": fit_value,
                     "provenance": "exact-engine"})
    columns = ["d", "s", "ell_max", "delta", "fit_value", "provenance"]
    parameters = {"d": args.d, "s": args.s}
    return write_output(args, "delta", parameters, columns, rows,
                        footer=fit)


def cmd_spectrum(args):
    if args.coeffs:
        density = load_density(args.d, args.coeffs)
    else:
        density = DensitySpec.tilted(args.d, args.kappa)
    problem = rayleigh_ritz.assemble(args.d, args.lmax, density)
    spectrum = rayleigh_ritz.solve_spectrum(problem)
    rows = [{"n": n, "E_n": value, "multiplicity": mult, "block_m2": label,
             "provenance": "rayleigh-ritz", "ell_max": args.lmax}
            for n, value, mult, label in spectrum.rows()]
    columns = ["n", "E_n", "multiplicity", "block_m2", "provenance",
               "ell_max"]
    parameters = {"d": args.d, "ell_max": args.lmax, "kappa": args.kappa,
                  "coeffs": args.coeffs}
    return write_output(args, "spectrum", parameters, columns, rows)


def cmd_green(args):
    thetas = parse_range(args.theta)
    order = greens.GreenOrder(args.d, args.p, args.gamma)

    def one(theta):
        method = "shifted" if args.gamma else "direct"
        try:
            res = greens.green_spectral(order, math.cos(theta),
                                        ell_cut=args.ell_cut)
        except DivergentSumError:
            res = greens.green_spectral(order, math.cos(theta),
                                        ell_cut=args.ell_cut,
                                        regularize=True)
            method = "abel"
        return {"theta": theta, "value": res["value"],
                "tail_bound": res["tail_bound"], "method": method,
                "ell_cut": args.ell_cut}

    rows = [one(theta) for theta in thetas]
    columns = ["theta", "value", "tail_bound", "method", "ell_cut"]
    parameters = {"d": args.d, "q": args.p, "gamma": args.gamma,
                  "ell_cut": args.ell_cut}
    return write_output(args, "green", parameters, columns, rows)


def cmd_validate(args):
    modules = args.module.split(",") if args.module else None
    results = validate.run_suite(modules=modules, tolerance=args.tolerance)
    lines = []
    failures = 0
    for res in results:
        failures += 0 if res.passed else 1
        lines.append("%s %s/%s residual=%.3e tolerance=%.1e"
                     % ("PASS" if res.passed else "FAIL", res.module,
                        res.name, res.residual, res.tolerance))
    lines.append("%d checks, %d failed" % (len(results), failures))
    _emit(args, "\n".join(lines) + "\n")
    return 1 if failures else 0


def build_parser():
    parser = _Parser(prog="sphere-sumrules",
                     description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("exact", help="engine sum rules vs closed forms")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--kappa", help="value or start:stop:step")
    group.add_argument("--coeffs", help="JSON coefficient file")
    p.add_argument("--ell-cut", dest="ell_cut", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("hybrid", help="variational + tail vs exact")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--retain", type=float, default=0.5)
    add_common(p)
    p.set_defaults(func=cmd_hybrid)

    p = sub.add_parser("delta", help="tail-discrepancy scan")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--lmax", required=True, help="value or start:stop:step")
    p.add_argument("--fit", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("spectrum", help="variational eigenvalues")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--kappa", type=float)
    group.add_argument("--coeffs")
    add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("green", help="kernel values over the polar angle")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True,
                   help="kernel order q of the inverse-power weight")
    p.add_argument("--theta", required=True, help="value or start:stop:step")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--ell-cut", dest="ell_cut", type=int, default=2000)
    add_common(p)
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("validate", help="cross-module invariant suite")
    p.add_argument("--module", help="comma-separated module filter")
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except SphereSumRulesError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write("numerical error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
