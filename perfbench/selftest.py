"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Builds every workload's operations from seed 1, runs each once and
requires that its check accepts today's output and rejects deliberately
wrong ones: a value scaled by 1 +- delta, a spectrum with one level dropped,
moved or its zero mode lifted, a CLI table missing a row.  For scaled
values it prints the smallest delta the check rejects.  This script is not
part of the repository's test suite; it takes about half a minute.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import csv
import dataclasses
import io
import sys
import tempfile

import numpy as np

import run
import workloads

SEED = 1
DELTAS = tuple(10.0 ** -k for k in range(12, 1, -1))
# Largest relative error each kind of check may let through.
STRICT = 1e-6   # closed forms, the hybrid at d=3, the cubic trace at d=3, 4
TIGHT = 1e-5    # other exact values against the oracle's head + Weyl tail
LOOSE = 1e-3    # hybrid estimates at d=4, 5, set by the Weyl-tail model


def limit(name):
    if ("tilt" in name or name.startswith(("cli exact", "cli hybrid"))
            or name in ("sum_rule d=3 p=3 zonal L=1,2,3",
                        "sum_rule d=4 p=3 zonal L=1,2,3")):
        return STRICT
    return TIGHT if name.startswith("sum_rule") else LOOSE


def rejects(op, out):
    try:
        op.check(out)
    except workloads.CheckFailed:
        return True
    return False


def resolution(op, make):
    """Smallest delta at which both make(1+delta) and make(1-delta) fail."""
    for delta in DELTAS:
        if all(rejects(op, make(1.0 + s * delta)) for s in (1.0, -1.0)):
            return delta
    return float("inf")


def rewrite_csv(text, change):
    rows = list(csv.reader(io.StringIO(text)))
    rows = change(rows)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def scale_column(text, column, factor):
    def change(rows):
        j = rows[0].index(column)
        for row in rows[1:]:
            row[j] = repr(float(row[j]) * factor)
        return rows
    return rewrite_csv(text, change)


def wrong_spectra(values, mults):
    """(label, values, mults) variants that a spectrum check must reject."""
    values = np.asarray(values, dtype=float)
    mults = np.asarray(mults)
    moved = values.copy()
    moved[len(moved) // 2] *= 1.0 + 1e-8
    lifted = values.copy()
    lifted[0] = values[1]
    yield "level dropped", values[:-1], mults[:-1]
    yield "one level moved by 1e-8", moved, mults
    yield "zero mode lifted", lifted, mults
    yield "levels halved", np.concatenate([values[:1], values[1:] / 2]), mults


def expectations(op, out):
    """(label, passed, detail) for every wrong variant of out."""
    name = op.name
    most = limit(name)
    if isinstance(out, float):
        shift = 10 * workloads.EPSILON_TOL
        yield "shifted by +-%.0e" % shift, all(
            rejects(op, out + s * shift) for s in (1.0, -1.0)), ""
    elif hasattr(out, "trunc_error"):
        res = resolution(op, lambda f: dataclasses.replace(
            out, value=out.value * f))
        yield "scaled", res <= most, "rejects delta >= %.0e" % res
    elif hasattr(out, "multiplicities"):
        for label, values, mults in wrong_spectra(out.values,
                                                  out.multiplicities):
            bad = dataclasses.replace(out, values=values,
                                      multiplicities=mults)
            yield label, rejects(op, bad), ""
    elif isinstance(out, list):
        shift = 2 * workloads.SHIFTED_TOL
        yield "Z_renorm shifted by +-%.0e" % shift, all(
            rejects(op, [out[0], dict(out[1], Z_renorm=out[1]["Z_renorm"]
                                      + s * shift)]) for s in (1.0, -1.0)), ""
        lead = [dict(out[0], Z=out[0]["Z"] * 1.01), out[1]]
        yield "Z scaled by 1.01", rejects(op, lead), ""
    else:
        code, text = out
        yield "exit code 2", rejects(op, (2, text)), ""
        yield "row dropped", rejects(op, (code, rewrite_csv(
            text, lambda rows: rows[:-1]))), ""
        column = {"exact": "value", "hybrid": "hybrid"}.get(
            name.split()[1], "E_n")
        res = resolution(op, lambda f: (code, scale_column(text, column, f)))
        yield "%s scaled" % column, res <= most, "rejects delta >= %.0e" % res


def main():
    pkg, _ = run.import_program()
    failures = 0
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for workload, (make_ops, _) in workloads.WORKLOADS.items():
            for op in make_ops(pkg, np.random.default_rng(SEED), workdir):
                out = op.run()
                try:
                    op.check(out)
                    accepted, detail = True, ""
                except workloads.CheckFailed as exc:
                    accepted, detail = False, str(exc)
                results = [("today's output accepted", accepted, detail)]
                results += [("rejects " + label, ok, info)
                            for label, ok, info in expectations(op, out)]
                for label, ok, info in results:
                    failures += not ok
                    print("%-4s %-12s %-48s %-28s %s"
                          % ("ok" if ok else "FAIL", workload, op.name,
                             label, info), flush=True)
    print("%d expectation(s) failed" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
