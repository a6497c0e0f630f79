"""Command-line driver: ranges, tabular output, exit codes, determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from sphere_sumrules import cli, harmonics, sumrules
from sphere_sumrules.errors import NonConvergenceError, ValidationError
from sphere_sumrules.sumrules import (MAX_ELL_CUT, closed_form_reference,
                                      zeta_uniform)

from test_sumrules import _sums_forbidden


def run_cli(capsys, argv):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
    out, err = capsys.readouterr()
    return code, out, err


# ----------------------------------------------------------------------
# range parsing


def test_parse_range_inclusive_stop():
    assert cli.parse_range("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert cli.parse_range("0:2:0.25") == pytest.approx(
        [0.25 * i for i in range(9)])


def test_parse_range_default_step_and_scalar():
    assert cli.parse_range("1:4") == [1.0, 2.0, 3.0, 4.0]
    assert cli.parse_range("1.5") == [1.5]


def test_parse_range_integer_mode():
    got = cli.parse_range("10:40:6", integer=True)
    assert got == [10, 16, 22, 28, 34, 40]
    assert all(isinstance(v, int) for v in got)


def test_parse_range_rejects_garbage(capsys):
    code, _, err = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                    "--kappa", "0:2:"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["exact", "--d", "3", "--p", "2", "--kappa", "nan:1"],
    ["exact", "--d", "3", "--p", "2", "--kappa", "0:inf:1"],
    ["green", "--d", "3", "--p", "1", "--theta", "0.5:nan"],
    ["delta", "--d", "3", "--s", "4", "--lmax", "1:inf"],
    ["exact", "--d", "3", "--p", "2", "--kappa", "0:1:1e-12"],
])
def test_endless_or_huge_range_exits_one(capsys, argv):
    # NaN never compares above the stop and an infinite stop is never
    # passed, so the first four swept without end; the last would build
    # 10^12 floats before the first row
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: range")


def test_range_holds_at_most_a_million_values():
    assert len(cli.parse_range("1:1000000", integer=True)) == 10 ** 6
    with pytest.raises(ValidationError, match=r"exceeds 10\^6"):
        cli.parse_range("0:1000000")


# ----------------------------------------------------------------------
# exact subcommand


def test_exact_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                    "--kappa", "0:2:0.5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == \
        "kappa,value,reference,difference,trunc_error,provenance,ell_cut"
    assert len(lines) == 6
    for line in lines[1:]:
        fields = line.split(",")
        kappa, value, reference = (float(fields[i]) for i in (0, 1, 2))
        assert value == pytest.approx(closed_form_reference(3, 2, kappa),
                                      rel=1e-6)
        assert reference == pytest.approx(value, rel=1e-6)
        assert fields[5] == "exact-engine"


def test_exact_reference_blank_when_no_closed_form(capsys):
    # (2, 2) has no closed reference: the engine value still appears
    code, out, _ = run_cli(capsys, ["exact", "--d", "2", "--p", "2",
                                    "--kappa", "0"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(zeta_uniform(2, 2), rel=1e-8)
    assert row[2] == "" and row[3] == ""


def test_exact_divergent_pair_exits_one(capsys):
    code, out, err = run_cli(capsys, ["exact", "--d", "4", "--p", "2",
                                      "--kappa", "1"])
    assert code == 1
    assert "divergent sum rule for d=4, p=2" in err
    assert out == ""


def test_exact_kappa_bound_exits_one(capsys):
    code, _, err = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                    "--kappa", "5"])
    assert code == 1
    assert "positivity bound" in err


@pytest.mark.parametrize("cut", [str(10 ** 19), str(MAX_ELL_CUT + 1)])
def test_exact_cutoff_above_ceiling_exits_one(capsys, cut):
    code, out, err = run_cli(capsys, ["exact", "--d", "3", "--p", "3",
                                      "--kappa", "1", "--ell-cut", cut])
    assert code == 1
    assert "above the supported ceiling" in err
    assert out == ""


def test_exact_cubic_trace_at_a_cutoff_of_100000_exits_zero(capsys):
    # degrees {1, 2, 3}: past 9 the cubic trace runs by block moments, in
    # passes of a fixed size, so a cut of 10^5 is summed, not refused
    code, out, err = run_cli(capsys, [
        "exact", "--d", "3", "--p", "3", "--coeffs",
        str(DATA / "zonal_d3.json"), "--ell-cut", "100000"])
    assert (code, err) == (0, "")
    row = out.splitlines()[1].split(",")
    assert row[-1] == "100000"
    assert math.isfinite(float(row[1])) and math.isfinite(float(row[4]))


def test_exact_cubic_trace_past_its_budget_exits_one(tmp_path, capsys):
    for coeffs, cut in (
            # a coupled degree of 1000: gigabytes of band diagonals
            ([(2, 0.01), (1000, 0.001)], []),
            # cycles of degree 16 in u, summed block by block past the
            # work bound
            ([(2, 0.05), (9, 0.02), (11, 0.01)], ["--ell-cut", "10000"])):
        path = tmp_path / "den.json"
        path.write_text(json.dumps([{"ell": ell, "m": [0, 0], "re": c}
                                    for ell, c in coeffs]))
        with _sums_forbidden():
            code, out, err = run_cli(capsys, [
                "exact", "--d", "3", "--p", "3", "--coeffs", str(path),
                *cut])
        assert (code, out) == (1, "")
        assert err.startswith("error: the cubic trace")


def test_exact_negative_cutoff_exits_one(capsys):
    code, out, err = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                      "--kappa", "1", "--ell-cut", "-5"])
    assert code == 1
    assert "ell_cut must be a non-negative integer" in err
    assert out == ""


def test_exact_json_shape(capsys):
    code, out, _ = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                    "--kappa", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "exact"
    assert doc["parameters"]["d"] == 3
    row = doc["rows"][0]
    assert row["kappa"] == 1.0
    assert row["value"] == pytest.approx(closed_form_reference(3, 2, 1.0),
                                         rel=1e-6)
    assert row["provenance"] == "exact-engine"
    assert row["ell_cut"] == 200


def test_exact_output_is_deterministic(capsys):
    argv = ["exact", "--d", "3", "--p", "3", "--kappa", "0:1:0.5"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_exact_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                    "--kappa", "1", "--out", str(target)])
    assert code == 0
    text = target.read_text()
    assert text.startswith("kappa,value,reference")
    assert len(text.strip().splitlines()) == 2


def test_exact_with_coeffs_file(tmp_path, capsys):
    c = 1.0 / math.sqrt(2.0)
    coeffs = [{"ell": 1, "m": [1, 1], "re": c, "im": 0.0},
              {"ell": 1, "m": [1, -1], "re": -c, "im": 0.0}]
    path = tmp_path / "den.json"
    path.write_text(json.dumps(coeffs))
    code, out, _ = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                    "--coeffs", str(path)])
    assert code == 0
    value = float(out.strip().splitlines()[1].split(",")[1])
    # rho_1 = 1, so the rotation-invariant p=2 rule equals the kappa=1 tilt
    assert value == pytest.approx(closed_form_reference(3, 2, 1.0), rel=1e-6)


@pytest.mark.parametrize("content", [
    '[{"ell": 1, "re": 0.1}]',
    '[{"m": [1, 0], "re": 0.1}]',
    '[5]',
    '[{"ell": 1, "m": [1, 0]',
    '[{"ell": 1, "m": [1, 0], "re": "x"}]',
    # int() read these as degree 1 and m2 = 1
    '[{"ell": 1.5, "m": [1, 0], "re": 0.1}]',
    '[{"ell": 1, "m": [1.5, 0], "re": 0.1}]',
], ids=["no-m", "no-ell", "not-an-object", "not-json", "re-not-a-number",
        "fractional-ell", "fractional-m"])
def test_bad_coefficient_file_exits_one(tmp_path, capsys, content):
    path = tmp_path / "den.json"
    path.write_text(content)
    code, out, err = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                      "--coeffs", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "coefficient" in err


@pytest.mark.parametrize("ell", ["1e300", "2000000", str(MAX_ELL_CUT + 1)])
def test_coefficient_degree_above_the_ceiling_exits_one(tmp_path, capsys, ell):
    # 1e300 exited 2 with a raw conversion error, and 2000000 was still
    # sampling the density's positivity after 10 s; neither may get that far
    path = tmp_path / "den.json"
    path.write_text('[{"ell": %s, "m": [0, 0], "re": 1e-9}]' % ell)
    with _sums_forbidden(), mock.patch.object(
            harmonics, "gegenbauer", side_effect=AssertionError("sampled")):
        code, out, err = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                          "--coeffs", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: degree=") and "ceiling" in err
    # one short line, not the 301 digits of 1e300
    assert len(err) < 80


def test_missing_coefficient_file_exits_one(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                      "--coeffs", str(tmp_path / "no.json")])
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read coefficient file")


def test_integral_float_degree_reads_as_the_integer(tmp_path, capsys):
    rows = []
    for ell in ("1", "1.0"):
        path = tmp_path / "den.json"
        path.write_text('[{"ell": %s, "m": [0, 0], "re": 0.3}]' % ell)
        code, out, _ = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                        "--coeffs", str(path)])
        assert code == 0
        rows.append(out)
    assert rows[0] == rows[1]


def test_unwritable_out_file_exits_one(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "rows.csv"
    code, out, err = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                      "--kappa", "1", "--out", str(target)])
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write --out file")


# ----------------------------------------------------------------------
# hybrid subcommand


def test_hybrid_error_identity_at_uniform(capsys):
    code, out, _ = run_cli(capsys, ["hybrid", "--d", "3", "--p", "3",
                                    "--kappa", "0", "--lmax", "8"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == \
        "kappa,hybrid,exact,difference,trunc_error,provenance,ell_max"
    row = lines[1].split(",")
    difference, trunc = float(row[3]), float(row[4])
    assert difference == pytest.approx(trunc, abs=1e-12)
    assert row[5] == "hybrid"


def test_hybrid_sweep_accuracy(capsys):
    code, out, _ = run_cli(capsys, ["hybrid", "--d", "3", "--p", "3",
                                    "--kappa", "0:2:1", "--lmax", "30"])
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        row = line.split(",")
        assert abs(float(row[1]) - float(row[2])) < 2e-3


# ----------------------------------------------------------------------
# delta subcommand


def test_delta_scan_with_fit_footer(capsys):
    code, out, _ = run_cli(capsys, ["delta", "--d", "5", "--s", "3",
                                    "--lmax", "10:40:6", "--fit"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,s,ell_max,delta,fit_value,provenance"
    body, footer = lines[1:-1], lines[-1]
    assert footer.startswith("fit,a=")
    keys = [kv.split("=")[0] for kv in footer.split(",")[1:]]
    assert keys == ["a", "b", "c", "n_samples", "residual"]
    deltas = [float(l.split(",")[3]) for l in body]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    # the reported fit curve must describe its own samples
    for line in body:
        row = line.split(",")
        assert float(row[4]) == pytest.approx(float(row[3]), rel=0.05)


def test_delta_json_fit_object(capsys):
    code, out, _ = run_cli(capsys, ["delta", "--d", "5", "--s", "3",
                                    "--lmax", "10:40:6", "--fit",
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc["fit"]) == {"a", "b", "c", "n_samples", "residual"}
    assert doc["fit"]["n_samples"] == 6


def test_delta_without_fit_has_no_footer(capsys):
    code, out, _ = run_cli(capsys, ["delta", "--d", "5", "--s", "3",
                                    "--lmax", "10:20:5"])
    assert code == 0
    assert "fit," not in out


def test_delta_divergent_exponent_exits_one(capsys):
    code, _, err = run_cli(capsys, ["delta", "--d", "4", "--s", "2",
                                    "--lmax", "10:20:5"])
    assert code == 1
    assert "both tails diverge" in err


@pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
def test_delta_non_finite_exponent_exits_one(capsys, s):
    code, out, err = run_cli(capsys, ["delta", "--d", "3", "--s=" + s,
                                      "--lmax", "10"])
    assert code == 1 and not out
    assert "exponent s must be a finite real number" in err


def test_delta_fit_needs_five_samples(capsys):
    code, _, err = run_cli(capsys, ["delta", "--d", "5", "--s", "3",
                                    "--lmax", "10:20:5", "--fit"])
    assert code == 1
    assert "5 samples" in err


# ----------------------------------------------------------------------
# spectrum subcommand


def test_spectrum_zonal_rows(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--d", "3", "--lmax", "1",
                                    "--kappa", "0.5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,E_n,multiplicity,block_m2,provenance,ell_max"
    rows = [l.split(",") for l in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-12)
    assert sum(int(r[2]) for r in rows) == 5
    assert all(r[4] == "rayleigh-ritz" for r in rows)
    values = [float(r[1]) for r in rows]
    assert values == sorted(values)


def test_spectrum_uniform_is_exact(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--d", "3", "--lmax", "2",
                                    "--kappa", "0"])
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    expanded = []
    for r in rows:
        expanded.extend([float(r[1])] * int(r[2]))
    assert expanded == pytest.approx([0.0] + [3.0] * 4 + [8.0] * 9, abs=1e-12)


def test_spectrum_with_coeffs_uses_full_route(capsys, tmp_path):
    c = 0.5
    coeffs = [{"ell": 1, "m": [1, 1], "re": c, "im": 0.0},
              {"ell": 1, "m": [1, -1], "re": -c, "im": 0.0}]
    path = tmp_path / "den.json"
    path.write_text(json.dumps(coeffs))
    code, out, _ = run_cli(capsys, ["spectrum", "--d", "3", "--lmax", "1",
                                    "--coeffs", str(path)])
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    # the full-matrix route reports a single unlabeled block
    assert all(r[3] == "-1" for r in rows)
    assert sum(int(r[2]) for r in rows) == 5


# ----------------------------------------------------------------------
# green subcommand


def test_green_direct_row(capsys):
    code, out, _ = run_cli(capsys, ["green", "--d", "3", "--p", "1",
                                    "--theta", "1.0472"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,value,tail_bound,method,ell_cut"
    row = lines[1].split(",")
    assert row[3] == "direct"
    from sphere_sumrules.greens import green_closed_form
    assert float(row[1]) == pytest.approx(green_closed_form(3, 1, 1.0472),
                                          abs=float(row[2]))


def test_green_auto_abel_for_conditional_sum(capsys):
    code, out, _ = run_cli(capsys, ["green", "--d", "3", "--p", "0",
                                    "--theta", "1.0"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "abel"
    from sphere_sumrules.greens import green_closed_form
    assert float(row[1]) == pytest.approx(green_closed_form(3, 0, 1.0),
                                          abs=5e-5)


def test_green_shifted_method(capsys):
    code, out, _ = run_cli(capsys, ["green", "--d", "3", "--p", "1",
                                    "--theta", "1.0", "--gamma", "0.01"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "shifted"
    # the zero mode dominates: 1/(gamma^2 Vol)
    assert float(row[1]) == pytest.approx(
        1.0 / (0.01 ** 2 * 2 * math.pi ** 2), rel=1e-2)


def test_green_theta_sweep(capsys):
    code, out, _ = run_cli(capsys, ["green", "--d", "2", "--p", "1",
                                    "--theta", "0.5:2.5:0.5"])
    assert code == 0
    assert len(out.strip().splitlines()) == 6


# ----------------------------------------------------------------------
# validate subcommand


def test_validate_single_module(capsys):
    code, out, _ = run_cli(capsys, ["validate", "--module", "weyl"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith("PASS weyl/") for l in lines[:-1])
    assert lines[-1].endswith("0 failed")
    for line in lines[:-1]:
        assert "residual=" in line and "tolerance=" in line


def test_validate_unknown_module(capsys):
    code, _, err = run_cli(capsys, ["validate", "--module", "nonsense"])
    assert code == 1


def test_validate_full_suite(capsys):
    code, out, _ = run_cli(capsys, ["validate"])
    assert code == 0
    assert ", 0 failed" in out.strip().splitlines()[-1]


# ----------------------------------------------------------------------
# golden output

DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, golden", [
    ("exact --d 3 --p 3 --kappa 0:2:0.5", "exact_d3_p3_kappa.csv"),
    ("exact --d 5 --p 3 --kappa 0:1.5:0.5", "exact_d5_p3_kappa.csv"),
    ("exact --d 3 --p 2 --coeffs zonal_d3.json", "exact_d3_p2_zonal.csv"),
    ("exact --d 3 --p 2 --coeffs nonzonal_d3.json",
     "exact_d3_p2_nonzonal.csv"),
    # degrees 1, 2 and 3: the only golden file with a cubic trace
    ("exact --d 3 --p 3 --coeffs zonal_d3.json", "exact_d3_p3_zonal.csv"),
    ("hybrid --d 3 --p 3 --kappa 0:2:0.5 --lmax 30", "hybrid_d3_p3_kappa.csv"),
    ("hybrid --d 5 --p 3 --kappa 0:1.5:0.25 --lmax 12",
     "hybrid_d5_p3_kappa.csv"),
])
def test_default_output_matches_golden_file(capsys, argv, golden):
    """Default CSV output, byte for byte.

    A change that moves a printed digit must rewrite the golden file with
    the CLI's new output, so its diff shows the move.
    """
    argv = [str(DATA / a) if a.endswith(".json") else a
            for a in argv.split()]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == (DATA / golden).read_text()


# ----------------------------------------------------------------------
# exit codes and the --out path


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_non_convergence_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(sumrules, "sum_rule",
                        _raise(NonConvergenceError("no convergence")))
    code, out, err = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                      "--kappa", "0.5"])
    assert (code, out, err) == (2, "", "error: no convergence\n")


def test_linear_algebra_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(sumrules, "sum_rule",
                        _raise(np.linalg.LinAlgError("singular matrix")))
    code, out, err = run_cli(capsys, ["exact", "--d", "3", "--p", "2",
                                      "--kappa", "0.5"])
    assert (code, out, err) == (2, "", "numerical error: singular matrix\n")


def test_exact_unsupported_density_exits_one(capsys):
    # a non-zonal density with a coupled degree triple has no cubic trace
    code, out, err = run_cli(capsys, ["exact", "--d", "3", "--p", "3",
                                      "--coeffs",
                                      str(DATA / "nonzonal_d3.json")])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "zonal densities only" in err


def test_validate_out_file_holds_the_stdout_text(tmp_path, capsys):
    path = tmp_path / "validate.txt"
    code, out, _ = run_cli(capsys, ["validate", "--module", "density",
                                    "--out", str(path)])
    assert (code, out) == (0, "")
    code, want, _ = run_cli(capsys, ["validate", "--module", "density"])
    assert code == 0
    assert path.read_text() == want


# ----------------------------------------------------------------------
# entry point


def test_console_script_runs():
    # the child finds the package where this process imported it from, as
    # pytest's own pythonpath setting does not reach a child's environment
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sphere_sumrules.cli", "validate",
         "--module", "density"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "0 failed" in proc.stdout


def test_no_arguments_shows_usage(capsys):
    code, _, err = run_cli(capsys, [])
    assert code == 1
