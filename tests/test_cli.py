import csv
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from helpers import run_python
from projcox import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

#: the README's commands, with scan shortened to 1e4 samples as JSON and
#: 200 samples as CSV on stdout; tests/golden holds their recorded stdout
README_COMMANDS = {
    "relations": "relations --orders 3,4,5,6 --chart general "
                 "--t13 9 --t24 5 --v23 -2 --v24 -0.5 --v34 -3",
    "vinberg": "vinberg --orders 3,3,3,3 --chart concurrent "
               "--v12 -1 --v23 -1 --v14 -1 --v34 -1",
    "cocompact": "cocompact --orders 3,3,3,3 --chart general "
                 "--t13 4 --t24 6 --v23 -1 --v24 -1 --v34 -1",
    "invariants": "invariants --orders 3,3,3,3 --chart standard "
                  "--t13 6 --t24 6 --v23 -1 --v24 -1 --v34 -1",
    "orbifold": "orbifold --corners 3,3,3,3",
    "scan_json": "scan --orders 3,3,3,3 --t13 6 --t24 6 --samples 10000 --seed 0",
    "scan_csv": "scan --orders 3,3,3,3 --t13 6 --t24 6 --samples 200 --seed 0 "
                "--out csv",
    "simplex": "simplex --n 3 --simplex-orders 3,3,3,3,3,3",
}

CONCURRENT_BASE = ["--orders", "3,3,3,3", "--chart", "concurrent",
                   "--v12", "-1", "--v23", "-1", "--v14", "-1", "--v34", "-1"]
GENERAL_POINT = ["--orders", "3,4,5,6", "--chart", "general",
                 "--t13", "9", "--t24", "5",
                 "--v23", "-2", "--v24", "-0.5", "--v34", "-3"]
STANDARD_POINT = ["--orders", "3,3,3,3", "--chart", "standard",
                  "--t13", "6", "--t24", "6",
                  "--v23", "-1", "--v24", "-1", "--v34", "-1"]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run_cli(argv)
    return code, json.loads(out)


def test_relations_pass_each_chart():
    for point in (CONCURRENT_BASE, GENERAL_POINT, STANDARD_POINT):
        code, doc = run_json(["relations"] + point)
        assert code == 0
        assert doc["verdicts"]["pass"] is True


def test_json_schema_fields():
    _, doc = run_json(["relations"] + CONCURRENT_BASE)
    assert set(doc) == {"command", "inputs", "results", "residuals",
                        "verdicts", "seed"}
    assert doc["command"] == "relations"
    assert doc["inputs"]["orders"] == [3, 3, 3, 3]


def test_relations_infinite_products():
    _, doc = run_json(["relations"] + CONCURRENT_BASE)
    assert doc["results"]["infinite_pair_products"]["1-3"] == pytest.approx(16.0)


def test_vinberg_reports_conditions():
    code, doc = run_json(["vinberg"] + GENERAL_POINT)
    assert code == 0
    assert set(doc["results"]) == {"C1", "C2", "C3", "C4", "C5"}
    assert all(c["passed"] for c in doc["results"].values())


def test_cocompact_verdicts():
    code, doc = run_json(["cocompact"] + CONCURRENT_BASE)
    assert code == 0
    assert doc["verdicts"]["convex_cocompact"] is True
    boundary = ["cocompact", "--orders", "3,3,3,3", "--chart", "general",
                "--t13", "4", "--t24", "6",
                "--v23", "-1", "--v24", "-1", "--v34", "-1"]
    code, doc = run_json(boundary)
    assert code == 0
    assert doc["verdicts"]["convex_cocompact"] is False


def test_invariants_residuals_small():
    code, doc = run_json(["invariants"] + STANDARD_POINT)
    assert code == 0
    assert len(doc["residuals"]) == 11
    assert all(r < 1e-9 for r in doc["residuals"].values())
    assert doc["results"]["1-3"] == pytest.approx(6.0)


def test_orbifold_quadrilateral():
    code, doc = run_json(["orbifold", "--corners", "3,3,3,3"])
    assert code == 0
    assert doc["results"]["chi"] == "-1/3"
    assert doc["results"]["teichmuller_dim"] == 1
    assert doc["results"]["d_tp"] == 1
    assert doc["results"]["cg05_dim"] == 4
    assert doc["verdicts"]["hyperbolic"] is True


def test_orbifold_flat_case_not_hyperbolic():
    code, doc = run_json(["orbifold", "--corners", "2,2,2,2"])
    assert code == 0
    assert doc["verdicts"]["hyperbolic"] is False
    assert "teichmuller_dim" not in doc["results"]


def test_scan_json_deterministic():
    argv = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6",
            "--samples", "2000", "--seed", "3"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for identical flags + seed


def test_scan_csv_schema(tmp_path):
    out_file = tmp_path / "scan.csv"
    argv = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6",
            "--samples", "200", "--seed", "0", "--out", "csv",
            "--file", str(out_file)]
    code, _ = run_cli(argv)
    assert code == 0
    with open(out_file, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["v23", "v24", "v34", "a4v44", "det_M",
                       "T13_prod", "T24_prod"]
    assert len(rows) >= 100
    # repr round-trip keeps full precision
    assert float(rows[1][3]) == float(rows[1][3])


def test_simplex_subcommand():
    argv = ["simplex", "--n", "3", "--simplex-orders", "3,3,3,3,3,3"]
    code, doc = run_json(argv)
    assert code == 0
    assert doc["results"]["parameter_count"] == 3
    assert doc["results"]["relations_passed"] is True


def test_exit_code_on_check_failure():
    # an unattainable tolerance turns the tiny rounding residuals of a
    # genuine point (4.4e-16 at pair 3-4 here) into reported failures:
    # exit code must be 1, with the failing verdict in the JSON
    point = GENERAL_POINT[:-6] + ["--v23=-0.3", "--v24=-0.7", "--v34=-1.3"]
    simplex = ["simplex", "--n", "3", "--simplex-orders", "3,4,5,3,4,5",
               "--free=-0.3,-0.7,-1.3"]
    for argv, verdict in ((["relations", "--tol", "1e-18"] + point, "pass"),
                          (["invariants", "--tol", "0"] + point, "identities_pass"),
                          (simplex + ["--tol", "0"], "pass")):
        code, doc = run_json(argv)
        assert code == 1
        assert doc["verdicts"][verdict] is False


def test_exit_code_on_domain_error(capsys):
    argv = ["vinberg", "--orders", "3,3,3,3", "--chart", "general",
            "--t13", "3.5", "--t24", "6",
            "--v23", "-1", "--v24", "-1", "--v34", "-1"]
    assert cli.main(argv) == 2


def test_exit_code_on_bad_orders():
    argv = ["orbifold"]
    assert cli.main(argv) == 0  # empty signature is the bare disk
    bad = ["vinberg", "--orders", "3,3,3", "--chart", "general",
           "--t13", "6", "--t24", "6",
           "--v23", "-1", "--v24", "-1", "--v34", "-1"]
    assert cli.main(bad) == 2


def test_missing_chart_flags_rejected():
    argv = ["relations", "--orders", "3,3,3,3", "--chart", "general",
            "--t13", "6"]
    assert cli.main(argv) == 2


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_output_is_unchanged(name):
    code, out = run_cli(README_COMMANDS[name].split())
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_unwritable_csv_file_is_usage_error(tmp_path, capsys):
    argv = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6",
            "--samples", "200", "--out", "csv",
            "--file", str(tmp_path / "missing" / "x.csv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_scan_with_overflowing_box_fails_cleanly():
    # |v| from 1e-309 down overflows mu/v and the solution: every sample
    # is dropped, with no numpy warning on the way
    proc = run_python(["-m", "projcox.cli", "scan", "--orders", "3,3,3,3",
                       "--t13", "6", "--t24", "6", "--samples", "100",
                       "--box=-1e-309,-1e-320"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: no valid samples; enlarge the box or sample count\n"


def test_scan_keeps_samples_whose_det_m_overflows(tmp_path):
    # a4*v44 reaches 1e299 and is finite, while det(M) = a4*v44 * det3
    # overflows: the samples count, and the CSV's det_M reads -inf
    argv = ["-W", "error", "-m", "projcox.cli", "scan", "--orders", "3,4,5,6",
            "--t13", "6", "--t24", "6", "--seed", "0", "--box=-1e-280,-1e-300"]
    proc = run_python(argv + ["--samples", "20000"])
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["results"]["valid_samples"] == 20000
    out_file = tmp_path / "scan.csv"
    proc = run_python(argv + ["--samples", "100", "--out", "csv", "--file", str(out_file)])
    assert proc.returncode == 0 and proc.stderr == ""
    with open(out_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    assert {row["det_M"] for row in rows} == {"-inf"}


def test_overflowing_standard_solve_is_not_called_singular():
    # det3 = -1e308 is finite and far from zero; the solution overflows
    proc = run_python(["-m", "projcox.cli", "relations", "--orders", "3,4,5,6",
                       "--chart", "standard", "--t13", "6", "--t24", "6",
                       "--v23=-1e308", "--v24=-1e308", "--v34=-1e308"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "singular" not in proc.stderr


def test_non_finite_solve_residual_fails_cleanly():
    # mu23 / v23 overflows to -inf, so the closed-form solution is not
    # finite: the point fails as an overflowed solve, without a warning
    proc = run_python(["-m", "projcox.cli", "relations", "--orders", "3,3,3,3",
                       "--chart", "standard", "--t13", "6", "--t24", "6",
                       "--v23=-1e-310", "--v24", "-10", "--v34", "-0.5"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Warning" not in proc.stderr


def test_relations_near_the_float_range_pass_cleanly():
    # T13 = 1e300 is a valid point whose Cartan entries reach 1e300: the
    # certificate must neither overflow nor print a non-finite residual
    proc = run_python(["-m", "projcox.cli", "relations", "--orders", "3,3,3,3",
                       "--chart", "standard", "--t13", "1e300", "--t24", "6",
                       "--v23", "-1", "--v24", "-1", "--v34", "-1"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["results"]["relations_passed"] is True
    assert "NaN" not in proc.stdout and "Infinity" not in proc.stdout


LARGE_V23_POINT = ["--orders", "3,3,3,3", "--chart", "general",
                   "--t13", "6", "--t24", "6",
                   "--v23=-1e10", "--v24", "-1", "--v34", "-1"]


def test_zero_symmetry_holds_at_large_coordinates():
    # M_32 = mu23 / v23 = -1e-10 is below the 1e-9 tolerance, but the
    # product M_23 M_32 = mu23 is not zero: C3 holds
    code, doc = run_json(["vinberg"] + LARGE_V23_POINT)
    assert code == 0
    assert doc["results"]["C3"] == {"passed": True, "failures": []}
    code, doc = run_json(["cocompact"] + LARGE_V23_POINT)
    assert code == 0
    assert doc["verdicts"]["convex_cocompact"] is True


@pytest.mark.parametrize("argv", [
    ["relations"] + GENERAL_POINT,
    ["vinberg"] + GENERAL_POINT,
    ["invariants"] + STANDARD_POINT,
    ["simplex", "--n", "3", "--simplex-orders", "3,3,3,3,3,3"],
])
@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
def test_invalid_tolerance_is_usage_error(argv, value, capsys):
    assert cli.main(argv + [f"--tol={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --tol must be finite and >= 0, got {float(value)}\n"


def test_vinberg_uses_tolerance():
    # C4's residual at this point is 4.4e-16: it passes the default
    # tolerance and fails --tol 1e-18
    point = GENERAL_POINT[:-6] + ["--v23=-0.3", "--v24=-0.7", "--v34=-1.3"]
    code, doc = run_json(["vinberg"] + point)
    assert code == 0
    code, doc = run_json(["vinberg", "--tol", "1e-18"] + point)
    assert code == 1
    assert doc["results"]["C4"]["passed"] is False


@pytest.mark.parametrize("argv, stray", [
    (["relations"] + GENERAL_POINT + ["--v12", "-1"], "--v12"),
    (["vinberg"] + STANDARD_POINT + ["--v14", "-1", "--v44=0"], "--v14, --v44"),
    (["invariants"] + CONCURRENT_BASE + ["--t13", "6"], "--t13"),
    (["cocompact"] + CONCURRENT_BASE + ["--v24", "-1", "--t24", "5"], "--t24, --v24"),
])
def test_flags_of_another_chart_are_usage_errors(argv, stray, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    chart = argv[argv.index("--chart") + 1]
    assert captured.err == f"error: flags not used by chart {chart!r}: {stray}\n"


#: list-valued flags, with the place of the parametrized value in the list
LIST_VALUES = {"--box": "-100,{}", "--free": "{},-0.7,-1.3"}
SCAN_200 = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6", "--samples", "200"]


@pytest.mark.parametrize("argv, flag", [
    (["relations"] + STANDARD_POINT, "--v23"),
    (["vinberg"] + GENERAL_POINT, "--v34"),
    (["invariants"] + CONCURRENT_BASE, "--v14"),
    (["cocompact"] + CONCURRENT_BASE, "--v44"),
    (["relations"] + GENERAL_POINT, "--t13"),
    (["relations"] + GENERAL_POINT, "--tol"),
    (["invariants"] + STANDARD_POINT, "--tol"),
    (SCAN_200, "--box"),
    (["simplex", "--n", "3", "--simplex-orders", "3,4,5,3,4,5"], "--free"),
])
@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+1", "-.5e1"])
def test_negative_scientific_value_parses_like_equals_form(argv, flag, value):
    """``--v23 -1e-3`` reads the same as ``--v23=-1e-3``, and ``--box
    -100,-1e-3`` as ``--box=-100,-1e-3``; argparse used to exit on the
    first with "expected one argument"."""
    value = LIST_VALUES.get(flag, "{}").format(value)
    assert run_cli(argv + [flag, value]) == run_cli(argv + [f"{flag}={value}"])


@pytest.mark.parametrize("argv, flag, value", [
    (SCAN_200, "--box", "-10,5"),
    (["relations"] + GENERAL_POINT, "--v23", "-inf"),
    (["vinberg"] + GENERAL_POINT, "--v23", "-nan"),
])
def test_invalid_negative_value_errs_like_equals_form(argv, flag, value, capsys):
    """``--box -10,5`` and ``--v23 -inf`` give the one ``error:`` line of
    ``--box=-10,5`` and ``--v23=-inf``; argparse used to exit on them
    with its usage text and "expected one argument"."""
    assert cli.main(argv + [flag, value]) == 2
    spaced = capsys.readouterr()
    assert cli.main(argv + [f"{flag}={value}"]) == 2
    assert capsys.readouterr() == spaced
    assert spaced.out == ""
    assert spaced.err.startswith("error: ") and spaced.err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (SCAN_200 + ["--box=-10"], "--box expects lo,hi"),
    (["simplex", "--n", "3", "--simplex-orders", "3,3,3"],
     "--simplex-orders expects 6 entries (upper triangle of the order table of 4 sides)"),
    (["simplex", "--n", "3", "--simplex-orders", "3,3,3,3,3,3", "--free=-1"],
     "--free expects 3 entries"),
])
def test_list_flag_of_wrong_length_is_usage_error(argv, message, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, pair", [
    (["relations", "--orders", "3,3,3,1000000000", "--chart", "general", "--t13", "6",
      "--t24", "6", "--v23", "-1", "--v24", "-1", "--v34", "-1"], "(1, 4)"),
    (["simplex", "--n", "2", "--simplex-orders", "3,3,1000000000"], "(2, 3)"),
])
def test_order_whose_mu_rounds_to_four_is_usage_error(argv, pair, capsys):
    # mu(10**9) is 4.0 in doubles; the relation residual used to divide
    # by 4 - mu(n) = 0 and end in a ZeroDivisionError traceback
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: order 1000000000 of pair {pair} is too large")
    assert captured.err.count("\n") == 1


def test_non_finite_result_is_usage_error(capsys):
    # the invariants of this point overflow to inf and NaN, which JSON
    # cannot hold: nothing is printed on stdout, not half an object
    argv = ["invariants", "--orders", "3,3,3,3", "--chart", "general", "--t13", "1e308",
            "--t24", "1e308", "--v23=-1e308", "--v24", "-1", "--v34", "-1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a result is NaN or infinite and has no JSON form\n"


@pytest.mark.parametrize("value", ["3", "inf", "nan"])
@pytest.mark.parametrize("flag", ["--t13", "--t24"])
def test_scan_outside_the_standard_chart_is_usage_error(flag, value, capsys):
    argv = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6", "--samples", "100"]
    assert cli.main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag[2:]} must be >= 4, got {float(value)}\n"
