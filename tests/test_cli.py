import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (ROOT, STANDARD_POINTS_NEAR_T24_EDGE, python_env, rebuilt_scan_records,
                     run_python)
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


#: a concurrent point whose rows round T13 to 4.0, though T13 - 4 is 8e-17
_ROUNDED_T13_POINT = ["--orders", "3,3,3,3", "--chart", "concurrent", "--v12", "-1e17",
                      "--v23", "-1e-17", "--v14", "-1e17", "--v34", "-1e17"]


def test_concurrent_cocompact_decides_t_minus_4_not_the_rounded_t():
    code, doc = run_json(["cocompact"] + _ROUNDED_T13_POINT)
    assert code == 0
    assert doc["results"]["T13"] == 4.0
    assert doc["verdicts"]["convex_cocompact"] is True


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


def scan_records(argv):
    """The CSV columns of a CSV scan argv: its valid samples rebuilt from
    the whole-array solve (helpers.rebuilt_scan_records), then T13_prod
    and T24_prod, the scan's fixed T13 and T24 in every row."""
    args = cli.build_parser().parse_args(argv)
    records = rebuilt_scan_records(cli._parse_orders(args.orders), args.t13, args.t24,
                                   args.samples, args.seed, cli._parse_box(args.box))
    shape = records["a4v44"].shape
    return {**records, "T13_prod": np.full(shape, args.t13),
            "T24_prod": np.full(shape, args.t24)}


def reference_csv(argv) -> bytes:
    """The scan's CSV as csv.writer writes it, the writer the CLI once
    used: the reference for the CLI's own block writer."""
    records = scan_records(argv)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(records)
    writer.writerows(zip(*(x.tolist() for x in records.values())))
    return buf.getvalue().encode()


SCAN_CSV = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6", "--out", "csv"]
#: a scan whose a4*v44 runs from about -7e305 to 1.8e308: both ends are
#: finite, but the histogram's width, their difference, is not
_RANGE_OVERFLOW_ARGV = ["scan", "--orders", "3,3,3,3", "--t13", "5", "--t24", "1e308",
                        "--samples", "319", "--box=-20.085536923187668,-1.0"]
#: a scan whose a4*v44 range numpy cannot split into 20 bins: one sample
#: near 1.5e100, where numpy's widening of the range by 0.5 is lost
_NARROW_RANGE_ARGV = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6",
                      "--samples", "1", "--box=-1e-100,-1e-101"]


def test_scan_csv_schema(tmp_path):
    out_file = tmp_path / "scan.csv"
    argv = SCAN_CSV + ["--samples", "200", "--seed", "0"]
    code, _ = run_cli(argv + ["--file", str(out_file)])
    assert code == 0
    with open(out_file, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["v23", "v24", "v34", "a4v44", "det_M", "T13_prod", "T24_prod"]
    records = scan_records(argv)
    assert list(records) == header
    assert len(rows) == 200
    assert all(len(row) == 7 for row in rows)
    # each cell reads back as exactly the double the scan computed
    for row, values in zip(rows, zip(*(x.tolist() for x in records.values()))):
        assert [float(cell).hex() for cell in row] == [v.hex() for v in values]


@pytest.mark.parametrize("argv", [
    *(SCAN_CSV + ["--samples", str(n), "--seed", "7"] for n in (1, 1023, 1024, 1025, 2049)),
    # det_M reads -inf in every row
    ["scan", "--orders", "3,4,5,6", "--t13", "6", "--t24", "6", "--seed", "0",
     "--box=-1e-280,-1e-300", "--samples", "1500", "--out", "csv"],
    # exponent-form reprs, from 1e-300 up to 1e+297
    SCAN_CSV + ["--samples", "2049", "--seed", "1", "--box=-10,-1e-300"],
    # T13_prod and T24_prod, formatted once per scan, not round numbers
    ["scan", "--orders", "3,4,5,6", "--t13", "4.1", "--t24", "1e5", "--samples", "1025",
     "--seed", "3", "--out", "csv"],
    # ranges the JSON summary refuses to bin: the CSV prints no histogram
    _RANGE_OVERFLOW_ARGV + ["--out", "csv"],
    _NARROW_RANGE_ARGV + ["--out", "csv"],
])
def test_scan_csv_bytes_match_the_csv_module(argv, tmp_path):
    expected = reference_csv(argv)
    code, out = run_cli(argv)
    assert code == 0
    assert out.encode() == expected
    out_file = tmp_path / "scan.csv"
    code, out = run_cli(argv + ["--file", str(out_file)])
    assert (code, out) == (0, "")
    assert out_file.read_bytes() == expected


def test_scan_csv_run_holds_one_block_at_a_time():
    # the whole run is traced: one block of 8192 samples, drawn, solved
    # and written 1024 rows at a time, takes about 1.1 MiB, and a block
    # kept alive while the next is drawn and solved about 0.6 MiB more;
    # holding the coordinates, a4*v44 and det M of all 1e5 samples would
    # add about 4 MB and their text about 50 MB of Python strings
    cli.main(SCAN_CSV + ["--samples", "1", "--file", os.devnull])
    tracemalloc.start()
    try:
        code = cli.main(SCAN_CSV + ["--samples", "100000", "--file", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert 0 < peak < 2 * 2**20


@pytest.mark.parametrize("unbuffered, samples", [
    pytest.param(True, "10000", id="True"),
    pytest.param(False, "10000", id="False"),
    # the a4*v44 of 1e15 samples alone would take 7.11 PiB: the CSV holds
    # one block, so its rows flow until the reader closes
    pytest.param(False, "1000000000000000", id="1e15-samples"),
])
def test_scan_csv_into_a_closed_pipe_fails_cleanly(unbuffered, samples):
    # as in `projcox scan ... --out csv | head -1`: the reader closes its
    # end after one line, long before the 700 kB of CSV are written
    env = python_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = SCAN_CSV + ["--samples", samples]
    with subprocess.Popen([sys.executable, "-m", "projcox.cli", *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"v23,v24,v34,a4v44,det_M,T13_prod,T24_prod\r\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == 2
    assert err == b"error: [Errno 32] Broken pipe\n"


def test_simplex_subcommand():
    argv = ["simplex", "--n", "3", "--simplex-orders", "3,3,3,3,3,3"]
    code, doc = run_json(argv)
    assert code == 0
    assert doc["results"]["parameter_count"] == 3
    assert doc["results"]["relations_passed"] is True


def test_exit_code_on_check_failure():
    # the identities have no computed bound, so --tol 0 turns the tiny
    # rounding residuals of a genuine point into reported failures: exit
    # code 1, with the failing verdict in the JSON; the pair gate's
    # computed bound holds the same point's residuals (4.4e-16 at pair
    # 3-4 here), so relations and simplex pass with no slack
    point = GENERAL_POINT[:-6] + ["--v23=-0.3", "--v24=-0.7", "--v34=-1.3"]
    simplex = ["simplex", "--n", "3", "--simplex-orders", "3,4,5,3,4,5",
               "--free=-0.3,-0.7,-1.3"]
    code, doc = run_json(["invariants", "--tol", "0"] + point)
    assert code == 1
    assert doc["verdicts"]["identities_pass"] is False
    for argv in (["relations", "--tol", "0"] + point, simplex + ["--tol", "0"]):
        code, doc = run_json(argv)
        assert code == 0
        assert doc["verdicts"]["pass"] is True


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


@pytest.mark.parametrize("name", ["relations", "vinberg", "cocompact", "invariants", "scan"])
def test_help_text_is_unchanged(name, monkeypatch):
    # argparse wraps help to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    buf = io.StringIO()
    with redirect_stdout(buf), pytest.raises(SystemExit, match="^0$"):
        cli.main([name, "--help"])
    assert buf.getvalue().encode() == (GOLDEN / f"help_{name}.out").read_bytes()


#: runs in a fresh interpreter: `import projcox`, then cli.main on each
#: argv of argv[1] (JSON), must leave numpy unimported, and dataclasses,
#: inspect and fractions as well where the interpreter had not loaded
#: them, fractions until `orbifold` runs; then `scan`, argv[2], runs as
#: usual
_NUMPY_FREE_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
unloaded = {"dataclasses", "inspect", "fractions"} - set(sys.modules)
import projcox
assert "numpy" not in sys.modules, "import projcox loaded numpy"
assert unloaded.isdisjoint(sys.modules), unloaded.intersection(sys.modules)
from projcox import cli
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (code, argv)
    assert "numpy" not in sys.modules, argv
    if argv[0] == "orbifold":
        unloaded.discard("fractions")
    assert unloaded.isdisjoint(sys.modules), (argv, unloaded.intersection(sys.modules))
assert cli.main(sys.argv[2].split()) == 0
"""


def test_only_scan_imports_numpy(tmp_path):
    points = (GENERAL_POINT, CONCURRENT_BASE, STANDARD_POINT)
    argvs = [[name] + point for name in ("relations", "vinberg", "cocompact", "invariants")
             for point in points]
    argvs += [README_COMMANDS[name].split() for name in ("simplex", "orbifold")]
    csv_file = tmp_path / "scan.csv"
    scan = f"{README_COMMANDS['scan_csv']} --file {csv_file}"
    proc = run_python(["-c", _NUMPY_FREE_SCRIPT, json.dumps(argvs), scan])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert csv_file.read_bytes() == (GOLDEN / "scan_csv.out").read_bytes()


def test_unwritable_csv_file_is_usage_error(tmp_path, capsys):
    argv = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6",
            "--samples", "200", "--out", "csv",
            "--file", str(tmp_path / "missing" / "x.csv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("out", [["--out", "json"], []])
def test_scan_file_without_csv_output_is_usage_error(out, tmp_path, capsys):
    # --file names where the CSV goes; with JSON output it is a stray flag
    target = tmp_path / "x.csv"
    argv = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6", "--samples", "10"]
    assert cli.main(argv + out + ["--file", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: flag not used by --out json: --file\n"
    assert not target.exists()


def test_scan_csv_to_an_empty_path_is_usage_error(capsys):
    # an empty --file is a path that cannot be opened, not stdout
    argv = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6", "--samples", "10",
            "--out", "csv", "--file", ""]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


#: a scan's error when every sample is dropped: more samples or a larger
#: box would not help
_ALL_OVERFLOW = "error: a4*v44 overflows at every sample; bring the box nearer -1 or lower T\n"


def test_scan_with_overflowing_box_fails_cleanly():
    # |v| from 1e-309 down overflows mu/v and the solution: every sample
    # is dropped, with no numpy warning on the way
    proc = run_python(["-m", "projcox.cli", "scan", "--orders", "3,3,3,3",
                       "--t13", "6", "--t24", "6", "--samples", "100",
                       "--box=-1e-309,-1e-320"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == _ALL_OVERFLOW


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("samples", ["300000", "600000"])
def test_a_large_scan_that_keeps_no_sample_fails_cleanly(samples, cpus, monkeypatch, capsys):
    # at 600000 samples and two CPUs the scan is solved in two spans, on
    # two threads; with one CPU, and at 300000 samples, on one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    argv = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6", "--samples", samples,
            "--seed", "0", "--box=-1e-310,-1e-320"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", _ALL_OVERFLOW)


def test_scan_at_overflowing_t_fails_cleanly():
    # T13 and T24 near the largest double overflow every sample of the
    # default box
    proc = run_python(["-m", "projcox.cli", "scan", "--orders", "3,3,3,3",
                       "--t13", "1e308", "--t24", "1e308", "--samples", "100"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == _ALL_OVERFLOW


def test_scan_whose_a4_v44_range_overflows_fails_cleanly(capsys):
    assert cli.main(_RANGE_OVERFLOW_ARGV) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the range of a4*v44 overflows; narrow the box or lower T\n"


def test_scan_whose_a4_v44_range_is_too_narrow_fails_cleanly(capsys):
    assert cli.main(_NARROW_RANGE_ARGV) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a4*v44 runs only from 1.5166145762011912e+100 to "
                            "1.5166145762011912e+100, too narrow a range for 20 bins; "
                            "take more samples or widen the box\n")


@pytest.mark.parametrize("to_file", [False, True])
def test_scan_csv_that_keeps_no_sample_writes_nothing(to_file, tmp_path, capsys):
    """The CSV's destination is opened at the first valid sample, so a
    scan that keeps none leaves stdout empty and creates no file."""
    target = tmp_path / "x.csv"
    argv = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6", "--samples", "100",
            "--box=-1e-309,-1e-320", "--out", "csv"] + ["--file", str(target)] * to_file
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", _ALL_OVERFLOW)
    assert not target.exists()


@pytest.mark.parametrize("out", ["json", "csv"])
def test_negative_seed_is_usage_error(out, capsys):
    argv = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6",
            "--seed", "-1", "--out", out]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"


#: a standard point whose a4*v44 (7.3e208) is finite while row 4 of M
#: rebuilt from the solution overflows to NaN; it once ended in exit 2
#: with "solve residual nan of M43 exceeds tolerance"
_FAR_STANDARD_ARGV = ["relations", "--orders", "3,3,3,3", "--chart", "standard",
                      "--t13", "1.17570052741343e+108", "--t24", "4.14689386303506e+99",
                      "--v23=-1.3478579235456133e+116", "--v24=-6.589620823969536e-105",
                      "--v34=-57636.10332832684"]


def test_far_standard_point_builds_and_passes():
    """The verdicts read only the chart's Cartan rows, which are finite."""
    code, out = run_cli(_FAR_STANDARD_ARGV)
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["results"]["relations_passed"] is True
    assert doc["results"]["vinberg_passed"] is True


def test_scan_with_unallocatable_sample_count_fails_cleanly(capsys):
    # the JSON summary's 1e15 float64 values of a4*v44 (7.11 PiB) exceed
    # the address space, so the scan fails at once, before any memory is
    # touched
    argv = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6",
            "--samples", "1000000000000000"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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
    # C4's residual at this point is nonzero, a rounding of pair 3-4:
    # --tol is slack on top of its computed bound, so --tol 0 passes too
    point = GENERAL_POINT[:-6] + ["--v23=-0.3", "--v24=-0.7", "--v34=-1.3"]
    for tol in ([], ["--tol", "0"]):
        code, doc = run_json(["vinberg"] + tol + point)
        assert code == 0
        assert doc["residuals"]["C4"] > 0.0
        assert doc["results"]["C4"]["passed"] is True


def test_relations_pass_a_valid_point_at_order_1e5():
    # pair 1-4 reads 1.12e-7, a single rounding of M_14 M_41, which the
    # fixed gate of 1e-7 once failed and the computed bound holds
    code, doc = run_json(["relations", "--orders", "100000,100000,100000,100000",
                          "--chart", "concurrent", "--v12", "-6.551", "--v23", "-11.9",
                          "--v14", "-1.896", "--v34", "-3.963"])
    assert code == 0
    assert doc["verdicts"]["pass"] is True
    assert doc["residuals"]["finite_pairs"]["1-4"] == pytest.approx(1.12e-7, rel=0.01)


@pytest.mark.parametrize("coordinates", [
    ["--v12=-1e-9", "--v23=-0.7", "--v14=-2.1", "--v34=-0.4"],
    ["--v12=-1.3", "--v23=-0.7", "--v14=-1e9", "--v34=-0.4"],
    ["--v12=-1.3", "--v23=-0.7", "--v14=-2.1", "--v34=-1e9"],
])
def test_concurrent_points_with_a_far_coordinate_pass(coordinates):
    # row 4 in closed form: rebuilt as (M1j - M2j) + M3j, it lost M41,
    # M44 = 2 and M43, in turn, to cancellation at these points
    code, doc = run_json(["relations", "--orders", "3,4,5,6", "--chart", "concurrent"]
                         + coordinates)
    assert code == 0
    assert doc["results"]["relations_passed"] and doc["results"]["vinberg_passed"]


@pytest.mark.parametrize("point", STANDARD_POINTS_NEAR_T24_EDGE)
def test_standard_points_near_the_t24_edge_pass(point):
    flags = [f"--{name}={x!r}" for name, x in zip(("t13", "t24", "v23", "v24", "v34"), point)]
    code, doc = run_json(["relations", "--orders", "3,4,5,6", "--chart", "standard"] + flags)
    assert code == 0
    assert doc["verdicts"]["pass"] is True


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
    # a log-uniform draw over an infinite box overflowed inside numpy
    (SCAN_200, "--box", "-inf,-1"),
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


#: a concurrent point with finite coordinates whose Cartan entry M42 =
#: v12 + mu23 / v23 - 2 overflows to -inf
_INFINITE_M42_POINT = ["--orders", "3,3,3,3", "--chart", "concurrent", "--v12", "-1.7e308",
                       "--v23", "-1e-308", "--v14", "-1", "--v34", "-1"]


@pytest.mark.parametrize("command", ["vinberg", "relations", "invariants", "cocompact"])
def test_an_infinite_cartan_entry_is_usage_error(command, capsys):
    """vinberg once passed this point, with C4's residual 4 - inf."""
    assert cli.main([command, *_INFINITE_M42_POINT]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("value", ["3", "inf", "nan"])
@pytest.mark.parametrize("flag", ["--t13", "--t24"])
def test_scan_outside_the_standard_chart_is_usage_error(flag, value, capsys):
    argv = ["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6", "--samples", "100"]
    assert cli.main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag[2:]} must be >= 4, got {float(value)}\n"


#: argv values at and beyond the edges of the float range, plus tokens
#: that are not numbers at all
_EDGE_NUMBERS = ("0", "-0", "-1", "4", "6", "1e308", "-1e308", "5e-324", "-5e-324",
                 "1e16", "-1e-16", "nan", "inf", "-inf", "x", "")
_number = st.one_of(st.sampled_from(_EDGE_NUMBERS), st.floats().map(repr))
_integer = st.one_of(st.sampled_from(("0", "-1", "1.5", "1e3", "x", "")),
                     st.integers(-5, 2000).map(str))


def _mostly(valid, wild):
    """A value of ``valid`` seven times in eight, else one of ``wild``."""
    return st.integers(0, 7).flatmap(lambda k: wild if k == 7 else valid)


def _joined(values, min_size=0, max_size=6):
    return st.lists(values, min_size=min_size, max_size=max_size).map(",".join)


#: |v| from e^-30 to e^30 and T - 4 from e^-10 to e^30
_abs_v = st.floats(-30.0, 30.0).map(math.exp)
_negative = _mostly(_abs_v.map(lambda x: repr(-x)),
                    st.one_of(_number, st.floats(-1e308, 0.0, exclude_max=True).map(repr)))
_t = _mostly(st.floats(-10.0, 30.0).map(lambda x: repr(4.0 + math.exp(x))),
             st.one_of(_number, st.floats(4.0, 1e308).map(repr)))
_finite = _mostly(st.floats(-1e3, 1e3).map(repr), _number)
_orders = _mostly(_joined(st.integers(3, 10**6).map(str), 4, 4),
                  st.one_of(st.sampled_from(("2,3,3,3", "1000000000,3,3,3", "3,3,3",
                                             "3,,3,3", "-3,3,3,3")), _joined(_integer)))


#: the --file of a fuzzed CSV scan, a name in the test's own temporary
#: directory
_CSV_FILE = "scan.csv"
#: a CSV scan's header
_CSV_HEADER = ["v23", "v24", "v34", "a4v44", "det_M", "T13_prod", "T24_prod"]


@st.composite
def _argv(draw):
    """An argv of any subcommand, mostly valid, with edge and malformed
    values mixed in."""
    command = draw(st.sampled_from(("relations", "vinberg", "cocompact", "invariants",
                                    "scan", "simplex", "orbifold")))
    if command == "scan":
        box = st.tuples(_abs_v, _abs_v).map(lambda b: f"{-max(b)!r},{-min(b)!r}")
        argv = ["scan", "--orders", draw(_orders), "--t13", draw(_t), "--t24", draw(_t),
                "--samples", draw(_mostly(st.integers(1, 2000).map(str), _integer)),
                "--seed", draw(_mostly(st.integers(0, 2**70).map(str), _integer)),
                "--box", draw(_mostly(box, _joined(_number, 0, 3)))]
        # half the scans write CSV, a third of those into a file
        if draw(st.booleans()):
            argv += ["--out", "csv"] + draw(st.sampled_from(([], [], ["--file", _CSV_FILE])))
        return argv
    if command == "simplex":
        n = draw(st.integers(1, 9))
        pairs = [(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)]
        orders = draw(st.lists(st.integers(2, 12), min_size=len(pairs), max_size=len(pairs)))
        free = sum(1 for (i, _), order in zip(pairs, orders) if i >= 2 and order >= 3)
        argv = ["simplex", "--n", str(n), "--simplex-orders",
                draw(_mostly(st.just(",".join(map(str, orders))), _joined(_integer)))]
        if draw(st.booleans()):
            argv.append("--free=" + draw(_mostly(_joined(_negative, free, free),
                                                 _joined(_number))))
        return argv
    if command == "orbifold":
        singular = _mostly(_joined(st.integers(2, 50).map(str)), _joined(_integer))
        chi = _mostly(st.integers(-3, 2).map(str), _integer)
        return ["orbifold", "--chi-underlying", draw(chi),
                "--cones", draw(singular), "--corners", draw(singular),
                "--boundary", draw(_mostly(st.integers(0, 3).map(str), _integer))]
    chart = draw(st.sampled_from(sorted(cli._CHART_FLAGS)))
    flags = list(cli._CHART_FLAGS[chart])
    # one time in four, one flag too many (stray or repeated) or one too few
    if not draw(st.integers(0, 3)):
        flags += draw(st.lists(st.sampled_from(cli._COORDINATE_FLAGS), max_size=1))
        flags = draw(st.permutations(flags))[:len(flags) - draw(st.integers(0, 1))]
    argv = [command, "--orders", draw(_orders), "--chart", chart]
    for flag in flags:
        value = _t if flag in ("t13", "t24") else _finite if flag == "v44" else _negative
        argv += [f"--{flag}", draw(value)]
    if command != "cocompact" and draw(st.booleans()):
        argv += ["--tol", draw(_mostly(st.floats(0.0, 1.0).map(repr), _number))]
    return argv


def _reject_constant(name):
    raise AssertionError(f"{name} in the JSON output")


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
# once leaked numpy's overflow warning from the scan's histogram
@example(argv=_RANGE_OVERFLOW_ARGV)
# once ended in numpy's own "Too many bins" text
@example(argv=_NARROW_RANGE_ARGV)
# once ended in "solve residual nan of M43 exceeds tolerance"
@example(argv=_FAR_STANDARD_ARGV)
# once passed all five conditions with M42 = -inf
@example(argv=["vinberg", *_INFINITE_M42_POINT])
# once called a concurrent point with T13 = 4 + 8e-17 not cocompact
@example(argv=["cocompact", *_ROUNDED_T13_POINT])
def test_fuzzed_argv_ends_in_a_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp, _CSV_FILE)
        argv = [str(target) if arg == _CSV_FILE else arg for arg in argv]
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse refusing a flag
                code = exc.code
        written = target.read_bytes().decode() if target.exists() else None
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert lines and "error:" in lines[-1]
        assert not any("error:" in line for line in lines[:-1])
        # argparse puts its usage before its one error line
        assert len(lines) == 1 or lines[0].startswith("usage: ")
    elif "csv" in argv:
        assert (code, err) == (0, "")
        if "--file" in argv:
            assert out == ""
            out = written
        header, *rows = csv.reader(io.StringIO(out, newline=""))
        assert header == _CSV_HEADER
        assert rows and all(len(row) == len(_CSV_HEADER) for row in rows)
    else:
        assert err == ""
        json.loads(out, parse_constant=_reject_constant)
