"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

Checks that every metric BENCHMARK.json names is printed with its unit,
that the report carries the metrics under their workload names, that
computed counts repeat exactly for a seed, that the self times of a
traced operation add up to its duration, and that the oracle counts a
deliberately mislabelled operation as failed while it counts the
known false rejections of ``verify_relations`` apart.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.prepare()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

NAMED = {
    "certify": {"setup_s": "s", "failed_share": "ratio", "peak_rss_mb": "MB",
                "certify_points_per_s": "1/s", "certify_p50_us": "us"},
    "scan": {"setup_s": "s", "failed_share": "ratio", "peak_rss_mb": "MB",
             "scan_samples_per_s": "1/s", "scan_small_samples_per_s": "1/s"},
    "cli": {"setup_s": "s", "failed_share": "ratio", "cli_p50_ms": "ms"},
}
TRACED_NAMED = {
    "linalg.reflection.self_us": "us", "linalg.mat_power.matmuls": "count",
    "orbifold.to_edge_orders.calls": "count", "charts.build_standard.self_us": "us",
    "charts.solve_standard_batch.us_per_sample": "us",
    "charts.solve_standard_batch.bytes_computed": "bytes",
    "charts.solve_standard_batch.valid_ratio": "ratio",
    "certify.standard_scan.self_us_per_sample": "us",
    "certify.det_locus_check.self_us_per_sample": "us",
    "certify.concurrent_t_scan.us_per_point": "us",
    "certify.verify_relations.false_reject_share": "ratio",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.main.scan_ms": "ms",
    "trace.overhead_pct": "%",
}
COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes", "ratio")]


def units(metrics):
    return {name: entry["unit"] for name, entry in metrics.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, report = run.run_untraced(workload, seed=5, seconds=0.5, small=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert units(result["metrics"]) == END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert NAMED[workload].items() <= units(report["metrics"]).items()
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == report["oracle"]["failed"] == 0
    assert {"nproc", "python", "numpy", "blas_threads", "git_commit", "seed"} <= set(report["metadata"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result, report = run.run_traced(workload, seed=5, seconds=0.5, small=True)
    assert units(result["metrics"]) == PER_LAYER
    assert TRACED_NAMED.items() <= units(report["per_layer"]).items()
    assert report["trace"]["self_sum_max_error_ns"] == 0
    assert report["trace"]["spans_kept"] > 0
    assert result["correct"]


def traced_in_child(workload, seed, seconds):
    """A tiny traced run in a fresh interpreter, as the benchmark runs it."""
    code = ("import json, run; run.prepare(); "
            f"print(json.dumps(run.run_traced({workload!r}, {seed}, {seconds}, small=True)[0]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE, capture_output=True,
                          text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["certify", "scan"])
def test_computed_counts_repeat_for_a_seed(workload):
    first = traced_in_child(workload, 9, 0.3)
    second = traced_in_child(workload, 9, 0.6)
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert any(first["metrics"][name]["value"] > 0 for name in COUNTS)


def test_oracle_fails_a_mislabelled_certify_point():
    load, _ = run.timed_setup("certify", 3, small=True)
    label = list(load.labels[0])
    label[0] = not label[0]   # claim the opposite Vinberg verdict
    load.labels[0] = tuple(label)
    checks = run.oracle(run.measure(load, 0.1))
    assert checks["failed"] >= 1


def test_oracle_fails_a_mislabelled_cli_invocation():
    load, _ = run.timed_setup("cli", 3, small=True, in_process=True)
    k = (load.offset + 1) % len(load.calls)
    argv, _ = load.calls[k]
    load.calls[k] = (argv, lambda stdout: False)
    checks = run.oracle(run.measure(load, 0.1, min_ops=7))
    assert checks["failed"] >= 1


def test_large_order_rejections_are_counted_not_filtered():
    load, _ = run.timed_setup("certify", 4, small=True)
    checks = run.oracle(run.measure(load, 0.5, min_ops=load.pool_size))
    assert checks["known_defect"] > 0 and checks["failed"] == 0
    assert checks["failed_share"] == checks["known_defect"] / checks["attempted"]


def test_command_line_prints_json_last(tmp_path):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert units(result["metrics"]) == END_TO_END


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
