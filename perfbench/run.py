"""projcox benchmark.

    python3 perfbench/run.py --workload {certify,scan,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload's inputs come from the
seed; load is a closed loop with one client, so each operation starts
when the previous one ends, and BLAS runs single-threaded.  Every
operation's output is checked against the label its generator knows.
Times are scaled to a nominal machine speed by a reference task run
between operations (see run_untraced).

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run (spans around every public projcox function, see
tracing.py).  The lines before it are a JSON report with run metadata,
the metrics under the names used in perfbench/README.md, their sample
counts, and the oracle's findings.  The report (and, traced, the spans
of the first round of operations) is also written under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("certify", "scan", "cli")
SETUP_REPEATS = 5          # set-ups per run behind the setup_s median
UNTRACED_SHARE = 0.3       # share of a traced run measured without spans

#: functions whose spans are reported per layer
FUNCTIONS = (
    "linalg.reflection", "linalg.mat_power", "linalg.rank", "linalg.kernel_basis",
    "orbifold.to_edge_orders",
    "charts.build_general", "charts.build_concurrent", "charts.build_standard",
    "charts.realize_representation", "charts.is_semisimple", "charts.solve_standard_batch",
    "cartan.check_vinberg", "cartan.cartan_of", "cartan.cyclic_invariants",
    "cartan.derived_invariant_identities", "cartan.projectively_equivalent",
    "certify.verify_relations", "certify.is_convex_cocompact",
    "certify.standard_scan", "certify.det_locus_check", "certify.concurrent_t_scan",
)


def prepare():
    """Pin BLAS to one thread and put the package source on the path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def make_load(workload: str, small: bool = False, in_process: bool = False):
    if workload == "certify":
        from certify_load import CertifyLoad
        return CertifyLoad(small)
    if workload == "scan":
        from scan_load import ScanLoad
        return ScanLoad(small)
    from cli_load import CliLoad
    return CliLoad(small, in_process)


def timed_setup(workload, seed, small=False, in_process=False):
    start = time.perf_counter()
    load = make_load(workload, small, in_process)
    load.setup(seed)
    return load, time.perf_counter() - start


def setup_in_child(workload, seed, small):
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
                           "1" if small else "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.split()[-1])


def setup_samples(workload, seed, small, repeats):
    """Seconds of ``repeats`` set-ups, each in a fresh interpreter, and
    the slowdown of the machine meanwhile.  A set-up is mostly interpreter
    start and imports, so the slowdown is that of a cold
    ``python -c "import numpy"`` (the cli workload's reference task), the
    median of one run before and one after each set-up."""
    from cli_load import CliLoad
    references = [CliLoad.reference()]
    setups = []
    for _ in range(repeats):
        setups.append(setup_in_child(workload, seed, small))
        references.append(CliLoad.reference())
    return setups, statistics.median(references) / CliLoad.reference_nominal_ns


# -- measurement ---------------------------------------------------------

def measure(load, seconds, min_ops=0, tracer=None, references=None):
    """Closed loop over the workload's operations for ``seconds``.

    Returns records (kind, items, ns, status, position).  Traced, the
    loop stops only between rounds, so that every round it ran is
    complete.  Given a list ``references``, the workload's reference task
    runs between operations after every ``load.reference_every_s`` of
    busy time and its times (ns) are appended there; ``position`` is the
    number of reference times taken before the operation.
    """
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    records = []
    busy = next_reference = 0
    i = 0
    while True:
        boundary = tracer is None or i % load.round_size == 0
        if boundary and i >= min_ops and clock() >= deadline:
            break
        if references is not None and busy >= next_reference:
            references.append(load.reference())
            next_reference = busy + load.reference_every_s * 1e9
        kind, items = load.describe(i)
        if tracer:
            tracer.begin_op(i)
        start = clock()
        try:
            outcome = load.op(i)
        except Exception as exc:   # counted as a failed operation
            outcome = exc
        elapsed = clock() - start
        if tracer:
            tracer.end_op()
            if i + 1 == load.round_size:
                tracer.end_first_round()
        position = len(references) if references is not None else 0
        records.append((kind, items, elapsed, load.check(i, outcome), position))
        busy += elapsed
        i += 1
    return records


def local_slowdowns(references, nominal_ns, half_window):
    """Slowdown around each position of ``measure``'s records: the median
    of the ``half_window`` reference times taken before it and as many
    after it, over the reference's nominal time."""
    out = []
    for position in range(len(references) + 1):
        window = references[max(0, position - half_window):position + half_window]
        out.append(statistics.median(window) / nominal_ns)
    return out


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail(values):
    """(name, value) of the tail of ``values``: the p90 when at least ten
    samples lie beyond it, else the median.  The p90 rather than the p99:
    on a shared host, episodes of jitter that other tenants cause, and
    that scaling by the reference task does not take out, raise the p99
    of a sub-millisecond operation by a quarter for much of a run."""
    if len(values) >= 100:
        return "p90", percentile(sorted(values), 0.90)
    return "p50", statistics.median(values)


def block_p99(values):
    """The median over consecutive blocks of 1000 of ``values``, given in
    the order run, of each block's p99; None below 1000 values."""
    blocks = [percentile(sorted(values[k:k + 1000]), 0.99) for k in range(0, len(values) - 999, 1000)]
    return statistics.median(blocks) if blocks else None


def rate(records, kinds):
    """Items per second of busy time over the operations of the given kinds."""
    done = [r for r in records if r[0] in kinds]
    return sum(r[1] for r in done) / (sum(r[2] for r in done) / 1e9), sum(r[1] for r in done)


def summarize(load, records):
    throughput, items = rate(records, load.throughput_kinds)
    latencies = sorted(r[2] / 1e6 for r in records if r[0] in load.latency_kinds)
    tails = [r[2] / 1e6 for r in records if r[0] in load.tail_kinds]
    tail_name, tail_ms = tail(tails)
    return {"throughput_per_s": throughput, "throughput_items": items,
            "p50_ms": statistics.median(latencies), "latency_n": len(latencies),
            "tail_ms": tail_ms, "tail_name": tail_name, "tail_n": len(tails),
            "p99_ms": block_p99(tails)}


def oracle(records):
    """What the oracle found among the records.

    ``failed`` counts operations that raised or whose output disagrees
    with its label.  A status "known:<kind>" is the known false rejection
    of ``verify_relations`` (ROADMAP item 2): it is counted apart, under
    ``known_defect``, and ``failed_share`` counts both over attempted.
    """
    statuses = [r[3] for r in records]
    known = Counter(s for s in statuses if s.startswith("known:"))
    failed = [s for s in statuses if s != "ok" and not s.startswith("known:")]
    return {"attempted": len(records), "failed": len(failed),
            "failed_share": (len(failed) + sum(known.values())) / len(records),
            "known_defect": sum(known.values()), "known_defect_by_kind": dict(known),
            "failed_examples": failed[:5]}


def metric(value, unit, n=None, computed=False):
    """A metric entry; ``computed`` marks a count derived from sizes and
    arguments, which repeats exactly for the same seed."""
    entry = {"value": value, "unit": unit}
    if n is not None:
        entry["n"] = n
    if computed:
        entry["label"] = "computed"
    return entry


def named_metrics(workload, records, s, peak_mb, setup_s, checks):
    """End-to-end metrics under their workload-specific names."""
    n, tail_n = s["latency_n"], s["tail_n"]
    out = {"setup_s": metric(setup_s, "s", SETUP_REPEATS),
           "failed_share": metric(checks["failed_share"], "ratio", checks["attempted"]),
           "peak_rss_mb": metric(peak_mb, "MB")}
    if workload == "certify":
        out["certify_points_per_s"] = metric(s["throughput_per_s"], "1/s", s["throughput_items"])
        out["certify_p50_us"] = metric(s["p50_ms"] * 1e3, "us", n)
        out[f"certify_{s['tail_name']}_us"] = metric(s["tail_ms"] * 1e3, "us", tail_n)
        if s["p99_ms"] is not None:
            out["certify_p99_us"] = metric(s["p99_ms"] * 1e3, "us", tail_n)
    elif workload == "scan":
        out["scan_samples_per_s"] = metric(s["throughput_per_s"], "1/s", s["throughput_items"])
        small_rate, small_items = rate(records, ("scan_small",))
        out["scan_small_samples_per_s"] = metric(small_rate, "1/s", small_items)
        out["scan_small_call_p50_ms"] = metric(s["p50_ms"], "ms", n)
        out[f"scan_large_call_{s['tail_name']}_ms"] = metric(s["tail_ms"], "ms", tail_n)
    else:
        out["cli_invocations_per_s"] = metric(s["throughput_per_s"], "1/s", n)
        out["cli_p50_ms"] = metric(s["p50_ms"], "ms", n)
        out[f"cli_{s['tail_name']}_ms"] = metric(s["tail_ms"], "ms", tail_n)
    return out


def layer_metrics(tracer, load, records, probes, rate_untraced, rate_traced):
    """Per-layer metrics of a traced run: (contract metrics, report metrics)."""
    from tracing import LAYERS, OP
    calls0, work0 = tracer.first_round
    n0 = load.round_size
    ops = len(records)
    op_ns = tracer.total_ns[OP]
    contract, report = {}, {}
    for f in FUNCTIONS:
        contract[f"{f}.calls"] = metric(calls0[f] / n0, "count")
        contract[f"{f}.self_pct"] = metric(100.0 * tracer.self_ns[f] / op_ns, "%")
        report[f"{f}.calls"] = metric(calls0[f] / n0, "count", n0, computed=True)
        report[f"{f}.self_us"] = metric(tracer.self_ns[f] / ops / 1e3, "us", ops)
    for layer in LAYERS:
        share = sum(v for k, v in tracer.self_ns.items() if k.startswith(layer + "."))
        contract[f"{layer}.self_pct"] = metric(100.0 * share / op_ns, "%")
    contract["unattributed.self_pct"] = metric(100.0 * tracer.self_ns[OP] / op_ns, "%")

    rejected = oracle(records[:n0])["known_defect"] / n0
    contract["certify.verify_relations.false_reject_share"] = metric(rejected, "ratio")
    report["certify.verify_relations.false_reject_share"] = metric(rejected, "ratio", n0,
                                                                   computed=True)

    matmuls = work0["linalg.mat_power.matmuls"] / n0
    samples0 = work0["charts.solve_standard_batch.samples"]
    alloc = work0["charts.solve_standard_batch.alloc_bytes"] / samples0 if samples0 else 0.0
    valid = work0["charts.solve_standard_batch.valid"] / samples0 if samples0 else 0.0
    contract["linalg.mat_power.matmuls"] = metric(matmuls, "count")
    contract["charts.solve_standard_batch.bytes_computed"] = metric(alloc, "bytes")
    contract["charts.solve_standard_batch.valid_ratio"] = metric(valid, "ratio")
    report["linalg.mat_power.matmuls"] = metric(matmuls, "count", n0, computed=True)
    report["charts.solve_standard_batch.bytes_computed"] = metric(alloc, "bytes", samples0, computed=True)
    report["charts.solve_standard_batch.valid_ratio"] = metric(valid, "ratio", samples0, computed=True)

    work = tracer.work
    for name, key in (
            ("charts.solve_standard_batch.us_per_sample", "charts.solve_standard_batch"),
            ("certify.standard_scan.self_us_per_sample", "certify.standard_scan"),
            ("certify.det_locus_check.self_us_per_sample", "certify.det_locus_check")):
        count = work[f"{key}.samples"]
        report[name] = metric(tracer.self_ns[key] / count / 1e3 if count else 0.0, "us", count)
    points = work["certify.concurrent_t_scan.points"]
    report["certify.concurrent_t_scan.us_per_point"] = metric(
        tracer.total_ns["certify.concurrent_t_scan"] / points / 1e3 if points else 0.0, "us", points)

    for name, value in probes.items():
        contract[name] = metric(value, "ms")
        report[name] = metric(value, "ms", SETUP_REPEATS)
    overhead = 100.0 * (rate_untraced - rate_traced) / rate_untraced
    contract["trace.overhead_pct"] = metric(overhead, "%")
    report["trace.untraced_per_s"] = metric(rate_untraced, "1/s")
    report["trace.traced_per_s"] = metric(rate_traced, "1/s")
    report["trace.overhead_per_s"] = metric(rate_untraced - rate_traced, "1/s")
    report["trace.overhead_pct"] = metric(overhead, "%")
    return contract, report


def metadata(workload, seed, seconds, trace):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "git_commit": commit,
            "load": "closed loop, one client"}


# -- runs ------------------------------------------------------------------

def run_untraced(workload, seed, seconds, small=False):
    load, own_setup = timed_setup(workload, seed, small)
    setups, setup_slowdown = setup_samples(workload, seed, small, 2 if small else SETUP_REPEATS)
    references = []
    records = measure(load, seconds, load.min_ops, references=references)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    # Other tenants of a shared host slow every step of a run alike, by
    # up to 1.9x, changing within seconds.  Scaling each operation's time
    # by the slowdown of a reference task run between operations within
    # about a second of it takes that out: the figures are those of a
    # machine running the workload in nominal time.
    slowdown = statistics.fmean(references) / load.reference_nominal_ns
    local = local_slowdowns(references, load.reference_nominal_ns,
                            max(1, round(1.0 / load.reference_every_s)))
    scaled = [(kind, items, ns / local[position], status, position)
              for kind, items, ns, status, position in records]
    s = summarize(load, scaled)
    setup_s = statistics.median(setups) / setup_slowdown
    checks = oracle(records)
    contract = {"throughput_per_s": metric(s["throughput_per_s"], "1/s"),
                "p50_ms": metric(s["p50_ms"], "ms"),
                "tail_ms": metric(s["tail_ms"], "ms"),
                "peak_rss_mb": metric(peak_mb, "MB"),
                "setup_s": metric(setup_s, "s")}
    report = {"metadata": metadata(workload, seed, seconds, 0),
              "metrics": named_metrics(workload, scaled, s, peak_mb, setup_s, checks),
              "machine": {"slowdown": slowdown, "slowdown_min": min(local),
                          "slowdown_max": max(local), "reference_samples": len(references),
                          "reference_mean_ms": statistics.fmean(references) / 1e6,
                          "reference_nominal_ms": load.reference_nominal_ns / 1e6},
              "setup_s_samples": setups, "setup_slowdown": setup_slowdown,
              "setup_s_in_process": own_setup, "oracle": checks}
    result = {"correct": checks["failed"] == 0, "attempted": checks["attempted"],
              "failed": checks["failed"], "metrics": contract}
    return result, report


def run_traced(workload, seed, seconds, small=False):
    from cli_load import layer_probes
    from tracing import Tracer, self_sum_error
    load, own_setup = timed_setup(workload, seed, small, in_process=True)
    untraced = measure(load, seconds * UNTRACED_SHARE)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(load, seconds * (1 - UNTRACED_SHARE), load.round_size, tracer)
    finally:
        tracer.uninstall()
    probes = layer_probes(seed, 2 if small else SETUP_REPEATS)
    rate_untraced = rate(untraced, load.throughput_kinds)[0]
    rate_traced = rate(traced, load.throughput_kinds)[0]
    contract, layers = layer_metrics(tracer, load, traced, probes, rate_untraced, rate_traced)
    checks = oracle(untraced + traced)
    error_ns = self_sum_error(tracer.spans)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    report = {"metadata": metadata(workload, seed, seconds, 1), "per_layer": layers,
              "setup_s": own_setup, "oracle": checks,
              "trace": {"ops_traced": len(traced), "spans_kept": len(tracer.spans),
                        "spans_file": str(spans_path.relative_to(ROOT)),
                        "self_sum_max_error_ns": error_ns}}
    result = {"correct": checks["failed"] == 0 and error_ns == 0,
              "attempted": checks["attempted"], "failed": checks["failed"], "metrics": contract}
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "projcox" / "__init__.py").is_file():
        print(f"error: no projcox source under {ROOT / 'src'}; run from a projcox checkout",
              file=sys.stderr)
        return 2
    prepare()
    run = run_traced if args.trace else run_untraced
    result, report = run(args.workload, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    text = json.dumps(report, indent=1, sort_keys=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
