"""The ``cli`` workload: ``python -m projcox.cli`` as a cold subprocess per
invocation, round-robin over the seven subcommands with the README's
flags (``scan`` at 1e4 samples, CSV to stdout, seed from the benchmark
seed).  Each invocation must exit 0 with nothing on stderr, print what
its label says, and print the same bytes as every other invocation with
the same flags.

Only the standard library is imported here, so that set-up of this
workload does not pay for numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _json_verdict(expected):
    def check(stdout: bytes):
        got = json.loads(stdout)
        return all(got["verdicts"].get(k) == v for k, v in expected.items())
    return check


def _orbifold(stdout: bytes):
    got = json.loads(stdout)
    return got["results"]["chi"] == "-1/3" and got["verdicts"]["hyperbolic"] is True


def _scan_csv(stdout: bytes):
    lines = stdout.decode().splitlines()
    return lines[0] == "v23,v24,v34,a4v44,det_M,T13_prod,T24_prod" and len(lines) == 10_001


def invocations(seed: int):
    """(argv, label check on stdout) for the seven subcommands."""
    return [
        (["relations", "--orders", "3,4,5,6", "--chart", "general", "--t13", "9", "--t24", "5",
          "--v23", "-2", "--v24", "-0.5", "--v34", "-3"], _json_verdict({"pass": True})),
        (["vinberg", "--orders", "3,3,3,3", "--chart", "concurrent", "--v12", "-1", "--v23", "-1",
          "--v14", "-1", "--v34", "-1"], _json_verdict({"pass": True})),
        (["cocompact", "--orders", "3,3,3,3", "--chart", "general", "--t13", "4", "--t24", "6",
          "--v23", "-1", "--v24", "-1", "--v34", "-1"], _json_verdict({"convex_cocompact": False})),
        (["invariants", "--orders", "3,3,3,3", "--chart", "standard", "--t13", "6", "--t24", "6",
          "--v23", "-1", "--v24", "-1", "--v34", "-1"], _json_verdict({"identities_pass": True})),
        (["orbifold", "--corners", "3,3,3,3"], _orbifold),
        (["scan", "--orders", "3,3,3,3", "--t13", "6", "--t24", "6", "--samples", "10000",
          "--seed", str(seed % 2**32), "--out", "csv"], _scan_csv),
        (["simplex", "--n", "3", "--simplex-orders", "3,3,3,3,3,3"], _json_verdict({"pass": True})),
    ]


def run_in_process(argv):
    """cli.main(argv) in this process; returns (exit code, stdout, stderr)."""
    from projcox import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


#: time of one reference task on the machine the benchmark was tuned on
REFERENCE_NOMINAL_NS = 160_000_000


class CliLoad:
    throughput_kinds = latency_kinds = tail_kinds = ("invocation",)
    round_size = 7
    reference_every_s = 0.3
    reference_nominal_ns = REFERENCE_NOMINAL_NS

    def __init__(self, small: bool = False, in_process: bool = False):
        self.min_ops = 7 if small else 110   # p90 needs ten invocations beyond it
        self.in_process = in_process
        self.calls = []
        self.offset = 0
        self.first_output = {}

    def setup(self, seed: int):
        self.calls = invocations(seed)
        self.offset = seed % len(self.calls)
        self.first_output = {}
        # warm-up: the first run compiles the package.  It is the same
        # subcommand for every seed, so that set-up time does not depend on it.
        first = -self.offset % len(self.calls)
        self.check(first, self.op(first))

    def describe(self, i):
        return "invocation", 1

    @staticmethod
    def reference():
        """Run a fixed task of the workload's kind, a cold interpreter
        that imports numpy, that runs no projcox code; return its time
        in ns."""
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=child_env(),
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        return time.perf_counter_ns() - start

    def op(self, i):
        argv = self.calls[(self.offset + i) % len(self.calls)][0]
        if self.in_process:
            return run_in_process(argv)
        proc = subprocess.run([sys.executable, "-m", "projcox.cli", *argv], cwd=ROOT,
                              env=child_env(), capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, i, outcome):
        k = (self.offset + i) % len(self.calls)
        argv, label = self.calls[k]
        if isinstance(outcome, BaseException):
            return f"{argv[0]}: raised {type(outcome).__name__}: {outcome}"
        code, stdout, stderr = outcome
        if code != 0 or stderr:
            return f"{argv[0]}: exit {code}, stderr {stderr[:200]!r}"
        if k not in self.first_output:
            try:
                labelled = label(stdout)
            except (ValueError, KeyError, IndexError):
                labelled = False
            if not labelled:
                return f"{argv[0]}: output disagrees with its label: {stdout[:200]!r}"
            self.first_output[k] = stdout
        elif stdout != self.first_output[k]:
            return f"{argv[0]}: output differs from the first run with the same flags"
        return "ok"


def _median_run_ms(cmd, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def layer_probes(seed: int, repeats: int):
    """Cold interpreter start, import of projcox.cli on top of it, and
    in-process cli.main per subcommand (median ms of ``repeats`` each)."""
    interpreter = _median_run_ms([sys.executable, "-c", "pass"], repeats)
    imported = _median_run_ms([sys.executable, "-c", "import projcox.cli"], repeats)
    probes = {"cli.interpreter_ms": interpreter, "cli.import_ms": imported - interpreter}
    for argv, _ in invocations(seed):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run_in_process(argv)
            times.append((time.perf_counter() - start) * 1e3)
        probes[f"cli.main.{argv[0]}_ms"] = statistics.median(times)
    return probes
