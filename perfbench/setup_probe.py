"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED SMALL

Prints the seconds from before the workload's modules (numpy and
projcox included) are imported until its inputs are generated and
warmed up.  run.py takes the median of several of these.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    run.prepare()
    _, seconds = run.timed_setup(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
    print(repr(seconds))
