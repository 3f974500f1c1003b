from pathlib import Path

import pytest

from helpers import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: Path(p).stem)
def test_demo_runs_cleanly(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout
