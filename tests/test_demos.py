"""The demos read only the public API: each runs to the end with warnings as
errors, as `python -W error demos/<name>.py`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hspec

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_there_are_four_demos():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_with_warnings_as_errors(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(Path(hspec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and proc.stdout.strip()
    assert list(tmp_path.iterdir()) == []
