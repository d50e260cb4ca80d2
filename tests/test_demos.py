import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphflag

_REPO = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_REPO / "demos").glob("*.py"))


def test_demos_are_found():
    assert _DEMOS


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(Path(graphflag.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
