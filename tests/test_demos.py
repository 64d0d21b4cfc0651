"""Every script under demos/ runs to completion and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import driftvote

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    ["drift_benchmark", "engine_scaling", "fixed_window_tradeoff", "permute_pair", "theory_numbers"],
)
def test_demo_runs(name):
    env = dict(os.environ)
    src = str(Path(driftvote.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
