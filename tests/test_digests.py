"""tools/digests.py lists the outputs of a checkout, one sha256 each."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digests_lists_72_distinct_outputs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digests.py"), str(ROOT)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 72
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    assert len({line.split("  ")[1] for line in lines}) == 72
