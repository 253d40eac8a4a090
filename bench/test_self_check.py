"""The benchmark's own test: its self-check mode at tiny sizes.

Run with ``python3 -m pytest -q bench`` from the repository root.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_self_check_emits_every_metric():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run_bench.py"), "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 6, proc.stdout
