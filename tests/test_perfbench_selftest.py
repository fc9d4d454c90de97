"""The benchmark's tracing hooks still find every name they wrap.

perfbench/selftest.py runs a traced pass over a 4-frame dataset and fails
when a hooked module-level name (such as ``selection.sample_landmark_edges``)
has been renamed or no longer fires.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest ok" in result.stdout
