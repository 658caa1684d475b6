"""The benchmark's self-test passes on this checkout, so removing or renaming
a public name that ``perfbench/`` calls fails here, not only in a benchmark
run.  The self-test writes only under the ignored ``.perfbench_work/`` and
``.perfbench_out/``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
