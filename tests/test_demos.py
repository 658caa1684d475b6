"""Each demo, run as a script, prints exactly what the benchmark's golden
record holds for it (``perfbench/golden.json``, read only)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*_*.py"))


@pytest.fixture(scope="module")
def golden():
    return json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo, tmp_path, golden):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    expected = golden[f"demo-{demo.name[:2]}"]
    assert (proc.returncode, proc.stdout) == (expected["code"], expected["stdout"]), proc.stderr
