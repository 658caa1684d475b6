"""The benchmark's own test: schema, a smoke ladder, oracles and refusal.

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` keeps the limits of the benchmark file format.
2. The smoke ladder (every workload's generator on its smallest rungs) runs
   untraced and traced; every job passes its check and the last stdout
   line carries exactly the metrics ``BENCHMARK.json`` names, with units.
3. The oracles reject wrong outputs.
4. Without the program (only ``BENCHMARK.json`` and this directory), the
   benchmark exits nonzero and prints no result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_schema(bench: dict) -> None:
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, bench.keys()
    assert 2 <= len(bench["workloads"]) <= 8 and 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128 and 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]] + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names), names
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert len(json.dumps(bench)) <= 64 * 1024


def run_bench(cwd: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_smoke(bench: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
        expected = {m["name"]: m["unit"] for m in bench[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]


def check_oracles() -> None:
    sys.path.insert(0, HERE)
    import worker

    scratch = os.path.join(ROOT, ".perfbench_work", "selftest")
    os.makedirs(scratch, exist_ok=True)
    cert = os.path.join(scratch, "cert.json")
    with open(cert, "w", encoding="utf-8") as fh:
        json.dump({"ring": "Z", "degrees": [{"degree": d, "rank": 0, "torsion": []} for d in range(3)]}, fh)
    job = {"kind": "cli", "check": {"type": "homology", "file": cert,
                                    "expect": {"ring": "Z", "ranks": [0, 0, 0], "torsion": [[], [2], []]}}}
    assert worker.check(job, {}, (0, "", ""), {}) is not None, "missing torsion went unnoticed"
    assert worker.check(job, {}, (1, "", "boom"), {}) is not None, "nonzero exit went unnoticed"
    golden_job = {"kind": "demo", "check": {"type": "golden", "key": "demo-01"}}
    golden = {"demo-01": {"code": 0, "stdout": "expected\n", "files": []}}
    assert worker.check(golden_job, {}, (0, "expected\n", ""), golden) is None
    assert worker.check(golden_job, {}, (0, "other\n", ""), golden) is not None, "golden mismatch went unnoticed"
    shutil.rmtree(scratch)


def check_refusal() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench(bare, 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for step in (lambda: check_schema(bench), lambda: check_smoke(bench), check_oracles, check_refusal):
        step()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
