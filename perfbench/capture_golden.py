"""Record the golden outputs of the seed-independent jobs into golden.json.

    python3 perfbench/capture_golden.py

Run it only on a commit whose outputs are trusted: the references it writes
are what later passes compare against.  Each golden job is captured under
two seeds, and the two captures must agree, which shows the outputs do not
depend on the seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cover-ladder", "pres-ladder")  # the workloads with golden jobs


def capture(workload: str, seed: int, work: str) -> dict:
    worker = [sys.executable, os.path.join(HERE, "worker.py")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    ladder = os.path.join(work, f"{workload}-{seed}")
    subprocess.run(worker + ["setup", "--workload", workload, "--seed", str(seed), "--dir", ladder],
                   cwd=ROOT, env=env, check=True)
    path = os.path.join(ladder, "ladder.json")
    with open(path, encoding="utf-8") as fh:
        jobs = [j for j in json.load(fh) if j["check"]["type"] == "golden"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    out = os.path.join(work, f"{workload}-{seed}-golden.json")
    subprocess.run(worker + ["pass", "--dir", ladder, "--capture", out], cwd=ROOT, env=env, check=True)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    work = os.path.join(ROOT, ".perfbench_work", "golden")
    shutil.rmtree(work, ignore_errors=True)
    golden = {}
    try:
        for workload in WORKLOADS:
            first, second = capture(workload, 0, work), capture(workload, 1, work)
            if first != second:
                differ = sorted(k for k in first if first[k] != second.get(k))
                print(f"capture_golden: outputs depend on the seed: {differ}", file=sys.stderr)
                return 1
            golden |= first
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"capture_golden: {len(golden)} golden outputs written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
