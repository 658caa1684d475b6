"""fpforge benchmark: self-generated ladders, end to end and layer by layer.

    python3 perfbench/run.py --workload hom-ladder --seed 1 --seconds 10 --trace 0

Workloads are ``hom-ladder``, ``cover-ladder`` and ``pres-ladder`` (see
``ladders.py`` and ``README.md``), plus ``smoke``, a tiny ladder for the
benchmark's own test.  Every step runs in a fresh process (``worker.py``):

1. set-up generates the ladder from ``--seed`` (five times with
   ``--trace 0``; ``setup_s`` is the median);
2. untraced passes run every job of the ladder, one after another, as
   long as another pass still fits in ``--seconds`` (at least one pass);
   ``ladder_s`` and ``small_rungs_s`` sum each job's median time over the
   passes, and ``peak_rss_mib`` is the low median of the passes' peaks;
   every job and set-up time is scaled to reference seconds by the
   calibrations around it (``calibrate.py``);
3. with ``--trace 1`` one more pass runs with the outside-in tracer, and
   the per-layer metrics come from it.

Every job's output is checked against its reference.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Per-job timings, rung sizes, the ``src/`` line count and the
raw spans of the traced pass are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from calibrate import scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hom-ladder", "cover-ladder", "pres-ladder", "smoke")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # past this, a run stops and exits 1 without a result
END_TO_END_UNITS = {"ladder_s": "s", "small_rungs_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
LAYER_UNITS = {
    "homology.self_s": "s", "homology.z_s": "s", "homology.q_s": "s", "homology.fp_s": "s",
    "homology.boundary_nnz": "count", "homology.dense_snf_calls": "count", "homology.dense_snf_cells": "count",
    "homology.growth": "exponent",
    "complex_core.self_s": "s", "complex_core.calls": "count", "complex_core.validate_calls": "count",
    "complex_core.closed_star_calls": "count", "complex_core.facets_s": "s", "complex_core.growth": "exponent",
    "covers.self_s": "s", "covers.verify_covering_s": "s", "covers.lift_loop_calls": "count",
    "covers.lift_loop_us": "us", "covers.total_simplices": "count", "covers.growth": "exponent",
    "spherical_double.self_s": "s",
    "groups.self_s": "s", "groups.coset_s": "s", "groups.coset_rows": "count", "groups.coset_rows_per_s": "1/s",
    "groups.coset_exhausted_frac": "ratio", "groups.abelianization_s": "s",
    "spectrum.self_s": "s", "spectrum.cycles": "count", "spectrum.budget_used": "count",
    "spectrum.unknown_statuses": "count",
    "sigma.self_s": "s", "sigma.min_disagreement_s": "s", "sigma.decisions": "count",
    "cli.self_s": "s", "cli.load_s": "s", "cli.dump_s": "s", "cli.bytes_read": "bytes", "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio", "trace.accounted_frac": "ratio", "src.loc": "lines",
}


class BenchError(RuntimeError):
    pass


def src_loc() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def child(argv: list[str], deadline: float) -> dict:
    """Run one worker step in a fresh process and return its result JSON."""
    result = argv[argv.index("--dir") + 1] + f"-{argv[0]}-result.json"
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv, "--result", result],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv[0]} exceeded the run time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} failed:\n{proc.stderr[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    os.unlink(result)
    return out


def pass_summary(p: dict) -> dict:
    jobs = p["jobs"]
    return {
        "ladder_s": sum(j["seconds"] for j in jobs),
        "small_rungs_s": sum(j["seconds"] for j in jobs if not j["top"]),
        "peak_rss_mib": p["peak_rss_kib"] / 1024,
    }


def end_to_end(passes: list[dict], setups: list[dict], scale: bool = True) -> dict[str, float]:
    """Each job's median time over the passes, summed over the ladder.

    With ``scale`` every time is first converted to reference seconds by the
    calibrations around it (``calibrate.py``), so that a machine that runs
    slower for the whole run does not move the result.
    """
    def seconds(step: dict, key: str) -> float:
        return scaled(step[key], step["cal_s"]) if scale else step[key]

    per_job = [statistics.median(col) for col in zip(*([seconds(j, "seconds") for j in p["jobs"]] for p in passes))]
    top = [j["top"] for j in passes[0]["jobs"]]
    return {
        "ladder_s": sum(per_job),
        "small_rungs_s": sum(t for t, is_top in zip(per_job, top) if not is_top),
        "peak_rss_mib": statistics.median_low(p["peak_rss_kib"] for p in passes) / 1024,
        "setup_s": statistics.median(seconds(s, "setup_s") for s in setups),
    }


def run(args) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ladder = os.path.join(work, "ladder0")
        setups = []
        for i in range(1 if args.trace else SETUP_REPEATS):
            d = os.path.join(work, f"ladder{i}")
            setups.append(child(["setup", "--workload", args.workload, "--seed", str(args.seed), "--dir", d], deadline))
            if d != ladder:
                shutil.rmtree(d)
        passes = []
        start = perf_counter()
        longest = 0.0
        while not passes or perf_counter() - start + longest <= args.seconds:
            t0 = perf_counter()
            passes.append(child(["pass", "--dir", ladder, "--trace", "0"], deadline))
            longest = max(longest, perf_counter() - t0)
        traced = None
        if args.trace:
            spans = os.path.join(out_dir, f"{args.workload}-spans.json")
            traced = child(["pass", "--dir", ladder, "--trace", "1", "--spans", spans], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summaries = [pass_summary(p) for p in passes]
    all_jobs = [j for p in passes + ([traced] if traced else []) for j in p["jobs"]]
    failures = [j for j in all_jobs if j["error"]]
    for j in failures:
        print(f"perfbench: job {j['name']} failed: {j['error']}", file=sys.stderr)

    values = end_to_end(passes, setups)
    if args.trace:
        layers = dict(traced["layers"])
        del layers["traced_ladder_s"]
        traced_s = sum(scaled(j["seconds"], j["cal_s"]) for j in traced["jobs"])
        layers["trace.overhead_frac"] = traced_s / values["ladder_s"] - 1
        layers["src.loc"] = src_loc()
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "src_loc": src_loc(), "setups": setups,
        "unscaled": end_to_end(passes, setups, scale=False),
        "passes": [dict(s, jobs=p["jobs"]) for s, p in zip(summaries, passes)],
        "traced_pass": traced, "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return {"correct": not failures, "attempted": len(all_jobs), "failed": len(failures), "metrics": metrics}


def main() -> int:
    # On SIGTERM, unwind: subprocess.run kills the running worker and the
    # finally clause in run() removes the scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description="fpforge benchmark ladders")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (os.path.join("src", "fpforge", "cli.py"), "demos"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; run from an fpforge checkout", file=sys.stderr)
            return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
