"""One fresh benchmark process: generate a ladder, or run one pass over it.

    python3 perfbench/worker.py setup --workload W --seed N --dir D --result R
    python3 perfbench/worker.py pass --dir D --trace 0|1 --result R [--spans S]
    python3 perfbench/worker.py pass --dir D --capture G   # rewrite golden outputs

A pass runs the jobs of ``D/ladder.json`` one after another in this process
(a closed loop with one client): each job starts when the previous one has
returned.  CLI jobs call ``fpforge.cli.main(argv)`` in-process with stdout
captured, demos run through ``runpy``, and pipeline jobs call the library.
Only the job itself is timed, between two calls of ``calibrate()`` that
measure the machine's speed; preparing its inputs, checking its output
against the reference and ``gc.collect()`` happen between jobs, untimed.
A job that raises, exits nonzero or gives a wrong output counts as failed;
it is never dropped or retried.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import io
import json
import os
import resource
import runpy
import sys
import traceback
from collections import Counter
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fpforge  # noqa: E402
import fpforge.cli  # noqa: E402

from calibrate import calibrate  # noqa: E402
from metrics import layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")
MEMBERS = {p: f"Lp{p}" for p in (3, 5, 7)}
SETUP_CALIBRATIONS = 3  # before and after the set-up


# ---------------------------------------------------------------------------
# Jobs: prepare (untimed) -> run (timed) -> check (untimed)


def _captured(fn):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fn()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _plain_voltage(path: str):
    """Base adjacency and directed-edge permutations, read from the JSON alone."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    degree = data["degree"]
    adj: dict[int, set[int]] = {}
    for facet in data["base"]["facets"]:
        for u in facet:
            adj.setdefault(u, set()).update(w for w in facet if w != u)
    perm = {}
    for item in data["voltages"]:
        (u, w), p = item["edge"], [s - 1 for s in item["perm"]]
        inverse = [0] * degree
        for i, x in enumerate(p):
            inverse[x] = i
        perm[(u, w)], perm[(w, u)] = p, inverse
    return degree, adj, perm


def _closed_walks(adj: dict[int, set[int]], start: int, max_len: int) -> list[tuple[int, ...]]:
    """Every closed walk of length <= max_len at start (backtracking allowed)."""
    dist, frontier = {start: 0}, [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    walks, stack = [], [(start, (start,))]
    while stack:
        cur, path = stack.pop()
        rem = max_len - (len(path) - 1)
        for w in sorted(adj[cur]):
            if dist[w] > rem - 1:
                continue
            if w == start:
                walks.append(path + (w,))
            if rem > 1:
                stack.append((w, path + (w,)))
    return walks


def _walk_perm(perm, degree, walk):
    sheets = list(range(degree))
    for u, w in zip(walk, walk[1:]):
        p = perm.get((u, w))
        if p is not None:
            sheets = [p[s] for s in sheets]
    return sheets


def _run_demo(path: str) -> int:
    runpy.run_path(path, run_name="__main__")
    return 0


def prepare(job: dict) -> dict:
    if job["kind"] == "demo":
        (path,) = glob.glob(os.path.join(ROOT, "demos", f"{job['demo']}_*.py"))
        return {"path": path}
    if job["kind"] == "lift":
        degree, adj, perm = _plain_voltage(job["voltage"])
        return {"walks": _closed_walks(adj, job["base_vertex"], job["max_len"]), "degree": degree, "perm": perm}
    return {}


def run(job: dict, state: dict):
    kind = job["kind"]
    if kind == "cli":
        return _captured(lambda: fpforge.cli.main(job["argv"]))
    if kind == "demo":
        return _captured(lambda: _run_demo(state["path"]))
    if kind == "lift":
        covers = fpforge.covers
        voltage = covers.load_voltage(job["voltage"])
        cover = covers.build_cover(voltage)
        lifts = [covers.lift_loop(cover, walk, s) for walk in state["walks"] for s in range(cover.degree)]
        doubled = covers.double_of_cover(voltage.base, cover)
        return {
            "lifts": lifts,
            "deck": covers.deck_group(cover),
            "generators": covers.normal_generators(cover),
            "doubled": doubled,
            "verified": covers.verify_covering(doubled),
            "base": voltage.base,
        }
    sigma = fpforge.sigma
    if kind == "registry":
        entry = sigma.constructed_entry("Lcov", fpforge.covers.load_voltage(job["voltage"]))
        return entry, sigma.validate_registry({"Lcov": entry})
    if kind == "mindis":
        registry = sigma.example_registry()
        if job["rule"] == "tower":
            constants = sigma.choose_constants(2, None, job["m"])
            a = sigma.sigma_power_tower([1, 2], constants, registry, [3], member_ids=MEMBERS)
            b = sigma.sigma_power_tower([1], constants, registry, [3], member_ids=MEMBERS)
        else:
            a = sigma.sigma_field_example(registry, member_ids=MEMBERS)
            b = sigma.SigmaSpec(registry, a.base_id, exceptions={job["p"]: "L"}, prime_rule=a.prime_rule)
        return sigma.min_disagreement_height(a, b)
    raise ValueError(f"unknown job kind {kind!r}")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _homology_ok(cert: dict, ring: str, ranks: list[int], torsion: list[list[int]]) -> bool:
    degrees = sorted(cert["degrees"], key=lambda d: d["degree"])
    return (
        cert["ring"] == ring
        and [d["rank"] for d in degrees] == ranks
        and [d["torsion"] for d in degrees] == torsion
    )


def _observed(job: dict, result) -> object:
    """The part of a job's output that golden references record."""
    if job["kind"] == "mindis":
        return str(result)
    code, out, err = result
    return {"code": code, "stdout": out, "files": [_read(p) for p in job["check"].get("files", [])]}


def check(job: dict, state: dict, result, golden: dict) -> str | None:
    """None when the output matches the job's reference, else the reason."""
    spec = job["check"]
    kind = spec["type"]
    if job["kind"] in ("cli", "demo"):
        code, out, err = result
        if code not in (0, None):
            return f"exit code {code}: {err.strip()[-300:]}"
    if kind == "golden":
        if spec["key"] not in golden:
            return f"no golden output for {spec['key']}"
        return None if _observed(job, result) == golden[spec["key"]] else "differs from the golden output"
    if kind == "value":
        return None if result == spec["value"] else f"got {result}, expected {spec['value']}"
    if kind == "homology":
        e = spec["expect"]
        ok = _homology_ok(json.loads(_read(spec["file"])), e["ring"], e["ranks"], e["torsion"])
        return None if ok else "wrong homology certificate"
    if kind == "cover":
        cert = json.loads(_read(spec["file"]))
        base_f = spec["base_f"]
        facets = json.loads(_read(spec["total"]))["facets"]
        ok = (
            cert["degree"] == 2
            and cert["verified_covering"] is True
            and cert["base_f_vector"] == base_f
            and cert["total_f_vector"] == [2 * f for f in base_f]
            and len(facets) == 2 * base_f[-1]
            and len(cert["homology"]) == 1
            and _homology_ok(cert["homology"][0], "F2", spec["ranks"], [[] for _ in spec["ranks"]])
        )
        return None if ok else "wrong cover certificate"
    if kind == "double":
        report = json.loads(_read(spec["file"]))
        base_f = spec["base_f"]
        expect = [2 ** (k + 1) * f for k, f in enumerate(base_f)]
        ok = report["base_f_vector"] == base_f and report["double_f_vector"] == expect
        return None if ok else "double f-vector breaks f_k = 2^(k+1) f_k"
    if kind == "spectrum":
        report = json.loads(_read(spec["file"]))
        return None if report["spectrum"] == spec["spectrum"] else f"spectrum {report['spectrum']}"
    if kind == "present":
        ok = json.loads(_read(spec["file"])) == spec["expect"]
        lines = _read(spec["text"]).splitlines()
        ok = ok and len(lines) == 1 + len(spec["expect"]["relators"]) and lines[0].startswith("gen ")
        return None if ok else "presentation differs from its definition"
    if kind == "registry":
        entry, problems = result
        z = entry.homology["Z"]
        ok = not problems and list(z.ranks) == spec["ranks"] and not any(z.torsion)
        return None if ok else f"registry problems {problems}"
    if kind == "lift":
        degree, perm = state["degree"], state["perm"]
        lifts = iter(result["lifts"])
        for walk in state["walks"]:
            sheets = _walk_perm(perm, degree, walk)
            for s in range(degree):
                if next(lifts) != (sheets[s] == s, sheets[s]):
                    return f"lift of {walk} from sheet {s} ends off the voltage product"
        if result["deck"] != (True, [(0, 1), (1, 0)]):
            return f"deck group {result['deck']}"
        for loop in result["generators"]:
            if loop[0] != loop[-1] or _walk_perm(perm, degree, loop) != list(range(degree)):
                return f"normal generator {loop} does not lift to closed loops"
        base_f, doubled_f = (Counter(len(s) for s in K.simplices) for K in (result["base"], result["doubled"].total))
        if not result["verified"] or any(doubled_f[k] != 2 ** k * 2 * base_f[k] for k in (1, 2, 3)):
            return "double of the cover is not a verified cover of the double"
        return None
    return f"unknown check {kind!r}"


# ---------------------------------------------------------------------------
# Modes


def do_setup(args) -> dict:
    from ladders import generate

    os.makedirs(args.dir, exist_ok=True)
    # Set-up is one step per process, so it gets more calibrations; the
    # first call in a fresh process warms the allocator and is not used.
    cal_s = [calibrate() for _ in range(SETUP_CALIBRATIONS + 1)][1:]
    t0 = perf_counter()
    jobs = generate(args.workload, args.seed, args.dir)
    with open(os.path.join(args.dir, "ladder.json"), "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    setup_s = perf_counter() - t0
    cal_s += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    return {"setup_s": setup_s, "cal_s": cal_s, "jobs": len(jobs)}


def do_pass(args) -> dict:
    with open(os.path.join(args.dir, "ladder.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    golden = {}
    if not args.capture:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    captured = {}
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    records = []
    calibrate()  # warm-up, not used
    for job in jobs:
        state = prepare(job)
        gc.collect()
        cal_s = [calibrate()]
        root = tracer.open(job["name"], "bench") if tracer else None
        c0, t0 = process_time(), perf_counter()
        try:
            result, error = run(job, state), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        seconds, cpu_s = perf_counter() - t0, process_time() - c0
        if tracer:
            tracer.close(root)
        cal_s.append(calibrate())
        if error is None and args.capture:
            if job["check"]["type"] == "golden":
                captured[job["check"]["key"]] = _observed(job, result)
        elif error is None:
            try:
                error = check(job, state, result, golden)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        records.append({k: job[k] for k in ("name", "rung", "size", "top")} | {"seconds": seconds, "cpu_s": cpu_s, "cal_s": cal_s, "error": error})
        del result, state
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"jobs": records, "peak_rss_kib": peak_kib}
    if tracer:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer.spans, records)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "layer", "parent", "start_s", "end_s", "counters"], "spans": tracer.spans}, fh)
    if args.capture:
        with open(args.capture, "w", encoding="utf-8") as fh:
            json.dump(captured, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "pass"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("--capture")
    parser.add_argument("--result")
    args = parser.parse_args()
    out = do_setup(args) if args.mode == "setup" else do_pass(args)
    if args.result:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
