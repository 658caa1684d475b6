"""Per-layer metrics from the spans of one traced pass."""

from __future__ import annotations

import math
from collections import defaultdict

from tracer import self_times

LAYERS = ("homology", "complex_core", "covers", "spherical_double", "groups", "spectrum", "sigma", "cli")
# Layers whose growth across rungs is fitted.
GROWTH_LAYERS = ("homology", "complex_core", "covers")
IO_LOAD = ("load_", "_load_json", "presentation_from_json")
IO_DUMP = ("dump_", "_atomic_write", "presentation_to_json")


def growth_exponent(points: dict[int, float]) -> float:
    """Least-squares slope of log time against log size; 0 with fewer than two rungs."""
    pts = [(math.log(n), math.log(t)) for n, t in points.items() if n > 0 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _growth_points(records: list[dict], per_job: dict, layer: str) -> dict[int, float]:
    """Rung size -> layer self time, over the job series that spends most in the layer.

    A series is the jobs that run one command across rungs (the job name up
    to its first dash, e.g. every ``cover-*`` job).  Only series that span at
    least two input sizes take part, so a job that runs on one rung only
    cannot bend the fit.
    """
    series: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for j, record in enumerate(records):
        if record["size"] > 0:
            series[record["name"].split("-")[0]][record["size"]] += per_job[j, layer]
    spanning = [pts for pts in series.values() if len(pts) >= 2 and sum(pts.values()) > 0]
    return max(spanning, key=lambda pts: sum(pts.values()), default={})


def layer_metrics(spans: list[list], records: list[dict]) -> dict[str, float]:
    """Self times, counters and growth exponents per layer.

    ``records`` are the pass's job records in run order; the spans of layer
    ``bench`` are their roots, one per job.
    """
    own = self_times(spans)
    job_of = [0] * len(spans)
    roots = []
    for i, s in enumerate(spans):
        if s[1] == "bench":
            job_of[i] = len(roots)
            roots.append(i)
        else:
            job_of[i] = job_of[s[2]]
    self_s = defaultdict(float)
    per_job = defaultdict(float)  # (job, layer) -> self time
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    counts = defaultdict(float)
    for i, (name, layer, _, start, end, counters) in enumerate(spans):
        self_s[layer] += own[i]
        per_job[job_of[i], layer] += own[i]
        short = name.split(".", 1)[1] if "." in name else name
        calls[name] += 1
        inclusive[name] += end - start
        if short.startswith(IO_LOAD):
            inclusive["cli.load"] += end - start
        elif short.startswith(IO_DUMP):
            inclusive["cli.dump"] += end - start
        if layer != "bench":
            calls[layer] += 1
        if counters:
            for key, value in counters.items():
                if key == "ring":
                    inclusive[f"homology.ring.{value}"] += end - start
                else:
                    counts[key] += value

    ladder_s = sum(r["seconds"] for r in records)
    enumerations = calls["groups.enumerate_table"]
    coset_s = inclusive["groups.enumerate_table"]
    lifts = calls["covers.lift_loop"]
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out |= {
        "homology.z_s": inclusive["homology.ring.Z"],
        "homology.q_s": inclusive["homology.ring.Q"],
        "homology.fp_s": inclusive["homology.ring.Fp"],
        "homology.boundary_nnz": counts["boundary_nnz"],
        "homology.dense_snf_calls": calls["homology.smith_normal_form"],
        "homology.dense_snf_cells": counts["dense_snf_cells"],
        "complex_core.calls": calls["complex_core"],
        "complex_core.validate_calls": calls["complex_core.validate"],
        "complex_core.closed_star_calls": calls["complex_core.closed_star"],
        "complex_core.facets_s": inclusive["complex_core.SimplicialComplex.facets"],
        "covers.verify_covering_s": inclusive["covers.verify_covering"],
        "covers.lift_loop_calls": lifts,
        "covers.lift_loop_us": 1e6 * inclusive["covers.lift_loop"] / lifts if lifts else 0.0,
        "covers.total_simplices": counts["total_simplices"],
        "groups.coset_s": coset_s,
        "groups.coset_rows": counts["coset_rows"],
        "groups.coset_rows_per_s": counts["coset_rows"] / coset_s if coset_s else 0.0,
        "groups.coset_exhausted_frac": counts["exhausted"] / enumerations if enumerations else 0.0,
        "groups.abelianization_s": inclusive["groups.abelianization"],
        "spectrum.cycles": counts["cycles"],
        "spectrum.budget_used": counts["budget_used"],
        "spectrum.unknown_statuses": counts["unknown_statuses"],
        "sigma.min_disagreement_s": inclusive["sigma.min_disagreement_height"],
        "sigma.decisions": calls["sigma.fp_decide"] + calls["sigma.finitely_presented_decide"],
        "cli.load_s": inclusive["cli.load"],
        "cli.dump_s": inclusive["cli.dump"],
        "cli.bytes_read": counts["bytes_read"],
        "cli.bytes_written": counts["bytes_written"],
        "trace.accounted_frac": sum(self_s[layer] for layer in LAYERS) / ladder_s if ladder_s else 0.0,
    }
    for layer in GROWTH_LAYERS:
        out[f"{layer}.growth"] = growth_exponent(_growth_points(records, per_job, layer))
    out["traced_ladder_s"] = ladder_s
    return out
