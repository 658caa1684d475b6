"""Ladder generation: the inputs and job lists of each benchmark workload.

``generate(workload, seed, workdir)`` writes every input file a workload
needs under ``workdir`` and returns the job list (saved as ``ladder.json``).
The seed relabels the vertices of every generated complex and graph by a
seeded permutation, picks the base vertex of the lifted walks and picks the
spread loops; the program sees only the generated files.

Each job carries its own reference for the correctness check: expected
homology of known spaces, f-vector laws, the voltage product along a walk,
known spectra, or a golden output captured from the seed commit
(``golden.json``), for the jobs whose outputs do not depend on the seed.
The top rung of each workload (``"top": true``) runs last.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter

from fpforge import complex_core, covers, groups, spectrum
from fpforge.complex_core import GroupPresentationInput, SimplicialComplex

RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]
FLAG_INPUTS = {
    "flag_a2": GroupPresentationInput(1, [(1, 1)]),  # <a | a^2>: a projective plane
    "flag_ab": GroupPresentationInput(2, [(1, 2, -1, -2)]),  # <a, b | [a, b]>: a torus
}
# Reduced homology of the spaces the ladders triangulate, per degree.
RP2_H = {"Z": ([0, 0, 0], [[], [2], []]), "Q": ([0, 0, 0], None), "F3": ([0, 0, 0], None)}
TORUS_H = {ring: ([0, 2, 1], None) for ring in ("Z", "Q", "F3")}
SPHERE_F2 = [0, 0, 1]

SPECTRUM_GRAPHS = {
    # name: (graph builder, l_max, budget, expected taut spectrum)
    "k4": ("complete4", 10, 100_000, [3]),
    "petersen": ("petersen", 12, 100_000, [5]),
    "grid5x5": ("torus_grid", 10, 50_000, [4, 5]),
    "wedge3_4_15": ("wedge", 12, 20_000, [3, 4]),
}
TOWER_M = (12, 14, 16)
PRIME_EXCEPTIONS = (10**9 + 7, 10**11 + 3, 10**12 + 39)
SPREAD_HEIGHTS = (-3, -2, 2, 3, 5)
SUBPRES_WINDOW = (-6, 6)
SIGMA_BUILDS = {
    "prime-set": ["--builder", "prime-set", "--primes", "2,3"],
    "power-tower": ["--builder", "power-tower", "--f-set", "1,2", "--primes", "3", "--d", "2", "--m", "4"],
}
DECISIONS = {"Z": ["--ring", "Z", "--k", "2"], "Q": ["--ring", "Q", "--k", "2"],
             "F3": ["--ring", "F3", "--k", "2"], "fp": ["--finitely-presented"]}
WALK_MAX_LEN = 7


# ---------------------------------------------------------------------------
# Seeded inputs


def relabel(K: SimplicialComplex, rng: random.Random) -> SimplicialComplex:
    """K with its vertices renamed 0..n-1 by a seeded permutation."""
    verts = sorted(K.vertices)
    image = list(range(len(verts)))
    rng.shuffle(image)
    m = dict(zip(verts, image))
    return SimplicialComplex(image, (tuple(sorted(m[v] for v in s)) for s in K.simplices))


def rp2_subdivisions(levels: int) -> list[SimplicialComplex]:
    K = SimplicialComplex.from_facets(RP2_FACETS)
    out = []
    for _ in range(levels):
        K = complex_core.barycentric_subdivision(K)
        out.append(K)
    return out


def f_vector(K: SimplicialComplex) -> list[int]:
    """f-vector counted directly from the stored simplices."""
    counts = Counter(len(s) for s in K.simplices)
    return [counts[k + 1] for k in range(max(counts))]


def graph(kind: str) -> SimplicialComplex:
    def cycle(vs):
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    if kind == "complete4":
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    elif kind == "petersen":
        edges = cycle(range(5)) + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    elif kind == "torus_grid":
        edges = [(5 * i + j, 5 * i + (j + 1) % 5) for i in range(5) for j in range(5)]
        edges += [(5 * i + j, 5 * ((i + 1) % 5) + j) for i in range(5) for j in range(5)]
    elif kind == "wedge":
        edges = cycle([0, 1, 2]) + cycle([0, 3, 4, 5]) + cycle([0] + list(range(6, 20)))
    else:
        raise ValueError(f"unknown graph {kind!r}")
    return SimplicialComplex.from_facets(edges)


def spread_loops(K: SimplicialComplex, rng: random.Random) -> dict[int, list[list[int]]]:
    """Two seeded triangle boundaries per height, each from a seeded start vertex."""
    triangles = K.simplices_of_dim(2)
    out = {}
    for h in SPREAD_HEIGHTS:
        loops = []
        for t in rng.sample(triangles, 2):
            r = rng.randrange(3)
            path = list(t[r:] + t[:r])
            if rng.random() < 0.5:
                path.reverse()
            loops.append(path + [path[0]])
        out[h] = loops
    return out


def lift_base_vertex(K: SimplicialComplex, rng: random.Random) -> int:
    """A seeded degree-4 vertex (an edge midpoint of sd RP^2).

    The 6-vertex RP^2 is edge-transitive, so every such choice lifts the
    same number of walks; only their labels change with the seed.
    """
    adj = K.adjacency()
    return rng.choice(sorted(v for v in K.vertices if len(adj[v]) == 4))


# ---------------------------------------------------------------------------
# Independent references


def expected_presentation(K: SimplicialComplex, spreads: dict[int, list[list[int]]]) -> dict:
    """The edge presentation of K with spread relators, built from its definition."""
    edges = sorted(s for s in K.simplices if len(s) == 2)
    index = {e: i + 1 for i, e in enumerate(edges)}

    def letter(u, w):
        return index[(u, w)] if u < w else -index[(w, u)]

    def reduced(letters):
        stack = []
        for x in letters:
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        return stack

    triangle = {"family": "triangle", "height": None, "index": None}
    relators = []
    for u, v, w in sorted(s for s in K.simplices if len(s) == 3):
        relators.append({"letters": [letter(u, v), letter(v, w), letter(w, u)], "tag": triangle})
        relators.append({"letters": [letter(w, u), letter(v, w), letter(u, v)], "tag": triangle})
    for h in sorted(spreads):
        for i, path in enumerate(spreads[h]):
            letters = []
            for u, w in zip(path, path[1:]):
                x = letter(u, w)
                letters.extend([x if h > 0 else -x] * abs(h))
            relators.append({"letters": reduced(letters), "tag": {"family": "spread", "height": h, "index": i}})
    return {
        "generators": [f"e{u}_{v}" for u, v in edges],
        "relators": relators,
        "height_window": [min(spreads), max(spreads)],
        "extends_all_heights": False,
    }


def homology_expect(space: dict, ring: str) -> dict:
    ranks, torsion = space[ring]
    return {"ring": ring, "ranks": ranks, "torsion": torsion or [[] for _ in ranks]}


# ---------------------------------------------------------------------------
# Ladders


class _Ladder:
    """Collects input files and jobs for one workload."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.jobs: list[dict] = []
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def out(self, name: str) -> str:
        return os.path.join(self.workdir, "out", name)

    def write(self, name: str, text: str) -> str:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return self.path(name)

    def job(self, name: str, rung: str, size: int, kind: str, check: dict, **spec) -> None:
        self.jobs.append({"name": name, "rung": rung, "size": size, "kind": kind, "check": check, **spec})

    def cli(self, name: str, rung: str, size: int, argv: list[str], check: dict) -> None:
        self.job(name, rung, size, "cli", check, argv=argv)

    def demo(self, number: str) -> None:
        self.job(f"demo-{number}", "demos", 0, "demo", {"type": "golden", "key": f"demo-{number}"}, demo=number)


def _homology_jobs(lad: _Ladder, rung: str, K: SimplicialComplex, space: dict) -> None:
    src = lad.write(f"hom-{rung}.json", complex_core.dump_complex(K))
    for ring in ("Z", "Q", "F3"):
        cert = lad.out(f"{rung}-{ring}.json")
        lad.cli(f"homology-{rung}-{ring}", rung, len(K.simplices),
                ["homology", "--complex", src, "--ring", ring, "--out", cert],
                {"type": "homology", "file": cert, "expect": homology_expect(space, ring)})


def hom_ladder(lad: _Ladder, rng: random.Random, small: bool) -> None:
    sd1, sd2 = rp2_subdivisions(2)
    rungs = [("sd1", sd1, RP2_H), ("sd2", sd2, RP2_H)]
    if not small:
        flags = {name: complex_core.flagify_presentation_complex(p) for name, p in FLAG_INPUTS.items()}
        rungs += [("flag_a2", flags["flag_a2"], RP2_H), ("flag_ab", flags["flag_ab"], TORUS_H)]
    for rung, K, space in rungs:
        _homology_jobs(lad, rung, relabel(K, rng), space)


def _cover_job(lad: _Ladder, rung: str, K: SimplicialComplex) -> None:
    (voltage,) = covers.double_cover_voltages(K)  # the orientation (universal) double cover
    src = lad.write(f"{rung}-voltage.json", covers.dump_voltage(voltage))
    total, cert = lad.out(f"{rung}-total.json"), lad.out(f"{rung}-cover.json")
    lad.cli(f"cover-{rung}-F2", rung, len(K.simplices),
            ["cover", "--voltage", src, "--ring", "F2", "--out", total, "--certificate", cert],
            {"type": "cover", "file": cert, "total": total, "base_f": f_vector(K), "ranks": SPHERE_F2})


def _double_job(lad: _Ladder, rung: str, K: SimplicialComplex) -> None:
    src = lad.write(f"double-{rung}.json", complex_core.dump_complex(K))
    report = lad.out(f"{rung}-double-report.json")
    lad.cli(f"double-{rung}", rung, len(K.simplices),
            ["double", "--complex", src, "--out", lad.out(f"{rung}-double.json"), "--report", report],
            {"type": "double", "file": report, "base_f": f_vector(K)})


def cover_ladder(lad: _Ladder, rng: random.Random, small: bool) -> None:
    sd1, sd2 = (relabel(K, rng) for K in rp2_subdivisions(2))
    _cover_job(lad, "sd1", sd1)
    _double_job(lad, "sd1", sd1)
    (voltage,) = covers.double_cover_voltages(sd1)
    src = lad.write("sd1-lift-voltage.json", covers.dump_voltage(voltage))
    lad.job("lift-sd1", "sd1", len(sd1.simplices), "lift", {"type": "lift"},
            voltage=src, base_vertex=lift_base_vertex(sd1, rng), max_len=4 if small else WALK_MAX_LEN)
    lad.demo("01")
    lad.demo("02")
    _cover_job(lad, "sd2", sd2)
    if not small:
        _double_job(lad, "sd2", sd2)


def pres_ladder(lad: _Ladder, rng: random.Random, small: bool) -> None:
    (sd1,) = (relabel(K, rng) for K in rp2_subdivisions(1))

    # Sigma builders, then decisions on what they built; outputs are seed-free.
    for builder, args in SIGMA_BUILDS.items():
        spec = lad.out(f"sigma-{builder}.json")
        lad.cli(f"sigma-{builder}", "sigma", 0, ["sigma", *args, "--out", spec],
                {"type": "golden", "key": f"sigma-{builder}", "files": [spec]})
        for dname, dargs in DECISIONS.items():
            verdict = lad.out(f"decide-{builder}-{dname}.json")
            lad.cli(f"decide-{builder}-{dname}", "sigma", 0, ["decide", "--sigma", spec, *dargs, "--out", verdict],
                    {"type": "golden", "key": f"decide-{builder}-{dname}", "files": [verdict]})
    for m in TOWER_M[:1] if small else TOWER_M:
        lad.job(f"mindis-tower-m{m}", "sigma", 0, "mindis", {"type": "golden", "key": f"mindis-tower-m{m}"},
                rule="tower", m=m)
    for p in PRIME_EXCEPTIONS[:1] if small else PRIME_EXCEPTIONS:
        lad.job(f"mindis-prime-{p}", "sigma", 0, "mindis", {"type": "value", "value": p}, rule="prime", p=p)

    # Presentations: spreads on sd RP^2 and demo 03's tagged families.
    spreads = spread_loops(sd1, rng)
    src = lad.write("present-sd1.json", complex_core.dump_complex(sd1))
    spreads_file = lad.write("sd1-spreads.json", json.dumps(
        {"spreads": [{"height": h, "loops": loops} for h, loops in sorted(spreads.items())]}))
    pres_json, pres_text = lad.out("sd1-present.json"), lad.out("sd1-present.txt")
    lad.cli("present-sd1", "sd1", len(sd1.simplices),
            ["present", "--complex", src, "--spreads", spreads_file, "--out", pres_text, "--json", pres_json],
            {"type": "present", "file": pres_json, "text": pres_text, "expect": expected_presentation(sd1, spreads)})
    tetra = SimplicialComplex.from_facets([[0, 1, 2], [1, 2, 3], [0, 2, 3], [0, 1, 3]])
    families = {"alpha": [[0, 1, 2, 0]], "beta": [[0, 1, 3, 0], [1, 2, 3, 1]]}
    full = groups.tagged_family_presentation(tetra, families, SUBPRES_WINDOW)
    full_file = lad.write("tagged-presentation.json", groups.presentation_to_json(full))
    retain = [i for i, t in enumerate(full.tags) if t.family == "beta" and t.height in (2, -5) and t.index == 0]
    sub, sub_sigma = lad.out("subpres.json"), lad.out("subpres-sigma.json")
    lad.cli("subpres-tagged", "tetra", len(tetra.simplices),
            ["subpres", "--presentation", full_file, "--retain", ",".join(map(str, retain)),
             "--out", sub, "--sigma-out", sub_sigma],
            {"type": "golden", "key": "subpres-tagged", "files": [sub, sub_sigma]})
    (voltage,) = covers.double_cover_voltages(sd1)
    lad.job("registry-sd1-cover", "sd1", len(sd1.simplices), "registry", {"type": "registry", "ranks": [0, 0, 1]},
            voltage=lad.write("registry-sd1-voltage.json", covers.dump_voltage(voltage)))
    lad.demo("03")
    lad.demo("04")
    lad.demo("05")

    # Spectra, smallest graph first; the last two are the top rung.
    for name, (kind, l_max, budget, expect) in SPECTRUM_GRAPHS.items():
        if small and name not in ("k4", "petersen"):
            continue
        g = relabel(graph(kind), rng)
        src = lad.write(f"{name}.json", spectrum.dump_graph(g))
        report = lad.out(f"{name}-spectrum.json")
        lad.cli(f"spectrum-{name}", name, len(g.simplices),
                ["spectrum", "--graph", src, "--lmax", str(l_max), "--budget", str(budget), "--out", report],
                {"type": "spectrum", "file": report, "spectrum": expect})


LADDERS = {"hom-ladder": hom_ladder, "cover-ladder": cover_ladder, "pres-ladder": pres_ladder}
TOP_RUNGS = {"hom-ladder": {"flag_ab"}, "cover-ladder": {"sd2"}, "pres-ladder": {"grid5x5", "wedge3_4_15"}}
# The smoke ladder runs every workload's generator on its smallest rungs.
SMOKE = "smoke"
SMOKE_TOP = {"sd2", "petersen"}


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the inputs of one workload under workdir and return its jobs."""
    rng = random.Random(seed)
    lad = _Ladder(workdir)
    if workload == SMOKE:
        for build in LADDERS.values():
            build(lad, rng, True)
        top = SMOKE_TOP
    else:
        LADDERS[workload](lad, rng, False)
        top = TOP_RUNGS[workload]
    for job in lad.jobs:
        job["top"] = job["rung"] in top
    # Top-rung jobs run last.
    lad.jobs.sort(key=lambda j: j["top"])
    return lad.jobs
