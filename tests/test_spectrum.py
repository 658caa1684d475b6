import dataclasses
import json
import os
import random
import subprocess
import sys
from itertools import product
from operator import sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpforge import spectrum
from fpforge.complex_core import ComplexError, SimplicialComplex
from fpforge.groups import Presentation, SpanningTreeWords, cyclic_relators, enumerate_table, free_reduce, trace_word
from fpforge.spectrum import (
    CeilingError,
    LengthStatus,
    TautSpectrumReport,
    _abelian_survival,
    _derivation_search,
    _lattice_smith,
    _splice,
    closed_walk_lengths,
    dump_graph,
    k_related,
    load_graph,
    taut_spectrum,
)
from fpforge.sigma import choose_constants, separation_ratio_check

from helpers import enumerate_cycles


def cycle_graph(n):
    return SimplicialComplex.from_facets([[i, (i + 1) % n] for i in range(n)])


def wedge_graph():
    # 3-cycle 0-1-2 and 4-cycle 0-3-4-5 sharing vertex 0
    return SimplicialComplex.from_facets([[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [4, 5], [0, 5]])


def wedge_of_cycles(*lengths):
    """Cycles of the given lengths sharing vertex 0."""
    edges, top = [], 0
    for n in lengths:
        ring = [0, *range(top + 1, top + n)]
        top += n - 1
        edges += [[ring[i - 1], v] for i, v in enumerate(ring)]
    return SimplicialComplex.from_facets(edges)


def complete_graph(n):
    return SimplicialComplex.from_facets([[a, b] for a in range(n) for b in range(a + 1, n)])


def petersen_graph():
    outer = [[i, (i + 1) % 5] for i in range(5)]
    spokes = [[i, i + 5] for i in range(5)]
    inner = [[5 + i, 5 + (i + 2) % 5] for i in range(5)]
    return SimplicialComplex.from_facets(outer + spokes + inner)


def torus_grid(n=5):
    rows = [[n * i + j, n * i + (j + 1) % n] for i in range(n) for j in range(n)]
    cols = [[n * i + j, n * ((i + 1) % n) + j] for i in range(n) for j in range(n)]
    return SimplicialComplex.from_facets(rows + cols)


def projective_grid(n=3):
    """The cube surface cut n x n per face, unit steps as edges, with each point glued to its antipode
    (x, y, z) -> (n - x, n - y, n - z): a grid on the projective plane, f = (28, 54) at n = 3."""
    surface = [p for p in product(range(n + 1), repeat=3) if 0 in p or n in p]
    label = {}
    for p in surface:
        label[p] = label.setdefault(min(p, tuple(n - x for x in p)), len(label))
    steps = {tuple(sorted((label[p], label[q]))) for p in surface for q in surface if sum(map(abs, map(sub, p, q))) == 1}
    return SimplicialComplex.from_facets(sorted(steps))


class TestEnumerateCycles:
    def test_c5_has_one_cycle_class_per_multiple_of_5(self):
        cycles = enumerate_cycles(cycle_graph(5), 10)
        assert set(cycles) == {5, 10}
        assert len(cycles[5]) == 1
        # the once-around loop traversed twice, still cyclically reduced
        assert len(cycles[10]) == 1

    def test_tree_has_no_cycles(self):
        tree = SimplicialComplex.from_facets([[0, 1], [1, 2], [2, 3]])
        assert enumerate_cycles(tree, 8) == {}

    def test_wedge_lengths(self):
        cycles = enumerate_cycles(wedge_graph(), 8)
        assert 3 in cycles and 4 in cycles
        assert 5 not in cycles  # 3x + 4y = 5 has no solution
        assert 6 in cycles  # the triangle twice
        assert 7 in cycles  # triangle then square


class TestTautSpectrum:
    def test_c5_spectrum(self):
        report = taut_spectrum(cycle_graph(5), 10, 100_000)
        assert report.spectrum == [5]
        assert report.statuses[5].status == "taut"
        for l in range(1, 11):
            if l != 5:
                assert report.statuses[l].status == "filled"

    def test_cycle_graphs_have_singleton_spectra(self):
        for n in (3, 4, 6, 7):
            report = taut_spectrum(cycle_graph(n), n + 2, 50_000)
            assert report.spectrum == [n]

    def test_tree_spectrum_empty(self):
        tree = SimplicialComplex.from_facets([[0, 1], [1, 2]])
        report = taut_spectrum(tree, 8, 1000)
        assert report.spectrum == []
        assert all(st.status == "filled" for st in report.statuses.values())

    def test_wedge_spectrum_3_4(self):
        report = taut_spectrum(wedge_graph(), 10, 100_000)
        assert report.spectrum == [3, 4]
        assert report.statuses[3].status == "taut"
        assert report.statuses[4].status == "taut"
        for l in (5, 6, 7, 8, 9, 10):
            assert report.statuses[l].status == "filled"

    def test_certified_statuses_stable_under_budget_increase(self):
        small = taut_spectrum(wedge_graph(), 8, 400)
        big = taut_spectrum(wedge_graph(), 8, 200_000)
        for l, status in small.statuses.items():
            if status.status != "unknown":
                assert big.statuses[l].status == status.status

    def test_taut_certificates_verify_independently(self):
        """Re-check each taut certificate by hand: cyclic quotients must kill
        every relator and keep the candidate's residue nonzero."""
        report = taut_spectrum(wedge_graph(), 10, 100_000)
        from fpforge.groups import SpanningTreeWords, Word

        graph = wedge_graph()
        words = SpanningTreeWords(graph)
        cycles = enumerate_cycles(graph, 10)
        for l, status in report.statuses.items():
            if status.status != "taut":
                continue
            cert = dict(status.certificate)
            if cert["method"] != "cyclic-quotient":
                continue
            loop = status.loop
            candidate = words.word_for_path(list(loop) + [loop[0]])
            relators = [
                words.word_for_path(list(w) + [w[0]])
                for ln in cycles
                if ln < l
                for w in cycles[ln]
            ]
            ngens = len(words.generator_names)
            from fpforge.homology import smith_normal_form

            rows = []
            for w in relators:
                row = [0] * ngens
                for x in w.letters:
                    row[abs(x) - 1] += 1 if x > 0 else -1
                rows.append(row)
            vec = [0] * ngens
            for x in candidate.letters:
                vec[abs(x) - 1] += 1 if x > 0 else -1
            if rows:
                _, _, V = smith_normal_form(rows)
            else:
                V = [[1 if i == j else 0 for j in range(ngens)] for i in range(ngens)]
            j, modulus = cert["coordinate"], cert["modulus"]
            image = sum(vec[i] * V[i][j] for i in range(ngens)) % modulus
            assert image == cert["residue"] != 0
            for row in rows:
                assert sum(row[i] * V[i][j] for i in range(ngens)) % modulus == 0

    def test_free_levels_are_decided_at_every_budget(self):
        # levels 6-12 reduce to a free group on the 15-cycle's generator; the
        # derivation search leaves level 12 unknown at budgets up to 1000
        graph = wedge_of_cycles(3, 4, 15)
        for budget in (1, 100, 1000, 20_000):
            report = taut_spectrum(graph, 12, budget)
            ref_used, ref_statuses = always_enumerate_reference(graph, 12, budget)
            assert ref_statuses[12].status == ("filled" if budget > 1000 else "unknown")
            assert report.spectrum == [3, 4]
            for l in range(6, 13):
                assert report.statuses[l] == LengthStatus("filled", {"method": "free-quotient", "rank": 1})
            assert report.budget_used == ref_used == 0

    def test_disconnected_rejected(self):
        graph = SimplicialComplex.from_facets([[0, 1], [2, 3]])
        with pytest.raises(ComplexError):
            taut_spectrum(graph, 5, 100)

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ComplexError):
            taut_spectrum(SimplicialComplex.from_facets([[0, 1, 2]]), 5, 100)

    def test_report_json(self):
        report = taut_spectrum(cycle_graph(5), 6, 10_000)
        data = report.to_json_dict()
        text = json.dumps(data, sort_keys=True)
        assert json.loads(text)["spectrum"] == [5]

    def test_report_and_statuses_write_one_key_per_field(self):
        report = taut_spectrum(cycle_graph(5), 6, 10_000)
        data = report.to_json_dict()
        assert list(data) == [f.name for f in dataclasses.fields(report)] + ["spectrum"]
        assert {s.status for s in report.statuses.values()} == {"taut", "filled"}
        for length, status in report.statuses.items():
            assert list(data["statuses"][str(length)]) == [f.name for f in dataclasses.fields(status)]


def always_enumerate_reference(graph, l_max, budget):
    """The spectrum loop that lists every length and calls enumerate_table at
    every level with loops, kept as the reference for taut_spectrum's lazy
    listing and its cut after a trivial level quotient."""
    words = SpanningTreeWords(graph)
    ngens = len(words.generator_names)
    cycles = enumerate_cycles(graph, l_max)
    cycle_words = {l: [words.word_for_path(w + (w[0],)) for w in ws] for l, ws in cycles.items()}
    budget_used = 0
    statuses = {}
    relators = {}
    for l in range(1, l_max + 1):
        relators.update(dict.fromkeys(cyclic_relators(cycle_words.get(l - 1, ()))))
        candidates = list(zip(cycles.get(l, ()), cycle_words.get(l, ())))
        if not candidates:
            statuses[l] = LengthStatus("filled", {"method": "no-loops"})
            continue
        presentation = Presentation([f"g{i}" for i in range(ngens)], list(relators))
        table, rows = enumerate_table(presentation, (), budget)
        budget_used += rows
        if table is None:
            smith = _lattice_smith(presentation.exponent_matrix(), ngens)
        hit, unknown = None, False
        for walk, word in candidates:
            if table is not None:
                if trace_word(table, word) != 0:
                    hit = LengthStatus("taut", {"method": "finite-quotient", "order": len(table)}, walk)
                    break
                continue
            cert = _abelian_survival(smith, word.exponent_row(ngens))
            if cert is not None:
                hit = LengthStatus("taut", cert, walk)
                break
            if _derivation_search(word, presentation.relators, max_nodes=max(budget // 10, 100)) is None:
                unknown = True
        if hit is not None:
            statuses[l] = hit
        elif table is not None:
            statuses[l] = LengthStatus("filled", {"method": "finite-quotient", "order": len(table)})
        elif unknown:
            statuses[l] = LengthStatus("unknown", {"method": "budget-exhausted"})
        else:
            statuses[l] = LengthStatus("filled", {"method": "derivation"})
    return budget_used, statuses


reduced_words = st.lists(st.integers(-3, 3).filter(bool), max_size=8).map(free_reduce)


class TestSplice:
    @settings(max_examples=500)
    @given(left=reduced_words, move=reduced_words, right=reduced_words)
    def test_equals_free_reduction_of_the_concatenation(self, left, move, right):
        assert _splice(left, move, right) == free_reduce(left + move + right)


@st.composite
def connected_graphs(draw):
    """Connected simple graphs on at most 7 vertices: a random tree plus extra edges."""
    n = draw(st.integers(2, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=6)))
    return SimplicialComplex.from_facets(sorted(edges))


@st.composite
def wedges_with_chords(draw):
    """One to three cycles of length 3 to 9 at vertex 0, plus up to three chords."""
    graph = wedge_of_cycles(*draw(st.lists(st.integers(3, 9), min_size=1, max_size=3)))
    pairs = [(u, v) for u in sorted(graph.vertices) for v in sorted(graph.vertices) if u < v]
    chords = draw(st.lists(st.sampled_from(pairs), max_size=3))
    return SimplicialComplex.from_facets([*graph.edges(), *chords])


class TestFreeRankGate:
    @settings(max_examples=150)
    @given(graph=connected_graphs(), l_max=st.integers(1, 7), budget=st.integers(50, 2000))
    def test_matches_always_enumerating_reference(self, graph, l_max, budget):
        report = taut_spectrum(graph, l_max, budget)
        ref_used, ref_statuses = always_enumerate_reference(graph, l_max, budget)
        assert report.statuses == ref_statuses
        assert report.budget_used <= ref_used

    @settings(max_examples=150)
    @given(graph=wedges_with_chords(), l_max=st.integers(1, 10), budget=st.integers(50, 2000))
    def test_free_levels_match_the_derivation_reference(self, graph, l_max, budget):
        report = taut_spectrum(graph, l_max, budget)
        ref_used, ref_statuses = always_enumerate_reference(graph, l_max, budget)
        for l, ref in ref_statuses.items():
            status = report.statuses[l]
            if ref.certificate["method"] not in ("derivation", "budget-exhausted"):
                assert status == ref
            elif status.status == "taut":
                assert ref.status == "unknown" and status.certificate["method"] == "free-quotient"
            else:
                assert status.status == "filled" and status.certificate["method"] == "free-quotient"
        # the reference also enumerates the levels past the first trivial one, which taut_spectrum decides unlisted
        cut = min((l for l, st in report.statuses.items() if st.certificate.get("order") == 1), default=l_max)
        if cut < l_max:
            ref_used = always_enumerate_reference(graph, cut, budget)[0]
        assert report.budget_used == ref_used

    @settings(max_examples=100)
    @given(
        graph=st.one_of(connected_graphs(), wedges_with_chords()),
        l_max=st.integers(1, 10),
        budgets=st.lists(st.integers(1, 3000), min_size=2, max_size=2, unique=True).map(sorted),
    )
    def test_certified_statuses_never_change_as_the_budget_grows(self, graph, l_max, budgets):
        small, big = (taut_spectrum(graph, l_max, b) for b in budgets)
        for l, status in small.statuses.items():
            if status.status != "unknown":
                assert big.statuses[l].status == status.status

    def test_cycle_graph_never_enumerates(self):
        # the only relators are multiples of the 5-cycle, so the free rank stays 1
        report = taut_spectrum(cycle_graph(5), 6, 100_000)
        assert report.spectrum == [5]
        assert report.budget_used == 0

    def test_wedge_below_both_cycles_filled_never_enumerates(self):
        # up to length 5 the relators are the triangle only: the square's generator stays free
        report = taut_spectrum(wedge_graph(), 5, 100_000)
        assert report.spectrum == [3, 4]
        assert report.budget_used == 0

    def test_enumeration_resumes_once_the_free_rank_is_zero(self):
        report = taut_spectrum(wedge_graph(), 10, 100_000)
        assert report.budget_used > 0
        assert report.statuses[8].certificate["method"] == "finite-quotient"

    def test_nonpositive_budget_is_refused_even_when_no_level_enumerates(self):
        with pytest.raises(ValueError, match="budget must be positive"):
            taut_spectrum(cycle_graph(5), 6, 0)

    def test_word_for_path_rejects_non_edges(self):
        words = SpanningTreeWords(cycle_graph(5))
        for path in ([0, 2], [0, 0], [0, 1, 9], [9, 0]):
            with pytest.raises(ValueError, match="is not an edge"):
                words.word_for_path(path)
        assert words.word_for_path([0, 1, 2, 3, 4, 0]).letters in ((1,), (-1,))


def _canonical_cycle_reference(walk):
    least = min(walk)
    best = walk
    for seq in (walk, walk[::-1]):
        for r, v in enumerate(seq):
            if v == least:
                rot = seq[r:] + seq[:r]
                if rot < best:
                    best = rot
    return best


def enumerate_cycles_reference(graph, max_len):
    """One depth-first search that meets each cycle class once per rotation
    at its least vertex and direction, keeping the first walk met; kept as
    the reference for the once-per-class search in enumerate_cycles."""
    adj = {v: sorted(ns) for v, ns in graph.adjacency().items()}
    found = {}
    for s in sorted(graph.vertices):
        stack = [(s, None, (s,))]
        while stack:
            cur, prev, path = stack.pop()
            for nxt in adj[cur]:
                if nxt < s:
                    continue
                if prev is not None and nxt == prev:
                    continue
                if nxt == s and len(path) >= 3 and path[1] != cur:
                    canon = _canonical_cycle_reference(path)
                    if canon not in found:
                        found[canon] = path
                if len(path) < max_len:
                    stack.append((nxt, cur, path + (nxt,)))
    by_length = {}
    for walk in found.values():
        by_length.setdefault(len(walk), []).append(walk)
    for walks in by_length.values():
        walks.sort()
    return by_length


@st.composite
def trees(draw):
    n = draw(st.integers(2, 9))
    return SimplicialComplex.from_facets([(draw(st.integers(0, v - 1)), v) for v in range(1, n)])


class TestCyclesByLength:
    @settings(max_examples=200)
    @given(graph=connected_graphs(), max_len=st.integers(1, 9))
    def test_matches_the_first_walk_per_class_of_one_search(self, graph, max_len):
        assert enumerate_cycles(graph, max_len) == enumerate_cycles_reference(graph, max_len)

    @settings(max_examples=200)
    @given(
        graph=st.one_of(connected_graphs(), trees(), st.integers(3, 8).map(cycle_graph)),
        max_len=st.integers(1, 10),
    )
    def test_closed_walk_lengths_are_the_enumerated_lengths(self, graph, max_len):
        assert closed_walk_lengths(graph, max_len) == set(enumerate_cycles(graph, max_len))

    def test_closed_walk_lengths_of_the_wedge(self):
        # 3x + 4y for x, y >= 0, not both 0
        assert closed_walk_lengths(wedge_graph(), 12) == {3, 4, 6, 7, 8, 9, 10, 11, 12}

    def test_lengths_come_one_at_a_time(self):
        walks = spectrum.cycles_by_length(wedge_graph(), [7, 3])
        assert next(walks) == (7, enumerate_cycles(wedge_graph(), 7)[7])
        assert next(walks) == (3, [(0, 2, 1)])


class TestTrivialQuotientCut:
    @pytest.mark.parametrize(
        "graph, l_max",
        [
            (complete_graph(4), 10), (petersen_graph(), 12), (torus_grid(), 10), (wedge_graph(), 12),
            (projective_grid(), 8),
        ],
        ids=["k4", "petersen", "grid5x5", "wedge3_4", "rp2grid"],
    )
    def test_matches_always_enumerating_reference(self, graph, l_max):
        report = taut_spectrum(graph, l_max, 100_000)
        ref_used, ref_statuses = always_enumerate_reference(graph, l_max, 100_000)
        assert report.statuses == ref_statuses
        assert report.budget_used <= ref_used

    def test_a_level_quotient_of_order_two(self):
        # filling the squares gives the projective plane: its order-2 group keeps a 7-loop taut, and 7-loops kill it
        graph = projective_grid()
        assert graph.f_vector() == (28, 54)
        report = taut_spectrum(graph, 8, 100_000)
        assert report.spectrum == [4, 7]
        assert [(report.statuses[l].status, report.statuses[l].certificate) for l in (6, 7, 8)] == [
            ("filled", {"method": "finite-quotient", "order": 2}),
            ("taut", {"method": "finite-quotient", "order": 2}),
            ("filled", {"method": "finite-quotient", "order": 1}),
        ]

    def test_no_cycle_is_enumerated_past_the_first_trivial_level(self, monkeypatch):
        pulled = []

        def recording(graph, lengths):
            for length, walks in cycles_by_length(graph, lengths):
                pulled.append(length)
                yield length, walks

        cycles_by_length = spectrum.cycles_by_length
        monkeypatch.setattr(spectrum, "cycles_by_length", recording)
        report = taut_spectrum(torus_grid(), 12, 100_000)
        # the level-6 quotient is trivial, so only the taut lengths 4 and 5 are listed
        assert pulled == [4, 5]
        assert report.spectrum == [4, 5]
        assert report.statuses[12].certificate == {"method": "finite-quotient", "order": 1}

    def test_no_loops_past_the_cut_on_a_cycle_of_triangles(self):
        # the 3-cycle twice around is length 6; lengths 4 and 5 stay empty
        report = taut_spectrum(cycle_graph(3), 7, 1000)
        assert report.spectrum == [3]
        assert [report.statuses[l].certificate["method"] for l in (4, 5, 6, 7)] == [
            "no-loops", "no-loops", "finite-quotient", "no-loops"
        ]

    def test_long_grid_spectrum_from_the_cli(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        graph, out = tmp_path / "grid.json", tmp_path / "report.json"
        graph.write_text(dump_graph(torus_grid()), encoding="utf-8")
        path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        argv = ["spectrum", "--graph", str(graph), "--lmax", "60", "--budget", "50000", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "fpforge.cli", *argv],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "spectrum: taut lengths [4, 5]\n"
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["spectrum"] == [4, 5]
        assert len(report["statuses"]) == 60


class TestKRelated:
    def test_equal_sets_always_related(self):
        rng = random.Random(1)
        for _ in range(20):
            H = sorted(rng.sample(range(10, 120), rng.randint(0, 8)))
            for k in (1, 2, 3):
                assert k_related(H, H, k, 400)

    def test_witness_interval(self):
        assert k_related([10], [15], 2, 40) is True

    def test_missing_witness(self):
        assert k_related([100], [], 2, 200) is False

    def test_symmetry_on_random_pairs(self):
        rng = random.Random(12)
        for _ in range(50):
            H = sorted(rng.sample(range(10, 60), rng.randint(0, 6)))
            Hp = sorted(rng.sample(range(10, 60), rng.randint(0, 6)))
            k = rng.randint(1, 3)
            ceiling = 200
            assert k_related(H, Hp, k, ceiling) == k_related(Hp, H, k, ceiling)

    def test_weaker_relation_for_larger_k(self):
        rng = random.Random(30)
        for _ in range(30):
            H = sorted(rng.sample(range(16, 50), rng.randint(0, 5)))
            Hp = sorted(rng.sample(range(16, 50), rng.randint(0, 5)))
            if k_related(H, Hp, 3, 600) and max(H + Hp + [0]) * 4 <= 600:
                assert k_related(H, Hp, 4, 600)

    def test_ceiling_too_small(self):
        with pytest.raises(CeilingError):
            k_related([5], [5], 2, 5)

    def test_undecidable_window_raises(self):
        with pytest.raises(CeilingError):
            k_related([100], [], 2, 150)  # window reaches 200 but ceiling is 150


class TestSeparationRatioCheck:
    def test_chosen_constants_pass(self):
        constants = choose_constants(2, [0, 4, 4, 4], 3)
        result = separation_ratio_check(constants, [0, 4, 4, 4], 2)
        assert result.ok
        assert result.min_ratio_bound == constants[0] ** 0

    def test_bare_single_constant(self):
        result = separation_ratio_check((4,), [0, 0], 2)
        assert result.ok and result.min_ratio_bound == 1

    def test_non_increasing_constants_fail(self):
        result = separation_ratio_check((2, 2), [0, 0, 0], 2)
        assert not result.ok
        assert any("C_2 > C_1" in f for f in result.failures)

    def test_failure_messages_and_their_order(self):
        result = separation_ratio_check((3, 2, 2), [5, 0, 9], 2)
        assert result.failures == (
            "condition C_1*alpha > 3 fails",
            "condition C_1*alpha > r at position 0 fails",
            "condition C_2*alpha > r at position 2 fails",
            "condition C_2 > C_1 fails",
            "condition C_3*alpha > r at position 2 fails",
            "condition C_3 > C_2 fails",
            "interval gap (1, 1): constants do not increase",
            "interval gap (1, 2): constants do not increase",
            "interval gap (2, 1): constants do not increase",
            "interval gap (2, 1): final ratio step fails",
        )

    def test_reported_bound_is_min_over_positions(self):
        constants = choose_constants(2, None, 3)
        result = separation_ratio_check(constants, [0, 0, 0, 0], 2)
        assert result.min_ratio_bound == min(
            constants[m - 1] ** (2**m - 2) for m in (1, 2, 3)
        )


class TestGraphIO:
    def test_round_trip(self, tmp_path):
        graph = wedge_graph()
        path = tmp_path / "g.json"
        path.write_text(dump_graph(graph), encoding="utf-8")
        again = load_graph(path)
        assert again == graph
        assert dump_graph(again) == dump_graph(graph)
