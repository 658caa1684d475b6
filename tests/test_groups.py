import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpforge import groups
from fpforge.complex_core import SimplicialComplex, barycentric_subdivision, spanning_tree
from fpforge.covers import VoltageAssignment, build_cover, double_cover_voltages, lift_loop, normal_generators
from fpforge.groups import (
    LoopWord,
    Presentation,
    RelatorTag,
    SpanningTreeWords,
    Word,
    abelianization,
    coset_enumerate,
    cyclic_relators,
    deck_group_presentation,
    enumerate_table,
    power_spread,
    presentation_to_json,
    quotient_relators,
    raag_presentation,
    simplify,
    tagged_family_presentation,
    trace_word,
)
from fpforge.homology import invariant_factors, smith_normal_form, snf_diagonal
from fpforge.sigma import example_registry, subpresentation_select

from helpers import RP2_FACETS, matmul


def full_simplex(n):
    return SimplicialComplex.from_facets([list(range(n))])


def cycle_complex(n):
    return SimplicialComplex.from_facets([[i, (i + 1) % n] for i in range(n)])


def reference_cyclic_relators(words):
    """The reduce-and-dedupe loop that each relator consumer used to carry."""
    relators = []
    seen = set()
    for w in words:
        cw = w.cyclically_reduced()
        if cw.letters and cw.letters not in seen:
            seen.add(cw.letters)
            relators.append(cw)
    return relators


class TestWord:
    def test_free_reduction(self):
        assert Word([1, 2, -2, 3]).letters == (1, 3)
        assert Word([1, -1]).letters == ()

    def test_inverse_and_product(self):
        w = Word([1, 2])
        assert (w * w.inverse()).is_identity()
        assert w.inverse().letters == (-2, -1)

    def test_cyclic_reduction(self):
        assert Word([1, 2, 3, -1]).cyclically_reduced().letters == (2, 3)

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=14).map(Word))
    @example(Word([1, 2, -1]))
    @example(Word([1, 2, 3, -2, -1]))
    def test_cyclic_reduction_matches_pair_loop(self, w):
        """Against the loop that stripped one cancelling pair per step."""
        ls = list(w.letters)
        while len(ls) >= 2 and ls[0] == -ls[-1]:
            ls = ls[1:-1]
        cw = w.cyclically_reduced()
        assert cw == Word(ls) and cw.letters == tuple(ls)
        if cw.letters == w.letters:
            assert cw is w

    def test_cyclic_relators_drop_empty_words_and_repeats(self):
        words = [Word([1, 2, -1]), Word([2]), Word([1, -1]), Word([-2, 1, 2]), Word([1])]
        assert [w.letters for w in cyclic_relators(words)] == [(2,), (1,)]

    @given(st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6).map(Word), max_size=12))
    def test_cyclic_relators_match_reference_loop(self, words):
        assert cyclic_relators(words) == reference_cyclic_relators(words)


class TestPowerSpread:
    def test_two_letter_loop_cubed(self):
        w = power_spread(LoopWord([1, 2]), 3)
        assert w.letters == (1, 1, 1, 2, 2, 2)
        assert len(w) == 6

    def test_exponent_one(self):
        assert power_spread(LoopWord([1, 2]), 1).letters == (1, 2)

    def test_exponent_zero_is_empty(self):
        assert power_spread(LoopWord([1, 2]), 0).is_identity()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            power_spread(LoopWord([1, 2]), -1)

    def test_length_scales_for_nonbacktracking_loops(self):
        rng = random.Random(2)
        K = cycle_complex(5)
        loop = LoopWord.from_vertices(K, [0, 1, 2, 3, 4, 0])
        for k in range(5):
            assert len(power_spread(loop, k)) == k * loop.length


def reference_spread(loop: LoopWord, n: int) -> Word:
    """Each letter repeated |n| times in place, inverted at a negative height."""
    return Word([x if n > 0 else -x for x in loop.letters for _ in range(abs(n))])


SPREAD_LOOPS = [[0, 1, 2, 0], [0, 2, 1, 0], [0, 1, 3, 0], [1, 2, 3, 1], [0, 1, 2, 3, 0]]
LOOP_POOLS = st.lists(st.sampled_from(SPREAD_LOOPS), max_size=3, unique_by=tuple)
SPREAD_MAPS = st.dictionaries(st.integers(-6, 6).filter(bool), LOOP_POOLS, max_size=3)


class TestSpreadCap:
    """Spread relators over ``_SPREAD_LETTER_CAP`` letters are refused before any is built; others are as before."""

    K = full_simplex(4)

    def refused(self, total, cap):
        return pytest.raises(ValueError, match=rf"^spread relators would hold {total} letters .* spread cap of {cap} ")

    @given(SPREAD_MAPS, st.integers(0, 120))
    def test_deck_group_presentation(self, spreads, cap):
        total = sum(abs(n) * (len(lp) - 1) for n, loops in spreads.items() for lp in loops)
        with mock.patch.object(groups, "_SPREAD_LETTER_CAP", cap):
            if total > cap:
                with self.refused(total, cap):
                    deck_group_presentation(self.K, spreads)
                return
            p = deck_group_presentation(self.K, spreads)
        base = deck_group_presentation(self.K, {})
        spread = [
            (n, i, LoopWord.from_vertices(self.K, lp)) for n in sorted(spreads) for i, lp in enumerate(spreads[n])
        ]
        assert p.relators == base.relators + tuple(reference_spread(lw, n) for n, _, lw in spread)
        assert p.tags == base.tags + tuple(RelatorTag("spread", n, i) for n, i, _ in spread)

    @given(st.dictionaries(st.sampled_from(["alpha", "beta"]), LOOP_POOLS, max_size=2), st.integers(-5, 5),
           st.integers(0, 5), st.integers(0, 300))
    def test_tagged_family_presentation(self, families, lo, width, cap):
        hi = lo + width
        total = sum(abs(n) for n in range(lo, hi + 1)) * sum(len(lp) - 1 for loops in families.values() for lp in loops)
        with mock.patch.object(groups, "_SPREAD_LETTER_CAP", cap):
            if total > cap:
                with self.refused(total, cap):
                    tagged_family_presentation(self.K, families, (lo, hi))
                return
            p = tagged_family_presentation(self.K, families, (lo, hi))
        base = deck_group_presentation(self.K, {})
        spread = [
            (family, n, i, LoopWord.from_vertices(self.K, lp))
            for family in sorted(families) for n in range(lo, hi + 1) if n for i, lp in enumerate(families[family])
        ]
        assert p.relators == base.relators + tuple(reference_spread(lw, n) for _, n, _, lw in spread)
        assert p.tags == base.tags + tuple(RelatorTag(family, n, i) for family, n, i, _ in spread)

    @given(SPREAD_MAPS, SPREAD_MAPS, st.integers(0, 120))
    def test_quotient_relators(self, small, extra, cap):
        big = {n: small.get(n, []) + [lp for lp in extra.get(n, []) if lp not in small.get(n, [])]
               for n in {*small, *extra}}
        new = [(n, i, lp) for n in sorted(big) for i, lp in enumerate(big[n]) if lp not in small.get(n, [])]
        total = sum(abs(n) * (len(lp) - 1) for n, _, lp in new)
        with mock.patch.object(groups, "_SPREAD_LETTER_CAP", cap):
            if total > cap:
                with self.refused(total, cap):
                    quotient_relators(small, big, self.K)
                return
            out = quotient_relators(small, big, self.K)
        loops = [LoopWord.from_vertices(self.K, lp) for _, _, lp in new]
        assert out == [(reference_spread(lw, n), RelatorTag("spread", n, i)) for (n, i, _), lw in zip(new, loops)]

    @given(st.sampled_from(SPREAD_LOOPS), st.integers(0, 40), st.integers(0, 120))
    def test_power_spread(self, path, k, cap):
        loop = LoopWord.from_vertices(self.K, path)
        with mock.patch.object(groups, "_SPREAD_LETTER_CAP", cap):
            if k * loop.length > cap:
                with self.refused(k * loop.length, cap):
                    power_spread(loop, k)
                return
            assert power_spread(loop, k) == reference_spread(loop, k)

    def test_huge_heights_are_refused_without_building_a_word(self):
        loop = [0, 1, 2, 0]
        with self.refused(3 * 10**12, 1 << 20):
            deck_group_presentation(self.K, {10**12: [loop]})
        with self.refused("more than 2\\^81", 1 << 20):  # 3 * 10^12 * (10^12 + 1) letters
            tagged_family_presentation(self.K, {"alpha": [loop]}, (-(10**12), 10**12))
        with self.refused("more than 2\\^201", 1 << 20):
            quotient_relators({}, {-(2**200): [loop]}, self.K)

    def test_a_huge_window_without_loops_adds_no_relator(self):
        p = tagged_family_presentation(self.K, {"alpha": []}, (-(10**12), 10**12))
        assert p.relators == deck_group_presentation(self.K, {}).relators


class TestRaag:
    def test_single_edge(self):
        p = raag_presentation(SimplicialComplex.from_facets([[0, 1]]))
        assert p.generators == ("a0", "a1")
        assert [w.letters for w in p.relators] == [(1, 2, -1, -2)]

    def test_two_isolated_vertices_free(self):
        p = raag_presentation(SimplicialComplex.from_facets([[0], [1]]))
        assert p.relators == ()
        assert abelianization(p).free_rank == 2

    def test_full_triangle_abelianizes_to_rank_3(self):
        p = raag_presentation(full_simplex(3))
        assert len(p.relators) == 3
        ab = abelianization(p)
        assert ab.free_rank == 3 and ab.factors == ()


class TestDeckGroupPresentation:
    def test_triangle_emission(self):
        p = deck_group_presentation(full_simplex(3), {})
        assert p.generators == ("e0_1", "e0_2", "e1_2")
        assert len(p.relators) == 2
        assert all(len(w) == 3 for w in p.relators)
        assert all(t.family == "triangle" for t in p.tags)
        ab = abelianization(p)
        assert ab.free_rank == 2 and ab.factors == ()

    def test_exponent_matrix_snf(self):
        p = deck_group_presentation(full_simplex(3), {})
        D, _, _ = smith_normal_form(p.exponent_matrix())
        assert [d for d in snf_diagonal(D) if d] == [1]

    def test_no_triangles_no_relators(self):
        p = deck_group_presentation(cycle_complex(4), {})
        assert p.relators == ()

    def test_spread_loop_appended(self):
        K = full_simplex(3)
        loop = LoopWord.from_vertices(K, [0, 1, 2, 0])
        p = deck_group_presentation(K, {2: [loop]})
        spread = p.relators[-1]
        tag = p.tags[-1]
        assert tag.family == "spread" and tag.height == 2
        assert spread == power_spread(loop, 2)
        assert p.height_window == (2, 2)

    def test_negative_height_uses_inverse_letters(self):
        K = full_simplex(3)
        loop = LoopWord.from_vertices(K, [0, 1, 2, 0])
        p = deck_group_presentation(K, {-2: [loop]})
        expected = []
        for x in loop.letters:
            expected.extend([-x, -x])
        assert p.relators[-1].letters == tuple(expected)

    def test_relator_count_formula(self):
        K = SimplicialComplex.from_facets([[0, 1, 2], [1, 2, 3]])
        loops = [LoopWord.from_vertices(K, [0, 1, 2, 0])]
        p = deck_group_presentation(K, {1: loops, 3: loops})
        assert len(p.relators) == 2 * len(K.simplices_of_dim(2)) + 2

    def test_height_zero_spreads_rejected(self):
        K = full_simplex(3)
        loop = LoopWord.from_vertices(K, [0, 1, 2, 0])
        with pytest.raises(ValueError):
            deck_group_presentation(K, {0: [loop]})

    def test_non_loop_rejected(self):
        with pytest.raises(ValueError):
            deck_group_presentation(cycle_complex(4), {1: [[0, 2, 0]]})


@st.composite
def presentations(draw):
    """Up to four generators and six relators of length up to eight, often with cancelling letters."""
    n = draw(st.integers(0, 4))
    words = st.lists(st.integers(-n, n).filter(bool), max_size=8) if n else st.just([])
    relators = draw(st.lists(words, max_size=6))
    return Presentation([f"x{i}" for i in range(n)], [Word(r) for r in relators])


@st.composite
def cancelling_presentations(draw):
    """Relators of powers g^e, |e| <= 6, in scrambled order, where some powers come back inverted.

    Many exponent sums cancel, so rows lose entries or vanish, and the
    entries left are often not units.
    """
    n = draw(st.integers(1, 4))
    relators = []
    for _ in range(draw(st.integers(0, 6))):
        powers = draw(st.lists(st.tuples(st.integers(1, n), st.integers(-6, 6)), max_size=5))
        undone = draw(st.sets(st.integers(0, len(powers) - 1))) if powers else set()
        powers += [(g, -e) for i, (g, e) in enumerate(powers) if i in undone]
        letters = [g if e > 0 else -g for g, e in powers for _ in range(abs(e))]
        relators.append(Word(draw(st.permutations(letters))))
    return Presentation([f"x{i}" for i in range(n)], relators)


class TestAbelianization:
    def test_triangle_relators(self):
        p = deck_group_presentation(full_simplex(3), {})
        assert str(abelianization(p)) == "Z^2"

    def test_torsion(self):
        p = Presentation(["x"], [Word([1, 1])])
        ab = abelianization(p)
        assert ab.free_rank == 0 and ab.factors == (2,)

    def test_free_rank_two(self):
        p = Presentation(["x", "y"])
        ab = abelianization(p)
        assert ab.free_rank == 2 and ab.factors == ()

    @settings(max_examples=300)
    @given(cancelling_presentations())
    def test_cancelling_exponent_sums_match_the_dense_smith_form(self, p):
        factors = invariant_factors(p.exponent_matrix())
        ab = abelianization(p)
        assert ab.free_rank == len(p.generators) - len(factors)
        assert ab.factors == tuple(d for d in factors if d > 1)

    @settings(max_examples=300)
    @given(presentations())
    def test_exponent_sums_match_the_dense_smith_form(self, p):
        factors = invariant_factors(p.exponent_matrix())
        ab = abelianization(p)
        assert ab.free_rank == len(p.generators) - len(factors)
        assert ab.factors == tuple(d for d in factors if d > 1)


KNOWN_GROUPS = [
    # (name, generators, relators, order)
    ("Z/3", ["x"], [[1, 1, 1]], 3),
    ("Z/12", ["x"], [[1] * 12], 12),
    ("S3", ["a", "b"], [[1, 1], [2, 2], [1, 2, 1, 2, 1, 2]], 6),
    ("D4", ["r", "s"], [[1, 1, 1, 1], [2, 2], [2, 1, 2, 1]], 8),
    ("Q8", ["a", "b"], [[1, 1, 1, 1], [1, 1, -2, -2], [-2, 1, 2, 1]], 8),
    ("A4", ["a", "b"], [[1, 1], [2, 2, 2], [1, 2, 1, 2, 1, 2]], 12),
    ("S4", ["a", "b"], [[1, 1], [2, 2, 2, 2], [1, 2, 1, 2, 1, 2]], 24),
]


class TestCosetEnumeration:
    @pytest.mark.parametrize("name,gens,rels,order", KNOWN_GROUPS)
    def test_known_group_orders(self, name, gens, rels, order):
        p = Presentation(gens, [Word(r) for r in rels])
        assert coset_enumerate(p, (), 2000) == order

    def test_subgroup_index(self):
        p = Presentation(["a", "b"], [Word([1, 1]), Word([2, 2]), Word([1, 2] * 3)])
        assert coset_enumerate(p, [Word([1])], 2000) == 3  # S3 over <a>

    def test_infinite_group_is_refused_without_a_row(self):
        p = deck_group_presentation(full_simplex(3), {})  # abelianizes to Z^2
        assert abelianization(p).free_rank == 2
        assert coset_enumerate(p, (), 10_000) is None
        assert enumerate_table(p, (), 10_000) == (None, 0)

    def test_subgroup_of_infinite_index_in_z2_is_refused(self):
        p = Presentation(["a", "b"], [Word([1, 2, -1, -2])])
        assert enumerate_table(p, [Word([1, 2]), Word([1, 1, 2, 2])], 10_000) == (None, 0)
        assert coset_enumerate(p, [Word([1]), Word([2, 2])], 10_000) == 2

    def test_trivial_presentation(self):
        p = Presentation(["x"], [Word([1])])
        assert coset_enumerate(p, (), 100) == 1

    def test_no_generators(self):
        # The width-0 table is already the complete coset table of the trivial group.
        table, rows = enumerate_table(Presentation([]), (), 10)
        assert (table, trace_word(table, Word([])), rows) == (((),), 0, 1)

    def test_deterministic(self):
        p = Presentation(["a", "b"], [Word([1, 1]), Word([2, 2, 2]), Word([1, 2] * 3)])
        runs = {coset_enumerate(p, (), 2000) for _ in range(3)}
        assert runs == {12}


def _fixes(table, start, word):
    """Whether the word leads from coset ``start`` back to it in a completed table."""
    cur = start
    for x in word.letters:
        cur = table[cur][2 * x - 2 if x > 0 else -2 * x - 1]
    return cur == start


def _check_table(table, p, subgroup):
    """A completed table is the permutation action of p's generators on the
    cosets: tuple rows, each column and its inverse column mutually inverse
    permutations of the cosets, every relator fixing every coset and every
    subgroup generator fixing coset 0."""
    cosets = range(len(table))
    assert type(table) is tuple and all(type(row) is tuple and len(row) == 2 * len(p.generators) for row in table)
    for g in range(2 * len(p.generators)):
        assert sorted(row[g] for row in table) == list(cosets)
        assert all(table[table[c][g]][g ^ 1] == c for c in cosets)
    assert all(_fixes(table, c, w) for c in cosets for w in p.relators)
    assert all(trace_word(table, w) == 0 for w in subgroup)


def _live(T):
    """Live rows of ``_enumerate``'s working table: its index once complete."""
    return sum(1 for a in range(len(T.table)) if T.rep(a) == a)


class TestTietzeReduction:
    @settings(max_examples=300)
    @given(
        p=presentations(),
        subgroup=st.lists(st.lists(st.integers(-4, 4).filter(bool), max_size=4), max_size=2),
        budget=st.integers(1, 60),
    )
    def test_never_loses_an_index_and_extends_to_every_generator(self, p, subgroup, budget):
        n = len(p.generators)
        subgroup = [Word(x for x in w if abs(x) <= n) for w in subgroup]
        reference, _ = groups._enumerate(p, subgroup, budget)
        table, _ = enumerate_table(p, subgroup, budget)
        if reference is not None:
            assert table is not None and len(table) == _live(reference)
        if table is not None:
            _check_table(table, p, subgroup)

    @settings(max_examples=200)
    @given(presentations())
    def test_record_solves_each_eliminated_generator(self, p):
        reduced, record = simplify(p)
        eliminated = [g for g, _ in record]
        assert len(set(eliminated)) == len(eliminated)
        assert len(reduced.generators) + len(eliminated) == len(p.generators)
        assert sum(len(w) for w in reduced.relators) <= sum(len(w) for w in cyclic_relators(p.relators))
        for k, (g, value) in enumerate(record):
            assert not set(map(abs, value)) & set(eliminated[: k + 1])
        assert abelianization(reduced) == abelianization(p)

    def test_known_groups_reduce_to_their_orders(self):
        for _, gens, rels, order in KNOWN_GROUPS:
            p = Presentation(gens, [Word(r) for r in rels])
            reduced, _ = simplify(p)
            assert coset_enumerate(reduced, (), 2000) == order

    def test_an_elimination_that_lengthens_the_relators_still_gives_index_five(self):
        p = Presentation(
            ["g1", "g2", "g3"], [Word([-1, -3, -2, -2]), Word([2, -1, -2, -1, 3]), Word([-1, -2, 1, 2, 1, -2])]
        )
        assert coset_enumerate(p, (), 50) == 5

    def test_unreduced_run_follows_an_exhausted_reduced_run(self):
        p = Presentation(
            ["g1", "g2", "g3"],
            [Word([-1, 3, -2, -2, -1, 3, -2]), Word([3, 2, 3, 3]), Word([-3, 2, -1]), Word([1, 3, 2])],
        )
        reduced, record = simplify(p)
        assert record and groups._enumerate(reduced, (), 30) == (None, 30)
        unreduced, rows = groups._enumerate(p, (), 30)
        table, both = enumerate_table(p, (), 30)
        assert len(table) == _live(unreduced) == 1
        _check_table(table, p, ())
        assert both == 30 + rows

    def test_spanning_tree_presentation_of_a_large_sphere_needs_one_row(self):
        K = SimplicialComplex.from_facets(RP2_FACETS)
        for _ in range(3):
            K = barycentric_subdivision(K)
        p = SpanningTreeWords(build_cover(double_cover_voltages(K)[0]).total).presentation()
        assert len(p.generators) == 4319
        table, rows = enumerate_table(p, (), 4000)
        assert len(table) == 1 and rows <= 10


class TestQuotientRelators:
    def test_equal_assignments_give_nothing(self):
        K = full_simplex(3)
        loop = LoopWord.from_vertices(K, [0, 1, 2, 0])
        spreads = {2: [loop]}
        assert quotient_relators(spreads, spreads, K) == []

    def test_added_loop_at_height_3(self):
        K = full_simplex(3)
        loop = LoopWord.from_vertices(K, [0, 1, 2, 0])
        out = quotient_relators({}, {3: [loop]}, K)
        assert len(out) == 1
        word, tag = out[0]
        assert word == power_spread(loop, 3)
        assert tag.height == 3

    def test_two_heights(self):
        K = full_simplex(3)
        loop = LoopWord.from_vertices(K, [0, 1, 2, 0])
        other = LoopWord.from_vertices(K, [0, 2, 1, 0])
        out = quotient_relators({1: [loop]}, {1: [loop, other], -2: [loop]}, K)
        assert len(out) == 2
        assert {tag.height for _, tag in out} == {1, -2}

    def test_nesting_violation_rejected(self):
        K = full_simplex(3)
        loop = LoopWord.from_vertices(K, [0, 1, 2, 0])
        with pytest.raises(ValueError, match="nested"):
            quotient_relators({1: [loop]}, {1: []}, K)


class TestSubpresentationSelect:
    def build_full(self):
        K = SimplicialComplex.from_facets([[0, 1, 2], [1, 2, 3], [0, 2, 3], [0, 1, 3]])
        alphas = [LoopWord.from_vertices(K, [0, 1, 2, 0])]
        betas = [LoopWord.from_vertices(K, [0, 1, 3, 0]), LoopWord.from_vertices(K, [1, 2, 3, 1])]
        return K, tagged_family_presentation(K, {"alpha": alphas, "beta": betas}, (-3, 3))

    def test_empty_t_keeps_triangles_and_alphas(self):
        K, full = self.build_full()
        registry = example_registry()
        sel = subpresentation_select(full, [], registry, "L", "Lsl")
        assert sel.retained_heights == frozenset()
        families = {t.family for t in sel.presentation.tags}
        assert families == {"triangle", "alpha"}
        n_alpha = sum(1 for t in full.tags if t.family == "alpha")
        n_tri = sum(1 for t in full.tags if t.family == "triangle")
        assert len(sel.presentation.relators) == n_alpha + n_tri

    def test_retained_beta_pins_its_height(self):
        K, full = self.build_full()
        registry = example_registry()
        idx = next(i for i, t in enumerate(full.tags) if t.family == "beta" and t.height == 2)
        sel = subpresentation_select(full, [full.relators[idx]], registry, "L", "Lsl")
        assert sel.retained_heights == frozenset({2})
        beta_heights = {t.height for t in sel.presentation.tags if t.family == "beta"}
        assert beta_heights == {2}
        assert sel.sigma.value(2) == "L"
        assert sel.sigma.value(1) == "Lsl"
        assert sel.sigma.value(0) == "Lsl"
        assert sel.sigma.value(-5) == "Lsl"

    def test_all_betas_recovers_full(self):
        K, full = self.build_full()
        registry = example_registry()
        betas = [full.relators[i] for i, t in enumerate(full.tags) if t.family == "beta"]
        sel = subpresentation_select(full, betas, registry, "L", "Lsl")
        assert len(sel.presentation.relators) == len(full.relators)

    def test_missing_relator_rejected(self):
        K, full = self.build_full()
        with pytest.raises(ValueError, match="absent"):
            subpresentation_select(full, [Word([1, 1, 1, 1, 1, 1, 1])], example_registry(), "L", "Lsl")


class TestLiftingConsistencyAbelianized:
    def test_spread_relators_cover_lift_closing_loops(self):
        """Loops that lift to loops in the cover have their spread power in the
        integer row span of the emitted relators (the abelianized check)."""
        base = cycle_complex(4)
        nontree = [e for e in base.edges() if e not in spanning_tree(base)]
        cover = build_cover(VoltageAssignment(base, 2, {nontree[0]: (1, 0)}))
        height = 2
        loops = [LoopWord.from_vertices(base, path) for path in normal_generators(cover)]
        pres = deck_group_presentation(base, {height: loops})
        rows = pres.exponent_matrix()

        def in_row_span(vector):
            D, _, V = smith_normal_form(rows)
            y = [sum(vector[i] * V[i][j] for i in range(len(vector))) for j in range(len(vector))]
            diag = snf_diagonal(D)
            for j, val in enumerate(y):
                d = diag[j] if j < len(diag) else 0
                if d == 0 and val != 0:
                    return False
                if d != 0 and val % d != 0:
                    return False
            return True

        candidates = [
            [0, 1, 2, 3, 0, 1, 2, 3, 0],  # doubled generator
            [0, 3, 2, 1, 0, 3, 2, 1, 0],  # its inverse
            [1, 2, 3, 0, 1, 2, 3, 0, 1],  # rotated basepoint
        ]
        for path in candidates:
            closed, _ = lift_loop(cover, path, 0)
            assert closed
            lw = LoopWord.from_vertices(base, path)
            vec = [0] * len(pres.generators)
            for x in power_spread(lw, height).letters:
                vec[abs(x) - 1] += 1 if x > 0 else -1
            assert in_row_span(vec)
        # and a loop that does NOT lift-close is not forced into the span
        single = LoopWord.from_vertices(base, [0, 1, 2, 3, 0])
        closed, _ = lift_loop(cover, [0, 1, 2, 3, 0], 0)
        assert not closed


class TestFormats:
    def test_text_round_trip(self):
        p = deck_group_presentation(full_simplex(3), {})
        text = p.to_text()
        again = Presentation.from_text(text)
        assert again.generators == p.generators
        assert again.relators == p.relators
        assert again.to_text() == text

    def test_json_round_trip_keeps_tags(self):
        K = full_simplex(3)
        loop = LoopWord.from_vertices(K, [0, 1, 2, 0])
        p = deck_group_presentation(K, {2: [loop]})
        data = json.loads(presentation_to_json(p))
        again = Presentation.from_json_dict(data)
        assert again.generators == p.generators
        assert again.relators == p.relators
        assert again.tags == p.tags
        assert again.height_window == p.height_window
        assert presentation_to_json(again) == presentation_to_json(p)

    def test_inverse_suffix_parses(self):
        p = Presentation(["a", "b"])
        w = p.parse_word("a b' a'")
        assert w.letters == (1, -2, -1)
        assert p.word_str(w) == "a b' a'"

    @pytest.mark.parametrize("letters, first", [([1, 3, -4], 3), ([2, -1, -3, 5], -3), ([-7], -7)])
    def test_out_of_range_letter_is_named(self, letters, first):
        with pytest.raises(ValueError, match=rf"^letter {first} out of range$"):
            Presentation(["a", "b"], [Word([1, 2]), Word(letters)])


class TestSpanningTreeWords:
    def test_cycle_has_one_generator(self):
        stw = SpanningTreeWords(cycle_complex(5))
        assert len(stw.generator_names) == 1
        w = stw.word_for_path([0, 1, 2, 3, 4, 0])
        assert len(w) == 1

    def test_triangle_relators_kill_fillable_loops(self):
        stw = SpanningTreeWords(full_simplex(3))
        pres = stw.presentation()
        assert coset_enumerate(pres, (), 100) == 1  # simply connected
