import itertools
import operator
import random
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings, strategies as st

from fpforge import complex_core, covers
from fpforge.complex_core import (
    ComplexError,
    FormatError,
    GroupPresentationInput,
    SimplicialComplex,
    _tree_parents,
    barycentric_subdivision,
    flagify_presentation_complex,
    spanning_tree,
)
from fpforge.covers import (
    CoverComplex,
    CoverError,
    VoltageAssignment,
    build_cover,
    deck_group,
    double_cover_voltages,
    double_of_cover,
    dump_voltage,
    lift_loop,
    normal_generators,
    perm_compose,
    perm_identity,
    verify_covering,
)
from fpforge.groups import SpanningTreeWords
from fpforge.homology import RingSpec, reduced_homology
from fpforge.sigma import SigmaError, normal_generating_length_bound
from fpforge.spherical_double import spherical_double

from helpers import (
    RP2_FACETS, S3, facet_inputs, left_multiplication, reference_build_cover, reference_closed_star, reference_facets,
    reference_failing_triangle, reference_lift_loop, reference_maps_into, s3_left_regular_cover, voltage_assignments,
    wedge_of_two_triangles,
)


def cycle_complex(n):
    return SimplicialComplex.from_facets([[i, (i + 1) % n] for i in range(n)])


def c4_double_cover():
    base = cycle_complex(4)
    nontree = [e for e in base.edges() if e not in spanning_tree(base)]
    assert nontree == [(2, 3)]
    return build_cover(VoltageAssignment(base, 2, {(2, 3): (1, 0)}))


def broken_square_cover():
    """A hand-made cover of the square whose total space lacks the edge over (3, 0)."""
    total = SimplicialComplex.from_facets([[0, 1], [1, 2], [2, 3]])
    return CoverComplex(total, cycle_complex(4), {t: t for t in range(4)}, {t: 0 for t in range(4)})


def subdivided_rp2():
    return barycentric_subdivision(SimplicialComplex.from_facets(RP2_FACETS))


def orientation_cover():
    base = subdivided_rp2()
    assignments = double_cover_voltages(base)
    assert len(assignments) == 1  # unique connected double cover
    return build_cover(assignments[0])


def voltage_product(cover, loop):
    """Oracle: multiply the stored edge voltages along the loop directly."""
    perm = perm_identity(cover.assignment.degree)
    for u, w in zip(loop, loop[1:]):
        perm = perm_compose(perm, cover.assignment.voltage[(u, w)])
    return perm


def brute_deck_transformations(cover):
    """Oracle: extend every fiber choice over a basepoint by unique lifting,
    then keep the maps that are simplicial bijections commuting with the
    projection.  Written independently of the library's search."""
    adj = cover.total.adjacency()
    verts = sorted(cover.total.vertices)
    t0 = verts[0]
    results = []
    for start in [t for t in verts if cover.projection[t] == cover.projection[t0]]:
        mapping = {t0: start}
        queue = [t0]
        consistent = True
        while queue and consistent:
            x = queue.pop()
            for y in sorted(adj[x]):
                candidates = [
                    z for z in adj[mapping[x]] if cover.projection[z] == cover.projection[y]
                ]
                if len(candidates) != 1:
                    consistent = False
                    break
                z = candidates[0]
                if y in mapping:
                    if mapping[y] != z:
                        consistent = False
                        break
                else:
                    mapping[y] = z
                    queue.append(y)
        if not consistent or len(mapping) != len(verts):
            continue
        if sorted(mapping.values()) != verts:
            continue
        if all(
            tuple(sorted(mapping[v] for v in s)) in cover.total.simplices
            for s in cover.total.simplices
        ):
            results.append(mapping)
    return results


NO_VOLTAGES = r"^deck group requires a cover built from voltages$"


def deck_permutations(cover, transformations):
    """The sheet permutations that maps of the total space induce over the least base vertex."""
    fiber = cover.fibers()[min(cover.base.vertices)]
    return sorted(tuple(cover.sheet[f[fiber[s]]] for s in range(len(fiber))) for f in transformations)


class TestBuildCover:
    def test_identity_voltages_give_disjoint_copies(self):
        base = cycle_complex(4)
        cover = build_cover(VoltageAssignment(base, 3))
        assert len(cover.total.components()) == 3
        assert cover.total.f_vector() == (12, 12)
        assert verify_covering(cover)

    def test_swap_voltage_gives_8_cycle(self):
        cover = c4_double_cover()
        assert cover.total.f_vector() == (8, 8)
        assert cover.total.is_connected()
        assert all(len(cover.total.adjacency()[v]) == 2 for v in cover.total.vertices)

    def test_orientation_cover_is_a_sphere(self):
        cover = orientation_cover()
        summary = reduced_homology(cover.total, RingSpec.Z())
        assert summary.is_trivial_in(1)
        assert summary.rank(2) == 1 and summary.torsion_in(2) == ()

    def test_triangle_condition_enforced(self):
        base = SimplicialComplex.from_facets([[0, 1, 2]])
        tree = spanning_tree(base)
        nontree = [e for e in base.edges() if e not in tree][0]
        with pytest.raises(CoverError, match="triangle"):
            VoltageAssignment(base, 2, {nontree: (1, 0)})

    def test_least_failing_triangle_over_all_sheets(self):
        # Sheet 0 fails first on (0, 1, 2); sheet 2 passes it and fails first on (1, 2, 3).
        base = SimplicialComplex.from_facets([[0, 1, 2], [1, 2, 3]])
        voltages = {(1, 2): (1, 0, 2), (2, 3): (0, 2, 1)}
        assert reference_failing_triangle(base, 3, voltages) == (0, 1, 2)
        with pytest.raises(CoverError, match=r"^triangle condition fails on \(0, 1, 2\)$"):
            VoltageAssignment(base, 3, voltages)

    @given(voltage_assignments())
    def test_matches_the_oracle(self, voltage):
        cover, oracle = build_cover(voltage), reference_build_cover(voltage)
        assert cover.total == oracle.total
        assert cover.projection == oracle.projection and cover.sheet == oracle.sheet
        assert complex_core.validate(cover.total) == []

    @given(voltage_assignments(), st.data())
    def test_triangle_failure_names_the_least_failing_triangle(self, voltage, data):
        base, degree = voltage.base, voltage.degree
        tree = spanning_tree(base)
        edges = sorted({e for t in base.simplices_of_dim(2) for e in itertools.combinations(t, 2)} - tree)
        assume(edges and degree > 1)
        edge = data.draw(st.sampled_from(edges))
        voltages = voltage.nontree_voltages()
        others = sorted(set(itertools.permutations(range(degree))) - {voltage.voltage[edge]})
        voltages[edge] = data.draw(st.sampled_from(others))
        expected = reference_failing_triangle(base, degree, voltages)
        assert expected is not None  # the triangles over the edge held before
        with pytest.raises(CoverError) as raised:
            VoltageAssignment(base, degree, voltages)
        assert str(raised.value) == f"triangle condition fails on {expected}"

    @given(voltage_assignments())
    def test_facets_match_the_reference_over_bases_read_from_their_facets(self, voltage):
        """The drawn bases list nested facets; rebuilt from their facets, the pure ones are recorded pure."""
        base = SimplicialComplex.from_facets(voltage.base.facets())
        rebased = VoltageAssignment(base, voltage.degree, voltage.nontree_voltages())
        for v in (voltage, rebased):
            total = build_cover(v).total
            assert ("pure" in total._cache) == ("pure" in v.base._cache)
            assert total.facets() == reference_facets(total)

    def test_a_dangling_edge_keeps_the_total_unflagged(self):
        base = SimplicialComplex.from_facets([[0, 1, 2], [2, 3]])
        total = build_cover(VoltageAssignment(base, 2)).total
        assert "pure" not in total._cache and total.facets() == [(0, 2, 4), (1, 3, 5), (4, 6), (5, 7)]
        assert c4_double_cover().total._cache["pure"] == 2

    def test_euler_characteristic_multiplies(self):
        for cover in (c4_double_cover(), orientation_cover()):
            assert cover.total.euler_characteristic() == cover.degree * cover.base.euler_characteristic()

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"base": {"facets": [[0, 1]]}}, "$.degree: missing"),
            ({"degree": 2}, "$.base: missing"),
            ({"base": {"facets": 5}, "degree": 2}, "$.base.facets: expected an array, got an integer"),
            ({"base": {}, "degree": "2"}, "$.degree: expected an integer, got a string"),
            ({"base": {}, "degree": 2, "voltages": [{"edge": [0, 1, 2], "perm": [2, 1]}]},
             "$.voltages[0].edge: expected 2 vertices, got 3"),
            ({"base": {}, "degree": 2, "voltages": [{"edge": [0, 1]}]}, "$.voltages[0].perm: missing"),
        ],
    )
    def test_malformed_voltage_json_names_the_path(self, data, path):
        with pytest.raises(FormatError) as info:
            VoltageAssignment.from_json_dict(data)
        assert str(info.value) == path

    def test_a_degree_over_the_closure_cap_is_refused_before_any_permutation(self, monkeypatch):
        triangle = SimplicialComplex.from_facets([[0, 1, 2]])
        monkeypatch.setattr(complex_core, "_CLOSURE_CAP", 21)
        assert build_cover(VoltageAssignment(triangle, 3)).total.f_vector() == (9, 9, 3)
        monkeypatch.setattr(covers, "perm_identity", lambda d: pytest.fail("identity built over the cap"))
        with pytest.raises(CoverError) as info:
            VoltageAssignment(triangle, 4)
        assert str(info.value) == (
            "the cover would hold 28 simplices (degree times 7 base simplices), over the closure cap of 21 (2^4)"
        )
        with pytest.raises(CoverError, match=r"hold more than 2\^10005 simplices"):
            VoltageAssignment(triangle, 10**3011)

    def test_the_cap_admits_the_z105_universal_cover(self):
        base = flagify_presentation_complex(GroupPresentationInput(1, [[1] * 105]))
        assert len(base.simplices) == 16_393
        assert 105 * len(base.simplices) == 1_721_265 < complex_core._CLOSURE_CAP

    def test_voltage_json_round_trip(self):
        cover = c4_double_cover()
        text = dump_voltage(cover.assignment)
        import json

        again = VoltageAssignment.from_json_dict(json.loads(text))
        assert again == cover.assignment
        assert dump_voltage(again) == text


class TestVerifyCovering:
    def test_built_covers_verify(self):
        assert verify_covering(c4_double_cover())
        assert verify_covering(orientation_cover())

    def test_edge_collapse_fails(self):
        base = SimplicialComplex.from_facets([[0, 1], [1, 2]])
        total = SimplicialComplex.from_facets([[0, 1], [1, 2], [2, 3]])
        projection = {0: 0, 1: 1, 2: 2, 3: 2}  # collapses vertices 2, 3 onto one fiber? no: 3 -> 2
        sheets = {0: 0, 1: 0, 2: 0, 3: 1}
        cover = CoverComplex(total, base, projection, sheets)
        assert verify_covering(cover) is False

    def test_degree_one_identity(self):
        base = cycle_complex(5)
        cover = build_cover(VoltageAssignment(base, 1))
        assert verify_covering(cover)
        regular, group = deck_group(cover)
        assert regular and group == [(0,)]


class TestDoubleOfCover:
    def test_degree_one_gives_double_over_itself(self):
        base = cycle_complex(4)
        cover = build_cover(VoltageAssignment(base, 1))
        doubled = double_of_cover(base, cover)
        assert doubled.base == spherical_double(base).complex
        assert doubled.total == spherical_double(base).complex
        assert verify_covering(doubled)

    def test_pullback_matches_brute_force(self):
        base = cycle_complex(4)
        cover = c4_double_cover()
        doubled = double_of_cover(base, cover)
        s_base = spherical_double(base).complex
        # Brute-force pullback: pairs (s, t) with matching images downstairs,
        # simplices componentwise.
        pairs = {}
        for s in s_base.vertices:
            for t in cover.total.vertices:
                if (s - s % 2) // 2 == cover.projection[t]:
                    pairs[(s, t)] = 2 * t + s % 2  # expected encoding
        simplices = set()
        for s_simplex in s_base.simplices:
            for t_simplex in cover.total.simplices:
                if len(s_simplex) != len(t_simplex):
                    continue
                combos = []
                for s in s_simplex:
                    matches = [t for t in t_simplex if (s - s % 2) // 2 == cover.projection[t]]
                    combos.append((s, matches))
                if all(len(m) == 1 for _, m in combos):
                    lifted = tuple(sorted(pairs[(s, m[0])] for s, m in combos))
                    simplices.add(lifted)
        assert simplices == set(doubled.total.simplices)
        assert verify_covering(doubled)
        assert doubled.degree == cover.degree

    def test_orientation_cover_pullback(self):
        base = subdivided_rp2()
        cover = orientation_cover()
        doubled = double_of_cover(base, cover)
        assert verify_covering(doubled)
        assert doubled.degree == 2
        assert doubled.total.f_vector() == tuple(2 * x for x in doubled.base.f_vector())

    def test_mismatched_base_rejected(self):
        with pytest.raises(CoverError):
            double_of_cover(cycle_complex(5), c4_double_cover())


class TestLiftLoop:
    def test_identity_voltages_always_close(self):
        base = cycle_complex(4)
        cover = build_cover(VoltageAssignment(base, 3))
        closed, end = lift_loop(cover, [0, 1, 2, 3, 0], 1)
        assert closed and end == 1

    def test_generator_loop_swaps_sheets(self):
        cover = c4_double_cover()
        closed, end = lift_loop(cover, [0, 1, 2, 3, 0], 0)
        assert not closed and end == 1

    def test_doubled_loop_closes(self):
        cover = c4_double_cover()
        closed, end = lift_loop(cover, [0, 1, 2, 3, 0, 1, 2, 3, 0], 0)
        assert closed and end == 0

    def test_multiplicative_along_concatenation(self):
        cover = orientation_cover()
        rng = random.Random(9)
        adj = cover.base.adjacency()
        base_vertex = min(cover.base.vertices)
        loops = []
        while len(loops) < 8:
            path = [base_vertex]
            for _ in range(rng.randint(2, 6)):
                path.append(rng.choice(sorted(adj[path[-1]])))
            back = [base_vertex]
            cur = base_vertex
            # close up with a tree walk: just retrace the path backwards
            loops.append(path + path[-2::-1])
        for a in loops[:4]:
            for b in loops[4:]:
                pa = voltage_product(cover, a)
                pb = voltage_product(cover, b)
                _, end = lift_loop(cover, a + b[1:], 0)
                assert end == perm_compose(pa, pb)[0]

    def test_agrees_with_voltage_product_oracle(self):
        for cover in (c4_double_cover(), orientation_cover()):
            base_vertex = min(cover.base.vertices)
            adj = cover.base.adjacency()
            rng = random.Random(4)
            for _ in range(30):
                path = [base_vertex]
                for _ in range(rng.randint(1, 7)):
                    path.append(rng.choice(sorted(adj[path[-1]])))
                loop = path + path[-2::-1]  # walk out and back: always closed
                perm = voltage_product(cover, loop)
                for s in range(cover.degree):
                    closed, end = lift_loop(cover, loop, s)
                    assert end == perm[s]
                    assert closed == (perm[s] == s)

    def test_open_path_rejected(self):
        with pytest.raises(CoverError, match=r"^loop must be a closed vertex path \(first = last\)$"):
            lift_loop(c4_double_cover(), [0, 1, 2], 0)

    @pytest.mark.parametrize("loop", [[], (v for v in [0, 1])])
    def test_empty_or_open_iterable_rejected(self, loop):
        with pytest.raises(CoverError, match=r"^loop must be a closed vertex path \(first = last\)$"):
            lift_loop(c4_double_cover(), loop, 0)

    def test_bad_sheet_rejected(self):
        with pytest.raises(CoverError, match=r"^sheet 7 out of range over vertex 0$"):
            lift_loop(c4_double_cover(), [0, 1, 0], 7)

    @pytest.mark.parametrize("loop", [[9], [9, 0, 9], [0, 9, 0], [0, 2, 0], [0, 0], [0, 1, 2, 0]])
    def test_unknown_vertex_or_non_edge_rejected(self, loop):
        expected = {
            (9,): "9 is not a vertex of the base",
            (9, 0, 9): "9 is not a vertex of the base",
            (0, 9, 0): "(0, 9) is not an edge of the base",
            (0, 2, 0): "(0, 2) is not an edge of the base",
            (0, 0): "(0, 0) is not an edge of the base",
            (0, 1, 2, 0): "(2, 0) is not an edge of the base",
        }
        with pytest.raises(CoverError) as info:
            lift_loop(c4_double_cover(), loop, 0)
        assert str(info.value) == expected[tuple(loop)]

    def test_lift_breaks_on_a_total_without_the_edge(self):
        cover = broken_square_cover()
        assert lift_loop(cover, [0, 1, 2, 1, 0], 0) == (True, 0)
        with pytest.raises(CoverError, match=r"^lift broke: not a covering complex$"):
            lift_loop(cover, [0, 1, 2, 3, 0], 0)

    def test_non_edge_is_reported_before_a_bad_sheet(self):
        with pytest.raises(CoverError, match=r"^\(0, 2\) is not an edge of the base$"):
            lift_loop(c4_double_cover(), [0, 1, 0, 2, 3, 0], 7)

    def test_non_edge_is_reported_before_a_broken_lift(self):
        with pytest.raises(CoverError, match=r"^\(0, 2\) is not an edge of the base$"):
            lift_loop(broken_square_cover(), [0, 1, 2, 3, 0, 2, 3, 0], 0)

    def test_bad_sheet_is_reported_before_a_broken_lift(self):
        with pytest.raises(CoverError, match=r"^sheet 1 out of range over vertex 0$"):
            lift_loop(broken_square_cover(), [0, 1, 2, 3, 0], 1)


class TestDeckGroup:
    def test_8_cycle_cover_regular_order_2(self):
        cover = c4_double_cover()
        regular, group = deck_group(cover)
        assert regular and len(group) == 2
        oracle = brute_deck_transformations(cover)
        assert len(oracle) == 2

    def test_orientation_cover_regular_order_2(self):
        cover = orientation_cover()
        regular, group = deck_group(cover)
        assert regular and len(group) == 2
        assert len(brute_deck_transformations(cover)) == 2

    def test_s3_left_regular_cover_returns_deck_transformations(self):
        cover = s3_left_regular_cover()
        regular, group = deck_group(cover)
        oracle = brute_deck_transformations(cover)
        assert regular and len(group) == len(oracle) == 6
        assert group == deck_permutations(cover, oracle)
        voltages = cover.assignment.nontree_voltages().values()
        assert all(perm_compose(g, p) == perm_compose(p, g) for g in group for p in voltages)
        # the voltage image (left multiplications) shares only the identity with the deck group
        assert set(group) & {left_multiplication(g) for g in S3} == {perm_identity(6)}

    def test_symmetric_voltages_of_degree_12_are_irregular(self):
        cycle = tuple((s + 1) % 12 for s in range(12))
        swap = (1, 0) + tuple(range(2, 12))
        cover = build_cover(VoltageAssignment(wedge_of_two_triangles(), 12, {(1, 2): cycle, (3, 4): swap}))
        assert cover.total.is_connected()
        assert deck_group(cover) == (False, None)

    def test_cover_missing_a_triangle_on_one_sheet_is_irregular(self):
        cover = orientation_cover()
        (swap,) = [f for f in brute_deck_transformations(cover) if any(f[t] != t for t in f)]
        gone = next(s for s in sorted(cover.total.simplices) if len(s) == 3 and cover.sheet[s[0]] == 1)
        kept = tuple(sorted(swap[t] for t in gone))
        total = SimplicialComplex.from_facets(
            [s for s in cover.total.facets() if s != gone], vertices=cover.total.vertices
        )
        damaged = CoverComplex(total, cover.base, cover.projection, cover.sheet)
        # The swap still maps every vertex and edge onto a vertex and an edge...
        assert total.simplices == cover.total.simplices - {gone}
        assert all(tuple(sorted(swap[t] for t in s)) in total.simplices for s in total.simplices if len(s) < 3)
        # ...but takes the kept triangle over the same base triangle onto the missing one.
        assert kept in total.simplices and tuple(sorted(swap[t] for t in kept)) == gone
        assert len(brute_deck_transformations(damaged)) == 1
        # The damaged total carries no voltages, so the deck group is refused; the built cover keeps its swap.
        with pytest.raises(CoverError, match=NO_VOLTAGES):
            deck_group(damaged)
        assert deck_group(cover) == (True, [(0, 1), (1, 0)])

    def test_pullback_uses_search_path(self):
        """A pullback carries no voltages: its deck group is refused, though the search still finds two."""
        base = cycle_complex(4)
        doubled = double_of_cover(base, c4_double_cover())
        assert doubled.assignment is None and verify_covering(doubled)
        with pytest.raises(CoverError, match=NO_VOLTAGES):
            deck_group(doubled)
        assert deck_permutations(doubled, brute_deck_transformations(doubled)) == [(0, 1), (1, 0)]

    def test_disconnected_rejected(self):
        cover = build_cover(VoltageAssignment(cycle_complex(4), 2))
        with pytest.raises(CoverError, match=r"^deck group requires a connected cover$"):
            deck_group(cover)


class TestNormalGenerators:
    def test_degree_one_of_4_cycle(self):
        base = cycle_complex(4)
        cover = build_cover(VoltageAssignment(base, 1))
        loops = normal_generators(cover)
        assert len(loops) == 1
        assert len(loops[0]) - 1 == 4

    def test_8_cycle_over_4_cycle_doubled_loop(self):
        cover = c4_double_cover()
        loops = normal_generators(cover)
        assert len(loops) == 1
        assert len(loops[0]) - 1 == 8
        closed, _ = lift_loop(cover, loops[0], 0)
        assert closed

    def test_sphere_cover_generators_all_lift_close(self):
        cover = orientation_cover()
        summary = reduced_homology(cover.total, RingSpec.Z())
        assert summary.is_trivial_in(1)  # certificate: simply connected up to H_1
        for loop in normal_generators(cover):
            for s in range(cover.degree):
                closed, _ = lift_loop(cover, loop, s)
                assert closed


# ---------------------------------------------------------------------------
# One canonical spanning tree, read by every cover path


def reference_tree(K):
    """Oracle: the breadth-first tree (smallest root, sorted neighbours) by its own walk."""
    adj = {v: set() for v in K.vertices}
    for u, w in K.edges():
        adj[u].add(w)
        adj[w].add(u)
    root = min(K.vertices)
    tree, seen, frontier = set(), {root}, [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in sorted(adj[v]):
                if w not in seen:
                    seen.add(w)
                    tree.add((min(v, w), max(v, w)))
                    nxt.append(w)
        frontier = nxt
    assert len(seen) == len(K.vertices)
    return tree


def reference_normal_generators(c):
    """Oracle: the loops read off a second walk of the tree for parents, as before the tree was shared."""
    tree = reference_tree(c.total)
    adj = c.total.adjacency()
    root = min(c.total.vertices)
    parent = {root: None}
    frontier = [root]
    while frontier:
        nxt = []
        for x in frontier:
            for y in sorted(adj[x]):
                if (min(x, y), max(x, y)) in tree and y not in parent:
                    parent[y] = x
                    nxt.append(y)
        frontier = nxt

    def path_to_root(x):
        path = [x]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    loops = [
        [c.projection[x] for x in path_to_root(u)[::-1] + path_to_root(w)]
        for u, w in c.total.edges()
        if (u, w) not in tree
    ]
    loops.sort(key=lambda p: (len(p), p))
    return loops


def reference_double_cover_voltages(base):
    """Oracle: the GF(2) solve over the non-tree edges of an independently walked tree."""
    tree = reference_tree(base)
    nontree = [e for e in base.edges() if e not in tree]
    index = {e: i for i, e in enumerate(nontree)}
    pivots = {}
    for u, v, w in base.simplices_of_dim(2):
        row = 0
        for e in ((u, v), (v, w), (u, w)):
            if e in index:
                row ^= 1 << index[e]
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    free_bits = [i for i in range(len(nontree)) if i not in pivots]
    solutions = set()
    for combo in range(1, 1 << len(free_bits)):
        x = sum(1 << bit for j, bit in enumerate(free_bits) if combo >> j & 1)
        for lead in sorted(pivots):
            if bin(pivots[lead] & x & ~(1 << lead)).count("1") % 2:
                x |= 1 << lead
        solutions.add(x)
    return [
        VoltageAssignment(base, 2, {e: (1, 0) for e, i in index.items() if x >> i & 1})
        for x in sorted(solutions)
        if x
    ]


@st.composite
def connected_2_complexes(draw):
    """Connected complexes on at most six shuffled vertex ids: a random tree plus extra edges and triangles."""
    n = draw(st.integers(1, 6))
    labels = draw(st.permutations(range(0, 2 * n, 2)))
    facets = [[labels[v], labels[draw(st.integers(0, v - 1))]] for v in range(1, n)]
    for size, most in ((2, 3), (3, 4)):
        if n >= size:
            simplex = st.lists(st.sampled_from(labels), min_size=size, max_size=size, unique=True)
            facets += draw(st.lists(simplex, max_size=most))
    return SimplicialComplex.from_facets(facets, vertices=labels)


def flagified_torus():
    return flagify_presentation_complex(GroupPresentationInput(2, [[1, 2, -1, -2]]))


def check_against_references(base):
    assignments = double_cover_voltages(base)
    assert assignments == reference_double_cover_voltages(base)
    assert [dump_voltage(v) for v in assignments] == [
        dump_voltage(v) for v in reference_double_cover_voltages(base)
    ]
    for v in [VoltageAssignment(base, 1)] + assignments:
        cover = build_cover(v)
        if cover.total.is_connected():
            assert normal_generators(cover) == reference_normal_generators(cover)


class TestSharedSpanningTree:
    @settings(max_examples=150)
    @given(connected_2_complexes())
    def test_covers_match_the_separately_walked_tree(self, K):
        assume(len(K.edges()) - len(K.vertices) + 1 <= 8)  # at most 2^8 - 1 double covers
        assert spanning_tree(K) == reference_tree(K)
        check_against_references(K)

    @pytest.mark.parametrize("rounds", [0, 1, 2, 3])
    def test_subdivided_rp2_matches(self, rounds):
        K = SimplicialComplex.from_facets(RP2_FACETS)
        for _ in range(rounds):
            K = barycentric_subdivision(K)
        check_against_references(K)

    def test_flagified_projective_plane_matches(self):
        K = flagify_presentation_complex(GroupPresentationInput(1, [[1, 1]]))
        assert len(double_cover_voltages(K)) == 1  # Hom(Z/2, Z/2) minus the trivial map
        check_against_references(K)

    def test_flagified_torus_matches(self):
        K = flagified_torus()
        assert len(double_cover_voltages(K)) == 3  # Hom(Z^2, Z/2) minus the trivial map
        check_against_references(K)

    def test_spanning_tree_is_an_immutable_set(self):
        K = cycle_complex(5)
        tree = spanning_tree(K)
        assert isinstance(tree, frozenset)
        with pytest.raises(AttributeError):
            tree.add((0, 2))
        with pytest.raises(TypeError):
            _tree_parents(K)[0] = 1

    def test_tree_is_walked_once_and_read_everywhere(self):
        # Planting a different spanning tree of the square in the cache shows that
        # every consumer reads it there instead of walking the 1-skeleton again.
        K = cycle_complex(4)
        assert dict(_tree_parents(K)) == {0: None, 1: 0, 3: 0, 2: 1}
        assert _tree_parents(K) is _tree_parents(K)
        K._cache["tree"] = MappingProxyType({0: None, 1: 0, 2: 1, 3: 2})
        assert spanning_tree(K) == {(0, 1), (1, 2), (2, 3)}
        assert SpanningTreeWords(K).nontree == [(0, 3)]
        (double,) = double_cover_voltages(K)
        assert double.spanning_tree == spanning_tree(K)
        assert double.nontree_voltages() == {(0, 3): (1, 0)}
        with pytest.raises(CoverError, match="tree edge"):
            VoltageAssignment(K, 2, {(2, 3): (1, 0)})

        cover = build_cover(VoltageAssignment(cycle_complex(4), 1))
        assert normal_generators(cover) == [[0, 1, 2, 3, 0]]
        cover = build_cover(VoltageAssignment(cycle_complex(4), 1))
        cover.total._cache["tree"] = MappingProxyType({0: None, 1: 0, 2: 1, 3: 2})
        assert normal_generators(cover) == [[0, 3, 2, 1, 0]]


# ---------------------------------------------------------------------------
# Covering checks through the step table
#
# Reference scan: the closed-star body of verify_covering from before the step
# table, kept to check the star-free version.


def scan_verify_covering(c):
    if not c.total.vertices:
        return False
    if {c.projection[t] for t in c.total.vertices} != set(c.base.vertices):
        return False
    base_stars = {v: reference_closed_star(c.base, v) for v in c.base.vertices}
    for t in c.total.vertices:
        st_t = reference_closed_star(c.total, t)
        st_v = base_stars[c.projection[t]]
        if len(st_t) != len(st_v):
            return False
        image = set()
        for s in st_t:
            proj = tuple(sorted({c.projection[x] for x in s}))
            if len(proj) != len(s):
                return False
            image.add(proj)
        if image != st_v:
            return False
    # The sheets label every fiber one-to-one.
    labels = {(c.projection[t], c.sheet.get(t)) for t in c.total.vertices}
    return all(t in c.sheet for t in c.total.vertices) and len(labels) == len(c.total.vertices)


def verdict(check, c):
    """The check's answer, or the type of the exception it raised."""
    try:
        return check(c)
    except Exception as exc:  # any type: the two checks must raise the same one
        return type(exc)


def random_voltage_cover(draw, base, max_degree=3):
    """A voltage cover of degree 1 to max_degree: random sheet permutations on
    the non-tree edges, kept when the triangle condition holds and otherwise
    only on the edges that lie in no triangle, where it holds for any choice."""
    degree = draw(st.integers(1, max_degree))
    nontree = SpanningTreeWords(base).nontree
    perms = st.permutations(range(degree)).map(tuple)
    voltages = {e: draw(perms) for e in nontree}
    try:
        return build_cover(VoltageAssignment(base, degree, voltages))
    except CoverError:
        in_triangles = {e for u, v, w in base.simplices_of_dim(2) for e in ((u, v), (v, w), (u, w))}
        free = {e: p for e, p in voltages.items() if e not in in_triangles}
        return build_cover(VoltageAssignment(base, degree, free))


def perturb(choice, c):
    """One damaged copy of a cover: two projection entries swapped or merged, a
    facet of the total dropped or added, or a total that fails validation."""
    kind, i, j, k = choice
    verts = sorted(c.total.vertices)
    a, b = verts[i % len(verts)], verts[j % len(verts)]
    projection, total = dict(c.projection), c.total
    if kind == "swap":
        projection[a], projection[b] = projection[b], projection[a]
    elif kind == "merge":
        projection[a] = projection[b]
    elif kind == "drop":
        facets = total.facets()
        del facets[k % len(facets)]
        total = SimplicialComplex.from_facets(facets, vertices=verts)
    elif kind == "add":
        third = verts[k % len(verts)]
        total = SimplicialComplex.from_facets(total.facets() + [[a, b, third]], vertices=verts)
    elif kind == "invalid":
        simplices = set(total.simplices)
        edges = sorted(s for s in simplices if len(s) == 2)
        if edges and k % 2:
            simplices.discard(edges[k % len(edges)])  # a face goes missing
        else:
            simplices.discard((a,))  # a vertex without its 0-simplex
        total = SimplicialComplex(total.vertices, simplices)
    return CoverComplex(total, c.base, projection, c.sheet)


PERTURBATIONS = ("none", "swap", "merge", "drop", "add", "invalid")


@st.composite
def perturbed_covers(draw):
    c = random_voltage_cover(draw, draw(connected_2_complexes()))
    choice = (draw(st.sampled_from(PERTURBATIONS)),) + tuple(draw(st.integers(0, 99)) for _ in range(3))
    return perturb(choice, c)


@st.composite
def graph_covers(draw):
    """Voltage covers of degree 1-4 over connected graphs, with arbitrary voltages on the non-tree edges."""
    K = draw(connected_2_complexes())
    graph = SimplicialComplex.from_facets(K.edges(), vertices=K.vertices)
    return random_voltage_cover(draw, graph, max_degree=4)


class TestDeckGroupMatchesOracle:
    @staticmethod
    def check(cover):
        """On a connected voltage cover the deck group is the centralizer of the voltages, and the search's."""
        if not cover.total.is_connected():
            with pytest.raises(CoverError, match=r"^deck group requires a connected cover$"):
                deck_group(cover)
            return
        d = cover.degree
        oracle = brute_deck_transformations(cover)
        voltages = set(cover.assignment.voltage.values())
        centralizer = [
            p for p in itertools.permutations(range(d)) if all(perm_compose(p, v) == perm_compose(v, p) for v in voltages)
        ]
        regular, group = deck_group(cover)
        assert regular == (len(oracle) == d) == (len(centralizer) == d)
        if regular:
            assert group == deck_permutations(cover, oracle) == centralizer
        else:
            assert group is None

    @settings(max_examples=300)
    @given(graph_covers())
    def test_random_graph_covers(self, cover):
        self.check(cover)

    @settings(max_examples=300)
    @given(voltage_assignments())
    def test_voltage_assignments(self, voltage):
        """2-complexes, with a 3-simplex or not, of degree 1-4."""
        self.check(build_cover(voltage))

    @settings(max_examples=100)
    @given(st.sampled_from(S3), st.sampled_from(S3))
    def test_s3_voltage_covers(self, g, h):
        """Degree 6: two elements of S3 acting by left multiplication, connected exactly when they generate S3."""
        voltages = {(1, 2): left_multiplication(g), (3, 4): left_multiplication(h)}
        self.check(build_cover(VoltageAssignment(wedge_of_two_triangles(), 6, voltages)))

    @settings(max_examples=300)
    @given(perturbed_covers())
    def test_damaged_covers(self, cover):
        """Damaged covers carry no voltages: refused, and by the fibers' own message when they are ill-labelled."""
        try:
            sizes = {len(f) for f in cover.fibers().values()}
        except CoverError as exc:  # an ill-labelled fiber
            message = str(exc)
        else:
            if len(sizes) == 1:
                message = "deck group requires a cover built from voltages"
            else:
                message = "fibers have unequal sizes; no well-defined degree"
        with pytest.raises(CoverError) as info:
            deck_group(cover)
        assert str(info.value) == message

    def test_reads_neither_the_step_table_nor_the_image_check(self, monkeypatch):
        monkeypatch.setattr(covers, "_total_adjacency", lambda c: pytest.fail("step table built"))
        monkeypatch.setattr(covers, "_maps_into", lambda *args: pytest.fail("image check run"))
        assert deck_group(orientation_cover()) == (True, [(0, 1), (1, 0)])
        assert deck_group(s3_left_regular_cover())[0] is True

    def test_degrees_of_fibers_and_voltages_must_agree(self):
        built = c4_double_cover()
        half = VoltageAssignment(built.base, 1)
        cover = CoverComplex(built.total, built.base, built.projection, built.sheet, half)
        with pytest.raises(CoverError, match=r"^fibers hold 2 sheets, but the voltages have degree 1$"):
            deck_group(cover)


class TestVerifyCoveringMatchesStarScan:
    @settings(max_examples=300)
    @given(perturbed_covers())
    def test_random_and_damaged_covers(self, c):
        assert verdict(verify_covering, c) == verdict(scan_verify_covering, c)

    def test_damaged_orientation_covers(self):
        # 600 damaged copies of the sd^1 RP^2 orientation cover, many of each
        # verdict, so the comparison above is not carried by one answer.
        cover = orientation_cover()
        rng = random.Random(8)
        seen = {}
        for _ in range(600):
            choice = (rng.choice(PERTURBATIONS),) + tuple(rng.randrange(1000) for _ in range(3))
            c = perturb(choice, cover)
            got = verdict(verify_covering, c)
            assert got == verdict(scan_verify_covering, c), choice
            seen[got] = seen.get(got, 0) + 1
        assert min(seen[True], seen[False], seen[ComplexError]) >= 50, seen

    @pytest.mark.parametrize(
        "total_facets, base_facets, projection",
        [
            # K5's edges with the pentagram's triangles over K5's edges with the pentagon's:
            # every vertex keeps its neighbours and its simplex count, no star maps onto its image.
            (
                [[1, 2, 4], [2, 3, 5], [1, 3, 4], [2, 4, 5], [1, 3, 5]],
                [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5], [1, 2, 5]],
                {v: v for v in range(1, 6)},
            ),
            # A hollow triangle over a filled one, with four neighbours of its third vertex
            # over one base vertex: the three missing triangle incidences balance the three
            # extra edges, so only counting neighbours against edges rejects it.
            (
                [[0, 1], [1, 2], [0, 2], [2, 3], [2, 4], [2, 5], [2, 6]],
                [[0, 1, 2], [2, 3]],
                {0: 0, 1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 3},
            ),
        ],
    )
    def test_totals_that_balance_across_vertices(self, total_facets, base_facets, projection):
        total, base = SimplicialComplex.from_facets(total_facets), SimplicialComplex.from_facets(base_facets)
        c = CoverComplex(total, base, projection, dict.fromkeys(projection, 0))
        assert scan_verify_covering(c) is False
        assert verify_covering(c) is False

    def test_projection_entries_off_the_total_do_not_reach_the_base(self):
        # The projection also maps ids 7 and 8, which are not total vertices: nothing lies over 2 and 3.
        base = SimplicialComplex.from_facets([[0, 1], [2, 3]])
        total = SimplicialComplex.from_facets([[0, 1]])
        c = CoverComplex(total, base, {0: 0, 1: 1, 7: 2, 8: 3}, {0: 0, 1: 0})
        assert c.fibers()[2] == c.fibers()[3] == {}
        assert verify_covering(c) is False
        assert scan_verify_covering(c) is False

    def test_checks_run_in_order(self):
        # Empty total, then surjectivity, then the base's validity, then the total's.
        cover = c4_double_cover()
        base = SimplicialComplex(cover.base.vertices, set(cover.base.simplices) - {(0,)})
        total = SimplicialComplex(cover.total.vertices | {99}, cover.total.simplices)
        projection = cover.projection | {99: 0}
        cases = [
            (CoverComplex(SimplicialComplex((), ()), base, {}, {}), False),
            (CoverComplex(total, base, projection | {0: 1, 1: 1, 99: 1}, cover.sheet), False),
            (CoverComplex(total, base, projection, cover.sheet), r"missing face \[0\] of simplex \[0, 1\]"),
            (CoverComplex(total, cover.base, projection, cover.sheet), r"vertex 99 has no 0-simplex"),
        ]
        for c, expected in cases:
            for check in (verify_covering, scan_verify_covering):
                if expected is False:
                    assert check(c) is False
                else:
                    with pytest.raises(ComplexError, match=expected):
                        check(c)


class TestConnectivityFromTheTree:
    def test_disconnected_base_rejected(self):
        base = SimplicialComplex.from_facets([[0, 1], [2, 3]])
        with pytest.raises(CoverError, match=r"^voltage base must be connected and nonempty$"):
            VoltageAssignment(base, 2)
        with pytest.raises(CoverError, match=r"^voltage base must be connected and nonempty$"):
            VoltageAssignment(SimplicialComplex((), ()), 2)

    def test_disconnected_base_is_reported_before_a_bad_degree(self):
        base = SimplicialComplex.from_facets([[0, 1], [2, 3]])
        with pytest.raises(CoverError, match="connected"):
            VoltageAssignment(base, 0)

    def test_disconnected_cover_rejected(self):
        cover = build_cover(VoltageAssignment(cycle_complex(4), 2))
        with pytest.raises(CoverError, match=r"^normal generators require a connected cover$"):
            normal_generators(cover)
        with pytest.raises(SigmaError, match=r"^the bound needs a connected cover$"):
            normal_generating_length_bound(cover)


def lift_outcome(lift, c, loop, start_sheet):
    """The lift's answer, or the type and message of the exception it raised."""
    try:
        return lift(c, loop, start_sheet)
    except Exception as exc:  # any type: both lifts must raise the same one
        return type(exc), str(exc)


@st.composite
def base_walks(draw, base):
    """A walk in the base, mostly along edges, sometimes off them or starting off
    the base: walked out and back (closed), closed with one more step, or left open."""
    vertices = sorted(base.vertices)
    stray = [vertices[0] - 1, vertices[-1] + 1]  # not vertices of the base
    adj = base.adjacency()
    walk = [draw(st.sampled_from(vertices + stray[:1]) if draw(st.integers(0, 9)) else st.sampled_from(stray))]
    for _ in range(draw(st.integers(0, 7))):
        nbrs = sorted(adj.get(walk[-1], ()))
        anywhere = st.sampled_from(vertices + stray)
        walk.append(draw(st.sampled_from(nbrs) if nbrs and draw(st.integers(0, 7)) else anywhere))
    ending = draw(st.sampled_from(("out and back", "close", "open")))
    if ending == "out and back":
        return walk + walk[-2::-1]
    return walk + [walk[0]] if ending == "close" else walk


def edge_over_non_edge_cover():
    """The total edge (0, 2) lies over the base non-edge (0, 2) of the path 0 - 1 - 2."""
    total = SimplicialComplex.from_facets([[0, 1], [1, 2], [0, 2]])
    base = SimplicialComplex.from_facets([[0, 1], [1, 2]])
    return CoverComplex(total, base, {t: t for t in range(3)}, dict.fromkeys(range(3), 0))


def edge_over_a_vertex_cover():
    """The total edge (1, 2) lies over the single base vertex 1."""
    total = SimplicialComplex.from_facets([[0, 1], [1, 2]])
    return CoverComplex(total, SimplicialComplex.from_facets([[0, 1]]), {0: 0, 1: 1, 2: 1}, {0: 0, 1: 0, 2: 1})


def colliding_neighbours_cover():
    """Total vertex 0 has two neighbours, 1 and 2, over the same base vertex 1."""
    total = SimplicialComplex.from_facets([[0, 1], [0, 2]])
    return CoverComplex(total, SimplicialComplex.from_facets([[0, 1]]), {0: 0, 1: 1, 2: 1}, {0: 0, 1: 0, 2: 1})


class TestLiftLoopMatchesOracle:
    """``lift_loop`` against the step-by-step checked lift of ``reference_lift_loop``."""

    @staticmethod
    def check(c, loop):
        # every sheet, one off each end, and two that are not ints
        for s in [*range(-1, max(c.sheet.values(), default=-1) + 2), 1.0, "0"]:
            expected = lift_outcome(reference_lift_loop, c, loop, s)
            assert lift_outcome(lift_loop, c, loop, s) == expected, (loop, s)
            assert lift_outcome(lift_loop, c, list(loop), s) == expected, (loop, s)
            assert lift_outcome(lift_loop, c, iter(loop), s) == expected, (loop, s)

    @settings(max_examples=200)
    @given(voltage_assignments(), st.data())
    def test_voltage_covers(self, voltage, data):
        cover = build_cover(voltage)
        for _ in range(5):
            self.check(cover, tuple(data.draw(base_walks(voltage.base))))

    @settings(max_examples=200)
    @given(st.sampled_from(S3), st.sampled_from(S3), st.data())
    def test_s3_voltage_covers(self, g, h, data):
        wedge = wedge_of_two_triangles()
        voltages = {(1, 2): left_multiplication(g), (3, 4): left_multiplication(h)}
        cover = build_cover(VoltageAssignment(wedge, 6, voltages))
        for _ in range(5):
            self.check(cover, tuple(data.draw(base_walks(wedge))))

    @settings(max_examples=200)
    @given(perturbed_covers(), st.data())
    def test_damaged_covers(self, cover, data):
        for _ in range(5):
            self.check(cover, tuple(data.draw(base_walks(cover.base))))

    @pytest.mark.parametrize(
        "make", [broken_square_cover, edge_over_non_edge_cover, edge_over_a_vertex_cover, colliding_neighbours_cover]
    )
    def test_hand_made_non_coverings_on_every_short_walk(self, make):
        cover = make()
        vertices = sorted(cover.base.vertices) + [9]
        for n in range(1, 5):
            for loop in itertools.product(vertices, repeat=n):
                self.check(cover, loop)

    def test_one_lookup_per_step_only_where_every_step_lies_over_a_base_edge(self):
        """The precondition is read once per cover; covers that break it take the checked loop only."""
        rp2 = subdivided_rp2()
        built = [orientation_cover(), c4_double_cover(), s3_left_regular_cover()]
        built.append(double_of_cover(rp2, built[0]))
        for cover, expected in [
            *((c, True) for c in built),
            (broken_square_cover(), True),
            (colliding_neighbours_cover(), True),
            (edge_over_non_edge_cover(), False),
            (edge_over_a_vertex_cover(), False),
        ]:
            lift_loop(cover, [min(cover.base.vertices)], 0)
            assert cover._cache["lift"][-1] is expected, cover


# ---------------------------------------------------------------------------
# Sheet labels: every fiber is labelled one-to-one


def hexagon_over_triangle(sheet=lambda t: t // 3, projection=lambda t: t % 3):
    """The 6-cycle over the hollow triangle, t -> t mod 3: a connected double cover when sheet t is t // 3."""
    total = cycle_complex(6)
    return CoverComplex(
        total, cycle_complex(3), {t: projection(t) for t in range(6)},
        {t: sheet(t) for t in range(6) if sheet(t) is not None},
    )


class TestSheetLabels:
    def test_the_double_cover_of_the_triangle(self):
        cover = hexagon_over_triangle()
        assert verify_covering(cover) and scan_verify_covering(cover)
        assert cover.degree == 2
        assert lift_loop(cover, [0, 1, 2, 0], 0) == (False, 1)
        # Hand-made, so without voltages: the deck group is refused; the built cover and the search agree on it.
        with pytest.raises(CoverError, match=NO_VOLTAGES):
            deck_group(cover)
        built = build_cover(VoltageAssignment(cycle_complex(3), 2, {(1, 2): (1, 0)}))
        searched = deck_permutations(cover, brute_deck_transformations(cover))
        assert deck_group(built) == (True, searched) == (True, [(0, 1), (1, 0)])

    @pytest.mark.parametrize(
        "cover, message",
        [
            (hexagon_over_triangle(sheet=lambda t: 0), "total vertices 0 and 3 share sheet 0 over 0"),
            (hexagon_over_triangle(sheet=lambda t: None if t == 5 else t // 3), "total vertex 5 has no sheet"),
            (hexagon_over_triangle(projection=lambda t: 9 if t == 5 else t % 3),
             "total vertex 5 lies over 9, which is not a base vertex"),
        ],
    )
    def test_ill_labelled_fibers_are_refused(self, cover, message):
        """Such covers can be made, fail the covering check, and are refused by name wherever fibers are read."""
        assert verify_covering(cover) is False and scan_verify_covering(cover) is False
        reads = (
            CoverComplex.fibers, lambda c: c.degree, lambda c: lift_loop(c, [0, 1, 2, 0], 0), deck_group,
            lambda c: double_of_cover(c.base, c),
        )
        for read in reads:
            with pytest.raises(CoverError) as info:
                read(cover)
            assert str(info.value) == message
        assert lift_outcome(reference_lift_loop, cover, [0, 1, 2, 0], 0) == (CoverError, message)

    def test_a_voltage_cover_reads_its_degree_off_the_fibers(self):
        """A built cover with a sheet dropped has no degree, though its voltage data still names one."""
        built = build_cover(VoltageAssignment(cycle_complex(3), 2, {(1, 2): (1, 0)}))
        assert built.degree == 2 == built._cache["degree"]
        sheet = {t: s for t, s in built.sheet.items() if t != 5}
        cover = CoverComplex(built.total, built.base, built.projection, sheet, built.assignment)
        messages = []
        for read in (CoverComplex.fibers, lambda c: c.degree):
            with pytest.raises(CoverError) as info:
                read(cover)
            messages.append(str(info.value))
        assert messages == ["total vertex 5 has no sheet"] * 2


# ---------------------------------------------------------------------------
# The layer-wise image check against the per-simplex scan


@st.composite
def vertex_maps(draw, vertices):
    """A map of the vertices into 0-9: injective or not, order-preserving or not."""
    vertices = sorted(vertices)
    if draw(st.booleans()):
        images = draw(st.lists(st.integers(0, 9), min_size=len(vertices), max_size=len(vertices), unique=True))
    else:
        images = draw(st.lists(st.integers(0, 9), min_size=len(vertices), max_size=len(vertices)))
    if draw(st.booleans()):
        images.sort()
    return dict(zip(vertices, images))


class TestImageCheck:
    @settings(max_examples=300)
    @given(facet_inputs(), st.data())
    def test_matches_the_per_simplex_scan(self, inputs, data):
        K = SimplicialComplex.from_facets(*inputs)
        vmap = data.draw(vertex_maps(K.vertices))
        image = SimplicialComplex.from_facets([[vmap[x] for x in s] for s in K.facets()]).simplices
        target = data.draw(st.sampled_from([K.simplices, image, image - {max(image, default=())}]))
        layers = [K.simplices_of_dim(k) for k in range(K.dimension + 1)]
        assert covers._maps_into(vmap, layers, target) == reference_maps_into(vmap, K.simplices, target)

    @settings(max_examples=200)
    @given(voltage_assignments(), st.randoms(use_true_random=False))
    def test_relabelled_voltage_covers(self, voltage, rng):
        """Relabelled totals make projected and mapped images stop rising, so their layers are sorted."""
        cover = build_cover(voltage)
        n = len(cover.total.vertices)
        relabel = dict(zip(range(n), rng.sample(range(3 * n), n)))
        total = SimplicialComplex.from_facets(
            [[relabel[t] for t in s] for s in cover.total.facets()], vertices=relabel.values()
        )
        inverse = {w: t for t, w in relabel.items()}
        moved = CoverComplex(
            total, cover.base, {w: cover.projection[t] for w, t in inverse.items()},
            {w: cover.sheet[t] for w, t in inverse.items()},
        )
        assert verify_covering(moved) is scan_verify_covering(moved) is True
        if not moved.total.is_connected():
            return
        with pytest.raises(CoverError, match=NO_VOLTAGES):
            deck_group(moved)
        oracle = brute_deck_transformations(moved)
        regular, group = deck_group(cover)
        assert regular == (len(oracle) == moved.degree)
        assert group == (deck_permutations(moved, oracle) if regular else None)

    def test_relabelled_orientation_cover_sorts_its_images(self):
        cover = orientation_cover()
        rng = random.Random(28)
        labels = rng.sample(range(1000), len(cover.total.vertices))
        relabel = dict(zip(sorted(cover.total.vertices), labels))
        total = SimplicialComplex.from_facets([[relabel[t] for t in s] for s in cover.total.facets()])
        back = {w: t for t, w in relabel.items()}
        moved = CoverComplex(
            total, cover.base, {w: cover.projection[t] for w, t in back.items()},
            {w: cover.sheet[t] for w, t in back.items()},
        )
        projected = [[moved.projection[x] for x in s] for s in total.simplices_of_dim(2)]
        assert any(p != sorted(p) for p in projected)
        assert verify_covering(moved)
        with pytest.raises(CoverError, match=NO_VOLTAGES):
            deck_group(moved)
        assert deck_permutations(moved, brute_deck_transformations(moved)) == deck_group(cover)[1] == [(0, 1), (1, 0)]


# ---------------------------------------------------------------------------
# The walk-first lift against the checked reference, on odd arguments


ODD_LOOPS = [[], [0], [0, 1], [0, 1, 0], [0, 1, 2, 3, 0], [0, 2, 0], [9], [9, 0, 9], [0, 9, 0], [0.0, 1.0, 0.0], "00"]
ODD_SHEETS = [-1, 0, 1, 2, 7, 0.0, 1.0, True, 1.5, "0", None, [0]]


@pytest.mark.parametrize(
    "make",
    [c4_double_cover, hexagon_over_triangle, broken_square_cover, edge_over_non_edge_cover,
     edge_over_a_vertex_cover, colliding_neighbours_cover],
)
def test_walk_first_lift_matches_the_reference_on_odd_arguments(make):
    """Tuples, lists and one-shot iterators; empty, unclosed and off-base loops; non-int
    and out-of-range sheets: the answer, or the error's type and message, is the reference's."""
    cover = make()
    for loop in ODD_LOOPS:
        for s in ODD_SHEETS:
            expected = lift_outcome(reference_lift_loop, cover, loop, s)
            for form in (tuple, list, iter):
                assert lift_outcome(lift_loop, cover, form(loop), s) == expected, (loop, s, form)


# ---------------------------------------------------------------------------
# Layers handed over at construction against a raw copy, which buckets its own


def assert_layers_match_a_raw_copy(K):
    """``from_facets``, ``build_cover`` and ``spherical_double`` hand their sorted layers to the complex:
    every dimension's simplices, the dimension, the f-vector and the facets are the raw copy's."""
    assert "by_dim" in K._cache  # handed over, not bucketed on first use
    raw = SimplicialComplex(K.vertices, K.simplices)
    assert K.f_vector() == raw.f_vector()  # layer lengths against the raw copy's counted sizes
    assert K.facets() == raw.facets()  # the raw copy is neither recorded valid nor pure: the checked scan
    assert K.dimension == raw.dimension
    for k in range(-1, K.dimension + 2):
        layer = K.simplices_of_dim(k)
        assert layer == raw.simplices_of_dim(k)
        assert all(map(operator.lt, layer, layer[1:]))  # strictly increasing, so no simplex twice
        assert all(len(s) == k + 1 and all(map(operator.lt, s, s[1:])) for s in layer)


class TestHandedOverLayers:
    @given(facet_inputs())
    def test_from_facets(self, args):
        assert_layers_match_a_raw_copy(SimplicialComplex.from_facets(*args))

    @settings(max_examples=150)
    @given(voltage_assignments())
    def test_covers_their_doubles_and_the_doubled_cover(self, voltage):
        cover = build_cover(voltage)
        doubled = double_of_cover(voltage.base, cover)
        for K in (voltage.base, cover.total, spherical_double(cover.total).complex, doubled.total, doubled.base):
            assert_layers_match_a_raw_copy(K)

    @pytest.mark.parametrize("make", [s3_left_regular_cover, orientation_cover, c4_double_cover])
    def test_fixed_covers_and_their_doubles(self, make):
        cover = make()
        doubled = double_of_cover(cover.base, cover)
        for K in (cover.total, doubled.total, doubled.base):  # the orientation cover's base is raw-built
            assert_layers_match_a_raw_copy(K)
