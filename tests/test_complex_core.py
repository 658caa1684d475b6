import json
import random
from collections import OrderedDict
from enum import IntEnum
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpforge import complex_core
from fpforge.complex_core import (
    ComplexError,
    FormatError,
    GroupPresentationInput,
    SimplicialComplex,
    _json_text,
    barycentric_subdivision,
    dump_complex,
    flagify_presentation_complex,
    has_no_local_cut_points,
    is_flag,
    link,
    spanning_tree,
    validate,
)
from fpforge.homology import RingSpec, reduced_homology

from helpers import (
    RP2_FACETS,
    brute_chain_count,
    brute_flag,
    brute_link,
    facet_inputs,
    recorded_pure,
    reference_facets,
    reference_flagify_presentation_complex,
    reference_from_facets,
    small_presentations,
)

OCTAHEDRON = [[0, 2, 4], [0, 2, 5], [0, 3, 4], [0, 3, 5], [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5]]


def full_simplex(n):
    return SimplicialComplex.from_facets([list(range(n))])


def cycle_complex(n):
    return SimplicialComplex.from_facets([[i, (i + 1) % n] for i in range(n)])


def random_complex(rng, max_vertices=6):
    n = rng.randint(1, max_vertices)
    facets = []
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(1, min(3, n))
        facets.append(rng.sample(range(n), size))
    return SimplicialComplex.from_facets(facets)


# Reference scans: the whole-complex bodies of facets, link and is_flag from
# before the coface index, kept to check the indexed versions.


def scan_facets(K):
    verts = sorted(K.vertices)
    out = []
    for s in K.simplices:
        sset = set(s)
        if any(tuple(sorted(sset | {v})) in K.simplices for v in verts if v not in sset):
            continue
        out.append(s)
    return sorted(out)


def scan_link(K, s):
    sset = set(s)
    faces = [tuple(v for v in t if v not in sset) for t in K.simplices if sset.issubset(t) and len(t) > len(s)]
    return SimplicialComplex({v for f in faces for v in f}, faces)


def scan_is_flag(K):
    verts = sorted(K.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    adj = {v: 0 for v in verts}
    for u, w in K.simplices_of_dim(1):
        adj[u] |= 1 << pos[w]
        adj[w] |= 1 << pos[u]
    masks = {sum(1 << pos[v] for v in s) for s in K.simplices}
    for s in K.simplices:
        if len(s) < 2:
            continue
        m = sum(1 << pos[v] for v in s)
        for v in verts:
            b = 1 << pos[v]
            if not m & b and adj[v] & m == m and (m | b) not in masks:
                return False
    return True


@st.composite
def facet_complexes(draw):
    """Up to 10 random facets of up to 5 vertices on at most 8 vertices."""
    n = draw(st.integers(1, 8))
    facet = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 5), unique=True)
    return SimplicialComplex.from_facets(draw(st.lists(facet, min_size=1, max_size=10)))


@st.composite
def raw_complexes(draw):
    """Unvalidated complexes: a random subset of a valid one's simplices, a few
    unsorted or repeated tuples, and an unrelated vertex set."""
    simps = sorted(draw(facet_complexes()).simplices)
    keep = draw(st.lists(st.booleans(), min_size=len(simps), max_size=len(simps)))
    extra = draw(st.lists(st.lists(st.integers(0, 8), max_size=4).map(tuple), max_size=4))
    verts = draw(st.sets(st.integers(0, 8), max_size=9))
    return SimplicialComplex(verts, [s for s, k in zip(simps, keep) if k] + extra)


class TestCofaceIndex:
    @given(facet_complexes())
    def test_predicates_match_reference_scans(self, K):
        assert K.facets() == scan_facets(K)
        assert is_flag(K) == scan_is_flag(K)
        for s in K.simplices:
            assert link(K, s) == scan_link(K, s)

    @given(raw_complexes())
    def test_unvalidated_complexes_match_reference_scans(self, K):
        assert K.facets() == scan_facets(K)
        for s in K.simplices:
            if s and s == tuple(sorted(set(s))):
                assert link(K, s) == scan_link(K, s)
        if validate(K):
            with pytest.raises(ComplexError):
                is_flag(K)

    def test_cached_facets_are_not_shared_with_callers(self):
        K = full_simplex(3)
        K.facets().append((9,))
        assert K.facets() == [(0, 1, 2)]

    def test_cached_edge_lists_are_read_only(self):
        K = SimplicialComplex.from_facets([[0, 1], [1, 2]])
        with pytest.raises(AttributeError):
            K.edges().append((0, 9))
        assert K.edges() == ((0, 1), (1, 2))
        assert K.adjacency() == {0: {1}, 1: {0, 2}, 2: {1}}

    def test_coface_index_and_adjacency_are_read_only(self):
        K = full_simplex(3)
        cofaces = dict(K.cofaces())
        for attempt in (
            lambda: K.cofaces()[0].clear(),
            lambda: K.cofaces().pop(0),
            lambda: K.adjacency()[0].clear(),
            lambda: K.adjacency().__setitem__(0, set()),
        ):
            with pytest.raises((AttributeError, TypeError)):
                attempt()
        assert K.cofaces() == cofaces and sorted(cofaces[0]) == [(0,), (0, 1), (0, 1, 2), (0, 2)]
        assert K.adjacency() == {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}

    def test_validity_is_checked_once_per_instance(self, monkeypatch):
        calls = []
        real = complex_core.validate
        monkeypatch.setattr(complex_core, "validate", lambda K: calls.append(K) or real(K))
        K = full_simplex(3)
        is_flag(K)
        barycentric_subdivision(K)
        assert calls == []  # from_facets records that its output is valid
        K = SimplicialComplex(K.vertices, K.simplices)
        is_flag(K)
        is_flag(K)
        barycentric_subdivision(K)
        assert len(calls) == 1
        broken = SimplicialComplex([1, 2, 3], [(1,), (2,), (3,), (1, 2, 3)])
        for _ in range(2):
            with pytest.raises(ComplexError):
                is_flag(broken)
        assert len(calls) == 3


class TestValidate:
    def test_full_2_simplex_is_valid(self):
        assert validate(full_simplex(3)) == []

    @given(
        st.lists(st.lists(st.integers(-4, 9), min_size=1, max_size=5), max_size=8),
        st.lists(st.integers(-4, 12), max_size=4),
    )
    def test_from_facets_output_is_valid(self, facets, vertices):
        K = SimplicialComplex.from_facets(facets, vertices)
        assert validate(K) == []
        assert K.vertices == {v for f in facets for v in f} | set(vertices)

    def test_missing_face_reported(self):
        broken = SimplicialComplex([1, 2, 3], [(1,), (2,), (3,), (1, 2, 3)])
        report = validate(broken)
        assert any("missing face" in r for r in report)

    def test_unsorted_simplex_reported(self):
        broken = SimplicialComplex([1, 2], [(1,), (2,), (2, 1)])
        assert any("ordering" in r for r in validate(broken))

    def test_unknown_vertex_reported(self):
        broken = SimplicialComplex([1], [(1,), (2,)])
        report = validate(broken)
        assert any("missing from vertex set" in r for r in report)


class TestFlag:
    def test_empty_3_cycle_not_flag(self):
        assert is_flag(cycle_complex(3)) is False

    def test_full_2_simplex_flag(self):
        assert is_flag(full_simplex(3)) is True

    def test_4_cycle_flag(self):
        assert is_flag(cycle_complex(4)) is True

    def test_matches_brute_force_on_random_complexes(self):
        rng = random.Random(7)
        for _ in range(60):
            K = random_complex(rng)
            assert is_flag(K) == brute_flag(K)

    def test_rejects_invalid(self):
        broken = SimplicialComplex([1, 2, 3], [(1,), (2,), (3,), (1, 2, 3)])
        with pytest.raises(ComplexError):
            is_flag(broken)


class TestLink:
    def test_link_of_vertex_in_triangle_is_edge(self):
        lk = link(full_simplex(3), (0,))
        assert lk.f_vector() == (2, 1)

    def test_link_of_edge_in_triangle_is_point(self):
        lk = link(full_simplex(3), (0, 1))
        assert lk.f_vector() == (1,)

    def test_octahedron_vertex_link_is_4_cycle(self):
        K = SimplicialComplex.from_facets(OCTAHEDRON)
        expected = brute_link(K, (0,))
        lk = link(K, (0,))
        assert lk.simplices == frozenset(expected)
        assert lk.f_vector() == (4, 4)
        assert lk.is_connected()
        assert all(len(lk.adjacency()[v]) == 2 for v in lk.vertices)

    def test_absent_simplex_rejected(self):
        with pytest.raises(ComplexError):
            link(cycle_complex(4), (0, 2))

    def test_link_in_flag_complex_is_flag(self):
        rng = random.Random(3)
        for _ in range(40):
            K = random_complex(rng)
            if not is_flag(K):
                continue
            for v in sorted(K.vertices):
                lk = link(K, (v,))
                if lk.vertices:
                    assert is_flag(lk)


class TestBarycentric:
    def test_one_edge_becomes_path(self):
        K = SimplicialComplex.from_facets([[0, 1]])
        sd = barycentric_subdivision(K)
        assert sd.f_vector() == (3, 2)

    def test_empty_3_cycle_becomes_6_cycle(self):
        sd = barycentric_subdivision(cycle_complex(3))
        assert sd.f_vector() == (6, 6)
        assert sd.is_connected()
        assert all(len(sd.adjacency()[v]) == 2 for v in sd.vertices)

    def test_full_2_simplex_counts_match_chain_oracle(self):
        K = full_simplex(3)
        counts = brute_chain_count(K)
        assert (counts[1], counts[2], counts[3]) == (7, 12, 6)
        sd = barycentric_subdivision(K)
        assert sd.f_vector() == (7, 12, 6)

    def test_subdivision_always_flag_and_euler_preserved(self):
        rng = random.Random(11)
        for _ in range(40):
            K = random_complex(rng)
            sd = barycentric_subdivision(K)
            assert is_flag(sd)
            assert sd.euler_characteristic() == K.euler_characteristic()


class TestFlagify:
    def test_single_relator_kills_generator(self):
        K = flagify_presentation_complex(GroupPresentationInput(1, [[1]]))
        assert is_flag(K)
        summary = reduced_homology(K, RingSpec.Z())
        assert summary.rank(1) == 0 and summary.torsion_in(1) == ()

    def test_squared_relator_gives_two_torsion(self):
        K = flagify_presentation_complex(GroupPresentationInput(1, [[1, 1]]))
        assert is_flag(K)
        summary = reduced_homology(K, RingSpec.Z())
        assert summary.rank(1) == 0 and summary.torsion_in(1) == (2,)

    def test_commutator_gives_rank_two(self):
        K = flagify_presentation_complex(GroupPresentationInput(2, [[1, 2, -1, -2]]))
        assert is_flag(K)
        summary = reduced_homology(K, RingSpec.Z())
        assert summary.rank(1) == 2 and summary.torsion_in(1) == ()

    def test_free_group_and_empty_relator(self):
        K = flagify_presentation_complex(GroupPresentationInput(2, [[]]))
        summary = reduced_homology(K, RingSpec.Z())
        assert summary.rank(1) == 2

    def test_first_homology_matches_presentation_abelianization(self):
        from fpforge.groups import Presentation, Word, abelianization

        cases = [
            (1, [[1, 1, 1]]),  # Z/3
            (2, [[1, 1], [2, 2, 2]]),  # Z/2 + Z/3 = Z/6
            (2, [[1, 2, -1, -2]]),  # Z^2
            (3, [[1, 2, 3]]),  # Z^2
        ]
        for gens, rels in cases:
            K = flagify_presentation_complex(GroupPresentationInput(gens, rels))
            summary = reduced_homology(K, RingSpec.Z())
            pres = Presentation([f"x{i}" for i in range(gens)], [Word(r) for r in rels])
            ab = abelianization(pres)
            assert summary.rank(1) == ab.free_rank
            assert summary.torsion_in(1) == ab.factors

    def test_unreduced_relator_rejected(self):
        with pytest.raises(ComplexError):
            GroupPresentationInput(1, [[1, -1]])

    @pytest.mark.parametrize("gens, rels", [(1, [[1, 1]]), (2, [[1, 2, -1, -2]]), (1, [[1] * 15]), (2, [[]])])
    def test_one_more_subdivision_gives_the_two_subdivision_oracle(self, gens, rels):
        p = GroupPresentationInput(gens, rels)
        K = barycentric_subdivision(flagify_presentation_complex(p))
        R = reference_flagify_presentation_complex(p)
        assert (K.vertices, K.simplices) == (R.vertices, R.simplices)

    @settings(max_examples=25, deadline=None)
    @given(small_presentations())
    def test_one_subdivision_matches_the_oracle(self, p):
        K = flagify_presentation_complex(p)
        R = reference_flagify_presentation_complex(p)
        assert is_flag(K)
        for ring in (RingSpec.Z(), RingSpec.Fp(2), RingSpec.Fp(3)):
            assert reduced_homology(K, ring) == reduced_homology(R, ring)
        assert has_no_local_cut_points(K) == has_no_local_cut_points(R)
        sd = barycentric_subdivision(K)
        assert (sd.vertices, sd.simplices) == (R.vertices, R.simplices)

    def test_out_of_range_letter_rejected(self):
        with pytest.raises(ComplexError):
            GroupPresentationInput(1, [[2]])


class TestLocalCutPoints:
    def test_wedge_of_triangles_fails(self):
        K = SimplicialComplex.from_facets([[0, 1, 2], [0, 3, 4]])
        assert has_no_local_cut_points(K) is False

    def test_4_cycle_fails_on_free_edges(self):
        assert has_no_local_cut_points(cycle_complex(4)) is False

    def test_octahedron_passes(self):
        assert has_no_local_cut_points(SimplicialComplex.from_facets(OCTAHEDRON)) is True

    def test_subdivided_projective_plane_passes(self):
        K = barycentric_subdivision(SimplicialComplex.from_facets(RP2_FACETS))
        assert has_no_local_cut_points(K) is True

    def test_dimension_above_two_rejected(self):
        with pytest.raises(ComplexError, match="unsupported dimension"):
            has_no_local_cut_points(full_simplex(4))


class TestJsonAndTree:
    def test_round_trip(self):
        K = SimplicialComplex.from_facets([[0, 1, 2], [2, 3]], vertices=[9])
        data = K.to_json_dict()
        K2 = SimplicialComplex.from_json_dict(data)
        assert K2 == K
        assert dump_complex(K2) == dump_complex(K)

    @given(facet_inputs())
    def test_facets_are_handed_to_the_writer_as_tuples(self, args):
        K = SimplicialComplex.from_facets(*args)
        data = K.to_json_dict()
        assert data["facets"] == K.facets() and all(type(f) is tuple for f in data["facets"])
        listed = {"vertices": sorted(K.vertices), "facets": [list(f) for f in K.facets()]}
        assert dump_complex(K) == json.dumps(listed, sort_keys=True, indent=2) + "\n"
        assert SimplicialComplex.from_json_dict(data) == K == SimplicialComplex.from_json_dict(listed)

    def test_loader_closes_downward(self):
        K = SimplicialComplex.from_json_dict({"vertices": [], "facets": [[0, 1, 2]]})
        assert (0, 1) in K.simplices and (2,) in K.simplices

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"facets": 5}, "$.facets: expected an array, got an integer"),
            ([[0, 1]], "$: expected an object, got an array"),
            ({"facets": [[0, "1"]]}, "$.facets[0][1]: expected an integer, got a string"),
            ({"facets": [], "vertices": [True]}, "$.vertices[0]: expected an integer, got a boolean"),
        ],
    )
    def test_malformed_json_names_the_path(self, data, path):
        with pytest.raises(FormatError) as info:
            SimplicialComplex.from_json_dict(data)
        assert str(info.value) == path

    def test_spanning_tree_properties(self):
        K = SimplicialComplex.from_facets(OCTAHEDRON)
        tree = spanning_tree(K)
        assert len(tree) == len(K.vertices) - 1
        probe = SimplicialComplex.from_facets(list(tree), K.vertices)
        assert probe.is_connected()

    def test_spanning_tree_rejects_disconnected(self):
        K = SimplicialComplex.from_facets([[0, 1], [2, 3]])
        with pytest.raises(ComplexError):
            spanning_tree(K)


class TestLayeredClosure:
    @given(
        st.lists(st.lists(st.integers(-3, 8), max_size=5).map(tuple), max_size=10),
        st.lists(st.integers(-3, 10), max_size=4),
    )
    def test_from_facets_matches_the_subset_closure(self, facets, vertices):
        """Duplicate, unsorted, non-maximal and repeated-vertex facets; an empty one is refused."""
        if () in facets:
            for build in (SimplicialComplex.from_facets, reference_from_facets):
                with pytest.raises(ComplexError, match="^empty facet$"):
                    build(facets, vertices)
            return
        K = SimplicialComplex.from_facets(iter(facets), vertices)
        R = reference_from_facets(facets, vertices)
        assert (K.vertices, K.simplices) == (R.vertices, R.simplices)
        assert validate(K) == [] and K._cache["valid"]
        assert K.facets() == reference_facets(K)
        unvalidated = SimplicialComplex(K.vertices, K.simplices)  # the same complex, not known valid
        assert "valid" not in unvalidated._cache and unvalidated.facets() == reference_facets(K)

    @given(st.one_of(raw_complexes(), facet_complexes()))
    def test_f_vector_counts_as_the_sorted_dimensions(self, K):
        assert K.f_vector() == tuple(len(K.simplices_of_dim(k)) for k in range(K.dimension + 1))


class TestRecordedPurity:
    @given(facet_inputs())
    def test_facets_match_the_reference_and_purity_is_recorded_exactly(self, args):
        K = SimplicialComplex.from_facets(*args)
        assert ("pure" in K._cache) == recorded_pure(*args)
        assert K.facets() == reference_facets(K)
        if "pure" in K._cache:
            assert {len(f) for f in K.facets()} <= {K._cache["pure"]}
        layered = SimplicialComplex.from_facets(*args)
        layered.simplices_of_dim(0)  # the cached layers, so facets come from the top one
        assert layered.facets() == K.facets()
        raw = SimplicialComplex(K.vertices, K.simplices)
        assert raw.facets() == K.facets() and "pure" not in raw._cache

    def test_empty_input_is_pure_with_no_facets(self):
        K = SimplicialComplex.from_facets([])
        assert K._cache["pure"] == 0 and K.facets() == []

    @given(facet_inputs(max_size=3))
    def test_subdivision_is_recorded_valid_and_keeps_purity(self, args):
        K = SimplicialComplex.from_facets(*args)
        sd = barycentric_subdivision(K)
        assert sd._cache["valid"] and validate(sd) == []
        assert ("pure" in sd._cache) == ("pure" in K._cache)
        assert sd.facets() == reference_facets(sd)
        if "pure" in sd._cache:
            assert {len(f) for f in sd.facets()} <= {sd._cache["pure"]}


class TestClosureCap:
    @given(facet_inputs(max_size=5), st.integers(0, 120))
    def test_facets_over_the_cap_are_refused_and_others_close_as_before(self, args, cap):
        facets, vertices = args
        bound = sum(2 ** len(f) - 1 for f in {tuple(sorted(set(f))) for f in facets})
        with mock.patch.object(complex_core, "_CLOSURE_CAP", cap):
            if bound > cap:
                with pytest.raises(ComplexError, match=f"^facets may close to {bound} simplices .* cap of {cap} "):
                    SimplicialComplex.from_facets(facets, vertices)
                return
            K = SimplicialComplex.from_facets(facets, vertices)
        R = reference_from_facets(facets, vertices)
        assert (K.vertices, K.simplices) == (R.vertices, R.simplices)

    def test_huge_bounds_are_named_by_their_power_of_two(self):
        with pytest.raises(ComplexError, match=r"^facets may close to more than 2\^99 simplices .* of 16777216 \(2\^24\)$"):
            SimplicialComplex.from_facets([range(100)])
        with pytest.raises(ComplexError, match="^facets may close to 1099511627775 simplices"):
            SimplicialComplex.from_facets([range(40)])

    def test_the_cap_admits_the_flagified_a_105_complex(self):
        p = GroupPresentationInput(1, [[1] * 105])
        R = reference_flagify_presentation_complex(p)  # twice subdivided, as flagify was
        bound = sum(2 ** len(f) - 1 for f in R.facets())
        assert 200_000 < bound < complex_core._CLOSURE_CAP // 16
        assert SimplicialComplex.from_facets(R.facets()) == R
        K = flagify_presentation_complex(p)
        # The 945 cone and collar triangles (the generator edges lie in them) split into 6 triangles each,
        # and a triangle closes to 7 faces.
        assert sorted(set(map(len, K.facets()))) == [3]
        assert sum(2 ** len(f) - 1 for f in K.facets()) == 7 * 6 * 945 == 39_690
        assert SimplicialComplex.from_facets(K.facets()) == K


class Count(IntEnum):
    ONE = 1


class Name(str):
    pass


JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(10**30, 10**40),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
    st.sampled_from([Count.ONE, Name("x\ny")]),
)


WIDE_INTS = st.one_of(st.integers(), st.integers(2**64, 2**80), st.integers(-(2**80), -(2**64)))


@st.composite
def _int_grids(draw, children):
    """Arrays of equal-length arrays (lists or tuples) of exact ints, the shape of a facet list, sometimes
    spoiled by a ragged or empty row, a row that is another value, or a bool or IntEnum item."""
    n = draw(st.integers(0, 4))
    row = st.lists(WIDE_INTS, min_size=n, max_size=n)
    rows = draw(st.lists(row | row.map(tuple), max_size=4))
    spoil = draw(st.sampled_from(["none", "none", "ragged", "empty", "child", "item"]))
    if rows and spoil == "ragged":
        rows.insert(draw(st.integers(0, len(rows))), draw(st.lists(WIDE_INTS, max_size=5)))
    elif spoil == "empty":
        rows.append(())
    elif rows and spoil == "child":
        rows[draw(st.integers(0, len(rows) - 1))] = draw(children)
    elif rows and n and spoil == "item":
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = list(rows[i])
        rows[i][draw(st.integers(0, n - 1))] = draw(st.sampled_from([True, False, Count.ONE]))
    return tuple(rows) if draw(st.booleans()) else rows


def _json_containers(children):
    return st.one_of(
        _int_grids(children),
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(st.integers(-5, 5), children, max_size=3),
        st.dictionaries(st.floats(allow_nan=False), children, max_size=2),
        st.dictionaries(st.text(max_size=2), children, max_size=2).map(OrderedDict),
    )


class TestJsonText:
    @given(st.recursive(JSON_LEAVES, _json_containers, max_leaves=20))
    def test_equals_the_stdlib_indented_encoder(self, value):
        assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("value", [{1: 2, "a": 3}, [{(1, 2): 0}], [1, {2, 3}]])
    def test_unencodable_values_raise_as_in_json(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _json_text(value)
