import pytest
from hypothesis import given

from fpforge.complex_core import ComplexError, SimplicialComplex, is_flag, validate
from fpforge.spherical_double import retract_word, spherical_double

from helpers import all_complexes_on, brute_join_double, facet_inputs, reference_facets


def cycle_complex(n):
    return SimplicialComplex.from_facets([[i, (i + 1) % n] for i in range(n)])


class TestSphericalDouble:
    def test_point_doubles_to_two_points(self):
        d = spherical_double(SimplicialComplex.from_facets([[5]]))
        assert d.complex.f_vector() == (2,)
        assert d.complex.vertices == frozenset({10, 11})

    def test_edge_doubles_to_4_cycle(self):
        d = spherical_double(SimplicialComplex.from_facets([[0, 1]]))
        assert d.complex.f_vector() == (4, 4)
        assert d.complex.is_connected()
        assert all(len(d.complex.adjacency()[v]) == 2 for v in d.complex.vertices)
        # no edge joins the two copies of one base vertex
        for v in (0, 1):
            assert not d.complex.has_simplex((2 * v, 2 * v + 1))

    def test_full_2_simplex_doubles_to_octahedron(self):
        d = spherical_double(SimplicialComplex.from_facets([[0, 1, 2]]))
        assert d.complex.f_vector() == (6, 12, 8)

    def test_matches_join_enumeration_oracle(self):
        for facets in ([[0, 1, 2]], [[0, 1], [1, 2], [3]], [[0, 1, 2], [2, 3]]):
            K = SimplicialComplex.from_facets(facets)
            d = spherical_double(K)
            assert d.complex.simplices == frozenset(brute_join_double(K))
            assert validate(d.complex) == []  # recorded as valid without a scan, so check it here

    def test_simplex_counts_double_per_dimension(self):
        K = SimplicialComplex.from_facets([[0, 1, 2], [2, 3], [4]])
        d = spherical_double(K)
        for k in range(K.dimension + 1):
            expected = len(K.simplices_of_dim(k)) * 2 ** (k + 1)
            assert len(d.complex.simplices_of_dim(k)) == expected

    def test_plus_copy_is_isomorphic_to_base(self):
        K = SimplicialComplex.from_facets([[0, 1, 2], [2, 3]])
        d = spherical_double(K)
        plus = {tuple(2 * v for v in s) for s in K.simplices}
        assert plus <= set(d.complex.simplices)

    def test_flag_law_exhaustive_small(self):
        for family in all_complexes_on(4):
            K = SimplicialComplex(
                {v for s in family for v in s}, family
            )
            d = spherical_double(K)
            assert is_flag(d.complex) == is_flag(K)
            assert validate(d.complex) == []


class TestDoublePurity:
    @given(facet_inputs(max_size=3))
    def test_facets_match_the_reference_and_purity_passes_on(self, args):
        K = SimplicialComplex.from_facets(*args)
        d = spherical_double(K).complex
        assert ("pure" in d._cache) == ("pure" in K._cache)
        assert d.facets() == reference_facets(d)

    def test_a_dangling_edge_keeps_the_double_unflagged(self):
        K = SimplicialComplex.from_facets([[0, 1, 2], [2, 3]])
        d = spherical_double(K).complex
        assert "pure" not in d._cache and len(d.facets()) == 8 + 4
        assert spherical_double(SimplicialComplex.from_facets([[0, 1, 2]])).complex._cache["pure"] == 3


class TestRetractWord:
    def test_path_projects_by_sign_collapse(self):
        d = spherical_double(SimplicialComplex.from_facets([[1, 2]]))
        # plus copy of 1, minus of 2, minus of 1
        assert retract_word(d, [2, 5, 3]) == [1, 2, 1]

    def test_empty_path(self):
        d = spherical_double(SimplicialComplex.from_facets([[1, 2]]))
        assert retract_word(d, []) == []

    def test_4_cycle_loop_retracts_to_alternating_loop(self):
        d = spherical_double(SimplicialComplex.from_facets([[1, 2]]))
        loops = [
            [2, 4, 3, 5, 2],  # 1+, 2+, 1-, 2-, 1+
        ]
        for loop in loops:
            image = retract_word(d, loop)
            assert len(image) == len(loop)
            assert image[0] == image[-1]
            assert all(a != b for a, b in zip(image, image[1:]))

    def test_invalid_path_rejected(self):
        d = spherical_double(SimplicialComplex.from_facets([[1, 2]]))
        with pytest.raises(ComplexError):
            retract_word(d, [2, 3])  # 1+ to 1-: not an edge

    def test_retraction_is_simplicial_and_surjective(self):
        K = SimplicialComplex.from_facets([[0, 1, 2], [2, 3]])
        d = spherical_double(K)
        for s in d.complex.simplices:
            image = tuple(sorted({d.retraction(v) for v in s}))
            assert image in K.simplices
            assert len(image) == len(s)
        assert {d.retraction(v) for v in d.complex.vertices} == set(K.vertices)
