import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fpforge import homology
from fpforge.complex_core import (
    ComplexError, GroupPresentationInput, SimplicialComplex, barycentric_subdivision, flagify_presentation_complex,
    validate,
)
from fpforge.homology import (
    HomologySummary,
    RingSpec,
    _check_composition_zero,
    _MR_LIMIT,
    _is_prime,
    _spanning_forest,
    _sparse_invariant_factors,
    chain_complex,
    dump_summary,
    field_summary_from_integral,
    load_summary,
    reduced_homology,
    smith_normal_form,
    snf_diagonal,
)

from helpers import (
    RP2_FACETS, boundary_dense, determinant, field_betti_numbers, field_rank, invariant_factors, kernel_rows, matmul,
    minor_gcd_invariants, reference_boundaries, reference_composition_zero, reference_faces,
)


def cycle_complex(n):
    return SimplicialComplex.from_facets([[i, (i + 1) % n] for i in range(n)])


def random_complex(rng, max_vertices=8):
    n = rng.randint(1, max_vertices)
    facets = [rng.sample(range(n), rng.randint(1, min(4, n))) for _ in range(rng.randint(1, 7))]
    return SimplicialComplex.from_facets(facets)


@st.composite
def sparse_matrices(draw):
    """Mostly-zero integer matrices up to 12x12 as (entries, dense)."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    cells = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-4, 4))
    dense = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        dense[i] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in dense:
            row[j] = 0
    entries = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}
    return entries, dense


@st.composite
def dual_graph_matrices(draw):
    """Rows of one to three entries in {+-1, +-2} on at most six columns, as (entries, dense).

    Most rows have two entries, so phase 1 of the sparse kernel links columns
    along long chains, and with so few columns many rows read through one
    union-find class (a dual cycle) and cancel to 0 or +-2.
    """
    m = draw(st.integers(1, 14))
    n = draw(st.integers(1, 6))
    dense = [[0] * n for _ in range(m)]
    for row in dense:
        size = draw(st.sampled_from([1, 2, 2, 2, 2, 3]))
        for j in draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=size)):
            row[j] = draw(st.sampled_from([1, -1, 1, -1, 2, -2]))
    entries = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}
    return entries, dense


@st.composite
def unitless_matrices(draw):
    """Integer matrices up to 8x8 with no entry +-1, as (entries, dense); half of them diagonal.

    Diagonals such as (2, 3) or many 2s reach the end of the kernel as they
    are, so their invariant factors come from pooling alone.
    """
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    cells = st.sampled_from([0, 0, 0, 2, -2, 3, 4, -4, 6, -6, 9, 10, 12, 15])
    if draw(st.booleans()):
        dense = [[draw(cells) if i == j else 0 for j in range(n)] for i in range(m)]
    else:
        dense = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=m, max_size=m))
    entries = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}
    return entries, dense


def diagonal(*values):
    """A diagonal matrix as (entries, dense)."""
    dense = [[values[i] if i == j else 0 for j in range(len(values))] for i in range(len(values))]
    return {(i, i): v for i, v in enumerate(values) if v}, dense


def wedge_of_sd_rp2(m):
    """m copies of sd RP^2 sharing one vertex: H~1 = (Z/2)^m, one +-2 row per copy after the forest phase."""
    sd = barycentric_subdivision(SimplicialComplex.from_facets(RP2_FACETS))
    index = {v: i for i, v in enumerate(sorted(sd.vertices))}
    n = len(index)
    return SimplicialComplex.from_facets(
        [[j * n + index[v] if index[v] else 0 for v in f] for j in range(m) for f in sd.simplices_of_dim(2)]
    )


def klein_bottle():
    """The 3x3 grid with its ends glued straight and its sides glued with a flip."""

    def v(i, j):
        if i == 3:
            i, j = 0, -j
        return 3 * i + j % 3

    squares = [(v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)) for i in range(3) for j in range(3)]
    return SimplicialComplex.from_facets([t for a, b, c, d in squares for t in ((a, b, d), (a, c, d))])


def heap_inputs(monkeypatch):
    """Record the rows each call of the heap phase receives."""
    seen = []
    heap = homology._least_entry_factors

    def spy(rows):
        seen.append({r: dict(row) for r, row in rows.items()})
        return heap(rows)

    monkeypatch.setattr(homology, "_least_entry_factors", spy)
    return seen


@st.composite
def complexes(draw):
    """Complexes of dimension up to 3 on up to 9 vertices, often disconnected, with isolated vertices."""
    n = draw(st.integers(0, 9))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), max_size=8)) if n else []
    return SimplicialComplex.from_facets(facets, vertices=range(n))


@st.composite
def corrupted_complexes(draw):
    """A valid complex with one face deleted, one simplex stored out of order, or one 0-simplex dropped."""
    K = draw(complexes().filter(lambda K: K.dimension >= 1))
    simplices = set(K.simplices)
    kind = draw(st.sampled_from(["deleted face", "out of order", "no 0-simplex"]))
    if kind == "deleted face":
        proper_faces = sorted({s[:i] + s[i + 1 :] for s in simplices if len(s) > 1 for i in range(len(s))})
        simplices.discard(draw(st.sampled_from(proper_faces)))
    elif kind == "out of order":
        s = draw(st.sampled_from(sorted(s for s in simplices if len(s) > 1)))
        simplices.discard(s)
        simplices.add(s[::-1])
    else:
        simplices.discard((draw(st.sampled_from(sorted(K.vertices))),))
    return SimplicialComplex(K.vertices, simplices)


def full_kernel_homology(K):
    """Reference reduced integral homology: every boundary, forest rows included, goes through the sparse kernel."""
    cx = chain_complex(K)
    dim = cx.dimension
    if dim < 0:
        return HomologySummary(RingSpec.Z(), (), ())
    factors = [[]] + [_sparse_invariant_factors(kernel_rows(cx.boundaries[k])) for k in range(1, dim + 1)] + [[]]
    ranks = tuple(len(cx.bases[k]) - len(factors[k]) - len(factors[k + 1]) - (k == 0) for k in range(dim + 1))
    torsion = tuple(tuple(d for d in factors[k + 1] if d > 1) for k in range(dim + 1))
    return HomologySummary(RingSpec.Z(), ranks, torsion)


def trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


class TestIsPrime:
    def test_agrees_with_trial_division_below_ten_thousand(self):
        assert [n for n in range(10_000) if _is_prime(n)] == [n for n in range(10_000) if trial_division_is_prime(n)]

    def test_strong_pseudoprimes_rejected(self):
        # 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7;
        # 3825123056546413051 to every prime base up to 23.
        assert not _is_prime(3215031751)
        assert not _is_prime(3825123056546413051)

    def test_large_primes_accepted(self):
        assert _is_prime(10**18 + 9)
        assert _is_prime(2**61 - 1)
        assert not _is_prime((10**9 + 7) * (10**9 + 9))

    def test_refuses_beyond_proven_bound(self):
        with pytest.raises(ValueError):
            _is_prime(3_317_044_064_679_887_385_961_981)


class TestRingSpec:
    def test_parse_and_keys(self):
        assert RingSpec.parse("Z").key == "Z"
        assert RingSpec.parse("Q").key == "Q"
        assert RingSpec.parse("F5") == RingSpec.Fp(5)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            RingSpec.Fp(6)
        with pytest.raises(ValueError):
            RingSpec.parse("F9")

    @pytest.mark.parametrize(
        "text", ["F\u0663", "F\uff13", "F\u00b2", "F 3", "F+3", "F03", "F-3", "Fx", "F", "F3.0", "f3"]
    )
    def test_non_canonical_primes_are_refused(self, text):
        with pytest.raises(ValueError, match=r"cannot parse ring .* \(expected Z, Q, or F<p>\)"):
            RingSpec.parse(text)

    @pytest.mark.parametrize("text", ["F4", "F0", "F1"])
    def test_canonical_non_primes_are_not_prime(self, text):
        with pytest.raises(ValueError, match="is not prime"):
            RingSpec.parse(text)

    def test_keys_past_the_primality_limit_are_not_decided(self):
        # Every key of more than 25 digits is at or above the limit; 5000 digits would pass int()'s 4300-digit cap.
        assert len(str(_MR_LIMIT)) == 25
        for digits in ("1" * 26, str(10**25 + 13)):
            with pytest.raises(ValueError, match=rf"^primality of {digits} is not decided at or above {_MR_LIMIT}$"):
                RingSpec.parse("F" + digits)
        with pytest.raises(ValueError, match=rf"^primality of {'1' * 20}\.\.\. \(5000 digits\) is not decided"):
            RingSpec.parse("F" + "1" * 5000)
        with pytest.raises(ValueError, match=rf"^primality of {_MR_LIMIT} is not decided"):
            RingSpec.parse(f"F{_MR_LIMIT}")
        with pytest.raises(ValueError, match=r"cannot parse ring"):
            RingSpec.parse("F0" + "1" * 5000)

    @pytest.mark.parametrize(
        "make, quoted",
        [
            (lambda: RingSpec.parse("F" + "1" * 5000), "11111111111111111111... (5000 digits)"),
            (lambda: RingSpec.parse("G" + "1" * 5000), "'G1111111111111111111'... (5001 characters)"),
            (lambda: RingSpec.Fp(10**5000), "10000000000000000000... (5001 digits)"),
            (lambda: RingSpec.Fp(-(10**5000)), "-10000000000000000000... (5001 digits) is not prime"),
        ],
        ids=["long-prime-key", "long-unparsed-key", "huge-int", "huge-negative-int"],
    )
    def test_long_keys_and_numbers_are_quoted_briefly(self, make, quoted):
        with pytest.raises(ValueError) as info:
            make()
        assert quoted in str(info.value) and len(str(info.value)) <= 120

    def test_25_digit_keys_below_the_limit_are_decided(self):
        with pytest.raises(ValueError, match=rf"^{_MR_LIMIT - 1} is not prime$"):
            RingSpec.parse(f"F{_MR_LIMIT - 1}")
        p = next(n for n in range(_MR_LIMIT - 2, 0, -2) if _is_prime(n))
        assert len(str(p)) == 25 and RingSpec.parse(f"F{p}") == RingSpec.Fp(p)

    @given(st.one_of(
        st.text(max_size=6),
        st.lists(st.sampled_from(["F", "Z", "Q", " ", "\t", "0", "3", "7", "+", "-", "\u0663"]), max_size=5).map("".join),
    ))
    @example(" F3\n")
    def test_parse_succeeds_only_on_canonical_keys(self, text):
        try:
            ring = RingSpec.parse(text)
        except ValueError:
            return
        assert text.strip() == ring.key


class TestChainComplex:
    def test_triangle_boundary_signs(self):
        cx = chain_complex(SimplicialComplex.from_facets([[0, 1, 2]]))
        dense = boundary_dense(cx, 2)
        # edges sorted (0,1), (0,2), (1,2); faces of (0,1,2) get signs +,-,+
        assert [row[0] for row in dense] == [1, -1, 1]

    def test_composition_vanishes(self):
        rng = random.Random(5)
        for _ in range(20):
            chain_complex(random_complex(rng))  # raises if boundary squares nonzero

    def test_4_cycle_boundary_rank(self):
        cx = chain_complex(cycle_complex(4))
        dense = boundary_dense(cx, 1)
        assert len(invariant_factors(dense)) == 3

    @given(complexes())
    @example(SimplicialComplex.from_facets([]))
    @example(SimplicialComplex.from_facets([[0, 1, 2, 3], [2, 3, 4, 5], [6, 7]], vertices=[8]))
    def test_boundaries_match_reference(self, K):
        assert chain_complex(K).boundaries == reference_boundaries(K)

    @given(complexes())
    @example(SimplicialComplex.from_facets([]))
    @example(SimplicialComplex.from_facets([[0, 1, 2, 3, 4]]))
    @example(SimplicialComplex.from_facets([[0, 1, 2, 3, 4], [3, 4, 5, 6], [1, 7]], vertices=[8]))
    def test_faces_match_the_oracle(self, K):
        assert chain_complex(K).faces == reference_faces(K)

    @given(st.data())
    def test_composition_check_agrees_with_the_oracle_on_corrupted_face_tuples(self, data):
        K = data.draw(st.sampled_from([
            SimplicialComplex.from_facets([[0, 1, 2, 3, 4]]),
            SimplicialComplex.from_facets([[0, 1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5], [0, 5]]),
            SimplicialComplex.from_facets([[0, 1, 2, 3, 4], [0, 1, 2, 3, 5], [2, 3, 4, 5, 6]]),
        ]))
        cx = chain_complex(K)
        k = data.draw(st.integers(2, cx.dimension))
        corrupted = [list(ids) for ids in cx.faces[k]]
        for _ in range(data.draw(st.integers(1, 2))):
            ids = data.draw(st.sampled_from(corrupted))
            if data.draw(st.booleans()):
                ids[data.draw(st.integers(0, k))] = data.draw(st.integers(0, len(cx.bases[k - 1]) - 1))
            else:
                i, j = data.draw(st.lists(st.integers(0, k), min_size=2, max_size=2, unique=True))
                ids[i], ids[j] = ids[j], ids[i]
        corrupted = tuple(map(tuple, corrupted))

        def raises(check):
            try:
                check(cx.faces[k - 1], corrupted)
            except AssertionError as exc:
                assert str(exc) == "boundary composition is nonzero"
                return True
            return False

        assert raises(_check_composition_zero) == raises(reference_composition_zero)

    @given(st.data())
    def test_composition_check_rejects_corrupted_face_tuple(self, data):
        cx = chain_complex(SimplicialComplex.from_facets([[0, 1, 2, 3, 4]]))
        k = data.draw(st.integers(2, 4))
        c = data.draw(st.integers(0, len(cx.faces[k]) - 1))
        i = data.draw(st.integers(0, k))
        face_ids = list(cx.faces[k][c])
        face_ids[i] = data.draw(st.integers(0, len(cx.bases[k - 1]) - 1).filter(lambda f: f != face_ids[i]))
        corrupted = cx.faces[k][:c] + (tuple(face_ids),) + cx.faces[k][c + 1 :]
        _check_composition_zero(cx.faces[k - 1], cx.faces[k])
        with pytest.raises(AssertionError, match="boundary composition is nonzero"):
            _check_composition_zero(cx.faces[k - 1], corrupted)

    @given(corrupted_complexes())
    @example(SimplicialComplex([1, 2, 3], [(1,), (2,), (3,), (1, 2), (1, 3), (1, 2, 3)]))
    @example(SimplicialComplex([1, 2], [(1,), (2,), (2, 1)]))
    @example(SimplicialComplex([1, 2], [(1,), (1, 2)]))
    def test_invalid_raw_complex_refused_before_elimination(self, K):
        report = validate(K)
        assert report

        def eliminate(*args):
            raise AssertionError("elimination reached on an invalid complex")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "_sparse_invariant_factors", eliminate)
            with pytest.raises(ComplexError) as raised:
                reduced_homology(K, RingSpec.Z())
        assert str(raised.value) == "invalid complex: " + "; ".join(report[:3])


class TestSmithNormalForm:
    def test_diag_2_3_becomes_1_6(self):
        D, U, V = smith_normal_form([[2, 0], [0, 3]])
        assert snf_diagonal(D) == [1, 6]

    def test_zero_matrix(self):
        D, U, V = smith_normal_form([[0, 0], [0, 0]])
        assert snf_diagonal(D) == [0, 0]
        assert U == [[1, 0], [0, 1]] and V == [[1, 0], [0, 1]]

    def test_single_entry(self):
        D, _, _ = smith_normal_form([[2]])
        assert snf_diagonal(D) == [2]

    def test_fuzz_reconstruction_divisibility_unimodularity(self):
        rng = random.Random(42)
        for trial in range(100):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            D, U, V = smith_normal_form(A)
            assert matmul(matmul(U, A), V) == D
            diag = snf_diagonal(D)
            assert all(d >= 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
            assert abs(determinant(U)) == 1
            assert abs(determinant(V)) == 1
            assert [d for d in diag if d] == minor_gcd_invariants(A)


class TestSparseKernel:
    @given(sparse_matrices())
    def test_matches_dense_smith_form(self, matrix):
        entries, dense = matrix
        assert _sparse_invariant_factors(kernel_rows(entries)) == invariant_factors(dense)

    @given(unitless_matrices())
    @example(diagonal(2, 3))  # pooled to 1, 6
    @example(diagonal(*[2] * 9))
    @example(diagonal(12, 18, 8, 27, 5))  # 1, 1, 6, 36, 1080 by prime powers
    @example(diagonal((2**61 - 1) * (2**89 - 1), (2**89 - 1) * (2**107 - 1), (2**107 - 1) * (2**61 - 1)))
    @example(({(0, 0): 4, (0, 1): 6, (1, 0): 6, (1, 1): 9}, [[4, 6], [6, 9]]))  # rank 1, factor gcd 1
    def test_matches_dense_smith_form_without_unit_entries(self, matrix):
        entries, dense = matrix
        assert _sparse_invariant_factors(kernel_rows(entries)) == invariant_factors(dense)

    @pytest.mark.parametrize("space", ["rp2", "wedge"])
    def test_reduced_homology_never_calls_the_dense_smith_form(self, space, monkeypatch):
        K = SimplicialComplex.from_facets(RP2_FACETS) if space == "rp2" else wedge_of_sd_rp2(5)
        calls = []
        dense = homology.smith_normal_form
        monkeypatch.setattr(homology, "smith_normal_form", lambda A: calls.append(A) or dense(A))
        z = reduced_homology(K, RingSpec.Z())
        assert z.torsion_in(1) == (2,) * (1 if space == "rp2" else 5) and z.ranks == (0, 0, 0)
        assert calls == []
        assert invariant_factors([[2, 0], [0, 3]]) == [1, 6] and len(calls) == 1  # the spy sees the dense path

    @given(sparse_matrices(), st.sampled_from([2, 3, 5]))
    def test_mod_p_rank_obeys_universal_coefficients(self, matrix, p):
        # The rank mod p counts the integral invariant factors prime to p.
        entries, dense = matrix
        assert sum(1 for d in _sparse_invariant_factors(kernel_rows(entries)) if d % p) == field_rank(dense, p)


class TestDualForestPhase:
    @given(dual_graph_matrices())
    @example(({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}, [[1, 1], [1, -1]]))
    @example(({(0, 0): 1, (1, 0): 1, (1, 1): 2}, [[1, 0], [1, 2]]))
    @example(({(0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1, (2, 0): 1, (2, 3): 1, (3, 0): 1, (3, 2): 1, (3, 3): 2},
              [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 1, 2]]))  # column 0 read twice through a chain
    def test_matches_dense_smith_form(self, matrix):
        entries, dense = matrix
        assert _sparse_invariant_factors(kernel_rows(entries)) == invariant_factors(dense)

    @pytest.mark.parametrize("space", ["rp2", "klein"])
    def test_torsion_comes_from_a_two_entry(self, space, monkeypatch):
        K = SimplicialComplex.from_facets(RP2_FACETS) if space == "rp2" else klein_bottle()
        cx = chain_complex(K)
        cut = homology._boundary_rows(cx.faces[2], _spanning_forest(cx.faces[1]))
        seen = heap_inputs(monkeypatch)
        assert _sparse_invariant_factors(cut) == invariant_factors(boundary_dense(cx, 2)) == [1] * (len(cx.faces[2]) - 1) + [2]
        assert [sorted(map(abs, row.values())) for row in seen[0].values()] == [[2]]
        z = reduced_homology(K, RingSpec.Z())
        assert z.torsion_in(1) == (2,) and z.rank(1) == (1 if space == "klein" else 0)

    def test_one_entry_row_clears_a_column_of_a_later_row(self, monkeypatch):
        # Row 0 clears column 0, so row 1 reads as {1: 2} and reaches the heap.
        seen = heap_inputs(monkeypatch)
        assert _sparse_invariant_factors(kernel_rows({(0, 0): 1, (1, 0): 1, (1, 1): 2})) == [1, 2]
        assert seen == [{1: {1: 2}}]

    def test_dual_cycle_leaves_a_two_for_the_heap(self, monkeypatch):
        # Row 0 links column 0 to -1 times column 1; row 1 then reads as {1: -2}.
        seen = heap_inputs(monkeypatch)
        assert _sparse_invariant_factors(kernel_rows({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1})) == [1, 2]
        assert seen == [{1: {1: -2}}]

    def test_sd2_rp2_leaves_at_most_one_heap_row(self, monkeypatch):
        K = barycentric_subdivision(barycentric_subdivision(SimplicialComplex.from_facets(RP2_FACETS)))
        seen = heap_inputs(monkeypatch)
        z = reduced_homology(K, RingSpec.Z())
        assert z.torsion_in(1) == (2,) and z.ranks == (0, 0, 0)
        assert len(seen) == 1 and len(seen[0]) <= 1


class TestReducedHomology:
    def test_subdivided_projective_plane(self):
        K = barycentric_subdivision(SimplicialComplex.from_facets(RP2_FACETS))
        z = reduced_homology(K, RingSpec.Z())
        assert z.rank(1) == 0 and z.torsion_in(1) == (2,)
        assert z.rank(2) == 0 and z.torsion_in(2) == ()
        q = reduced_homology(K, RingSpec.Q())
        assert q.ranks == (0, 0, 0)
        f2 = reduced_homology(K, RingSpec.Fp(2))
        assert f2.rank(1) == 1 and f2.rank(2) == 1

    def test_4_cycle(self):
        summary = reduced_homology(cycle_complex(4), RingSpec.Z())
        assert summary.rank(0) == 0 and summary.rank(1) == 1 and summary.torsion_in(1) == ()

    def test_cone_is_acyclic_over_every_ring(self):
        cone = SimplicialComplex.from_facets([[0, 1, 2], [0, 2, 3], [0, 1, 3]])
        for ring in (RingSpec.Z(), RingSpec.Q(), RingSpec.Fp(2), RingSpec.Fp(7)):
            summary = reduced_homology(cone, ring)
            assert all(summary.is_trivial_in(i) for i in range(summary.max_degree + 1))

    def test_disconnected_counts_components(self):
        K = SimplicialComplex.from_facets([[0, 1], [2, 3], [4]])
        assert reduced_homology(K, RingSpec.Z()).rank(0) == 2

    def test_field_ranks_match_row_reduction_oracle(self):
        rng = random.Random(17)
        for _ in range(25):
            K = random_complex(rng)
            for p in (None, 2, 3, 5):
                ring = RingSpec.Q() if p is None else RingSpec.Fp(p)
                assert list(reduced_homology(K, ring).ranks) == field_betti_numbers(K, p)

    @given(complexes())
    @example(SimplicialComplex.from_facets([]))
    @example(SimplicialComplex.from_facets(RP2_FACETS, vertices=[0]))
    @example(klein_bottle())
    def test_field_ranks_follow_from_integral_homology(self, K):
        for p in (2, 3, 5, 7):
            assert list(reduced_homology(K, RingSpec.Fp(p)).ranks) == field_betti_numbers(K, p)
        assert list(reduced_homology(K, RingSpec.Q()).ranks) == field_betti_numbers(K, None)

    def test_one_elimination_per_dimension_for_every_ring(self, monkeypatch):
        K = SimplicialComplex.from_facets([*RP2_FACETS, [7, 8, 9, 10], [1, 7]])
        calls = []
        kernel = homology._sparse_invariant_factors
        monkeypatch.setattr(homology, "_sparse_invariant_factors", lambda rows: calls.append(1) or kernel(rows))
        summaries = [reduced_homology(K, ring) for ring in map(RingSpec.parse, ("Z", "Q", "F2", "F3"))]
        assert len(calls) == K.dimension - 1 == 2
        z = summaries[0]
        assert z.torsion_in(1) == (2,) and z.ranks == (0, 0, 0, 0)
        assert summaries[1:] == [field_summary_from_integral(z, s.ring) for s in summaries[1:]]
        assert [s.ranks for s in summaries[1:]] == [(0, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 0)]


class TestSpanningForest:
    @given(complexes())
    @example(SimplicialComplex.from_facets([]))
    @example(SimplicialComplex.from_facets([], vertices=[0, 3, 5]))
    @example(SimplicialComplex.from_facets([[0, 1], [1, 2], [0, 2], [3, 4]], vertices=[7]))
    @example(SimplicialComplex.from_facets([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4], [5, 6, 7]]))
    @example(SimplicialComplex.from_facets(RP2_FACETS, vertices=[0]))
    def test_matches_full_kernel_reference(self, K):
        assert reduced_homology(K, RingSpec.Z()) == full_kernel_homology(K)

    @pytest.mark.parametrize("space", ["sd2_rp2", "flag_a2"])
    def test_forest_rows_leave_invariant_factors_unchanged(self, space):
        if space == "sd2_rp2":
            K = barycentric_subdivision(barycentric_subdivision(SimplicialComplex.from_facets(RP2_FACETS)))
        else:
            K = flagify_presentation_complex(GroupPresentationInput(1, [[1, 1]]))
        cx = chain_complex(K)
        forest = _spanning_forest(cx.bases[1])
        assert len(forest) == len(cx.bases[0]) - 1
        cut = {(r, c): v for (r, c), v in cx.boundaries[2].items() if r not in forest}
        assert _sparse_invariant_factors(kernel_rows(cut)) == _sparse_invariant_factors(kernel_rows(cx.boundaries[2]))
        assert sorted(_sparse_invariant_factors(kernel_rows(cut)))[-1] == 2


class TestSummaryJson:
    def test_round_trip(self):
        K = barycentric_subdivision(SimplicialComplex.from_facets(RP2_FACETS))
        summary = reduced_homology(K, RingSpec.Z())
        text = dump_summary(summary)
        again = HomologySummary.from_json_dict(json.loads(text))
        assert again == summary
        assert dump_summary(again) == text

    @pytest.mark.parametrize(
        "summary",
        [
            HomologySummary(RingSpec.Z(), (0, 1, 2), ((), (2, 6), (5,))),
            HomologySummary(RingSpec.Q(), (0, 1, 2), ((), (), ())),
            HomologySummary(RingSpec.Fp(3), (2, 0, 1), ((), (), ())),
        ],
        ids=["Z-torsion", "Q", "F3"],
    )
    def test_load_summary_reads_back_the_dump(self, tmp_path, summary):
        path = tmp_path / "summary.json"
        path.write_text(dump_summary(summary))
        assert load_summary(str(path)) == summary

    def test_field_summary_carries_no_torsion(self):
        with pytest.raises(ValueError):
            HomologySummary(RingSpec.Q(), (0, 1), ((), (2,)))

    @pytest.mark.parametrize(
        "ranks, torsion, message",
        [
            ((0, -3), ((), ()), "degree 1: negative rank -3"),
            ((0, 0), ((), (0, 4, 6, -1)), r"degree 1: torsion \[0, 4, 6, -1\] is not a divisibility chain"),
            ((0, 0), ((), (1, 2)), "is not a divisibility chain"),
            ((0, 0), ((), (4, 6)), "is not a divisibility chain"),
            ((0, 0), ((), (-2,)), "is not a divisibility chain"),
        ],
    )
    def test_impossible_summary_rejected(self, ranks, torsion, message):
        with pytest.raises(ValueError, match=message):
            HomologySummary(RingSpec.Z(), ranks, torsion)

    def test_divisibility_chains_accepted(self):
        summary = HomologySummary(RingSpec.Z(), (1, 0, 2), ((), (2, 2, 6), (3, 15)))
        assert HomologySummary.from_json_dict(json.loads(dump_summary(summary))) == summary
