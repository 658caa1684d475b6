"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and time limits are asserted inside the tests.
"""

import math
import random
import time

from fpforge.complex_core import SimplicialComplex, barycentric_subdivision, is_flag, spanning_tree
from fpforge.covers import (
    VoltageAssignment,
    build_cover,
    double_cover_voltages,
    double_of_cover,
    lift_loop,
    normal_generators,
    perm_compose,
    perm_identity,
    verify_covering,
)
from fpforge.groups import LoopWord, abelianization, deck_group_presentation, power_spread
from fpforge.homology import RingSpec, reduced_homology, smith_normal_form, snf_diagonal
from fpforge.sigma import (
    SigmaSpec,
    Tail,
    choose_constants,
    declared_entry,
    example_registry,
    fp_decide,
    min_kernel_length_bound,
    separation_ratio_check,
    sigma_field_example,
    sigma_prime_set,
)
from fpforge.spectrum import k_related, taut_spectrum

from helpers import RP2_FACETS, all_complexes_on, matmul

MEMBERS = {p: f"Lp{p}" for p in (3, 5, 7)}


def _passed(number, text):
    print(f"criterion {number:02d} PASS: {text}")


def cycle_complex(n):
    return SimplicialComplex.from_facets([[i, (i + 1) % n] for i in range(n)])


def subdivided_rp2():
    return barycentric_subdivision(SimplicialComplex.from_facets(RP2_FACETS))


def c4_double_cover():
    base = cycle_complex(4)
    nontree = [e for e in base.edges() if e not in spanning_tree(base)]
    return build_cover(VoltageAssignment(base, 2, {nontree[0]: (1, 0)}))


def orientation_cover(base):
    assignments = double_cover_voltages(base)
    assert len(assignments) == 1
    return build_cover(assignments[0])


def test_criterion_01_flag_law_exhaustive():
    start = time.monotonic()
    families = all_complexes_on(5)
    assert len(families) > 7000  # sanity: the enumeration is really exhaustive
    for family in families:
        K = SimplicialComplex({v for s in family for v in s}, family)
        assert is_flag(spherical_double_complex(K)) == is_flag(K)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passed(1, f"flag law on all {len(families)} complexes with <= 5 vertices in {elapsed:.1f}s")


def spherical_double_complex(K):
    from fpforge.spherical_double import spherical_double

    return spherical_double(K).complex


def test_criterion_02_join_combinatorics():
    from fpforge.spherical_double import spherical_double

    octa = spherical_double(SimplicialComplex.from_facets([[0, 1, 2]])).complex
    assert octa.f_vector() == (6, 12, 8)
    square = spherical_double(SimplicialComplex.from_facets([[0, 1]])).complex
    assert square.f_vector() == (4, 4)
    assert square.is_connected()
    assert all(len(square.adjacency()[v]) == 2 for v in square.vertices)
    _passed(2, "double of the 2-simplex is the octahedron; double of an edge is a 4-cycle")


def test_criterion_03_pullback_covers():
    c4 = c4_double_cover()
    doubled = double_of_cover(c4.base, c4)
    assert verify_covering(doubled) and doubled.degree == c4.degree == 2

    rp2 = subdivided_rp2()
    ori = orientation_cover(rp2)
    doubled2 = double_of_cover(rp2, ori)
    assert verify_covering(doubled2) and doubled2.degree == ori.degree == 2
    _passed(3, "both degree-2 pullback doubles verify the covering condition")


def test_criterion_04_homology_certificates():
    start = time.monotonic()
    K = subdivided_rp2()
    z = reduced_homology(K, RingSpec.Z())
    assert z.rank(1) == 0 and z.torsion_in(1) == (2,)
    q = reduced_homology(K, RingSpec.Q())
    assert all(q.is_trivial_in(i) for i in range(q.max_degree + 1))
    f2 = reduced_homology(K, RingSpec.Fp(2))
    assert f2.rank(1) == 1 and f2.rank(2) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _passed(4, f"projective-plane certificates over Z, Q, F2 in {elapsed:.2f}s")


def test_criterion_05_snf_soundness():
    start = time.monotonic()
    rng = random.Random(2024)
    for _ in range(100):
        m = rng.randint(1, 30)
        n = rng.randint(1, 30)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        D, U, V = smith_normal_form(A)
        assert matmul(matmul(U, A), V) == D
        diag = snf_diagonal(D)
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passed(5, f"100 fuzzed matrices reconstruct U*A*V = D with chains in {elapsed:.2f}s")


def test_criterion_06_fp_truth_table():
    registry = example_registry()
    registry["T5"] = declared_entry(
        "T5",
        degree=25,
        ranks=(0, 0),
        torsion=((), (5,)),
        certified_up_to=2,
        simply_connected=False,
        quotient_is_finite=True,
        note="stand-in cover with five-torsion first homology",
    )
    recurrent = SigmaSpec(
        registry,
        "L",
        positive_tail=Tail.constant("T5"),
        negative_tail=Tail.constant("Luniv"),
    )
    assert fp_decide(recurrent, RingSpec.Q(), 2).holds
    assert not fp_decide(recurrent, RingSpec.Fp(5), 2).holds
    assert fp_decide(recurrent, RingSpec.Fp(7), 2).holds
    assert not fp_decide(recurrent, RingSpec.Z(), 2).holds

    confined = SigmaSpec(
        registry,
        "L",
        exceptions={2: "T5", -3: "Lp3", 7: "L"},
        positive_tail=Tail.constant("Luniv"),
        negative_tail=Tail.constant("Luniv"),
    )
    for ring in (RingSpec.Q(), RingSpec.Fp(5), RingSpec.Fp(7), RingSpec.Z()):
        assert fp_decide(confined, ring, 2).holds
    _passed(6, "recurrent five-torsion flips exactly F5 and Z; confined torsion passes all")


def test_criterion_07_prime_patterns():
    registry = example_registry()
    prime_set = sigma_prime_set([2, 3], registry, member_ids=MEMBERS)
    for p in (2, 3):
        assert not fp_decide(prime_set, RingSpec.Fp(p), 2).holds
    for p in (5, 7, 11):
        assert fp_decide(prime_set, RingSpec.Fp(p), 2).holds

    field = sigma_field_example(registry, member_ids=MEMBERS)
    assert fp_decide(field, RingSpec.Q(), 2).holds
    for p in (2, 3, 5, 7, 11):
        assert fp_decide(field, RingSpec.Fp(p), 2).holds
    assert not fp_decide(field, RingSpec.Z(), 2).holds
    _passed(7, "prime-set {2,3} and congruence-family patterns decide as stated")


def test_criterion_08_presentation():
    p = deck_group_presentation(SimplicialComplex.from_facets([[0, 1, 2]]), {})
    assert p.generators == ("e0_1", "e0_2", "e1_2")
    assert len(p.relators) == 2
    assert sorted(w.letters for w in p.relators) == [(-2, 3, 1), (1, 3, -2)]
    ab = abelianization(p)
    assert ab.free_rank == 2 and ab.factors == ()
    spread = power_spread(LoopWord([1, 2]), 3)
    assert spread.letters == (1, 1, 1, 2, 2, 2) and len(spread) == 6
    _passed(8, "triangle presentation has two length-3 relators, abelianization Z^2; spread cubes blocks")


def test_criterion_09_lifting_consistency():
    def closed_walks(base, start, max_len):
        adj = {v: sorted(ns) for v, ns in base.adjacency().items()}
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        walks = []
        stack = [(start, (start,))]
        while stack:
            cur, path = stack.pop()
            rem = max_len - (len(path) - 1)
            for nxt in adj[cur]:
                if dist[nxt] > rem - 1:
                    continue
                if nxt == start:
                    walks.append(path + (nxt,))
                if rem - 1 >= 1:
                    stack.append((nxt, path + (nxt,)))
        return walks

    total_checked = 0
    c4 = c4_double_cover()
    rp2 = subdivided_rp2()
    suite = [(c4, sorted(c4.base.vertices)), (orientation_cover(rp2), [min(rp2.vertices)])]
    for cover, basepoints in suite:
        volt = cover.assignment.voltage
        for start in basepoints:
            for walk in closed_walks(cover.base, start, 8):
                perm = perm_identity(cover.degree)
                for u, x in zip(walk, walk[1:]):
                    perm = perm_compose(perm, volt[(u, x)])
                for s in range(cover.degree):
                    closed, end = lift_loop(cover, walk, s)
                    assert end == perm[s]
                    assert closed == (perm[s] == s)
                total_checked += 1
        for loop in normal_generators(cover):
            for s in range(cover.degree):
                closed, _ = lift_loop(cover, loop, s)
                assert closed
    _passed(9, f"lift closure matches voltage products on {total_checked} loops of length <= 8")


def test_criterion_10_spectrum():
    start = time.monotonic()
    c5 = cycle_complex(5)
    report = taut_spectrum(c5, 10, 100_000)
    assert report.spectrum == [5]
    assert report.statuses[5].status == "taut"
    assert all(report.statuses[l].status == "filled" for l in range(1, 11) if l != 5)

    wedge = SimplicialComplex.from_facets(
        [[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [4, 5], [0, 5]]
    )
    report2 = taut_spectrum(wedge, 10, 100_000)
    assert report2.spectrum == [3, 4]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passed(10, f"5-cycle spectrum is {{5}}, wedge spectrum is {{3,4}} in {elapsed:.2f}s")


def test_criterion_11_k_related_suite():
    rng = random.Random(77)
    for _ in range(20):
        H = sorted(rng.sample(range(10, 120), rng.randint(0, 7)))
        assert k_related(H, H, 2, 400)
    assert k_related([10], [15], 2, 40) is True
    assert k_related([100], [], 2, 200) is False
    for _ in range(50):
        H = sorted(rng.sample(range(10, 60), rng.randint(0, 6)))
        Hp = sorted(rng.sample(range(10, 60), rng.randint(0, 6)))
        k = rng.randint(1, 3)
        assert k_related(H, Hp, k, 200) == k_related(Hp, H, k, 200)
    _passed(11, "identity, witness, missing-witness, and symmetry checks all hold")


def test_criterion_12_constants():
    constants = choose_constants(2, None, 1)
    assert constants == (4,)
    # all four conditions, re-verified by integer comparisons of squares
    C = constants[0]
    assert 2 * C * C > 3 * 3 * (2 + 1)  # C1 * alpha > 3
    assert not (2 * 3 * 3 > 3 * 3 * 3)  # 3 fails, so 4 is minimal
    assert 2 * C * C > 0  # r-bound conditions with r = 0
    longer = choose_constants(2, [0, 4, 6, 6], 3)
    for i, c in enumerate(longer, start=1):
        r = [0, 4, 6, 6]
        assert 2 * c * c > r[i - 1] ** 2 * 3 and 2 * c * c > r[i] ** 2 * 3
        if i >= 2:
            assert c > longer[i - 2]
    result = separation_ratio_check(constants, [0, 0], 2)
    assert result.ok and result.min_ratio_bound == 1
    result2 = separation_ratio_check(longer, [0, 4, 6, 6], 2)
    assert result2.ok
    _passed(12, "minimal constant is 4; square comparisons and ratio check pass")


def test_criterion_13_kernel_length_bound():
    value = min_kernel_length_bound(7, 2)
    assert abs(value - 5.715476066494082) < 1e-12
    assert str(f"{value:.9f}").startswith("5.71547607") or abs(value - 5.715476066) < 5e-10
    for M in (0, 1, 7, 40):
        assert min_kernel_length_bound(M, 1) == float(M)
    _passed(13, "7*sqrt(2/3) within 1e-12; dimension-1 bound exact")
