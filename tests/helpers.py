"""Independent oracles used to derive expected values in the tests, and the
fixture complexes and covers that several test modules share.

Every oracle here recomputes results by brute force or by a second, simpler
algorithm so that the library's own code paths never check themselves.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from typing import NamedTuple

from hypothesis import strategies as st

from fpforge import homology
from fpforge.complex_core import (
    ComplexError, GroupPresentationInput, SimplicialComplex, _require_valid, barycentric_subdivision, spanning_tree,
)
from fpforge.covers import CoverError, VoltageAssignment, build_cover, normal_generators, perm_compose, perm_inverse
from fpforge.groups import SpanningTreeWords, coset_enumerate
from fpforge.sigma import SIMPLE_CONNECTIVITY_BUDGET, _growth_failures
from fpforge.spectrum import cycles_by_length

RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]


def wedge_of_two_triangles():
    """Two hollow triangles at vertex 0; (1, 2) and (3, 4) are the non-tree edges."""
    return SimplicialComplex.from_facets([[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]])


S3 = sorted(permutations(range(3)))


def left_multiplication(g):
    """Sheet permutation h -> g.h of the six sheets, indexed by the elements of S3."""
    return tuple(S3.index(perm_compose(h, g)) for h in S3)


def s3_left_regular_cover():
    """Degree-6 cover of the wedge: a transposition and a 3-cycle of S3 acting on S3 by left multiplication."""
    voltages = {(1, 2): left_multiplication((1, 0, 2)), (3, 4): left_multiplication((1, 2, 0))}
    return build_cover(VoltageAssignment(wedge_of_two_triangles(), 6, voltages))


def brute_link(K: SimplicialComplex, simplex) -> set[tuple[int, ...]]:
    """Link by coface enumeration over the full simplex set."""
    s = tuple(sorted(simplex))
    out = set()
    for t in K.simplices:
        if set(s) <= set(t) and len(t) > len(s):
            out.add(tuple(v for v in t if v not in s))
    return out


def brute_chain_count(K: SimplicialComplex) -> dict[int, int]:
    """Number of inclusion chains per length, counted by explicit enumeration."""
    simps = sorted(K.simplices, key=lambda s: (len(s), s))
    counts: dict[int, int] = {}
    chains_ending: dict[tuple[int, ...], list[int]] = {}

    def extend(chain: tuple[tuple[int, ...], ...]):
        counts[len(chain)] = counts.get(len(chain), 0) + 1
        top = chain[-1]
        for t in simps:
            if len(t) > len(top) and set(top) < set(t):
                extend(chain + (t,))

    for s in simps:
        extend((s,))
    return counts


def reference_from_facets(facets, vertices=()) -> SimplicialComplex:
    """Downward closure that adds every nonempty subset of every normalized facet."""
    simplices: set[tuple[int, ...]] = set()
    verts = set(int(v) for v in vertices)
    for facet in facets:
        f = tuple(sorted(set(int(v) for v in facet)))
        if not f:
            raise ComplexError("empty facet")
        verts.update(f)
        for k in range(1, len(f) + 1):
            simplices.update(combinations(f, k))
    simplices.update((v,) for v in verts)
    return SimplicialComplex(verts, simplices)


@st.composite
def facet_inputs(draw, max_size=4):
    """``from_facets`` arguments on vertices 0-7: up to 8 facets of one size or of mixed sizes (so nested,
    duplicate and repeated-vertex facets), possibly none, and up to 3 extra vertices, possibly outside them."""
    if draw(st.booleans()):
        n = draw(st.integers(1, max_size))
        facet = st.lists(st.integers(0, 7), min_size=n, max_size=n, unique=True)
    else:
        facet = st.lists(st.integers(0, 7), min_size=1, max_size=max_size)
    return draw(st.lists(facet, max_size=8)), draw(st.lists(st.integers(0, 9), max_size=3))


def recorded_pure(facets, vertices) -> bool:
    """Whether ``from_facets`` should record purity: one size among the distinct normalized facets, and
    every extra vertex in one of them."""
    distinct = {tuple(sorted(set(f))) for f in facets}
    return len(set(map(len, distinct))) <= 1 and set(vertices) <= {v for f in distinct for v in f}


def reference_facets(K: SimplicialComplex) -> list[tuple[int, ...]]:
    """Stored simplices minus each face left by removing a vertex of the vertex set
    from a strictly sorted stored simplex, one simplex at a time."""
    covered = set()
    for t in K.simplices:
        if tuple(sorted(set(t))) == t:
            covered.update(t[:i] + t[i + 1:] for i, v in enumerate(t) if v in K.vertices)
    return sorted(s for s in K.simplices if tuple(sorted(set(s))) not in covered)


def reference_closed_star(K: SimplicialComplex, vertex: int) -> frozenset[tuple[int, ...]]:
    """Simplices of the closed star of ``vertex`` on a valid complex: each coface c of the vertex and c minus
    the vertex, read off the coface index."""
    _require_valid(K)
    if (vertex,) not in K.simplices:
        raise ComplexError(f"vertex {vertex} not in complex")
    out = set()
    for c in K.cofaces()[vertex]:
        out.add(c)
        if len(c) > 1:
            out.add(tuple(v for v in c if v != vertex))
    return frozenset(out)


def reference_flagify_presentation_complex(input: GroupPresentationInput) -> SimplicialComplex:
    """The presentation complex subdivided twice: the construction of ``flagify_presentation_complex``
    followed by two barycentric subdivisions, so it equals that complex subdivided once more."""
    base = 0
    triangles: list[tuple[int, int, int]] = []
    edges: list[tuple[int, int]] = []
    for i in range(input.generator_count):
        m1, m2 = 2 * i + 1, 2 * i + 2
        edges.extend([(base, m1), (m1, m2), (base, m2)])
    fresh = 2 * input.generator_count + 1

    for word in input.relators:
        if not word:
            continue  # empty relator: attach no disk
        path = [base]
        for letter in word:
            i = abs(letter) - 1
            m1, m2 = 2 * i + 1, 2 * i + 2
            if letter > 0:
                path.extend([m1, m2, base])
            else:
                path.extend([m2, m1, base])
        n = len(path) - 1  # boundary length, a multiple of 3
        ring = list(range(fresh, fresh + n))
        center = fresh + n
        fresh += n + 1
        for j in range(n):
            q0, q1 = ring[j], ring[(j + 1) % n]
            triangles.append((center, q0, q1))
            triangles.append((q0, q1, path[j + 1]))
            triangles.append((q0, path[j], path[j + 1]))

    complex = SimplicialComplex.from_facets(list(edges) + list(triangles), vertices=[base])
    return barycentric_subdivision(barycentric_subdivision(complex))


@st.composite
def small_presentations(draw):
    """1-3 generators and 0-3 freely reduced relators of length at most 6, empty relators included."""
    gens = draw(st.integers(1, 3))
    letter = st.integers(1, gens).flatmap(lambda g: st.sampled_from([g, -g]))
    relators = []
    for word in draw(st.lists(st.lists(letter, max_size=6), max_size=3)):
        reduced: list[int] = []
        for x in word:
            reduced.pop() if reduced and reduced[-1] == -x else reduced.append(x)
        relators.append(reduced)
    return GroupPresentationInput(gens, relators)


def brute_join_double(K: SimplicialComplex) -> set[tuple[int, ...]]:
    """All sign-decorated simplices, enumerated directly from the definition."""
    out = set()
    for s in K.simplices:
        for signs in product((0, 1), repeat=len(s)):
            out.add(tuple(sorted(2 * v + sg for v, sg in zip(s, signs))))
    return out


def brute_flag(K: SimplicialComplex) -> bool:
    """Flag test by enumerating every vertex subset and checking cliques."""
    verts = sorted(K.vertices)
    edges = {s for s in K.simplices if len(s) == 2}
    for k in range(3, len(verts) + 1):
        for sub in combinations(verts, k):
            if all(tuple(sorted(p)) in edges for p in combinations(sub, 2)):
                if sub not in K.simplices:
                    return False
    return True


def field_rank(M: list[list[int]], p: int | None) -> int:
    """Rank of an integer matrix over F_p (or Q when p is None) by dense row reduction."""
    M = [[v % p if p is not None else Fraction(v) for v in row] for row in M]
    if not M or not M[0]:
        return 0
    rows, cols = len(M), len(M[0])
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if M[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = pow(M[r][c], -1, p) if p is not None else 1 / M[r][c]
        M[r] = [x * inv % p if p is not None else x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [
                    (a - f * b) % p if p is not None else a - f * b
                    for a, b in zip(M[i], M[r])
                ]
        r += 1
        if r == rows:
            break
    return r


def field_betti_numbers(K: SimplicialComplex, p: int | None) -> list[int]:
    """Reduced betti numbers over F_p (or Q when p is None) by dense row reduction."""
    dim = K.dimension
    if dim < 0:
        return []
    bases = [sorted(s for s in K.simplices if len(s) == k + 1) for k in range(dim + 1)]
    index = [{s: i for i, s in enumerate(b)} for b in bases]

    def boundary(k: int) -> list[list[int]]:
        M = [[0] * len(bases[k]) for _ in bases[k - 1]]
        for c, s in enumerate(bases[k]):
            for i in range(len(s)):
                M[index[k - 1][s[:i] + s[i + 1 :]]][c] = -1 if i % 2 else 1
        return M

    ranks = [0] * (dim + 2)
    for k in range(1, dim + 1):
        ranks[k] = field_rank(boundary(k), p)
    betti = []
    for k in range(dim + 1):
        b = len(bases[k]) - ranks[k] - ranks[k + 1]
        if k == 0:
            b -= 1
        betti.append(b)
    return betti


def reference_faces(K: SimplicialComplex) -> list[tuple[tuple[int, ...], ...]]:
    """Face tuples per dimension, one simplex at a time: position i is the index of the face without vertex i."""
    bases = [sorted(s for s in K.simplices if len(s) == k + 1) for k in range(K.dimension + 1)]
    faces = [()] if bases else []
    for k in range(1, len(bases)):
        lookup = {s: i for i, s in enumerate(bases[k - 1])}.__getitem__
        # combinations yields the faces without vertex k, k-1, ..., 0 in that order.
        faces.append(tuple([tuple(map(lookup, combinations(s, k)))[::-1] for s in bases[k]]))
    return faces


def reference_composition_zero(lower, upper) -> None:
    """Raise AssertionError unless, per simplex, faces of faces with even and odd i + j agree."""
    for face_ids in upper:
        even, odd = [], []
        for i, f in enumerate(face_ids):
            g = lower[f]
            even += g[i % 2 :: 2]
            odd += g[1 - i % 2 :: 2]
        if sorted(even) != sorted(odd):
            raise AssertionError("boundary composition is nonzero")


class PlainCover(NamedTuple):
    """A total space, base, projection and sheet labels as plain data, in the order the covering check takes them;
    hand-made and damaged ones need not be covers."""

    total: SimplicialComplex
    base: SimplicialComplex
    projection: dict[int, int]
    sheet: dict[int, int]


def reference_build_cover(v: VoltageAssignment) -> PlainCover:
    """Total space lifted one simplex and one sheet at a time, each lift sorted."""
    base = v.base
    d = v.degree
    order = {b: i for i, b in enumerate(sorted(base.vertices))}

    def tid(b: int, s: int) -> int:
        return order[b] * d + s

    simplices = set()
    for simplex in base.simplices:
        anchor = simplex[0]
        for s in range(d):
            simplices.add(tuple(sorted(tid(b, v.voltage[(anchor, b)][s] if b != anchor else s) for b in simplex)))
    vertices = {tid(b, s) for b in base.vertices for s in range(d)}
    projection = {tid(b, s): b for b in base.vertices for s in range(d)}
    sheet = {tid(b, s): s for b in base.vertices for s in range(d)}
    return PlainCover(SimplicialComplex(vertices, simplices), base, projection, sheet)


def reference_failing_triangle(base: SimplicialComplex, degree: int, voltages) -> tuple[int, int, int] | None:
    """The first triangle in sorted order whose voltage product is not the identity, one triangle at a time."""
    ident = tuple(range(degree))
    full = {}
    for u, v in base.edges():
        full[(u, v)] = full[(v, u)] = ident
    for (u, v), perm in voltages.items():
        full[(u, v)] = tuple(perm)
        full[(v, u)] = perm_inverse(perm)
    for tri in sorted(s for s in base.simplices if len(s) == 3):
        u, v, w = tri
        if perm_compose(perm_compose(full[(u, v)], full[(v, w)]), full[(w, u)]) != ident:
            return tri
    return None


def reference_lift_loop(c, loop, start_sheet: int) -> tuple[bool, int]:
    """Lift a based loop of a cover's built total, checking every step against the base adjacency, on a step
    table of its own keyed by total vertices: a non-edge is reported before a bad start sheet."""
    projection, sheet = c.projection, c.sheet
    step = {t: {} for t in c.total.vertices}
    for u, w in c.total.edges():
        step[u][projection[w]] = w
        step[w][projection[u]] = u
    loop = list(loop)
    if len(loop) < 1 or loop[0] != loop[-1]:
        raise CoverError("loop must be a closed vertex path (first = last)")
    adj = c.base.adjacency()
    u = loop[0]
    if u not in adj:
        raise CoverError(f"{u} is not a vertex of the base")
    t = {sheet[t]: t for t in c.total.vertices if projection[t] == u}.get(start_sheet)
    for w in loop[1:]:
        if w not in adj[u]:
            raise CoverError(f"({u}, {w}) is not an edge of the base")
        if t is not None:
            t = step[t][w]
        u = w
    if t is None:
        raise CoverError(f"sheet {start_sheet} out of range over vertex {loop[0]}")
    return sheet[t] == start_sheet, sheet[t]


def total_simply_connected(voltage: VoltageAssignment) -> bool | None:
    """The total-space oracle: the built cover's edge-path group enumerates to
    order one (True), to a larger order (False), or not at all (None)."""
    order = coset_enumerate(
        SpanningTreeWords(build_cover(voltage).total).presentation(), (), SIMPLE_CONNECTIVITY_BUDGET
    )
    return None if order is None else order == 1


def total_length_bound(c) -> int:
    """The normal generating length bound read off the built total: zero when the total's own edge-path group
    enumerates to order one, else the longest spanning-tree loop."""
    if total_simply_connected(c.assignment):
        return 0
    return max((len(p) - 1 for p in normal_generators(c)), default=0)


def reference_maps_into(vmap, simplices, target) -> bool:
    """Whether ``vmap`` sends every simplex to a member of ``target``, one sorted image at a time."""
    return all(tuple(sorted(vmap[x] for x in s)) in target for s in simplices)


def reference_choose_constants(d: int, r_bounds, m: int) -> tuple[int, ...]:
    """Oracle: bisect for each least constant against the growth conditions as the ratio check reports them."""
    r = list(r_bounds or []) + [0] * (m + 1)
    out: list[int] = []
    for n in range(1, m + 1):
        # Every condition is monotone in C and holds at hi, so bisect for the least C.
        lo = out[-1] + 1 if out else 1
        hi = lo + max(3, r[n - 1], r[n]) * (d + 1)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if _growth_failures(out + [mid], n, r, d) else (lo, mid)
        out.append(lo)
    return tuple(out)


@st.composite
def voltage_assignments(draw):
    """Permutation voltages of degree 1-4 on a connected base with at most 8
    vertices: a drawn graph, plus drawn triangles of it as 2-simplices, and
    optionally a 3-simplex on three fresh vertices and vertex 0.

    Of the drawn triangles, those that fail the triangle condition under the
    drawn voltages are left out of the base; with no triangle kept the base
    is a graph.  The 3-simplex hangs off vertex 0, so the breadth-first tree
    keeps its edges to vertex 0 and adds none elsewhere; its other edges are
    non-tree edges with identity voltages.
    """
    n = draw(st.integers(1, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a spanning tree: the base is connected
    if n > 1:
        edges.update(draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=8)))
    graph = SimplicialComplex.from_facets([*edges, (0,)])
    degree = draw(st.integers(1, 4))
    identity = tuple(range(degree))
    perms = st.one_of(st.just(identity), st.sampled_from(list(permutations(range(degree)))))
    tree = spanning_tree(graph)
    voltages = {e: draw(perms) for e in graph.edges() if e not in tree}
    full = VoltageAssignment(graph, degree, voltages).voltage
    cliques = [t for t in combinations(range(n), 3) if all(e in edges for e in combinations(t, 2))]
    drawn = draw(st.lists(st.sampled_from(cliques), max_size=6, unique=True)) if cliques else []
    triangles = [
        (u, v, w) for u, v, w in drawn
        if perm_compose(perm_compose(full[(u, v)], full[(v, w)]), full[(w, u)]) == identity
    ]
    solid = [(0, n, n + 1, n + 2)] if draw(st.booleans()) else []
    return VoltageAssignment(SimplicialComplex.from_facets([*edges, *triangles, *solid, (0,)]), degree, voltages)


def reference_boundaries(K: SimplicialComplex) -> list[dict[tuple[int, int], int]]:
    """Boundary matrices as {(row, col): sign}, one dict entry per face lookup."""
    dim = K.dimension
    bases = [sorted(s for s in K.simplices if len(s) == k + 1) for k in range(dim + 1)]
    index = [{s: i for i, s in enumerate(b)} for b in bases]
    boundaries: list[dict[tuple[int, int], int]] = [{} for _ in range(dim + 1)]
    for k in range(1, dim + 1):
        for c, s in enumerate(bases[k]):
            for i in range(len(s)):
                boundaries[k][(index[k - 1][s[:i] + s[i + 1 :]], c)] = -1 if i % 2 else 1
    return boundaries


def kernel_rows(entries: dict[tuple[int, int], int]) -> dict[int, dict[int, int]]:
    """A sparse matrix given as {(row, col): value} in the kernel's input form: {row: {col: value}}, nonzero only."""
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
    return rows


def boundary_dense(cx, k: int) -> list[list[int]]:
    """The k-th boundary matrix of a chain complex as a dense list of rows."""
    rows = len(cx.bases[k - 1]) if k >= 1 else 0
    cols = len(cx.bases[k]) if k <= cx.dimension else 0
    out = [[0] * cols for _ in range(rows)]
    if 1 <= k <= cx.dimension:
        for (r, c), v in cx.boundaries[k].items():
            out[r][c] = v
    return out


def snf_diagonal(D: list[list[int]]) -> list[int]:
    """Diagonal entries of a (rectangular) diagonal matrix."""
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def invariant_factors(A: list[list[int]]) -> list[int]:
    """Nonzero diagonal entries of the dense Smith normal form, read through the module so that a spy on
    ``homology.smith_normal_form`` sees the call."""
    D, _, _ = homology.smith_normal_form(A)
    return [d for d in snf_diagonal(D) if d]


def minor_gcd_invariants(A: list[list[int]]) -> list[int]:
    """Invariant factors via gcds of k-by-k minors (the determinantal divisors).

    The product of the first k invariant factors equals the gcd of all k-by-k
    minors; this is a completely different route than any elimination, so it
    makes a clean oracle for small matrices.
    """
    from math import gcd

    m = len(A)
    n = len(A[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[A[i][j] for j in cols] for i in rows]
                g = gcd(g, determinant(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def determinant(A: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[-1][-1]


def matmul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                Oi = out[i]
                for j in range(cols):
                    Oi[j] += a * Bk[j]
    return out


def all_complexes_on(n: int):
    """Every simplicial complex on a subset of {0..n-1}, by monotone DFS.

    Subsets are processed in size order, so a set may be included only when
    all of its maximal proper subsets already are; this enumerates exactly
    the downward-closed families of nonempty subsets.
    """
    subsets = []
    for k in range(1, n + 1):
        subsets.extend(combinations(range(n), k))
    position = {s: i for i, s in enumerate(subsets)}

    def admissible(s, chosen):
        if len(s) == 1:
            return True
        return all(s[:i] + s[i + 1 :] in chosen for i in range(len(s)))

    out = []

    def walk(i, chosen):
        if i == len(subsets):
            if chosen:
                out.append(frozenset(chosen))
            return
        s = subsets[i]
        walk(i + 1, chosen)
        if admissible(s, chosen):
            chosen.add(s)
            walk(i + 1, chosen)
            chosen.remove(s)

    walk(0, set())
    return out


def enumerate_cycles(graph: SimplicialComplex, max_len: int) -> dict[int, list[tuple[int, ...]]]:
    """Cyclically reduced closed walks up to rotation and reversal, by length 1..max_len, nonempty lengths
    only: every length of ``cycles_by_length`` at once."""
    return {l: walks for l, walks in cycles_by_length(graph, range(1, max_len + 1)) if walks}
