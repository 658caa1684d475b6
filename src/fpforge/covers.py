"""Finite covers of simplicial complexes from permutation voltages.

A voltage assignment labels each directed edge of a connected base complex
with a permutation of the sheets {0..d-1}, inverse on reversed edges and
identity on a spanning tree.  The triangle condition (the product around
each 2-simplex is the identity) makes simplex lifting consistent, so the
total space is again a simplicial complex and the projection is a covering
map of degree d.

Covers built this way are exactly the ones induced by homomorphisms from the
fundamental group of the base to a symmetric group; connectivity of the
total space is equivalent to transitivity of the voltage image and is not
assumed.  Pullback covers (of the spherical double) carry no voltage data of
their own.  Walk lifting, the covering check and the deck group read the
total space, its projection and its sheet labels, and compare them with the
base; they never read voltages, so they treat every cover alike.  Lifting
checks once per cover that every total edge lies over a base edge; where it
does, a walk lifts with one step-table lookup per step.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, count, repeat
from operator import add, getitem, itemgetter, ne
from typing import Mapping, Sequence

from .complex_core import (
    ComplexError,
    FormatError,
    SimplicialComplex,
    _check_closure_cap,
    _json_field,
    _json_items,
    _json_list,
    _json_object,
    _json_text,
    _read_json,
    _require_valid,
    _tree_parents,
    spanning_tree,
)
from .spherical_double import spherical_double


class CoverError(ValueError):
    """Raised for inconsistent voltage data or broken covering structure."""


def perm_identity(d: int) -> tuple[int, ...]:
    return tuple(range(d))


def perm_inverse(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Apply p first, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def _connected_tree(K: SimplicialComplex, message: str) -> Mapping[int, int | None]:
    """The cached canonical tree of ``K``, whose walk proves it connected; else CoverError(message)."""
    try:
        return _tree_parents(K)
    except ComplexError:
        raise CoverError(message) from None


def _check_perm(p: Sequence[int], d: int) -> tuple[int, ...]:
    t = tuple(int(x) for x in p)
    if sorted(t) != list(range(d)):
        raise CoverError(f"{list(p)} is not a permutation of 0..{d - 1}")
    return t


class VoltageAssignment:
    """Permutation voltages on the directed edges of a connected base complex.

    ``voltages`` gives non-tree edges only (either direction); tree edges and
    unlisted edges carry the identity.  The spanning tree is the canonical
    breadth-first tree of the base.
    """

    __slots__ = ("base", "degree", "spanning_tree", "voltage")

    def __init__(
        self,
        base: SimplicialComplex,
        degree: int,
        voltages: Mapping[tuple[int, int], Sequence[int]] | None = None,
    ):
        _require_valid(base)
        message = "voltage base must be connected and nonempty"
        if not base.vertices:
            raise CoverError(message)
        _connected_tree(base, message)
        if degree < 1:
            raise CoverError("cover degree must be positive")
        n = len(base.simplices)
        _check_closure_cap(degree * n, CoverError, "the cover would hold", f"degree times {n} base simplices")
        self.base = base
        self.degree = int(degree)
        self.spanning_tree = spanning_tree(base)

        full: dict[tuple[int, int], tuple[int, ...]] = {}
        ident = perm_identity(self.degree)
        edge_set = set(base.edges())
        for u, v in edge_set:
            full[(u, v)] = ident
            full[(v, u)] = ident
        explicit: set[tuple[int, int]] = set()
        for (u, v), perm in (voltages or {}).items():
            key = (min(u, v), max(u, v))
            if key not in edge_set:
                raise CoverError(f"voltage on non-edge {key}")
            p = _check_perm(perm, self.degree)
            if key in self.spanning_tree and p != ident:
                raise CoverError(f"tree edge {key} must carry the identity")
            if key in explicit and full[(u, v)] != p:
                raise CoverError(f"conflicting voltages on edge {key}")
            explicit.add(key)
            full[(u, v)] = p
            full[(v, u)] = perm_inverse(p)
        self.voltage = full

        # Follow each sheet around every triangle at once; the least failing triangle is reported.
        triangles = base.simplices_of_dim(2)
        steps = [list(map(full.__getitem__, map(itemgetter(a, b), triangles))) for a, b in ((0, 1), (1, 2), (2, 0))]
        first = len(triangles)
        for s in range(self.degree):
            end = repeat(s, len(triangles))
            for step in steps:
                end = map(getitem, step, end)
            first = min(first, next(compress(count(), map(ne, end, repeat(s))), first))
        if first < len(triangles):
            raise CoverError(f"triangle condition fails on {triangles[first]}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, VoltageAssignment):
            return NotImplemented
        return (
            self.base == other.base
            and self.degree == other.degree
            and self.voltage == other.voltage
        )

    def __hash__(self) -> int:
        return hash((self.base, self.degree, tuple(sorted(self.voltage.items()))))

    def nontree_voltages(self) -> dict[tuple[int, int], tuple[int, ...]]:
        ident = perm_identity(self.degree)
        out = {}
        for u, v in self.base.edges():
            if (u, v) not in self.spanning_tree and self.voltage[(u, v)] != ident:
                out[(u, v)] = self.voltage[(u, v)]
        return out

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "degree": self.degree,
            "voltages": [
                {"edge": [u, v], "perm": [s + 1 for s in perm]}
                for (u, v), perm in sorted(self.nontree_voltages().items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping, path: str = "$") -> "VoltageAssignment":
        data = _json_object(data, path)
        base = SimplicialComplex.from_json_dict(_json_field(data, "base", path), f"{path}.base")
        degree = _json_field(data, "degree", path, int)
        voltages = {}
        items = _json_list(data.get("voltages", []), f"{path}.voltages")
        for i, item in enumerate(items):
            at = f"{path}.voltages[{i}]"
            item = _json_object(item, at)
            edge = _json_items(_json_field(item, "edge", at), f"{at}.edge")
            if len(edge) != 2:
                raise FormatError(f"{at}.edge: expected 2 vertices, got {len(edge)}")
            perm = _json_items(_json_field(item, "perm", at), f"{at}.perm")
            voltages[tuple(edge)] = tuple(s - 1 for s in perm)
        return cls(base, degree, voltages)


class CoverComplex:
    """A realized cover: total space, projection, sheet labels, and provenance.

    Total-space vertices are integers; ``projection`` and ``sheet`` map them
    to the base vertex and sheet index they lie over.  ``assignment`` is the
    originating voltage data when the cover was built from voltages, and None
    for pullbacks or hand-made covers.
    """

    __slots__ = ("total", "base", "projection", "sheet", "assignment", "_cache")

    def __init__(
        self,
        total: SimplicialComplex,
        base: SimplicialComplex,
        projection: Mapping[int, int],
        sheet: Mapping[int, int],
        assignment: VoltageAssignment | None = None,
    ):
        self.total = total
        self.base = base
        self.projection = dict(projection)
        self.sheet = dict(sheet)
        self.assignment = assignment
        self._cache: dict = {}
        missing = [t for t in total.vertices if t not in self.projection]
        if missing:
            raise CoverError(f"projection undefined on vertices {sorted(missing)[:3]}")

    @property
    def degree(self) -> int:
        if self.assignment is not None:
            return self.assignment.degree
        fibers = self.fibers()
        sizes = {len(f) for f in fibers.values()}
        if len(sizes) != 1:
            raise CoverError("fibers have unequal sizes; no well-defined degree")
        return sizes.pop()

    def fibers(self) -> dict[int, dict[int, int]]:
        """Base vertex -> {sheet: total vertex}."""
        if "fibers" not in self._cache:
            fibers: dict[int, dict[int, int]] = {v: {} for v in self.base.vertices}
            for t in self.total.vertices:
                fibers[self.projection[t]][self.sheet[t]] = t
            self._cache["fibers"] = fibers
        return self._cache["fibers"]

    def __repr__(self) -> str:
        return f"CoverComplex(f={self.total.f_vector()} over f={self.base.f_vector()})"


def build_cover(v: VoltageAssignment) -> CoverComplex:
    """Realize the total space of a voltage assignment.

    A simplex lifts once per sheet: anchored at its least vertex, the other
    vertices ride the anchor's voltages.  The triangle condition makes the
    lift independent of the anchor and the total valid by construction.
    Lifts are built one dimension at a time, a vertex column per simplex
    position.  Total vertex order[b]·d + s grows with the base vertex b and
    the sheet s < d, and base simplices are strictly sorted, so every lift is
    already sorted.
    """
    base = v.base
    d = v.degree
    ordered = sorted(base.vertices)
    order = {b: i for i, b in enumerate(ordered)}
    simplices = set()
    for k in range(base.dimension + 1):
        anchors, *others = cols = list(zip(*base.simplices_of_dim(k)))
        offsets = [[order[b] * d for b in col] for col in cols]
        perms = [list(map(v.voltage.__getitem__, zip(anchors, col))) for col in others]
        for s in range(d):
            sheets = [repeat(s), *(map(itemgetter(s), p) for p in perms)]
            simplices.update(zip(*[map(add, o, t) for o, t in zip(offsets, sheets)]))
    total = SimplicialComplex(range(len(ordered) * d), simplices)
    total._cache["valid"] = True  # each face of a lift is the lift of a face (triangle condition)
    if "pure" in base._cache:  # lifts of facets are maximal and cover every lift
        total._cache["pure"] = base._cache["pure"]
    projection = dict(enumerate(b for b in ordered for _ in range(d)))
    sheet = dict(enumerate(s for _ in ordered for s in range(d)))
    return CoverComplex(total, base, projection, sheet, v)


def verify_covering(c: CoverComplex) -> bool:
    """Check the star condition: the projection p maps the closed star of
    each total vertex t isomorphically onto the closed star of p(t).

    No star is built.  On valid complexes this holds at t exactly when
    (a) the step table sends the neighbours of t one-to-one onto those of p(t),
    (b) t lies in as many simplices as p(t), and
    (c) every total simplex of dimension >= 2 projects to a stored base simplex.
    No vertex has more step-table entries than neighbours or, given (a) and
    (c), more simplices than p(t), so the one-to-one part of (a) and all of
    (b) are checked as two totals.
    """
    if not c.total.vertices:
        return False
    if {c.projection[t] for t in c.total.vertices} != set(c.base.vertices):
        return False
    _require_valid(c.base)
    _require_valid(c.total)
    projection = c.projection
    step = _total_adjacency(c)
    base_adj = c.base.adjacency()
    if any(nbrs.keys() != base_adj[projection[t]] for t, nbrs in step.items()):
        return False
    if sum(map(len, step.values())) != 2 * len(c.total.edges()):
        return False
    base_cofaces = Counter(chain.from_iterable(c.base.simplices))
    if sum(map(len, c.total.simplices)) != sum(base_cofaces[projection[t]] for t in step):
        return False
    base_simplices = c.base.simplices
    return all(
        tuple(sorted([projection[x] for x in s])) in base_simplices for s in c.total.simplices if len(s) > 2
    )


def double_of_cover(L: SimplicialComplex, c: CoverComplex) -> CoverComplex:
    """Pull a cover of L back along the retraction of the spherical double.

    The pullback of the double of L along the cover is the double of the
    cover's total space, projecting sign-compatibly; the degree is preserved.
    """
    if c.base != L:
        raise CoverError("cover does not lie over the given complex")
    doubled_base = spherical_double(L)
    doubled_total = spherical_double(c.total)
    projection = {}
    sheet = {}
    for t in doubled_total.complex.vertices:
        sign = t % 2
        upstairs = (t - sign) // 2
        projection[t] = 2 * c.projection[upstairs] + sign
        sheet[t] = c.sheet[upstairs]
    return CoverComplex(doubled_total.complex, doubled_base.complex, projection, sheet, None)


def _total_adjacency(c: CoverComplex) -> dict[int, dict[int, int]]:
    """Total vertex -> {base neighbour: total neighbour}, built once per cover.

    It is read on unverified covers too: two neighbours of t over the same base
    vertex leave one entry, a collision that :func:`verify_covering` catches by
    counting entries against the edges of the total space.
    """
    if "step" not in c._cache:
        step: dict[int, dict[int, int]] = {t: {} for t in c.total.vertices}
        for u, w in c.total.edges():
            step[u][c.projection[w]] = w
            step[w][c.projection[u]] = u
        c._cache["step"] = step
    return c._cache["step"]


def lift_loop(c: CoverComplex, loop: Sequence[int], start_sheet: int) -> tuple[bool, int]:
    """Trace a based loop of the base through the cover from a start sheet.

    Returns (closed, end_sheet).  The end sheet equals the image of the start
    sheet under the product of edge voltages along the loop.  When every
    step-table key at each total vertex t is a base neighbour of p(t), as on
    every cover that :func:`build_cover`, :func:`double_of_cover` or
    :func:`verify_covering` accepts, a lookup t = step[t][w] lies over w and so
    proves (p(t), w) a base edge: the walk is one lookup per step.  Any failed
    lookup, and every step on other covers, goes through one pass that checks
    each step against the base and lifts it, so a non-edge is reported before
    a bad start sheet, and both before a broken lift.
    """
    if not isinstance(loop, tuple):
        loop = tuple(loop)
    if not loop or loop[0] != loop[-1]:
        raise CoverError("loop must be a closed vertex path (first = last)")
    cached = c._cache.get("lift")
    if cached is None:
        adj, step, projection = c.base.adjacency(), _total_adjacency(c), c.projection
        over_edges = all(nbrs.keys() <= adj.get(projection[t], frozenset()) for t, nbrs in step.items())
        cached = c._cache["lift"] = (adj, step, c.fibers(), c.sheet, over_edges)
    adj, step, fibers, sheet, over_edges = cached
    if over_edges:
        steps = iter(loop)
        try:
            t = fibers[next(steps)][start_sheet]
            for w in steps:
                t = step[t][w]
        except KeyError:
            pass
        else:
            end = sheet[t]
            return end == start_sheet, end
    u = loop[0]
    if u not in adj:
        raise CoverError(f"{u} is not a vertex of the base")
    t = start = fibers[u].get(start_sheet)
    for w in loop[1:]:
        if w not in adj[u]:
            raise CoverError(f"({u}, {w}) is not an edge of the base")
        if t is not None:
            t = step[t].get(w)
        u = w
    if start is None:
        raise CoverError(f"sheet {start_sheet} out of range over vertex {loop[0]}")
    if t is None:
        raise CoverError("lift broke: not a covering complex")
    end = sheet[t]
    return end == start_sheet, end


def deck_group(c: CoverComplex) -> tuple[bool, list[tuple[int, ...]] | None]:
    """Whether the cover is regular, and its deck group when it is.

    Each point of the fibre through the least total vertex t0 is tried as the
    image of t0; unique lifting extends the choice to at most one
    projection-commuting simplicial automorphism.  The cover is regular when
    all ``degree`` choices extend, and the group is the sorted sheet
    permutations these deck transformations induce over the least base vertex.
    For a voltage cover they are the permutations that commute with every
    voltage, which agree with the voltage image only when it is abelian.
    """
    total = c.total
    _connected_tree(total, "deck group requires a connected cover")
    step = _total_adjacency(c)
    # Lifting maps each edge that the step table holds to an edge, and the
    # vertex bijection maps vertices to vertices.  So when the step table holds
    # every edge from both ends, every edge is stored sorted and the
    # 0-simplices are exactly the vertices, only the simplices of dimension
    # >= 2 are left to check.
    edges = total.edges()
    checked = total.simplices
    if (
        sum(map(len, step.values())) == 2 * len(edges)
        and all(u < w for u, w in edges)
        and total.simplices_of_dim(0) == tuple((t,) for t in sorted(total.vertices))
    ):
        checked = [s for k in range(2, total.dimension + 1) for s in total.simplices_of_dim(k)]
    t0 = min(total.vertices)
    found = []
    for target in sorted(t for t in total.vertices if c.projection[t] == c.projection[t0]):
        f = {t0: target}
        stack = [t0]
        ok = True
        while stack and ok:
            x = stack.pop()
            for w, y in step[x].items():
                img = step[f[x]].get(w)
                if img is not None and y not in f:
                    f[y] = img
                    stack.append(y)
                elif img is None or f[y] != img:
                    ok = False
                    break
        if (
            ok
            and len(f) == len(total.vertices)
            and len(set(f.values())) == len(f)
            and all(tuple(sorted(f[x] for x in s)) in total.simplices for s in checked)
        ):
            found.append(f)
    if len(found) != c.degree:
        return False, None
    fiber = c.fibers()[min(c.base.vertices)]
    return True, sorted(tuple(c.sheet[f[fiber[s]]] for s in range(len(fiber))) for f in found)


def normal_generators(c: CoverComplex) -> list[list[int]]:
    """Base loops whose lifts generate the fundamental group of the total space.

    One loop per non-tree edge of a spanning tree of the total space: up the
    tree, across the edge, back down, then projected to the base.  The result
    normally generates the image subgroup of the projection.
    """
    parent = _connected_tree(c.total, "normal generators require a connected cover")

    def path_to_root(x: int) -> list[int]:
        path = [x]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    loops = []
    for u, w in c.total.edges():
        if parent[w] == u or parent[u] == w:
            continue  # a tree edge
        up = path_to_root(u)[::-1]  # root .. u
        down = path_to_root(w)  # w .. root
        total_loop = up + down
        loops.append([c.projection[x] for x in total_loop])
    loops.sort(key=lambda p: (len(p), p))
    return loops


def double_cover_voltages(base: SimplicialComplex) -> list[VoltageAssignment]:
    """All connected double covers of the base, as voltage assignments.

    Solves, over GF(2), for assignments of sheet swaps to non-tree edges whose
    product around every triangle is trivial; each nonzero solution gives a
    connected degree-2 cover.  For a closed non-orientable surface with
    2-torsion first homology of rank one, the unique solution is the
    orientation double cover.
    """
    _require_valid(base)
    tree = spanning_tree(base)
    nontree = [e for e in base.edges() if e not in tree]
    index = {e: i for i, e in enumerate(nontree)}
    rows = []
    for tri in base.simplices_of_dim(2):
        u, v, w = tri
        mask = 0
        for e in ((u, v), (v, w), (u, w)):
            if e in index:
                mask ^= 1 << index[e]
        rows.append(mask)
    # GF(2) row reduction to a basis of the solution space.
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                break
    free_bits = [i for i in range(len(nontree)) if i not in pivots]
    solutions = []
    for combo in range(1, 1 << len(free_bits)):
        x = 0
        for j, bit in enumerate(free_bits):
            if combo >> j & 1:
                x |= 1 << bit
        for lead in sorted(pivots):
            row = pivots[lead]
            # back-substitute: parity of the non-lead support decides the lead bit
            if bin(row & x & ~(1 << lead)).count("1") % 2:
                x |= 1 << lead
        solutions.append(x)
    swap = (1, 0)
    out = []
    for x in sorted(set(solutions)):
        if x == 0:
            continue
        voltages = {e: swap for e, i in index.items() if x >> i & 1}
        out.append(VoltageAssignment(base, 2, voltages))
    return out


def dump_voltage(v: VoltageAssignment) -> str:
    return _json_text(v.to_json_dict())


def load_voltage(path) -> VoltageAssignment:
    return VoltageAssignment.from_json_dict(_read_json(path))
