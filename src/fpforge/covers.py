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
their own.  Walk lifting and the covering check read the total space, its
projection and its sheet labels, and compare them with the base; they never
read voltages, so they treat every cover alike, and share one step table per
cover, indexed by position among the sorted total vertices.  Where every total
edge lies over a base edge (checked once per cover), a walk lifts with one
lookup per step; the covering check maps simplices one dimension, and one
vertex column, at a time.  The deck group reads the voltages alone.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, count, repeat
from operator import add, getitem, itemgetter, le, lt, ne
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
        """The common fiber size, read off :meth:`fibers` once."""
        try:
            return self._cache["degree"]
        except KeyError:
            sizes = set(map(len, self.fibers().values()))
        if len(sizes) != 1:
            raise CoverError("fibers have unequal sizes; no well-defined degree")
        self._cache["degree"] = degree = sizes.pop()
        return degree

    def fibers(self) -> dict[int, dict[int, int]]:
        """Base vertex -> {sheet: total vertex}; CoverError names a total vertex off the fibers or their sheets."""
        if "fibers" not in self._cache:
            fibers: dict[int, dict[int, int]] = {v: {} for v in self.base.vertices}
            for t in sorted(self.total.vertices):
                b, s = self.projection[t], self.sheet.get(t)
                if b not in fibers:
                    raise CoverError(f"total vertex {t} lies over {b}, which is not a base vertex")
                if s is None:
                    raise CoverError(f"total vertex {t} has no sheet")
                if s in fibers[b]:
                    raise CoverError(f"total vertices {fibers[b][s]} and {t} share sheet {s} over {b}")
                fibers[b][s] = t
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
    already sorted.  So are the lifts from one anchor sheet, taken in base
    order, and one sort per dimension merges the d runs into the layer that
    the total is handed.
    """
    base = v.base
    d = v.degree
    ordered = sorted(base.vertices)
    order = {b: i for i, b in enumerate(ordered)}
    layers = {}
    for k in range(base.dimension + 1):
        anchors, *others = cols = list(zip(*base.simplices_of_dim(k)))
        offsets = [[order[b] * d for b in col] for col in cols]
        perms = [list(map(v.voltage.__getitem__, zip(anchors, col))) for col in others]
        layer = layers[k + 1] = []
        for s in range(d):
            sheets = [repeat(s), *(map(itemgetter(s), p) for p in perms)]
            layer.extend(zip(*[map(add, o, t) for o, t in zip(offsets, sheets)]))
        layer.sort()
    # Valid: each face of a lift is the lift of a face (triangle condition).
    total = SimplicialComplex._layered(range(len(ordered) * d), layers)
    if "pure" in base._cache:  # lifts of facets are maximal and cover every lift
        total._cache["pure"] = base._cache["pure"]
    projection = dict(enumerate(b for b in ordered for _ in range(d)))
    sheet = dict(enumerate(s for _ in ordered for s in range(d)))
    return CoverComplex(total, base, projection, sheet, v)


def verify_covering(c: CoverComplex) -> bool:
    """Check the star condition: the projection p maps the closed star of
    each total vertex t isomorphically onto the closed star of p(t).

    Sheets must label each fiber one-to-one.  No star is built.  On valid
    complexes this holds at t exactly when
    (a) the step table sends the neighbours of t one-to-one onto those of p(t),
    (b) t lies in as many simplices as p(t), and
    (c) every total simplex of dimension >= 2 projects to a stored base simplex.
    No vertex has more step-table entries than neighbours or, given (a) and
    (c), more simplices than p(t), so the one-to-one part of (a) and all of
    (b) are checked as two totals, and (c) one dimension at a time.
    """
    if not c.total.vertices:
        return False
    if {c.projection[t] for t in c.total.vertices} != set(c.base.vertices):
        return False
    _require_valid(c.base)
    _require_valid(c.total)
    try:
        c.fibers()
    except CoverError:
        return False
    verts, _, rows = _total_adjacency(c)
    over = list(map(c.projection.__getitem__, verts))
    if any(map(ne, map(dict.keys, rows), map(c.base.adjacency().__getitem__, over))):
        return False
    if sum(map(len, rows)) != 2 * len(c.total.edges()):
        return False
    base_cofaces = Counter(chain.from_iterable(c.base.simplices))
    if sum(map(len, c.total.simplices)) != sum(map(base_cofaces.__getitem__, over)):
        return False
    return _maps_into(c.projection, map(c.total.simplices_of_dim, range(2, c.total.dimension + 1)), c.base.simplices)


def _maps_into(vmap: Mapping[int, int] | Sequence[int], layers, target: frozenset) -> bool:
    """Whether ``vmap`` sends each simplex of ``layers`` (each of one size) into ``target``, a vertex column
    at a time; only a layer whose images stop rising somewhere has them sorted."""
    for layer in layers:
        images = [list(map(vmap.__getitem__, col)) for col in zip(*layer)]
        lifted = zip(*images)
        if not all(map(all, map(map, repeat(lt), images, images[1:]))):
            lifted = map(tuple, map(sorted, lifted))
        if not target.issuperset(lifted):
            return False
    return True


def double_of_cover(L: SimplicialComplex, c: CoverComplex) -> CoverComplex:
    """Pull a cover of L back along the retraction of the spherical double.

    The pullback of the double of L along the cover is the double of the
    cover's total space, projecting sign-compatibly; the degree is preserved.
    """
    if c.base != L:
        raise CoverError("cover does not lie over the given complex")
    c.fibers()  # every total vertex has a sheet, or CoverError names one that does not
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


def _total_adjacency(c: CoverComplex) -> tuple[list[int], dict[int, int], list[dict[int, int]]]:
    """The step table, built once per cover: the sorted total vertices, their positions,
    and per position i, base neighbour -> position of the neighbour over it of the vertex at i.

    It is read on unverified covers too: two neighbours of a vertex over the
    same base vertex leave one entry, a collision that :func:`verify_covering`
    catches by counting entries against the edges of the total space.
    """
    if "step" not in c._cache:
        verts = sorted(c.total.vertices)
        position = dict(zip(verts, count()))
        rows: list[dict[int, int]] = [{} for _ in verts]
        for u, w in c.total.edges():
            i, j = position[u], position[w]
            rows[i][c.projection[w]] = j
            rows[j][c.projection[u]] = i
        c._cache["step"] = verts, position, rows
    return c._cache["step"]


def lift_loop(c: CoverComplex, loop: Sequence[int], start_sheet: int) -> tuple[bool, int]:
    """Trace a based loop of the base through the cover from a start sheet.

    Returns (closed, end_sheet).  The end sheet equals the image of the start
    sheet under the product of edge voltages along the loop.  When every
    step-table key at each total vertex t is a base neighbour of p(t), as on
    every cover that :func:`build_cover`, :func:`double_of_cover` or
    :func:`verify_covering` accepts, a lookup t = rows[t][w] lies over w and
    so proves (p(t), w) a base edge: the walk, one lookup per step, comes
    before any argument check.  A failed walk, and every walk on other covers,
    goes through one pass that checks and lifts each step, so a non-edge is
    reported before a bad start sheet, and both before a broken lift.
    """
    if "lift" not in c._cache:
        fibers = c.fibers()
        verts, position, rows = _total_adjacency(c)
        starts = {b: {s: position[t] for s, t in fiber.items()} for b, fiber in fibers.items()}
        over = map(c.base.adjacency().get, map(c.projection.__getitem__, verts), repeat(frozenset()))
        ends = list(map(c.sheet.__getitem__, verts))
        c._cache["lift"] = (starts, rows, ends, all(map(le, map(dict.keys, rows), over)))
    starts, rows, ends, over_edges = c._cache["lift"]
    if over_edges:
        try:
            t = starts[loop[0]][start_sheet]
            for w in loop[1:]:
                t = rows[t][w]
            if loop[0] == loop[-1]:
                return ends[t] == start_sheet, ends[t]
        except (LookupError, TypeError):
            pass
    if not isinstance(loop, tuple):
        loop = tuple(loop)
    if not loop or loop[0] != loop[-1]:
        raise CoverError("loop must be a closed vertex path (first = last)")
    adj = c.base.adjacency()
    u = loop[0]
    if u not in adj:
        raise CoverError(f"{u} is not a vertex of the base")
    t = start = starts[u].get(start_sheet)
    for w in loop[1:]:
        if w not in adj[u]:
            raise CoverError(f"({u}, {w}) is not an edge of the base")
        if t is not None:
            t = rows[t].get(w)
        u = w
    if start is None:
        raise CoverError(f"sheet {start_sheet} out of range over vertex {loop[0]}")
    if t is None:
        raise CoverError("lift broke: not a covering complex")
    return ends[t] == start_sheet, ends[t]


def deck_group(c: CoverComplex) -> tuple[bool, list[tuple[int, ...]] | None]:
    """Whether the cover is regular, and its deck group when it is, read off the voltages.

    A deck transformation moves every fiber by one sheet permutation f with
    f(p(s)) = p(f(s)) for every voltage p.  The cover is connected exactly when
    the non-tree voltages act transitively, so f is fixed by f(0): each choice
    is spread from sheet 0 and checked on every sheet, O(d^2 * generators) in
    all.  The cover is regular when all d pass.  These commute with every
    voltage, so they agree with the voltage image only when it is abelian.
    """
    d = c.degree
    if c.assignment is None:
        raise CoverError("deck group requires a cover built from voltages")
    if c.assignment.degree != d:
        raise CoverError(f"fibers hold {d} sheets, but the voltages have degree {c.assignment.degree}")
    voltages = set(c.assignment.nontree_voltages().values())
    reached, steps = [0], []  # steps (s, r, p): sheet s = p(r) is first reached from sheet r
    for r in reached:
        for p in voltages:
            if p[r] not in reached:
                reached.append(p[r])
                steps.append((p[r], r, p))
    if len(reached) != d:
        raise CoverError("deck group requires a connected cover")
    group = []
    for target in range(d):
        f = [target] * d
        for s, r, p in steps:
            f[s] = p[f[r]]
        if any(list(map(f.__getitem__, p)) != list(map(p.__getitem__, f)) for p in voltages):
            return False, None
        group.append(tuple(f))
    return True, group


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
    # Each nonzero choice of the free bits extends to one distinct nonzero solution.
    free_bits = [i for i in range(len(nontree)) if i not in pivots]
    solutions = []
    for combo in range(1, 1 << len(free_bits)):
        x = sum(1 << bit for j, bit in enumerate(free_bits) if combo >> j & 1)
        for lead in sorted(pivots):
            # back-substitute: the lead bit is still clear, so the parity of row & x decides it
            if bin(pivots[lead] & x).count("1") % 2:
                x |= 1 << lead
        solutions.append(x)
    return [VoltageAssignment(base, 2, {e: (1, 0) for e, i in index.items() if x >> i & 1}) for x in sorted(solutions)]


def dump_voltage(v: VoltageAssignment) -> str:
    return _json_text(v.to_json_dict())


def load_voltage(path) -> VoltageAssignment:
    return VoltageAssignment.from_json_dict(_read_json(path))
