"""Finite covers of simplicial complexes from permutation voltages.

A voltage assignment labels each directed edge of a connected base complex
with a permutation of the sheets {0..d-1}, inverse on reversed edges and
identity on a spanning tree.  The triangle condition (the product around
each 2-simplex is the identity) makes simplex lifting consistent, so the
total space is again a simplicial complex and the projection is a covering
map of degree d.

A cover is its voltage assignment; every cover here is one, doubles included.
Total vertex t lies over the (t // d)-th base vertex in sorted order, on
sheet t % d, so projection, sheets and fibers are arithmetic.  A step table
read off the voltages is the total's 1-skeleton: walks lift on it, one
lookup per step, and the normal generators walk it.  The total space is
built only when read, never by the deck group, lifts or normal generators.
Covers built this way are exactly those induced by homomorphisms from the
fundamental group of the base to a symmetric group; the total space is
connected exactly when the voltage image is transitive, which is not
assumed.  The covering check :func:`is_covering_map` takes a total space,
base, projection and sheets as plain data, so it judges any vertex map.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, count, repeat
from operator import add, getitem, itemgetter, lt, ne
from types import MappingProxyType
from typing import Mapping, Sequence

from .complex_core import (
    ComplexError,
    FormatError,
    SimplicialComplex,
    _check_closure_cap,
    _json_field,
    _json_items,
    _json_keyed,
    _json_list,
    _json_object,
    _json_text,
    _read_json,
    _require_valid,
    _tree_parents,
    _walk,
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

        ident = perm_identity(self.degree)
        edge_set = set(base.edges())
        full = dict.fromkeys([*edge_set, *((v, u) for u, v in edge_set)], ident)
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

    @classmethod
    def _trusted(cls, base: SimplicialComplex, degree: int, voltage: dict) -> "VoltageAssignment":
        """An assignment with the full table ``voltage``, valid by construction, so no check is run."""
        v = cls.__new__(cls)
        v.base, v.degree, v.spanning_tree, v.voltage = base, degree, spanning_tree(base), voltage
        return v

    def __eq__(self, other) -> bool:
        if not isinstance(other, VoltageAssignment):
            return NotImplemented
        return (self.base, self.degree, self.voltage) == (other.base, other.degree, other.voltage)

    def __hash__(self) -> int:
        return hash((self.base, self.degree, tuple(sorted(self.voltage.items()))))

    def nontree_voltages(self) -> dict[tuple[int, int], tuple[int, ...]]:
        ident = perm_identity(self.degree)
        return {e: p for e in self.base.edges() if e not in self.spanning_tree and (p := self.voltage[e]) != ident}

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
        listed = []
        items = _json_list(data.get("voltages", []), f"{path}.voltages")
        for i, item in enumerate(items):
            at = f"{path}.voltages[{i}]"
            item = _json_object(item, at)
            edge = _json_items(_json_field(item, "edge", at), f"{at}.edge")
            if len(edge) != 2:
                raise FormatError(f"{at}.edge: expected 2 vertices, got {len(edge)}")
            perm = _json_items(_json_field(item, "perm", at), f"{at}.perm")
            listed.append(((min(edge), max(edge)), f"{at}.edge", (tuple(edge), tuple(s - 1 for s in perm))))
        return cls(base, degree, dict(_json_keyed(listed).values()))


class CoverComplex:
    """The cover of a voltage assignment, read off the voltages.

    Total vertex t lies over ``ordered[t // d]``, the base vertices in sorted
    order, on sheet ``t % d``; so projection, sheets and fibers are arithmetic.
    The total space is built on first read and kept.
    """

    __slots__ = ("assignment", "base", "degree", "ordered", "_cache")

    def __init__(self, assignment: VoltageAssignment):
        self.assignment = assignment
        self.base = assignment.base
        self.degree = assignment.degree
        self.ordered = sorted(self.base.vertices)
        self._cache: dict = {}

    @property
    def projection(self) -> Mapping[int, int]:
        """Total vertex -> the base vertex it lies over; built once, a read-only view."""
        if "projection" not in self._cache:
            table = dict(enumerate(b for b in self.ordered for _ in range(self.degree)))
            self._cache["projection"] = MappingProxyType(table)
        return self._cache["projection"]

    @property
    def sheet(self) -> Mapping[int, int]:
        """Total vertex -> its sheet; built once, a read-only view."""
        if "sheet" not in self._cache:
            table = dict(enumerate(s for _ in self.ordered for s in range(self.degree)))
            self._cache["sheet"] = MappingProxyType(table)
        return self._cache["sheet"]

    def fibers(self) -> dict[int, dict[int, int]]:
        """Base vertex -> {sheet: total vertex}."""
        return {b: dict(enumerate(range(t, t + self.degree))) for b, t in zip(self.ordered, count(0, self.degree))}

    @property
    def total(self) -> SimplicialComplex:
        """The total space, built on first read and kept.

        A simplex lifts once per sheet: anchored at its least vertex, the other
        vertices ride the anchor's voltages, so the triangle condition makes the
        lift independent of the anchor and the total valid by construction.
        Lifts are built a dimension and a vertex column at a time.  Total vertex
        order[b]·d + s grows with the base vertex b and the sheet s < d, so each
        lift is sorted, and so are the lifts from one anchor sheet in base order:
        one sort per dimension merges the d runs into the layer handed over.
        """
        if "total" in self._cache:
            return self._cache["total"]
        base, d, voltage = self.base, self.degree, self.assignment.voltage
        order = {b: i for i, b in enumerate(self.ordered)}
        layers = {}
        for k in range(base.dimension + 1):
            anchors, *others = cols = list(zip(*base.simplices_of_dim(k)))
            offsets = [[order[b] * d for b in col] for col in cols]
            perms = [list(map(voltage.__getitem__, zip(anchors, col))) for col in others]
            layer = layers[k + 1] = []
            for s in range(d):
                sheets = [repeat(s), *(map(itemgetter(s), p) for p in perms)]
                layer.extend(zip(*[map(add, o, t) for o, t in zip(offsets, sheets)]))
            layer.sort()
        # Valid: each face of a lift is the lift of a face (triangle condition).
        total = self._cache["total"] = SimplicialComplex._layered(range(len(order) * d), layers)
        if "pure" in base._cache:  # lifts of facets are maximal and cover every lift
            total._cache["pure"] = base._cache["pure"]
        return total

    def __repr__(self) -> str:
        return f"CoverComplex(degree {self.degree} over f={self.base.f_vector()})"


def build_cover(v: VoltageAssignment) -> CoverComplex:
    """The cover of a voltage assignment; its total space is built when first read."""
    return CoverComplex(v)


def verify_covering(c: CoverComplex) -> bool:
    """Whether the built total space of ``c`` covers its base (see :func:`is_covering_map`)."""
    return is_covering_map(c.total, c.base, c.projection, c.sheet)


def is_covering_map(
    total: SimplicialComplex, base: SimplicialComplex, projection: Mapping[int, int], sheet: Mapping[int, int]
) -> bool:
    """Check the star condition: the projection p maps the closed star of
    each total vertex t isomorphically onto the closed star of p(t).

    Sheets must label each fiber one-to-one.  No star is built.  On valid
    complexes this holds at t exactly when
    (a) p sends the neighbours of t one-to-one onto those of p(t),
    (b) t lies in as many simplices as p(t), and
    (c) every total simplex of dimension >= 2 projects to a stored base simplex.
    No vertex has more projected neighbours than neighbours or, given (a) and
    (c), more simplices than p(t), so the one-to-one part of (a) and all of
    (b) are checked as two totals, and (c) one dimension at a time.
    """
    if not total.vertices:
        return False
    verts = sorted(total.vertices)
    over = list(map(projection.__getitem__, verts))
    if set(over) != set(base.vertices):
        return False
    _require_valid(base)
    _require_valid(total)
    sheets = list(map(sheet.get, verts))
    if None in sheets or len(set(zip(over, sheets))) != len(verts):
        return False
    rows: dict[int, set[int]] = {t: set() for t in verts}  # total vertex -> where its neighbours lie
    for u, w in total.edges():
        rows[u].add(projection[w])
        rows[w].add(projection[u])
    if any(map(ne, rows.values(), map(base.adjacency().__getitem__, over))):
        return False
    if sum(map(len, rows.values())) != 2 * len(total.edges()):
        return False
    base_cofaces = Counter(chain.from_iterable(base.simplices))
    if sum(map(len, total.simplices)) != sum(map(base_cofaces.__getitem__, over)):
        return False
    return _maps_into(projection, map(total.simplices_of_dim, range(2, total.dimension + 1)), base.simplices)


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
    """Pull a cover of L back along the retraction x -> x // 2 of the spherical double.

    The pulled-back voltage on (x, y) is V(x // 2, y // 2).  It is already the
    identity on the double's canonical tree, which lies over the tree of L:
    the breadth-first walk of the double finds both copies of each vertex
    from the plus copy of its parent in L, and the root's minus copy from the
    plus copy of the root's least neighbour.  Pulling back keeps the triangle
    condition, so no check is rerun.  The total is the double of the cover's
    total, renumbered as a voltage cover, with the same sheets.  A point
    doubles to two points, which carry no voltages, so a one-vertex base is
    refused.
    """
    if c.base != L:
        raise CoverError("cover does not lie over the given complex")
    double = spherical_double(L).complex
    _connected_tree(double, "a one-vertex base doubles to two points, which carry no voltages")
    voltage, full = c.assignment.voltage, {}
    for x, y in double.edges():
        full[x, y], full[y, x] = voltage[x // 2, y // 2], voltage[y // 2, x // 2]
    return CoverComplex(VoltageAssignment._trusted(double, c.degree, full))


def _step_table(c: CoverComplex) -> list[dict[int, int]]:
    """Per total vertex t = order[b]·d + s: base neighbour w of b -> order[w]·d + V(b, w)(s).  The values of
    row t are the neighbours of t in the total space, so the table is its 1-skeleton."""
    adj, voltage = c.base.adjacency(), c.assignment.voltage
    start = dict(zip(c.ordered, count(0, c.degree)))
    return [{w: start[w] + voltage[b, w][s] for w in adj[b]} for b in c.ordered for s in range(c.degree)]


def lift_loop(c: CoverComplex, loop: Sequence[int], start_sheet: int) -> tuple[bool, int]:
    """Trace a based loop of the base through the cover from a start sheet.

    Returns (closed, end_sheet).  The end sheet equals the image of the start
    sheet under the product of edge voltages along the loop.  The keys of the
    step table, read off the voltages once per cover, are base edges, so the
    walk, one lookup per step, comes before any argument check.  A failed walk
    rereads the arguments: an open loop, an unknown vertex, a non-edge and a
    bad start sheet are reported in that order.
    """
    if "lift" not in c._cache:
        c._cache["lift"] = c.fibers(), _step_table(c), [t % c.degree for t in range(c.degree * len(c.ordered))]
    fibers, rows, ends = c._cache["lift"]
    try:
        t = fibers[loop[0]][start_sheet]
        for w in loop[1:]:
            t = rows[t][w]
        if loop[0] == loop[-1]:
            return ends[t] == start_sheet, ends[t]
    except (LookupError, TypeError):
        pass
    if not isinstance(loop, (list, tuple)):  # an iterator, say: walked again as a tuple
        return lift_loop(c, tuple(loop), start_sheet)
    if not loop or loop[0] != loop[-1]:
        raise CoverError("loop must be a closed vertex path (first = last)")
    adj = c.base.adjacency()
    if loop[0] not in adj:
        raise CoverError(f"{loop[0]} is not a vertex of the base")
    fibers[loop[0]].get(start_sheet)  # an unhashable sheet raises TypeError here, before any non-edge
    for u, w in zip(loop, loop[1:]):
        if w not in adj[u]:
            raise CoverError(f"({u}, {w}) is not an edge of the base")
    raise CoverError(f"sheet {start_sheet} out of range over vertex {loop[0]}")


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

    One loop per non-tree edge of the total's canonical spanning tree: up the
    tree, across the edge, back down, then projected to the base.  The result
    normally generates the image subgroup of the projection.  The tree is
    walked on the step table, so the total space is not built.
    """
    d, rows = c.degree, [row.values() for row in _step_table(c)]
    parent = _walk(rows, 0)
    if len(parent) != len(rows):
        raise CoverError("normal generators require a connected cover")

    def path_to_root(x: int) -> list[int]:
        path = [x]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    loops = []
    for u, row in enumerate(rows):
        for w in row:
            if u < w and parent[w] != u and parent[u] != w:  # a non-tree edge: root .. u, w .. root
                loops.append([c.ordered[x // d] for x in path_to_root(u)[::-1] + path_to_root(w)])
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
    bit = {e: 1 << i for i, e in enumerate(nontree)}
    rows = [bit.get((u, v), 0) ^ bit.get((v, w), 0) ^ bit.get((u, w), 0) for u, v, w in base.simplices_of_dim(2)]
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
    return [VoltageAssignment(base, 2, {e: (1, 0) for e, b in bit.items() if x & b}) for x in sorted(solutions)]


def dump_voltage(v: VoltageAssignment) -> str:
    return _json_text(v.to_json_dict())


def load_voltage(path) -> VoltageAssignment:
    return VoltageAssignment.from_json_dict(_read_json(path))
