"""Finite abstract simplicial complexes.

Complexes are stored as downward-closed sets of sorted vertex tuples over
integer vertex ids.  Everything here is purely combinatorial: no geometric
realization is ever built.  Values are immutable after construction and safe
to share between threads.

Because a complex never changes, derived tables are kept once in its
``_cache`` and handed out as tuples, frozensets, read-only mappings or
copies, so no caller can change a later answer: simplices by dimension
(sorted tuples), the 1-skeleton adjacency, the facet list, the coface index
(vertex -> stored simplices containing it, built in one pass, so facets,
links and the flag and local-cut-point tests cost O(N·d) for N simplices of
dimension d) and the canonical spanning tree.  ``from_facets``,
``covers.build_cover`` and ``spherical_double`` build a complex one
dimension at a time and hand over its sorted layers as the table by
dimension (``SimplicialComplex._layered``); a raw-constructed complex (the
constructor, :func:`link`, :func:`barycentric_subdivision`) buckets its
simplices by size on first use and sorts each bucket.  A passing
:func:`validate` is cached the same way, so the checks that guard the
constructions below validate each complex once.  ``from_facets`` closes its
facets downward layer by layer, taking the (n-1)-faces from the distinct
n-simplices, and records validity at construction, since its output is valid
by construction.  It also records purity (``"pure"``, the facet cardinality)
when its distinct facets have one size and cover every extra vertex; the
spherical double, covers and barycentric subdivision pass it on, and
:meth:`SimplicialComplex.facets` of a pure complex is its top layer, with no
face generated.  ``from_facets`` refuses, before closing anything, facets
whose closure could exceed ``_CLOSURE_CAP`` simplices (the sum of
2^|facet| - 1).

The module provides the predicates and constructions the rest of the package
leans on: flagness, links, barycentric subdivision, flag complexes realizing
a given finite presentation, and a local-cut-point test for complexes of
dimension at most two.  JSON is read and written only by :func:`_read_json`
and :func:`_json_text`, and a dataclass record's object has one key per
field (:func:`_record_json`).  The writer is byte-identical to the standard
library's indented encoder (a property test checks it against
``json.dumps(data, sort_keys=True, indent=2)``).  Input without the
documented shape raises :class:`FormatError`, naming the JSON path that failed.
The writer fills an array of equal-length arrays of exact ints (a facet list)
with one ``%`` format over all its integers.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from itertools import chain, combinations, compress, repeat
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence


class ComplexError(ValueError):
    """Raised when an operation receives an invalid complex or simplex."""


class FormatError(ValueError):
    """Raised when input JSON does not have the documented shape.

    The message starts with the JSON path that failed, such as
    ``$.facets[2]``.
    """


_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", type(None): "null",
}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _json_object(value, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise FormatError(f"{path}: expected an object, got {_json_type(value)}")
    return value


_REQUIRED = object()


def _json_field(data: Mapping, key: str, path: str, *kinds: type, default=_REQUIRED):
    """``data[key]``, of one of ``kinds`` when any are given; ``default`` when absent, if given."""
    if key not in data:
        if default is _REQUIRED:
            raise FormatError(f"{path}.{key}: missing")
        return default
    return _json_value(data[key], f"{path}.{key}", *kinds) if kinds else data[key]


def _json_value(value, path: str, *kinds: type):
    """``value`` if its exact type is one of ``kinds``, so a boolean is no integer."""
    if type(value) not in kinds:
        expected = " or ".join(_JSON_TYPES[k] for k in kinds)
        raise FormatError(f"{path}: expected {expected}, got {_json_type(value)}")
    return value


def _json_list(value, path: str) -> Sequence:
    if not isinstance(value, (list, tuple)):
        raise FormatError(f"{path}: expected an array, got {_json_type(value)}")
    return value


# The two array checks below test types in one pass and build element paths
# only to report a failure, so valid input costs little more than reading it.


def _json_items(value, path: str, kind: type = int) -> Sequence:
    """An array whose items all have type ``kind``."""
    values = _json_list(value, path)
    if not all(type(x) is kind for x in values):
        for i, x in enumerate(values):
            _json_value(x, f"{path}[{i}]", kind)
    return values


def _json_keyed(items: Iterable[tuple[object, str, object]]) -> dict:
    """{key: value} from (key, path, value) triples, in order; a repeated key names both of its paths."""
    out, first = {}, {}
    for key, path, value in items:
        if key in first:
            raise FormatError(f"{path}: repeats {first[key]}")
        first[key], out[key] = path, value
    return out


def _json_int_arrays(value, path: str) -> Sequence[Sequence[int]]:
    arrays = _json_list(value, path)
    if not ({type(a) for a in arrays} <= {list, tuple} and {type(x) for a in arrays for x in a} <= {int}):
        for i, a in enumerate(arrays):
            _json_items(a, f"{path}[{i}]")
    return arrays


def _normalize_simplex(simplex: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(int(v) for v in simplex)))


# ``from_facets`` refuses facets whose downward closure could hold more
# simplices than this: the sum of 2^|facet| - 1 over the distinct facets.
# A voltage assignment refuses a degree whose cover would hold more.
_CLOSURE_CAP = 1 << 24


def _check_closure_cap(count: int, error: type[Exception], holds: str, counted: str) -> None:
    """Raise ``error`` when ``count`` simplices, counted as ``counted`` says, exceed ``_CLOSURE_CAP``."""
    if count > _CLOSURE_CAP:
        shown = count if count.bit_length() <= 64 else f"more than 2^{count.bit_length() - 1}"
        raise error(
            f"{holds} {shown} simplices ({counted}), "
            f"over the closure cap of {_CLOSURE_CAP} (2^{_CLOSURE_CAP.bit_length() - 1})"
        )


class SimplicialComplex:
    """A finite abstract simplicial complex on integer vertex ids.

    ``simplices`` holds every nonempty face as a strictly sorted tuple and is
    closed under taking nonempty subsets.  ``vertices`` is exactly the set of
    ids appearing in 0-simplices.  Use :meth:`from_facets` for checked
    construction; the raw constructor stores its arguments verbatim so that
    :func:`validate` can report broken invariants.
    """

    __slots__ = ("vertices", "simplices", "_cache")

    def __init__(self, vertices: Iterable[int], simplices: Iterable[Sequence[int]]):
        self.vertices = frozenset(vertices)
        self.simplices = frozenset(map(tuple, simplices))
        self._cache: dict = {}

    @classmethod
    def from_facets(cls, facets: Iterable[Sequence[int]], vertices: Iterable[int] = ()) -> "SimplicialComplex":
        """Build a complex from maximal faces, closing downward one layer at a time.

        The (n-1)-faces come from the distinct n-simplices, not from every
        subset of every facet.  Extra isolated ``vertices`` may be supplied;
        every vertex is stored as a 0-simplex.  Facets whose closure could
        hold more than ``_CLOSURE_CAP`` simplices raise :class:`ComplexError`
        before any face is made.
        """
        layers: dict[int, set[tuple[int, ...]]] = {}
        for f in set(map(tuple, map(sorted, map(set, map(map, repeat(int), facets))))):
            layers.setdefault(len(f), set()).add(f)
        if 0 in layers:
            raise ComplexError("empty facet")
        bound = sum(((1 << n) - 1) * len(fs) for n, fs in layers.items())
        _check_closure_cap(bound, ComplexError, "facets may close to", "the sum of 2^|facet| - 1")
        top = max(layers, default=0) if len(layers) <= 1 else None  # distinct facets of one size
        for n in range(max(layers, default=1), 1, -1):
            layers.setdefault(n - 1, set()).update(chain.from_iterable(map(combinations, layers[n], repeat(n - 1))))
        singletons = layers.pop(1, set())
        verts = sorted(set(map(int, vertices)).union(chain.from_iterable(singletons)))
        # Every vertex is a 0-simplex; each set is released once sorted.
        complex = cls._layered(verts, {1: zip(verts)} | {n: sorted(layers.pop(n)) for n in list(layers)})
        if top is not None and len(verts) == len(singletons):  # no extra vertex outside a facet
            complex._cache["pure"] = top
        return complex

    @classmethod
    def _layered(cls, vertices: Iterable[int], layers: Mapping[int, Iterable[tuple[int, ...]]]) -> "SimplicialComplex":
        """A complex recorded valid, with ``layers`` (cardinality -> sorted simplices, each strictly sorted)
        as its ``by_dim`` table, empty ones dropped; for constructors whose output is so by construction."""
        table = {n: layer for n, layer in zip(layers, map(tuple, layers.values())) if layer}
        complex = cls(vertices, ())
        complex.simplices = frozenset(chain.from_iterable(table.values()))
        complex._cache.update(by_dim=MappingProxyType(table), valid=True)
        return complex

    def _by_dim(self) -> Mapping[int, tuple[tuple[int, ...], ...]]:
        """Cardinality -> the sorted stored simplices of that cardinality, bucketed in one pass unless handed
        over by :meth:`_layered`.  The keys are not in cardinality order."""
        if "by_dim" not in self._cache:
            buckets: dict[int, list[tuple[int, ...]]] = {}
            for s in self.simplices:
                buckets.setdefault(len(s), []).append(s)
            self._cache["by_dim"] = MappingProxyType({n: tuple(sorted(b)) for n, b in buckets.items()})
        return self._cache["by_dim"]

    @property
    def dimension(self) -> int:
        """Max simplex cardinality minus one; -1 for the empty complex."""
        return max(self._by_dim(), default=0) - 1

    def simplices_of_dim(self, k: int) -> tuple[tuple[int, ...], ...]:
        return self._by_dim().get(k + 1, ())

    def f_vector(self) -> tuple[int, ...]:
        table = self._cache.get("by_dim")  # layer lengths when the table exists; else counted, not sorted
        counts = Counter(map(len, self.simplices)) if table is None else dict(zip(table, map(len, table.values())))
        return tuple(map(counts.get, range(1, max(counts, default=0) + 1), repeat(0)))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))

    def has_simplex(self, simplex: Iterable[int]) -> bool:
        return _normalize_simplex(simplex) in self.simplices

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self.simplices_of_dim(1)

    def cofaces(self) -> Mapping[int, tuple[tuple[int, ...], ...]]:
        """Vertex -> the stored simplices that contain it, built in one pass.

        Read-only, like every cached table, so no caller can alter later answers.
        """
        if "cofaces" not in self._cache:
            index: dict[int, list[tuple[int, ...]]] = {}
            for s in self.simplices:
                for v in s:
                    index.setdefault(v, []).append(s)
            self._cache["cofaces"] = MappingProxyType({v: tuple(c) for v, c in index.items()})
        return self._cache["cofaces"]

    def adjacency(self) -> Mapping[int, frozenset[int]]:
        """Vertex -> its neighbours in the 1-skeleton, read-only."""
        if "adj" not in self._cache:
            adj: dict[int, list[int]] = {v: [] for v in self.vertices}
            for u, w in self.simplices_of_dim(1):
                adj[u].append(w)
                adj[w].append(u)
            self._cache["adj"] = MappingProxyType({v: frozenset(ns) for v, ns in adj.items()})
        return self._cache["adj"]

    def components(self) -> list[frozenset[int]]:
        adj, out, seen = self.adjacency(), [], set()
        for v in sorted(self.vertices):
            if v not in seen:
                out.append(frozenset(_walk(adj, v)))
                seen |= out[-1]
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def facets(self) -> list[tuple[int, ...]]:
        """Maximal simplices, sorted.

        A complex recorded pure at construction (``_cache["pure"]``, its facet
        cardinality) has its top-dimensional simplices as facets: the cached
        top layer, already sorted, or picked by size in one pass.  Otherwise a
        stored simplex is maximal unless it is a codimension-1 face of a
        stored simplex.  Only strictly sorted stored tuples and faces left by
        removing a vertex of the vertex set count, so an unvalidated complex
        gets the same answer as asking, for every vertex v, whether adding v
        gives a stored simplex.  A known-valid complex skips those checks.
        """
        top = self._cache.get("pure")
        if "facets" not in self._cache and top is not None and "by_dim" in self._cache:
            self._cache["facets"] = self._cache["by_dim"].get(top, ())  # a sorted layer: nothing to sort
        if "facets" not in self._cache:
            simplices = list(self.simplices)
            if top is not None:
                facets = compress(simplices, map(top.__eq__, map(len, simplices)))
            elif "valid" in self._cache:  # strictly sorted tuples on the vertex set: every face counts
                sizes = map(int.__sub__, map(len, simplices), repeat(1))
                facets = self.simplices.difference(chain.from_iterable(map(combinations, simplices, sizes)))
            else:
                normal = list(map(tuple, map(sorted, map(set, simplices))))
                strict = list(self.simplices.intersection(normal).difference([()]))
                faces = chain.from_iterable(map(combinations, strict, map(int.__sub__, map(len, strict), repeat(1))))
                lacking = chain.from_iterable(map(reversed, strict))  # combinations drops t[-1] first, t[0] last
                maximal = set(normal).difference(compress(faces, map(self.vertices.__contains__, lacking)))
                facets = compress(simplices, map(maximal.__contains__, normal))
            self._cache["facets"] = sorted(facets)
        return list(self._cache["facets"])  # a copy, so callers cannot alter the cache

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self.simplices == other.simplices

    def __hash__(self) -> int:
        return hash((self.vertices, self.simplices))

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, f={self.f_vector()})"

    def to_json_dict(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "facets": self.facets(),  # a fresh list of tuples, which the JSON writer spells as arrays
        }

    @classmethod
    def from_json_dict(cls, data: Mapping, path: str = "$") -> "SimplicialComplex":
        data = _json_object(data, path)
        return cls.from_facets(
            _json_int_arrays(data.get("facets", []), f"{path}.facets"),
            _json_items(data.get("vertices", []), f"{path}.vertices"),
        )


def validate(complex: SimplicialComplex) -> list[str]:
    """Report every violated invariant; an empty report means the complex is valid."""
    report: list[str] = []
    for s in sorted(complex.simplices):
        if len(s) == 0:
            report.append("empty simplex stored")
            continue
        if list(s) != sorted(set(s)):
            report.append(f"ordering: simplex {list(s)} is not strictly sorted")
            continue
        for v in s:
            if v not in complex.vertices:
                report.append(f"vertex {v} of simplex {list(s)} missing from vertex set")
        if len(s) > 1:
            for face in combinations(s, len(s) - 1):
                if face not in complex.simplices:
                    report.append(f"missing face {list(face)} of simplex {list(s)}")
    for v in sorted(complex.vertices):
        if (v,) not in complex.simplices:
            report.append(f"vertex {v} has no 0-simplex")
    return report


def _require_valid(complex: SimplicialComplex) -> None:
    """Raise unless ``complex`` is valid; a pass is cached on the instance."""
    if "valid" not in complex._cache:
        report = validate(complex)
        if report:
            raise ComplexError("invalid complex: " + "; ".join(report[:3]))
        complex._cache["valid"] = True


def is_flag(complex: SimplicialComplex) -> bool:
    """True iff every clique of the 1-skeleton spans a stored simplex."""
    _require_valid(complex)
    adj = complex.adjacency()
    simplices = complex.simplices
    # Every clique spans iff every stored simplex extends across each vertex
    # adjacent to all of it (induction on clique size, base = edges).
    for s in simplices:
        if len(s) < 2:
            continue
        common = adj[s[0]] & adj[s[1]]
        for v in s[2:]:
            common &= adj[v]
        if any(tuple(sorted(s + (w,))) not in simplices for w in common):
            return False
    return True


def link(complex: SimplicialComplex, simplex: Iterable[int]) -> SimplicialComplex:
    """The link of ``simplex``: all faces disjoint from it whose union with it is a face."""
    s = _normalize_simplex(simplex)
    if not s or s not in complex.simplices:
        raise ComplexError(f"simplex {list(s)} not in complex")
    sset = set(s)
    faces = [
        tuple(v for v in t if v not in sset)
        for t in complex.cofaces()[s[0]]
        if len(t) > len(s) and sset.issubset(t)
    ]
    verts = {v for f in faces for v in f}
    return SimplicialComplex(verts, faces)


def barycentric_subdivision(complex: SimplicialComplex) -> SimplicialComplex:
    """Order complex of the face poset: one vertex per simplex, faces are chains.

    The output is always a flag complex, recorded valid, and pure when the
    input is recorded pure.  New vertex ids are assigned by sorting the input
    simplices by (dimension, lexicographic order).
    """
    _require_valid(complex)
    simps = sorted(complex.simplices, key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(simps)}
    chains_by_top: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    all_chains: list[tuple[int, ...]] = []
    for s in simps:
        own: list[tuple[int, ...]] = [(index[s],)]
        if len(s) > 1:
            for k in range(1, len(s)):
                for face in combinations(s, k):
                    for c in chains_by_top[face]:
                        own.append(c + (index[s],))
        chains_by_top[s] = own
        all_chains.extend(own)
    sd = SimplicialComplex(range(len(simps)), all_chains)
    sd._cache["valid"] = True  # ids rise along a chain, and every subchain ends at a simplex, so is stored
    if "pure" in complex._cache:  # every chain extends to a maximal chain of faces of a facet
        sd._cache["pure"] = complex._cache["pure"]
    return sd


def _walk(adj: Mapping[int, Iterable[int]] | Sequence[Iterable[int]], root: int) -> dict[int, int | None]:
    """Vertex -> parent (None at the root) in the breadth-first tree of ``root``'s component, neighbours
    taken in sorted order; ``adj[v]`` holds the neighbours of v."""
    parent: dict[int, int | None] = {root: None}
    queue = [root]
    for v in queue:
        for w in sorted(adj[v]):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return parent


def _tree_parents(complex: SimplicialComplex) -> Mapping[int, int | None]:
    """Vertex -> parent (None at the root) in the canonical spanning tree, built once, read-only.

    Breadth-first from the smallest vertex, neighbours in sorted order.  Raises on disconnected complexes.
    """
    if "tree" not in complex._cache:
        parent = _walk(complex.adjacency(), min(complex.vertices)) if complex.vertices else {}
        if len(parent) != len(complex.vertices):
            raise ComplexError("complex is disconnected")
        complex._cache["tree"] = MappingProxyType(parent)
    return complex._cache["tree"]


def spanning_tree(complex: SimplicialComplex) -> frozenset[tuple[int, int]]:
    """Edges of the canonical spanning tree of the 1-skeleton (see :func:`_tree_parents`)."""
    return frozenset((min(v, p), max(v, p)) for v, p in _tree_parents(complex).items() if p is not None)


def has_no_local_cut_points(complex: SimplicialComplex) -> bool:
    """Local-cut-point test for connected complexes of dimension <= 2.

    A vertex passes when its link is nonempty and connected; an edge passes
    when it lies in at least one triangle.  Removing a vertex from its open
    star retracts to the link, and a free edge's midpoint separates its
    neighborhood, so these are the right dimension-<=2 surrogates.
    """
    _require_valid(complex)
    if complex.dimension > 2:
        raise ComplexError("unsupported dimension: local cut point test covers dimension <= 2")
    if not complex.is_connected():
        raise ComplexError("complex is disconnected")
    for v in sorted(complex.vertices):
        lk = link(complex, (v,))
        if not lk.vertices or not lk.is_connected():
            return False
    cofaces = complex.cofaces()
    for u, w in complex.simplices_of_dim(1):
        if not any(len(t) == 3 and w in t for t in cofaces[u]):
            return False
    return True


class GroupPresentationInput:
    """A finite presentation given by a generator count and relator words.

    Relator words are sequences of signed 1-based generator indices and must
    be freely reduced.
    """

    __slots__ = ("generator_count", "relators")

    def __init__(self, generator_count: int, relators: Iterable[Sequence[int]]):
        if generator_count < 0:
            raise ComplexError("generator count must be nonnegative")
        self.generator_count = int(generator_count)
        rels = []
        for word in relators:
            w = tuple(int(x) for x in word)
            for a, b in zip(w, w[1:]):
                if a == -b:
                    raise ComplexError(f"relator {list(w)} is not freely reduced")
            for x in w:
                if x == 0 or abs(x) > self.generator_count:
                    raise ComplexError(f"letter {x} out of range in relator {list(w)}")
            rels.append(w)
        self.relators = tuple(rels)


def flagify_presentation_complex(input: GroupPresentationInput) -> SimplicialComplex:
    """A finite flag complex whose fundamental group is the presented group.

    Construction: a wedge of 3-cycles (one per generator, so every loop is
    already simplicial), then for each nonempty relator a coned polygon joined
    to the relator's boundary path by a zigzag collar.  The collar is a
    triangulated mapping cylinder of the attaching map, so homotopy type is
    preserved even when the path revisits edges.  One barycentric subdivision
    makes the result flag: it is the order complex of the face poset, and an
    order complex is flag, since pairwise comparable faces form a chain.
    """
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
    return barycentric_subdivision(complex)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:  # a ValueError too, reported as it always was
            raise
        except (RecursionError, ValueError) as exc:  # not UTF-8, nested too deeply, or an integer past the digit limit
            raise FormatError(f"{path}: {exc}") from None


_SCALAR_TEXT = {  # json.dumps spells floats (NaN and the infinities too) as the indented encoder does
    str: json.encoder.encode_basestring_ascii, int: int.__repr__, float: json.dumps,
    bool: ("false", "true").__getitem__, type(None): lambda _: "null",
}


def _json_chunk(value, nl: str) -> str:
    """``value`` as JSON text whose line breaks are ``nl``, so nested lines carry its indent."""
    kind = type(value)
    if kind in _SCALAR_TEXT:
        return _SCALAR_TEXT[kind](value)
    inner = nl + "  "
    if kind is list or kind is tuple:
        kinds = set(map(type, value))
        sizes = set(map(len, value)) if kinds <= {list, tuple} else ()
        if len(sizes) == 1 and set(map(type, chain.from_iterable(value))) == {int}:
            # Equal-length arrays of exact ints: one format string, filled in one call.
            deeper = inner + "  "
            row = "[" + deeper + ("%d," + deeper) * (sizes.pop() - 1) + "%d" + inner + "]"
            text = "[" + inner + ("," + inner).join(repeat(row, len(value))) + nl + "]"
            return text % tuple(chain.from_iterable(value))
        scalar = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, value) if scalar else map(_json_chunk, value, repeat(inner))
        return "[" + inner + ("," + inner).join(items) + nl + "]" if value else "[]"
    if kind is dict and set(map(type, value)) <= {str}:
        items = (_SCALAR_TEXT[str](k) + ": " + _json_chunk(v, inner) for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + nl + "}" if value else "{}"
    # Other keys, subclasses and unknown types go to json itself, re-indented:
    # exact, since JSON text never holds a raw newline inside a string.
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", nl)


def _json_text(data) -> str:
    """The package's one JSON text format: sorted keys, two-space indent, final newline.

    Byte-identical to ``json.dumps(data, sort_keys=True, indent=2) + "\\n"``, with one ``str.join`` per
    container, except that an array of equal-length, nonempty arrays of exact ``int`` (a facet list) is
    written by one ``%`` format over all its integers.
    """
    return _json_chunk(data, "\n") + "\n"


def _record_json(record, **overrides) -> dict:
    """A dataclass record's JSON object: one key per field, holding the field's value unless overridden."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)} | overrides


def load_complex(path) -> SimplicialComplex:
    return SimplicialComplex.from_json_dict(_read_json(path))


def dump_complex(complex: SimplicialComplex) -> str:
    return _json_text(complex.to_json_dict())
