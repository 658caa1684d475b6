"""Exact simplicial chain complexes and reduced homology.

One sparse elimination kernel, over Z only, takes a matrix as
{row: {col: value}}: ``reduced_homology`` builds those rows from the face
tuples in one pass, and ``groups.abelianization`` from each relator's letter
counts.  It works in two phases.  Phase 1 visits each row once, shortest
first, and reads it through a signed union-find on columns when it touches a
linked column: a row of two unit entries links one column to a signed
multiple of the other, a row of one unit entry clears its column, and other
rows are kept.  On a 2-complex this merges triangles across shared edges
(the tree-cotree reduction); going around a dual cycle leaves an entry 0 or
+-2, which is where RP^2's Z/2 comes from.  Phase 2 takes the kept rows from
one heap, unit rows first and sparsest first, and pivots on the popped row's
least |entry|: floor-quotient row and column operations move the pivot to
any smaller remainder until it stands alone (Havas, Holt and Rees, Linear
Algebra Appl. 192, 1993; Dumas, Saunders and Villard, J. Symbolic Comput.
32, 2001).  Every step splits off a diag(d, rest) block, so no row goes to a
dense matrix.  The non-unit pivots are pooled into a divisibility chain over
a coprime base, without factoring any entry.  Entries are never reduced
modulo anything.  Fields are read off the integral run: ``reduced_homology``
eliminates each complex once, keeps its integral summary in ``_cache``, and
derives every ring from it by universal coefficients
(``field_summary_from_integral``).

A chain complex holds, per dimension, the sorted basis and one tuple of face
indices per simplex: position i names the face without vertex i, which
carries sign (-1)^i.  Faces are looked up one vertex column at a time: the
faces without vertex i of every k-simplex are the lookups of the other k
columns zipped together, and the face tuples zip those k + 1 lookups.  ∂∂ = 0
is checked per dimension the same way, one (face, vertex) column at a time.

Reduced homology eliminates neither the edge boundary nor the rows of the
triangle boundary that belong to a spanning forest of the 1-skeleton: the
edge boundary's factors are one 1 per forest edge, and deleting forest rows
leaves the triangle boundary's factors unchanged (see ``reduced_homology``).

The dense Smith normal form stays public as the reference routine and for
the spectrum's lattice work: it returns the diagonal together with
unimodular transforms U, V satisfying U*A*V = D.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from math import gcd
from operator import ne
from typing import Container, Mapping, Sequence

from .complex_core import (
    SimplicialComplex, _json_field, _json_items, _json_list, _json_object, _json_text, _read_json, _require_valid,
)


# The first 13 primes; as Miller-Rabin bases they decide primality exactly
# below _MR_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _brief(text: str, unit: str = "characters", show=str) -> str:
    """show(text), or show() of its first 20 characters and its length once
    it is longer than 40, so that an error message stays short."""
    return show(text) if len(text) <= 40 else f"{show(text[:20])}... ({len(text)} {unit})"


def _brief_int(n: int) -> str:
    """n in decimal, shortened as by :func:`_brief`; str() refuses integers
    of more than 4300 digits, so a long one is quoted by its leading digits."""
    m = abs(n)
    digits = m.bit_length() * 1233 >> 12  # 1233 / 4096 < log10(2): never above the digit count
    while 10**digits <= m:
        digits += 1
    if digits <= 40:
        return str(n)
    return f"{'-' * (n < 0)}{m // 10 ** (digits - 20)}... ({digits} digits)"


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {_brief_int(n)} is not decided at or above {_MR_LIMIT}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """Coefficient ring selector: the integers, the rationals, or a prime field."""

    tag: str
    p: int | None = None

    def __post_init__(self):
        if self.tag not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring tag {self.tag!r}")
        if self.tag == "Fp":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"{_brief_int(self.p) if isinstance(self.p, int) else repr(self.p)} is not prime")
        elif self.p is not None:
            raise ValueError(f"ring {self.tag} takes no prime")

    @classmethod
    def Z(cls) -> "RingSpec":
        return cls("Z")

    @classmethod
    def Q(cls) -> "RingSpec":
        return cls("Q")

    @classmethod
    def Fp(cls, p: int) -> "RingSpec":
        return cls("Fp", int(p))

    @classmethod
    def parse(cls, text: str) -> "RingSpec":
        text = text.strip()
        if text == "Z":
            return cls.Z()
        if text == "Q":
            return cls.Q()
        digits = text[1:]
        if text[:1] == "F" and digits.isascii() and digits.isdigit() and (digits == "0" or digits[0] != "0"):
            if len(digits) > len(str(_MR_LIMIT)):  # too long to read with int(), and above the limit
                raise ValueError(f"primality of {_brief(digits, 'digits')} is not decided at or above {_MR_LIMIT}")
            return cls.Fp(int(digits))
        raise ValueError(f"cannot parse ring {_brief(text, show=repr)} (expected Z, Q, or F<p>)")

    @property
    def key(self) -> str:
        return f"F{self.p}" if self.tag == "Fp" else self.tag

    @property
    def is_field(self) -> bool:
        return self.tag != "Z"

    def __str__(self) -> str:
        return self.key


# ---------------------------------------------------------------------------
# Smith normal form


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(A: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix: returns (D, U, V) with U*A*V = D.

    D is diagonal with nonnegative entries forming a divisibility chain;
    U and V are unimodular.  Pivots are chosen by smallest nonzero magnitude,
    which keeps intermediate entries small.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    M = [[int(v) for v in row] for row in A]
    U = _identity(m)
    V = _identity(n)

    def swap_rows(i, j):
        if i != j:
            M[i], M[j] = M[j], M[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in M:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        if q:
            Md, Ms = M[dst], M[src]
            for c in range(n):
                Md[c] += q * Ms[c]
            Ud, Us = U[dst], U[src]
            for c in range(m):
                Ud[c] += q * Us[c]

    def add_col(dst, src, q):
        if q:
            for row in M:
                row[dst] += q * row[src]
            for row in V:
                row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            row = M[i]
            for j in range(t, n):
                v = row[j]
                if v and (pivot is None or abs(v) < pivot[0]):
                    pivot = (abs(v), i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        swap_rows(t, pi)
        swap_cols(t, pj)
        if M[t][t] < 0:
            for c in range(n):
                M[t][c] = -M[t][c]
            for c in range(m):
                U[t][c] = -U[t][c]
        piv = M[t][t]
        dirty = False
        for i in range(t + 1, m):
            if M[i][t]:
                add_row(i, t, -(M[i][t] // piv))
                if M[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if M[t][j]:
                add_col(j, t, -(M[t][j] // piv))
                if M[t][j]:
                    dirty = True
        if dirty:
            continue  # a strictly smaller entry appeared; rescan
        offender = None
        for i in range(t + 1, m):
            row = M[i]
            for j in range(t + 1, n):
                if row[j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    return M, U, V


def snf_diagonal(D: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal entries of a (rectangular) diagonal matrix."""
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


# ---------------------------------------------------------------------------
# Sparse elimination (internal engine for chain complexes)


def _sparse_invariant_factors(rows: dict[int, dict[int, int]]) -> list[int]:
    """Invariant factors of a sparse integer matrix given as {row: {col: value}}, nonzero values only.

    Phase 1 visits the rows once, in (length, row) order, and reads each one
    through a signed union-find on columns, in which a linked column stands
    for a factor times its parent; a row that touches no linked column is
    taken as it is.  A row that reads as two unit entries e_a, e_b pivots on
    e_a and links column a to b with factor -e_b/e_a; one unit entry clears
    its column; other rows are kept.  Exactness: the column operation that
    clears e_b and the row operations that clear column a are invertible over
    Z, and leave every other row reading column a as -e_b/e_a times column b,
    so each step splits off one factor 1.  The kept rows, read through the
    final links, go to :func:`_least_entry_factors`.  ``rows`` is consumed.
    """
    link: dict[int, tuple[int | None, int]] = {}  # column -> (parent, factor); parent None: cleared

    def find(c: int) -> tuple[int | None, int]:
        """(root, f): column c reads as f times column root, or is cleared when root is None."""
        path = []
        while c in link:
            path.append(c)
            c = link[c][0]
        f = 1
        for x in reversed(path):  # compress: each column on the path links to the root directly
            f *= link[x][1]
            link[x] = (c, f)
        return c, f

    def read(row: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for c, v in row.items():
            if c in link:
                root, f = link[c]
                if root in link:
                    root, f = find(c)
                if root is None:
                    continue
                c, v = root, v * f
            if c in out:
                v += out.pop(c)
                if not v:
                    continue
            out[c] = v
        return out

    unlinked = link.keys().isdisjoint
    units = 0
    kept = []
    for n, r, row in sorted(zip(map(len, rows.values()), rows, rows.values())):  # (n, r) is unique
        if not unlinked(row):
            row = read(row)
            n = len(row)
        if n == 2:
            (a, ea), (b, eb) = row.items()
            if abs(ea) == 1 == abs(eb):  # ea = +-1 is its own inverse
                link[a] = (b, -eb * ea)
                units += 1
                continue
        elif n == 1:
            ((a, ea),) = row.items()
            if abs(ea) == 1:
                link[a] = (None, 0)
                units += 1
                continue
        kept.append(r)
    rest = {}
    for r in kept:
        row = rows[r]
        if row and (unlinked(row) or (row := read(row))):
            rest[r] = row
    return [1] * units + _least_entry_factors(rest)


def _least_entry_factors(rows: dict[int, dict[int, int]]) -> list[int]:
    """Invariant factors of {row: {col: value}}, nonzero entries only; ``rows`` is consumed.

    Rows wait in one heap keyed by (no unit entry, length, row) and are
    revalidated lazily when popped, so unit rows come first, sparsest first.
    The pivot is the popped row's least |entry|, in its sparsest column.  Row
    operations reduce the pivot's column by floor quotients; a nonzero
    remainder is strictly smaller than the pivot and becomes the next one.
    Once the column holds the pivot alone, column operations reduce its row
    the same way.  The pivot's |value| falls with every move, so it ends
    alone in its row and column: a diag(|pivot|, rest) block.  Unit pivots
    are counted; the rest are pooled by :func:`_divisibility_chain`.
    """
    cols: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)

    def key(r: int) -> tuple[bool, int, int]:
        values = rows[r].values()
        return (not (1 in values or -1 in values), len(values), r)

    heap = list(map(key, rows))
    heapq.heapify(heap)
    units = 0
    diagonal = []
    while heap:
        popped = heapq.heappop(heap)
        r = popped[2]
        if r not in rows:
            continue
        if popped != (now := key(r)):
            heapq.heappush(heap, now)
            continue
        prow = rows[r]
        c = min(prow, key=lambda j: (abs(prow[j]), len(cols[j]), j))
        while True:
            piv = prow[c]
            for r2 in cols[c] - {r}:  # row operations: column c keeps remainders only
                row2 = rows[r2]
                if not (q := row2[c] // piv):
                    continue
                for c2, v in prow.items():
                    cur = row2.get(c2, 0) - q * v
                    if cur:
                        row2[c2] = cur
                        cols[c2].add(r2)
                    elif c2 in row2:
                        del row2[c2]
                        cols[c2].discard(r2)
                if row2:
                    heapq.heappush(heap, key(r2))
                else:
                    del rows[r2]
            if len(cols[c]) > 1:
                heapq.heappush(heap, key(r))
                r = min(cols[c] - {r}, key=lambda i: (abs(rows[i][c]), i))
                prow = rows[r]
                continue
            for c2, v in list(prow.items()):  # column operations: column c holds the pivot alone
                if c2 != c:
                    if v := v % piv:
                        prow[c2] = v
                    else:
                        del prow[c2]
                        cols[c2].discard(r)
            if len(prow) == 1:
                break
            c = min((j for j in prow if j != c), key=lambda j: (abs(prow[j]), j))
        del rows[r], cols[c]
        if abs(piv) == 1:
            units += 1
        else:
            diagonal.append(abs(piv))
    return [1] * units + _divisibility_chain(diagonal)


def _divisibility_chain(diagonal: list[int]) -> list[int]:
    """The invariant factors of diag(``diagonal``), entries > 0, without factoring any entry.

    Factor refinement splits the distinct entries over a coprime base: a
    number that shares g > 1 with a base element b is replaced, with b, by
    b/g, g and itself over g, until every base element is coprime to every
    other (Bach, Driscoll and Shallit, J. Algorithms 15, 1993).  Each entry is
    then a product of powers of base elements, and the i-th smallest exponent
    of b over all entries goes to the i-th invariant factor.
    """
    counts = Counter(diagonal)
    base: list[int] = []
    todo = [d for d in counts if d > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            if (g := gcd(x, b)) > 1:
                del base[i]
                todo += [y for y in (b // g, g, x // g) if y > 1]
                break
        else:
            base.append(x)
    chain = [1] * len(diagonal)
    for b in base:
        exponents = []
        for d, k in counts.items():
            e = 0
            while d % b == 0:
                d //= b
                e += 1
            exponents += [e] * k
        exponents.sort()
        for i, e in enumerate(exponents):
            if e:
                chain[i] *= b**e
    return chain


# ---------------------------------------------------------------------------
# Chain complexes and homology summaries


class ChainComplex:
    """Sorted simplex bases per dimension, each simplex with its face indices.

    ``faces[k][c]`` holds, at position i, the index in ``bases[k - 1]`` of the
    face of the c-th k-simplex without its i-th vertex; that face enters the
    boundary with sign (-1)^i.  The composition of consecutive boundaries is
    verified to vanish exactly.
    """

    __slots__ = ("bases", "faces")

    def __init__(self, bases: list[tuple[tuple[int, ...], ...]], faces: list[tuple[tuple[int, ...], ...]]):
        self.bases = bases
        self.faces = faces  # faces[0] is empty

    @property
    def dimension(self) -> int:
        return len(self.bases) - 1

    @property
    def boundaries(self) -> list[dict[tuple[int, int], int]]:
        """Each C_k -> C_{k-1} as {(row, col): +-1}, derived from the face tuples on every access.

        This is a view for readers outside the elimination, such as tests and
        the benchmark's tracer: the sparse kernel never reads it, and takes
        its rows from the face tuples instead.
        """
        return [{(r, c): v for r, row in _boundary_rows(faces).items() for c, v in row.items()} for faces in self.faces]


def _boundary_rows(faces: Sequence[Sequence[int]], skip: Container[int] = ()) -> dict[int, dict[int, int]]:
    """One dimension's boundary as {row: {col: +-1}}, without the rows in ``skip``; position i carries (-1)^i."""
    rows: dict[int, dict[int, int]] = {}
    for c, ids in enumerate(faces):
        v = 1
        for r in ids:
            if r not in skip:
                rows.setdefault(r, {})[c] = v
            v = -v
    return rows


def chain_complex(K: SimplicialComplex) -> ChainComplex:
    """Bases and face tuples of K; each codimension-1 face is looked up once, one vertex column at a time."""
    _require_valid(K)
    bases = [K.simplices_of_dim(k) for k in range(K.dimension + 1)]
    faces: list[tuple[tuple[int, ...], ...]] = [()] if bases else []  # 0-simplices have no faces
    for k in range(1, len(bases)):
        lookup = {s: i for i, s in enumerate(bases[k - 1])}.__getitem__
        cols = list(zip(*bases[k]))
        faces.append(tuple(zip(*[map(lookup, zip(*cols[:i], *cols[i + 1 :])) for i in range(k + 1)])))
    for k in range(2, len(faces)):
        _check_composition_zero(faces[k - 1], faces[k])
    return ChainComplex(bases, faces)


def _check_composition_zero(lower: Sequence[Sequence[int]], upper: Sequence[Sequence[int]]) -> None:
    """Raise AssertionError unless ∂∂ = 0: per simplex, faces of faces with even and odd i + j agree.

    Entry j of the face tuple of face i is read as one column, since every tuple in ``lower`` has the same length.
    """
    even, odd = [], []
    for i, col in enumerate(zip(*upper)):
        for j, entries in enumerate(zip(*map(lower.__getitem__, col))):
            (odd if (i + j) % 2 else even).append(entries)
    if any(map(ne, map(sorted, zip(*even)), map(sorted, zip(*odd)))):
        raise AssertionError("boundary composition is nonzero")


@dataclass(frozen=True)
class HomologySummary:
    """Reduced homology ranks (and, over Z, torsion) per degree.

    ``ranks[i]`` is the free rank of reduced H_i; ``torsion[i]`` lists the
    invariant factors > 1 in degree i as a divisibility chain.  Degree 0 uses
    the reduced convention: rank = number of components - 1.
    """

    ring: RingSpec
    ranks: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.ranks) != len(self.torsion):
            raise ValueError("ranks and torsion must cover the same degrees")
        if self.ring.is_field and any(self.torsion):
            raise ValueError("field coefficients carry no torsion")
        for i, (rank, tors) in enumerate(zip(self.ranks, self.torsion)):
            if rank < 0:
                raise ValueError(f"degree {i}: negative rank {rank}")
            if any(t <= 1 for t in tors) or any(b % a for a, b in zip(tors, tors[1:])):
                raise ValueError(f"degree {i}: torsion {list(tors)} is not a divisibility chain of integers > 1")

    @property
    def max_degree(self) -> int:
        return len(self.ranks) - 1

    def rank(self, i: int) -> int:
        return self.ranks[i] if 0 <= i <= self.max_degree else 0

    def torsion_in(self, i: int) -> tuple[int, ...]:
        return self.torsion[i] if 0 <= i <= self.max_degree else ()

    def is_trivial_in(self, i: int) -> bool:
        return self.rank(i) == 0 and not self.torsion_in(i)

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring.key,
            "degrees": [
                {"degree": i, "rank": self.ranks[i], "torsion": list(self.torsion[i])}
                for i in range(len(self.ranks))
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping, path: str = "$") -> "HomologySummary":
        data = _json_object(data, path)
        ring = RingSpec.parse(_json_field(data, "ring", path, str))
        degrees = []
        for i, d in enumerate(_json_list(_json_field(data, "degrees", path), f"{path}.degrees")):
            at = f"{path}.degrees[{i}]"
            d = _json_object(d, at)
            degrees.append((
                _json_field(d, "degree", at, int),
                _json_field(d, "rank", at, int),
                tuple(_json_items(d.get("torsion", []), f"{at}.torsion")),
            ))
        degrees.sort(key=lambda d: d[0])
        if [d[0] for d in degrees] != list(range(len(degrees))):
            raise ValueError("degree list must cover 0..max without gaps")
        return cls(ring, tuple(d[1] for d in degrees), tuple(d[2] for d in degrees))

    def __str__(self) -> str:
        parts = []
        for i in range(len(self.ranks)):
            if self.ranks[i] or self.torsion[i]:
                tor = "".join(f" + Z/{t}" for t in self.torsion[i])
                free = f"rank {self.ranks[i]}" if self.ranks[i] else "0"
                parts.append(f"H~{i}: {free}{tor}")
        return f"[{self.ring}] " + ("; ".join(parts) if parts else "trivial")


def _spanning_forest(edges: Sequence[tuple[int, int]]) -> set[int]:
    """Indices of the edges a union-find pass in list order keeps as a spanning forest."""
    parent: dict[int, int] = {}
    forest = set()
    for i, (u, w) in enumerate(edges):
        while (pu := parent.setdefault(u, u)) != u:  # find with path halving, for both ends
            parent[u] = u = parent[pu]
        while (pw := parent.setdefault(w, w)) != w:
            parent[w] = w = parent[pw]
        if u != w:
            parent[u] = w
            forest.add(i)
    return forest


def reduced_homology(K: SimplicialComplex, R: RingSpec) -> HomologySummary:
    """Reduced homology of K with coefficients in R, read off its integral homology.

    The integral summary is computed once per complex and kept in
    ``K._cache``; every ring, Z included, is read off it by
    :func:`field_summary_from_integral`.

    Neither the incidence matrix of the 1-skeleton nor the rows of a spanning
    forest F are eliminated.  The edges of F map injectively onto the image of
    the boundary of C_1, which is a direct summand of C_0, so that boundary
    has |F| invariant factors, all 1.  Its kernel is a direct summand of C_1
    that projects isomorphically onto the non-forest edges, so deleting the
    rows of F from the boundary of C_2 leaves its invariant factors unchanged.
    """
    if "homology" not in K._cache:
        cx = chain_complex(K)
        dim = cx.dimension
        factors = [[] for _ in range(dim + 2)]
        if dim >= 1:
            forest = _spanning_forest(cx.faces[1])
            factors[1] = [1] * len(forest)
            for k in range(2, dim + 1):
                factors[k] = _sparse_invariant_factors(_boundary_rows(cx.faces[k], forest if k == 2 else ()))
        # Reduced homology: degree 0 loses one rank to the augmentation.
        ranks = tuple(len(cx.bases[k]) - len(factors[k]) - len(factors[k + 1]) - (k == 0) for k in range(dim + 1))
        torsion = tuple(tuple(d for d in factors[k + 1] if d > 1) for k in range(dim + 1))
        K._cache["homology"] = HomologySummary(RingSpec.Z(), ranks, torsion)
    return field_summary_from_integral(K._cache["homology"], R)


def field_summary_from_integral(z_summary: HomologySummary, R: RingSpec) -> HomologySummary:
    """The summary over R of the integral summary ``z_summary`` (universal coefficients).

    This is the one place where field homology follows from integral
    homology, for :func:`reduced_homology` and for stored certificates alike.
    Over Z it returns ``z_summary``; over Q the dimension in degree i is the
    free rank; over F_p it is the free rank plus the number of invariant
    factors divisible by p in degrees i and i-1.
    """
    if z_summary.ring.tag != "Z":
        raise ValueError("integral summary required")
    if not R.is_field:
        return z_summary

    def divisible(i: int) -> int:
        return sum(d % R.p == 0 for d in z_summary.torsion_in(i)) if R.tag == "Fp" else 0

    ranks = tuple(r + divisible(i) + divisible(i - 1) for i, r in enumerate(z_summary.ranks))
    return HomologySummary(R, ranks, tuple(() for _ in ranks))


def dump_summary(summary: HomologySummary) -> str:
    return _json_text(summary.to_json_dict())


def load_summary(path) -> HomologySummary:
    return HomologySummary.from_json_dict(_read_json(path))
