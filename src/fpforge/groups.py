"""Words, presentations, and the group-theoretic side of the pipeline.

Generators are named strings; word letters are signed 1-based generator
indices, kept freely reduced.  Presentations carry a provenance tag per
relator (triangle, spread power at a height, or one of the tagged loop
families) plus an optional height window with an "extends to all heights"
flag, which is how an infinite family of spread relators is represented by a
finite artifact.  Every builder of spread relators counts their letters from
its inputs, the sum of |height| * len(loop), and refuses a total over
``_SPREAD_LETTER_CAP`` before any word is built.

The coset enumerator is a deterministic relator-first filling procedure with
an explicit row budget.  ``enumerate_table`` alone decides whether a run can
finish: it Tietze-reduces the presentation (``simplify``), returns None
without a row when the reduced exponent vectors prove the index infinite,
and otherwise enumerates the reduced presentation once, within the budget.
None therefore means "index proven infinite, or ``budget`` rows spent"; it
is a result, never an error.

A completed table (``CosetTable``) is the permutation action of the original
generators on the cosets: row c holds the images of coset c under g1, g1^-1,
g2, ...; coset 0 is the subgroup and the number of rows its index.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from types import NoneType
from typing import Iterable, Mapping, Sequence

from .complex_core import (
    FormatError,
    SimplicialComplex,
    _json_field,
    _json_items,
    _json_list,
    _json_object,
    _json_text,
    _read_json,
    _require_valid,
    spanning_tree,
)
from .homology import _sparse_invariant_factors


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for x in letters:
        x = int(x)
        if x == 0:
            raise ValueError("letter 0 is not allowed")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class Word:
    """A freely reduced word in signed 1-based generator indices."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        object.__setattr__(self, "letters", free_reduce(letters))

    def __setattr__(self, *args):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def exponent_row(self, ngens: int) -> list[int]:
        """Exponent sum of each generator: the word's image in Z^ngens."""
        row = [0] * ngens
        for x in self.letters:
            row[abs(x) - 1] += 1 if x > 0 else -1
        return row

    def cyclically_reduced(self) -> "Word":
        """The word without its cancelling first/last letter pairs; ``self`` when none cancel."""
        ls = self.letters
        k = 0
        while len(ls) - 2 * k >= 2 and ls[k] == -ls[-1 - k]:
            k += 1
        return Word(ls[k : len(ls) - k]) if k else self

    def __repr__(self) -> str:
        return f"Word({list(self.letters)})"


def cyclic_relators(words: Iterable[Word]) -> list[Word]:
    """The words cyclically reduced, without empty words or repeats, in first-seen order."""
    out: list[Word] = []
    seen: set[tuple[int, ...]] = set()
    for w in words:
        cw = w.cyclically_reduced()
        if cw.letters and cw.letters not in seen:
            seen.add(cw.letters)
            out.append(cw)
    return out


@dataclass(frozen=True)
class RelatorTag:
    """Provenance of a relator: its family and, for spreads, height and loop index."""

    family: str  # "triangle" | "spread" | "alpha" | "beta" | "other"
    height: int | None = None
    index: int | None = None

    def to_json_dict(self) -> dict:
        return {"family": self.family, "height": self.height, "index": self.index}

    @classmethod
    def from_json_dict(cls, data: Mapping, path: str = "$") -> "RelatorTag":
        data = _json_object(data, path)
        return cls(
            _json_field(data, "family", path, str),
            _json_field(data, "height", path, int, NoneType, default=None),
            _json_field(data, "index", path, int, NoneType, default=None),
        )


TRIANGLE = RelatorTag("triangle")
OTHER = RelatorTag("other")


class Presentation:
    """Named generators with tagged, freely reduced relator words."""

    __slots__ = ("generators", "relators", "tags", "height_window", "extends_all_heights", "_names", "_reduction")

    def __init__(
        self,
        generators: Sequence[str],
        relators: Sequence[Word] = (),
        tags: Sequence[RelatorTag] | None = None,
        height_window: tuple[int, int] | None = None,
        extends_all_heights: bool = False,
    ):
        gens = tuple(str(g) for g in generators)
        if len(set(gens)) != len(gens):
            raise ValueError("generator names must be unique")
        for g in gens:
            if not g or " " in g or g.endswith("'"):
                raise ValueError(f"bad generator name {g!r}")
        rels = tuple(relators)
        letters = frozenset(range(-len(gens), len(gens) + 1))  # a Word holds no letter 0
        for w in rels:
            if not letters.issuperset(w.letters):
                raise ValueError(f"letter {next(x for x in w.letters if x not in letters)} out of range")
        self.generators = gens
        self._names: dict[int, str] | None = None  # letter -> printed name, built by the first word_str
        self._reduction: tuple[Presentation, Record] | None = None  # kept by the first simplify
        self.relators = rels
        self.tags = tuple(tags) if tags is not None else tuple(OTHER for _ in rels)
        if len(self.tags) != len(rels):
            raise ValueError("one tag per relator required")
        self.height_window = height_window
        self.extends_all_heights = bool(extends_all_heights)

    def exponent_matrix(self) -> list[list[int]]:
        return [w.exponent_row(len(self.generators)) for w in self.relators]

    def word_str(self, w: Word) -> str:
        if self._names is None:
            self._names = dict(enumerate(self.generators, 1))
            self._names.update({-i: g + "'" for i, g in enumerate(self.generators, 1)})
        return " ".join(map(self._names.__getitem__, w.letters))

    def parse_word(self, text: str) -> Word:
        letters = []
        for token in text.split():
            inv = token.endswith("'")
            name = token[:-1] if inv else token
            try:
                i = self.generators.index(name) + 1
            except ValueError:
                raise ValueError(f"unknown generator {name!r}") from None
            letters.append(-i if inv else i)
        return Word(letters)

    def to_text(self) -> str:
        lines = ["gen " + " ".join(self.generators)]
        for w in self.relators:
            lines.append("rel " + self.word_str(w))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Presentation":
        gens: list[str] = []
        rel_lines: list[str] = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, _, rest = line.partition(" ")
            if head == "gen":
                gens.extend(rest.split())
            elif head == "rel":
                rel_lines.append(rest)
            else:
                raise ValueError(f"unknown line {line!r}")
        pres = cls(gens)
        relators = [pres.parse_word(r) for r in rel_lines]
        return cls(gens, relators)

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [
                {"letters": list(w.letters), "tag": tag.to_json_dict()}
                for w, tag in zip(self.relators, self.tags)
            ],
            "height_window": list(self.height_window) if self.height_window else None,
            "extends_all_heights": self.extends_all_heights,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping, path: str = "$") -> "Presentation":
        """Read a presentation; a wrong shape raises ``FormatError`` naming its JSON path."""
        data = _json_object(data, path)
        relators: list[Word] = []
        tags: list[RelatorTag] = []
        for i, r in enumerate(_json_list(data.get("relators", []), f"{path}.relators")):
            at = f"{path}.relators[{i}]"
            r = _json_object(r, at)
            relators.append(Word(_json_items(_json_field(r, "letters", at), f"{at}.letters")))
            tags.append(RelatorTag.from_json_dict(r["tag"], f"{at}.tag") if "tag" in r else OTHER)
        window = data.get("height_window")
        if window and len(_json_items(window, f"{path}.height_window")) != 2:
            raise FormatError(f"{path}.height_window: expected 2 heights, got {len(window)}")
        return cls(
            _json_items(_json_field(data, "generators", path), f"{path}.generators", str),
            relators,
            tags,
            tuple(window) if window else None,
            _json_field(data, "extends_all_heights", path, bool, default=False),
        )

    def __repr__(self) -> str:
        return f"Presentation({len(self.generators)} generators, {len(self.relators)} relators)"


# ---------------------------------------------------------------------------
# Loops over the edge alphabet of a complex


def edge_generator_names(L: SimplicialComplex) -> list[str]:
    return [f"e{u}_{v}" for u, v in L.edges()]


class LoopWord:
    """A closed edge loop as a sequence of oriented edge letters.

    Letters are signed 1-based indices into a complex's sorted edge list;
    a negative letter traverses the edge against its sorted orientation.
    A loop may also carry the vertex path it came from.
    """

    __slots__ = ("letters", "vertices")

    def __init__(self, letters: Iterable[int], vertices: Sequence[int] | None = None):
        ls = tuple(int(x) for x in letters)
        if not ls:
            raise ValueError("a loop needs at least one edge")
        if any(x == 0 for x in ls):
            raise ValueError("letter 0 is not allowed")
        object.__setattr__(self, "letters", ls)
        object.__setattr__(self, "vertices", tuple(vertices) if vertices is not None else None)

    def __setattr__(self, *args):
        raise AttributeError("LoopWord is immutable")

    @property
    def length(self) -> int:
        return len(self.letters)

    @classmethod
    def from_vertices(cls, L: SimplicialComplex, path: Sequence[int]) -> "LoopWord":
        path = list(path)
        if len(path) < 2 or path[0] != path[-1]:
            raise ValueError("vertex path must be closed (first = last)")
        index = {e: i for i, e in enumerate(L.edges())}
        letters = []
        for u, w in zip(path, path[1:]):
            key = (min(u, w), max(u, w))
            if key not in index:
                raise ValueError(f"({u}, {w}) is not an edge of the complex")
            letters.append(index[key] + 1 if u < w else -(index[key] + 1))
        return cls(letters, path[:-1])

    def validate_in(self, L: SimplicialComplex) -> None:
        n = len(L.edges())
        for x in self.letters:
            if abs(x) > n:
                raise ValueError(f"edge letter {x} out of range for the complex")
        if self.vertices is not None:
            LoopWord.from_vertices(L, list(self.vertices) + [self.vertices[0]])

    def __eq__(self, other) -> bool:
        return isinstance(other, LoopWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"LoopWord({list(self.letters)})"


# Spread relators are refused, before any word is built, when their letters would total more than this:
# the sum of |height| * len(loop) over the spreads asked for.
_SPREAD_LETTER_CAP = 1 << 20


def _check_spread_letters(total: int) -> None:
    if total > _SPREAD_LETTER_CAP:
        shown = total if total.bit_length() <= 64 else f"more than 2^{total.bit_length() - 1}"
        raise ValueError(
            f"spread relators would hold {shown} letters (the sum of |height| * len(loop)), "
            f"over the spread cap of {_SPREAD_LETTER_CAP} (2^{_SPREAD_LETTER_CAP.bit_length() - 1})"
        )


def power_spread(c: LoopWord, k: int) -> Word:
    """The word sending each oriented edge of the loop to its k-th power, in order."""
    if k < 0:
        raise ValueError("spread exponent must be nonnegative")
    _check_spread_letters(k * c.length)
    return _signed_spread(c, k)


def _signed_spread(c: LoopWord, n: int) -> Word:
    """Spread with height sign: negative heights invert each letter block in place."""
    sign = 1 if n >= 0 else -1
    letters: list[int] = []
    for x in c.letters:
        letters.extend([sign * x] * abs(n))
    return Word(letters)


# ---------------------------------------------------------------------------
# Presentation constructions


def raag_presentation(L: SimplicialComplex) -> Presentation:
    """One generator per vertex, one commutator per edge."""
    _require_valid(L)
    verts = sorted(L.vertices)
    pos = {v: i + 1 for i, v in enumerate(verts)}
    gens = [f"a{v}" for v in verts]
    relators = []
    for u, w in L.edges():
        a, b = pos[u], pos[w]
        relators.append(Word([a, b, -a, -b]))
    return Presentation(gens, relators, [RelatorTag("other")] * len(relators))


def _loop_in(L: SimplicialComplex, loop) -> LoopWord:
    if isinstance(loop, LoopWord):
        loop.validate_in(L)
        return loop
    return LoopWord.from_vertices(L, loop)


def deck_group_presentation(
    L: SimplicialComplex, spreads: Mapping[int, Sequence] | None = None
) -> Presentation:
    """Edge generators, two rotation relators per triangle, spread powers per height.

    For a triangle u < v < w the cyclic orientation gives the length-three
    relators e(u,v) e(v,w) e(u,w)' and e(u,w)' e(v,w) e(u,v).  Each loop at
    height n adds its n-th spread power; height 0 must be empty, since the
    construction keeps the base complex itself at height zero.
    """
    _require_valid(L)
    spreads = dict(spreads or {})
    if 0 in spreads and spreads[0]:
        raise ValueError("height 0 must carry no spread loops (the base sits there)")
    heights = sorted(h for h in spreads if spreads[h])
    loops = {n: [_loop_in(L, loop) for loop in spreads[n]] for n in heights}
    _check_spread_letters(sum(abs(n) * lw.length for n in heights for lw in loops[n]))
    edges = L.edges()
    index = {e: i + 1 for i, e in enumerate(edges)}
    gens = edge_generator_names(L)
    relators: list[Word] = []
    tags: list[RelatorTag] = []
    for u, v, w in L.simplices_of_dim(2):
        e, f, g = index[(u, v)], index[(v, w)], -index[(u, w)]
        relators.append(Word([e, f, g]))
        tags.append(TRIANGLE)
        relators.append(Word([g, f, e]))
        tags.append(TRIANGLE)
    for n in heights:
        for i, lw in enumerate(loops[n]):
            relators.append(_signed_spread(lw, n))
            tags.append(RelatorTag("spread", n, i))
    window = (min(heights), max(heights)) if heights else None
    return Presentation(gens, relators, tags, window)


def _height_sum(lo: int, hi: int) -> int:
    """The sum of |n| over the heights lo..hi, in closed form from the numbers 1 + 2 + ... + m."""

    def upto(m: int) -> int:
        return max(m, 0) * (max(m, 0) + 1) // 2

    return upto(hi) - upto(lo - 1) + upto(-lo) - upto(-hi - 1)


def tagged_family_presentation(
    L: SimplicialComplex,
    families: Mapping[str, Sequence],
    window: tuple[int, int],
) -> Presentation:
    """Triangle relators plus spread powers of named loop families over a height window.

    Every family member contributes its spread at every nonzero height in the
    window; tags record (family, height, loop index).  The result carries the
    window and the extends-to-all-heights flag.
    """
    _require_valid(L)
    lo, hi = window
    if lo > hi:
        raise ValueError("empty height window")
    members = {family: [_loop_in(L, lp) for lp in families[family]] for family in sorted(families)}
    _check_spread_letters(_height_sum(lo, hi) * sum(lw.length for loops in members.values() for lw in loops))
    base = deck_group_presentation(L, {})
    relators = list(base.relators)
    tags = list(base.tags)
    for family, loops in members.items():
        for n in range(lo, hi + 1) if loops else ():
            if n == 0:
                continue
            for i, lw in enumerate(loops):
                relators.append(_signed_spread(lw, n))
                tags.append(RelatorTag(family, n, i))
    return Presentation(base.generators, relators, tags, window, extends_all_heights=True)


@dataclass(frozen=True)
class AbelianizationResult:
    free_rank: int
    factors: tuple[int, ...]  # invariant factors > 1, divisibility chain

    def __str__(self) -> str:
        parts = [f"Z^{self.free_rank}"] if self.free_rank else []
        parts.extend(f"Z/{d}" for d in self.factors)
        return " + ".join(parts) if parts else "0"


def abelianization(p: Presentation) -> AbelianizationResult:
    """Invariant factors and free rank of the relator exponent matrix.

    Uses the sparse elimination kernel; a positive free rank proves the
    presented group infinite.
    """
    rows: dict[int, dict[int, int]] = {}
    for i, w in enumerate(p.relators):
        c = Counter(w.letters)
        if row := {g - 1: e for g in {abs(x) for x in c} if (e := c[g] - c[-g])}:
            rows[i] = row
    factors = _sparse_invariant_factors(rows)
    return AbelianizationResult(len(p.generators) - len(factors), tuple(d for d in factors if d > 1))


# ---------------------------------------------------------------------------
# Coset enumeration


class _BudgetExceeded(Exception):
    pass


class _CosetTable:
    def __init__(self, ngens: int, budget: int):
        self.width = 2 * ngens
        self.budget = budget
        self.table: list[list[int | None]] = [[None] * self.width]
        self.parent = [0]

    def rep(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def define(self, a: int, g: int) -> int:
        b = len(self.table)
        if b >= self.budget:
            raise _BudgetExceeded
        self.table.append([None] * self.width)
        self.parent.append(b)
        self.table[a][g] = b
        self.table[b][g ^ 1] = a
        return b

    def merge(self, a: int, b: int) -> None:
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = self.rep(x), self.rep(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            self.parent[y] = x
            for g in range(self.width):
                yv = self.table[y][g]
                if yv is None:
                    continue
                xv = self.table[x][g]
                if xv is None:
                    self.table[x][g] = yv
                else:
                    queue.append((xv, yv))

    def lookup(self, a: int, g: int) -> int | None:
        v = self.table[self.rep(a)][g]
        return None if v is None else self.rep(v)

    def scan_and_fill(self, start: int, word: Sequence[int]) -> None:
        while True:
            f, i = self.rep(start), 0
            j = len(word)
            b = self.rep(start)
            while i < j:
                nxt = self.lookup(f, word[i])
                if nxt is None:
                    break
                f, i = nxt, i + 1
            if i == j:
                if f != b:
                    self.merge(f, b)
                return
            while j > i:
                prv = self.lookup(b, word[j - 1] ^ 1)
                if prv is None:
                    break
                b, j = prv, j - 1
            if j == i:
                self.merge(f, b)
                return
            if j == i + 1:
                x, y, g = self.rep(f), self.rep(b), word[i]
                self.table[x][g] = y
                if self.table[y][g ^ 1] is None:
                    self.table[y][g ^ 1] = x
                elif self.rep(self.table[y][g ^ 1]) != x:
                    self.merge(self.table[y][g ^ 1], x)
                return
            self.define(self.rep(f), word[i])


def _encode(word: Word) -> tuple[int, ...]:
    return tuple(2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1 for x in word.letters)


def coset_enumerate(
    p: Presentation, subgroup_generators: Sequence[Word] = (), budget: int = 10_000
) -> int | None:
    """Index of the subgroup, or None when it is proven infinite or the row
    budget is exhausted (see :func:`enumerate_table`).

    The index is the number of rows of the completed table, a genuine coset
    table, so a returned index is always correct.
    """
    table, _ = enumerate_table(p, subgroup_generators, budget)
    return None if table is None else len(table)


Record = tuple[tuple[int, tuple[int, ...]], ...]
CosetTable = tuple[tuple[int, ...], ...]


def _substitute(letters: Iterable[int], g: int, forward: tuple[int, ...], inverse: tuple[int, ...]) -> list[int]:
    """The freely reduced word with each g replaced by ``forward`` and each
    g^-1 by ``inverse``."""
    stack: list[int] = []
    for x in letters:
        for y in (x,) if x != g and x != -g else forward if x > 0 else inverse:
            if stack and stack[-1] == -y:
                stack.pop()
            else:
                stack.append(y)
    return stack


def simplify(p: Presentation) -> tuple[Presentation, Record]:
    """Tietze-reduce a presentation by eliminating generators.

    Repeatedly takes the shortest relator in which some generator occurs
    once, solves it for that generator (of those, the one in the fewest
    relators), substitutes the solution into every other relator and drops
    the relator.  An elimination that would make the total relator length
    exceed its starting value is skipped, so the reduction never grows the
    presentation and its cost stays bounded.

    Returns the presented group on the surviving generators, in their
    original order, with the relators that remain, and the elimination
    record: pairs (g, letters) in elimination order, saying that generator g
    (a 1-based index into ``p.generators``) equals that word in p's letters,
    which uses only generators still alive at that step.  The result is kept
    on ``p``, which never changes.
    """
    if p._reduction is not None:
        return p._reduction
    rels: list[tuple[int, ...]] = [w.letters for w in cyclic_relators(p.relators)]
    occurs: list[set[int]] = [set() for _ in range(len(p.generators) + 1)]
    for i, r in enumerate(rels):
        for x in r:
            occurs[abs(x)].add(i)
    heap = [(len(r), i) for i, r in enumerate(rels)]
    heapq.heapify(heap)
    total = limit = sum(len(r) for r in rels)
    record: list[tuple[int, tuple[int, ...]]] = []
    while heap:
        length, i = heapq.heappop(heap)
        r = rels[i]
        if len(r) != length or not r:
            continue  # stale entry (the relator changed or was used), or an empty relator
        gens = [abs(x) for x in r]
        if length == 1:
            g, forward, inverse = gens[0], (), ()
        else:
            once = [h for h, c in Counter(gens).items() if c == 1]
            if not once:
                continue  # pushed again if a substitution changes it
            g = min(once, key=lambda h: (len(occurs[h]), h))
            k = gens.index(g)
            rest = r[k + 1 :] + r[:k]  # r is conjugate to g^(+-1) rest
            inverse = tuple(-x for x in reversed(rest))
            forward, inverse = (inverse, rest) if r[k] > 0 else (rest, inverse)
        news: dict[int, tuple[int, ...]] = {}
        for j in occurs[g]:
            if j != i:
                new = _substitute(rels[j], g, forward, inverse)
                a, b = 0, len(new)
                while b - a >= 2 and new[a] == -new[b - 1]:
                    a, b = a + 1, b - 1
                news[j] = tuple(new[a:b])
        grown = total - length + sum(len(new) - len(rels[j]) for j, new in news.items())
        if grown > limit:
            continue  # tried again only if a later substitution changes it
        total = grown
        record.append((g, forward))
        for h in gens:
            occurs[h].discard(i)
        rels[i] = ()
        for j, new in news.items():
            for x in rels[j]:
                occurs[abs(x)].discard(j)
            rels[j] = new
            for x in new:
                occurs[abs(x)].add(j)
            heapq.heappush(heap, (len(new), j))
    survivors = _survivors(len(p.generators), record)
    renumber = {g: i + 1 for i, g in enumerate(survivors)}
    relators = cyclic_relators(Word(renumber[x] if x > 0 else -renumber[-x] for x in r) for r in rels if r)
    reduced = Presentation([p.generators[g - 1] for g in survivors], relators, [OTHER] * len(relators))
    p._reduction = reduced, tuple(record)
    return p._reduction


def _survivors(ngens: int, record: Record) -> list[int]:
    """The generators, 1-based, that the record does not eliminate."""
    eliminated = {g for g, _ in record}
    return [g for g in range(1, ngens + 1) if g not in eliminated]


def _rewrite(record: Record, word: Word, survivors: Sequence[int]) -> Word:
    """The word with each eliminated generator substituted, in record order,
    and spelled in the reduced presentation's letters."""
    letters = list(word.letters)
    for g, forward in record:
        if g in letters or -g in letters:
            letters = _substitute(letters, g, forward, tuple(-x for x in reversed(forward)))
    renumber = {g: i + 1 for i, g in enumerate(survivors)}
    return Word(renumber[x] if x > 0 else -renumber[-x] for x in letters)


def _enumerate(
    p: Presentation, subgroup_generators: Sequence[Word], budget: int
) -> tuple[_CosetTable | None, int]:
    """Relator-first filling of the coset table within ``budget`` rows."""
    relators = [_encode(w) for w in cyclic_relators(p.relators)]
    subs = [_encode(w) for w in subgroup_generators if w.letters]
    T = _CosetTable(len(p.generators), budget)
    try:
        for w in subs:
            T.scan_and_fill(0, w)
        idx = 0
        while idx < len(T.table):
            if T.rep(idx) != idx:
                idx += 1
                continue
            for w in relators:
                T.scan_and_fill(idx, w)
                if T.rep(idx) != idx:
                    break
            if T.rep(idx) != idx:
                idx += 1
                continue
            for g in range(T.width):
                if T.table[idx][g] is None:
                    T.define(idx, g)
            idx += 1
    except _BudgetExceeded:
        return None, len(T.table)
    return T, len(T.table)


def _extend(T: _CosetTable, record: Record, survivors: Sequence[int], ngens: int) -> CosetTable:
    """The rows of a completed working table on its live cosets, numbered in
    order, with a column for every original generator: a survivor's is read
    off T, an eliminated one's by evaluating the record's words in reverse
    order."""
    live = [a for a in range(len(T.table)) if T.rep(a) == a]
    number = {a: i for i, a in enumerate(live)}
    columns: list[list[int]] = [[] for _ in range(2 * ngens)]
    for i, g in enumerate(survivors):
        for s in (0, 1):
            columns[2 * (g - 1) + s] = [number[T.lookup(a, 2 * i + s)] for a in live]
    identity = list(range(len(live)))
    for g, value in reversed(record):
        image = inverse = identity
        for x in value:
            column = columns[2 * x - 2 if x > 0 else -2 * x - 1]
            image = [column[c] for c in image]
        if value:
            inverse = [0] * len(live)
            for c, d in enumerate(image):
                inverse[d] = c
        columns[2 * g - 2], columns[2 * g - 1] = image, inverse
    return tuple(tuple(column[c] for column in columns) for c in identity)


def enumerate_table(
    p: Presentation, subgroup_generators: Sequence[Word] = (), budget: int = 10_000
) -> tuple[CosetTable | None, int]:
    """The completed coset table and the rows spent, or None when the index
    is proven infinite or the budget is exhausted.

    The table's row c holds the images of coset c under g1, g1^-1, g2, ...
    of ``p``'s generators; coset 0 is the subgroup and ``len(table)`` its
    index.

    The presentation is first Tietze-reduced (:func:`simplify`) and the
    subgroup generators rewritten through the record.  When the exponent
    vectors of the reduced relators and rewritten subgroup generators span
    less than the surviving generators' lattice, G maps onto an infinite
    abelian group in which H has infinite index, so no table could complete
    and ``(None, 0)`` is returned at once.  Otherwise the reduced
    presentation is enumerated once within ``budget`` rows, and a completed
    table is extended to every original generator.  The rows reported are
    that run's, never more than ``budget``.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    reduced, record = simplify(p)
    survivors = _survivors(len(p.generators), record)
    subs = [_rewrite(record, w, survivors) for w in subgroup_generators]
    if abelianization(Presentation(reduced.generators, [*reduced.relators, *subs])).free_rank:
        return None, 0
    T, rows = _enumerate(reduced, subs, budget)
    return (None if T is None else _extend(T, record, survivors, len(p.generators))), rows


def trace_word(table: CosetTable, word: Word) -> int:
    """The coset that coset 0 reaches along a word in the table's generators."""
    cur = 0
    for g in _encode(word):
        cur = table[cur][g]
    return cur


# ---------------------------------------------------------------------------
# Surjections


def quotient_relators(
    spreads: Mapping[int, Sequence], spreads_prime: Mapping[int, Sequence], L: SimplicialComplex
) -> list[tuple[Word, RelatorTag]]:
    """Spread relators present for the coarser assignment but not the finer one.

    Per height, the finer assignment's loop set must contain the coarser
    one's; the returned relators normally generate the kernel of the induced
    surjection between the presented groups.
    """
    new: list[tuple[int, int, LoopWord]] = []  # (height, index, loop) of each relator to build
    heights = sorted(set(spreads) | set(spreads_prime))
    for n in heights:
        small = [_loop_in(L, lp) for lp in spreads.get(n, [])]
        big = [_loop_in(L, lp) for lp in spreads_prime.get(n, [])]
        small_keys = {lw.letters for lw in small}
        big_keys = {lw.letters for lw in big}
        if not small_keys <= big_keys:
            raise ValueError(f"loop sets at height {n} are not nested")
        new.extend((n, i, lw) for i, lw in enumerate(big) if lw.letters not in small_keys)
    _check_spread_letters(sum(abs(n) * lw.length for n, _, lw in new))
    return [(_signed_spread(lw, n), RelatorTag("spread", n, i)) for n, i, lw in new]


# ---------------------------------------------------------------------------
# Edge-path words relative to a spanning tree


class SpanningTreeWords:
    """Fundamental-group bookkeeping for a connected complex.

    Non-tree edges of the canonical spanning tree are free generators; any
    closed edge path spells a word in them (tree edges contribute nothing),
    and triangle boundaries give the relators of the edge-path group.
    """

    def __init__(self, K: SimplicialComplex):
        _require_valid(K)
        self.complex = K
        self.tree = spanning_tree(K)
        self.nontree = [e for e in K.simplices_of_dim(1) if e not in self.tree]
        self._index = {e: i + 1 for i, e in enumerate(self.nontree)}
        self.generator_names = [f"t{u}_{v}" for u, v in self.nontree]

    def word_for_path(self, path: Sequence[int]) -> Word:
        adj = self.complex.adjacency()
        letters = []
        for u, w in zip(path, path[1:]):
            if w not in adj.get(u, ()):
                raise ValueError(f"({u}, {w}) is not an edge")
            key = (min(u, w), max(u, w))
            i = self._index.get(key)
            if i is not None:
                letters.append(i if u < w else -i)
        return Word(letters)

    def presentation(self) -> Presentation:
        relators = cyclic_relators(
            self.word_for_path([u, v, w, u]) for u, v, w in self.complex.simplices_of_dim(2)
        )
        return Presentation(self.generator_names, relators, [OTHER] * len(relators))


def presentation_to_json(p: Presentation) -> str:
    return _json_text(p.to_json_dict())


def presentation_from_json(path) -> Presentation:
    return Presentation.from_json_dict(_read_json(path))
