"""Taut loop length spectrum of a finite graph, with certified statuses.

A loop of length l is taut when it stays essential after 2-cells are attached
to every loop of length below l.  Null-homotopy in such a filled complex is
semi-decided: when coset enumeration completes the level quotient, every
candidate is settled outright; otherwise a candidate can still be certified
taut by exhibiting a finite cyclic quotient (read off the abelianized level
quotient) in which it survives.  A level whose Tietze reduction
(``groups.simplify``) keeps no relator presents a free group on the
surviving generators, where free reduction solves the word problem: each
remaining candidate is rewritten through the elimination record, and is
taut when its image is non-empty and filled when it is empty
(``free-quotient``).  Only at levels whose reduction keeps a relator is a
candidate certified filled by a bounded derivation search.  Anything else is
reported unknown rather than guessed.

Enumerating the cosets of the trivial subgroup finishes only when the level
quotient is finite.  ``groups.enumerate_table`` returns None without a row
when the reduced relators' exponent vectors prove the quotient infinite
(positive free rank), which a free level of positive rank always is, so
free levels are not enumerated and ``budget_used`` counts coset rows only
of enumerations that can finish.  The cyclic-quotient and derivation
certificates read the unreduced level presentation, so they do not depend
on the reduction.

Once a level's table completes with order 1, every later level quotient is
trivial too, so a later length is filled exactly when it has a loop: when
tr(B^l) > 0 for the graph's non-backtracking (Hashimoto) matrix B, decided
with no cycle listed.  Cycles are listed one length at a time and only up to
that level, and no later table is built, so ``budget_used`` falls (5x5 torus
grid at l_max 10: 5 coset rows when every level with loops is enumerated, 1).

Only cyclically reduced loops matter on both sides: a loop with a backtrack
is null-homotopic in every filled complex, and its relator is implied by a
shorter loop's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .complex_core import (
    ComplexError,
    SimplicialComplex,
    _json_int_arrays,
    _json_items,
    _json_object,
    _json_text,
    _read_json,
    _record_json,
    _require_valid,
)
from .groups import (
    Presentation,
    SpanningTreeWords,
    Word,
    _enumerate_reduction,
    _rewrite,
    _survivors,
    cyclic_relators,
    free_reduce,
    simplify,
    trace_word,
)
from .homology import smith_normal_form


class CeilingError(ValueError):
    """Raised when a spectra comparison would need data beyond the scan ceiling."""


# ---------------------------------------------------------------------------
# Cycle enumeration


def _is_kept_rotation(walk: tuple[int, ...]) -> bool:
    """Whether the walk is the greatest of its rotations that start at its
    first vertex, taken in both directions."""
    s = walk[0]
    for seq in (walk, walk[::-1]):
        for r, v in enumerate(seq):
            if v == s and seq[r:] + seq[:r] > walk:
                return False
    return True


def cycles_by_length(
    graph: SimplicialComplex, lengths: Iterable[int]
) -> Iterator[tuple[int, list[tuple[int, ...]]]]:
    """Cyclically reduced closed walks up to rotation and reversal, one
    requested length at a time, each list sorted.

    Each length is a fresh depth-first search, so a caller that stops pulling
    never pays for longer lengths.  A class is searched from its least vertex
    s, over vertices >= s, and kept only as the greatest of its rotations
    that start at s, in either direction.
    """
    adj = {v: sorted(ns) for v, ns in graph.adjacency().items()}
    starts = sorted(graph.vertices)
    for length in lengths:
        walks: list[tuple[int, ...]] = []
        for s in starts if length >= 3 else ():
            stack: list[tuple[int, int | None, tuple[int, ...]]] = [(s, None, (s,))]
            while stack:
                cur, prev, path = stack.pop()
                if len(path) == length:
                    if s != prev and path[1] != cur and s in adj[cur] and _is_kept_rotation(path):
                        walks.append(path)
                    continue
                for nxt in adj[cur]:
                    if nxt >= s and nxt != prev:
                        stack.append((nxt, cur, path + (nxt,)))
        walks.sort()
        yield length, walks


def closed_walk_lengths(graph: SimplicialComplex, max_len: int) -> set[int]:
    """The lengths l <= max_len that have a cyclically non-backtracking
    closed walk, found without listing one: those with tr(B^l) > 0 for the
    non-backtracking (Hashimoto) matrix B on darts.

    Row d of B^l is kept as a bitset of the darts that some walk of l steps
    from d ends on; a row of B^(l+1) is the union of B^l's rows at the
    successors of d.
    """
    adj = graph.adjacency()
    darts = [(u, v) for u in sorted(adj) for v in sorted(adj[u])]
    index = {d: i for i, d in enumerate(darts)}
    successors = [[index[v, w] for w in adj[v] if w != u] for u, v in darts]
    rows = [1 << i for i in range(len(darts))]
    lengths = set()
    for l in range(1, max_len + 1):
        new_rows = []
        for succ in successors:
            row = 0
            for e in succ:
                row |= rows[e]
            new_rows.append(row)
        rows = new_rows
        if any(row >> i & 1 for i, row in enumerate(rows)):
            lengths.add(l)
    return lengths


# ---------------------------------------------------------------------------
# Certificates


def _lattice_smith(relator_rows: list[list[int]], n: int) -> tuple[list[int], list[list[int]]]:
    """Diagonal and column transform V of the Smith form U*R*V = D of the
    relator row lattice in Z^n."""
    if not relator_rows:
        return [], [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    D, _, V = smith_normal_form(relator_rows)
    return [D[i][i] for i in range(min(len(D), n))], V


def _abelian_survival(smith: tuple[list[int], list[list[int]]], vector: list[int]) -> dict | None:
    """A finite cyclic quotient of the abelianization where the vector survives.

    Returns None when the vector lies in the relator row lattice, whose
    Smith form ``smith`` comes from :func:`_lattice_smith`: membership means
    the transformed vector is divisible coordinatewise by the diagonal.
    """
    n = len(vector)
    d_diag, V = smith
    y = [sum(vector[i] * V[i][j] for i in range(n)) for j in range(n)]
    for j in range(n):
        d = d_diag[j] if j < len(d_diag) else 0
        if d:
            if y[j] % d:
                return {"method": "cyclic-quotient", "coordinate": j, "modulus": d, "residue": y[j] % d}
        elif y[j]:
            modulus = abs(y[j]) + 1
            return {"method": "cyclic-quotient", "coordinate": j, "modulus": modulus, "residue": y[j] % modulus}
    return None


def _splice(left: tuple[int, ...], move: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """free_reduce(left + move + right) for freely reduced left, move and
    right: only the junctions can cancel, left|move, then move|right, then
    left|right once move is used up."""
    i, j, k, r = len(left), 0, len(move), 0
    while i and j < k and left[i - 1] == -move[j]:
        i, j = i - 1, j + 1
    while j < k and r < len(right) and move[k - 1] == -right[r]:
        k, r = k - 1, r + 1
    if j == k:
        while i and r < len(right) and left[i - 1] == -right[r]:
            i, r = i - 1, r + 1
    return left[:i] + move[j:k] + right[r:]


def _derivation_search(word: Word, relators: Sequence[Word], max_nodes: int) -> int | None:
    """Breadth-first search for a null-homotopy derivation; returns step count."""
    if word.is_identity():
        return 0
    moves: list[tuple[int, ...]] = []
    seen_moves = set()
    for rel in relators:
        for base in (rel, rel.inverse()):
            ls = base.letters
            for r in range(len(ls)):
                rot = free_reduce(ls[r:] + ls[:r])
                if rot not in seen_moves:
                    seen_moves.add(rot)
                    moves.append(rot)
    max_len = len(word) + max((len(m) for m in moves), default=0)
    frontier = [word.letters]
    seen = {word.letters}
    steps = 0
    while frontier and len(seen) < max_nodes:
        steps += 1
        nxt = []
        for current in frontier:
            for move in moves:
                for pos in range(len(current) + 1):
                    candidate = _splice(current[:pos], move, current[pos:])
                    if len(candidate) > max_len or candidate in seen:
                        continue
                    if not candidate:
                        return steps
                    seen.add(candidate)
                    nxt.append(candidate)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# The spectrum


@dataclass(frozen=True)
class LengthStatus:
    status: str  # "taut" | "filled" | "unknown"
    certificate: Mapping
    loop: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return _record_json(self, certificate=dict(self.certificate), loop=list(self.loop) if self.loop else None)


@dataclass(frozen=True)
class TautSpectrumReport:
    graph_f_vector: tuple[int, ...]
    l_max: int
    budget: int
    budget_used: int
    statuses: Mapping[int, LengthStatus]

    @property
    def spectrum(self) -> list[int]:
        return sorted(l for l, st in self.statuses.items() if st.status == "taut")

    def to_json_dict(self) -> dict:
        statuses = {str(l): self.statuses[l].to_json_dict() for l in sorted(self.statuses)}
        return _record_json(self, statuses=statuses, spectrum=self.spectrum)


def taut_spectrum(graph: SimplicialComplex, l_max: int, budget: int = 100_000) -> TautSpectrumReport:
    """Certified statuses for every loop length up to l_max.

    Per length l, the level quotient is the free group on non-tree edges
    modulo the words of all shorter cycles.  A completed enumeration decides
    every candidate; otherwise abelian survival can certify one taut.  At a
    level whose Tietze reduction keeps no relator, the rest are decided in
    the free quotient (``free-quotient``, with its rank); elsewhere they fall
    to derivation search for filled.  Certified statuses never flip under a
    larger budget; only unknowns, which only derivation search leaves, can
    resolve.

    Each level is reduced once.  A free level is not enumerated, and at
    another level of positive free rank ``enumerate_table`` returns None
    without a row, since no table could complete.  Once a table
    completes with order 1, no later level is enumerated or listed: each
    later length is filled (``finite-quotient``, order 1) when
    :func:`closed_walk_lengths` has it and ``no-loops`` otherwise.
    ``budget_used`` counts the coset rows of the enumerations that ran.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    _require_valid(graph)
    if graph.dimension > 1:
        raise ComplexError("the spectrum is defined for graphs (dimension <= 1)")
    if not graph.is_connected():
        raise ComplexError("graph must be connected")
    if l_max < 1:
        raise ComplexError("l_max must be positive")

    words = SpanningTreeWords(graph)
    ngens = len(words.generator_names)
    loop_lengths = closed_walk_lengths(graph, l_max)
    cycles = cycles_by_length(graph, sorted(loop_lengths))  # pulled only while a level needs its walks

    budget_used = 0
    statuses: dict[int, LengthStatus] = {}
    relators: dict[Word, None] = {}  # words of all shorter cycles, in first-seen order
    shorter: list[Word] = []  # words of the cycles of length l - 1
    for l in range(1, l_max + 1):
        relators.update(dict.fromkeys(cyclic_relators(shorter)))
        shorter = []
        if l not in loop_lengths:
            statuses[l] = LengthStatus("filled", {"method": "no-loops"})
            continue

        presentation = Presentation([f"g{i}" for i in range(ngens)], list(relators))
        reduced, record = simplify(presentation)
        # with no relator left the quotient is free on the survivors, where
        # enumerate_table's free-rank gate would return (None, 0)
        free = bool(reduced.generators) and not reduced.relators
        table, rows = (None, 0) if free else _enumerate_reduction(presentation, reduced, record, (), budget)
        budget_used += rows
        if table is not None and len(table) == 1:
            # later level quotients are trivial too: a length is filled, by
            # this table, exactly when it has loops
            for m in range(l, l_max + 1):
                if m in loop_lengths:
                    statuses[m] = LengthStatus("filled", {"method": "finite-quotient", "order": 1})
                else:
                    statuses[m] = LengthStatus("filled", {"method": "no-loops"})
            break
        if table is not None:
            order = len(table)
        else:
            # every candidate reaches the fallback, so the level's Smith form is needed once
            smith = _lattice_smith(presentation.exponent_matrix(), ngens)
            survivors = _survivors(ngens, record)
            free_cert = {"method": "free-quotient", "rank": len(survivors)}

        walks = next(cycles)[1]
        shorter = [words.word_for_path(w + (w[0],)) for w in walks]
        taut_hit: LengthStatus | None = None
        unknown = False
        for walk, word in zip(walks, shorter):
            if table is not None:
                if trace_word(table, word) == 0:
                    continue
                taut_hit = LengthStatus(
                    "taut", {"method": "finite-quotient", "order": order}, walk
                )
                break
            cert = _abelian_survival(smith, word.exponent_row(ngens))
            if cert is not None:
                taut_hit = LengthStatus("taut", cert, walk)
                break
            if free:
                # free reduction solves the word problem of a free group
                if not _rewrite(record, word, survivors).is_identity():
                    taut_hit = LengthStatus("taut", free_cert, walk)
                    break
            elif _derivation_search(word, presentation.relators, max_nodes=max(budget // 10, 100)) is None:
                unknown = True
            # a trivial image or a successful derivation confirms this candidate filled; keep going
        if taut_hit is not None:
            statuses[l] = taut_hit
        elif table is not None:
            statuses[l] = LengthStatus("filled", {"method": "finite-quotient", "order": order})
        elif free:
            statuses[l] = LengthStatus("filled", free_cert)
        elif unknown:
            statuses[l] = LengthStatus("unknown", {"method": "budget-exhausted"})
        else:
            statuses[l] = LengthStatus("filled", {"method": "derivation"})
    return TautSpectrumReport(graph.f_vector(), l_max, budget, budget_used, statuses)


# ---------------------------------------------------------------------------
# Comparisons


def k_related(H: Sequence[int], H_prime: Sequence[int], k: int, ceiling: int) -> bool:
    """Mutual approximation of two length spectra within factor k above the
    threshold k^2 + 2k + 2, certified relative to the scan ceiling.

    Both sets must be complete up to the ceiling.  When the absence of a
    witness cannot be certified because the witness window leaves the ceiling,
    a CeilingError is raised instead of guessing.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    threshold = k * k + 2 * k + 2
    if ceiling < threshold:
        raise CeilingError(f"ceiling {ceiling} below threshold {threshold}")
    A = sorted(set(int(x) for x in H))
    B = sorted(set(int(x) for x in H_prime))
    for src, dst in ((A, B), (B, A)):
        for l in src:
            if l < threshold or l > ceiling:
                continue
            if any(k * lp >= l and lp <= l * k for lp in dst):
                continue
            if l * k > ceiling:
                raise CeilingError(
                    f"witness window for length {l} extends beyond the ceiling {ceiling}"
                )
            return False
    return True


# ---------------------------------------------------------------------------
# Graph I/O


def load_graph(path) -> SimplicialComplex:
    """Read graph JSON; a wrong shape raises ``FormatError`` naming its JSON path."""
    data = _json_object(_read_json(path), "$")
    return SimplicialComplex.from_facets(
        _json_int_arrays(data.get("edges", []), "$.edges"), _json_items(data.get("vertices", []), "$.vertices")
    )


def dump_graph(graph: SimplicialComplex) -> str:
    return _json_text({"vertices": sorted(graph.vertices), "edges": [list(e) for e in graph.edges()]})
