"""Spherical doubles of simplicial complexes.

The double of a complex replaces each m-simplex by the (m+1)-fold join of
0-spheres over its vertices: every vertex i splits into a plus copy and a
minus copy, and a simplex contributes all of its sign-decorated variants.
Collapsing signs gives a simplicial retraction back onto the base.

Sign encoding: the plus copy of vertex i has id 2*i, the minus copy 2*i+1.
This keeps doubled complexes inside the ordinary integer-vertex JSON format;
the retraction is implicit in the encoding.
"""

from __future__ import annotations

from itertools import chain, product, repeat, starmap
from typing import Sequence

from .complex_core import ComplexError, SimplicialComplex, _require_valid


def plus_vertex(base_vertex: int) -> int:
    return 2 * base_vertex


def minus_vertex(base_vertex: int) -> int:
    return 2 * base_vertex + 1


def base_vertex(doubled_vertex: int) -> int:
    return (doubled_vertex - (doubled_vertex % 2)) // 2


class DoubledComplex:
    """A spherical double together with its base and the sign-collapsing retraction."""

    __slots__ = ("complex", "base")

    def __init__(self, complex: SimplicialComplex, base: SimplicialComplex):
        self.complex = complex
        self.base = base

    def retraction(self, vertex: int) -> int:
        if (vertex,) not in self.complex.simplices:
            raise ComplexError(f"vertex {vertex} not in doubled complex")
        return base_vertex(vertex)

    def __repr__(self) -> str:
        return f"DoubledComplex(f={self.complex.f_vector()} over f={self.base.f_vector()})"


def spherical_double(L: SimplicialComplex) -> DoubledComplex:
    """Double every simplex of L into a join of 0-spheres.

    Each m-simplex contributes 2^(m+1) sign-decorated m-simplices; the two
    copies of a vertex are never adjacent.
    """
    _require_valid(L)
    signs = {v: (plus_vertex(v), minus_vertex(v)) for v in L.vertices}
    # L is valid, so each simplex is strictly sorted, and v < w gives
    # 2v + 1 < 2w: every sign choice comes out of product already sorted, and
    # every face of a sign choice is one.  The choices of neighbouring
    # simplices interleave (those of (0, 1) and (0, 2) do), so each layer is
    # sorted once, from runs of the 2^n choices of each n-vertex simplex.
    layers = {}
    for n in range(1, L.dimension + 2):
        choices = starmap(product, map(map, repeat(signs.__getitem__), L.simplices_of_dim(n - 1)))
        layers[n] = sorted(chain.from_iterable(choices))
    double = SimplicialComplex._layered(chain.from_iterable(signs.values()), layers)
    if "pure" in L._cache:  # each sign choice of a facet of L is maximal, and every simplex lies in one
        double._cache["pure"] = L._cache["pure"]
    return DoubledComplex(double, L)


def retract_word(d: DoubledComplex, path: Sequence[int]) -> list[int]:
    """Image of an edge path of the double under the retraction.

    Degenerate edges cannot occur: the plus and minus copies of a vertex are
    never joined by an edge of the double.
    """
    path = list(path)
    for v in path:
        if (v,) not in d.complex.simplices:
            raise ComplexError(f"vertex {v} not in doubled complex")
    for u, w in zip(path, path[1:]):
        if not d.complex.has_simplex((u, w)):
            raise ComplexError(f"({u}, {w}) is not an edge of the doubled complex")
    return [base_vertex(v) for v in path]
