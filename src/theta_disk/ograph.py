"""Ordinal graphs: linear vertex chains whose edges are ordinal graphs.

An ordinal graph is either empty or has vertices ``0..p`` with one
non-empty ordinal graph sitting between each pair of consecutive
vertices.  ``gamma``/``gamma_prime`` translate back and forth between
these and globular cardinals: the vertices become dimension-0 cells and
each edge becomes the cells strictly between consecutive ones.

Morphisms translate vertices by a fixed offset (the only injective maps
of linear orders with interval image) and map each edge into the
corresponding edge of the codomain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from theta_disk.globular import (
    EMPTY_CARDINAL,
    GlobCard,
    GlobMor,
    desuspend,
    desuspend_mor,
    suspend_gc,
    suspend_gc_mor,
)
from theta_disk.itree import ORDINAL, ITreeObj, trivial_obj
from theta_disk.ordinal import Interned, Ordinal, hom_recursion, json_field


@dataclass(frozen=True, eq=False)
class OGraph(Interned):
    """An ordinal graph: a vertex count and one edge graph per gap.

    Graphs are interned, like the cardinals ``gamma_prime`` builds from
    them: equal graphs are one object, validated once, and equality and
    hashing are identity.
    """

    vertices: int
    edges: tuple["OGraph", ...] = ()

    def __post_init__(self) -> None:
        if self.vertices < 0:
            raise ValueError("vertex count is non-negative")
        expected = max(self.vertices - 1, 0)
        if len(self.edges) != expected:
            raise ValueError(
                f"expected {expected} edge graphs, got {len(self.edges)}"
            )
        if any(e.vertices == 0 for e in self.edges):
            raise ValueError("edge graphs are non-empty")

    @property
    def is_empty(self) -> bool:
        return self.vertices == 0

    @property
    def dim(self) -> int:
        if self.vertices == 0:
            return -1
        if not self.edges:
            return 0
        return 1 + max(e.dim for e in self.edges)

    @property
    def size(self) -> int:
        """Total cell count of the corresponding globular cardinal."""
        return self.vertices + sum(e.size for e in self.edges)

    def to_dict(self) -> dict:
        return {
            "kind": "ograph",
            "vertices": self.vertices,
            "edges": [e.to_dict() for e in self.edges],
        }

    @staticmethod
    def from_dict(data: dict) -> "OGraph":
        return OGraph(
            json_field(data, "ograph", "vertices"),
            json_field(data, "ograph", "edges", OGraph.from_dict, 1),
        )


EMPTY_OGRAPH = OGraph(0)
POINT_OGRAPH = OGraph(1)


@dataclass(frozen=True, eq=False)
class OGraphMor(Interned):
    """A morphism of ordinal graphs: a vertex offset plus edge morphisms;
    interned, like the graphs it runs between."""

    dom: OGraph
    cod: OGraph
    offset: int
    edge_mors: tuple["OGraphMor", ...] = ()

    def __post_init__(self) -> None:
        if self.dom.is_empty:
            if self.offset != 0 or self.edge_mors:
                raise ValueError(
                    "the morphism out of the empty graph carries no data"
                )
            return
        if not 0 <= self.offset <= self.cod.vertices - self.dom.vertices:
            raise ValueError("vertex translation does not fit the codomain")
        if len(self.edge_mors) != len(self.dom.edges):
            raise ValueError("expected one morphism per domain edge")
        for i, sub in enumerate(self.edge_mors):
            if sub.dom != self.dom.edges[i]:
                raise ValueError(f"edge morphism {i} has the wrong domain")
            if sub.cod != self.cod.edges[self.offset + i]:
                raise ValueError(f"edge morphism {i} has the wrong codomain")


def identity_ograph_mor(g: OGraph) -> OGraphMor:
    return OGraphMor(
        g, g, 0, tuple(identity_ograph_mor(e) for e in g.edges)
    )


def compose_ograph_mors(g: OGraphMor, f: OGraphMor) -> OGraphMor:
    if f.cod != g.dom:
        raise ValueError("ordinal graph morphisms do not compose")
    if f.dom.is_empty:
        return OGraphMor(f.dom, g.cod, 0, ())
    return OGraphMor(
        f.dom,
        g.cod,
        f.offset + g.offset,
        tuple(
            compose_ograph_mors(g.edge_mors[f.offset + i], sub)
            for i, sub in enumerate(f.edge_mors)
        ),
    )


def _branches(g: OGraph, h: OGraph) -> list:
    """Each vertex offset of ``g -> h`` with the edge pairs over it."""
    if g.is_empty:
        return [(0, ())]
    return [
        (offset, [(e, h.edges[offset + i]) for i, e in enumerate(g.edges)])
        for offset in range(h.vertices - g.vertices + 1)
    ]


enumerate_ograph_morphisms, count_ograph_morphisms = hom_recursion(
    _branches, OGraphMor
)


@lru_cache(maxsize=None)
def _nonempty_ographs(max_size: int, max_dim: int) -> tuple[OGraph, ...]:
    if max_size < 1 or max_dim < 0:
        return ()
    out = [POINT_OGRAPH]
    if max_dim == 0:
        return tuple(out)
    for vertices in range(2, max_size + 1):
        gaps = vertices - 1
        budget = max_size - vertices
        options = _nonempty_ographs(budget - (gaps - 1), max_dim - 1)
        for combo in product(options, repeat=gaps):
            if sum(e.size for e in combo) <= budget:
                out.append(OGraph(vertices, combo))
    return tuple(out)


def enumerate_ographs(max_size: int, max_dim: int) -> list[OGraph]:
    """All ordinal graphs with bounded total size and dimension."""
    return [EMPTY_OGRAPH, *_nonempty_ographs(max_size, max_dim)]


@lru_cache(maxsize=None)
def gamma(x: GlobCard) -> OGraph:
    """Read a globular cardinal as an ordinal graph, once per cardinal."""
    if not x.gset.levels:
        return EMPTY_OGRAPH
    return OGraph(
        x.gset.levels[0], tuple(gamma(c) for c, _ in desuspend(x))
    )


@lru_cache(maxsize=None)
def gamma_mor(f: GlobMor) -> OGraphMor:
    """Read a globular morphism as an ordinal graph morphism, once per
    morphism."""
    if not f.dom.gset.levels:
        return OGraphMor(EMPTY_OGRAPH, gamma(f.cod), 0, ())
    offset, family = desuspend_mor(f)
    return OGraphMor(
        gamma(f.dom), gamma(f.cod), offset, tuple(map(gamma_mor, family))
    )


@lru_cache(maxsize=None)
def gamma_prime(g: OGraph) -> GlobCard:
    """Build the globular cardinal of an ordinal graph, once per graph."""
    if g.is_empty:
        return EMPTY_CARDINAL
    return suspend_gc([gamma_prime(e) for e in g.edges])


@lru_cache(maxsize=None)
def gamma_prime_mor(f: OGraphMor) -> GlobMor:
    """Build the globular morphism of an ordinal graph morphism, once per
    morphism."""
    if f.dom.is_empty:
        return GlobMor(EMPTY_CARDINAL, gamma_prime(f.cod), ())
    return suspend_gc_mor(
        f.offset,
        [gamma_prime_mor(sub) for sub in f.edge_mors],
        [gamma_prime(e) for e in f.dom.edges],
        [gamma_prime(e) for e in f.cod.edges],
    )


@lru_cache(maxsize=None)
def upsilon(h: ITreeObj) -> OGraph:
    """Read an ordinal-flavor inductive tree as an ordinal graph, once per
    tree."""
    if h.flavor != ORDINAL:
        raise ValueError("ordinal graphs correspond to ordinal-flavor trees")
    if h.is_trivial:
        return EMPTY_OGRAPH
    p = h.root.n
    return OGraph(
        p + 1, tuple(upsilon(h.children[j]) for j in range(1, p + 1))
    )


@lru_cache(maxsize=None)
def upsilon_prime(g: OGraph) -> ITreeObj:
    """Build the ordinal-flavor inductive tree of an ordinal graph, once per
    graph."""
    if g.is_empty:
        return trivial_obj(ORDINAL)
    trivial = trivial_obj(ORDINAL)
    return ITreeObj(
        ORDINAL,
        Ordinal(g.vertices - 1),
        (trivial, *(upsilon_prime(e) for e in g.edges), trivial),
    )
