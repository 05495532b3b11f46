"""Free omega-categories on globular cardinals and on ordinal graphs.

Two models of the cells of a free omega-category are implemented and
compared:

* ``Cell``: an n-cell of the free omega-category on a globular cardinal
  ``base`` is a globular morphism from a ``shape`` cardinal into it,
  together with a nominal dimension (cells whose nominal dimension
  exceeds the shape dimension are iterated identities).  Sources and
  targets keep the least/greatest cell of each band; composition glues
  shapes along a shared boundary, component by component, since every
  non-empty shape is the suspension of its components.

* ``EnrichedCell``: an n-cell of the free omega-category on an ordinal
  graph is an object, an identity marker on an object, or a vertex span
  ``h < k`` with one (n-1)-cell chosen from the free omega-category of
  each edge along the span.

``comparison_L`` translates the first model into the second, one
dimension at a time, and is a bijection commuting with boundaries and
compositions.  ``psi_obj``/``psi_mor`` present the free omega-category
of an ordinal-flavor inductive tree and the action of a tree morphism
on generating cells; ``enumerate_omega_functors`` enumerates all
functors between presented free omega-categories as the globular maps
from the generators of the domain into the cells of the codomain (the
search of ``globular.search_maps``), and ``hom_graph_count`` counts them
without listing.

Cells and enriched cells are interned, so the work on them is memoized
per distinct value: each cell's m-sources and m-targets (``m_source``
and ``m_target``, one lookup each, on top of ``_face``, one face
inclusion per shape, dimension and side), composites (``_composite``,
one per composable triple, on top of ``_glue``, one per shape triple)
and the comparison ``comparison_L``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from theta_disk.globular import (
    GlobCard,
    GlobMor,
    cells_by_ends,
    compose_glob_mors,
    desuspend,
    desuspend_mor,
    enumerate_glob_morphisms,
    identity_glob_mor,
    search_maps,
    sub_globcard,
    suspend_gc,
    suspend_gc_mor,
)
from theta_disk.itree import ORDINAL, ITreeMor, ITreeObj
from theta_disk.ograph import (
    EMPTY_OGRAPH,
    OGraph,
    enumerate_ographs,
    gamma_prime,
    upsilon,
)
from theta_disk.ordinal import Interned, hom_recursion, json_field, json_str, wedge_map

# ---------------------------------------------------------------------------
# Cells over a globular cardinal


@dataclass(frozen=True, eq=False)
class Cell(Interned):
    """A cell of the free omega-category on a globular cardinal; interned,
    like the globular values it is made of."""

    base: GlobCard
    shape: GlobCard
    map: GlobMor
    nominal_dim: int

    def __post_init__(self) -> None:
        if not self.shape.gset.levels:
            raise ValueError("a cell has a non-empty shape")
        if self.map.dom != self.shape or self.map.cod != self.base:
            raise ValueError("the cell map runs from the shape to the base")
        if self.nominal_dim < self.shape.dim:
            raise ValueError(
                "nominal dimension is at least the shape dimension"
            )

    @property
    def is_proper(self) -> bool:
        return self.nominal_dim == self.shape.dim

    def to_dict(self) -> dict:
        return {
            "kind": "cell",
            "base": self.base.to_dict(),
            "shape": self.shape.to_dict(),
            "map": [list(m) for m in self.map.level_maps],
            "dim": self.nominal_dim,
        }

    @staticmethod
    def from_dict(data: dict) -> "Cell":
        base = json_field(data, "cell", "base", GlobCard.from_dict)
        shape = json_field(data, "cell", "shape", GlobCard.from_dict)
        level_maps = json_field(data, "cell", "map", depth=2)
        dim = json_field(data, "cell", "dim")
        return Cell(base, shape, GlobMor(shape, base, level_maps), dim)


def promote_cell(c: Cell, n: int) -> Cell:
    """The same underlying data at a higher nominal dimension."""
    if n < c.nominal_dim:
        raise ValueError("promotion does not lower the nominal dimension")
    return Cell(c.base, c.shape, c.map, n)


@lru_cache(maxsize=None)
def enumerate_cells(x: GlobCard, n: int) -> tuple[Cell, ...]:
    """All cells of nominal dimension ``n`` over the cardinal ``x``; one
    shared tuple per pair."""
    if n < 0:
        raise ValueError("cells live in non-negative dimensions")
    out = []
    for g in enumerate_ographs(x.size(), n):
        if g.is_empty:
            continue
        shape = gamma_prime(g)
        if len(shape.gset.levels) > len(x.gset.levels):
            continue
        if any(
            shape.gset.levels[k] > x.gset.levels[k]
            for k in range(len(shape.gset.levels))
        ):
            continue
        for f in enumerate_glob_morphisms(shape, x):
            out.append(Cell(x, shape, f, n))
    return tuple(out)


@lru_cache(maxsize=None)
def _face(shape: GlobCard, m: int, least: bool) -> GlobMor:
    """The inclusion of the m-source (``least``) or m-target of a shape:
    every cell below dimension ``m`` and the least or greatest cell of
    each band at ``m``.  A shape of dimension at most ``m`` is its own
    m-boundary.  Built once per shape, dimension and side."""
    if m >= shape.dim:
        return identity_glob_mor(shape)
    keep = [range(size) for size in shape.gset.levels[:m]]
    if m == 0:
        bands = [range(shape.gset.levels[0])]
    else:
        bands = cells_by_ends(shape)[m - 1].values()
    keep.append([band[0] if least else band[-1] for band in bands])
    return sub_globcard(shape, keep)[1]


def _boundary(c: Cell, m: int, least: bool) -> Cell:
    if not 0 <= m < c.nominal_dim:
        raise ValueError("boundary dimension out of range")
    incl = _face(c.shape, m, least)
    return Cell(c.base, incl.dom, compose_glob_mors(c.map, incl), m)


@lru_cache(maxsize=None)
def m_source(c: Cell, m: int) -> Cell:
    """The m-dimensional source: least cell of each band at level ``m``."""
    return _boundary(c, m, True)


@lru_cache(maxsize=None)
def m_target(c: Cell, m: int) -> Cell:
    """The m-dimensional target: greatest cell of each band at level ``m``."""
    return _boundary(c, m, False)


def compose_cells(beta: Cell, alpha: Cell, m: int) -> Cell:
    """The composite ``beta after alpha`` along their m-boundary.

    Every call checks that the two cells compose; the composite itself is
    built by ``_composite``, once per composable triple.
    """
    if alpha.base != beta.base:
        raise ValueError("cells over different bases do not compose")
    if alpha.nominal_dim != beta.nominal_dim:
        raise ValueError("cells of different nominal dimensions do not compose")
    if not 0 <= m < alpha.nominal_dim:
        raise ValueError("composition dimension out of range")
    if m_target(alpha, m) != m_source(beta, m):
        raise ValueError("cells are not composable at this dimension")
    return _composite(beta, alpha, m)


@lru_cache(maxsize=None)
def _composite(beta: Cell, alpha: Cell, m: int) -> Cell:
    """The composite of two composable cells.

    Cells are interned, so each triple is composed once.  The glued shape
    and the inclusions of both shapes into it depend only on the two
    shapes and ``m``, so ``_glue`` computes them once per shape triple.
    The two maps are combined through the inclusions, and the combination
    is checked to restrict back to both original maps.
    """
    glued_shape, incl_y, incl_z = _glue(alpha.shape, beta.shape, m)
    combined = [[0] * size for size in glued_shape.gset.levels]
    for incl, cell in ((incl_y, alpha), (incl_z, beta)):
        for k, row in enumerate(incl.level_maps):
            for i, target in enumerate(row):
                combined[k][target] = cell.map.level_maps[k][i]
    if _pull_back(combined, incl_y) != alpha.map.level_maps:
        raise AssertionError("glued map does not restrict to the first cell")
    if _pull_back(combined, incl_z) != beta.map.level_maps:
        raise AssertionError("glued map does not restrict to the second cell")
    glued_map = GlobMor(glued_shape, alpha.base, tuple(map(tuple, combined)))
    return Cell(alpha.base, glued_shape, glued_map, alpha.nominal_dim)


def _pull_back(level_maps: list[list[int]], incl: GlobMor) -> tuple:
    """The level maps of ``level_maps`` after ``incl``."""
    return tuple(
        tuple(level_maps[k][v] for v in row)
        for k, row in enumerate(incl.level_maps)
    )


@lru_cache(maxsize=None)
def _glue(
    y: GlobCard, z: GlobCard, m: int
) -> tuple[GlobCard, GlobMor, GlobMor]:
    """The shape glued from ``y`` and ``z`` along the m-target of ``y``
    (equal to the m-source of ``z``), with the inclusions of ``y`` and of
    ``z`` into it.

    A shape of dimension at most ``m`` is its own m-boundary, so the
    other shape is the glued one.  Otherwise both are suspensions: along
    objects their components are listed one after the other, and above
    that they share their objects and are glued pairwise at ``m - 1``.
    """
    if y.dim <= m:
        return z, _face(z, m, True), identity_glob_mor(z)
    if z.dim <= m:
        return y, identity_glob_mor(y), _face(y, m, False)
    ys = [c for c, _ in desuspend(y)]
    zs = [c for c, _ in desuspend(z)]
    if m == 0:
        parts, z_offset = ys + zs, len(ys)
        incl_ys = [identity_glob_mor(c) for c in ys]
        incl_zs = [identity_glob_mor(c) for c in zs]
    else:
        pieces = (_glue(a, b, m - 1) for a, b in zip(ys, zs))
        parts, incl_ys, incl_zs = zip(*pieces)
        z_offset = 0
    return (
        suspend_gc(parts),
        suspend_gc_mor(0, incl_ys, ys, parts),
        suspend_gc_mor(z_offset, incl_zs, zs, parts),
    )


# ---------------------------------------------------------------------------
# Enriched cells over an ordinal graph


@dataclass(frozen=True, eq=False)
class EnrichedCell(Interned):
    """A cell of the free omega-category on an ordinal graph; interned,
    like the ``Cell`` values that ``comparison_L`` sends to it.

    ``h == k`` with no parts is an object (dimension 0) or an identity
    marker on the object (higher dimension); otherwise ``parts`` holds
    one cell of one dimension less per edge along the span.
    """

    dim: int
    h: int
    k: int
    parts: tuple["EnrichedCell", ...] = ()

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("dimension is non-negative")
        if self.h > self.k:
            raise ValueError("spans run forward")
        if self.h == self.k:
            if self.parts:
                raise ValueError("markers carry no parts")
        else:
            if self.dim == 0:
                raise ValueError("objects have no extent")
            if len(self.parts) != self.k - self.h:
                raise ValueError("one part per edge along the span")
            if any(p.dim != self.dim - 1 for p in self.parts):
                raise ValueError("parts live one dimension down")

    def to_dict(self) -> dict:
        return {
            "kind": "enriched-cell",
            "dim": self.dim,
            "h": self.h,
            "k": self.k,
            "parts": [p.to_dict() for p in self.parts],
        }

    @staticmethod
    def from_dict(data: dict) -> "EnrichedCell":
        return EnrichedCell(
            json_field(data, "enriched-cell", "dim"),
            json_field(data, "enriched-cell", "h"),
            json_field(data, "enriched-cell", "k"),
            json_field(data, "enriched-cell", "parts", EnrichedCell.from_dict, 1),
        )


def _cell_branches(g: OGraph, n: int) -> list:
    """The span ``(h, k)`` of each n-cell with the (edge, dimension) of its
    parts: a marker on every vertex and, above dimension 0, every span."""
    if n < 0:
        raise ValueError("cells live in non-negative dimensions")
    spans = [(h, h) for h in range(g.vertices)]
    if n:
        spans += [(h, k) for h in range(g.vertices) for k in range(h + 1, g.vertices)]
    return [(span, [(g.edges[j], n - 1) for j in range(*span)]) for span in spans]


# The n-cells of the free omega-category on an ordinal graph, new each call.
free_on_ograph_cells = hom_recursion(
    _cell_branches, lambda g, n, span, parts: EnrichedCell(n, *span, parts)
)[0]


def _enriched_boundary(c: EnrichedCell, m: int, least: bool) -> EnrichedCell:
    if not 0 <= m < c.dim:
        raise ValueError("boundary dimension out of range")
    if m == 0:
        end = c.h if least else c.k
        return EnrichedCell(0, end, end)
    parts = tuple(_enriched_boundary(p, m - 1, least) for p in c.parts)
    return EnrichedCell(m, c.h, c.k, parts)


def enriched_m_source(c: EnrichedCell, m: int) -> EnrichedCell:
    """The m-dimensional source: the span's source end, or the parts'."""
    return _enriched_boundary(c, m, True)


def enriched_m_target(c: EnrichedCell, m: int) -> EnrichedCell:
    """The m-dimensional target: the span's target end, or the parts'."""
    return _enriched_boundary(c, m, False)


def compose_enriched(
    beta: EnrichedCell, alpha: EnrichedCell, m: int
) -> EnrichedCell:
    """The composite ``beta after alpha`` along dimension ``m``."""
    if alpha.dim != beta.dim:
        raise ValueError("cells of different dimensions do not compose")
    n = alpha.dim
    if not 0 <= m < n:
        raise ValueError("composition dimension out of range")
    if m == 0:
        if alpha.k != beta.h:
            raise ValueError("spans do not meet")
        return EnrichedCell(n, alpha.h, beta.k, alpha.parts + beta.parts)
    if alpha.h != beta.h or alpha.k != beta.k:
        raise ValueError("spans differ")
    return EnrichedCell(
        n,
        alpha.h,
        alpha.k,
        tuple(
            compose_enriched(bp, ap, m - 1)
            for bp, ap in zip(beta.parts, alpha.parts)
        ),
    )


def enriched_identity(c: EnrichedCell) -> EnrichedCell:
    """The identity on a cell, one dimension up."""
    return EnrichedCell(
        c.dim + 1, c.h, c.k, tuple(enriched_identity(p) for p in c.parts)
    )


def demote_enriched(c: EnrichedCell) -> EnrichedCell | None:
    """The cell this one is the identity of, or None if it is not one."""
    if c.dim == 0:
        return None
    if c.h == c.k:
        return EnrichedCell(c.dim - 1, c.h, c.k)
    if c.dim == 1:
        return None
    demoted = tuple(demote_enriched(p) for p in c.parts)
    if any(p is None for p in demoted):
        return None
    return EnrichedCell(c.dim - 1, c.h, c.k, demoted)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# The comparison between the two models


@lru_cache(maxsize=None)
def comparison_L(c: Cell) -> EnrichedCell:
    """Translate a cell over a cardinal into an enriched cell over its
    ordinal graph, one component between consecutive object cells at a
    time.

    Cells are interned, so each distinct cell is translated once."""
    f = c.map
    if c.nominal_dim == 0:
        v = f.level_maps[0][0]
        return EnrichedCell(0, v, v)
    h, family = desuspend_mor(f)
    parts = tuple(
        comparison_L(Cell(g.cod, g.dom, g, c.nominal_dim - 1)) for g in family
    )
    return EnrichedCell(c.nominal_dim, h, f.level_maps[0][-1], parts)


# ---------------------------------------------------------------------------
# Presentations and functors


@dataclass(frozen=True)
class OmegaPresentation:
    """The free omega-category on an ordinal graph; the empty graph
    presents the empty omega-category."""

    graph: OGraph

    def to_dict(self) -> dict:
        if self.graph.is_empty:
            return {"kind": "omega-presentation", "tag": "empty", "base": None}
        return {
            "kind": "omega-presentation",
            "tag": "free_ograph",
            "base": self.graph.to_dict(),
        }

    @staticmethod
    def from_dict(data: dict) -> "OmegaPresentation":
        tag = json_field(data, "omega-presentation", "tag", json_str)
        base = data.get("base")
        if tag not in ("empty", "free_ograph"):
            raise ValueError(f"unknown presentation tag {tag!r}")
        if tag == "empty":
            if base is not None:
                raise ValueError(f"presentation tag {tag!r} takes no base")
            return EMPTY_PRESENTATION
        if base is None:
            raise ValueError(f"presentation tag {tag!r} requires a base")
        graph = OGraph.from_dict(base)
        if graph.is_empty:
            raise ValueError(
                f"presentation tag {tag!r} requires a non-empty graph"
            )
        return OmegaPresentation(graph)


EMPTY_PRESENTATION = OmegaPresentation(EMPTY_OGRAPH)


def enriched_generators(g: OGraph, n: int) -> list[EnrichedCell]:
    """The generating (indecomposable proper) cells at dimension ``n``."""
    if n == 0:
        return [EnrichedCell(0, i, i) for i in range(g.vertices)]
    return [
        EnrichedCell(n, j, j + 1, (y,))
        for j in range(max(g.vertices - 1, 0))
        for y in enriched_generators(g.edges[j], n - 1)
    ]


@lru_cache(maxsize=None)
def all_enriched_generators(g: OGraph) -> tuple[EnrichedCell, ...]:
    """The generators of every dimension, lowest first; one shared tuple
    per interned graph."""
    return tuple(
        gen
        for n in range(g.dim + 1)
        for gen in enriched_generators(g, n)
    )


@dataclass(frozen=True)
class GeneratorAction:
    """An omega-functor between presentations, by its generator images.

    ``assignments`` lists the generators in ``all_enriched_generators``
    order, each with its image.
    """

    dom: OmegaPresentation
    cod: OmegaPresentation
    assignments: tuple[tuple[EnrichedCell, EnrichedCell], ...]


class _Evaluator:
    """The reference evaluation of a generator action on any enriched
    cell, through identities and composites; the functor search needs
    only generator images and does not use it."""

    def __init__(self, action: GeneratorAction):
        self.table = dict(action.assignments)
        self.cache: dict[EnrichedCell, EnrichedCell] = {}

    def __call__(self, c: EnrichedCell) -> EnrichedCell:
        if c in self.cache:
            return self.cache[c]
        result = self._eval(c)
        self.cache[c] = result
        return result

    def _eval(self, c: EnrichedCell) -> EnrichedCell:
        if c in self.table:
            return self.table[c]
        if c.dim == 0:
            raise KeyError(f"no assignment for object {c}")
        if c.h == c.k:
            result = self(EnrichedCell(0, c.h, c.h))
            for _ in range(c.dim):
                result = enriched_identity(result)
            return result
        if c.k - c.h >= 2:
            columns = [
                EnrichedCell(c.dim, c.h + i, c.h + i + 1, (c.parts[i],))
                for i in range(c.k - c.h)
            ]
            result = self(columns[0])
            for col in columns[1:]:
                result = compose_enriched(self(col), result, 0)
            return result
        part = c.parts[0]
        demoted = demote_enriched(c)
        if demoted is not None:
            return enriched_identity(self(demoted))
        split = _find_split(part)
        if split is None:
            raise KeyError(f"no assignment for generator {c}")
        m, first, second = split
        lifted_first = EnrichedCell(c.dim, c.h, c.k, (first,))
        lifted_second = EnrichedCell(c.dim, c.h, c.k, (second,))
        return compose_enriched(self(lifted_second), self(lifted_first), m + 1)


def _find_split(y: EnrichedCell):
    """A non-trivial factorization ``y = second after first`` along some
    dimension, or None if ``y`` is an object, marker, or single-edged."""
    if y.dim == 0 or y.h == y.k:
        return None
    if y.k - y.h >= 2:
        first = EnrichedCell(y.dim, y.h, y.h + 1, (y.parts[0],))
        second = EnrichedCell(y.dim, y.h + 1, y.k, y.parts[1:])
        return (0, first, second)
    sub = _find_split(y.parts[0])
    if sub is None:
        return None
    m, first, second = sub
    return (
        m + 1,
        EnrichedCell(y.dim, y.h, y.k, (first,)),
        EnrichedCell(y.dim, y.h, y.k, (second,)),
    )


def enumerate_omega_functors(
    a: OmegaPresentation, b: OmegaPresentation
) -> list[GeneratorAction]:
    """All omega-functors between presented free omega-categories.

    A functor out of a free omega-category is fixed by its generator
    images, and both boundaries of an n-generator are (n-1)-generators.
    The generators of ``a`` are the cells of ``gamma_prime(a.graph)``, in
    its (dimension, index) order, so the functors are the globular maps
    from that cardinal into the cells over ``b.graph``.
    :func:`search_maps` lists them in the order of their assignment
    tuples.
    """
    g = a.graph
    found = search_maps(
        gamma_prime(g),
        free_on_ograph_cells(b.graph, 0),
        tuple(_by_boundary(b.graph, n) for n in range(1, g.dim + 1)),
    )
    gens = all_enriched_generators(g)
    return [
        GeneratorAction(a, b, tuple(zip(gens, chain.from_iterable(level_maps))))
        for level_maps in found
    ]


def _by_boundary(g: OGraph, n: int) -> dict[tuple, list]:
    """The n-cells over ``g`` by their (n-1)-source and target, each list
    in enumeration order."""
    table: dict[tuple, list] = {}
    for cand in free_on_ograph_cells(g, n):
        key = (enriched_m_source(cand, n - 1), enriched_m_target(cand, n - 1))
        table.setdefault(key, []).append(cand)
    return table


def hom_graph_count(g: OGraph, h: OGraph) -> int:
    """The number of ordinal-graph maps from ``g`` into the underlying
    graph of the free omega-category on ``h`` (the adjunction count).

    Only monotone object maps send every edge somewhere, so the count runs
    over positions of ``g``: ``ways[v]`` counts the maps of the vertices so
    far that send the last one to ``v``.
    """
    if g.is_empty:
        return 1
    ways = [1] * h.vertices
    for e in g.edges:
        ways = [
            sum(ways[u] * _edge_count(e, h, u, v) for u in range(v + 1))
            for v in range(h.vertices)
        ]
    return sum(ways)


@lru_cache(maxsize=None)
def _edge_count(e: OGraph, h: OGraph, u: int, v: int) -> int:
    """The images of the edge graph ``e`` over the span ``u <= v`` of
    ``h``: one per choice of an image in each edge of the span."""
    if u == v:
        return 1
    if u + 1 == v:
        return hom_graph_count(e, h.edges[u])
    return _edge_count(e, h, u, v - 1) * _edge_count(e, h, v - 1, v)


# ---------------------------------------------------------------------------
# The functor from ordinal-flavor inductive trees


def psi_obj(h: ITreeObj) -> OmegaPresentation:
    """Present the free omega-category of an ordinal-flavor tree."""
    if h.flavor != ORDINAL:
        raise ValueError("presentations are built from ordinal-flavor trees")
    if h.is_trivial:
        return EMPTY_PRESENTATION
    return OmegaPresentation(upsilon(h))


def psi_apply(g: ITreeMor, c: EnrichedCell) -> EnrichedCell:
    """Apply the functor of a tree morphism to an enriched cell."""
    if g.root_map is None:
        raise ValueError("the empty omega-category has no cells")
    root = g.root_map
    h_img = root(c.h)
    k_img = root(c.k)
    if c.h == c.k:
        return EnrichedCell(c.dim, h_img, h_img)
    back = wedge_map(root)
    parts = []
    for j in range(h_img + 1, k_img + 1):
        i = back(j)
        parts.append(psi_apply(g.children[j], c.parts[i - c.h - 1]))
    return EnrichedCell(c.dim, h_img, k_img, tuple(parts))


def psi_mor(g: ITreeMor) -> GeneratorAction:
    """The action of a tree morphism's functor on generating cells."""
    dom_p = psi_obj(g.dom)
    cod_p = psi_obj(g.cod)
    if g.dom.is_trivial:
        return GeneratorAction(dom_p, cod_p, ())
    graph = upsilon(g.dom)
    return GeneratorAction(
        dom_p,
        cod_p,
        tuple((gen, psi_apply(g, gen)) for gen in all_enriched_generators(graph)),
    )
