"""Globular sets and globular cardinals.

A globular set stores, per dimension, how many cells it has and the
source/target cell of each cell one dimension down, subject to the usual
globular identities.  A globular cardinal is a finite globular set whose
cells are linearly ordered by the relation generated by placing every
cell strictly between its source and its target.  The cells between two
cells of a cardinal are read from one shared table, :func:`cells_by_ends`.

Cardinals are kept in canonical form: within each dimension the cell
indices appear in ascending order along the linear order.  Structural
equality of canonical forms then decides isomorphism.  A non-empty
cardinal is the suspension of its components, the cardinals strictly
between consecutive object cells: ``suspend_gc`` builds it from them
and ``desuspend`` takes it apart, and ``suspend_gc_mor`` and
``desuspend_mor`` do the same for morphisms.

Globular sets, cardinals and their morphisms are interned (see
:class:`theta_disk.ordinal.Interned`): equal values are one object, so
equality is identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from theta_disk.ordinal import Interned, json_field

Vertex = tuple[int, int]


@dataclass(frozen=True, eq=False)
class GlobSet(Interned):
    """A finite globular set: cell counts plus source/target tables."""

    levels: tuple[int, ...]
    src: tuple[tuple[int, ...], ...]
    tgt: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if any(size <= 0 for size in self.levels):
            raise ValueError("levels are positive; truncate trailing zeros")
        expected = max(len(self.levels) - 1, 0)
        if len(self.src) != expected or len(self.tgt) != expected:
            raise ValueError(f"expected {expected} source and target tables")
        for k, (s, t) in enumerate(zip(self.src, self.tgt)):
            if len(s) != self.levels[k + 1] or len(t) != self.levels[k + 1]:
                raise ValueError(f"tables at dimension {k + 1} have wrong arity")
            if any(not 0 <= v < self.levels[k] for v in s + t):
                raise ValueError(
                    f"tables at dimension {k + 1} point outside dimension {k}"
                )
        for k in range(len(self.src) - 1):
            s, t = self.src[k], self.tgt[k]
            for w in range(self.levels[k + 2]):
                a, b = self.src[k + 1][w], self.tgt[k + 1][w]
                if s[a] != s[b] or t[a] != t[b]:
                    raise ValueError(
                        f"globular identities fail at dimension {k + 2}, "
                        f"cell {w}"
                    )

    @property
    def dim(self) -> int:
        return len(self.levels) - 1

    def vertices(self) -> list[Vertex]:
        return [
            (k, i) for k, size in enumerate(self.levels) for i in range(size)
        ]

    def to_dict(self) -> dict:
        return {
            "kind": "globcard",
            "levels": list(self.levels),
            "src": [list(s) for s in self.src],
            "tgt": [list(t) for t in self.tgt],
        }

    @staticmethod
    def from_dict(data: dict) -> "GlobSet":
        return GlobSet(
            json_field(data, "globcard", "levels", depth=1),
            json_field(data, "globcard", "src", depth=2),
            json_field(data, "globcard", "tgt", depth=2),
        )


def _linear_order(gset: GlobSet) -> tuple[Vertex, ...] | None:
    """The unique linear order compatible with the spans, if it exists.

    A topological sort of the relation source < cell < target: the order
    is total exactly when one cell is ready at every step, and it fails
    as soon as two are ready at once or a cycle leaves cells unplaced.
    """
    succ: dict[Vertex, list[Vertex]] = {v: [] for v in gset.vertices()}
    indegree = dict.fromkeys(succ, 0)
    for k, (src, tgt) in enumerate(zip(gset.src, gset.tgt), start=1):
        for i, (s, t) in enumerate(zip(src, tgt)):
            v = (k, i)
            for a, b in (((k - 1, s), v), (v, (k - 1, t))):
                succ[a].append(b)
                indegree[b] += 1
    ready = [v for v, d in indegree.items() if d == 0]
    order: list[Vertex] = []
    while len(ready) == 1:
        v = ready.pop()
        order.append(v)
        for u in succ[v]:
            indegree[u] -= 1
            if indegree[u] == 0:
                ready.append(u)
    return tuple(order) if len(order) == len(succ) else None


@dataclass(frozen=True, eq=False)
class GlobCard(Interned):
    """A globular cardinal in canonical form.

    The constructor checks that the span-generated order is total and that
    the given cell numbering lists each dimension in ascending order along
    it; use :func:`linearize` to bring an arbitrarily numbered globular
    set into this form.
    """

    gset: GlobSet

    def __post_init__(self) -> None:
        order = _linear_order(self.gset)
        if order is None:
            raise ValueError(
                "the span-generated order is not total; not a cardinal"
            )
        last = [-1] * len(self.gset.levels)
        for k, i in order:
            if i <= last[k]:
                raise ValueError(
                    "cell numbering is not canonical; apply linearize first"
                )
            last[k] = i

    @property
    def dim(self) -> int:
        return self.gset.dim

    def size(self) -> int:
        return sum(self.gset.levels)

    def to_dict(self) -> dict:
        return self.gset.to_dict()

    @staticmethod
    def from_dict(data: dict) -> "GlobCard":
        return GlobCard(GlobSet.from_dict(data))


EMPTY_CARDINAL = GlobCard(GlobSet((), (), ()))
POINT_CARDINAL = GlobCard(GlobSet((1,), (), ()))
ARROW_CARDINAL = GlobCard(GlobSet((2, 1), ((0,),), ((1,),)))


def _induced(
    gset: GlobSet, kept: Sequence[Sequence[int]], start: int
) -> GlobSet:
    """The globular set on the kept cells, numbered in list order.

    ``kept[m]`` lists cell indices of dimension ``start + m``; the result
    starts at dimension 0.  The kept cells must be closed under sources
    and targets within the kept dimensions.
    """
    rank = [{old: new for new, old in enumerate(level)} for level in kept]
    src: list[tuple[int, ...]] = []
    tgt: list[tuple[int, ...]] = []
    for m in range(1, len(kept)):
        below = rank[m - 1]
        s, t = gset.src[start + m - 1], gset.tgt[start + m - 1]
        try:
            src.append(tuple(below[s[i]] for i in kept[m]))
            tgt.append(tuple(below[t[i]] for i in kept[m]))
        except KeyError:
            raise ValueError(
                "kept cells are not closed under sources and targets"
            ) from None
    return GlobSet(tuple(len(level) for level in kept), tuple(src), tuple(tgt))


def linearize(gset: GlobSet) -> GlobCard | None:
    """Canonically renumber a globular set into a cardinal, if it is one."""
    order = _linear_order(gset)
    if order is None:
        return None
    kept: list[list[int]] = [[] for _ in gset.levels]
    for k, i in order:
        kept[k].append(i)
    return GlobCard(_induced(gset, kept, 0))


@dataclass(frozen=True, eq=False)
class GlobMor(Interned):
    """A morphism of globular sets between cardinals."""

    dom: GlobCard
    cod: GlobCard
    level_maps: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        dlevels = self.dom.gset.levels
        if len(self.level_maps) != len(dlevels):
            raise ValueError("one cell map per dimension of the domain")
        if len(dlevels) > len(self.cod.gset.levels):
            raise ValueError("codomain has no cells in some needed dimension")
        for k, fmap in enumerate(self.level_maps):
            if len(fmap) != dlevels[k]:
                raise ValueError(f"cell map at dimension {k} has wrong arity")
            if any(
                not 0 <= v < self.cod.gset.levels[k] for v in fmap
            ):
                raise ValueError(
                    f"cell map at dimension {k} has values out of range"
                )
        by_ends = cells_by_ends(self.cod)
        for k in range(1, len(dlevels)):
            below = self.level_maps[k - 1]
            src, tgt = self.dom.gset.src[k - 1], self.dom.gset.tgt[k - 1]
            for i, v in enumerate(self.level_maps[k]):
                ends = (below[src[i]], below[tgt[i]])
                if v not in by_ends[k - 1].get(ends, ()):
                    raise ValueError(
                        f"map does not commute with source/target at "
                        f"dimension {k}, cell {i}"
                    )

    def to_dict(self) -> dict:
        return {
            "kind": "globmor",
            "dom": self.dom.to_dict(),
            "cod": self.cod.to_dict(),
            "level_maps": [list(m) for m in self.level_maps],
        }

    @staticmethod
    def from_dict(data: dict) -> "GlobMor":
        return GlobMor(
            json_field(data, "globmor", "dom", GlobCard.from_dict),
            json_field(data, "globmor", "cod", GlobCard.from_dict),
            json_field(data, "globmor", "level_maps", depth=2),
        )


def identity_glob_mor(x: GlobCard) -> GlobMor:
    return GlobMor(
        x, x, tuple(tuple(range(size)) for size in x.gset.levels)
    )


def compose_glob_mors(g: GlobMor, f: GlobMor) -> GlobMor:
    if f.cod != g.dom:
        raise ValueError("globular morphisms do not compose")
    maps = tuple(
        tuple(g.level_maps[k][v] for v in f.level_maps[k])
        for k in range(len(f.level_maps))
    )
    return GlobMor(f.dom, g.cod, maps)


def enumerate_glob_morphisms(x: GlobCard, y: GlobCard) -> list[GlobMor]:
    """All globular morphisms ``x -> y``, ordered lexicographically by
    level maps (see :func:`search_maps`).

    A morphism sends each cell to a cell of the same dimension that
    reaches at least as high on both sides (see :func:`_reach`).  When
    some cell of ``x`` has no such cell in ``y``, the list is empty and
    no search runs; the test compares the two cardinals'
    :func:`_reach_frontier` only."""
    if not x.gset.levels:
        return [GlobMor(x, y, ())]
    if len(x.gset.levels) > len(y.gset.levels):
        return []
    if not all(
        any(a <= c and b <= d for c, d in cover)
        for need, cover in zip(_reach_frontier(x), _reach_frontier(y))
        for a, b in need
    ):
        return []
    found = search_maps(x, range(y.gset.levels[0]), cells_by_ends(y))
    return [GlobMor(x, y, level_maps) for level_maps in found]


def search_maps(
    x: GlobCard, objects: Iterable, by_ends: Sequence[dict]
) -> Iterator[tuple[tuple, ...]]:
    """The level maps of every map from the cardinal ``x`` that sends
    each cell to a cell between the images of its source and target.

    The target is given by its ``objects`` and by ``by_ends[k - 1]``,
    which maps each pair of dimension-``k - 1`` cells to the
    dimension-``k`` cells from one to the other, in order.  A depth-first
    search assigns the cells of ``x`` in (dimension, index) order, each
    to its candidates in the order given, and yields the maps one at a
    time, ordered lexicographically by level maps, so that a caller
    holds only the values it builds from them.  A prefix is dropped as
    soon as a cell one dimension up with both ends assigned has no
    candidate image.
    """
    plan = _search_plan(x)
    maps: list[list] = [[None] * size for size in x.gset.levels]

    def extend(p: int) -> Iterator[tuple[tuple, ...]]:
        if p == len(plan):
            yield tuple(map(tuple, maps))
            return
        k, i, ends, closed = plan[p]
        if k == 0:
            candidates: Iterable = objects
        else:
            below = maps[k - 1]
            image = (below[ends[0]], below[ends[1]])
            candidates = by_ends[k - 1].get(image, ())
        row = maps[k]
        for v in candidates:
            row[i] = v
            if all((row[s], row[t]) in by_ends[k] for s, t in closed):
                yield from extend(p + 1)

    return extend(0)


@lru_cache(maxsize=None)
def cells_by_ends(
    y: GlobCard,
) -> tuple[dict[tuple[int, int], tuple[int, ...]], ...]:
    """``[k - 1][(s, t)]``: the dimension-``k`` cells of ``y`` from cell
    ``s`` to cell ``t`` of dimension ``k - 1``, ascending."""
    tables = []
    for src, tgt in zip(y.gset.src, y.gset.tgt):
        cells: dict[tuple[int, int], list[int]] = {}
        for j, ends in enumerate(zip(src, tgt)):
            cells.setdefault(ends, []).append(j)
        tables.append({ends: tuple(js) for ends, js in cells.items()})
    return tuple(tables)


# One object per reach pair and per row of frontier pairs, shared by the
# frontiers of every cardinal, which keeps their memo small.
_SHARED: dict[tuple, tuple] = {}


def _share(value: tuple) -> tuple:
    return _SHARED.setdefault(value, value)


def _reach(x: GlobCard) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``[k][i]``: the highest dimension of a cell of ``x`` whose iterated
    source at dimension ``k`` is cell ``(k, i)``, and the same for
    iterated targets; each cell is its own iterated source and target.

    A globular morphism commutes with iterated sources and targets and
    keeps dimensions, so it sends each cell to one whose pair is at least
    as high in both entries.  Computed top down, once per cardinal, by
    the memoized :func:`_reach_frontier`, which keeps only what the test
    of :func:`enumerate_glob_morphisms` reads.
    """
    gset = x.gset
    reach = [[[k, k] for _ in range(size)] for k, size in enumerate(gset.levels)]
    for k in range(gset.dim, 0, -1):
        for i, (s, t) in enumerate(zip(gset.src[k - 1], gset.tgt[k - 1])):
            high_s, high_t = reach[k][i]
            below_s, below_t = reach[k - 1][s], reach[k - 1][t]
            below_s[0] = max(below_s[0], high_s)
            below_t[1] = max(below_t[1], high_t)
    return tuple(tuple(_share(tuple(p)) for p in level) for level in reach)


@lru_cache(maxsize=None)
def _reach_frontier(x: GlobCard) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per dimension, the :func:`_reach` pairs of ``x`` that no other pair
    of that dimension matches or exceeds in both entries, ascending.  Each
    pair of the dimension is at most one of these, so a map into ``y``
    meets every pair of ``x`` iff each of these is at most a pair of
    ``y``'s frontier in both entries."""
    return tuple(
        _share(
            tuple(
                p
                for p in sorted(set(level))
                if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in level)
            )
        )
        for level in _reach(x)
    )


@lru_cache(maxsize=None)
def _search_plan(x: GlobCard) -> tuple[tuple, ...]:
    """The cells of ``x`` in (dimension, index) order, each with its ends
    one dimension down and the ends of the cells one dimension up whose
    later end it is."""
    gset = x.gset
    plan = []
    for k, size in enumerate(gset.levels):
        closes: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        if k < gset.dim:
            for s, t in zip(gset.src[k], gset.tgt[k]):
                closes[max(s, t)].append((s, t))
        for i in range(size):
            ends = (gset.src[k - 1][i], gset.tgt[k - 1][i]) if k else ()
            plan.append((k, i, ends, tuple(closes[i])))
    return tuple(plan)


def sub_globcard(
    x: GlobCard, keep: Sequence[Iterable[int]]
) -> tuple[GlobCard, GlobMor]:
    """The cardinal on the kept cells, with its inclusion into ``x``.

    ``keep`` lists the kept cell indices per dimension and must be closed
    under sources and targets.
    """
    kept = [sorted(set(level)) for level in keep]
    while kept and not kept[-1]:
        kept.pop()
    if len(kept) > len(x.gset.levels):
        raise ValueError("kept cells exceed the dimensions present")
    sub = GlobCard(_induced(x.gset, kept, 0))
    incl = GlobMor(sub, x, tuple(tuple(level) for level in kept))
    return sub, incl


def _offsets(components: Sequence[GlobCard], k: int) -> list[int]:
    """Where each component's dimension-``k`` cells start when they are
    listed one component after another, followed by their total."""
    sizes = (
        c.gset.levels[k] if k < len(c.gset.levels) else 0 for c in components
    )
    return list(accumulate(sizes, initial=0))


def suspend_gc(components: Sequence[GlobCard]) -> GlobCard:
    """One dimension up: object cells separating the given cardinals.

    The result has ``len(components) + 1`` cells in dimension 0 and the
    ``i``-th component's cells, shifted one dimension, strictly between
    cells ``i`` and ``i + 1``.  Cardinals are interned, so the suspension
    is built once per tuple of components.
    """
    return _suspend(tuple(components))


@lru_cache(maxsize=None)
def _suspend(components: tuple[GlobCard, ...]) -> GlobCard:
    if any(not c.gset.levels for c in components):
        raise ValueError("suspension components are non-empty")
    depth = max((len(c.gset.levels) for c in components), default=0)
    levels = [len(components) + 1]
    src: list[tuple[int, ...]] = []
    tgt: list[tuple[int, ...]] = []
    below: list[int] = []
    for k in range(depth):
        starts = _offsets(components, k)
        levels.append(starts[-1])
        src_row: list[int] = []
        tgt_row: list[int] = []
        for i, c in enumerate(components):
            for j in range(starts[i + 1] - starts[i]):
                if k == 0:
                    src_row.append(i)
                    tgt_row.append(i + 1)
                else:
                    src_row.append(below[i] + c.gset.src[k - 1][j])
                    tgt_row.append(below[i] + c.gset.tgt[k - 1][j])
        src.append(tuple(src_row))
        tgt.append(tuple(tgt_row))
        below = starts
    return GlobCard(GlobSet(tuple(levels), tuple(src), tuple(tgt)))


def suspend_gc_mor(
    offset: int,
    family: Sequence[GlobMor],
    dom_components: Sequence[GlobCard],
    cod_components: Sequence[GlobCard],
) -> GlobMor:
    """The suspension of a family of morphisms under an object offset.

    ``family[i]`` runs from ``dom_components[i]`` into
    ``cod_components[offset + i]``.
    """
    dom = suspend_gc(dom_components)
    cod = suspend_gc(cod_components)
    if len(family) != len(dom_components):
        raise ValueError("one morphism per domain component")
    maps: list[tuple[int, ...]] = [
        tuple(i + offset for i in range(len(dom_components) + 1))
    ]
    for k in range(1, len(dom.gset.levels)):
        starts = _offsets(cod_components, k - 1)
        row: list[int] = []
        for i, f in enumerate(family):
            if k - 1 >= len(f.level_maps):
                continue
            base = starts[offset + i]
            row.extend(base + v for v in f.level_maps[k - 1])
        maps.append(tuple(row))
    return GlobMor(dom, cod, tuple(maps))


@lru_cache(maxsize=None)
def desuspend(
    x: GlobCard,
) -> tuple[tuple[GlobCard, tuple[range, ...]], ...]:
    """The inverse of :func:`suspend_gc`: the component between each pair
    of consecutive object cells of a non-empty cardinal, with its kept
    cell rows.

    ``rows[m]`` is the range of dimension-``m + 1`` cells of ``x`` that
    the component renumbers from 0.  A cell lies in the gap of its
    iterated source one dimension above the objects, and canonical
    numbering keeps each gap's cells consecutive, so the rows are ranges.
    Computed once per cardinal and shared.
    """
    gset = x.gset
    if not gset.levels:
        raise ValueError("the empty cardinal is not a suspension")
    rows: list[list[range]] = [[] for _ in range(gset.levels[0] - 1)]
    gap: Sequence[int] = ()
    for k, src in enumerate(gset.src):
        gap = src if k == 0 else [gap[s] for s in src]
        counts = [0] * len(rows)
        for i in gap:
            counts[i] += 1
        starts = list(accumulate(counts, initial=0))
        for i, row in enumerate(rows):
            if counts[i]:
                row.append(range(starts[i], starts[i + 1]))
    return tuple(
        (GlobCard(_induced(gset, row, 1)), tuple(row)) for row in rows
    )


def desuspend_mor(f: GlobMor) -> tuple[int, tuple[GlobMor, ...]]:
    """The inverse of :func:`suspend_gc_mor`: the object offset of a
    morphism between non-empty cardinals and the morphisms it restricts
    to between the components of its domain and of its codomain.

    Every gap of a cardinal holds a 1-cell, so the object map translates
    and gap ``i`` of the domain lands in gap ``offset + i``.
    """
    offset = f.level_maps[0][0]
    cod = desuspend(f.cod)
    family = []
    for i, (component, rows) in enumerate(desuspend(f.dom)):
        image, image_rows = cod[offset + i]
        maps = tuple(
            tuple(f.level_maps[m + 1][j] - image_rows[m].start for j in row)
            for m, row in enumerate(rows)
        )
        family.append(GlobMor(component, image, maps))
    return offset, tuple(family)
