"""Finite-depth forests and trees stored as level sets with parent maps.

A forest is a sequence of finite levels ``A_0, A_1, ...`` together with
parent maps ``A_{n+1} -> A_n``.  Storage is truncated at the degree: beyond
the last stored level every vertex implicitly continues as a chain of
singleton fibers (parent maps are bijections from there on), and validity
requires the truncation to be minimal.  Vertices are addressed as
``(level, index)`` pairs.

Bare forests are unordered; sibling order only becomes meaningful in the
modules that add interval structure on fibers.

Level trees are interned (see :class:`theta_disk.ordinal.Interned`):
equal trees are one object, so each is validated once and stores its
depth once, and its fiber table :func:`fibers`, the one reader of a
vertex's children, its subtree rows and restrictions are computed once
and kept for the life of the process.  :func:`graft` builds a tree from
the trees over its root's children, the suspension of their coproduct,
in one step: each level lists the children's rows as consecutive
blocks.  :func:`glue_level_maps` glues a tree map between grafted trees
from maps between their children, shifting each by its target's block
offset.  Tree maps keep value equality and are not interned; a tree map
commutes with the parent maps when, at each level, the parent row of
the images equals the image of the parent row.

The interval structures built on these trees -- disks and cropped labeled
trees -- number each fiber consecutively in parent order, and their
morphisms are the tree maps that send each fiber monotonely onto the
fiber over its image, ends to ends.  :func:`fiber_slots` is that rule,
written once for both.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import gt

from theta_disk.ordinal import Interned, json_field

Vertex = tuple[int, int]
LevelMaps = tuple[tuple[int, ...], ...]


def _is_bijection(values: tuple[int, ...], cod_size: int) -> bool:
    return len(values) == cod_size and len(set(values)) == cod_size


@dataclass(frozen=True, eq=False)
class LevelTree(Interned):
    """A forest as level sizes plus dense parent maps, truncated at degree.

    ``levels[n]`` is the size of the level-``n`` vertex set and
    ``parents[n][i]`` the parent index at level ``n`` of vertex
    ``(n+1, i)``; ``depth`` is the number of stored steps.  Trees are
    interned, so equal trees are one object, validated once, and equality
    and hashing are identity.
    """

    levels: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a forest stores at least level 0")
        if min(self.levels) < 0:
            raise ValueError("level sizes must be non-negative")
        if len(self.parents) != len(self.levels) - 1:
            raise ValueError("one parent map is required per stored step")
        for n, pmap in enumerate(self.parents):
            if len(pmap) != self.levels[n + 1]:
                raise ValueError(f"parent map at step {n} has wrong arity")
            if pmap and (min(pmap) < 0 or max(pmap) >= self.levels[n]):
                raise ValueError(f"parent map at step {n} has values out of range")
        if self.parents and _is_bijection(self.parents[-1], self.levels[-2]):
            raise ValueError(
                "storage is not truncated at the degree (top parent map is a bijection)"
            )
        # The stored depth, set once: a plain attribute, read per vertex.
        object.__setattr__(self, "depth", len(self.levels) - 1)

    def level_size(self, n: int) -> int:
        """Size of level ``n``, following the implicit continuation."""
        return self.levels[min(n, self.depth)]

    @property
    def is_tree(self) -> bool:
        return self.levels[0] == 1

    def to_dict(self) -> dict:
        return {
            "kind": "tree",
            "levels": list(self.levels),
            "parents": [list(p) for p in self.parents],
        }

    @staticmethod
    def from_dict(data: dict, kind: str = "tree") -> "LevelTree":
        """The tree of ``data``; ``kind`` names the input in errors."""
        return make_level_tree(
            json_field(data, kind, "levels", depth=1),
            json_field(data, kind, "parents", depth=2),
        )


@lru_cache(maxsize=None)
def fibers(a: LevelTree, level: int) -> tuple[tuple[int, ...], ...]:
    """``[i]``: the children of vertex ``(level, i)`` at level ``level + 1``,
    computed once per tree and level and shared; past the stored depth
    each vertex has its continuation as its one child."""
    if level >= a.depth:
        return tuple((i,) for i in range(a.level_size(level)))
    table: list[list[int]] = [[] for _ in range(a.levels[level])]
    for j, p in enumerate(a.parents[level]):
        table[p].append(j)
    return tuple(map(tuple, table))


def make_level_tree(
    levels: tuple[int, ...], parents: tuple[tuple[int, ...], ...]
) -> LevelTree:
    """Build a :class:`LevelTree`, truncating trailing bijective steps."""
    levels = tuple(levels)
    parents = tuple(tuple(p) for p in parents)
    while parents and _is_bijection(parents[-1], levels[-2]):
        levels = levels[:-1]
        parents = parents[:-1]
    return LevelTree(levels, parents)


EMPTY_FOREST = LevelTree((0,), ())
POINT_TREE = LevelTree((1,), ())


@lru_cache(maxsize=None)
def subtree_rows(a: LevelTree, x: Vertex) -> tuple[tuple[int, ...], ...]:
    """Per-level original indices of the subtree over ``x`` (stored part).

    ``rows[k]`` lists the descendants of ``x`` at level ``x[0] + k``.
    Vertices beyond the stored depth belong to the implicit chain
    continuation, so their subtree is a single chain.  The rows are
    computed once per tree and vertex and shared, hence tuples.
    """
    n, i = x
    if not (0 <= n and 0 <= i < a.level_size(n)):
        raise ValueError(f"unknown vertex {x}")
    if n >= a.depth:
        return ((i,),)
    keep = [(i,)]
    for lvl in range(n, a.depth):
        table = fibers(a, lvl)
        keep.append(tuple(sorted(j for p in keep[-1] for j in table[p])))
    return tuple(keep)


def restrict(a: LevelTree, x: Vertex) -> LevelTree:
    """The subtree rooted at vertex ``x``, re-truncated at its own degree.

    Computed once per tree and vertex; the tree is interned.
    """
    return _restrict(a, x)


@lru_cache(maxsize=None)
def _restrict(a: LevelTree, x: Vertex) -> LevelTree:
    keep = subtree_rows(a, x)
    n = x[0]
    levels = tuple(len(part) for part in keep)
    parents = []
    for lvl in range(1, len(keep)):
        pos = {old: new for new, old in enumerate(keep[lvl - 1])}
        parents.append(
            tuple(pos[a.parents[n + lvl - 1][j]] for j in keep[lvl])
        )
    return make_level_tree(levels, tuple(parents))


def graft(trees: Sequence[LevelTree]) -> LevelTree:
    """The tree whose root's children are the roots of ``trees``, in list
    order: the suspension of their disjoint union, written row by row.
    Each level lists the vertices of the first forest, then the next; a
    forest shallower than the deepest continues by chains."""
    depth = max([t.depth for t in trees], default=0)
    sizes = [t.levels + (t.levels[-1],) * (depth - t.depth) for t in trees]
    levels = [1] + [sum([s[n] for s in sizes]) for n in range(depth + 1)]
    parents = [(0,) * levels[1]]
    for n in range(1, depth + 1):
        row: list[int] = []
        offset = 0
        for t, s in zip(trees, sizes):
            if n <= t.depth:
                row.extend(map(offset.__add__, t.parents[n - 1]))
            else:
                row.extend(range(offset, offset + s[n]))
            offset += s[n - 1]
        parents.append(row)
    return make_level_tree(levels, parents)


@dataclass(frozen=True)
class TreeMap:
    """A level-wise map of forests commuting with the parent maps.

    ``level_maps`` stores one map per level up to the larger of the two
    stored depths; beyond that both sides continue by bijections and the
    map continues unchanged.
    """

    dom: LevelTree
    cod: LevelTree
    level_maps: LevelMaps

    def __post_init__(self) -> None:
        span = max(self.dom.depth, self.cod.depth) + 1
        if len(self.level_maps) != span:
            raise ValueError(
                f"expected {span} level maps, got {len(self.level_maps)}"
            )
        dom, cod = self.dom, self.cod
        for n, fmap in enumerate(self.level_maps):
            if len(fmap) != dom.level_size(n):
                raise ValueError(f"level map {n} has wrong arity")
            if fmap and (min(fmap) < 0 or max(fmap) >= cod.level_size(n)):
                raise ValueError(f"level map {n} has values out of range")
        # Past its stored depth a vertex is its own parent.
        for n in range(1, span):
            here, below = self.level_maps[n], self.level_maps[n - 1]
            lands = tuple(
                here if n > cod.depth else map(cod.parents[n - 1].__getitem__, here)
            )
            should = tuple(
                below if n > dom.depth else map(below.__getitem__, dom.parents[n - 1])
            )
            if lands != should:
                bad = next(j for j, x in enumerate(lands) if x != should[j])
                raise ValueError(
                    f"map does not commute with parents at level {n}, index {bad}"
                )

    def at_level(self, n: int) -> tuple[int, ...]:
        return self.level_maps[min(n, len(self.level_maps) - 1)]

    def __call__(self, v: Vertex) -> Vertex:
        return (v[0], self.at_level(v[0])[v[1]])


def fiber_slots(f: TreeMap) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``[n][x]``: where ``f`` sends the children of vertex ``(n, x)``, as
    slots of the fiber over its image, for every level ``f`` stores.

    This is the fiber rule of the interval structures (disks, cropped
    trees): each fiber goes monotonely onto the fiber over its image, its
    ends onto the ends.  Raises ``ValueError`` naming the first vertex
    whose fiber breaks it.  Both trees must have no empty fiber below
    their stored depth and store fibers consecutively in parent order, as
    those structures do; a slot is then a child's image less the first
    child of the image.
    """
    rows = []
    for n in range(len(f.level_maps)):
        here, below = f.at_level(n), f.at_level(n + 1)
        targets = fibers(f.cod, n)
        row = []
        for x, kids in enumerate(fibers(f.dom, n)):
            there = targets[here[x]]
            slots = tuple([below[j] - there[0] for j in kids])
            if any(map(gt, slots, slots[1:])):
                raise ValueError(
                    f"fiber over level-{n} vertex {x} is not mapped monotonely"
                )
            if slots[0] or slots[-1] != there[-1] - there[0]:
                raise ValueError(
                    f"fiber over level-{n} vertex {x} does not preserve endpoints"
                )
            row.append(slots)
        rows.append(tuple(row))
    return tuple(rows)


def identity_tree_map(a: LevelTree) -> TreeMap:
    return TreeMap(
        a, a, tuple(tuple(range(size)) for size in a.levels)
    )


def compose_tree_maps(g: TreeMap, f: TreeMap) -> TreeMap:
    if f.cod != g.dom:
        raise ValueError("tree maps do not compose")
    span = max(f.dom.depth, g.cod.depth) + 1
    maps = tuple(
        tuple(g.at_level(n)[v] for v in f.at_level(n)[: f.dom.level_size(n)])
        for n in range(span)
    )
    return TreeMap(f.dom, g.cod, maps)


def glue_level_maps(
    index: Sequence[LevelTree],
    value: Sequence[LevelTree],
    slots: Sequence[int],
    subs: Sequence[LevelMaps],
) -> LevelMaps:
    """The level maps of the tree map ``graft(index) -> graft(value)`` that
    sends the root to the root and the tree ``index[j]`` into the tree
    ``value[slots[j]]`` by the level maps ``subs[j]``.

    Each row lists the children's maps in order, each shifted to where
    its target's block starts, as :func:`graft` lays the blocks out.  Both
    roots have at least two children, or one that is not a point, so that
    ``graft`` stores the level below each root.
    """
    level_maps: list[tuple[int, ...]] = [(0,)]
    blocks = _block_starts(tuple(value))
    for n in range(max([t.depth for t in (*index, *value)]) + 1):
        starts = blocks[min(n, len(blocks) - 1)]
        row: list[int] = []
        for j, sub in enumerate(subs):
            row.extend(map(starts[slots[j]].__add__, sub[min(n, len(sub) - 1)]))
        level_maps.append(tuple(row))
    return tuple(level_maps)


@lru_cache(maxsize=None)
def _block_starts(trees: tuple[LevelTree, ...]) -> tuple[tuple[int, ...], ...]:
    """``[n][k]``: where the level ``n`` block of ``trees[k]`` starts in the
    level ``n + 1`` row of ``graft(trees)``, for every level the deepest
    stores; below, each tree continues by chains.  Kept per tuple of trees."""
    return tuple(
        tuple(accumulate([t.level_size(n) for t in trees], initial=0))
        for n in range(max([t.depth for t in trees]) + 1)
    )
