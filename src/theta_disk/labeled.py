"""Cropped labeled trees: a flavor on a disk's tree, labeled by fiber sizes.

A cropped tree pairs a level tree with a flavor: the interval world
(labels ``[m]`` with ``m >= 0``, components preserving both endpoints) or
the ordinal world (labels down to ``[-1]``, arbitrary monotone
components).  Every vertex is labeled by its fiber size: a vertex with
``k`` children carries the label that prescribes ``k`` child slots,
``[k - 1]`` in the interval flavor and ``[k - 2]`` in the ordinal one,
and past the stored depth every vertex carries the single-slot label.
So a :class:`LabeledTree` is its flavor and its level tree, and its
labels are read off the fibers.

One rule, :func:`validate_cropped`, says which level trees carry cropped
trees: a single root; fibers stored in slot order; a root with at least
two children unless the tree is a point; a non-empty fiber at every
vertex below the stored depth; and at each level the vertices with one
child, which carry the single-slot label, are exactly the outer
positions of the fibers.  A disk is the cropped interval tree on its
tree, and :class:`theta_disk.disk.Disk` checks its tree with the same
function, so the rule speaks of disks: the cropped trees of both flavors
on a level tree exist exactly when it carries a disk.  The constructor
checks the rule once per tree, and nothing else checks it again.
:func:`validate_constrained` checks the label rows an input declares
against the fiber sizes.

Morphisms follow the flavor: interval-labeled morphisms carry a forward
tree map with one endpoint-preserving component per domain vertex, while
ordinal-labeled morphisms are stored as op-morphisms -- the tree map runs
from the codomain's tree to the domain's, with one monotone component
per codomain vertex.  Since the labels are the fiber sizes, a morphism
is its tree map: it is valid when the tree map sends each fiber
monotonely onto the fiber over its image, ends to ends (the fiber rule,
``forest.fiber_slots``), and its components are read off where the
children land.  The ordinal dualities send the label a fiber size
prescribes in one flavor to the label it prescribes in the other, so
:func:`con_dualize` is the cropped tree of the other flavor on the same
level tree, and duals of morphisms keep their tree maps.  Cropped
single-root trees convert back and forth with the inductive tree
categories vertex for vertex; :func:`xi_inverse` grafts the level trees
of the children onto a new root (``forest.graft``).

Labeled trees are interned (see :class:`theta_disk.ordinal.Interned`),
so each is validated once and equality is identity.  Everything that
reads a cropped tree reads its level tree: the inductive-tree images
(``xi_obj``, keyed by flavor and level tree) and the level maps and
counts of the subtree hom-sets (``LEVEL_MAPS``: per flavor, the
inductive trees' ``slot_recursion`` over the subtrees of the root's
children) are memoized for the life of the process, as are the label of
each fiber size and the components of each slot map.  A hom-set's
root-child subtrees are read once per pair, and a level map is glued
from its children's by the block offsets ``graft`` lays them out at
(``forest.glue_level_maps``).  Disks are the interval case of all of
these.  Morphisms are built afresh on every call, and only those
returned are validated; the inductive-tree image of a morphism walks the
children of the images of its ends, each child picked by the fiber
slots its constructor keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import accumulate

from theta_disk.forest import (
    LevelMaps,
    LevelTree,
    POINT_TREE,
    TreeMap,
    Vertex,
    compose_tree_maps,
    fiber_slots,
    fibers,
    glue_level_maps,
    graft,
    identity_tree_map,
    restrict,
)
from theta_disk.itree import (
    FLAVORS,
    INTERVAL,
    ORDINAL,
    ITreeMor,
    ITreeObj,
    enumerate_objects,
    flavor_of,
    marker,
    trivial_obj,
    trivial_root,
)
from theta_disk.ordinal import (
    Interned,
    OrdMap,
    Ordinal,
    json_field,
    json_int,
    json_str,
    slot_recursion,
    vee_map,
)


def _listed(vertices: set[int]) -> str:
    """``vertices`` in order, or their number and the first three if many."""
    listed = sorted(vertices)
    if len(listed) <= 10:
        return str(listed)
    return f"{len(listed):,} vertices ({', '.join(map(str, listed[:3]))}, …)"


@lru_cache(maxsize=None)
def validate_cropped(tree: LevelTree) -> None:
    """Raise the first part of the cropped rule that ``tree`` breaks.

    The rule is a disk's, and so are its messages: the cropped trees of
    both flavors on ``tree`` exist exactly when ``tree`` carries a disk.
    A tree that passes is remembered, so it is checked once per process;
    one that fails raises on every call.
    """
    if not tree.is_tree:
        raise ValueError("a disk is carried by a tree (single root)")
    for n, pmap in enumerate(tree.parents):
        if list(pmap) != sorted(pmap):
            raise ValueError(
                f"parent map at step {n} is not monotone; the canonical "
                "form numbers fibers consecutively in parent order"
            )
    if tree.depth >= 1 and tree.levels[1] < 2:
        raise ValueError(
            "invalid disk: level 0: the root fiber of a positive-degree "
            "disk has at least two elements"
        )
    sizes = _fiber_sizes(tree)
    for n in range(1, tree.depth):
        if 0 in sizes[n]:
            raise ValueError(
                f"invalid disk: level {n}: every vertex below the degree "
                "has a non-empty fiber"
            )
    # Every fiber below the degree is non-empty by now, so has two ends, and
    # the fibers of a level are stored one after another.
    for n in range(1, tree.depth + 1):
        singleton = {i for i, size in enumerate(sizes[n]) if size == 1}
        starts = list(accumulate(sizes[n - 1], initial=0))
        ends = set(starts[:-1]).union([start - 1 for start in starts[1:]])
        if singleton != ends:
            raise ValueError(
                f"invalid disk: level {n}: vertices with singleton fibers "
                f"are {_listed(singleton)} but the fiber endpoints from "
                f"below are {_listed(ends)}"
            )


def _fiber_sizes(tree: LevelTree) -> list[list[int]]:
    """``[n][i]``: the number of children of stored vertex ``(n, i)``,
    counted off the parent rows; one each at the stored depth."""
    rows = []
    for n, parents in enumerate(tree.parents):
        sizes = [0] * tree.levels[n]
        for p in parents:
            sizes[p] += 1
        rows.append(sizes)
    rows.append([1] * tree.levels[-1])
    return rows


@dataclass(frozen=True, eq=False)
class LabeledTree(Interned):
    """The cropped ``flavor`` tree on ``tree``, whose labels are its fiber
    sizes.  Equal trees are one object; the constructor checks the
    cropped rule (:func:`validate_cropped`)."""

    flavor: str
    tree: LevelTree

    def __post_init__(self) -> None:
        flavor_of(self.flavor)
        validate_cropped(self.tree)

    @property
    def depth(self) -> int:
        return self.tree.depth

    @property
    def is_trivial(self) -> bool:
        """A single root carrying the single-slot label and nothing below."""
        return self.tree == POINT_TREE

    def label(self, v: Vertex) -> Ordinal:
        """Label of vertex ``v``, read off its fiber size; past the stored
        depth, the single-slot label of the chain continuation."""
        n, i = v
        if n < 0 or not 0 <= i < self.tree.level_size(n):
            raise ValueError(f"unknown vertex {v}")
        return self.labels[min(n, self.depth)][i]

    @cached_property
    def labels(self) -> tuple[tuple[Ordinal, ...], ...]:
        """``[n][i]``: the label of stored vertex ``(n, i)``."""
        root = partial(_root, self.flavor)
        return tuple(tuple(map(root, row)) for row in _fiber_sizes(self.tree))

    def to_dict(self) -> dict:
        return {
            "kind": "labeled-tree",
            "flavor": self.flavor,
            "levels": list(self.tree.levels),
            "parents": [list(p) for p in self.tree.parents],
            "labels": [[lab.n for lab in row] for row in self.labels],
        }

    @staticmethod
    def from_dict(data: dict) -> "LabeledTree":
        flavor = json_field(data, "labeled-tree", "flavor", json_str)
        tree = LevelTree.from_dict(data, "labeled-tree")
        rows = json_field(
            data, "labeled-tree", "labels", lambda n: Ordinal(json_int(n)), 2
        )
        if len(rows) > len(data["levels"]):
            raise ValueError(
                f"label row {len(data['levels'])} lies past the last level; "
                f"give one label row per level, got {len(rows)} rows for "
                f"{len(data['levels'])} levels"
            )
        t = LabeledTree(flavor, tree)
        validate_constrained(t, rows)
        return t


def validate_constrained(t: LabeledTree, rows) -> None:
    """Raise unless the label ``rows`` declared for ``t`` are its labels:
    one row per stored level, and per level below it if given, each of its
    level's arity, each label prescribing as many child slots as its
    vertex has children."""
    if len(rows) <= t.depth:
        raise ValueError("one label row per stored level is required")
    for n, row in enumerate(rows):
        # Below the stored depth every row is the single-slot row.
        want = t.labels[min(n, t.depth)]
        if len(row) != len(want):
            raise ValueError(f"label row {n} has the wrong arity")
        if row == want:
            continue
        if n > t.depth:
            raise ValueError(
                f"label row {n} lies below the stored depth, where every "
                f"label is {trivial_root(t.flavor)}; got {list(row)}"
            )
        i = next(i for i, lab in enumerate(row) if lab != want[i])
        raise ValueError(
            f"vertex ({n}, {i}) has label {row[i]} prescribing "
            f"{FLAVORS[t.flavor].slots(row[i])} children but its fiber has "
            f"{FLAVORS[t.flavor].slots(want[i])}"
        )


def trivial_labeled(flavor: str) -> LabeledTree:
    """The single-vertex tree carrying the flavor's single-slot label."""
    return LabeledTree(flavor, POINT_TREE)


@lru_cache(maxsize=None)
def _root(flavor: str, children: int) -> Ordinal:
    """The label of a cropped ``flavor`` tree's vertex with ``children``
    children, computed once per flavor and fiber size."""
    return Ordinal(children - 1 - FLAVORS[flavor].extra_slot)


Alphas = tuple[tuple[OrdMap, ...], ...]


@dataclass(frozen=True)
class LabeledTreeMor:
    """A morphism between cropped labeled trees, given by its tree map.

    As for inductive trees (see :class:`theta_disk.itree.Flavor`), one end
    indexes the components and the tree map runs from it to the other
    end: from the domain's tree to the codomain's in the interval flavor,
    and the other way in the ordinal flavor (op-morphisms).  The tree map
    must send each fiber monotonely onto the fiber over its image, ends to
    ends (:func:`theta_disk.forest.fiber_slots`); since a cropped tree's
    labels are its fiber sizes, that makes the components, which
    ``alphas`` reads off the slots the check returns.  ``slots`` keeps
    them; it is neither compared nor shown.
    """

    dom: LabeledTree
    cod: LabeledTree
    tree_map: TreeMap
    slots: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.dom.flavor != self.cod.flavor:
            raise ValueError("morphism ends must share a flavor")
        spec = FLAVORS[self.flavor]
        index, value = spec.orient(self.dom, self.cod)
        index_name, value_name = spec.orient("domain", "codomain")
        if (self.tree_map.dom, self.tree_map.cod) != (index.tree, value.tree):
            raise ValueError(
                f"tree map must run from the {index_name}'s tree to the "
                f"{value_name}'s tree"
            )
        object.__setattr__(self, "slots", fiber_slots(self.tree_map))

    @property
    def flavor(self) -> str:
        return self.dom.flavor

    @cached_property
    def alphas(self) -> Alphas:
        """``[n][i]``: the component at the index end's stored vertex
        ``(n, i)``.  Interval flavor: an endpoint-preserving map from the
        domain label to the codomain label at the image.  Ordinal flavor:
        a monotone map from the domain label at the image to the codomain
        label."""
        rows = self.slots[: self.tree_map.dom.depth + 1]
        return tuple(tuple(_component(self.flavor, s) for s in row) for row in rows)

    def to_dict(self) -> dict:
        return {
            "kind": "labeled-tree-mor",
            "direction": "forward" if self.flavor == INTERVAL else "op",
            "dom": self.dom.to_dict(),
            "cod": self.cod.to_dict(),
            "level_maps": [list(row) for row in self.tree_map.level_maps],
            "alphas": [[a.to_dict() for a in row] for row in self.alphas],
        }

    @staticmethod
    def from_dict(data: dict) -> "LabeledTreeMor":
        kind = "labeled-tree-mor"
        dom = json_field(data, kind, "dom", LabeledTree.from_dict)
        cod = json_field(data, kind, "cod", LabeledTree.from_dict)
        direction = json_field(data, kind, "direction", json_str)
        if direction not in ("forward", "op"):
            raise ValueError(f"unknown direction {direction!r}")
        if (direction == "forward") != (dom.flavor == INTERVAL):
            raise ValueError(
                f"direction {direction!r} does not match flavor {dom.flavor!r}"
            )
        rows = json_field(data, kind, "level_maps", depth=2)
        alphas = json_field(data, kind, "alphas", OrdMap.from_dict, 2)
        ends = FLAVORS[dom.flavor].orient(dom.tree, cod.tree)
        m = LabeledTreeMor(dom, cod, TreeMap(*ends, rows))
        if alphas != m.alphas:
            raise ValueError("declared components disagree with the level maps")
        return m


@lru_cache(maxsize=None)
def _component(flavor: str, slots: tuple[int, ...]) -> OrdMap:
    """The component whose slot map sends child ``t`` to slot ``slots[t]``
    of the fiber over the image, whose last slot the last child takes."""
    slot_map = OrdMap(Ordinal(len(slots) - 1), Ordinal(slots[-1]), slots)
    return vee_map(slot_map) if flavor == ORDINAL else slot_map


def identity_labeled(t: LabeledTree) -> LabeledTreeMor:
    return LabeledTreeMor(t, t, identity_tree_map(t.tree))


def compose_labeled(g: LabeledTreeMor, f: LabeledTreeMor) -> LabeledTreeMor:
    """The composite ``g after f``."""
    if f.cod != g.dom:
        raise ValueError("labeled morphisms do not compose")
    # ``first`` shares the composite's index end; ``second`` continues it.
    first, second = FLAVORS[f.flavor].orient(f, g)
    tree_map = compose_tree_maps(second.tree_map, first.tree_map)
    return LabeledTreeMor(f.dom, g.cod, tree_map)


def con_dualize(t: LabeledTree) -> LabeledTree:
    """The cropped tree of the other flavor on ``t``'s level tree: each
    label relabeled through ``vee_obj`` or ``wedge_obj``."""
    return LabeledTree(ORDINAL if t.flavor == INTERVAL else INTERVAL, t.tree)


def con_dualize_mor(m: LabeledTreeMor) -> LabeledTreeMor:
    """The dual of a labeled morphism; contravariant, same tree map."""
    return LabeledTreeMor(con_dualize(m.cod), con_dualize(m.dom), m.tree_map)


def _require_flavor(flavor: str, t: LabeledTree | LabeledTreeMor) -> None:
    if t.flavor != flavor:
        raise ValueError(f"expected {flavor}-flavor labels, got {t.flavor}")


@lru_cache(maxsize=None)
def xi_obj(flavor: str, t: LevelTree) -> ITreeObj:
    """The inductive tree of the cropped ``flavor`` tree on ``t``, whose
    labels are its fiber sizes; a disk's reading is the interval case."""
    if t.depth == 0:
        return trivial_obj(flavor)
    kids = tuple(xi_obj(flavor, restrict(t, (1, j))) for j in range(t.levels[1]))
    return ITreeObj(flavor, _root(flavor, len(kids)), kids)


def xi_interval(t: LabeledTree) -> ITreeObj:
    """Convert a cropped interval-labeled tree to an inductive tree."""
    _require_flavor(INTERVAL, t)
    return xi_obj(INTERVAL, t.tree)


def xi_ordinal(t: LabeledTree) -> ITreeObj:
    """Convert a cropped ordinal-labeled tree to an inductive tree."""
    _require_flavor(ORDINAL, t)
    return xi_obj(ORDINAL, t.tree)


def xi_mor(flavor: str, m: LabeledTreeMor) -> ITreeMor:
    """The inductive-tree reading of the cropped ``flavor`` morphism ``m``,
    read off its tree map and its fiber slots; a disk morphism, which
    keeps both too, reads as the interval case."""
    f = m.tree_map
    ends = xi_obj(flavor, f.dom), xi_obj(flavor, f.cod)
    return _xi_mor(flavor, f, m.slots, (0, 0), *ends)


def _xi_mor(
    flavor: str, f: TreeMap, slots: tuple, x: Vertex, here: ITreeObj, there: ITreeObj
) -> ITreeMor:
    """The reading from ``here``, the inductive tree over ``x``, to
    ``there``, the one over ``f(x)``, whose component is read off the
    slots of ``x``'s children: child ``k`` goes to ``there``'s child
    ``slots[n][i][k]``.

    ``x`` addresses the side that indexes the components: the domain for
    the interval flavor, the codomain for the ordinal flavor.
    """
    orient = FLAVORS[flavor].orient
    if there.is_trivial:
        return marker(*orient(here, there))
    n, i = x
    to = slots[n][i]
    kids = tuple(
        _xi_mor(flavor, f, slots, (n + 1, j), child, there.children[to[k]])
        for k, (j, child) in enumerate(zip(fibers(f.dom, n)[i], here.children))
    )
    return ITreeMor(*orient(here, there), _component(flavor, to), kids)


def xi_interval_mor(m: LabeledTreeMor) -> ITreeMor:
    """Convert an interval-labeled morphism to an inductive tree morphism."""
    _require_flavor(INTERVAL, m)
    return xi_mor(INTERVAL, m)


def xi_ordinal_mor(m: LabeledTreeMor) -> ITreeMor:
    """Convert an ordinal-labeled op-morphism to an inductive tree morphism."""
    _require_flavor(ORDINAL, m)
    return xi_mor(ORDINAL, m)


def xi_inverse(h: ITreeObj) -> LabeledTree:
    """Rebuild the cropped labeled tree presenting an inductive tree."""
    return _xi_inverse(h)


@lru_cache(maxsize=None)
def _xi_inverse(h: ITreeObj) -> LabeledTree:
    if h.is_trivial:
        return trivial_labeled(h.flavor)
    return LabeledTree(h.flavor, graft([_xi_inverse(c).tree for c in h.children]))


def enumerate_cropped_trees(
    flavor: str, max_height: int, max_root: int
) -> list[LabeledTree]:
    """All cropped single-root trees within the inductive-tree bounds."""
    return [
        xi_inverse(h) for h in enumerate_objects(flavor, max_height, max_root)
    ]


def _require_hom(a: LabeledTree, b: LabeledTree) -> None:
    if a.flavor != b.flavor:
        raise ValueError("hom-sets require a common flavor")


def enumerate_labeled_mors(
    a: LabeledTree, b: LabeledTree
) -> list[LabeledTreeMor]:
    """All morphisms ``a -> b`` of cropped trees, deterministically ordered,
    built on every call from the shared level maps of the subtree hom-sets."""
    _require_hom(a, b)
    ends = FLAVORS[a.flavor].orient(a.tree, b.tree)
    maps = LEVEL_MAPS[a.flavor][0](a.tree, b.tree)
    return [LabeledTreeMor(a, b, TreeMap(*ends, rows)) for rows in maps]


def count_labeled_mors(a: LabeledTree, b: LabeledTree) -> int:
    """``len(enumerate_labeled_mors(a, b))``, counted without listing."""
    _require_hom(a, b)
    return LEVEL_MAPS[a.flavor][1](a.tree, b.tree)


@lru_cache(maxsize=None)
def _grid(flavor: str, a: LevelTree, b: LevelTree) -> tuple:
    """The flavor of ``a -> b``, the root-child subtrees of its index and
    value ends, and their router; memoized per pair, for ``_glue`` reads
    it for every glued map."""
    spec = FLAVORS[flavor]
    index, value = (
        tuple([restrict(t, (1, i)) for i in range(t.levels[1])]) if t.depth else ()
        for t in spec.orient(a, b)
    )
    return spec, index, value, lambda root: spec.orient(index, spec.routed(root, value))


def _glue(flavor: str, a: LevelTree, b: LevelTree, root, subs) -> LevelMaps:
    spec, index, value, _ = _grid(flavor, a, b)
    if root is None:
        return tuple((0,) * size for size in spec.orient(a, b)[0].levels)
    return glue_level_maps(index, value, spec.slot_map(root).images, subs)


# Per flavor, ``(enumerate, count)`` of the level maps of the morphisms
# between cropped trees on the given domain and codomain trees, each map
# running from the index end's tree.  Disks are the interval case.
LEVEL_MAPS = {
    flavor: slot_recursion(partial(_grid, flavor), partial(_glue, flavor))
    for flavor in FLAVORS
}
