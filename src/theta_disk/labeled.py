"""Trees labeled by finite linear orders, with fiber constraints and dualities.

A labeled tree pairs a stored forest with one label per vertex, drawn
from the interval world (labels ``[m]`` with ``m >= 0``, components
preserving both endpoints) or from the ordinal world (labels down to
``[-1]``, arbitrary monotone components).  Every label prescribes a
number of child slots -- ``m + 1`` for an interval label ``[m]``,
``m + 2`` for an ordinal label -- and a constrained tree realizes that
prescription exactly, fiber by fiber, in sibling order.  Cropped trees
additionally end every branch at single-slot labels, placed exactly at
the two outer positions of each fiber.  Both are properties of a plain
:class:`LabeledTree`, checked by :func:`validate_constrained` and
:func:`validate_cropped`.  A cropped tree is fixed by its flavor and its
level tree, since its labels are its fiber sizes: :func:`xi_inverse`
builds the level tree with ``forest.suspend`` and ``forest.coproduct``,
and one labeling rule reads each fiber size off the parent rows.  Any
other labeled tree, such as a constrained tree that is not cropped, is
written out as a :class:`LabeledTree` literal.

Morphisms follow the flavor: interval-labeled morphisms carry a forward
tree map with one endpoint-preserving component per domain vertex, while
ordinal-labeled morphisms are stored as op-morphisms -- the tree map runs
from the codomain's tree to the domain's, with one monotone component
per codomain vertex.  A cropped tree's labels are its fiber sizes, so a
morphism is its tree map: it is valid when the tree map sends each fiber
monotonely onto the fiber over its image, ends to ends (the fiber rule,
``forest.fiber_slots``), and its components are read off where the
children land.  Relabeling through the ordinal dualities swaps the two
flavors contravariantly on the same tree map, and cropped single-root
trees convert back and forth with the inductive tree categories vertex
for vertex.

Labeled trees are interned (see :class:`theta_disk.ordinal.Interned`),
so each is validated once and equality is identity.  Everything that
reads a cropped tree reads its level tree: the inductive-tree images
(``xi_obj``, keyed by flavor and level tree) and the level maps and
counts of the subtree hom-sets (``LEVEL_MAPS``, one ``hom_recursion`` per
flavor) are memoized for the life of the process, as are the cropped
diagnostics, the label of each fiber size and the components of each slot
map.  Disks are the interval case of all of these.  Morphisms are built
afresh on every call, and only those returned are validated; the
inductive-tree image of a morphism is read off its tree map and the fiber
slots its constructor keeps, vertex by vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

from theta_disk.forest import (
    LevelMaps,
    LevelTree,
    POINT_TREE,
    TreeMap,
    Vertex,
    compose_tree_maps,
    coproduct,
    fiber_slots,
    fibers,
    glue_level_maps,
    identity_tree_map,
    restrict,
    suspend,
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
    hom_recursion,
    json_field,
    json_int,
    json_str,
    vee_map,
    vee_obj,
    wedge_obj,
)


def label_slots(flavor: str, label: Ordinal) -> int:
    """Number of child slots a vertex label prescribes."""
    return flavor_of(flavor).slots(label)


@dataclass(frozen=True, eq=False)
class LabeledTree(Interned):
    """A stored forest with one interval- or ordinal-label per vertex.

    Vertices beyond the stored depth continue as single chains and
    implicitly carry the single-slot label of the flavor.  Equal trees are
    one object; being constrained or cropped is a checked property, not a
    subclass.
    """

    flavor: str
    tree: LevelTree
    labels: tuple[tuple[Ordinal, ...], ...]

    def __post_init__(self) -> None:
        flavor_of(self.flavor)
        if len(self.labels) != len(self.tree.levels):
            raise ValueError("one label row per stored level is required")
        for n, row in enumerate(self.labels):
            if len(row) != self.tree.levels[n]:
                raise ValueError(f"label row {n} has the wrong arity")
        if self.flavor == INTERVAL and any(
            lab.n < 0 for row in self.labels for lab in row
        ):
            raise ValueError("interval labels must be at least [0]")

    @property
    def depth(self) -> int:
        return self.tree.depth

    @property
    def is_trivial(self) -> bool:
        """A single root carrying the single-slot label and nothing below."""
        return self.tree == POINT_TREE and self.labels[0][0] == trivial_root(
            self.flavor
        )

    def label(self, v: Vertex) -> Ordinal:
        """Label of vertex ``v``, following the implicit continuation."""
        n, i = v
        if n < 0 or not 0 <= i < self.tree.level_size(n):
            raise ValueError(f"unknown vertex {v}")
        if n <= self.depth:
            return self.labels[n][i]
        return trivial_root(self.flavor)

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
        # Rows past the stored depth describe the chain continuation, whose
        # labels are implicit; dropping them must not lose a label.
        single = trivial_root(flavor)
        for n, row in enumerate(rows[tree.depth + 1 :], tree.depth + 1):
            if any(lab != single for lab in row):
                raise ValueError(
                    f"label row {n} lies below the stored depth, where every "
                    f"label is {single}; got {list(row)}"
                )
        return LabeledTree(flavor, tree, rows[: tree.depth + 1])


def trivial_labeled(flavor: str) -> LabeledTree:
    """The single-vertex tree carrying the flavor's single-slot label."""
    return _labeled_by_fibers(flavor, POINT_TREE)


def _labeled_by_fibers(flavor: str, t: LevelTree) -> LabeledTree:
    """The cropped ``flavor`` tree on ``t``: above the stored depth each
    vertex is labeled by its fiber size, counted off the parent row, and
    at the stored depth by the single-slot label."""
    rows = []
    for n, parents in enumerate(t.parents):
        sizes = [0] * t.levels[n]
        for p in parents:
            sizes[p] += 1
        rows.append(tuple([_root(flavor, k) for k in sizes]))
    rows.append((trivial_root(flavor),) * t.levels[-1])
    return LabeledTree(flavor, t, tuple(rows))


@lru_cache(maxsize=None)
def _root(flavor: str, children: int) -> Ordinal:
    """The label of a cropped ``flavor`` tree's vertex with ``children``
    children, computed once per flavor and fiber size."""
    return Ordinal(children - 1 - FLAVORS[flavor].extra_slot)


def validate_constrained(t: LabeledTree) -> list[str]:
    """Diagnostics for the fiber-realization rules; empty means valid.

    The list is new on every call.
    """
    return _constrained_problems(t)


def _constrained_problems(t: LabeledTree) -> list[str]:
    problems: list[str] = []
    for step, row in enumerate(t.tree.parents):
        if any(row[q] > row[q + 1] for q in range(len(row) - 1)):
            problems.append(
                f"parents of level {step + 1} are not sorted; fibers must be "
                "stored contiguously in slot order"
            )
    for n in range(t.depth):
        for i, lab in enumerate(t.labels[n]):
            want = label_slots(t.flavor, lab)
            got = len(fibers(t.tree, n)[i])
            if want != got:
                problems.append(
                    f"vertex ({n}, {i}) has label {lab} prescribing {want} "
                    f"children but its fiber has {got}"
                )
    return problems


def validate_cropped(t: LabeledTree) -> list[str]:
    """Diagnostics for the branch-ending rules on top of the fiber law.

    The list is new on every call; the diagnostics are computed once.
    """
    return list(_cropped_problems(t))


@lru_cache(maxsize=None)
def _cropped_problems(t: LabeledTree) -> tuple[str, ...]:
    problems = _constrained_problems(t)
    single = trivial_root(t.flavor)
    d = t.depth
    for i, lab in enumerate(t.labels[d]):
        if lab != single:
            problems.append(
                f"vertex ({d}, {i}) at the stored depth must carry the "
                f"single-slot label {single}, got {lab}"
            )
    for n in range(d):
        for kids in fibers(t.tree, n):
            for pos, j in enumerate(kids):
                outer = pos == 0 or pos == len(kids) - 1
                if outer != (t.labels[n + 1][j] == single):
                    problems.append(
                        f"vertex ({n + 1}, {j}): single-slot labels must sit "
                        "exactly at the outer positions of a fiber"
                    )
    return tuple(problems)


Alphas = tuple[tuple[OrdMap, ...], ...]


@dataclass(frozen=True)
class LabeledTreeMor:
    """A morphism between cropped labeled forests, given by its tree map.

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
        for end, name in ((self.dom, "domain"), (self.cod, "codomain")):
            problems = validate_cropped(end)
            if problems:
                raise ValueError(f"{name} is not cropped: {problems[0]}")
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


def _duality(flavor: str):
    """The other flavor, and the map taking labels there.

    Built on every call from the module globals, so that a function
    rebound on this module (a tracing wrapper) is the one that runs.
    """
    return {INTERVAL: (ORDINAL, vee_obj), ORDINAL: (INTERVAL, wedge_obj)}[flavor]


def con_dualize(t: LabeledTree) -> LabeledTree:
    """Relabel a cropped forest through the duality, swapping the flavor."""
    problems = validate_cropped(t)
    if problems:
        raise ValueError(problems[0])
    flavor, relabel = _duality(t.flavor)
    labels = tuple(tuple(relabel(lab) for lab in row) for row in t.labels)
    return LabeledTree(flavor, t.tree, labels)


def con_dualize_mor(m: LabeledTreeMor) -> LabeledTreeMor:
    """The dual of a labeled morphism; contravariant, same tree map."""
    return LabeledTreeMor(con_dualize(m.cod), con_dualize(m.dom), m.tree_map)


def _require_cropped_trees(flavor: str, *trees: LabeledTree) -> None:
    for t in trees:
        if t.flavor != flavor:
            raise ValueError(f"expected {flavor}-flavor labels, got {t.flavor}")
        problems = validate_cropped(t)
        if problems:
            raise ValueError(problems[0])
        if not t.tree.is_tree:
            raise ValueError("a single-root tree is required")


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
    _require_cropped_trees(INTERVAL, t)
    return xi_obj(INTERVAL, t.tree)


def xi_ordinal(t: LabeledTree) -> ITreeObj:
    """Convert a cropped ordinal-labeled tree to an inductive tree."""
    _require_cropped_trees(ORDINAL, t)
    return xi_obj(ORDINAL, t.tree)


def xi_mor(flavor: str, m: LabeledTreeMor) -> ITreeMor:
    """The inductive-tree reading of the cropped ``flavor`` morphism ``m``,
    read off its tree map and its fiber slots; a disk morphism, which
    keeps both too, reads as the interval case."""
    return _xi_mor(flavor, m.tree_map, m.slots, (0, 0))


def _xi_mor(flavor: str, f: TreeMap, slots: tuple, x: Vertex) -> ITreeMor:
    """The reading between the subtrees over ``x`` and ``f(x)``, whose
    component is read off the slots of ``x``'s children.

    ``x`` addresses the side that indexes the components: the domain for
    the interval flavor, the codomain for the ordinal flavor.
    """
    orient = FLAVORS[flavor].orient
    here = xi_obj(flavor, restrict(f.dom, x))
    there = xi_obj(flavor, restrict(f.cod, f(x)))
    if there.is_trivial:
        return marker(*orient(here, there))
    n, i = x
    kids = tuple(_xi_mor(flavor, f, slots, (n + 1, j)) for j in fibers(f.dom, n)[i])
    return ITreeMor(*orient(here, there), _component(flavor, slots[n][i]), kids)


def xi_interval_mor(m: LabeledTreeMor) -> ITreeMor:
    """Convert an interval-labeled morphism to an inductive tree morphism."""
    _require_cropped_trees(INTERVAL, m.dom, m.cod)
    return xi_mor(INTERVAL, m)


def xi_ordinal_mor(m: LabeledTreeMor) -> ITreeMor:
    """Convert an ordinal-labeled op-morphism to an inductive tree morphism."""
    _require_cropped_trees(ORDINAL, m.dom, m.cod)
    return xi_mor(ORDINAL, m)


def xi_inverse(h: ITreeObj) -> LabeledTree:
    """Rebuild the cropped labeled tree presenting an inductive tree."""
    return _xi_inverse(h)


@lru_cache(maxsize=None)
def _xi_inverse(h: ITreeObj) -> LabeledTree:
    if h.is_trivial:
        return trivial_labeled(h.flavor)
    forest = coproduct([_xi_inverse(c).tree for c in h.children])
    return _labeled_by_fibers(h.flavor, suspend(forest))


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
    _require_cropped_trees(a.flavor, a, b)


def enumerate_labeled_mors(
    a: LabeledTree, b: LabeledTree
) -> list[LabeledTreeMor]:
    """All morphisms ``a -> b`` of cropped trees, deterministically ordered,
    built on every call from the shared level maps of the subtree hom-sets."""
    _require_hom(a, b)
    ends = FLAVORS[a.flavor].orient(a.tree, b.tree)
    maps = (TreeMap(*ends, rows) for rows in LEVEL_MAPS[a.flavor][0](*ends))
    return [LabeledTreeMor(a, b, f) for f in maps]


def count_labeled_mors(a: LabeledTree, b: LabeledTree) -> int:
    """``len(enumerate_labeled_mors(a, b))``, counted without listing."""
    _require_hom(a, b)
    return LEVEL_MAPS[a.flavor][1](*FLAVORS[a.flavor].orient(a.tree, b.tree))


def _branches(flavor: str, a: LevelTree, b: LevelTree) -> list:
    """Each slot map of the morphisms with index end ``a`` and value end
    ``b``, with the ends of their children.

    A cropped tree's labels, and a disk's, are read off its fiber sizes.
    """
    if b.depth == 0:
        return [(None, ())]
    if a.depth == 0:
        return []
    kids = [restrict(a, (1, i)) for i in range(a.levels[1])]
    tops = [restrict(b, (1, j)) for j in range(b.levels[1])]
    spec = FLAVORS[flavor]
    roots = [_root(flavor, len(t)) for t in (kids, tops)]
    out = []
    for g in spec.root_maps(*spec.orient(*roots)):
        slot = spec.slot_map(g)
        out.append((slot, [(kid, tops[j]) for kid, j in zip(kids, slot.images)]))
    return out


def _glue(a: LevelTree, b: LevelTree, slot: OrdMap | None, subs) -> LevelMaps:
    if slot is None:
        return tuple((0,) * size for size in a.levels)
    return glue_level_maps(a, b, slot, subs)


# Per flavor, ``(enumerate, count)`` of the level maps of the morphisms
# between cropped trees, keyed by the index-end and value-end trees.
# Disks are the interval case.
LEVEL_MAPS = {
    flavor: hom_recursion(partial(_branches, flavor), _glue) for flavor in FLAVORS
}
