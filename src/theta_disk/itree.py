"""Inductive trees of intervals and of ordinals, with their duality.

Both categories are built the same way: an object is either the trivial
object, or a root ordinal together with one child object per index —
indexed by the root's elements in the interval flavor, and by the
wedge of the root in the ordinal flavor.  A child must be trivial exactly
at the endpoints of its index range, and a non-trivial root must have at
least two elements in the interval flavor (at least one in the ordinal
flavor): without that floor, towers of trivial children would be distinct
objects that none of the equivalences checked here can reach.  The
constructor enforces these rules, so a tree that breaks them is never
built.

Morphisms mirror the objects: a root map plus one child morphism per
index on the appropriate side.  In the interval flavor the trivial object
is terminal; in the ordinal flavor it is initial.  The ``vee``/``wedge``
pair exchanges the two flavors contravariantly and is mutually inverse.

Objects are interned (see :class:`theta_disk.ordinal.Interned`): equal
trees are one object.  A morphism is a checked tuple of its fields: it
equals that plain tuple, and its hash is the tuple's, not cached.  The
hom-sets are one :func:`theta_disk.ordinal.slot_recursion` over the
children of the two ends, the one cropped trees and disks use.  Listing
and ``vee``/``wedge`` build each child morphism once and reuse it, while
the morphisms they return at the top level are new on every call; the
count is a path over the grid of child counts, so it never lists a root
map.  A morphism's shape rules and child ends are worked out once per
shape ``(dom, cod, root_map)``, in a table kept for the life of the
process; listing routes each root map's children through that table, so
the constructor of the morphisms it builds finds them there.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product
from operator import itemgetter

from theta_disk.ordinal import (
    Interned,
    OrdMap,
    Ordinal,
    compose as compose_ord,
    enumerate_interval_maps,
    enumerate_ord_maps,
    identity as identity_ord,
    json_field,
    json_str,
    require_interval,
    slot_recursion,
    vee_map,
    vee_obj,
    wedge_map,
    wedge_obj,
)

INTERVAL = "interval"
ORDINAL = "ordinal"


@dataclass(frozen=True)
class Flavor:
    """Everything that tells the two flavors apart.

    A morphism has an *index end*, whose children (or labeled vertices)
    index its child morphisms, and a *value end*, which the slot map of
    its root map picks children from.  The interval flavor is indexed by
    the domain and routes child ``i`` to ``root_map(i)``; the ordinal
    flavor is the same construction read through the op: indexed by the
    codomain, routing child ``j`` by ``wedge_map(root_map)(j)``.
    """

    trivial_root: Ordinal  # the root of the trivial object
    extra_slot: int  # children of a root beyond its elements
    least_root: int  # the least ``n`` of a non-trivial root ``[n]``
    cod_indexes: bool  # whether the codomain is the index end
    root_maps: Callable[[Ordinal, Ordinal], list[OrdMap]]  # all root maps
    slot_map: Callable[[OrdMap], OrdMap]  # index slots to value slots

    def slots(self, root: Ordinal) -> int:
        """Number of children a non-trivial ``root`` carries."""
        return root.size + self.extra_slot

    def orient(self, dom, cod):
        """``(index, value)`` from ``(dom, cod)``, and back again."""
        return (cod, dom) if self.cod_indexes else (dom, cod)

    def routed(self, root_map: OrdMap, value_children: tuple) -> list:
        """The value-end child that each index-end child is routed to."""
        return [value_children[j] for j in self.slot_map(root_map).images]


# The enumerators and slot maps go through the module globals at call
# time, so a function rebound on this module (a tracing wrapper) runs.
# Slot maps are read per listed root map and per new ``_child_ends`` shape.
FLAVORS = {
    INTERVAL: Flavor(
        trivial_root=Ordinal(0),
        extra_slot=0,
        least_root=1,
        cod_indexes=False,
        root_maps=lambda a, b: enumerate_interval_maps(a, b),
        slot_map=lambda f: f,
    ),
    ORDINAL: Flavor(
        trivial_root=Ordinal(-1),
        extra_slot=1,
        least_root=0,
        cod_indexes=True,
        root_maps=lambda a, b: enumerate_ord_maps(a, b),
        slot_map=lambda f: wedge_map(f),
    ),
}


def flavor_of(name: str) -> Flavor:
    try:
        return FLAVORS[name]
    except KeyError:
        raise ValueError(f"unknown flavor {name!r}") from None


def trivial_root(flavor: str) -> Ordinal:
    return flavor_of(flavor).trivial_root


@dataclass(frozen=True, eq=False)
class ITreeObj(Interned):
    """An object of the inductive interval- or ordinal-tree category.

    The trivial object has no children; a non-trivial object carries one
    child per element of its root (interval flavor) or of its root's
    wedge (ordinal flavor).  Objects are interned, so equal trees are one
    object, validated once, and equality and hashing are identity.  A
    node checks the root floor and which of its own children are trivial;
    deeper nodes were checked when they were built.
    """

    flavor: str
    root: Ordinal
    children: tuple[ITreeObj, ...] = ()

    def __post_init__(self) -> None:
        spec = flavor_of(self.flavor)
        if not self.children:
            if self.root != spec.trivial_root:
                raise ValueError(
                    f"the trivial {self.flavor} object has root "
                    f"{spec.trivial_root}, got {self.root}"
                )
            return
        if any(c.flavor != self.flavor for c in self.children):
            raise ValueError("children must share the parent's flavor")
        expected = spec.slots(self.root)
        if len(self.children) != expected:
            raise ValueError(
                f"root {self.root} requires {expected} children, "
                f"got {len(self.children)}"
            )
        if self.root.n < spec.least_root:
            raise ValueError(
                f"non-trivial {self.flavor} root must be at least "
                f"[{spec.least_root}], got {self.root}"
            )
        for i, child in enumerate(self.children):
            endpoint = i == 0 or i == expected - 1
            if endpoint and not child.is_trivial:
                raise ValueError(f"child {i}: endpoint child must be trivial")
            if not endpoint and child.is_trivial:
                raise ValueError(f"child {i}: interior child must be non-trivial")

    @property
    def is_trivial(self) -> bool:
        return not self.children

    def to_dict(self) -> dict:
        return {
            "kind": "itree",
            "flavor": self.flavor,
            "root": self.root.n,
            "children": [c.to_dict() for c in self.children],
        }

    @staticmethod
    def from_dict(data: dict) -> "ITreeObj":
        return ITreeObj(
            json_field(data, "itree", "flavor", json_str),
            Ordinal(json_field(data, "itree", "root")),
            json_field(data, "itree", "children", ITreeObj.from_dict, 1),
        )


@lru_cache(maxsize=None)
def trivial_obj(flavor: str) -> ITreeObj:
    """The trivial object of ``flavor``, one shared instance per flavor."""
    return ITreeObj(flavor, trivial_root(flavor))


_MARKER_RULE = (
    "a marker morphism requires the trivial object on the "
    "collapsing side and has no children"
)


@lru_cache(maxsize=None)
def _child_ends(dom: ITreeObj, cod: ITreeObj, root_map: OrdMap | None) -> tuple:
    """``(domains, codomains)`` of the children of a morphism of this shape,
    after every check that depends only on the shape.  The index end's
    side is its own ``children`` tuple, the other the routed value-end
    children."""
    if dom.flavor != cod.flavor:
        raise ValueError("morphism ends must share a flavor")
    spec = FLAVORS[dom.flavor]
    index, value = spec.orient(dom, cod)
    if root_map is None:
        if not value.is_trivial:
            raise ValueError(_MARKER_RULE)
        return (), ()
    if index.is_trivial or value.is_trivial:
        raise ValueError(
            "morphisms touching the trivial object use the marker form"
        )
    if root_map.dom != dom.root or root_map.cod != cod.root:
        raise ValueError("root map has the wrong ends")
    if dom.flavor == INTERVAL:
        require_interval(root_map)
    return spec.orient(index.children, tuple(spec.routed(root_map, value.children)))


class ITreeMor(tuple):
    """A morphism of inductive trees: the tuple ``(dom, cod, root_map, children)``.

    ``root_map is None`` marks the canonical morphism into the terminal
    trivial object (interval flavor) or out of the initial trivial object
    (ordinal flavor): the value end is trivial.  Otherwise both ends are
    non-trivial, ``root_map`` runs between the roots, and ``children``
    holds one morphism per child of the index end (see :class:`Flavor`).

    The checks on the ends and the root map (a common flavor, the marker
    and trivial-end rules, the root map's ends, interval root maps) run
    once per shape, in ``_child_ends``; a shape that fails is not stored
    and fails again on every attempt.  The child count and each child's
    ends are checked on every construction, pickle and copy included.
    Equality and hashing are the tuple's: a morphism equals the plain
    tuple of its fields, and its hash is not cached.
    """

    __slots__ = ()
    dom, cod, root_map, children = (property(itemgetter(i)) for i in range(4))

    def __new__(cls, dom, cod, root_map, children=()):
        self = tuple.__new__(cls, (dom, cod, root_map, children))
        self.__post_init__()  # read from the class, so a rebound hook runs
        return self

    def __post_init__(self) -> None:
        dom, cod, root_map, children = self
        doms, cods = _child_ends(dom, cod, root_map)
        if len(children) != len(doms):
            if root_map is None:
                raise ValueError(_MARKER_RULE)
            end = FLAVORS[dom.flavor].orient("domain", "codomain")[0]
            raise ValueError(f"one child morphism per child of the {end}")
        for i, sub in enumerate(children):
            if sub.dom is not doms[i]:
                raise ValueError(f"child {i} has the wrong domain")
            if sub.cod is not cods[i]:
                raise ValueError(f"child {i} has the wrong codomain")

    def __reduce__(self):
        # Tuple pickling at protocols 0 and 1 would skip ``__new__``.
        return type(self), tuple(self)

    def __repr__(self) -> str:
        return "ITreeMor(dom=%r, cod=%r, root_map=%r, children=%r)" % tuple(self)

    @property
    def flavor(self) -> str:
        return self.dom.flavor

    @property
    def is_marker(self) -> bool:
        return self.root_map is None


def marker(dom: ITreeObj, cod: ITreeObj) -> ITreeMor:
    """The unique morphism through the trivial object on the proper side."""
    return ITreeMor(dom, cod, None)


def identity(h: ITreeObj) -> ITreeMor:
    if h.is_trivial:
        return marker(h, h)
    kids = tuple(identity(c) for c in h.children)
    return ITreeMor(h, h, identity_ord(h.root), kids)


def compose(g: ITreeMor, f: ITreeMor) -> ITreeMor:
    """The composite ``g after f``."""
    if f.cod != g.dom:
        raise ValueError("tree morphisms do not compose")
    spec = FLAVORS[f.flavor]
    if spec.orient(f.dom, g.cod)[1].is_trivial:
        return marker(f.dom, g.cod)
    # The value end is non-trivial, so neither morphism is a marker.
    # ``first`` shares the composite's index end; ``second`` continues it.
    first, second = spec.orient(f, g)
    picked = spec.routed(first.root_map, second.children)
    kids = tuple(map(compose, *spec.orient(picked, first.children)))
    return ITreeMor(f.dom, g.cod, compose_ord(g.root_map, f.root_map), kids)


def _dual_tree(x: ITreeObj, flavor: str, dual_root, dual_child) -> ITreeObj:
    if x.is_trivial:
        return trivial_obj(flavor)
    kids = tuple(dual_child(c) for c in x.children)
    return ITreeObj(flavor, dual_root(x.root), kids)


# Object duals, memoized per distinct tree: dualizing a morphism dualizes
# its ends at every level of recursion.  Each table holds only its own
# function's images and is not seeded from the other, so a round trip
# still computes both directions and a substituted functor never hits them.
@lru_cache(maxsize=None)
def _vee_tree(x: ITreeObj) -> ITreeObj:
    return _dual_tree(x, ORDINAL, vee_obj, _vee_tree)


@lru_cache(maxsize=None)
def _wedge_tree(x: ITreeObj) -> ITreeObj:
    return _dual_tree(x, INTERVAL, wedge_obj, _wedge_tree)


def _dual_mor(f: ITreeMor, dual_tree, dual_map, dual_child) -> ITreeMor:
    """``f`` dualized contravariantly; ``dual_child`` dualizes its children."""
    dom, cod, root_map, children = f
    ends = dual_tree(cod), dual_tree(dom)
    if root_map is None:
        return marker(*ends)
    return ITreeMor(*ends, dual_map(root_map), tuple(map(dual_child, children)))


# Child morphism duals, memoized like the object duals above: the children
# of enumerated morphisms are shared, so each is dualized once.  The
# morphism handed to ``vee``/``wedge`` itself is dualized afresh and not
# stored, so only the few distinct children are held.
@lru_cache(maxsize=None)
def _vee_child(f: ITreeMor) -> ITreeMor:
    return _dual_mor(f, _vee_tree, vee_map, _vee_child)


@lru_cache(maxsize=None)
def _wedge_child(f: ITreeMor) -> ITreeMor:
    return _dual_mor(f, _wedge_tree, wedge_map, _wedge_child)


def _dualize(x, name: str, source: str, dual_tree, dual_map, dual_child):
    if x.flavor != source:
        noun = "trees" if isinstance(x, ITreeObj) else "morphisms"
        raise ValueError(f"{name} consumes {source}-flavor {noun}")
    if isinstance(x, ITreeObj):
        return dual_tree(x)
    return _dual_mor(x, dual_tree, dual_map, dual_child)


def vee(x: ITreeObj | ITreeMor):
    """The interval-to-ordinal dualization, contravariant on morphisms."""
    return _dualize(x, "vee", INTERVAL, _vee_tree, vee_map, _vee_child)


def wedge(x: ITreeObj | ITreeMor):
    """The ordinal-to-interval dualization, contravariant on morphisms."""
    return _dualize(x, "wedge", ORDINAL, _wedge_tree, wedge_map, _wedge_child)


def enumerate_objects(
    flavor: str, max_height: int, max_root: int
) -> list[ITreeObj]:
    """All valid objects with height and root cardinalities bounded.

    ``max_root`` caps the number of elements of every root in the tree.
    Deterministic order: by height layer, then root size, then children
    lexicographically in enumeration order.
    """
    spec = flavor_of(flavor)
    trivial = trivial_obj(flavor)
    nontrivial: list[ITreeObj] = []
    seen: set[ITreeObj] = set()
    for _ in range(max_height):
        layer: list[ITreeObj] = []
        previous = list(nontrivial)
        for root_n in range(spec.least_root, max_root):
            root = Ordinal(root_n)
            # every slot but the two endpoints holds a non-trivial child
            for combo in product(previous, repeat=spec.slots(root) - 2):
                candidate = ITreeObj(flavor, root, (trivial, *combo, trivial))
                if candidate not in seen:
                    layer.append(candidate)
        nontrivial.extend(layer)
        seen.update(layer)
    return [trivial] + nontrivial


def _grid(h: ITreeObj, k: ITreeObj) -> tuple:
    """The flavor of ``h -> k``, the children of its index and value ends,
    and its router: the shape table ``_child_ends``, which the constructor
    of each listed morphism reads again."""
    if h.flavor != k.flavor:
        raise ValueError("hom-sets require a common flavor")
    spec = FLAVORS[h.flavor]
    return spec, *spec.orient(h.children, k.children), partial(_child_ends, h, k)


enumerate_morphisms, count_morphisms = slot_recursion(_grid, ITreeMor)
