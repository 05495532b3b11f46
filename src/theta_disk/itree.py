"""Inductive trees of intervals and of ordinals, with their duality.

Both categories are built the same way: an object is either the trivial
object, or a root ordinal together with one child object per index —
indexed by the root's elements in the interval flavor, and by the
wedge of the root in the ordinal flavor.  A child must be trivial exactly
at the endpoints of its index range, and a non-trivial root must have at
least two elements in the interval flavor (at least one in the ordinal
flavor): without that floor, towers of trivial children would be distinct
objects that none of the equivalences checked here can reach.

Morphisms mirror the objects: a root map plus one child morphism per
index on the appropriate side.  In the interval flavor the trivial object
is terminal; in the ordinal flavor it is initial.  The ``vee``/``wedge``
pair exchanges the two flavors contravariantly and is mutually inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from theta_disk.ordinal import (
    OrdMap,
    Ordinal,
    enumerate_interval_maps,
    enumerate_ord_maps,
    json_int,
)
from theta_disk.ordinal import (
    compose as compose_ord,
)
from theta_disk.ordinal import (
    identity as identity_ord,
)
from theta_disk.ordinal import (
    require_interval,
    vee_map,
    vee_obj,
    wedge_map,
    wedge_obj,
)

INTERVAL = "interval"
ORDINAL = "ordinal"


def trivial_root(flavor: str) -> Ordinal:
    return Ordinal(0) if flavor == INTERVAL else Ordinal(-1)


def _child_count(flavor: str, root: Ordinal) -> int:
    return root.size if flavor == INTERVAL else root.size + 1


def _is_endpoint(flavor: str, root: Ordinal, i: int) -> bool:
    top = root.n if flavor == INTERVAL else root.n + 1
    return i == 0 or i == top


@dataclass(frozen=True)
class ITreeObj:
    """An object of the inductive interval- or ordinal-tree category.

    The trivial object has no children; a non-trivial object carries one
    child per element of its root (interval flavor) or of its root's
    wedge (ordinal flavor).
    """

    flavor: str
    root: Ordinal
    children: tuple[ITreeObj, ...] = ()

    def __post_init__(self) -> None:
        if self.flavor not in (INTERVAL, ORDINAL):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if not self.children:
            if self.root != trivial_root(self.flavor):
                raise ValueError(
                    f"the trivial {self.flavor} object has root "
                    f"{trivial_root(self.flavor)}, got {self.root}"
                )
            return
        if any(c.flavor != self.flavor for c in self.children):
            raise ValueError("children must share the parent's flavor")
        expected = _child_count(self.flavor, self.root)
        if len(self.children) != expected:
            raise ValueError(
                f"root {self.root} requires {expected} children, "
                f"got {len(self.children)}"
            )

    def __hash__(self) -> int:
        # Computed once per node: the generated hash would walk the whole
        # tree on every dict or set lookup.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.flavor, self.root, self.children))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # Rebuild through the initializer, so no cached hash (which depends
        # on the process's string hash seed) is carried across a pickle.
        return ITreeObj, (self.flavor, self.root, self.children)

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
            data["flavor"],
            Ordinal(json_int(data["root"])),
            tuple(ITreeObj.from_dict(c) for c in data["children"]),
        )


@lru_cache(maxsize=None)
def trivial_obj(flavor: str) -> ITreeObj:
    """The trivial object of ``flavor``, one shared instance per flavor."""
    return ITreeObj(flavor, trivial_root(flavor))


def height(h: ITreeObj) -> int:
    """0 for the trivial object, else one more than the tallest child."""
    if h.is_trivial:
        return 0
    return 1 + max(height(c) for c in h.children)


def validate(h: ITreeObj) -> list[str]:
    """Diagnostics for the inductive validity rules; empty means valid."""
    problems: list[str] = []

    def walk(node: ITreeObj, path: str) -> None:
        if node.is_trivial:
            return
        floor = 1 if node.flavor == INTERVAL else 0
        if node.root.n < floor:
            problems.append(
                f"{path}: non-trivial {node.flavor} root must be at least "
                f"[{floor}], got {node.root}"
            )
        for i, child in enumerate(node.children):
            endpoint = _is_endpoint(node.flavor, node.root, i)
            if endpoint and not child.is_trivial:
                problems.append(f"{path}.{i}: endpoint child must be trivial")
            if not endpoint and child.is_trivial:
                problems.append(
                    f"{path}.{i}: interior child must be non-trivial"
                )
            walk(child, f"{path}.{i}")

    walk(h, "root")
    return problems


@dataclass(frozen=True)
class ITreeMor:
    """A morphism of inductive trees.

    ``root_map is None`` marks the canonical morphism into the terminal
    trivial object (interval flavor) or out of the initial trivial object
    (ordinal flavor).  Otherwise both ends are non-trivial, ``root_map``
    runs between the roots, and ``children`` holds one morphism per
    domain root element (interval) or codomain wedge element (ordinal).
    """

    dom: ITreeObj
    cod: ITreeObj
    root_map: OrdMap | None
    children: tuple[ITreeMor, ...] = ()

    def __post_init__(self) -> None:
        if self.dom.flavor != self.cod.flavor:
            raise ValueError("morphism ends must share a flavor")
        flavor = self.dom.flavor
        if self.root_map is None:
            terminal_end = self.cod if flavor == INTERVAL else self.dom
            if not terminal_end.is_trivial or self.children:
                raise ValueError(
                    "a marker morphism requires the trivial object on the "
                    "collapsing side and has no children"
                )
            return
        if self.dom.is_trivial or self.cod.is_trivial:
            raise ValueError(
                "morphisms touching the trivial object use the marker form"
            )
        if self.root_map.dom != self.dom.root or self.root_map.cod != self.cod.root:
            raise ValueError("root map has the wrong ends")
        if flavor == INTERVAL:
            require_interval(self.root_map)
            if len(self.children) != self.dom.root.size:
                raise ValueError("one child morphism per domain root element")
            for i, sub in enumerate(self.children):
                if sub.dom != self.dom.children[i]:
                    raise ValueError(f"child {i} has the wrong domain")
                if sub.cod != self.cod.children[self.root_map(i)]:
                    raise ValueError(f"child {i} has the wrong codomain")
        else:
            if len(self.children) != self.cod.root.size + 1:
                raise ValueError(
                    "one child morphism per codomain wedge element"
                )
            back = wedge_map(self.root_map)
            for j, sub in enumerate(self.children):
                if sub.dom != self.dom.children[back(j)]:
                    raise ValueError(f"child {j} has the wrong domain")
                if sub.cod != self.cod.children[j]:
                    raise ValueError(f"child {j} has the wrong codomain")

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
    flavor = f.flavor
    if flavor == INTERVAL:
        if g.cod.is_trivial:
            return marker(f.dom, g.cod)
        # f.cod = g.dom is non-trivial here, so neither morphism is a marker
        root = compose_ord(g.root_map, f.root_map)
        kids = tuple(
            compose(g.children[f.root_map(i)], f.children[i])
            for i in range(f.dom.root.size)
        )
        return ITreeMor(f.dom, g.cod, root, kids)
    if f.dom.is_trivial:
        return marker(f.dom, g.cod)
    root = compose_ord(g.root_map, f.root_map)
    back_g = wedge_map(g.root_map)
    kids = tuple(
        compose(g.children[j], f.children[back_g(j)])
        for j in range(g.cod.root.size + 1)
    )
    return ITreeMor(f.dom, g.cod, root, kids)


# Object duals, memoized per distinct tree: dualizing a morphism dualizes
# its ends at every level of recursion.  Each table holds only its own
# function's images and is not seeded from the other, so a round trip
# still computes both directions and a substituted functor never hits them.
@lru_cache(maxsize=None)
def _vee_tree(x: ITreeObj) -> ITreeObj:
    if x.is_trivial:
        return trivial_obj(ORDINAL)
    return ITreeObj(
        ORDINAL, vee_obj(x.root), tuple(_vee_tree(c) for c in x.children)
    )


@lru_cache(maxsize=None)
def _wedge_tree(x: ITreeObj) -> ITreeObj:
    if x.is_trivial:
        return trivial_obj(INTERVAL)
    return ITreeObj(
        INTERVAL, wedge_obj(x.root), tuple(_wedge_tree(c) for c in x.children)
    )


def vee(x: ITreeObj | ITreeMor):
    """The interval-to-ordinal dualization, contravariant on morphisms."""
    if isinstance(x, ITreeObj):
        if x.flavor != INTERVAL:
            raise ValueError("vee consumes interval-flavor trees")
        return _vee_tree(x)
    if x.flavor != INTERVAL:
        raise ValueError("vee consumes interval-flavor morphisms")
    dom, cod = vee(x.cod), vee(x.dom)
    if x.is_marker:
        return marker(dom, cod)
    return ITreeMor(
        dom, cod, vee_map(x.root_map), tuple(vee(c) for c in x.children)
    )


def wedge(x: ITreeObj | ITreeMor):
    """The ordinal-to-interval dualization, contravariant on morphisms."""
    if isinstance(x, ITreeObj):
        if x.flavor != ORDINAL:
            raise ValueError("wedge consumes ordinal-flavor trees")
        return _wedge_tree(x)
    if x.flavor != ORDINAL:
        raise ValueError("wedge consumes ordinal-flavor morphisms")
    dom, cod = wedge(x.cod), wedge(x.dom)
    if x.is_marker:
        return marker(dom, cod)
    return ITreeMor(
        dom, cod, wedge_map(x.root_map), tuple(wedge(c) for c in x.children)
    )


def enumerate_objects(
    flavor: str, max_height: int, max_root: int
) -> list[ITreeObj]:
    """All valid objects with height and root cardinalities bounded.

    ``max_root`` caps the number of elements of every root in the tree.
    Deterministic order: by height layer, then root size, then children
    lexicographically in enumeration order.
    """
    if flavor not in (INTERVAL, ORDINAL):
        raise ValueError(f"unknown flavor {flavor!r}")
    lo = 1 if flavor == INTERVAL else 0
    nontrivial: list[ITreeObj] = []
    seen: set[ITreeObj] = set()
    for _ in range(max_height):
        layer: list[ITreeObj] = []
        previous = list(nontrivial)
        for root_n in range(lo, max_root):
            root = Ordinal(root_n)
            slots = _child_count(flavor, root)
            interior = [
                i for i in range(slots) if not _is_endpoint(flavor, root, i)
            ]
            for combo in product(previous, repeat=len(interior)):
                kids: list[ITreeObj] = []
                it = iter(combo)
                for i in range(slots):
                    if _is_endpoint(flavor, root, i):
                        kids.append(trivial_obj(flavor))
                    else:
                        kids.append(next(it))
                candidate = ITreeObj(flavor, root, tuple(kids))
                if candidate not in seen:
                    layer.append(candidate)
        nontrivial.extend(layer)
        seen.update(layer)
    return [trivial_obj(flavor)] + nontrivial


def enumerate_morphisms(h: ITreeObj, k: ITreeObj) -> list[ITreeMor]:
    """All morphisms ``h -> k``, deterministically ordered."""
    if h.flavor != k.flavor:
        raise ValueError("hom-sets require a common flavor")
    if h.flavor == INTERVAL:
        if k.is_trivial:
            return [marker(h, k)]
        if h.is_trivial:
            return []
        out = []
        for root in enumerate_interval_maps(h.root, k.root):
            child_options = [
                enumerate_morphisms(h.children[i], k.children[root(i)])
                for i in range(h.root.size)
            ]
            if any(not opts for opts in child_options):
                continue
            for kids in product(*child_options):
                out.append(ITreeMor(h, k, root, tuple(kids)))
        return out
    if h.is_trivial:
        return [marker(h, k)]
    if k.is_trivial:
        return []
    out = []
    for root in enumerate_ord_maps(h.root, k.root):
        back = wedge_map(root)
        child_options = [
            enumerate_morphisms(h.children[back(j)], k.children[j])
            for j in range(k.root.size + 1)
        ]
        if any(not opts for opts in child_options):
            continue
        for kids in product(*child_options):
            out.append(ITreeMor(h, k, root, tuple(kids)))
    return out
