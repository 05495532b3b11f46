"""Disks: finite-degree trees whose fibers carry interval structure.

A disk is stored canonically: within every fiber the vertices are numbered
by their interval order, and the fibers of a level are concatenated in the
order of their parent vertices, so the parent maps are monotone and the
endpoint sections are simply the first and last element of each fiber.
Structural equality of the canonical form then decides disk isomorphism.
Fibers are read through ``forest.fibers`` and their sizes through
``forest.fiber_sizes``, and a disk is built from the disks over its
root's children by grafting their trees onto a new root
(``forest.graft``).

A disk is the cropped interval tree on its tree (see
:mod:`theta_disk.labeled`), whose labels are its fiber sizes, so its
validity conditions are the one cropped rule, ``labeled.validate_cropped``:
a single root, monotone parent maps, a root fiber of at least two
elements in positive degree, a non-empty fiber at every vertex below the
degree, and on each level above the root the vertices with singleton
fibers exactly the fiber endpoints from the previous level.  The
constructor applies it and raises the first condition that fails, so an
invalid disk is never built.

So a disk morphism is a tree map that sends each fiber monotonely onto
the fiber over its image, ends to ends, checked by ``forest.fiber_slots``
as for cropped trees, and both keep the slots it returns; the hom-sets
are listed and counted by the interval case of ``labeled.LEVEL_MAPS``
(a path sum counts); ``phi_obj``/``phi_mor``, the readings as
inductive interval trees, are the interval case of
``labeled.xi_obj``/``xi_mor``; and ``phi_inverse_obj`` keeps the tree of
``labeled.xi_inverse``.  The readings and the hom tables are memoized
for the life of the process; disk morphisms are built afresh on every
call, and only those returned are validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from theta_disk.forest import (
    LevelTree,
    TreeMap,
    compose_tree_maps,
    fiber_sizes,
    fiber_slots,
    graft,
    identity_tree_map,
)
from theta_disk.itree import INTERVAL, ITreeMor, ITreeObj
from theta_disk.labeled import LEVEL_MAPS, validate_cropped, xi_inverse, xi_mor, xi_obj
from theta_disk.ordinal import json_field


@dataclass(frozen=True)
class Disk:
    """A disk in canonical form: a tree that meets the cropped rule."""

    tree: LevelTree

    def __post_init__(self) -> None:
        validate_cropped(self.tree)

    @property
    def degree(self) -> int:
        return self.tree.depth

    @property
    def is_trivial(self) -> bool:
        return self.degree == 0

    @property
    def fiber_sizes(self) -> tuple[tuple[int, ...], ...]:
        """``[n][i]``: the size of the fiber over vertex ``(n, i)``, for
        every level below the degree."""
        return tuple(tuple(fiber_sizes(self.tree, n)) for n in range(self.degree))

    def to_dict(self) -> dict:
        return {
            "kind": "disk",
            "levels": list(self.tree.levels),
            "parents": [list(p) for p in self.tree.parents],
            "fiber_sizes": [list(row) for row in self.fiber_sizes],
        }

    @staticmethod
    def from_dict(data: dict) -> "Disk":
        d = Disk(LevelTree.from_dict(data, "disk"))
        if "fiber_sizes" in data:
            declared = json_field(data, "disk", "fiber_sizes", depth=2)
            if declared != d.fiber_sizes:
                raise ValueError("declared fiber sizes disagree with parents")
        return d


def trivial_disk() -> Disk:
    return Disk(LevelTree((1,), ()))


@dataclass(frozen=True)
class DiskMor:
    """A disk morphism: a tree map, monotone and endpoint-preserving on
    every fiber.  ``slots`` keeps where each fiber goes, as the check
    returns it; it is neither compared nor shown."""

    dom: Disk
    cod: Disk
    tree_map: TreeMap
    slots: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        f = self.tree_map
        if f.dom != self.dom.tree or f.cod != self.cod.tree:
            raise ValueError("tree map does not run between the given disks")
        object.__setattr__(self, "slots", fiber_slots(f))


def identity_disk_mor(d: Disk) -> DiskMor:
    return DiskMor(d, d, identity_tree_map(d.tree))


def compose_disk_mors(g: DiskMor, f: DiskMor) -> DiskMor:
    if f.cod != g.dom:
        raise ValueError("disk morphisms do not compose")
    return DiskMor(f.dom, g.cod, compose_tree_maps(g.tree_map, f.tree_map))


def phi_obj(d: Disk) -> ITreeObj:
    """Read a disk as an inductive interval tree."""
    return xi_obj(INTERVAL, d.tree)


def phi_mor(f: DiskMor) -> ITreeMor:
    """Read a disk morphism as an inductive interval tree morphism."""
    return xi_mor(INTERVAL, f)


def _assemble(children: list[Disk]) -> Disk:
    """The disk with the given root-fiber subtree disks, in order."""
    return Disk(graft([c.tree for c in children]))


def phi_inverse_obj(h: ITreeObj) -> Disk:
    """The canonical disk whose interval-tree reading is ``h``."""
    if h.flavor != INTERVAL:
        raise ValueError("disks correspond to interval-flavor trees")
    return Disk(xi_inverse(h).tree)


def enumerate_disks(max_degree: int, max_fiber: int) -> list[Disk]:
    """All valid disks with bounded degree and fiber sizes."""
    return [trivial_disk()] + _nontrivial_disks(max_degree, max_fiber)


def _nontrivial_disks(max_degree: int, max_fiber: int) -> list[Disk]:
    if max_degree <= 0:
        return []
    interior_choices = _nontrivial_disks(max_degree - 1, max_fiber)
    out = []
    for k in range(2, max_fiber + 1):
        for combo in product(interior_choices, repeat=k - 2):
            out.append(
                _assemble([trivial_disk(), *combo, trivial_disk()])
            )
    return out


def enumerate_disk_morphisms(a: Disk, b: Disk) -> list[DiskMor]:
    """All disk morphisms ``a -> b``, deterministically ordered, new each call."""
    maps = LEVEL_MAPS[INTERVAL][0](a.tree, b.tree)
    return [DiskMor(a, b, TreeMap(a.tree, b.tree, rows)) for rows in maps]


def count_disk_morphisms(a: Disk, b: Disk) -> int:
    """``len(enumerate_disk_morphisms(a, b))``, counted without listing."""
    return LEVEL_MAPS[INTERVAL][1](a.tree, b.tree)
