"""Tests for disks, their morphisms, and the interval-tree equivalence."""

from __future__ import annotations

import hashlib
import json
from itertools import product

import pytest

from theta_disk import labeled
from theta_disk.disk import (
    Disk,
    DiskMor,
    compose_disk_mors,
    count_disk_morphisms,
    enumerate_disk_morphisms,
    enumerate_disks,
    identity_disk_mor,
    phi_inverse_obj,
    phi_mor,
    phi_obj,
    trivial_disk,
)
from theta_disk.forest import (
    LevelTree,
    TreeMap,
    fiber_slots,
    fibers,
    glue_level_maps,
    make_level_tree,
    restrict,
)
from theta_disk.itree import (
    INTERVAL,
    ITreeMor,
    count_morphisms,
    enumerate_morphisms,
    enumerate_objects,
    marker,
    trivial_obj,
)
from theta_disk.itree import compose as compose_itree
from theta_disk.labeled import enumerate_labeled_mors, xi_inverse
from theta_disk.ordinal import OrdMap, Ordinal

from tests.test_forest import EXAMPLE_LEVELS, EXAMPLE_PARENTS, restrict_map
from tests.test_labeled import accepts, brute_force_tree_maps


def example_disk() -> Disk:
    return Disk(LevelTree(EXAMPLE_LEVELS, EXAMPLE_PARENTS))


def two_disk() -> Disk:
    """The disk with a two-element root fiber and nothing deeper."""
    return Disk(LevelTree((1, 2), ((0, 0),)))


def tall_disk() -> Disk:
    """Root fiber of three, a two-element fiber over its middle element."""
    return Disk(LevelTree((1, 3, 4), ((0, 0, 0), (0, 1, 1, 2))))


def brute_force_disk_morphisms(a: Disk, b: Disk) -> list[DiskMor]:
    """Oracle: try every level-wise function tuple and keep the valid ones."""
    span = max(a.tree.depth, b.tree.depth) + 1
    choices = [
        list(
            product(range(b.tree.level_size(n)), repeat=a.tree.level_size(n))
        )
        for n in range(span)
    ]
    out = []
    for maps in product(*choices):
        try:
            out.append(DiskMor(a, b, TreeMap(a.tree, b.tree, tuple(maps))))
        except ValueError:
            continue
    return out


def restrict_disk(d: Disk, i: int) -> Disk:
    """The disk over the ``i``-th element of the root fiber."""
    return Disk(restrict(d.tree, (1, i)))


def restrict_disk_mor(f: DiskMor, i: int) -> DiskMor:
    """Oracle: the induced morphism between the disks over root-fiber
    elements, built and validated whole."""
    j = f.tree_map.at_level(1)[i]
    return DiskMor(
        restrict_disk(f.dom, i),
        restrict_disk(f.cod, j),
        restrict_map(f.tree_map, (1, i)),
    )


def phi_mor_by_restriction(f: DiskMor) -> ITreeMor:
    """Oracle: ``phi_mor`` recursing through whole restricted morphisms."""
    dom_t, cod_t = phi_obj(f.dom), phi_obj(f.cod)
    if f.cod.is_trivial:
        return marker(dom_t, cod_t)
    k_dom, k_cod = f.dom.tree.levels[1], f.cod.tree.levels[1]
    root = OrdMap(
        Ordinal(k_dom - 1), Ordinal(k_cod - 1), f.tree_map.at_level(1)
    )
    children = tuple(
        phi_mor_by_restriction(restrict_disk_mor(f, i)) for i in range(k_dom)
    )
    return ITreeMor(dom_t, cod_t, root, children)


class TestDiskValidity:
    def test_trivial_is_valid(self):
        assert trivial_disk().is_trivial

    def test_example_tree_is_a_valid_disk(self):
        assert example_disk().degree == 4

    def test_small_disks_valid(self):
        assert two_disk().degree == 1
        assert tall_disk().degree == 2

    def test_interior_singleton_fiber_rejected(self):
        with pytest.raises(ValueError, match="invalid disk: level 1"):
            Disk(LevelTree((1, 3), ((0, 0, 0),)))
        with pytest.raises(ValueError, match="invalid disk: level 1"):
            Disk(LevelTree((1, 3, 4), ((0, 0, 0), (0, 1, 2, 2))))

    def test_singleton_root_fiber_rejected_for_positive_degree(self):
        with pytest.raises(ValueError, match="root fiber"):
            Disk(LevelTree((1, 1, 2), ((0,), (0, 0))))

    def test_wide_top_fiber_rejected(self):
        # Level 1 keeps the rules; the three-element top fiber over its
        # middle vertex has an interior vertex with a singleton fiber.
        with pytest.raises(ValueError, match="level 2"):
            Disk(LevelTree((1, 3, 5), ((0, 0, 0), (0, 1, 1, 1, 2))))

    def test_non_monotone_parents_rejected_structurally(self):
        with pytest.raises(ValueError, match="monotone"):
            Disk(LevelTree((1, 2, 3), ((0, 0), (1, 0, 1))))

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError, match="tree"):
            Disk(LevelTree((2,), ()))


class TestFibers:
    def test_root_fiber(self):
        assert list(fibers(example_disk().tree, 0)[0]) == [0, 1, 2]

    def test_interior_fibers(self):
        tree = example_disk().tree
        assert list(fibers(tree, 1)[0]) == [0]
        assert list(fibers(tree, 1)[1]) == [1, 2, 3, 4]
        assert list(fibers(tree, 1)[2]) == [5]
        assert list(fibers(tree, 2)[3]) == [4, 5, 6]

    def test_continuation_fibers_are_singletons(self):
        tree = example_disk().tree
        assert list(fibers(tree, 4)[7]) == [7]

    def test_empty_fiber(self):
        tree = LevelTree((1, 2, 2), ((0, 0), (0, 0)))
        assert fibers(tree, 1)[1] == ()
        with pytest.raises(ValueError, match="non-empty fiber"):
            Disk(tree)


class TestSerialization:
    def test_round_trip(self):
        d = example_disk()
        assert Disk.from_dict(d.to_dict()) == d

    def test_fiber_sizes_reported(self):
        data = tall_disk().to_dict()
        assert data["fiber_sizes"] == [[3], [1, 2, 1]]

    def test_fiber_size_mismatch_rejected(self):
        data = tall_disk().to_dict()
        data["fiber_sizes"] = [[3], [1, 1, 2]]
        with pytest.raises(ValueError, match="fiber sizes"):
            Disk.from_dict(data)


class TestPhi:
    def test_trivial(self):
        assert phi_obj(trivial_disk()) == trivial_obj(INTERVAL)

    def test_two_disk(self):
        h = phi_obj(two_disk())
        assert h.root == Ordinal(1)
        assert all(c.is_trivial for c in h.children)

    def test_example_disk_shape(self):
        h = phi_obj(example_disk())
        assert h.root == Ordinal(2)
        assert h.children[0].is_trivial
        assert h.children[2].is_trivial
        middle = h.children[1]
        assert middle.root == Ordinal(3)
        assert [c.is_trivial for c in middle.children] == [
            True,
            False,
            False,
            True,
        ]

    def test_validates_input(self):
        with pytest.raises(ValueError, match="invalid disk"):
            phi_obj(Disk(LevelTree((1, 3), ((0, 0, 0),))))

    def test_round_trip_from_disks(self):
        for d in enumerate_disks(3, 3):
            assert phi_inverse_obj(phi_obj(d)) == d

    def test_round_trip_from_trees(self):
        for h in enumerate_objects(INTERVAL, 3, 3):
            assert phi_obj(phi_inverse_obj(h)) == h

    def test_images_are_valid_trees(self):
        # A tree that breaks the rules cannot be built.
        for d in enumerate_disks(3, 4):
            phi_obj(d)

    def test_preimages_are_valid_disks(self):
        # A disk that breaks the rules cannot be built.
        for h in enumerate_objects(INTERVAL, 3, 4):
            phi_inverse_obj(h)


class TestEnumeration:
    def test_degree_zero(self):
        assert enumerate_disks(0, 5) == [trivial_disk()]

    def test_degree_two_fiber_three(self):
        disks = enumerate_disks(2, 3)
        assert len(disks) == 3
        assert disks == [trivial_disk(), two_disk(), tall_disk()]

    def test_counts_match_tree_enumeration(self):
        for deg, fib in [(2, 4), (3, 3), (1, 5)]:
            n_disks = len(enumerate_disks(deg, fib))
            n_trees = len(enumerate_objects(INTERVAL, deg, fib))
            assert n_disks == n_trees

    def test_all_enumerated_disks_valid(self):
        # A disk that breaks the rules cannot be built.
        enumerate_disks(3, 4)


class TestDiskMorphisms:
    def test_identity_valid(self):
        for d in [trivial_disk(), two_disk(), tall_disk(), example_disk()]:
            identity_disk_mor(d)

    def test_non_monotone_fiber_rejected(self):
        d = tall_disk()
        maps = ((0,), (0, 1, 2), (0, 2, 1, 3))
        with pytest.raises(ValueError, match="monotone"):
            DiskMor(d, d, TreeMap(d.tree, d.tree, maps))

    def test_endpoint_violation_rejected(self):
        a, b = two_disk(), tall_disk()
        maps = ((0,), (0, 1), (0, 1))
        with pytest.raises(ValueError, match="endpoints"):
            DiskMor(a, b, TreeMap(a.tree, b.tree, maps))

    def test_collapse_to_trivial(self):
        mors = enumerate_disk_morphisms(example_disk(), trivial_disk())
        assert len(mors) == 1

    def test_no_map_out_of_trivial(self):
        assert enumerate_disk_morphisms(trivial_disk(), two_disk()) == []

    def test_enumeration_matches_brute_force(self):
        shapes = [trivial_disk(), two_disk(), tall_disk()]
        for a in shapes:
            for b in shapes:
                fast = enumerate_disk_morphisms(a, b)
                slow = brute_force_disk_morphisms(a, b)
                assert {m.tree_map.level_maps for m in fast} == {
                    m.tree_map.level_maps for m in slow
                }
                assert len(fast) == len(slow)

    @pytest.mark.parametrize(
        "degree, fiber, count, digest",
        [
            (
                2,
                5,
                126,
                "db96c2e2d839734c9ca5cae9145b1d80b7a49b69a8d97ceb480824a65288cff9",
            ),
            (
                3,
                4,
                5463,
                "97d799b6b9c67d5579ebb34d47129a57155d75998478decc087497159ce0831d",
            ),
        ],
        ids=["degree2-fiber5", "degree3-fiber4"],
    )
    def test_level_maps_are_pinned(self, degree, fiber, count, digest):
        disks = enumerate_disks(degree, fiber)
        rows = [
            f.tree_map.level_maps
            for a in disks
            for b in disks
            for f in enumerate_disk_morphisms(a, b)
        ]
        assert len(rows) == count
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest

    def test_frozen_hom_counts(self):
        assert len(enumerate_disk_morphisms(two_disk(), tall_disk())) == 1
        assert len(enumerate_disk_morphisms(tall_disk(), two_disk())) == 2
        assert len(enumerate_disk_morphisms(tall_disk(), tall_disk())) == 3

    def test_returned_morphisms_are_new_and_validated(self, monkeypatch):
        a = b = tall_disk()
        first = enumerate_disk_morphisms(a, b)
        second = enumerate_disk_morphisms(a, b)
        assert first == second and first is not second
        assert all(f is not g for f, g in zip(first, second))

        def corrupt_glue(*args):
            """``glue_level_maps`` with the root sent off the tree."""
            return ((1,), *glue_level_maps(*args)[1:])

        # The child tables of ``a -> b`` are filled above, so only the
        # returned morphisms are glued by the corrupt function.  Disk level
        # maps are glued by the level-tree recursion in ``labeled``.
        monkeypatch.setattr(labeled, "glue_level_maps", corrupt_glue)
        with pytest.raises(ValueError, match="out of range"):
            enumerate_disk_morphisms(a, b)

    def test_fiber_slots_are_kept_but_neither_compared_nor_shown(self):
        d = example_disk()
        f = identity_disk_mor(d)
        assert f.slots == fiber_slots(f.tree_map)
        assert "slots" not in repr(f)
        g = DiskMor(d, d, f.tree_map)
        object.__setattr__(g, "slots", ())
        assert g == f and hash(g) == hash(f)

    def test_composition_closure(self):
        shapes = [two_disk(), tall_disk()]
        for a in shapes:
            for b in shapes:
                for c in shapes:
                    for f in enumerate_disk_morphisms(a, b):
                        for g in enumerate_disk_morphisms(b, c):
                            h = compose_disk_mors(g, f)
                            assert h.dom == a and h.cod == c


class TestPhiOnMorphisms:
    def test_hom_bijection(self):
        disks = enumerate_disks(2, 3)
        for a in disks:
            for b in disks:
                disk_homs = enumerate_disk_morphisms(a, b)
                tree_homs = enumerate_morphisms(phi_obj(a), phi_obj(b))
                images = [phi_mor(f) for f in disk_homs]
                assert len(set(map(repr, images))) == len(images)
                assert {repr(m) for m in images} == {
                    repr(m) for m in tree_homs
                }

    @pytest.mark.parametrize("degree, fiber", [(3, 3), (2, 5)])
    def test_hom_counts_are_interval_tree_hom_counts(self, degree, fiber):
        # hom-count counts disk hom-sets natively, without listing them.
        disks = enumerate_disks(degree, fiber)
        for a in disks:
            for b in disks:
                listed = len(enumerate_disk_morphisms(a, b))
                assert count_morphisms(phi_obj(a), phi_obj(b)) == listed
                assert count_disk_morphisms(a, b) == listed

    def test_functorial(self):
        a, b = tall_disk(), two_disk()
        for f in enumerate_disk_morphisms(a, b):
            for g in enumerate_disk_morphisms(b, a):
                lhs = phi_mor(compose_disk_mors(g, f))
                rhs = compose_itree(phi_mor(g), phi_mor(f))
                assert lhs == rhs

    def test_identity_to_identity(self):
        from theta_disk.itree import identity as itree_identity

        for d in enumerate_disks(2, 3):
            assert phi_mor(identity_disk_mor(d)) == itree_identity(
                phi_obj(d)
            )

    @pytest.mark.parametrize("degree, fiber", [(2, 5), (3, 3)])
    def test_read_off_the_morphism_as_through_restrictions(
        self, degree, fiber
    ):
        disks = enumerate_disks(degree, fiber)
        for a in disks:
            for b in disks:
                for f in enumerate_disk_morphisms(a, b):
                    assert phi_mor(f) == phi_mor_by_restriction(f)

    def test_no_morphism_out_of_trivial_disk(self):
        f = identity_disk_mor(trivial_disk())
        collapse = enumerate_disk_morphisms(two_disk(), trivial_disk())[0]
        assert phi_mor(collapse).root_map is None
        assert phi_mor(f).root_map is None


class TestCroppedIntervalTrees:
    def test_disk_morphisms_are_cropped_interval_tree_maps(self):
        # A disk's tree is the tree of its cropped interval tree, and both
        # hom-sets list the same tree maps in the same order.
        disks = enumerate_disks(3, 4)
        assert len(disks) == 14
        cropped = [xi_inverse(phi_obj(d)) for d in disks]
        assert all(t.tree is d.tree for d, t in zip(disks, cropped))
        for a, s in zip(disks, cropped):
            for b, t in zip(disks, cropped):
                assert [f.tree_map for f in enumerate_disk_morphisms(a, b)] == [
                    m.tree_map for m in enumerate_labeled_mors(s, t)
                ]


    @pytest.mark.parametrize(
        "degree, fiber, tried, accepted", [(3, 3, 4520, 26), (2, 4, 4728, 35)]
    )
    def test_disk_and_cropped_tree_morphisms_accept_the_same_tree_maps(
        self, degree, fiber, tried, accepted
    ):
        disks = enumerate_disks(degree, fiber)
        cropped = [xi_inverse(phi_obj(d)) for d in disks]
        maps = kept = 0
        for a, s in zip(disks, cropped):
            for b, t in zip(disks, cropped):
                for f in brute_force_tree_maps(a.tree, b.tree):
                    try:
                        DiskMor(a, b, f)
                    except ValueError:
                        assert not accepts(s, t, f)
                    else:
                        assert accepts(s, t, f)
                        kept += 1
                    maps += 1
        assert (maps, kept) == (tried, accepted)


class TestRestriction:
    def test_example_middle_subtree(self):
        sub = restrict_disk(example_disk(), 1)
        assert sub.tree == make_level_tree(
            (1, 4, 7, 8),
            (
                (0, 0, 0, 0),
                (0, 1, 1, 2, 2, 2, 3),
                (0, 1, 2, 3, 4, 4, 5, 6),
            ),
        )

    def test_endpoint_subtrees_trivial(self):
        d = example_disk()
        assert restrict_disk(d, 0) == trivial_disk()
        assert restrict_disk(d, 2) == trivial_disk()
