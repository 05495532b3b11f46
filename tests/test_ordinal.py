"""Tests for ordinals, monotone maps, adjoints, and the vee/wedge calculus."""

from __future__ import annotations

import copy
import pickle
from functools import cache, partial
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from theta_disk import itree, labeled, ordinal
from theta_disk.disk import enumerate_disks
from theta_disk.itree import FLAVORS, INTERVAL, ORDINAL, enumerate_objects
from theta_disk.labeled import LEVEL_MAPS, enumerate_cropped_trees
from theta_disk.ordinal import (
    OrdMap,
    Ordinal,
    compose,
    count_interval_maps,
    count_ord_maps,
    enumerate_interval_maps,
    enumerate_ord_maps,
    identity,
    left_adjoint,
    right_adjoint,
    slot_recursion,
    vee_map,
    vee_obj,
    wedge_map,
    wedge_obj,
)

from tests.test_itree import wide_ordinal_tree


def om(m: int, n: int, *images: int) -> OrdMap:
    return OrdMap(Ordinal(m), Ordinal(n), tuple(images))


def is_identity(f: OrdMap) -> bool:
    return f.dom == f.cod and f.images == tuple(f.dom.elements())


@st.composite
def ord_maps(draw, max_n: int = 6, min_dom: int = -1):
    m = draw(st.integers(min_value=min_dom, max_value=max_n))
    n = draw(st.integers(min_value=-1 if m == -1 else 0, max_value=max_n))
    if m == -1:
        return OrdMap(Ordinal(-1), Ordinal(n), ())
    images = tuple(
        sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n),
                    min_size=m + 1,
                    max_size=m + 1,
                )
            )
        )
    )
    return OrdMap(Ordinal(m), Ordinal(n), images)


class TestBasics:
    def test_ordinal_bounds(self):
        assert Ordinal(-1).size == 0
        assert Ordinal(3).size == 4
        with pytest.raises(ValueError):
            Ordinal(-2)

    def test_map_validation(self):
        with pytest.raises(ValueError):
            om(1, 2, 2, 1)  # not monotone
        with pytest.raises(ValueError):
            om(1, 2, 0, 3)  # out of range
        with pytest.raises(ValueError):
            om(1, 2, 0)  # wrong arity

    def test_compose_example(self):
        g = om(1, 2, 0, 1)
        f = om(0, 1, 1)
        assert compose(g, f) == om(0, 2, 1)

    def test_compose_requires_matching_ends(self):
        with pytest.raises(ValueError):
            compose(om(0, 1, 0), om(0, 2, 0))

    def test_identity_and_interval_flags(self):
        assert is_identity(identity(Ordinal(2)))
        assert not is_identity(om(1, 1, 0, 0))
        assert identity(Ordinal(2)).is_interval
        assert not identity(Ordinal(-1)).is_interval
        assert om(1, 1, 0, 1).is_interval
        assert not om(1, 1, 0, 0).is_interval


class TestAdjoints:
    def test_left_adjoint_examples(self):
        assert left_adjoint(om(2, 1, 0, 0, 1)) == om(1, 2, 0, 2)
        assert left_adjoint(om(1, 2, 0, 2)) == om(2, 1, 0, 1, 1)
        assert left_adjoint(om(1, 1, 1, 1)) == om(1, 1, 0, 0)

    def test_right_adjoint_examples(self):
        assert right_adjoint(om(1, 2, 0, 2)) == om(2, 1, 0, 0, 1)
        assert right_adjoint(om(2, 1, 0, 0, 1)) == om(1, 2, 1, 2)

    def test_adjoint_existence_conditions(self):
        with pytest.raises(ValueError):
            left_adjoint(om(1, 2, 0, 1))  # misses the top
        with pytest.raises(ValueError):
            right_adjoint(om(1, 2, 1, 2))  # misses the bottom
        with pytest.raises(ValueError):
            left_adjoint(om(-1, 0))
        assert left_adjoint(om(-1, -1)) == om(-1, -1)
        assert right_adjoint(om(-1, -1)) == om(-1, -1)

    @given(ord_maps())
    def test_left_adjoint_galois(self, g: OrdMap):
        if g.dom.n == -1 or g.images[-1] != g.cod.n:
            return
        la = left_adjoint(g)
        for j in g.cod.elements():
            for i in g.dom.elements():
                assert (la(j) <= i) == (j <= g(i))

    @given(ord_maps())
    def test_right_adjoint_galois(self, g: OrdMap):
        if g.dom.n == -1 or g.images[0] != 0:
            return
        ra = right_adjoint(g)
        for j in g.cod.elements():
            for i in g.dom.elements():
                assert (i <= ra(j)) == (g(i) <= j)

    @given(ord_maps())
    def test_left_adjoint_bottom_fiber(self, g: OrdMap):
        if g.dom.n == -1 or g.images[-1] != g.cod.n:
            return
        la = left_adjoint(g)
        for j in g.cod.elements():
            assert (la(j) == 0) == (j <= g(0))

    @given(ord_maps())
    def test_right_adjoint_top_fiber(self, g: OrdMap):
        if g.dom.n == -1 or g.images[0] != 0:
            return
        ra = right_adjoint(g)
        for j in g.cod.elements():
            assert (ra(j) == g.dom.n) == (j >= g(g.dom.n))


class TestVeeWedge:
    def test_objects(self):
        assert vee_obj(Ordinal(3)) == Ordinal(2)
        assert vee_obj(Ordinal(0)) == Ordinal(-1)
        assert wedge_obj(Ordinal(-1)) == Ordinal(0)
        assert wedge_obj(Ordinal(2)) == Ordinal(3)
        with pytest.raises(ValueError):
            vee_obj(Ordinal(-1))

    def test_vee_map_example(self):
        # endpoint-preserving surjection [2] -> [1] becomes [0] -> [1]
        assert vee_map(om(2, 1, 0, 0, 1)) == om(0, 1, 1)
        with pytest.raises(ValueError):
            vee_map(om(1, 2, 0, 1))  # not an interval map

    def test_wedge_map_example(self):
        assert wedge_map(om(0, 1, 0)) == om(2, 1, 0, 1, 1)
        assert wedge_map(om(-1, -1)) == om(0, 0, 0)

    @given(ord_maps(max_n=5))
    def test_wedge_fiber_matches_interval_formula(self, g: OrdMap):
        m, n = g.dom.n, g.cod.n
        w = wedge_map(g)
        for j in range(m + 2):
            lo = 0 if j == 0 else g.images[j - 1] + 1
            hi = g.images[j] if j <= m else n + 1
            fiber = {i for i in range(w.dom.size) if w.images[i] == j}
            assert fiber == set(range(lo, hi + 1))

    @given(ord_maps(max_n=5))
    def test_wedge_then_vee_is_identity(self, g: OrdMap):
        if g.dom.n == -1:
            return
        assert vee_map(wedge_map(g)) == g

    def test_vee_then_wedge_is_identity(self):
        for m in range(1, 5):
            for n in range(1, 5):
                for f in enumerate_interval_maps(Ordinal(m), Ordinal(n)):
                    assert wedge_map(vee_map(f)) == f


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_ord_maps(Ordinal(1), Ordinal(1))) == 3
        assert len(enumerate_interval_maps(Ordinal(2), Ordinal(2))) == 3
        assert enumerate_ord_maps(Ordinal(-1), Ordinal(2)) == [om(-1, 2)]
        assert enumerate_ord_maps(Ordinal(1), Ordinal(-1)) == []
        assert enumerate_interval_maps(Ordinal(0), Ordinal(0)) == [om(0, 0, 0)]
        assert enumerate_interval_maps(Ordinal(0), Ordinal(2)) == []

    def test_lexicographic_order(self):
        maps = enumerate_ord_maps(Ordinal(1), Ordinal(1))
        assert [f.images for f in maps] == [(0, 0), (0, 1), (1, 1)]
        imaps = enumerate_interval_maps(Ordinal(2), Ordinal(2))
        assert [f.images for f in imaps] == [(0, 0, 2), (0, 1, 2), (0, 2, 2)]

    def test_interval_enumeration_agrees_with_filter(self):
        for m in range(0, 4):
            for n in range(0, 4):
                direct = enumerate_interval_maps(Ordinal(m), Ordinal(n))
                filtered = [
                    f
                    for f in enumerate_ord_maps(Ordinal(m), Ordinal(n))
                    if f.is_interval
                ]
                assert direct == filtered

    def test_hom_count_duality(self):
        # interval maps [m]->[n] correspond to monotone maps [n-1]->[m-1]
        for m in range(1, 6):
            for n in range(1, 6):
                assert len(enumerate_interval_maps(Ordinal(m), Ordinal(n))) == len(
                    enumerate_ord_maps(Ordinal(n - 1), Ordinal(m - 1))
                )

    @pytest.mark.parametrize("m", range(-1, 5))
    @pytest.mark.parametrize("n", range(-1, 5))
    def test_counts_match_enumeration(self, m, n):
        a, b = Ordinal(m), Ordinal(n)
        assert count_ord_maps(a, b) == len(enumerate_ord_maps(a, b))
        if m < 0 or n < 0:
            for fn in (count_interval_maps, enumerate_interval_maps):
                with pytest.raises(ValueError, match="non-empty ordinals"):
                    fn(a, b)
        else:
            assert count_interval_maps(a, b) == len(enumerate_interval_maps(a, b))

    def test_counts_of_large_ordinals(self):
        # C(61, 31) and C(81, 41) monotone maps: far too many to list.
        assert count_ord_maps(Ordinal(30), Ordinal(30)) == 232714176627630544
        assert count_ord_maps(Ordinal(40), Ordinal(40)) == (
            212392290424395860814420
        )
        assert count_interval_maps(Ordinal(40), Ordinal(40)) == count_ord_maps(
            Ordinal(39), Ordinal(39)
        )

    def test_serialization_round_trip(self):
        f = om(2, 3, 0, 1, 3)
        assert OrdMap.from_dict(f.to_dict()) == f
        assert Ordinal.from_dict(Ordinal(2).to_dict()) == Ordinal(2)


class TestInterning:
    def test_equal_values_are_one_object(self):
        assert Ordinal(3) is Ordinal(3) is Ordinal(n=3)
        f = om(2, 3, 0, 1, 3)
        assert OrdMap(Ordinal(2), Ordinal(3), (0, 1, 3)) is f
        assert OrdMap(dom=Ordinal(2), cod=Ordinal(3), images=(0, 1, 3)) is f
        assert OrdMap(Ordinal(2), images=(0, 1, 3), cod=Ordinal(3)) is f
        assert compose(identity(Ordinal(3)), f) is f

    def test_serialization_returns_the_interned_value(self):
        ordinals = [Ordinal(n) for n in range(-1, 4)]
        for a in ordinals:
            assert Ordinal.from_dict(a.to_dict()) is a
            for b in ordinals:
                for f in enumerate_ord_maps(a, b):
                    assert OrdMap.from_dict(f.to_dict()) is f

    def test_pickle_and_copy_return_the_interned_value(self):
        for x in (Ordinal(-1), Ordinal(2), om(-1, 0), om(2, 1, 0, 1, 1)):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(x, protocol)) is x
            assert copy.deepcopy(x) is x
            assert copy.copy(x) is x

    def test_invalid_value_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match=">= -1"):
                Ordinal(-2)
            with pytest.raises(ValueError, match=">= -1"):
                Ordinal(n=-2)
            with pytest.raises(ValueError, match="not monotone"):
                om(1, 2, 2, 1)
            with pytest.raises(ValueError, match="not monotone"):
                OrdMap(dom=Ordinal(1), cod=Ordinal(2), images=(2, 1))

    def test_a_miss_reads_no_fields_once_the_count_is_kept(self, monkeypatch):
        Ordinal(0)  # a first miss keeps Ordinal's field count
        monkeypatch.setattr(ordinal, "fields", None)  # any call now fails
        fresh = Ordinal(98_765_432)
        assert fresh.n == 98_765_432 and Ordinal(98_765_432) is fresh

    def test_vee_of_equal_maps_is_one_object(self):
        f = om(2, 3, 0, 1, 3)
        g = compose(identity(Ordinal(3)), OrdMap(Ordinal(2), Ordinal(3), (0, 1, 3)))
        assert vee_map(f) is vee_map(g)
        assert wedge_map(vee_map(g)) is f


class TestMistypedFields:
    """The intern table is shared by every caller, so a call whose fields
    have the wrong type either finds the stored value they equal or
    raises; it never stores a mistyped value."""

    MISTYPED = {
        "bool": lambda: Ordinal(True),
        "whole-float": lambda: Ordinal(1.0),
        "float": lambda: Ordinal(1.5),
        "str": lambda: Ordinal("1"),
        "bool-keyword": lambda: Ordinal(n=True),
        "bool-image": lambda: OrdMap(Ordinal(1), Ordinal(1), (0, True)),
        "whole-float-image": lambda: OrdMap(Ordinal(1), Ordinal(1), (0.0, 1)),
        "float-image": lambda: OrdMap(Ordinal(1), Ordinal(1), (0, 0.5)),
        "range-images": lambda: OrdMap(Ordinal(1), Ordinal(1), range(2)),
    }

    @pytest.mark.parametrize("call", MISTYPED.values(), ids=MISTYPED)
    def test_call_returns_the_stored_value_or_raises(self, call):
        om(1, 1, 0, 1)
        try:
            value = call()
        except ValueError:
            pass
        else:
            if isinstance(value, Ordinal):
                assert value is Ordinal(1)
            else:
                assert value is om(1, 1, 0, 1)
        assert Ordinal(1).to_dict() == {"kind": "ordinal", "n": 1}
        assert type(Ordinal(1).n) is int
        assert om(1, 1, 0, 1).to_dict()["images"] == [0, 1]
        assert all(type(j) is int for j in om(1, 1, 0, 1).images)

    def test_equal_keys_find_the_stored_value(self):
        one, f = Ordinal(1), om(1, 1, 0, 1)
        assert Ordinal(True) is one
        assert Ordinal(1.0) is one
        assert OrdMap(one, one, (0, True)) is f

    def test_mistyped_first_call_stores_nothing(self):
        n = 7_654_321
        for _ in range(2):
            with pytest.raises(ValueError, match="expected an integer"):
                Ordinal(float(n))
        assert type(Ordinal(n).n) is int
        assert Ordinal(float(n)) is Ordinal(n)
        with pytest.raises(ValueError, match="expected an integer"):
            OrdMap(Ordinal(0), Ordinal(n), (float(n),))
        assert type(OrdMap(Ordinal(0), Ordinal(n), (n,)).images[0]) is int

    def test_images_must_be_a_tuple(self):
        with pytest.raises(ValueError, match="tuple"):
            OrdMap(Ordinal(1), Ordinal(1), range(2))
        with pytest.raises(ValueError, match="OrdMap fields must be hashable"):
            OrdMap(Ordinal(1), Ordinal(1), [0, 1])


def root_map_count(grid):
    """The count that lists every root map: the sum over ``spec.root_maps``
    of the product of the routed child counts.  A reference for the path
    sum of :func:`slot_recursion`, over the same ``grid``."""

    @cache
    def count(a, b) -> int:
        spec, index, value, _ = grid(a, b)
        if not value:
            return 1
        if not index:
            return 0
        roots = [Ordinal(len(end) - 1 - spec.extra_slot) for end in (index, value)]
        return sum(
            prod(map(count, *spec.orient(index, spec.routed(root, value))))
            for root in spec.root_maps(*spec.orient(*roots))
        )

    return count


def tuple_trees(depth: int, width: int) -> list[tuple]:
    """Nested tuples at most ``depth`` deep with at most ``width`` children
    each; ``()`` is a trivial end.  No floor on roots and no rule on which
    children are trivial, unlike the tree models."""
    if depth == 0:
        return [()]
    below = tuple_trees(depth - 1, width)
    return [()] + [
        kids for n in range(1, width + 1) for kids in product(below, repeat=n)
    ]


def _tuple_grid(flavor: str, a: tuple, b: tuple) -> tuple:
    spec = FLAVORS[flavor]
    index, value = spec.orient(a, b)
    return spec, index, value, lambda root: spec.orient(index, spec.routed(root, value))


def tree_family(name: str) -> tuple:
    """``(pool, grid, enumerate, count)`` of a tree model's hom-sets: the
    inductive or cropped trees of a flavor, or the disks."""
    flavor = ORDINAL if name.endswith(ORDINAL) else INTERVAL
    max_root = 3 if flavor == ORDINAL else 4
    if name.startswith("itree"):
        pool = enumerate_objects(flavor, 3, max_root)
        return pool, itree._grid, itree.enumerate_morphisms, itree.count_morphisms
    if name.startswith("cropped"):
        pool = [t.tree for t in enumerate_cropped_trees(flavor, 3, max_root)]
    else:
        pool = [d.tree for d in enumerate_disks(2, 5)]
    return pool, partial(labeled._grid, flavor), *LEVEL_MAPS[flavor]


class TestSlotRecursion:
    @pytest.mark.parametrize(
        "name",
        [
            "itree-interval",
            "itree-ordinal",
            "cropped-interval",
            "cropped-ordinal",
            "disk",
        ],
    )
    def test_path_sum_is_the_root_map_sum_and_the_listed_length(self, name):
        pool, grid, enumerate_homs, count = tree_family(name)
        reference = root_map_count(grid)
        for a in pool:
            for b in pool:
                assert count(a, b) == reference(a, b) == len(enumerate_homs(a, b))

    @pytest.mark.parametrize("flavor", [INTERVAL, ORDINAL])
    def test_roots_of_one_slot_and_trivial_interior_children(self, flavor):
        # Shapes the tree models refuse: the recursion does not rely on
        # their rules.
        grid = partial(_tuple_grid, flavor)
        enumerate_homs, count = slot_recursion(grid, lambda *args: args[2:])
        reference = root_map_count(grid)
        pool = tuple_trees(2, 3)
        assert len(pool) == 85
        for a in pool:
            for b in pool:
                assert count(a, b) == reference(a, b) == len(enumerate_homs(a, b))
        # One slot to two: no interval map [0] -> [1]; one map [-1] -> [0].
        assert count(((),), ((), ())) == (flavor == ORDINAL)
        assert count(((),), ((),)) == 1

    def test_the_count_lists_no_root_map(self, monkeypatch):
        # C(81, 40) root maps, counted on a 42-by-42 grid of child counts.
        monkeypatch.setattr(itree, "enumerate_ord_maps", None)
        wide = wide_ordinal_tree(40)
        _, count = slot_recursion(itree._grid, itree.ITreeMor)
        assert count(wide, wide) == comb(81, 40)

    def test_each_inductive_shape_is_routed_once(self, monkeypatch):
        # Listing routes a root map's children through ``_child_ends``, the
        # shape table each morphism's constructor reads: one routing a shape.
        calls = []

        def routed(spec, root_map, value_children, real=itree.Flavor.routed):
            calls.append(root_map)
            return real(spec, root_map, value_children)

        monkeypatch.setattr(itree.Flavor, "routed", routed)
        itree._child_ends.cache_clear()
        enumerate_homs, _ = slot_recursion(itree._grid, itree.ITreeMor)
        pool = enumerate_objects(ORDINAL, 2, 4)
        listed = sum(len(enumerate_homs(a, b)) for a in pool for b in pool)
        # Markers fill the table too, unrouted.
        assert listed >= itree._child_ends.cache_info().misses >= len(calls) > 100
