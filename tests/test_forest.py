"""Tests for level trees: degree, restriction, grafting, maps."""

from __future__ import annotations

import copy
import pickle
from itertools import product

import pytest

from theta_disk.disk import enumerate_disks
from theta_disk.forest import (
    EMPTY_FOREST,
    POINT_TREE,
    LevelTree,
    TreeMap,
    Vertex,
    compose_tree_maps,
    fiber_sizes,
    fiber_slots,
    fibers,
    glue_level_maps,
    graft,
    identity_tree_map,
    make_level_tree,
    restrict,
)
from theta_disk import labeled
from theta_disk.itree import INTERVAL, ORDINAL
from theta_disk.labeled import LEVEL_MAPS, enumerate_cropped_trees
from theta_disk.ordinal import Ordinal

# The running example tree: level sizes 1,3,6,9,10 with one binary branch
# at each of the first four levels placed per its fiber structure.
EXAMPLE_LEVELS = (1, 3, 6, 9, 10)
EXAMPLE_PARENTS = (
    (0, 0, 0),
    (0, 1, 1, 1, 1, 2),
    (0, 1, 2, 2, 3, 3, 3, 4, 5),
    (0, 1, 2, 3, 4, 5, 5, 6, 7, 8),
)


def example_tree() -> LevelTree:
    return LevelTree(EXAMPLE_LEVELS, EXAMPLE_PARENTS)


def oracle_rows(a: LevelTree, x) -> list[list[int]]:
    """Subtree rows recomputed from the parent maps alone."""
    n, i = x
    if n >= a.depth:
        return [[i]]
    rows = [[i]]
    for lvl in range(n + 1, a.depth + 1):
        rows.append([j for j, p in enumerate(a.parents[lvl - 1]) if p in rows[-1]])
    return rows


def oracle_restrict(a: LevelTree, x) -> tuple[tuple, tuple]:
    """``(levels, parents)`` of the subtree over ``x``, truncated by hand."""
    rows = oracle_rows(a, x)
    levels = [len(row) for row in rows]
    parents = [
        tuple(rows[k - 1].index(a.parents[x[0] + k - 1][j]) for j in rows[k])
        for k in range(1, len(rows))
    ]
    while parents and sorted(parents[-1]) == list(range(levels[-2])):
        levels.pop()
        parents.pop()
    return tuple(levels), tuple(parents)


def restrict_at(a: LevelTree, x: Vertex) -> LevelTree:
    """Oracle: the subtree over any vertex ``x``, re-truncated at its own
    degree."""
    return make_level_tree(*oracle_restrict(a, x))


def restrict_map(f: TreeMap, x: Vertex) -> TreeMap:
    """Oracle: the induced map between the subtree over ``x`` and the one
    over ``f(x)``, built and validated whole."""
    n = x[0]
    y = f(x)
    sub_dom = restrict_at(f.dom, x)
    sub_cod = restrict_at(f.cod, y)
    keep_dom = oracle_rows(f.dom, x)
    keep_cod = oracle_rows(f.cod, y)
    span = max(sub_dom.depth, sub_cod.depth) + 1
    maps = []
    for k in range(span):
        old_dom = keep_dom[min(k, len(keep_dom) - 1)]
        old_cod = keep_cod[min(k, len(keep_cod) - 1)]
        cod_pos = {old: new for new, old in enumerate(old_cod)}
        maps.append(
            tuple(cod_pos[f.at_level(n + k)[old]] for old in old_dom)
        )
    return TreeMap(sub_dom, sub_cod, tuple(maps))


class TestLevelTree:
    def test_validation(self):
        with pytest.raises(ValueError):
            LevelTree((1, 2), ())  # missing parent map
        with pytest.raises(ValueError):
            LevelTree((1, 2), ((0, 1),))  # parent out of range
        with pytest.raises(ValueError):
            LevelTree((1, 1), ((0,),))  # top step bijective: not truncated

    def test_empty_rows_and_out_of_range_rows(self):
        bare = LevelTree((1, 0), ((),))
        assert (bare.depth, bare.level_size(3)) == (1, 0)
        assert LevelTree((0,), ()) is EMPTY_FOREST
        for parents in [((0, 1),), ((0, -1),), ((2, 0),)]:
            with pytest.raises(ValueError, match="step 0 has values out of range"):
                LevelTree((1, 2), parents)
        with pytest.raises(ValueError, match="step 1 has values out of range"):
            LevelTree((1, 2, 2), ((0, 0), (0, 2)))
        with pytest.raises(ValueError, match="step 0 has values out of range"):
            LevelTree((0, 1), ((0,),))
        with pytest.raises(ValueError, match="level sizes must be non-negative"):
            LevelTree((1, -1), ((),))

    def test_make_level_tree_truncates(self):
        assert make_level_tree((1, 1, 2), ((0,), (0, 0))) == LevelTree(
            (1, 1, 2), ((0,), (0, 0))
        )
        assert make_level_tree((1, 2, 2), ((0, 0), (0, 1))) == LevelTree(
            (1, 2), ((0, 0),)
        )
        assert make_level_tree((1, 1), ((0,),)) == POINT_TREE

    def test_degree(self):
        assert POINT_TREE.depth == 0
        assert EMPTY_FOREST.depth == 0
        assert LevelTree((1, 2), ((0, 0),)).depth == 1
        assert example_tree().depth == 4

    def test_children_and_continuation(self):
        t = LevelTree((1, 2), ((0, 0),))
        assert fibers(t, 0)[0] == (0, 1)
        assert fibers(t, 1)[1] == (1,)  # implicit singleton fiber
        # the parent of (2, 1) is the one vertex whose fiber holds it
        assert [x for x, fib in enumerate(fibers(t, 1)) if 1 in fib] == [1]
        assert t.level_size(5) == 2

    def test_serialization_round_trip(self):
        t = example_tree()
        assert LevelTree.from_dict(t.to_dict()) == t


class TestInterning:
    def test_every_way_of_building_a_tree_gives_one_object(self):
        t = example_tree()
        assert LevelTree(EXAMPLE_LEVELS, EXAMPLE_PARENTS) is t
        assert LevelTree(parents=EXAMPLE_PARENTS, levels=EXAMPLE_LEVELS) is t
        assert make_level_tree(EXAMPLE_LEVELS, EXAMPLE_PARENTS) is t
        assert LevelTree.from_dict(t.to_dict()) is t
        assert make_level_tree((1, 1), ((0,),)) is POINT_TREE
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(t, protocol)) is t
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t

    def test_invalid_tree_raises_every_time_and_is_not_stored(self):
        key = ((1, 2), ((0, 1),))
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                LevelTree(*key)
            assert key not in LevelTree._table

    def test_fiber_table_is_one_shared_tuple(self):
        t = example_tree()
        table = fibers(t, 1)
        assert table == ((0,), (1, 2, 3, 4), (5,))
        assert all(isinstance(fib, tuple) for fib in table)
        assert fibers(t, 1) is table
        assert fibers(t, 7) is fibers(t, 7)


# Cropped trees of both flavors, 257 distinct level trees among them.
CROPPED_POOLS = ((INTERVAL, 4, 4), (ORDINAL, 3, 4), (INTERVAL, 5, 3), (ORDINAL, 4, 3))


def cropped_pool() -> list[LevelTree]:
    """The distinct level trees of the cropped trees of ``CROPPED_POOLS``."""
    trees = (t.tree for pool in CROPPED_POOLS for t in enumerate_cropped_trees(*pool))
    return list(dict.fromkeys(trees))


def assert_restrict_is_the_oracle(a: LevelTree) -> None:
    """``restrict(a)`` is the oracle's subtree over each level-1 vertex."""
    kids = restrict(a)
    assert isinstance(kids, tuple)
    assert len(kids) == (a.levels[1] if a.depth else 0)
    for j, sub in enumerate(kids):
        assert (sub.levels, sub.parents) == oracle_restrict(a, (1, j))


# Fibers stored out of parent order, one of them empty.
UNORDERED = LevelTree((1, 2, 3), ((0, 0), (1, 0, 0)))
CHILDLESS = LevelTree((1, 3, 2), ((0, 0, 0), (2, 1)))
BARE = LevelTree((1, 0), ((),))


def shared_table_trees() -> list[LevelTree]:
    """Disks, the example tree, and trees and forests of other shapes."""
    return [d.tree for d in enumerate_disks(3, 3)] + [
        example_tree(),
        UNORDERED,
        CHILDLESS,
        LevelTree((2, 3), ((0, 1, 1),)),
        BARE,
        EMPTY_FOREST,
    ]


class TestSharedTables:
    def test_fiber_sizes_are_the_lengths_of_the_fibers(self):
        for a in shared_table_trees():
            for n in range(a.depth + 3):
                assert fiber_sizes(a, n) == list(map(len, fibers(a, n)))

    def test_restrictions_match_a_fresh_computation(self):
        for a in shared_table_trees():
            assert_restrict_is_the_oracle(a)
            assert restrict(a) is restrict(a)
        # Each vertex keeps its index order within the tree over its
        # level-1 ancestor, and a childless level-1 vertex has the bare
        # point over it.
        fan = LevelTree((1, 2), ((0, 0),))
        assert restrict(UNORDERED) == (fan, POINT_TREE)
        assert restrict(CHILDLESS) == (BARE, POINT_TREE, POINT_TREE)


class TestRestrict:
    def test_restrict_example_subtree(self):
        sub = restrict(example_tree())[1]
        assert sub.levels == (1, 4, 7, 8)
        assert sub.depth == 3

    def test_restrict_at_leaf_gives_chain(self):
        # The vertices of level 1 of a fan are leaves, the ends of the
        # example tree's root fiber too; the tree over a leaf is a point.
        fan = LevelTree((1, 3), ((0, 0, 0),))
        assert restrict(fan) == (POINT_TREE,) * 3
        t = restrict(example_tree())
        assert (t[0], t[2]) == (POINT_TREE, POINT_TREE)

    def test_nothing_lies_over_a_point(self):
        assert restrict(POINT_TREE) == ()
        assert restrict(EMPTY_FOREST) == ()


class TestInversePair:
    # ``restrict`` takes apart what ``graft`` builds.
    def test_restrict_matches_the_oracle_on_the_cropped_pools(self):
        pool = cropped_pool()
        assert len(pool) == 257
        for t in pool:
            assert_restrict_is_the_oracle(t)
            assert restrict(t) is restrict(t)

    def test_graft_of_restrict_is_the_tree(self):
        grafted = 0
        for t in cropped_pool():
            if t is not POINT_TREE:
                assert graft(restrict(t)) is t
                grafted += 1
        assert grafted == 256

    def test_restrict_of_graft_gives_the_trees_back(self):
        fan = LevelTree((1, 2), ((0, 0),))
        shallow = [POINT_TREE, fan, LevelTree((1, 2, 3), ((0, 0), (0, 0, 1)))]
        pool = cropped_pool()[:40]
        cases = [
            (),
            (fan,),
            *product(shallow, repeat=2),
            *product(pool, repeat=2),
            (example_tree(), POINT_TREE, BARE),
        ]
        for kids in cases:
            assert restrict(graft(kids)) == tuple(kids)
        # One point child grafts to the point, over which nothing lies.
        assert restrict(graft([POINT_TREE])) == ()


def suspend(forest: LevelTree) -> LevelTree:
    """Reference for :func:`graft`: prepend a fresh root whose children
    are the forest's roots."""
    return make_level_tree(
        (1,) + forest.levels, ((0,) * forest.levels[0],) + forest.parents
    )


def coproduct(forests: list[LevelTree]) -> LevelTree:
    """Reference for :func:`graft`: disjoint union of forests, level-wise,
    in list order."""
    if not forests:
        return EMPTY_FOREST
    depth = max(f.depth for f in forests)
    levels = tuple(
        sum(f.level_size(n) for f in forests) for n in range(depth + 1)
    )
    parents = []
    for n in range(1, depth + 1):
        step: list[int] = []
        offset = 0
        for f in forests:
            if n <= f.depth:
                step.extend(p + offset for p in f.parents[n - 1])
            else:
                step.extend(i + offset for i in range(f.level_size(n)))
            offset += f.level_size(n - 1)
        parents.append(tuple(step))
    return make_level_tree(levels, tuple(parents))


class TestSuspendCoproduct:
    # ``graft`` is the suspension of a coproduct, written in one step.
    def test_suspend_empty_forest(self):
        # By the definition the suspension of the empty forest is the bare
        # point with no children at all: levels (1, 0).
        assert graft([]) is LevelTree((1, 0), ((),))
        assert graft([]) is suspend(coproduct([]))
        assert graft([EMPTY_FOREST]) is graft([])

    def test_suspend_point(self):
        assert graft([POINT_TREE]) is POINT_TREE

    def test_coproduct_sizes(self):
        t = LevelTree((1, 2), ((0, 0),))
        c = graft([t, POINT_TREE])
        assert c.levels == (1, 2, 3)
        assert c.parents == ((0, 0), (0, 0, 1))

    def test_round_trip_restrict_suspend_coproduct(self):
        trees = [
            POINT_TREE,
            LevelTree((1, 2), ((0, 0),)),
            LevelTree((1, 3), ((0, 0, 0),)),
            LevelTree((1, 2, 3), ((0, 0), (0, 0, 1))),
        ]
        for collection in [trees[:2], trees[1:], trees]:
            s = graft(collection)
            assert s.levels[1] == len(collection)
            assert restrict(s) == tuple(collection)

    def test_graft_matches_the_reference_on_the_cropped_pools(self):
        pool = [
            t.tree
            for flavor, height, root in ((INTERVAL, 3, 4), (ORDINAL, 3, 3))
            for t in enumerate_cropped_trees(flavor, height, root)
        ]
        assert len(pool) == 28
        for t in pool:
            # Nothing lies over the point, which is the graft of a point.
            kids = restrict(t) if t.depth else (POINT_TREE,)
            assert graft(kids) is t
            assert graft(kids) is suspend(coproduct(kids))
        for kids in product(pool, repeat=2):
            assert graft(kids) is suspend(coproduct(list(kids)))

    def test_graft_matches_the_reference_on_shallow_summands_and_forests(self):
        fan = LevelTree((1, 2), ((0, 0),))
        deep = LevelTree((1, 2, 3), ((0, 0), (0, 0, 1)))
        forests = [EMPTY_FOREST, LevelTree((2, 3), ((0, 1, 1),)), example_tree()]
        cases = [
            [POINT_TREE, fan, POINT_TREE],
            [fan, POINT_TREE, deep, POINT_TREE],
            [deep, fan],
            *([f, POINT_TREE, f] for f in forests),
        ]
        for kids in cases:
            assert graft(kids) is suspend(coproduct(kids))
        # The trivial children beside a fan continue as chains.
        assert graft(cases[0]) is make_level_tree(
            (1, 3, 4), ((0, 0, 0), (0, 1, 1, 2))
        )


class TestTreeMap:
    def test_identity_and_compose(self):
        t = example_tree()
        ident = identity_tree_map(t)
        assert compose_tree_maps(ident, ident) == ident

    def test_validation_commutation(self):
        t = LevelTree((1, 2), ((0, 0),))
        collapse = TreeMap(t, POINT_TREE, ((0,), (0, 0)))
        assert collapse((1, 1)) == (1, 0)
        with pytest.raises(ValueError):
            TreeMap(t, t, ((0,), (0,)))  # wrong arity
        deep = LevelTree((1, 2, 3), ((0, 0), (0, 0, 1)))
        with pytest.raises(ValueError):
            # sends a child of root-child 0 under root-child 1: breaks parents
            TreeMap(deep, deep, ((0,), (0, 1), (2, 1, 2)))
        # past the stored depth of one side, its fibers are the continuation
        shallow = LevelTree((1, 2), ((0, 0),))
        message = "does not commute with parents at level 2, index 1"
        with pytest.raises(ValueError, match=message):
            TreeMap(shallow, deep, ((0,), (0, 1), (0, 1)))
        with pytest.raises(ValueError, match=message):
            TreeMap(deep, shallow, ((0,), (0, 1), (0, 1, 1)))
        f = TreeMap(deep, shallow, ((0,), (0, 1), (0, 0, 1)))
        assert f((2, 2)) == (2, 1)

    def test_level_map_rows_out_of_range_and_empty(self):
        fan = LevelTree((1, 2), ((0, 0),))
        for row in [(0, 2), (-1, 0), (3, 0)]:
            with pytest.raises(ValueError, match="level map 1 has values out of range"):
                TreeMap(fan, fan, ((0,), row))
        with pytest.raises(ValueError, match="level map 0 has values out of range"):
            TreeMap(fan, fan, ((1,), (0, 1)))
        bare = LevelTree((1, 0), ((),))
        assert TreeMap(bare, POINT_TREE, ((0,), ())).at_level(1) == ()
        assert TreeMap(bare, fan, ((0,), ())).at_level(4) == ()
        # nothing lands in an empty level
        with pytest.raises(ValueError, match="level map 1 has values out of range"):
            TreeMap(fan, bare, ((0,), (0, 0)))

    def test_commutation_failure_names_the_least_bad_index(self):
        deep = LevelTree((1, 2, 4), ((0, 0), (0, 0, 1, 1)))
        # inside both stored depths: indices 1 and 3 land under the wrong
        # parent; the message names 1 whichever fiber holds it
        with pytest.raises(ValueError, match="at level 2, index 1$"):
            TreeMap(deep, deep, ((0,), (0, 1), (0, 2, 2, 0)))
        with pytest.raises(ValueError, match="at level 2, index 0$"):
            TreeMap(deep, deep, ((0,), (1, 0), (0, 2, 3, 1)))
        # past the stored depth of the domain: vertex j is its own parent
        fan = LevelTree((1, 2), ((0, 0),))
        with pytest.raises(ValueError, match="at level 2, index 0$"):
            TreeMap(fan, deep, ((0,), (0, 1), (2, 3)))
        with pytest.raises(ValueError, match="at level 2, index 1$"):
            TreeMap(fan, deep, ((0,), (0, 1), (0, 1)))
        # past the stored depth of the codomain
        with pytest.raises(ValueError, match="at level 2, index 2$"):
            TreeMap(deep, fan, ((0,), (0, 1), (0, 0, 0, 1)))
        assert TreeMap(fan, deep, ((0,), (0, 1), (1, 2))).at_level(2) == (1, 2)

    def test_commutation_matches_a_parent_by_parent_check(self):
        def parent(t: LevelTree, n: int, i: int) -> int:
            return t.parents[n - 1][i] if n <= t.depth else i

        def first_break(dom: LevelTree, cod: LevelTree, maps) -> Vertex | None:
            for n in range(1, len(maps)):
                for i in range(dom.level_size(n)):
                    if parent(cod, n, maps[n][i]) != maps[n - 1][parent(dom, n, i)]:
                        return (n, i)
            return None

        pool = [
            EMPTY_FOREST,
            POINT_TREE,
            LevelTree((1, 2), ((0, 0),)),
            LevelTree((1, 2, 3), ((0, 0), (0, 0, 1))),
            LevelTree((1, 1, 2), ((0,), (0, 0))),
            LevelTree((2, 3), ((0, 1, 1),)),
            LevelTree((1, 3, 2), ((0, 0, 0), (2, 1))),
        ]
        outcomes = [0, 0]
        for dom, cod in product(pool, repeat=2):
            span = max(dom.depth, cod.depth) + 1
            rows = [
                list(product(range(cod.level_size(n)), repeat=dom.level_size(n)))
                for n in range(span)
            ]
            for maps in product(*rows):
                broken = first_break(dom, cod, maps)
                if broken is None:
                    assert TreeMap(dom, cod, maps).level_maps == maps
                else:
                    message = (
                        "does not commute with parents at level "
                        f"{broken[0]}, index {broken[1]}$"
                    )
                    with pytest.raises(ValueError, match=message):
                        TreeMap(dom, cod, maps)
                outcomes[broken is None] += 1
        assert outcomes == [1973, 220]  # [rejected, accepted]

    def test_maps_span_both_depths(self):
        shallow = LevelTree((1, 2), ((0, 0),))
        deep = LevelTree((1, 2, 3), ((0, 0), (0, 0, 1)))
        f = TreeMap(shallow, deep, ((0,), (0, 1), (0, 2)))
        assert f((2, 0)) == (2, 0)
        assert f((2, 1)) == (2, 2)
        # beyond both depths the map continues unchanged
        assert f((5, 1)) == (5, 2)

    def test_fiber_slots(self):
        tall = LevelTree((1, 3, 4), ((0, 0, 0), (0, 1, 1, 2)))
        two = LevelTree((1, 2), ((0, 0),))
        f = TreeMap(tall, two, ((0,), (0, 1, 1), (0, 1, 1, 1)))
        # one row per stored level, past the codomain's depth too
        assert fiber_slots(f) == (
            ((0, 1, 1),),
            ((0,), (0, 0), (0,)),
            ((0,), (0,), (0,), (0,)),
        )
        swapped = TreeMap(tall, tall, ((0,), (0, 1, 2), (0, 2, 1, 3)))
        with pytest.raises(ValueError, match="level-1 vertex 1 is not mapped"):
            fiber_slots(swapped)
        short = TreeMap(two, tall, ((0,), (0, 1), (0, 1)))
        with pytest.raises(ValueError, match="level-0 vertex 0 does not preserve"):
            fiber_slots(short)

    def test_restrict_map(self):
        t = example_tree()
        ident = identity_tree_map(t)
        sub = restrict_map(ident, (1, 1))
        assert sub.dom == restrict(t)[1]
        assert sub == identity_tree_map(restrict(t)[1])

    def test_restrict_map_collapse(self):
        t = LevelTree((1, 2, 3), ((0, 0), (0, 0, 1)))
        collapse = TreeMap(t, POINT_TREE, ((0,), (0, 0), (0, 0, 0)))
        sub = restrict_map(collapse, (1, 0))
        assert sub.dom == restrict(t)[0]
        assert sub.cod == POINT_TREE

    def test_glue_restricted_maps(self):
        shallow = LevelTree((1, 2), ((0, 0),))
        deep = LevelTree((1, 2, 3), ((0, 0), (0, 0, 1)))
        maps = [
            identity_tree_map(example_tree()),
            TreeMap(shallow, deep, ((0,), (0, 1), (0, 2))),
            TreeMap(deep, shallow, ((0,), (0, 1), (0, 0, 1))),
        ]
        for f in maps:
            subs = [
                restrict_map(f, (1, j)).level_maps for j in range(f.dom.levels[1])
            ]
            glued = glue_level_maps(f.dom, f.cod, f.at_level(1), subs)
            assert glued == f.level_maps

    @pytest.mark.parametrize("name", ["cropped-interval", "cropped-ordinal", "disk"])
    def test_glue_matches_the_subtree_row_reference(self, name):
        # Every morphism of every pair of the pool, root map by root map.
        flavor = ORDINAL if name.endswith(ORDINAL) else INTERVAL
        if name == "disk":
            pool = [d.tree for d in enumerate_disks(2, 5)]
        else:
            max_root = 3 if flavor == ORDINAL else 4
            pool = [t.tree for t in enumerate_cropped_trees(flavor, 3, max_root)]
        enumerate_maps, count = LEVEL_MAPS[flavor]
        glued = listed = 0
        for a, b in product(pool, repeat=2):
            spec, index, value, _ = labeled._grid(flavor, a, b)
            if not index or not value:
                continue
            roots = [Ordinal(len(end) - 1 - spec.extra_slot) for end in (index, value)]
            for root in spec.root_maps(*spec.orient(*roots)):
                slot_map = spec.slot_map(root)
                homs = [
                    enumerate_maps(*spec.orient(x, value[s]))
                    for x, s in zip(index, slot_map.images)
                ]
                for subs in product(*homs):
                    glued += 1
                    ends = spec.orient(a, b)
                    assert glue_level_maps(
                        *ends, slot_map.images, subs
                    ) == glue_by_subtree_rows(*ends, slot_map, subs)
            listed += count(a, b)
        assert glued == listed > 100


def glue_by_subtree_rows(
    dom: LevelTree, cod: LevelTree, child_of, subs
) -> tuple[tuple[int, ...], ...]:
    """Reference for :func:`glue_level_maps`: the level maps of the tree
    map ``dom -> cod`` that sends the root to the root and the subtree over
    ``(1, j)`` into the one over ``(1, child_of(j))`` by ``subs[j]``, read
    through the subtree rows of both trees."""
    level_maps: list[tuple[int, ...]] = [(0,)]
    for n, (sizes, there) in enumerate(_glue_rows(dom, cod, len(subs))):
        row: list[int] = []
        for j, sub in enumerate(subs):
            rows = there[child_of(j)]
            local = sub[min(n, len(sub) - 1)]
            row.extend(rows[local[t]] for t in range(sizes[j]))
        level_maps.append(tuple(row))
    return tuple(level_maps)


def _glue_rows(dom: LevelTree, cod: LevelTree, children: int) -> tuple:
    """Per level ``1..``: the sizes of the first ``children`` subtrees over
    the root's children of ``dom``, and the vertices of each subtree over a
    root child of ``cod``; ``dom`` must list each level subtree by subtree."""
    dom_rows = [oracle_rows(dom, (1, j)) for j in range(children)]
    cod_rows = [oracle_rows(cod, (1, j)) for j in range(cod.level_size(1))]
    table = []
    for lvl in range(1, max(dom.depth, cod.depth) + 1):
        here = [rows[min(lvl, dom.depth) - 1] for rows in dom_rows]
        assert [v for part in here for v in part] == list(range(dom.level_size(lvl)))
        there = tuple(rows[min(lvl, cod.depth) - 1] for rows in cod_rows)
        table.append((tuple(len(part) for part in here), there))
    return tuple(table)
