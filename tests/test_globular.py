"""Tests for globular sets, cardinals, and their morphisms."""

from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil
from dataclasses import replace
from itertools import permutations, product

import pytest

import theta_disk
from theta_disk.globular import (
    ARROW_CARDINAL,
    EMPTY_CARDINAL,
    POINT_CARDINAL,
    GlobCard,
    GlobMor,
    GlobSet,
    _linear_order,
    cells_by_ends,
    compose_glob_mors,
    desuspend,
    desuspend_mor,
    enumerate_glob_morphisms,
    identity_glob_mor,
    linearize,
    sub_globcard,
    suspend_gc,
    suspend_gc_mor,
)
from theta_disk.ograph import enumerate_ographs, gamma_prime
from theta_disk.ordinal import Interned
from theta_disk.verify import POOLS, parse_bounds
from tests.test_omega import comp_subfunctor


def chain2() -> GlobCard:
    """Two composable arrows: 0 -> 1 -> 2."""
    return GlobCard(GlobSet((3, 2), ((0, 1),), ((1, 2),)))


def globe2() -> GlobCard:
    """A single 2-cell between parallel arrows."""
    return GlobCard(GlobSet((2, 2, 1), ((0, 0), (0,)), ((1, 1), (1,))))


def whisker() -> GlobCard:
    """A 2-cell followed by a plain arrow."""
    return GlobCard(
        GlobSet((3, 3, 1), ((0, 0, 1), (0,)), ((1, 1, 2), (1,)))
    )


def is_incremental(values) -> bool:
    """Whether a map of linear orders is injective with an interval image."""
    ordered = all(a < b for a, b in zip(values, values[1:]))
    return ordered and (not values or values[-1] - values[0] + 1 == len(values))


def count_linear_extensions(gset: GlobSet) -> int:
    """Oracle: the number of total orders extending the span relation."""
    verts = gset.vertices()
    edges = []
    for k, (src, tgt) in enumerate(zip(gset.src, gset.tgt), start=1):
        for i, (s, t) in enumerate(zip(src, tgt)):
            edges.append(((k - 1, s), (k, i)))
            edges.append(((k, i), (k - 1, t)))
    count = 0
    for perm in permutations(verts):
        pos = {v: n for n, v in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in edges):
            count += 1
    return count


def small_globular_sets(max_cells: int, max_dim: int) -> list[GlobSet]:
    """Every globular set with at most ``max_cells`` cells and dimension
    at most ``max_dim``, by trying every source and target table."""
    out = []
    for depth in range(1, max_dim + 2):
        for levels in product(range(1, max_cells + 1), repeat=depth):
            if sum(levels) > max_cells:
                continue
            tables = [
                list(product(range(levels[k]), repeat=levels[k + 1]))
                for k in range(depth - 1)
            ]
            for src in product(*tables):
                for tgt in product(*tables):
                    try:
                        out.append(GlobSet(levels, src, tgt))
                    except ValueError:
                        continue
    return out


def brute_force_glob_morphisms(x: GlobCard, y: GlobCard) -> list[GlobMor]:
    """Oracle: try every tuple of cell maps and keep the valid ones."""
    dlevels = x.gset.levels
    if not dlevels:
        return [GlobMor(x, y, ())]
    if len(dlevels) > len(y.gset.levels):
        return []
    choices = [
        list(product(range(y.gset.levels[k]), repeat=dlevels[k]))
        for k in range(len(dlevels))
    ]
    out = []
    for maps in product(*choices):
        try:
            out.append(GlobMor(x, y, tuple(maps)))
        except ValueError:
            continue
    return out


def product_glob_level_maps(
    x: GlobCard, y: GlobCard
) -> list[tuple[tuple[int, ...], ...]]:
    """Oracle: the level maps of every morphism ``x -> y``, in the order
    of building every object map with ``product`` and then, for each
    higher cell, scanning every codomain cell for its source and target."""
    dlevels = x.gset.levels
    if not dlevels:
        return [()]
    if len(dlevels) > len(y.gset.levels):
        return []
    partials: list[tuple[tuple[int, ...], ...]] = [
        (combo,)
        for combo in product(range(y.gset.levels[0]), repeat=dlevels[0])
    ]
    for k in range(1, len(dlevels)):
        extended = []
        for partial in partials:
            options = []
            for i in range(dlevels[k]):
                s = partial[k - 1][x.gset.src[k - 1][i]]
                t = partial[k - 1][x.gset.tgt[k - 1][i]]
                candidates = [
                    j
                    for j in range(y.gset.levels[k])
                    if y.gset.src[k - 1][j] == s and y.gset.tgt[k - 1][j] == t
                ]
                options.append(candidates)
            if any(not o for o in options):
                continue
            for combo in product(*options):
                extended.append(partial + (combo,))
        partials = extended
    return partials


class TestGlobSet:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            GlobSet((2, 0, 1), ((), (0, 0)), ((), (1, 1)))
        with pytest.raises(ValueError, match="arity"):
            GlobSet((2, 1), ((0, 0),), ((1,),))
        with pytest.raises(ValueError, match="outside"):
            GlobSet((2, 1), ((5,),), ((1,),))

    def test_globular_identities_enforced(self):
        with pytest.raises(ValueError, match="identities"):
            GlobSet((3, 2, 1), ((0, 1), (0,)), ((1, 2), (1,)))

    def test_source_target(self):
        g = globe2().gset
        assert (g.src[1][0], g.tgt[1][0]) == (0, 1)
        assert cells_by_ends(globe2())[1][(0, 1)] == (0,)

    def test_serialization(self):
        g = whisker().gset
        assert GlobSet.from_dict(g.to_dict()) == g
        assert GlobCard.from_dict(whisker().to_dict()) == whisker()


class TestLinearOrder:
    def test_arrow_order(self):
        assert _linear_order(ARROW_CARDINAL.gset) == ((0, 0), (1, 0), (0, 1))

    def test_globe_order(self):
        assert _linear_order(globe2().gset) == (
            (0, 0),
            (1, 0),
            (2, 0),
            (1, 1),
            (0, 1),
        )

    def test_whisker_order(self):
        assert _linear_order(whisker().gset) == (
            (0, 0),
            (1, 0),
            (2, 0),
            (1, 1),
            (0, 1),
            (1, 2),
            (0, 2),
        )

    def test_unique_extension_oracle(self):
        cardinals = [
            POINT_CARDINAL.gset,
            ARROW_CARDINAL.gset,
            chain2().gset,
            globe2().gset,
            whisker().gset,
        ]
        non_cardinals = [
            GlobSet((2,), (), ()),
            GlobSet((2, 2), ((0, 0),), ((1, 1),)),
            GlobSet((1, 1), ((0,),), ((0,),)),
            GlobSet((3, 1), ((0,),), ((1,),)),
        ]
        for g in cardinals:
            assert count_linear_extensions(g) == 1
            assert linearize(g) is GlobCard(g)
        for g in non_cardinals:
            assert count_linear_extensions(g) != 1
            assert linearize(g) is None

    def test_topological_sort_matches_extension_count(self):
        sets = small_globular_sets(5, 2)
        assert len(sets) > 100
        seen = [0, 0]
        for g in sets:
            unique = count_linear_extensions(g) == 1
            assert (_linear_order(g) is not None) == unique, g
            seen[unique] += 1
        assert min(seen) > 10

    def test_non_cardinal_rejected(self):
        with pytest.raises(ValueError, match="not total"):
            GlobCard(GlobSet((2,), (), ()))

    def test_non_canonical_rejected_and_fixed(self):
        reversed_arrow = GlobSet((2, 1), ((1,),), ((0,),))
        with pytest.raises(ValueError, match="canonical"):
            GlobCard(reversed_arrow)
        assert linearize(reversed_arrow) == ARROW_CARDINAL

    def test_linearize_permuted_chain(self):
        scrambled_chain = GlobSet((3, 2), ((2, 0),), ((0, 1),))
        chain_rank = {(0, 2): 0, (0, 0): 1, (0, 1): 2, (1, 0): 0, (1, 1): 1}
        # The whisker with its objects and arrows numbered in another order.
        scrambled_whisker = GlobSet(
            (3, 3, 1), ((0, 2, 2), (1,)), ((1, 0, 0), (2,))
        )
        whisker_rank = {
            (0, 2): 0,
            (0, 0): 1,
            (0, 1): 2,
            (1, 1): 0,
            (1, 2): 1,
            (1, 0): 2,
            (2, 0): 0,
        }
        for scrambled, card, rank in (
            (scrambled_chain, chain2(), chain_rank),
            (scrambled_whisker, whisker(), whisker_rank),
        ):
            assert linearize(scrambled) == card
            order = _linear_order(scrambled)
            assert {
                v: [u for u in order if u[0] == v[0]].index(v) for v in order
            } == rank

    def test_positions(self):
        assert globe2().size() == 5


class TestGlobMor:
    def test_identity_and_compose(self):
        for x in [EMPTY_CARDINAL, POINT_CARDINAL, globe2()]:
            i = identity_glob_mor(x)
            assert compose_glob_mors(i, i) == i

    def test_commutation_enforced(self):
        with pytest.raises(ValueError, match="commute"):
            GlobMor(ARROW_CARDINAL, chain2(), ((0, 2), (0,)))

    def test_frozen_hom_counts(self):
        cases = [
            (POINT_CARDINAL, ARROW_CARDINAL, 2),
            (ARROW_CARDINAL, ARROW_CARDINAL, 1),
            (ARROW_CARDINAL, chain2(), 2),
            (chain2(), ARROW_CARDINAL, 0),
            (ARROW_CARDINAL, globe2(), 2),
            (globe2(), globe2(), 1),
            (chain2(), chain2(), 1),
            (globe2(), ARROW_CARDINAL, 0),
            (POINT_CARDINAL, chain2(), 3),
            (EMPTY_CARDINAL, globe2(), 1),
            (globe2(), EMPTY_CARDINAL, 0),
            (whisker(), whisker(), 1),
        ]
        for x, y, expected in cases:
            assert len(enumerate_glob_morphisms(x, y)) == expected

    def test_enumeration_matches_brute_force(self):
        family = [
            EMPTY_CARDINAL,
            POINT_CARDINAL,
            ARROW_CARDINAL,
            chain2(),
            globe2(),
            whisker(),
        ]
        for x in family:
            for y in family:
                fast = enumerate_glob_morphisms(x, y)
                slow = brute_force_glob_morphisms(x, y)
                assert {m.level_maps for m in fast} == {
                    m.level_maps for m in slow
                }

    @pytest.mark.parametrize(
        "vertices, dim", [(9, 9), (7, 3)], ids=["vertices9", "vertices7-dim3"]
    )
    def test_search_lists_the_product_order(self, vertices, dim):
        cards = [gamma_prime(g) for g in enumerate_ographs(vertices, dim)]
        assert any(x.dim > y.dim for x in cards for y in cards)
        for x in cards:
            for y in cards:
                found = enumerate_glob_morphisms(x, y)
                assert all(f.dom is x and f.cod is y for f in found)
                assert [f.level_maps for f in found] == product_glob_level_maps(
                    x, y
                )

    def test_all_morphisms_are_order_embeddings(self):
        # Every cell map is strictly increasing, and the object map also
        # has an interval image.
        family = [POINT_CARDINAL, ARROW_CARDINAL, chain2(), globe2(), whisker()]
        for x in family:
            for y in family:
                for f in enumerate_glob_morphisms(x, y):
                    for fmap in f.level_maps:
                        assert list(fmap) == sorted(set(fmap))
                    assert is_incremental(f.level_maps[0])

    def test_higher_cell_maps_can_skip(self):
        skipping = [
            f
            for f in enumerate_glob_morphisms(chain2(), whisker())
            if not is_incremental(f.level_maps[1])
        ]
        assert [f.level_maps for f in skipping] == [((0, 1, 2), (0, 2))]

    def test_serialization(self):
        f = enumerate_glob_morphisms(ARROW_CARDINAL, chain2())[0]
        assert GlobMor.from_dict(f.to_dict()) == f


class TestInterning:
    def test_equal_values_are_one_object(self):
        assert GlobSet((3, 2), ((0, 1),), ((1, 2),)) is chain2().gset
        assert chain2() is chain2()
        first = enumerate_glob_morphisms(ARROW_CARDINAL, whisker())
        again = enumerate_glob_morphisms(ARROW_CARDINAL, whisker())
        assert len(first) == len(again) > 1
        assert all(f is g for f, g in zip(first, again))
        assert GlobMor(ARROW_CARDINAL, chain2(), ((1, 2), (1,))) is (
            enumerate_glob_morphisms(ARROW_CARDINAL, chain2())[1]
        )

    def test_keywords_name_the_same_value(self):
        gset = GlobSet(levels=(2, 1), src=((0,),), tgt=((1,),))
        assert gset is ARROW_CARDINAL.gset
        assert GlobCard(gset=gset) is ARROW_CARDINAL
        assert replace(ARROW_CARDINAL) is ARROW_CARDINAL
        identity = GlobMor(
            ARROW_CARDINAL, level_maps=((0, 1), (0,)), cod=ARROW_CARDINAL
        )
        assert identity is identity_glob_mor(ARROW_CARDINAL)
        with pytest.raises(TypeError):
            GlobSet((1,), (), (), levels=(1,))
        with pytest.raises(TypeError):
            GlobSet((1,), ())

    def test_invalid_value_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="commute"):
                GlobMor(ARROW_CARDINAL, chain2(), ((0, 2), (0,)))
        for _ in range(2):
            with pytest.raises(ValueError, match="not canonical"):
                GlobCard(GlobSet((2, 1), ((1,),), ((0,),)))
        for _ in range(2):
            with pytest.raises(ValueError, match="GlobSet fields must be hashable"):
                GlobSet([1], (), ())

    def test_pickle_and_copy_return_the_interned_value(self):
        values = [
            POINT_CARDINAL.gset,
            EMPTY_CARDINAL,
            ARROW_CARDINAL,
            whisker(),
            *enumerate_glob_morphisms(ARROW_CARDINAL, whisker()),
        ]
        for value in values:
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(value, protocol)) is value
            assert copy.deepcopy(value) is value
            assert copy.copy(value) is value

    def test_identity_is_the_only_equality(self):
        for module in pkgutil.iter_modules(theta_disk.__path__):
            importlib.import_module(f"theta_disk.{module.name}")
        classes, stack = [], [Interned]
        while stack:
            for cls in stack.pop().__subclasses__():
                if cls.__module__.startswith("theta_disk."):
                    classes.append(cls)
                    stack.append(cls)
        names = {cls.__name__ for cls in classes}
        assert {
            "GlobSet", "LabeledTree", "Cell", "EnrichedCell", "OGraph",
            "Ordinal", "OrdMap",
        } <= names
        for cls in classes:
            assert "__eq__" not in vars(cls), cls
            assert "__hash__" not in vars(cls), cls
            bases = [b for b in cls.__mro__[1:] if issubclass(b, Interned)]
            assert bases == [Interned], cls


class TestSubCardinal:
    def test_column_of_whisker(self):
        sub, incl = comp_subfunctor(whisker(), (0, 0), (0, 1))
        assert sub == globe2()
        assert incl.level_maps == ((0, 1), (0, 1), (0,))

    def test_second_column_of_whisker(self):
        sub, incl = comp_subfunctor(whisker(), (0, 1), (0, 2))
        assert sub == ARROW_CARDINAL
        assert incl.level_maps == ((1, 2), (2,))

    def test_arrow_band_of_whisker(self):
        sub, incl = comp_subfunctor(whisker(), (1, 0), (1, 1))
        assert sub == globe2()

    def test_closure_required(self):
        with pytest.raises(ValueError, match="closed"):
            sub_globcard(globe2(), [(0, 1), (0,), (0,)])

    def test_inclusion_composes(self):
        sub, incl = comp_subfunctor(whisker(), (0, 0), (0, 1))
        assert compose_glob_mors(incl, identity_glob_mor(sub)) == incl


class TestSuspension:
    def test_point_from_nothing(self):
        assert suspend_gc([]) == POINT_CARDINAL

    def test_arrow_from_point(self):
        assert suspend_gc([POINT_CARDINAL]) == ARROW_CARDINAL

    def test_chain_from_points(self):
        assert suspend_gc([POINT_CARDINAL, POINT_CARDINAL]) == chain2()

    def test_globe_from_arrow(self):
        assert suspend_gc([ARROW_CARDINAL]) == globe2()

    def test_whisker_from_arrow_and_point(self):
        assert suspend_gc([ARROW_CARDINAL, POINT_CARDINAL]) == whisker()

    def test_empty_component_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            suspend_gc([EMPTY_CARDINAL])

    def test_suspension_is_built_once_per_components(self, monkeypatch):
        components = [globe2(), ARROW_CARDINAL]
        first = suspend_gc(components)

        def no_offsets(*args):
            raise AssertionError("a repeated suspension is built again")

        monkeypatch.setattr("theta_disk.globular._offsets", no_offsets)
        assert suspend_gc(components) is first
        assert suspend_gc(tuple(components)) is first
        for _ in range(2):
            with pytest.raises(ValueError, match="non-empty"):
                suspend_gc([ARROW_CARDINAL, EMPTY_CARDINAL])

    def test_restriction_inverts_suspension(self):
        families = [
            [POINT_CARDINAL],
            [ARROW_CARDINAL],
            [POINT_CARDINAL, POINT_CARDINAL],
            [ARROW_CARDINAL, POINT_CARDINAL],
            [globe2(), ARROW_CARDINAL],
        ]
        for comps in families:
            x = suspend_gc(comps)
            assert [c for c, _ in desuspend(x)] == comps

    def test_desuspension_inverts_suspension_on_the_pool(self):
        cards = [
            x for x in POOLS["globcard"](parse_bounds("vertices=9,dim=3"))
            if x.gset.levels
        ]
        assert len(cards) > 20
        for x in cards:
            assert suspend_gc([c for c, _ in desuspend(x)]) is x
        lifted = 0
        for x, y in product(cards, repeat=2):
            xs = [c for c, _ in desuspend(x)]
            ys = [c for c, _ in desuspend(y)]
            for offset in range(len(ys) - len(xs) + 1):
                homs = [
                    enumerate_glob_morphisms(c, ys[offset + i])
                    for i, c in enumerate(xs)
                ]
                for family in product(*homs):
                    f = suspend_gc_mor(offset, family, xs, ys)
                    assert desuspend_mor(f) == (offset, family)
                    lifted += 1
            for f in enumerate_glob_morphisms(x, y):
                assert suspend_gc_mor(*desuspend_mor(f), xs, ys) is f
        assert lifted > 200

    def test_empty_cardinal_is_not_a_suspension(self):
        with pytest.raises(ValueError, match="not a suspension"):
            desuspend(EMPTY_CARDINAL)

    def test_suspended_morphisms(self):
        lifted = suspend_gc_mor(
            0,
            [identity_glob_mor(POINT_CARDINAL)],
            [POINT_CARDINAL],
            [POINT_CARDINAL, POINT_CARDINAL],
        )
        assert lifted.dom == ARROW_CARDINAL
        assert lifted.cod == chain2()
        assert lifted.level_maps == ((0, 1), (0,))
        shifted = suspend_gc_mor(
            1,
            [identity_glob_mor(POINT_CARDINAL)],
            [POINT_CARDINAL],
            [POINT_CARDINAL, POINT_CARDINAL],
        )
        assert shifted.level_maps == ((1, 2), (1,))

    def test_suspended_morphism_into_whisker(self):
        lifted = suspend_gc_mor(
            0,
            [identity_glob_mor(ARROW_CARDINAL)],
            [ARROW_CARDINAL],
            [ARROW_CARDINAL, POINT_CARDINAL],
        )
        assert lifted.dom == globe2()
        assert lifted.cod == whisker()
        assert lifted.level_maps == ((0, 1), (0, 1), (0,))


class TestRestrictionMorphisms:
    def test_restriction_of_inclusion(self):
        w = whisker()
        incl = enumerate_glob_morphisms(globe2(), w)[0]
        offset, (r,) = desuspend_mor(incl)
        assert offset == 0
        assert r.dom == ARROW_CARDINAL
        assert r.cod == ARROW_CARDINAL
        assert r.level_maps == ((0, 1), (0,))

    def test_restriction_of_all_morphisms(self):
        family = [ARROW_CARDINAL, chain2(), globe2(), whisker()]
        for x in family:
            for y in family:
                for f in enumerate_glob_morphisms(x, y):
                    offset, restricted = desuspend_mor(f)
                    assert len(restricted) == x.gset.levels[0] - 1
                    for i, r in enumerate(restricted):
                        assert f.level_maps[0][i] == offset + i
                        assert r.dom == desuspend(x)[i][0]
                        assert r.cod == desuspend(y)[offset + i][0]
