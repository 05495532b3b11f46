"""Tests for ordinal graphs and the globular-cardinal correspondence."""

from __future__ import annotations

import copy
import pickle

import pytest

from theta_disk.globular import (
    ARROW_CARDINAL,
    EMPTY_CARDINAL,
    POINT_CARDINAL,
    enumerate_glob_morphisms,
)
from theta_disk.itree import ORDINAL, enumerate_objects, trivial_obj
from theta_disk.ordinal import Ordinal
from theta_disk.ograph import (
    EMPTY_OGRAPH,
    POINT_OGRAPH,
    OGraph,
    OGraphMor,
    compose_ograph_mors,
    count_ograph_morphisms,
    enumerate_ograph_morphisms,
    enumerate_ographs,
    gamma,
    gamma_mor,
    gamma_prime,
    gamma_prime_mor,
    identity_ograph_mor,
    upsilon,
    upsilon_prime,
)
from theta_disk.verify import POOLS, parse_bounds

from tests.test_globular import chain2, globe2, whisker
from tests.test_itree import height

ARROW_OGRAPH = OGraph(2, (POINT_OGRAPH,))
CHAIN2_OGRAPH = OGraph(3, (POINT_OGRAPH, POINT_OGRAPH))
GLOBE2_OGRAPH = OGraph(2, (ARROW_OGRAPH,))
WHISKER_OGRAPH = OGraph(3, (ARROW_OGRAPH, POINT_OGRAPH))


class TestOGraph:
    def test_validation(self):
        with pytest.raises(ValueError, match="edge graphs"):
            OGraph(3, (POINT_OGRAPH,))
        with pytest.raises(ValueError, match="non-empty"):
            OGraph(2, (EMPTY_OGRAPH,))
        with pytest.raises(ValueError, match="non-negative"):
            OGraph(-1, ())

    def test_dims(self):
        assert EMPTY_OGRAPH.dim == -1
        assert POINT_OGRAPH.dim == 0
        assert ARROW_OGRAPH.dim == 1
        assert CHAIN2_OGRAPH.dim == 1
        assert GLOBE2_OGRAPH.dim == 2
        assert WHISKER_OGRAPH.dim == 2

    def test_sizes(self):
        assert EMPTY_OGRAPH.size == 0
        assert POINT_OGRAPH.size == 1
        assert ARROW_OGRAPH.size == 3
        assert CHAIN2_OGRAPH.size == 5
        assert GLOBE2_OGRAPH.size == 5
        assert WHISKER_OGRAPH.size == 7

    def test_serialization(self):
        assert OGraph.from_dict(WHISKER_OGRAPH.to_dict()) == WHISKER_OGRAPH


class TestOGraphInterning:
    def test_equal_graphs_are_one_object(self):
        assert OGraph(2, (OGraph(1),)) is ARROW_OGRAPH
        assert OGraph(3, (ARROW_OGRAPH, POINT_OGRAPH)) is WHISKER_OGRAPH
        assert OGraph(0) is OGraph(0, ()) is EMPTY_OGRAPH
        assert gamma(gamma_prime(WHISKER_OGRAPH)) is WHISKER_OGRAPH
        assert upsilon(upsilon_prime(GLOBE2_OGRAPH)) is GLOBE2_OGRAPH

    def test_keywords_name_the_same_graph(self):
        assert OGraph(vertices=2, edges=(POINT_OGRAPH,)) is ARROW_OGRAPH
        assert OGraph(edges=(), vertices=1) is POINT_OGRAPH
        assert OGraph(vertices=0) is EMPTY_OGRAPH

    def test_serialization_returns_the_interned_graph(self):
        for g in enumerate_ographs(7, 3):
            assert OGraph.from_dict(g.to_dict()) is g

    def test_pickle_and_copy_return_the_interned_graph(self):
        for g in (EMPTY_OGRAPH, POINT_OGRAPH, GLOBE2_OGRAPH, WHISKER_OGRAPH):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(g, protocol)) is g
            assert copy.deepcopy(g) is g
            assert copy.copy(g) is g

    def test_invalid_graph_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="edge graphs"):
                OGraph(3, (POINT_OGRAPH,))
            with pytest.raises(ValueError, match="non-empty"):
                OGraph(2, (EMPTY_OGRAPH,))
            with pytest.raises(ValueError, match="non-negative"):
                OGraph(vertices=-1)


class TestEnumeration:
    def test_small_sizes(self):
        graphs = enumerate_ographs(6, 6)
        assert graphs == [
            EMPTY_OGRAPH,
            POINT_OGRAPH,
            ARROW_OGRAPH,
            GLOBE2_OGRAPH,
            CHAIN2_OGRAPH,
        ]

    def test_sizes_odd_or_zero(self):
        for g in enumerate_ographs(9, 4):
            assert g.size == 0 or g.size % 2 == 1

    def test_dim_bound(self):
        assert GLOBE2_OGRAPH not in enumerate_ographs(6, 1)
        assert GLOBE2_OGRAPH in enumerate_ographs(6, 2)

    def test_matches_cardinal_enumeration(self):
        graphs = enumerate_ographs(7, 7)
        cardinals = {gamma_prime(g) for g in graphs}
        assert len(cardinals) == len(graphs)
        for x in cardinals:
            assert x.size() <= 7


class TestGammaObjects:
    def test_base_cases(self):
        assert gamma(EMPTY_CARDINAL) == EMPTY_OGRAPH
        assert gamma(POINT_CARDINAL) == POINT_OGRAPH
        assert gamma(ARROW_CARDINAL) == ARROW_OGRAPH

    def test_known_shapes(self):
        assert gamma(chain2()) == CHAIN2_OGRAPH
        assert gamma(globe2()) == GLOBE2_OGRAPH
        assert gamma(whisker()) == WHISKER_OGRAPH

    def test_gamma_prime_base_cases(self):
        assert gamma_prime(EMPTY_OGRAPH) == EMPTY_CARDINAL
        assert gamma_prime(POINT_OGRAPH) == POINT_CARDINAL
        assert gamma_prime(ARROW_OGRAPH) == ARROW_CARDINAL
        assert gamma_prime(GLOBE2_OGRAPH) == globe2()
        assert gamma_prime(WHISKER_OGRAPH) == whisker()

    def test_round_trip_from_graphs(self):
        for g in enumerate_ographs(7, 7):
            assert gamma(gamma_prime(g)) == g

    def test_round_trip_from_cardinals(self):
        for x in [
            EMPTY_CARDINAL,
            POINT_CARDINAL,
            ARROW_CARDINAL,
            chain2(),
            globe2(),
            whisker(),
        ]:
            assert gamma_prime(gamma(x)) == x

    def test_dim_tracks_top_dimension(self):
        for g in enumerate_ographs(7, 7):
            assert gamma_prime(g).dim == g.dim


class TestOGraphMorphisms:
    def test_validation(self):
        with pytest.raises(ValueError, match="translation"):
            OGraphMor(CHAIN2_OGRAPH, ARROW_OGRAPH, 0, ())
        with pytest.raises(ValueError, match="no data"):
            OGraphMor(EMPTY_OGRAPH, ARROW_OGRAPH, 1, ())

    def test_identity_and_compose(self):
        for g in [EMPTY_OGRAPH, POINT_OGRAPH, WHISKER_OGRAPH]:
            i = identity_ograph_mor(g)
            assert compose_ograph_mors(i, i) == i

    def test_frozen_hom_counts(self):
        cases = [
            (EMPTY_OGRAPH, EMPTY_OGRAPH, 1),
            (POINT_OGRAPH, ARROW_OGRAPH, 2),
            (ARROW_OGRAPH, ARROW_OGRAPH, 1),
            (ARROW_OGRAPH, CHAIN2_OGRAPH, 2),
            (CHAIN2_OGRAPH, ARROW_OGRAPH, 0),
            (ARROW_OGRAPH, GLOBE2_OGRAPH, 2),
            (POINT_OGRAPH, CHAIN2_OGRAPH, 3),
            (WHISKER_OGRAPH, WHISKER_OGRAPH, 1),
        ]
        for g, h, expected in cases:
            assert len(enumerate_ograph_morphisms(g, h)) == expected
            assert count_ograph_morphisms(g, h) == expected

    def test_mutating_a_returned_list_leaves_the_next_call_unchanged(self):
        # ``POINT -> ARROW`` is also the child hom-set of ``ARROW -> GLOBE2``.
        pairs = [
            (ARROW_OGRAPH, GLOBE2_OGRAPH),
            (POINT_OGRAPH, ARROW_OGRAPH),
            (EMPTY_OGRAPH, ARROW_OGRAPH),
        ]
        expected = [list(enumerate_ograph_morphisms(g, h)) for g, h in pairs]
        for (g, h), want in zip(pairs, expected):
            first = enumerate_ograph_morphisms(g, h)
            first.clear()
            again = enumerate_ograph_morphisms(g, h)
            assert again == want and again is not first
            again.append(again[0])
        assert [enumerate_ograph_morphisms(g, h) for g, h in pairs] == expected

    def test_counts_match_enumeration(self):
        family = enumerate_ographs(7, 7)
        for g in family:
            for h in family:
                assert count_ograph_morphisms(g, h) == len(
                    enumerate_ograph_morphisms(g, h)
                )


class TestGammaMorphisms:
    def test_hom_counts_match_globular(self):
        family = enumerate_ographs(7, 7)
        for g in family:
            for h in family:
                graph_homs = enumerate_ograph_morphisms(g, h)
                glob_homs = enumerate_glob_morphisms(
                    gamma_prime(g), gamma_prime(h)
                )
                assert len(graph_homs) == len(glob_homs)

    def test_gamma_prime_then_gamma_on_morphisms(self):
        family = enumerate_ographs(7, 7)
        for g in family:
            for h in family:
                for f in enumerate_ograph_morphisms(g, h):
                    assert gamma_mor(gamma_prime_mor(f)) == f

    def test_gamma_then_gamma_prime_on_morphisms(self):
        family = enumerate_ographs(7, 7)
        for g in family:
            for h in family:
                x, y = gamma_prime(g), gamma_prime(h)
                for f in enumerate_glob_morphisms(x, y):
                    assert gamma_prime_mor(gamma_mor(f)) == f

    def test_object_maps_translate(self):
        # Every gap of a cardinal holds a 1-cell, so a morphism sends
        # consecutive objects to consecutive objects; ``gamma_mor`` reads
        # the offset of that translation off object 0.
        pool = POOLS["globcard"](parse_bounds("vertices=11,dim=5"))
        found = 0
        for x in pool:
            for y in pool:
                for f in enumerate_glob_morphisms(x, y):
                    found += 1
                    objects = f.level_maps[0] if f.level_maps else ()
                    start = objects[0] if objects else 0
                    assert objects == tuple(range(start, start + len(objects)))
        assert (len(pool), found) == (66, 1243)

    def test_morphisms_are_interned(self):
        point = identity_ograph_mor(POINT_OGRAPH)
        f = OGraphMor(ARROW_OGRAPH, CHAIN2_OGRAPH, 1, (point,))
        assert f is enumerate_ograph_morphisms(ARROW_OGRAPH, CHAIN2_OGRAPH)[1]
        assert OGraphMor(EMPTY_OGRAPH, ARROW_OGRAPH, 0) is OGraphMor(
            EMPTY_OGRAPH, ARROW_OGRAPH, 0, ()
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(f, protocol)) is f
        assert copy.deepcopy(f) is f

    def test_translations_are_built_once_per_morphism(self, monkeypatch):
        x, y = gamma_prime(ARROW_OGRAPH), gamma_prime(WHISKER_OGRAPH)
        found = enumerate_glob_morphisms(x, y)
        read = [gamma_mor(f) for f in found]
        built = [gamma_prime_mor(f) for f in read]
        assert built == found

        def rebuilt(*args):
            raise AssertionError("a morphism is translated again")

        monkeypatch.setattr("theta_disk.ograph.desuspend_mor", rebuilt)
        monkeypatch.setattr("theta_disk.ograph.suspend_gc_mor", rebuilt)
        assert all(gamma_mor(f) is g for f, g in zip(found, read))
        assert all(gamma_prime_mor(g) is f for g, f in zip(read, built))

    def test_functorial(self):
        mors_fw = enumerate_ograph_morphisms(ARROW_OGRAPH, WHISKER_OGRAPH)
        for f in mors_fw:
            lifted = gamma_prime_mor(f)
            assert lifted.dom == ARROW_CARDINAL
            assert lifted.cod == whisker()
        identities = [identity_ograph_mor(WHISKER_OGRAPH)]
        for i in identities:
            assert gamma_prime_mor(i).level_maps == (
                (0, 1, 2),
                (0, 1, 2),
                (0,),
            )


class TestUpsilon:
    def trivial(self):
        return trivial_obj(ORDINAL)

    def test_base_cases(self):
        t = trivial_obj(ORDINAL)
        assert upsilon(t) == EMPTY_OGRAPH
        o0 = upsilon_prime(POINT_OGRAPH)
        assert o0.root == Ordinal(0)
        assert upsilon(o0) == POINT_OGRAPH

    def test_round_trip_from_trees(self):
        for h in enumerate_objects(ORDINAL, 3, 3):
            assert upsilon_prime(upsilon(h)) == h

    def test_round_trip_from_graphs(self):
        for g in enumerate_ographs(7, 7):
            assert upsilon(upsilon_prime(g)) == g

    def test_height_is_dim_plus_one(self):
        for g in enumerate_ographs(7, 7):
            assert height(upsilon_prime(g)) == g.dim + 1

    def test_upsilon_prime_is_memoized(self):
        # Interning alone makes the two results one object; the cache hit
        # shows the second call did not rebuild the tree.
        g = OGraph(3, (ARROW_OGRAPH, POINT_OGRAPH))
        first = upsilon_prime(g)
        hits = upsilon_prime.cache_info().hits
        assert upsilon_prime(g) is first
        assert upsilon_prime.cache_info().hits == hits + 1

    def test_flavor_enforced(self):
        from theta_disk.itree import INTERVAL

        with pytest.raises(ValueError, match="ordinal-flavor"):
            upsilon(trivial_obj(INTERVAL))
