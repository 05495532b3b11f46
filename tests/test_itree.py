"""Tests for inductive interval/ordinal trees and their duality."""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import theta_disk
from theta_disk.itree import (
    FLAVORS,
    INTERVAL,
    ORDINAL,
    ITreeMor,
    ITreeObj,
    _child_ends,
    compose,
    count_morphisms,
    enumerate_morphisms,
    enumerate_objects,
    identity,
    marker,
    trivial_obj,
    vee,
    wedge,
)
from theta_disk.ordinal import Ordinal, OrdMap
from theta_disk.ordinal import identity as identity_ord
from theta_disk.verify import Bounds

T_I = trivial_obj(INTERVAL)
T_O = trivial_obj(ORDINAL)


def interval(root_n: int, *children: ITreeObj) -> ITreeObj:
    return ITreeObj(INTERVAL, Ordinal(root_n), children)


def ordinal_tree(root_n: int, *children: ITreeObj) -> ITreeObj:
    return ITreeObj(ORDINAL, Ordinal(root_n), children)


def wide_ordinal_tree(n: int) -> ITreeObj:
    """The ordinal tree with root ``[n]`` over ``n`` interior ``[0]`` trees.
    Each of its ``C(2n + 1, n)`` root maps to itself carries one morphism."""
    return ordinal_tree(n, T_O, *[ordinal_tree(0, T_O, T_O)] * n, T_O)


def height(h: ITreeObj) -> int:
    """0 for the trivial object, else one more than the tallest child."""
    if h.is_trivial:
        return 0
    return 1 + max(height(c) for c in h.children)


# small named objects used across the tests
I1 = interval(1, T_I, T_I)
I2 = interval(2, T_I, I1, T_I)
I3 = interval(2, T_I, I2, T_I)
O0 = ordinal_tree(0, T_O, T_O)
O1 = ordinal_tree(1, T_O, O0, T_O)


class TestObjects:
    def test_trivial(self):
        assert T_I.is_trivial and height(T_I) == 0
        assert T_O.root == Ordinal(-1)

    def test_heights(self):
        assert height(I1) == 1
        assert height(I2) == 2
        assert height(O1) == 2

    def test_validate_accepts(self):
        # Each named tree was checked when it was built; building it
        # again returns it.
        for obj in (T_I, I1, I2, I3, T_O, O0, O1):
            assert ITreeObj(obj.flavor, obj.root, obj.children) is obj

    def test_validate_rejects_trivial_interior(self):
        with pytest.raises(ValueError, match="interior"):
            interval(2, T_I, T_I, T_I)

    def test_validate_rejects_nontrivial_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            ordinal_tree(0, O0, O0)

    def test_validate_rejects_degenerate_towers(self):
        with pytest.raises(ValueError, match="at least"):
            interval(0, T_I)
        with pytest.raises(ValueError, match="at least"):
            ordinal_tree(-1, T_O)

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            ITreeObj(INTERVAL, Ordinal(2), (T_I, T_I))  # wrong arity
        with pytest.raises(ValueError):
            ITreeObj(INTERVAL, Ordinal(1), ())  # non-trivial root, no children
        with pytest.raises(ValueError):
            ITreeObj(INTERVAL, Ordinal(1), (T_O, T_O))  # flavor clash

    def test_serialization_round_trip(self):
        assert ITreeObj.from_dict(I3.to_dict()) == I3
        assert ITreeObj.from_dict(O1.to_dict()) == O1


class TestMorphisms:
    def test_identity_composes(self):
        for obj in (T_I, I1, I2, O0, O1):
            ident = identity(obj)
            assert compose(ident, ident) == ident

    def test_marker_is_terminal_interval(self):
        assert len(enumerate_morphisms(I2, T_I)) == 1
        assert enumerate_morphisms(T_I, I1) == []

    def test_marker_is_initial_ordinal(self):
        assert len(enumerate_morphisms(T_O, O1)) == 1
        assert enumerate_morphisms(O0, T_O) == []

    def test_hom_counts_small(self):
        # morphisms I1 -> I1 are the interval maps [1]->[1]: only the identity
        assert len(enumerate_morphisms(I1, I1)) == 1
        # ordinal side: root maps [0]->[0] with forced children
        assert len(enumerate_morphisms(O0, O0)) == 1
        assert len(enumerate_morphisms(O0, O1)) == 2
        assert len(enumerate_morphisms(O1, O1)) == 3

    @pytest.mark.parametrize(
        "objs", [[T_I, I1, I2, I3], [T_O, O0, O1]], ids=[INTERVAL, ORDINAL]
    )
    def test_composition_closure(self, objs):
        for a in objs:
            for b in objs:
                for c in objs:
                    for f in enumerate_morphisms(a, b):
                        for g in enumerate_morphisms(b, c):
                            gf = compose(g, f)
                            assert gf.dom == a and gf.cod == c
                            assert gf in enumerate_morphisms(a, c)

    @pytest.mark.parametrize(
        "objs", [[T_I, I1, I2], [T_O, O0, O1]], ids=[INTERVAL, ORDINAL]
    )
    def test_associativity_small(self, objs):
        homs = {
            (a, b): enumerate_morphisms(a, b) for a in objs for b in objs
        }
        for a in objs:
            for b in objs:
                for c in objs:
                    for d in objs:
                        for f in homs[(a, b)]:
                            for g in homs[(b, c)]:
                                for h in homs[(c, d)]:
                                    assert compose(h, compose(g, f)) == compose(
                                        compose(h, g), f
                                    )

    @pytest.mark.parametrize(
        "flavor, max_root, count, digest",
        [
            (
                INTERVAL,
                3,
                26,
                "220bed315b53e8e52ca60f57ebe55818ac08b42f8be0dedcac73276c841c5f58",
            ),
            (
                ORDINAL,
                3,
                5463,
                "6482aaff194cdbb18ac93e02e713707836fae90ce099872fdaf989123aa1bd88",
            ),
            (
                INTERVAL,
                4,
                5463,
                "feffb7fdfcf7d23be0362468dd0131309c879c01def42f8adfc8bf51d27a8cbb",
            ),
        ],
    )
    def test_enumeration_order_is_pinned(self, flavor, max_root, count, digest):
        objs = enumerate_objects(flavor, 3, max_root)
        reprs = [
            repr(f) for a in objs for b in objs for f in enumerate_morphisms(a, b)
        ]
        assert len(reprs) == count
        assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == digest


class TestSharedHomSets:
    def test_mutating_a_returned_list_leaves_the_next_call_unchanged(self):
        for a, b in [(O1, O1), (I3, I2), (O0, O1), (I2, T_I)]:
            first = enumerate_morphisms(a, b)
            expected = list(first)
            first.clear()
            again = enumerate_morphisms(a, b)
            assert again == expected and again is not first
            again.append(again[0])
            assert enumerate_morphisms(a, b) == expected

    def test_child_morphisms_are_shared_top_level_ones_are_new(self):
        first = enumerate_morphisms(O1, O1)
        again = enumerate_morphisms(O1, O1)
        assert all(f is not g for f, g in zip(first, again))
        for f, g in zip(first, again):
            assert all(c is d for c, d in zip(f.children, g.children))


class TestCountMorphisms:
    @pytest.mark.parametrize("flavor", [INTERVAL, ORDINAL])
    def test_matches_enumeration_at_the_defaults(self, flavor):
        b = Bounds()
        objs = enumerate_objects(flavor, b.max_height, b.max_label)
        for x in objs:
            for y in objs:
                assert count_morphisms(x, y) == len(enumerate_morphisms(x, y))

    @pytest.mark.parametrize(
        "flavor, listed_pairs", [(INTERVAL, 183), (ORDINAL, 1719)]
    )
    def test_matches_enumeration_at_root_four(self, flavor, listed_pairs):
        # Every pair of at most 100 morphisms is listed and compared; the
        # larger hom-sets would take the enumeration minutes.
        objs = enumerate_objects(flavor, 3, 4)
        checked = 0
        for x in objs:
            for y in objs:
                n = count_morphisms(x, y)
                if n <= 100:
                    assert n == len(enumerate_morphisms(x, y))
                    checked += 1
        assert checked == listed_pairs

    def test_ordinal_total_at_root_four(self):
        objs = enumerate_objects(ORDINAL, 3, 4)
        assert len(objs) == 86
        total = sum(count_morphisms(x, y) for x in objs for y in objs)
        assert total == 34_657_764

    def test_flavors_must_match(self):
        with pytest.raises(ValueError, match="common flavor"):
            count_morphisms(I1, O1)


def _hom(a: ITreeObj, b: ITreeObj) -> ITreeMor:
    return enumerate_morphisms(a, b)[0]


class TestMorphismValidation:
    """Each rejection path of ``ITreeMor``, in both flavors.

    Interval morphisms are indexed by the domain's children and send
    child ``i`` to the codomain's child ``root_map(i)``; ordinal morphisms
    are indexed by the codomain's children and take child ``j`` from the
    domain's child ``wedge_map(root_map)(j)``.
    """

    def test_identities_are_accepted(self):
        for obj in (I2, O1):
            ident = identity(obj)
            assert ITreeMor(obj, obj, ident.root_map, ident.children) == ident

    def test_interval_child_with_wrong_index_end(self):
        kids = list(identity(I2).children)
        kids[1] = _hom(I2, I1)  # should start at I2.children[1] == I1
        with pytest.raises(ValueError, match="child 1 has the wrong domain"):
            ITreeMor(I2, I2, identity_ord(Ordinal(2)), tuple(kids))

    def test_interval_child_with_wrong_value_end(self):
        kids = list(identity(I2).children)
        kids[1] = _hom(I1, I2)  # should land in I2.children[1] == I1
        with pytest.raises(ValueError, match="child 1 has the wrong codomain"):
            ITreeMor(I2, I2, identity_ord(Ordinal(2)), tuple(kids))

    def test_ordinal_child_with_wrong_index_end(self):
        kids = list(identity(O1).children)
        kids[1] = _hom(O0, O1)  # should land in O1.children[1] == O0
        with pytest.raises(ValueError, match="child 1 has the wrong codomain"):
            ITreeMor(O1, O1, identity_ord(Ordinal(1)), tuple(kids))

    def test_ordinal_child_with_wrong_value_end(self):
        kids = list(identity(O1).children)
        kids[1] = marker(T_O, O0)  # should start at O1.children[1] == O0
        with pytest.raises(ValueError, match="child 1 has the wrong domain"):
            ITreeMor(O1, O1, identity_ord(Ordinal(1)), tuple(kids))

    @pytest.mark.parametrize("obj", [I2, O1], ids=[INTERVAL, ORDINAL])
    def test_wrong_child_count(self, obj):
        ident = identity(obj)
        for kids in (ident.children[:-1], ident.children + ident.children[:1]):
            with pytest.raises(ValueError, match="one child morphism per"):
                ITreeMor(obj, obj, ident.root_map, kids)

    def test_interval_root_map_must_preserve_endpoints(self):
        squash = OrdMap(Ordinal(1), Ordinal(1), (0, 0))
        with pytest.raises(ValueError, match="not an interval map"):
            ITreeMor(I1, I1, squash, (marker(T_I, T_I), marker(T_I, T_I)))

    def test_ordinal_root_map_need_not_preserve_endpoints(self):
        squash = OrdMap(Ordinal(1), Ordinal(1), (0, 0))
        assert ITreeMor(O1, O1, squash, _hom(O1, O1).children) in (
            enumerate_morphisms(O1, O1)
        )

    @pytest.mark.parametrize("obj", [I1, O0], ids=[INTERVAL, ORDINAL])
    def test_root_map_with_wrong_ends(self, obj):
        ident = identity(obj)
        wider = identity_ord(Ordinal(obj.root.n + 1))
        with pytest.raises(ValueError, match="root map has the wrong ends"):
            ITreeMor(obj, obj, wider, ident.children)

    def test_marker_on_the_wrong_side(self):
        # The trivial object is terminal for intervals, initial for ordinals.
        assert marker(I1, T_I).is_marker and marker(T_O, O0).is_marker
        with pytest.raises(ValueError, match="marker morphism"):
            marker(T_I, I1)
        with pytest.raises(ValueError, match="marker morphism"):
            marker(O0, T_O)

    @pytest.mark.parametrize("obj", [I1, O0], ids=[INTERVAL, ORDINAL])
    def test_marker_has_no_children(self, obj):
        t = trivial_obj(obj.flavor)
        dom, cod = (obj, t) if obj.flavor == INTERVAL else (t, obj)
        with pytest.raises(ValueError, match="marker morphism"):
            ITreeMor(dom, cod, None, (identity(t),))

    @pytest.mark.parametrize("obj", [I1, O0], ids=[INTERVAL, ORDINAL])
    def test_root_map_touching_the_trivial_object(self, obj):
        t = trivial_obj(obj.flavor)
        with pytest.raises(ValueError, match="use the marker form"):
            ITreeMor(t, t, identity_ord(t.root), ())

    def test_ends_must_share_a_flavor(self):
        with pytest.raises(ValueError, match="share a flavor"):
            ITreeMor(I1, O0, None)


class TestShapeTable:
    """The checks that depend only on ``(dom, cod, root_map)`` run once per
    shape through ``_child_ends``; the children are checked every time."""

    @pytest.mark.parametrize(
        "args, message",
        [
            ((I1, O0, None), "share a flavor"),
            ((T_I, I1, None), "marker morphism"),
            ((I1, I1, identity_ord(Ordinal(2))), "root map has the wrong ends"),
            ((I1, I1, OrdMap(Ordinal(1), Ordinal(1), (0, 0))), "not an interval"),
            ((T_O, T_O, identity_ord(Ordinal(-1))), "use the marker form"),
        ],
        ids=["flavor", "marker", "ends", "interval", "trivial"],
    )
    def test_rejected_shape_raises_every_time(self, args, message):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                ITreeMor(*args)

    @pytest.mark.parametrize("obj", [I2, O1], ids=[INTERVAL, ORDINAL])
    def test_children_are_checked_once_the_shape_is_stored(self, obj):
        ident = identity(obj)
        kids = ident.children
        wrong = _hom(I1, I2) if obj is I2 else _hom(O0, O1)
        swapped = (kids[1], kids[0], *kids[2:])
        _child_ends(obj, obj, ident.root_map)
        hits = _child_ends.cache_info().hits
        with pytest.raises(ValueError, match="child 0 has the wrong domain"):
            ITreeMor(obj, obj, ident.root_map, swapped)
        with pytest.raises(ValueError, match="child 1 has the wrong codomain"):
            ITreeMor(obj, obj, ident.root_map, (kids[0], wrong, *kids[2:]))
        assert _child_ends.cache_info().hits == hits + 2

    @pytest.mark.parametrize("flavor", [INTERVAL, ORDINAL])
    def test_children_have_the_routed_ends(self, flavor):
        spec = FLAVORS[flavor]
        objs = enumerate_objects(flavor, 3, 3)
        checked = 0
        for a in objs:
            for b in objs:
                for f in enumerate_morphisms(a, b):
                    if f.is_marker:
                        assert f.children == ()
                        continue
                    index, value = (b, a) if spec.cod_indexes else (a, b)
                    slots = spec.slot_map(f.root_map).images
                    assert len(f.children) == len(index.children)
                    for i, sub in enumerate(f.children):
                        ends = (index.children[i], value.children[slots[i]])
                        if spec.cod_indexes:
                            ends = ends[::-1]
                        assert (sub.dom, sub.cod) == ends
                        checked += 1
        assert checked


class TestDuality:
    def test_vee_objects(self):
        assert vee(T_I) == T_O
        assert vee(I1) == O0
        assert vee(I2) == O1

    def test_wedge_objects(self):
        assert wedge(T_O) == T_I
        assert wedge(O0) == I1
        assert wedge(O1) == I2

    def test_mutually_inverse_on_objects(self):
        for obj in enumerate_objects(INTERVAL, 3, 3):
            assert wedge(vee(obj)) == obj
        for obj in enumerate_objects(ORDINAL, 3, 3):
            assert vee(wedge(obj)) == obj

    def test_contravariant_bijection_on_homs(self):
        objs = [T_I, I1, I2, I3]
        for a in objs:
            for b in objs:
                homs = enumerate_morphisms(a, b)
                dual = {vee(f) for f in homs}
                assert len(dual) == len(homs)
                assert dual == set(enumerate_morphisms(vee(b), vee(a)))
                for f in homs:
                    assert wedge(vee(f)) == f

    def test_contravariant_functoriality(self):
        objs = [T_I, I1, I2]
        for a in objs:
            for b in objs:
                for c in objs:
                    for f in enumerate_morphisms(a, b):
                        for g in enumerate_morphisms(b, c):
                            assert vee(compose(g, f)) == compose(
                                vee(f), vee(g)
                            )


class TestEnumeration:
    def test_height_zero(self):
        assert enumerate_objects(INTERVAL, 0, 5) == [T_I]
        assert enumerate_objects(ORDINAL, 0, 5) == [T_O]

    def test_interval_objects_bounded(self):
        objs = enumerate_objects(INTERVAL, 3, 3)
        assert objs == [T_I, I1, I2, I3]

    def test_ordinal_objects_bounded(self):
        objs = enumerate_objects(ORDINAL, 2, 2)
        assert objs == [T_O, O0, O1]

    def test_counts_match_duality(self):
        interval_objs = enumerate_objects(INTERVAL, 3, 4)
        ordinal_objs = enumerate_objects(ORDINAL, 3, 3)
        assert len(interval_objs) == len(ordinal_objs)
        assert {vee(o) for o in interval_objs} == set(ordinal_objs)

    @pytest.mark.parametrize("flavor, max_root", [(ORDINAL, 3), (INTERVAL, 4)])
    def test_height_four_counts(self, flavor, max_root):
        objs = enumerate_objects(flavor, 4, max_root)
        assert len(objs) == 184
        assert len(set(objs)) == len(objs)


def default_objects() -> list[ITreeObj]:
    b = Bounds()
    return [
        *enumerate_objects(INTERVAL, b.max_height, b.max_label),
        *enumerate_objects(ORDINAL, b.max_height, b.max_label),
    ]


def dual(h: ITreeObj) -> ITreeObj:
    return vee(h) if h.flavor == INTERVAL else wedge(h)


class TestSharedTrees:
    """Interned objects, morphism hashes and the memoized ``vee``/``wedge``
    must agree with fresh constructions."""

    def test_trivial_object_is_shared(self):
        for flavor in (INTERVAL, ORDINAL):
            assert trivial_obj(flavor) is trivial_obj(flavor)

    def test_rebuilt_trees_are_the_stored_object(self):
        for h in default_objects():
            dual(h)  # warm the tables with h itself
            assert ITreeObj.from_dict(h.to_dict()) is h
            assert dual(ITreeObj.from_dict(h.to_dict())) is dual(h)

    def test_omitted_children_name_the_trivial_object(self):
        for flavor in (INTERVAL, ORDINAL):
            root = trivial_obj(flavor).root
            assert ITreeObj(flavor, root) is ITreeObj(flavor, root, ())
            assert ITreeObj(flavor, root=root) is trivial_obj(flavor)
            assert ITreeObj(children=(), root=root, flavor=flavor) is (
                trivial_obj(flavor)
            )
        assert ITreeObj(INTERVAL, Ordinal(1), children=(T_I, T_I)) is I1

    def test_invalid_object_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="requires 3 children"):
                ITreeObj(INTERVAL, Ordinal(2), (T_I, T_I))
        for _ in range(2):
            with pytest.raises(ValueError, match="has root"):
                ITreeObj(ORDINAL, Ordinal(0))
        for _ in range(2):
            with pytest.raises(ValueError, match="share the parent's flavor"):
                ITreeObj(INTERVAL, Ordinal(1), (T_O, T_O))

    def test_pickle_and_copy_return_the_interned_object(self):
        for h in default_objects():
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(h, protocol)) is h
            assert copy.copy(h) is h
            assert copy.deepcopy(h) is h

    def test_pickled_morphisms_are_equal_with_equal_hashes(self):
        for f in enumerate_morphisms(O1, O1) + enumerate_morphisms(I3, I2):
            hash(f)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                clone = pickle.loads(pickle.dumps(f, protocol))
                assert clone == f and hash(clone) == hash(f)
                assert clone.dom is f.dom and clone.cod is f.cod

    def test_wrong_flavor_still_rejected_when_warm(self):
        objs = default_objects()
        for h in objs:
            dual(h)
        for h in objs:
            wrong = wedge if h.flavor == INTERVAL else vee
            with pytest.raises(ValueError, match="consumes"):
                wrong(h)
            with pytest.raises(ValueError, match="consumes"):
                wrong(identity(h))

    def test_unpickled_in_another_hash_seed_works_as_a_dict_key(self):
        # The hash of a flavor string differs between hash seeds, so a
        # table key must not travel to another process.
        mors = enumerate_morphisms(O1, O1)
        hash(mors[-1])
        code = (
            "import pickle, sys; "
            "from theta_disk.itree import ITreeObj, enumerate_morphisms; "
            "h, f = pickle.loads(sys.stdin.buffer.read()); "
            "assert {h: 1}[ITreeObj.from_dict(h.to_dict())] == 1; "
            "assert ITreeObj(h.flavor, h.root, h.children) is h; "
            "assert {f: 1}[enumerate_morphisms(h, h)[-1]] == 1"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
        source_root = str(Path(theta_disk.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (source_root, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            input=pickle.dumps((O1, mors[-1])),
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr.decode()


def _unchecked(*fields) -> ITreeMor:
    """An ``ITreeMor`` built past its checks, as no route of the module may."""
    return tuple.__new__(ITreeMor, fields)


# Each route that builds a morphism from an existing one.
REBUILDS = {
    **{
        f"pickle-{p}": lambda f, p=p: pickle.loads(pickle.dumps(f, p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    },
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _nodes(f: ITreeMor) -> set[int]:
    """The ids of ``f`` and of every child morphism below it."""
    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            stack.extend(g.children)
    return seen


class TestTupleForm:
    """``ITreeMor`` is a tuple whose every construction runs the checks;
    equality and hashing are the tuple's own."""

    def test_no_python_level_equality_or_hash(self):
        assert issubclass(ITreeMor, tuple)
        for name in ("__eq__", "__ne__", "__hash__"):
            assert name not in vars(ITreeMor), name
        # no namedtuple helpers, which would build a morphism unchecked
        assert not hasattr(ITreeMor, "_make") and not hasattr(ITreeMor, "_replace")
        assert ITreeMor.__slots__ == ()

    def test_equals_the_plain_tuple_of_its_fields(self):
        f = enumerate_morphisms(O1, O1)[-1]
        fields = (f.dom, f.cod, f.root_map, f.children)
        assert tuple(f) == fields and f == fields and hash(f) == hash(fields)
        assert ITreeMor(*fields) == f and ITreeMor(*fields) is not f

    def test_fields_flavor_and_marker(self):
        f = marker(I1, T_I)
        assert (f.dom, f.cod, f.root_map, f.children) == (I1, T_I, None, ())
        assert f.is_marker and f.flavor == INTERVAL
        g = identity(O1)
        assert not g.is_marker and g.flavor == ORDINAL
        assert g.root_map == identity_ord(Ordinal(1))

    def test_repr_names_every_field(self):
        assert repr(marker(T_O, O0)) == (
            f"ITreeMor(dom={T_O!r}, cod={O0!r}, root_map=None, children=())"
        )
        g = identity(I1)
        assert repr(g) == (
            f"ITreeMor(dom={I1!r}, cod={I1!r}, root_map={g.root_map!r}, "
            f"children=({g.children[0]!r}, {g.children[1]!r}))"
        )

    @pytest.mark.parametrize("route", REBUILDS.values(), ids=REBUILDS.keys())
    @pytest.mark.parametrize("obj", [I2, O1], ids=[INTERVAL, ORDINAL])
    def test_every_route_rejects_a_wrong_child(self, obj, route):
        ident = identity(obj)
        kids = ident.children
        swapped = (kids[1], kids[0], *kids[2:])
        with pytest.raises(ValueError, match="child 0 has the wrong domain"):
            ITreeMor(obj, obj, ident.root_map, swapped)
        with pytest.raises(ValueError, match="child 0 has the wrong domain"):
            route(_unchecked(obj, obj, ident.root_map, swapped))

    @pytest.mark.parametrize("route", REBUILDS.values(), ids=REBUILDS.keys())
    def test_every_route_rejects_a_bad_shape(self, route):
        with pytest.raises(ValueError, match="marker morphism"):
            route(_unchecked(T_I, I1, None, ()))

    @pytest.mark.parametrize("route", REBUILDS.values(), ids=REBUILDS.keys())
    def test_valid_clones_are_equal_with_equal_hashes(self, route):
        for f in enumerate_morphisms(O1, O1) + enumerate_morphisms(I3, I2):
            clone = route(f)
            assert type(clone) is ITreeMor
            assert clone == f and hash(clone) == hash(f)
            assert clone.dom is f.dom and clone.cod is f.cod

    @pytest.mark.parametrize("name", ["constructor", *REBUILDS])
    def test_a_rebound_initializer_counts_every_construction(self, monkeypatch, name):
        # The benchmark's tracer counts constructions by rebinding the hook.
        original = ITreeMor.__post_init__
        counted = []

        def counting(obj) -> None:
            counted.append(obj)
            original(obj)

        monkeypatch.setattr(ITreeMor, "__post_init__", counting)
        f = enumerate_morphisms(O1, O1)[-1]
        counted.clear()
        if name == "constructor":
            clone, expected = ITreeMor(*f), 1
        else:
            # copy keeps the children; pickle and deepcopy rebuild each once
            clone = REBUILDS[name](f)
            expected = 1 if name == "copy" else len(_nodes(f))
        assert len(counted) == expected > 0
        assert any(g is clone for g in counted)
