"""Tests for labeled trees: fiber constraints, dualities, and conversions."""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
from functools import partial
from itertools import product

import pytest

from theta_disk import labeled
from theta_disk.disk import Disk
from theta_disk.forest import (
    POINT_TREE,
    LevelTree,
    TreeMap,
    Vertex,
    fiber_slots,
    fibers,
    glue_level_maps,
    graft,
    make_level_tree,
    restrict,
    subtree_rows,
)
from theta_disk.itree import (
    FLAVORS,
    INTERVAL,
    ORDINAL,
    ITreeMor,
    ITreeObj,
    compose as compose_itree,
    enumerate_morphisms,
    enumerate_objects,
    identity as identity_itree,
    marker,
    trivial_obj,
    trivial_root,
    vee,
    wedge,
)
from theta_disk.labeled import (
    LabeledTree,
    LabeledTreeMor,
    compose_labeled,
    con_dualize,
    con_dualize_mor,
    count_labeled_mors,
    enumerate_cropped_trees,
    enumerate_labeled_mors,
    identity_labeled,
    trivial_labeled,
    xi_interval,
    xi_interval_mor,
    xi_inverse,
    xi_ordinal,
    xi_ordinal_mor,
)
from theta_disk.ordinal import (
    OrdMap,
    Ordinal,
    compose as compose_ord,
    identity as identity_ord,
    vee_map,
    vee_obj,
    wedge_map,
    wedge_obj,
)

from tests.test_forest import restrict_map


def o(n: int) -> Ordinal:
    return Ordinal(n)


def labs(*ns: int) -> tuple[Ordinal, ...]:
    return tuple(Ordinal(n) for n in ns)


def declared(flavor: str, tree: LevelTree, rows) -> dict:
    """A labeled-tree input on ``tree`` that declares the label ``rows``."""
    return {
        "kind": "labeled-tree",
        "flavor": flavor,
        "levels": list(tree.levels),
        "parents": [list(p) for p in tree.parents],
        "labels": [[lab.n for lab in row] for row in rows],
    }


def single_root_level_trees(max_vertices: int) -> list[LevelTree]:
    """Every single-root level tree with at most ``max_vertices`` stored
    vertices and no empty level: each parent map of each sequence of level
    sizes, kept where ``LevelTree`` accepts it."""
    found = []

    def grow(levels: tuple, parents: tuple, budget: int) -> None:
        try:
            found.append(LevelTree(levels, parents))
        except ValueError:
            pass  # the top parent map is a bijection; deeper levels may fix it
        for size in range(1, budget + 1):
            for row in product(range(levels[-1]), repeat=size):
                grow(levels + (size,), parents + (row,), budget - size)

    grow((1,), (), max_vertices - 1)
    return found


def restrict_labeled_mor(m: LabeledTreeMor, x: Vertex) -> LabeledTreeMor:
    """Oracle: the morphism induced between the subtrees over ``x`` and its
    image, built and validated whole.

    ``x`` addresses the side that indexes the components: the domain for
    the interval flavor, the codomain for the ordinal flavor.
    """
    orient = FLAVORS[m.flavor].orient
    index, value = orient(m.dom, m.cod)
    sub_index = LabeledTree(m.flavor, restrict(index.tree, x))
    sub_value = LabeledTree(m.flavor, restrict(value.tree, m.tree_map(x)))
    return LabeledTreeMor(*orient(sub_index, sub_value), restrict_map(m.tree_map, x))


def component(m: LabeledTreeMor, x: Vertex) -> OrdMap:
    """The component of ``m`` at vertex ``x`` of its index end, following
    the implicit chain continuation past the stored depth."""
    if x[0] < len(m.alphas):
        return m.alphas[x[0]][x[1]]
    return identity_ord(trivial_root(m.flavor))


def brute_force_tree_maps(index: LevelTree, value: LevelTree) -> list[TreeMap]:
    """Oracle: every tree map between the single-root trees ``index`` and
    ``value``, trying at each level every choice of a child of each
    parent's image."""
    found = [((0,) * index.levels[0],)] if value.levels[0] else []
    for n in range(1, max(index.depth, value.depth) + 1):
        size = index.level_size(n)
        parents = index.parents[n - 1] if n <= index.depth else range(size)
        found = [
            maps + (row,)
            for maps in found
            for row in product(*(fibers(value, n - 1)[maps[-1][p]] for p in parents))
        ]
    return [TreeMap(index, value, maps) for maps in found]


def accepts(a: LabeledTree, b: LabeledTree, f: TreeMap) -> bool:
    """Whether ``LabeledTreeMor(a, b, f)`` can be built."""
    try:
        LabeledTreeMor(a, b, f)
    except ValueError:
        return False
    return True


def xi_mor_by_restriction(m: LabeledTreeMor) -> ITreeMor:
    """Oracle: the ``xi`` image of a morphism, recursing through whole
    restricted morphisms."""
    xi = xi_interval if m.flavor == INTERVAL else xi_ordinal
    dom_obj, cod_obj = xi(m.dom), xi(m.cod)
    orient = FLAVORS[m.flavor].orient
    if orient(dom_obj, cod_obj)[1].is_trivial:
        return marker(dom_obj, cod_obj)
    kids = tuple(
        xi_mor_by_restriction(restrict_labeled_mor(m, (1, j)))
        for j in fibers(orient(m.dom, m.cod)[0].tree, 0)[0]
    )
    return ITreeMor(dom_obj, cod_obj, m.alphas[0][0], kids)


def xi_mor_by_restricted_ends(flavor: str, f: TreeMap, slots, x: Vertex) -> ITreeMor:
    """Reference for ``labeled._xi_mor``: the reading between the subtrees
    over ``x`` and ``f(x)``, each end restricted and read by ``xi_obj``,
    its component read off the slots of ``x``'s children."""
    orient = FLAVORS[flavor].orient
    here = labeled.xi_obj(flavor, restrict(f.dom, x))
    there = labeled.xi_obj(flavor, restrict(f.cod, f(x)))
    if there.is_trivial:
        return marker(*orient(here, there))
    n, i = x
    kids = tuple(
        xi_mor_by_restricted_ends(flavor, f, slots, (n + 1, j))
        for j in fibers(f.dom, n)[i]
    )
    return ITreeMor(*orient(here, there), labeled._component(flavor, slots[n][i]), kids)


DEEP_TREE = make_level_tree(
    (1, 3, 6, 9, 10),
    (
        (0, 0, 0),
        (0, 1, 1, 1, 1, 2),
        (0, 1, 2, 2, 3, 3, 3, 4, 5),
        (0, 1, 2, 3, 4, 5, 5, 6, 7, 8),
    ),
)
DEEP_LABELS = (
    labs(2),
    labs(0, 3, 0),
    labs(0, 0, 1, 2, 0, 0),
    labs(0, 0, 0, 0, 0, 1, 0, 0, 0),
    labs(0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
)


def deep() -> LabeledTree:
    return LabeledTree(INTERVAL, DEEP_TREE)


TI = trivial_obj(INTERVAL)
TO = trivial_obj(ORDINAL)
I1 = ITreeObj(INTERVAL, o(1), (TI, TI))
I2 = ITreeObj(INTERVAL, o(2), (TI, I1, TI))
O0 = ITreeObj(ORDINAL, o(0), (TO, TO))
O1 = ITreeObj(ORDINAL, o(1), (TO, O0, TO))


class TestLabeledTreeBasics:
    def test_row_count_must_match_levels(self):
        with pytest.raises(ValueError, match="one label row per stored level"):
            LabeledTree.from_dict(declared(INTERVAL, POINT_TREE, ()))

    def test_row_arity_must_match_level_size(self):
        with pytest.raises(ValueError, match="wrong arity"):
            LabeledTree.from_dict(declared(INTERVAL, POINT_TREE, (labs(0, 0),)))

    def test_interval_labels_start_at_zero(self):
        # ``[-1]`` prescribes no child slot in the interval flavor and one in
        # the ordinal flavor.
        with pytest.raises(ValueError, match="prescribing 0 children"):
            LabeledTree.from_dict(declared(INTERVAL, POINT_TREE, (labs(-1),)))
        parsed = LabeledTree.from_dict(declared(ORDINAL, POINT_TREE, (labs(-1),)))
        assert parsed.is_trivial

    def test_label_slots(self):
        # Each label prescribes as many child slots as its vertex has
        # children, past the stored depth too.
        for flavor, cap in ((INTERVAL, 4), (ORDINAL, 3)):
            slots = FLAVORS[flavor].slots
            for t in enumerate_cropped_trees(flavor, 3, cap):
                for n in range(t.depth + 2):
                    for i, kids in enumerate(fibers(t.tree, min(n, t.depth))):
                        assert slots(t.label((n, i))) == len(kids)

    def test_label_lookup_follows_continuation(self):
        t = deep()
        assert t.label((0, 0)) == o(2)
        assert t.label((2, 3)) == o(2)
        assert t.label((7, 9)) == o(0)
        with pytest.raises(ValueError, match="unknown vertex"):
            t.label((1, 3))

    def test_trivial_trees(self):
        for flavor in (INTERVAL, ORDINAL):
            t = trivial_labeled(flavor)
            assert t.is_trivial
            assert t.labels == ((trivial_root(flavor),),)
        assert not deep().is_trivial

    def test_equal_trees_of_one_class_are_one_object(self):
        t = deep()
        assert deep() is t
        keywords = dict(tree=DEEP_TREE, flavor=INTERVAL)
        assert LabeledTree(**keywords) is t
        assert LabeledTree.from_dict(t.to_dict()) is t
        assert t != trivial_labeled(INTERVAL)
        hash(t)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(t, protocol)) is t
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t

    def test_invalid_tree_raises_every_time(self):
        fan = make_level_tree((1, 3), ((0, 0, 0),))
        for _ in range(2):
            with pytest.raises(ValueError, match="invalid disk: level 1"):
                LabeledTree(INTERVAL, fan)

    def test_serialization_round_trip(self):
        for t in (deep(), trivial_labeled(ORDINAL)):
            data = t.to_dict()
            assert data["kind"] == "labeled-tree"
            assert LabeledTree.from_dict(data) == t

    def test_from_dict_truncates_chain_storage(self):
        data = {
            "kind": "labeled-tree",
            "flavor": INTERVAL,
            "levels": [1, 1],
            "parents": [[0]],
            "labels": [[0], [0]],
        }
        assert LabeledTree.from_dict(data) == trivial_labeled(INTERVAL)


class TestConstrainedValidation:
    # An input's label rows must be the labels its fiber sizes prescribe.
    def test_example_tree_is_constrained_and_cropped(self):
        t = deep()
        assert t.labels == DEEP_LABELS
        assert LabeledTree.from_dict(declared(INTERVAL, DEEP_TREE, DEEP_LABELS)) is t
        assert xi_inverse(xi_interval(t)) is t

    def test_fiber_size_must_match_label(self):
        rows = (DEEP_LABELS[0], labs(0, 2, 0)) + DEEP_LABELS[2:]
        with pytest.raises(
            ValueError,
            match=r"vertex \(1, 1\) has label \[2\] prescribing 3 children but "
            "its fiber has 4",
        ):
            LabeledTree.from_dict(declared(INTERVAL, DEEP_TREE, rows))

    def test_parent_rows_must_be_sorted(self):
        shape = make_level_tree((1, 2, 3), ((0, 0), (1, 0, 1)))
        with pytest.raises(ValueError, match="parent map at step 1 is not monotone"):
            LabeledTree(INTERVAL, shape)
        rows = (labs(1), labs(0, 1), labs(0, 0, 0))
        with pytest.raises(ValueError, match="not monotone"):
            LabeledTree.from_dict(declared(INTERVAL, shape, rows))

    def test_stored_depth_must_end_at_single_slot_labels(self):
        with pytest.raises(
            ValueError, match=r"vertex \(0, 0\) has label \[2\] prescribing 3"
        ):
            LabeledTree.from_dict(declared(INTERVAL, POINT_TREE, (labs(2),)))


class TestCroppedValidation:
    def test_interior_single_slot_label_is_reported(self):
        shape = make_level_tree((1, 3), ((0, 0, 0),))
        message = (
            r"invalid disk: level 1: vertices with singleton fibers are "
            r"\[0, 1, 2\] but the fiber endpoints from below are \[0, 2\]"
        )
        for flavor in (INTERVAL, ORDINAL):
            with pytest.raises(ValueError, match=message):
                LabeledTree(flavor, shape)
        rows = (labs(2), labs(0, 0, 0))
        with pytest.raises(ValueError, match=message):
            LabeledTree.from_dict(declared(INTERVAL, shape, rows))

    def test_outer_positions_must_be_single_slot(self):
        shape = make_level_tree((1, 2, 3), ((0, 0), (0, 0, 1)))
        with pytest.raises(
            ValueError,
            match=r"level 1: vertices with singleton fibers are \[1\] but the "
            r"fiber endpoints from below are \[0, 1\]",
        ):
            LabeledTree(INTERVAL, shape)

    def test_disks_and_both_flavors_accept_the_same_trees(self):
        # A disk is the cropped interval tree on its tree, and the ordinal
        # one lives on the same trees: one rule, one message.  Where they
        # build, each label prescribes the disk's fiber size.
        trees = single_root_level_trees(8)
        kept = 0
        for tree in trees:
            outcomes = []
            for build in (Disk, *(partial(LabeledTree, f) for f in FLAVORS)):
                try:
                    outcomes.append(build(tree))
                except ValueError as problem:
                    outcomes.append(str(problem))
            disk, *cropped = outcomes
            if isinstance(disk, str):
                assert cropped == [disk, disk]
                continue
            kept += 1
            for t in cropped:
                slots = FLAVORS[t.flavor].slots
                sizes = [[slots(lab) for lab in row] for row in t.labels[:-1]]
                assert sizes == disk.to_dict()["fiber_sizes"]
        assert (len(trees), kept) == (966, 3)


class TestRestrict:
    # A restriction of a cropped tree is the cropped tree on the restricted
    # level tree.
    def test_restrict_at_root_is_identity(self):
        assert LabeledTree(INTERVAL, restrict(DEEP_TREE, (0, 0))) is deep()

    def test_restrict_at_branch_vertex(self):
        sub = LabeledTree(INTERVAL, restrict(DEEP_TREE, (1, 1)))
        assert sub.tree == make_level_tree(
            (1, 4, 7, 8),
            ((0, 0, 0, 0), (0, 1, 1, 2, 2, 2, 3), (0, 1, 2, 3, 4, 4, 5, 6)),
        )
        assert sub.labels == (
            labs(3),
            labs(0, 1, 2, 0),
            labs(0, 0, 0, 0, 1, 0, 0),
            labs(0, 0, 0, 0, 0, 0, 0, 0),
        )

    def test_restrict_at_chain_vertex_collapses(self):
        for x in ((1, 0), (6, 9)):
            sub = LabeledTree(INTERVAL, restrict(DEEP_TREE, x))
            assert sub is trivial_labeled(INTERVAL)

    def test_restriction_preserves_cropped(self):
        t = deep()
        for n, size in enumerate(t.tree.levels):
            for i in range(size):
                sub = LabeledTree(INTERVAL, restrict(t.tree, (n, i)))
                assert sub.tree is restrict(t.tree, (n, i))

    def test_rows_are_the_vertex_labels(self):
        for t in (deep(), con_dualize(deep())):
            for n in range(t.depth + 2):
                for i in range(t.tree.level_size(n)):
                    sub = LabeledTree(t.flavor, restrict(t.tree, (n, i)))
                    rows = subtree_rows(t.tree, (n, i))
                    assert sub.labels == tuple(
                        tuple(t.label((n + k, j)) for j in rows[k])
                        for k in range(sub.depth + 1)
                    )


class TestSuspendCoproduct:
    # ``xi_inverse`` grafts its children's level trees onto a new root
    # and labels the result by its fiber sizes.
    def test_suspending_one_trivial_tree_gives_the_trivial_tree(self):
        for flavor in (INTERVAL, ORDINAL):
            t = LabeledTree(flavor, graft([POINT_TREE]))
            assert t is trivial_labeled(flavor)
            assert t.labels == ((trivial_root(flavor),),)

    def test_suspension_places_one_tree_per_slot(self):
        fan = make_level_tree((1, 2), ((0, 0),))
        li1 = xi_inverse(I1)
        assert li1 is LabeledTree(INTERVAL, fan)
        assert li1.labels == (labs(1), labs(0, 0))
        lo0 = xi_inverse(O0)
        assert lo0 is LabeledTree(ORDINAL, fan)
        assert lo0.labels == (labs(0), labs(-1, -1))
        s = LabeledTree(ORDINAL, make_level_tree((1, 3, 4), ((0, 0, 0), (0, 1, 1, 2))))
        assert s.labels == (labs(1), labs(-1, 0, -1), labs(-1, -1, -1, -1))
        assert s is xi_inverse(O1)

    def test_coproduct_pads_shallow_summands_with_chains(self):
        # The trivial children beside ``I1`` continue as chains, whose
        # vertices carry the single-slot label.
        t = LabeledTree(
            INTERVAL, make_level_tree((1, 3, 4), ((0, 0, 0), (0, 1, 1, 2)))
        )
        assert t.labels == (labs(2), labs(0, 1, 0), labs(0, 0, 0, 0))
        assert xi_inverse(I2) is t

    def test_singleton_interior_slots_break_croppedness_only(self):
        # The star's labels fit its fibers, so only the cropped rule
        # refuses it.
        fan = make_level_tree((1, 3), ((0, 0, 0),))
        star = declared(ORDINAL, fan, (labs(1), labs(-1, -1, -1)))
        with pytest.raises(ValueError, match="invalid disk: level 1"):
            LabeledTree.from_dict(star)


class TestMorphisms:
    @pytest.mark.parametrize(
        "flavor, height, max_root, count, digest",
        [
            (
                INTERVAL,
                3,
                3,
                26,
                "74a7061753a16bebbca06643ff4b0149125a7bf3370311b4e3023b0833bc1fc5",
            ),
            (
                ORDINAL,
                3,
                2,
                26,
                "c477e42b23c6594571f64ed349074c21f483e985763680e2eb2832b5bfc268ed",
            ),
            (
                INTERVAL,
                4,
                3,
                55,
                "bbf49ff7086b52a18de07582c7a14cb4b5227db81493915c6dcc68e69d4c9c68",
            ),
            (
                ORDINAL,
                4,
                2,
                55,
                "69dc43c4b9838740818b22d292d20033ceb6a7aa564af7231ece9a3422c4ed6c",
            ),
        ],
        ids=[INTERVAL, ORDINAL, f"{INTERVAL}-height4", f"{ORDINAL}-height4"],
    )
    def test_enumerated_morphisms_are_pinned(
        self, flavor, height, max_root, count, digest
    ):
        trees = enumerate_cropped_trees(flavor, height, max_root)
        rows = []
        for a in trees:
            for b in trees:
                homs = enumerate_labeled_mors(a, b)
                assert count_labeled_mors(a, b) == len(homs)
                rows.extend(m.to_dict() for m in homs)
        assert len(rows) == count
        text = json.dumps(rows, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "flavor, max_root, digest",
        [
            (
                INTERVAL,
                3,
                "cdc35297d7b7b0134e78317373524abde9b724d9844abae500c39d972e23ff0e",
            ),
            (
                ORDINAL,
                2,
                "cdcc79c578b80df43495ae4626359aa2ae7cfeb19700f399e10a69604717d132",
            ),
        ],
        ids=[INTERVAL, ORDINAL],
    )
    def test_restrictions_and_composites_are_pinned(
        self, flavor, max_root, digest
    ):
        # Restricted at every vertex of the side that indexes the
        # components: the domain for intervals, the codomain for ordinals.
        trees = enumerate_cropped_trees(flavor, 3, max_root)
        homs = {(a, b): enumerate_labeled_mors(a, b) for a in trees for b in trees}
        rows = []
        for (a, b), fs in homs.items():
            for f in fs:
                index = f.dom if flavor == INTERVAL else f.cod
                for n in range(index.depth + 1):
                    for i in range(index.tree.levels[n]):
                        rows.append(restrict_labeled_mor(f, (n, i)).to_dict())
                for c in trees:
                    for g in homs[(b, c)]:
                        rows.append(compose_labeled(g, f).to_dict())
        assert len(rows) == 469
        text = json.dumps(rows, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @staticmethod
    def declared(m: LabeledTreeMor, alphas) -> dict:
        """``m`` serialized with the given component rows."""
        data = m.to_dict()
        data["alphas"] = [[a.to_dict() for a in row] for row in alphas]
        return data

    @pytest.mark.parametrize("flavor", [INTERVAL, ORDINAL])
    def test_components_must_run_between_the_labels(self, flavor):
        t = xi_inverse(I2 if flavor == INTERVAL else O1)
        ident = identity_labeled(t)
        wider = OrdMap(o(2), o(2), (0, 1, 2))
        rows = (ident.alphas[0], (ident.alphas[1][0], wider, ident.alphas[1][2]))
        rows += ident.alphas[2:]
        with pytest.raises(ValueError, match="components disagree"):
            LabeledTreeMor.from_dict(self.declared(ident, rows))

    @pytest.mark.parametrize("flavor", [INTERVAL, ORDINAL])
    def test_one_component_row_per_index_level(self, flavor):
        t = xi_inverse(I2 if flavor == INTERVAL else O1)
        ident = identity_labeled(t)
        with pytest.raises(ValueError, match="components disagree"):
            LabeledTreeMor.from_dict(self.declared(ident, ident.alphas[:-1]))
        short = ident.alphas[:1] + (ident.alphas[1][:2],) + ident.alphas[2:]
        with pytest.raises(ValueError, match="components disagree"):
            LabeledTreeMor.from_dict(self.declared(ident, short))

    @pytest.mark.parametrize("h", [I2, O1], ids=[INTERVAL, ORDINAL])
    def test_fiber_slots_are_kept_but_neither_compared_nor_shown(self, h):
        t = xi_inverse(h)
        f = identity_labeled(t)
        assert f.slots == fiber_slots(f.tree_map)
        assert "slots" not in repr(f)
        g = LabeledTreeMor(t, t, f.tree_map)
        object.__setattr__(g, "slots", ())
        assert g == f and hash(g) == hash(f)

    def test_identity_is_accepted_and_composes(self):
        for t in (deep(), trivial_labeled(INTERVAL), trivial_labeled(ORDINAL)):
            ident = identity_labeled(t)
            assert ident.dom == t and ident.cod == t
            assert compose_labeled(ident, ident) == ident

    def test_interval_components_must_preserve_endpoints(self):
        t = xi_inverse(I2)
        ident = identity_labeled(t)
        squashed = OrdMap(o(1), o(1), (0, 0))
        rows = (
            ident.alphas[0],
            (ident.alphas[1][0], squashed, ident.alphas[1][2]),
            ident.alphas[2],
        )
        with pytest.raises(ValueError, match="components disagree"):
            LabeledTreeMor.from_dict(self.declared(ident, rows))

    def test_children_must_follow_the_component_slots(self):
        t = xi_inverse(I2)
        ident = identity_labeled(t)
        rerouted = TreeMap(
            t.tree, t.tree, (ident.tree_map.level_maps[0], (0, 1, 2), (0, 2, 1, 3))
        )
        with pytest.raises(ValueError, match="level-1 vertex 1 is not mapped"):
            LabeledTreeMor(t, t, rerouted)

    def test_op_morphism_tree_map_direction_is_enforced(self):
        s = xi_inverse(O0)
        t = trivial_labeled(ORDINAL)
        forward = TreeMap(t.tree, s.tree, ((0,), (0,)))
        with pytest.raises(ValueError, match="codomain's tree"):
            LabeledTreeMor(t, s, forward)

    def test_morphism_ends_must_be_cropped(self):
        # An end that is not cropped is refused before any morphism is built.
        rows = (labs(2), labs(0, 0, 0))
        star = declared(INTERVAL, make_level_tree((1, 3), ((0, 0, 0),)), rows)
        end = identity_labeled(xi_inverse(I2)).to_dict()
        for side in ("dom", "cod"):
            with pytest.raises(ValueError, match="invalid disk: level 1"):
                LabeledTreeMor.from_dict({**end, side: star})

    def test_hand_counted_hom_sets(self):
        li1, li2 = xi_inverse(I1), xi_inverse(I2)
        assert len(enumerate_labeled_mors(li1, li1)) == 1
        assert len(enumerate_labeled_mors(li1, li2)) == 1
        assert len(enumerate_labeled_mors(li2, li1)) == 2
        assert len(enumerate_labeled_mors(li2, li2)) == 3

    @pytest.mark.parametrize("h", [I2, O1], ids=[INTERVAL, ORDINAL])
    def test_returned_morphisms_are_new_and_validated(self, monkeypatch, h):
        t = xi_inverse(h)
        first = enumerate_labeled_mors(t, t)
        second = enumerate_labeled_mors(t, t)
        assert first == second and first is not second
        assert all(f is not g for f, g in zip(first, second))

        def corrupt_glue(*args):
            """``glue_level_maps`` with the root sent off the tree."""
            return ((1,), *glue_level_maps(*args)[1:])

        # The child tables of ``t -> t`` are filled above, so only the
        # returned morphisms are glued by the corrupt function.
        monkeypatch.setattr(labeled, "glue_level_maps", corrupt_glue)
        with pytest.raises(ValueError, match="out of range"):
            enumerate_labeled_mors(t, t)

    @pytest.mark.parametrize(
        "flavor, count", [(INTERVAL, 56), (ORDINAL, 498)], ids=[INTERVAL, ORDINAL]
    )
    def test_composites_and_duals_act_on_the_components(self, flavor, count):
        # Components are read off the tree map.  A composite's component is
        # the composite of its factors' components, in the flavor's order; a
        # dual's are the duals of the original's; a parsed morphism's are
        # the ones it was written with.
        pool = enumerate_cropped_trees(flavor, 2, 3)
        homs = {(a, b): enumerate_labeled_mors(a, b) for a in pool for b in pool}
        orient = FLAVORS[flavor].orient
        dual = vee_map if flavor == INTERVAL else wedge_map
        checked = 0
        for (a, b), fs in homs.items():
            for f in fs:
                for g in (g for c in pool for g in homs[b, c]):
                    first, second = orient(f, g)

                    def composite(n: int, i: int) -> OrdMap:
                        after = component(second, first.tree_map((n, i)))
                        return compose_ord(*orient(after, first.alphas[n][i]))

                    expected = tuple(
                        tuple(composite(n, i) for i in range(len(row)))
                        for n, row in enumerate(first.alphas)
                    )
                    assert compose_labeled(g, f).alphas == expected
                    checked += 1
                duals = tuple(tuple(map(dual, row)) for row in f.alphas)
                assert con_dualize_mor(f).alphas == duals
                assert LabeledTreeMor.from_dict(f.to_dict()).alphas == f.alphas
                checked += 2
        assert checked == count

    @pytest.mark.parametrize(
        "flavor, height, max_root, tried, accepted",
        [
            (INTERVAL, 3, 3, 4520, 26),
            (INTERVAL, 2, 4, 4728, 35),
            (ORDINAL, 3, 2, 4520, 26),
            (ORDINAL, 2, 3, 4728, 35),
        ],
    )
    def test_accepts_exactly_the_listed_tree_maps(
        self, flavor, height, max_root, tried, accepted
    ):
        pool = enumerate_cropped_trees(flavor, height, max_root)
        orient = FLAVORS[flavor].orient
        maps = kept = 0
        for a in pool:
            for b in pool:
                candidates = brute_force_tree_maps(*orient(a.tree, b.tree))
                listed = {m.tree_map for m in enumerate_labeled_mors(a, b)}
                assert {f for f in candidates if accepts(a, b, f)} == listed
                maps += len(candidates)
                kept += len(listed)
        assert (maps, kept) == (tried, accepted)

    def test_trivial_interval_tree_is_terminal(self):
        for h in enumerate_objects(INTERVAL, 2, 3):
            t = xi_inverse(h)
            assert len(enumerate_labeled_mors(t, trivial_labeled(INTERVAL))) == 1
            expected = 1 if h.is_trivial else 0
            assert (
                len(enumerate_labeled_mors(trivial_labeled(INTERVAL), t))
                == expected
            )

    def test_trivial_ordinal_tree_is_initial(self):
        for h in enumerate_objects(ORDINAL, 2, 2):
            t = xi_inverse(h)
            assert len(enumerate_labeled_mors(trivial_labeled(ORDINAL), t)) == 1
            expected = 1 if h.is_trivial else 0
            assert (
                len(enumerate_labeled_mors(t, trivial_labeled(ORDINAL)))
                == expected
            )

    def test_restriction_of_morphisms(self):
        li2 = xi_inverse(I2)
        ident = identity_labeled(li2)
        sub = restrict_labeled_mor(ident, (1, 1))
        assert sub == identity_labeled(xi_inverse(I1))

    def test_serialization_round_trip(self):
        li1, li2 = xi_inverse(I1), xi_inverse(I2)
        m = enumerate_labeled_mors(li2, li1)[0]
        data = m.to_dict()
        assert data["kind"] == "labeled-tree-mor"
        assert data["direction"] == "forward"
        assert LabeledTreeMor.from_dict(data) == m
        lo0, lo1 = xi_inverse(O0), xi_inverse(O1)
        n = enumerate_labeled_mors(lo0, lo1)[0]
        data = n.to_dict()
        assert data["direction"] == "op"
        assert LabeledTreeMor.from_dict(data) == n
        data["direction"] = "forward"
        with pytest.raises(ValueError, match="does not match flavor"):
            LabeledTreeMor.from_dict(data)


class TestDualize:
    def test_trivial_trees_swap(self):
        assert con_dualize(trivial_labeled(INTERVAL)) == trivial_labeled(ORDINAL)
        assert con_dualize(trivial_labeled(ORDINAL)) == trivial_labeled(INTERVAL)

    def test_example_tree_dualizes_labelwise(self):
        dual = con_dualize(deep())
        assert dual.flavor == ORDINAL
        assert dual.tree == DEEP_TREE
        assert dual.labels[0] == labs(1)
        assert dual.labels[1] == labs(-1, 2, -1)
        assert con_dualize(dual) == deep()

    def test_dualize_requires_cropped_input(self):
        # Both flavors refuse the same level trees, so the dual of a tree
        # always exists and keeps its level tree.
        shape = make_level_tree((1, 3), ((0, 0, 0),))
        for flavor in (INTERVAL, ORDINAL):
            with pytest.raises(ValueError, match="invalid disk: level 1"):
                LabeledTree(flavor, shape)
        for t in enumerate_cropped_trees(INTERVAL, 3, 4):
            assert con_dualize(t).tree is t.tree

    @pytest.mark.parametrize(
        "flavor, height, max_root",
        [(INTERVAL, 3, 4), (ORDINAL, 3, 3), (INTERVAL, 4, 3), (ORDINAL, 4, 3)],
    )
    def test_dual_labels_are_the_dual_ordinals(self, flavor, height, max_root):
        # The paper's relabel: each label of the dual is ``vee_obj`` (from
        # intervals) or ``wedge_obj`` (from ordinals) of the label there.
        relabel = vee_obj if flavor == INTERVAL else wedge_obj
        for t in enumerate_cropped_trees(flavor, height, max_root):
            dual = con_dualize(t)
            assert dual.labels == tuple(tuple(map(relabel, row)) for row in t.labels)

    def test_double_dual_is_identity_on_trees(self):
        for flavor, cap in ((INTERVAL, 4), (ORDINAL, 3)):
            for t in enumerate_cropped_trees(flavor, 3, cap):
                dd = con_dualize(con_dualize(t))
                assert dd == t

    def test_duality_is_a_hom_bijection(self):
        zoo = enumerate_cropped_trees(INTERVAL, 2, 4)
        for a in zoo:
            for b in zoo:
                mors = enumerate_labeled_mors(a, b)
                duals = [con_dualize_mor(m) for m in mors]
                assert len(set(duals)) == len(mors)
                assert set(duals) == set(
                    enumerate_labeled_mors(con_dualize(b), con_dualize(a))
                )
                for m in mors:
                    assert con_dualize_mor(con_dualize_mor(m)) == m

    def test_dualization_reverses_composition(self):
        zoo = enumerate_cropped_trees(INTERVAL, 2, 3)
        for a in zoo:
            for b in zoo:
                for f in enumerate_labeled_mors(a, b):
                    for c in zoo:
                        for g in enumerate_labeled_mors(b, c):
                            assert con_dualize_mor(
                                compose_labeled(g, f)
                            ) == compose_labeled(
                                con_dualize_mor(f), con_dualize_mor(g)
                            )


class TestXiObjects:
    def test_trivial_trees_convert_to_trivial_objects(self):
        assert xi_interval(trivial_labeled(INTERVAL)) == TI
        assert xi_ordinal(trivial_labeled(ORDINAL)) == TO

    def test_example_tree_converts_with_branch_root(self):
        h = xi_interval(deep())
        assert h.root == o(2)
        assert h.children[0] == TI and h.children[2] == TI
        mid = h.children[1]
        assert mid.root == o(3)
        assert mid.children == (
            TI,
            I1,
            ITreeObj(INTERVAL, o(2), (TI, I1, TI)),
            TI,
        )

    def test_round_trips_at_small_heights(self):
        for flavor, cap in ((INTERVAL, 4), (ORDINAL, 3)):
            for h in enumerate_objects(flavor, 3, cap):
                t = xi_inverse(h)
                converter = xi_interval if flavor == INTERVAL else xi_ordinal
                assert converter(t) == h
        assert xi_inverse(xi_interval(deep())) == deep()

    def test_conversion_is_bijective_on_bounded_objects(self):
        for flavor, cap in ((INTERVAL, 4), (ORDINAL, 3)):
            zoo = enumerate_cropped_trees(flavor, 3, cap)
            converter = xi_interval if flavor == INTERVAL else xi_ordinal
            images = [converter(t) for t in zoo]
            assert len(set(images)) == len(zoo)
            assert set(images) == set(enumerate_objects(flavor, 3, cap))

    def test_input_validation(self):
        with pytest.raises(ValueError, match="interval-flavor"):
            xi_interval(trivial_labeled(ORDINAL))
        # A forest or a tree that is not cropped never reaches ``xi``.
        with pytest.raises(ValueError, match=r"carried by a tree \(single root\)"):
            LabeledTree(INTERVAL, LevelTree((2,), ()))
        shape = make_level_tree((1, 3), ((0, 0, 0),))
        with pytest.raises(ValueError, match="invalid disk: level 1"):
            LabeledTree(INTERVAL, shape)


class TestXiMorphisms:
    def test_identities_map_to_identities(self):
        assert xi_interval_mor(identity_labeled(deep())) == identity_itree(
            xi_interval(deep())
        )
        lo1 = xi_inverse(O1)
        assert xi_ordinal_mor(identity_labeled(lo1)) == identity_itree(O1)

    def test_collapse_maps_to_marker(self):
        li2 = xi_inverse(I2)
        m = enumerate_labeled_mors(li2, trivial_labeled(INTERVAL))[0]
        assert xi_interval_mor(m) == marker(I2, TI)
        lo1 = xi_inverse(O1)
        n = enumerate_labeled_mors(trivial_labeled(ORDINAL), lo1)[0]
        assert xi_ordinal_mor(n) == marker(TO, O1)

    @pytest.mark.parametrize(
        "flavor, max_root", [(INTERVAL, 3), (ORDINAL, 2)], ids=[INTERVAL, ORDINAL]
    )
    def test_read_off_the_morphism_as_through_restrictions(
        self, flavor, max_root
    ):
        xi_mor = xi_interval_mor if flavor == INTERVAL else xi_ordinal_mor
        zoo = enumerate_cropped_trees(flavor, 3, max_root)
        for a in zoo:
            for b in zoo:
                for m in enumerate_labeled_mors(a, b):
                    assert xi_mor(m) == xi_mor_by_restriction(m)

    @pytest.mark.parametrize(
        "flavor, max_root", [(INTERVAL, 4), (ORDINAL, 3)], ids=[INTERVAL, ORDINAL]
    )
    def test_read_through_the_children_as_through_restricted_ends(
        self, flavor, max_root
    ):
        zoo = enumerate_cropped_trees(flavor, 3, max_root)
        read = 0
        for a, b in product(zoo, repeat=2):
            for m in enumerate_labeled_mors(a, b):
                read += 1
                reference = xi_mor_by_restricted_ends(
                    flavor, m.tree_map, m.slots, (0, 0)
                )
                assert labeled.xi_mor(flavor, m) == reference
        assert read == 5463

    def test_interval_hom_sets_match_inductive_hom_sets(self):
        zoo = enumerate_cropped_trees(INTERVAL, 2, 3)
        for a in zoo:
            for b in zoo:
                mors = enumerate_labeled_mors(a, b)
                images = [xi_interval_mor(m) for m in mors]
                assert len(set(images)) == len(mors)
                assert set(images) == set(
                    enumerate_morphisms(xi_interval(a), xi_interval(b))
                )

    def test_ordinal_hom_sets_match_inductive_hom_sets(self):
        zoo = enumerate_cropped_trees(ORDINAL, 2, 2)
        for a in zoo:
            for b in zoo:
                mors = enumerate_labeled_mors(a, b)
                images = [xi_ordinal_mor(m) for m in mors]
                assert len(set(images)) == len(mors)
                assert set(images) == set(
                    enumerate_morphisms(xi_ordinal(a), xi_ordinal(b))
                )

    def check_composition(self, zoo, xi_mor):
        for a in zoo:
            for b in zoo:
                for f in enumerate_labeled_mors(a, b):
                    for c in zoo:
                        for g in enumerate_labeled_mors(b, c):
                            assert xi_mor(compose_labeled(g, f)) == compose_itree(
                                xi_mor(g), xi_mor(f)
                            )

    def test_conversion_respects_composition(self):
        self.check_composition(enumerate_cropped_trees(ORDINAL, 2, 2), xi_ordinal_mor)

    def test_interval_conversion_respects_composition(self):
        zoo = enumerate_cropped_trees(INTERVAL, 2, 3)
        self.check_composition(zoo, xi_interval_mor)


class TestDualitySquare:
    def test_on_objects(self):
        for t in enumerate_cropped_trees(INTERVAL, 3, 4) + [deep()]:
            assert xi_ordinal(con_dualize(t)) == vee(xi_interval(t))
        for s in enumerate_cropped_trees(ORDINAL, 3, 3):
            assert xi_interval(con_dualize(s)) == wedge(xi_ordinal(s))

    def test_on_morphisms(self):
        zoo = enumerate_cropped_trees(INTERVAL, 2, 3)
        for a in zoo:
            for b in zoo:
                for m in enumerate_labeled_mors(a, b):
                    assert xi_ordinal_mor(con_dualize_mor(m)) == vee(
                        xi_interval_mor(m)
                    )
