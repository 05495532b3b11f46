"""Tests for cells of free omega-categories and functors between them."""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
from itertools import product
from typing import Iterable

import pytest

from theta_disk import omega
from theta_disk.globular import (
    GlobCard,
    GlobMor,
    GlobSet,
    Vertex,
    _linear_order,
    compose_glob_mors,
    desuspend,
    identity_glob_mor,
    linearize,
    sub_globcard,
)
from theta_disk.itree import (
    ORDINAL,
    count_morphisms,
    enumerate_morphisms,
    enumerate_objects,
    trivial_obj,
)
from theta_disk.itree import compose as itree_compose
from theta_disk.itree import identity as itree_identity
from theta_disk.ograph import (
    EMPTY_OGRAPH,
    OGraph,
    POINT_OGRAPH,
    enumerate_ographs,
    gamma,
    gamma_prime,
    upsilon,
    upsilon_prime,
)
from theta_disk.omega import (
    EMPTY_PRESENTATION,
    Cell,
    EnrichedCell,
    OmegaPresentation,
    _Evaluator,
    all_enriched_generators,
    comparison_L,
    compose_cells,
    compose_enriched,
    demote_enriched,
    enriched_identity,
    enriched_m_source,
    enriched_m_target,
    enumerate_cells,
    enumerate_omega_functors,
    free_on_ograph_cells,
    hom_graph_count,
    m_source,
    m_target,
    promote_cell,
    psi_apply,
    psi_mor,
    psi_obj,
)
from theta_disk.ordinal import _InternTable

ARROW_OGRAPH = OGraph(2, (POINT_OGRAPH,))
CHAIN2_OGRAPH = OGraph(3, (POINT_OGRAPH, POINT_OGRAPH))
CHAIN3_OGRAPH = OGraph(4, (POINT_OGRAPH,) * 3)
GLOBE2_OGRAPH = OGraph(2, (ARROW_OGRAPH,))
WHISKER_OGRAPH = OGraph(3, (ARROW_OGRAPH, POINT_OGRAPH))

POINT = gamma_prime(POINT_OGRAPH)
ARROW = gamma_prime(ARROW_OGRAPH)
CHAIN2 = gamma_prime(CHAIN2_OGRAPH)
CHAIN3 = gamma_prime(CHAIN3_OGRAPH)
GLOBE2 = gamma_prime(GLOBE2_OGRAPH)
WHISKER = gamma_prime(WHISKER_OGRAPH)
GRID22 = gamma_prime(OGraph(3, (CHAIN2_OGRAPH, CHAIN2_OGRAPH)))


def total_cell(x: GlobCard, n: int | None = None) -> Cell:
    """The cell whose shape is the whole base."""
    dim = x.dim if n is None else n
    return Cell(x, x, identity_glob_mor(x), dim)


def between_rows(
    y: GlobCard, a: Vertex, b: Vertex
) -> tuple[tuple[int, ...], ...]:
    """Oracle: per dimension above ``a`` and ``b``, the cells strictly
    between them in the linear order whose source and target are kept one
    dimension down, up to the first dimension that keeps none."""
    order = _linear_order(y.gset)
    between = set(order[order.index(a) + 1 : order.index(b)])
    rows: list[tuple[int, ...]] = []
    for k in range(a[0] + 1, len(y.gset.levels)):
        row = tuple(i for i in range(y.gset.levels[k]) if (k, i) in between)
        if rows:
            prev = set(rows[-1])
            src, tgt = y.gset.src[k - 1], y.gset.tgt[k - 1]
            row = tuple(i for i in row if src[i] in prev and tgt[i] in prev)
        if not row:
            break
        rows.append(row)
    return tuple(rows)


def comp_subfunctor(
    y: GlobCard, a: Vertex, b: Vertex
) -> tuple[GlobCard, GlobMor]:
    """Oracle: the sub-cardinal spanned by two same-dimension cells,
    everything strictly between them, and their iterated sources and
    targets below; with its inclusion."""
    kept = between_rows(y, a, b)
    n = a[0]
    below: list[set[int]] = []
    current = {a[1], b[1]}
    for k in range(n, 0, -1):
        current = {
            table[i]
            for i in current
            for table in (y.gset.src[k - 1], y.gset.tgt[k - 1])
        }
        below.append(current)
    keep: list[Iterable[int]] = [set(level) for level in reversed(below)]
    keep.append({a[1], b[1]})
    keep.extend(kept)
    return sub_globcard(y, keep)


def raw_glue(
    y: GlobCard, z: GlobCard, m: int
) -> tuple[GlobCard, GlobMor, GlobMor]:
    """Reference gluing: the cells of ``y`` keep their indices, the cells
    of ``z`` off the shared m-boundary follow them in order, and the raw
    globular set is renumbered along its linear order."""
    keep_y = omega._face(y, m, least=False).level_maps
    keep_z = omega._face(z, m, least=True).level_maps
    depth = max(len(y.gset.levels), len(z.gset.levels))
    missing = depth - len(y.gset.levels)
    levels = list(y.gset.levels) + [0] * missing
    src = [list(row) for row in y.gset.src] + [[] for _ in range(missing)]
    tgt = [list(row) for row in y.gset.tgt] + [[] for _ in range(missing)]
    y_raw = [list(range(size)) for size in y.gset.levels]
    z_raw: list[list[int]] = []
    for k, size in enumerate(z.gset.levels):
        shared = dict(zip(keep_z[k], keep_y[k])) if k < len(keep_z) else {}
        row = []
        for i in range(size):
            if i in shared:
                row.append(shared[i])
                continue
            row.append(levels[k])
            levels[k] += 1
            if k:
                src[k - 1].append(z_raw[k - 1][z.gset.src[k - 1][i]])
                tgt[k - 1].append(z_raw[k - 1][z.gset.tgt[k - 1][i]])
        z_raw.append(row)
    raw = GlobSet(
        tuple(levels), tuple(map(tuple, src)), tuple(map(tuple, tgt))
    )
    glued_shape = linearize(raw)
    assert glued_shape is not None
    rank: dict[Vertex, int] = {}
    placed = [0] * len(levels)
    for k, i in _linear_order(raw):
        rank[(k, i)] = placed[k]
        placed[k] += 1
    incl_y, incl_z = [
        GlobMor(
            shape,
            glued_shape,
            tuple(
                tuple(rank[(k, r)] for r in row) for k, row in enumerate(raws)
            ),
        )
        for shape, raws in ((y, y_raw), (z, z_raw))
    ]
    return glued_shape, incl_y, incl_z


def zero_decompose(c: Cell) -> list[Cell]:
    """Oracle: the column cells between consecutive object cells of the
    shape, whose 0-composite is ``c`` again."""
    if c.nominal_dim < 1:
        raise ValueError("only positive-dimensional cells decompose")
    p = c.shape.gset.levels[0]
    if p <= 1:
        return [c]
    parts = []
    for i in range(p - 1):
        sub, incl = comp_subfunctor(c.shape, (0, i), (0, i + 1))
        parts.append(Cell(c.base, sub, compose_glob_mors(c.map, incl), c.nominal_dim))
    return parts


def eval_functor(action, c: EnrichedCell):
    """Oracle: the functor presented by a generator action, on any cell."""
    return _Evaluator(action)(c)


def product_omega_functors(a, b):
    """Oracle: the functors by the full ``product`` of generator images,
    one dimension at a time, filtered by boundaries."""
    g = a.graph
    object_candidates = free_on_ograph_cells(b.graph, 0)
    objects = omega.enriched_generators(g, 0)
    partials = [
        dict(zip(objects, combo))
        for combo in product(object_candidates, repeat=len(objects))
    ]
    for n in range(1, g.dim + 1):
        gens = omega.enriched_generators(g, n)
        by_boundary: dict[tuple, list] = {}
        for cand in free_on_ograph_cells(b.graph, n):
            key = (enriched_m_source(cand, n - 1), enriched_m_target(cand, n - 1))
            by_boundary.setdefault(key, []).append(cand)
        extended = []
        for partial in partials:
            evaluate = _Evaluator(omega.GeneratorAction(a, b, tuple(partial.items())))
            options = [
                by_boundary.get(
                    (
                        evaluate(enriched_m_source(gen, n - 1)),
                        evaluate(enriched_m_target(gen, n - 1)),
                    ),
                    [],
                )
                for gen in gens
            ]
            if any(not o for o in options):
                continue
            for combo in product(*options):
                extended.append({**partial, **dict(zip(gens, combo))})
        partials = extended
    return [omega.GeneratorAction(a, b, tuple(p.items())) for p in partials]


def fixes_generators(action) -> bool:
    return all(gen == img for gen, img in action.assignments)


class TestCellBasics:
    def test_rejects_empty_shape(self):
        empty = GlobCard(GlobSet((), (), ()))
        with pytest.raises(ValueError):
            Cell(POINT, empty, GlobMor(empty, POINT, ()), 0)

    def test_rejects_low_nominal_dimension(self):
        with pytest.raises(ValueError):
            total_cell(ARROW, 0)

    def test_rejects_mismatched_map(self):
        with pytest.raises(ValueError):
            Cell(CHAIN2, ARROW, identity_glob_mor(ARROW), 1)

    def test_proper_and_degenerate(self):
        c = total_cell(ARROW)
        assert c.is_proper
        up = promote_cell(c, c.nominal_dim + 1)
        assert up.nominal_dim > up.shape.dim and up.nominal_dim == 2
        assert promote_cell(c, 4).nominal_dim == 4
        with pytest.raises(ValueError):
            promote_cell(up, 1)

    def test_serialization_round_trip(self):
        for c in enumerate_cells(WHISKER, 2):
            assert Cell.from_dict(c.to_dict()) == c


class TestCellInterning:
    def test_equal_cells_are_one_object(self):
        first, again = enumerate_cells(WHISKER, 2), enumerate_cells(WHISKER, 2)
        assert len(first) == len(again) > 1
        assert all(c is d for c, d in zip(first, again))
        assert Cell(ARROW, ARROW, identity_glob_mor(ARROW), 1) is total_cell(ARROW)
        c = total_cell(WHISKER)
        assert m_source(c, 1) is m_source(c, 1)
        assert promote_cell(m_target(c, 0), 0) is m_target(c, 0)

    def test_serialization_returns_the_interned_cell(self):
        seen = 0
        for g in enumerate_ographs(5, 2):
            if g.is_empty:
                continue
            x = gamma_prime(g)
            for n in range(3):
                for c in enumerate_cells(x, n):
                    assert Cell.from_dict(c.to_dict()) is c
                    seen += 1
        assert seen == 37

    def test_pickle_and_copy_return_the_interned_cell(self):
        for c in enumerate_cells(WHISKER, 2):
            assert pickle.loads(pickle.dumps(c)) is c
            assert copy.deepcopy(c) is c
            assert copy.copy(c) is c

    def test_invalid_cell_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="nominal dimension"):
                total_cell(ARROW, 0)


class TestEnrichedCellInterning:
    def test_equal_cells_are_one_object(self):
        assert EnrichedCell(0, 1, 1) is EnrichedCell(0, 1, 1, ())
        assert EnrichedCell(dim=0, h=1, k=1) is EnrichedCell(0, 1, 1)
        first = free_on_ograph_cells(WHISKER_OGRAPH, 2)
        again = free_on_ograph_cells(WHISKER_OGRAPH, 2)
        assert all(c is d for c, d in zip(first, again))

    def test_serialization_returns_the_interned_cell(self):
        for c in free_on_ograph_cells(WHISKER_OGRAPH, 2):
            assert EnrichedCell.from_dict(c.to_dict()) is c

    def test_pickle_and_copy_return_the_interned_cell(self):
        for c in free_on_ograph_cells(WHISKER_OGRAPH, 2):
            assert pickle.loads(pickle.dumps(c)) is c
            assert copy.deepcopy(c) is c
            assert copy.copy(c) is c

    def test_invalid_cell_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="one part per edge"):
                EnrichedCell(1, 0, 1)

    def test_short_call_is_stored_under_its_own_key(self, monkeypatch):
        c = EnrichedCell(0, 7, 7)

        def unbound(*args):
            raise AssertionError("a repeated short call maps its fields")

        monkeypatch.setattr(_InternTable, "_positions", unbound)
        assert EnrichedCell(0, 7, 7) is c


class TestEnumerateCells:
    def test_point_has_one_cell_per_dimension(self):
        for n in range(4):
            assert len(enumerate_cells(POINT, n)) == 1

    def test_arrow_cell_counts(self):
        assert len(enumerate_cells(ARROW, 0)) == 2
        assert len(enumerate_cells(ARROW, 1)) == 3
        assert len(enumerate_cells(ARROW, 2)) == 3

    def test_two_arrow_chain_has_six_one_cells(self):
        assert len(enumerate_cells(CHAIN2, 1)) == 6

    def test_deterministic(self):
        assert enumerate_cells(CHAIN2, 2) == enumerate_cells(CHAIN2, 2)

    def test_one_shared_tuple_per_pair(self):
        cells = enumerate_cells(CHAIN2, 2)
        assert type(cells) is tuple
        assert enumerate_cells(CHAIN2, 2) is cells
        assert enumerate_cells(CHAIN2, 1) is not cells

    def test_rejects_negative_dimension(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                enumerate_cells(POINT, -1)


class TestBoundaries:
    def test_range_errors(self):
        c = total_cell(ARROW)
        with pytest.raises(ValueError):
            m_source(c, 1)
        with pytest.raises(ValueError):
            m_target(c, -1)

    def test_degenerate_boundary_is_underlying_cell(self):
        c = total_cell(ARROW)
        up = promote_cell(c, 3)
        assert m_source(up, 1) == c
        assert m_target(up, 1) == c
        assert m_source(up, 2) == promote_cell(c, 2)

    def test_chain_endpoints(self):
        c = total_cell(CHAIN2)
        assert m_source(c, 0).map.level_maps == ((0,),)
        assert m_target(c, 0).map.level_maps == ((2,),)
        assert m_source(c, 0).shape == POINT

    def test_whisker_one_boundaries_are_chains(self):
        w = total_cell(WHISKER)
        s, t = m_source(w, 1), m_target(w, 1)
        assert s.shape == CHAIN2 and t.shape == CHAIN2
        assert s.map.level_maps == ((0, 1, 2), (0, 2))
        assert t.map.level_maps == ((0, 1, 2), (1, 2))

    def test_globularity(self):
        for n in range(1, 3):
            for c in enumerate_cells(WHISKER, n):
                for m1 in range(n):
                    for m2 in range(m1):
                        assert m_source(m_source(c, m1), m2) == m_source(c, m2)
                        assert m_source(m_target(c, m1), m2) == m_source(c, m2)
                        assert m_target(m_source(c, m1), m2) == m_target(c, m2)
                        assert m_target(m_target(c, m1), m2) == m_target(c, m2)


def composable_pairs(cells, m):
    return [
        (alpha, beta)
        for alpha in cells
        for beta in cells
        if m_target(alpha, m) == m_source(beta, m)
    ]


class TestCompose:
    def test_adjacent_arrows_glue_to_chain(self):
        cells = enumerate_cells(CHAIN2, 1)
        left = next(
            c for c in cells if c.shape == ARROW and c.map.level_maps[0] == (0, 1)
        )
        right = next(
            c for c in cells if c.shape == ARROW and c.map.level_maps[0] == (1, 2)
        )
        whole = compose_cells(right, left, 0)
        assert whole == total_cell(CHAIN2)

    def test_not_composable_raises(self):
        cells = enumerate_cells(CHAIN2, 1)
        left = next(
            c for c in cells if c.shape == ARROW and c.map.level_maps[0] == (0, 1)
        )
        with pytest.raises(ValueError):
            compose_cells(left, left, 0)

    def test_not_composable_raises_on_every_call(self):
        cells = enumerate_cells(CHAIN2, 1)
        left = next(
            c for c in cells if c.shape == ARROW and c.map.level_maps[0] == (0, 1)
        )
        for _ in range(2):
            with pytest.raises(ValueError, match="not composable"):
                compose_cells(left, left, 0)

    def test_swapped_inclusions_fail_the_restriction_check(self, monkeypatch):
        cells = enumerate_cells(CHAIN2, 1)
        left, right = (
            next(
                c
                for c in cells
                if c.shape == ARROW and c.map.level_maps[0] == objects
            )
            for objects in ((0, 1), (1, 2))
        )
        glue = omega._glue

        def swapped(y, z, m):
            """``_glue`` with the two inclusions exchanged."""
            shape, incl_y, incl_z = glue(y, z, m)
            return shape, incl_z, incl_y

        # Drop composites built with the real ``_glue`` by earlier calls.
        omega._composite.cache_clear()
        monkeypatch.setattr(omega, "_glue", swapped)
        with pytest.raises(AssertionError, match="first cell"):
            compose_cells(right, left, 0)

    def test_repeated_composite_is_one_object(self, monkeypatch):
        cells = enumerate_cells(CHAIN2, 1)
        left, right = (
            next(
                c
                for c in cells
                if c.shape == ARROW and c.map.level_maps[0] == objects
            )
            for objects in ((0, 1), (1, 2))
        )
        first = compose_cells(right, left, 0)

        def no_glue(y, z, m):
            raise AssertionError("a repeated composite is glued again")

        monkeypatch.setattr(omega, "_glue", no_glue)
        assert compose_cells(right, left, 0) is first

    def test_unit_laws(self):
        for base in (CHAIN2, WHISKER):
            for n in range(1, 3):
                for c in enumerate_cells(base, n):
                    for m in range(n):
                        left_unit = promote_cell(m_target(c, m), n)
                        right_unit = promote_cell(m_source(c, m), n)
                        assert compose_cells(left_unit, c, m) == c
                        assert compose_cells(c, right_unit, m) == c

    def test_associativity_along_objects(self):
        cells = enumerate_cells(CHAIN3, 1)
        for alpha, beta in composable_pairs(cells, 0):
            ab = compose_cells(beta, alpha, 0)
            for gam in cells:
                if m_target(beta, 0) != m_source(gam, 0):
                    continue
                bc = compose_cells(gam, beta, 0)
                assert compose_cells(gam, ab, 0) == compose_cells(bc, alpha, 0)

    def test_vertical_composition_stacks(self):
        col = gamma_prime(OGraph(2, (CHAIN2_OGRAPH,)))
        cells = [c for c in enumerate_cells(col, 2) if c.shape == GLOBE2]
        bottom = next(c for c in cells if c.map.level_maps[2] == (0,))
        top = next(c for c in cells if c.map.level_maps[2] == (1,))
        whole = compose_cells(top, bottom, 1)
        assert whole == total_cell(col)

    def test_interchange_on_grid(self):
        globe = GLOBE2
        a0 = Cell(GRID22, globe, GlobMor(globe, GRID22, ((0, 1), (0, 1), (0,))), 2)
        a1 = Cell(GRID22, globe, GlobMor(globe, GRID22, ((0, 1), (1, 2), (1,))), 2)
        b0 = Cell(GRID22, globe, GlobMor(globe, GRID22, ((1, 2), (3, 4), (2,))), 2)
        b1 = Cell(GRID22, globe, GlobMor(globe, GRID22, ((1, 2), (4, 5), (3,))), 2)
        left = compose_cells(a1, a0, 1)
        right = compose_cells(b1, b0, 1)
        columns_first = compose_cells(right, left, 0)
        bottom = compose_cells(b0, a0, 0)
        top = compose_cells(b1, a1, 0)
        rows_first = compose_cells(top, bottom, 1)
        assert columns_first == rows_first
        assert columns_first == total_cell(GRID22)


    @pytest.mark.parametrize(
        "vertices, dim, count, digest",
        [
            (
                7,
                2,
                238,
                "9fb2d7acc19945f83d53db72c9fec3cffcda915bcda9606871d6cc600624f176",
            ),
            (
                5,
                3,
                114,
                "82c99e1ea5f75bc6d20bb078d5224f7db66ec51ab17df7a92a73f550f42b3333",
            ),
        ],
        ids=["vertices7-dim2", "vertices5-dim3"],
    )
    def test_composites_are_pinned(self, vertices, dim, count, digest):
        rows = []
        for g in enumerate_ographs(vertices, dim):
            if g.is_empty:
                continue
            x = gamma_prime(g)
            for n in range(1, dim + 1):
                cells = enumerate_cells(x, n)
                for m in range(n):
                    for alpha, beta in composable_pairs(cells, m):
                        rows.append(compose_cells(beta, alpha, m).to_dict())
        assert len(rows) == count
        text = json.dumps(rows, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("m", range(3))
    def test_glue_matches_raw_renumbering(self, m):
        shapes = [
            gamma_prime(g) for g in enumerate_ographs(7, 3) if not g.is_empty
        ]
        glued = 0
        for y, z in product(shapes, repeat=2):
            target = omega._face(y, m, least=False).dom
            if target is omega._face(z, m, least=True).dom:
                assert omega._glue(y, z, m) == raw_glue(y, z, m)
                glued += 1
        assert glued > len(shapes)


class TestRestrictData:
    def test_returns_shared_tuples(self):
        for x in (CHAIN3, WHISKER, GRID22):
            parts = desuspend(x)
            assert type(parts) is tuple and desuspend(x) is parts
            assert len(parts) == x.gset.levels[0] - 1
            for i, (card, kept) in enumerate(parts):
                assert type(kept) is tuple
                assert card.gset.levels == tuple(len(row) for row in kept)
                assert tuple(map(tuple, kept)) == between_rows(
                    x, (0, i), (0, i + 1)
                )


class TestDecompose:
    def test_zero_decompose_chain(self):
        parts = zero_decompose(total_cell(CHAIN2))
        assert [p.shape for p in parts] == [ARROW, ARROW]
        assert [p.map.level_maps[0] for p in parts] == [(0, 1), (1, 2)]

    def test_zero_decompose_whisker_columns(self):
        parts = zero_decompose(total_cell(WHISKER))
        assert [p.shape for p in parts] == [GLOBE2, ARROW]

    def test_zero_decompose_folds_back(self):
        for base in (CHAIN2, WHISKER, GRID22):
            for n in range(1, 3):
                for c in enumerate_cells(base, n):
                    parts = zero_decompose(c)
                    whole = parts[0]
                    for part in parts[1:]:
                        whole = compose_cells(part, whole, 0)
                    assert whole == c

    def test_zero_decompose_needs_positive_dimension(self):
        with pytest.raises(ValueError):
            zero_decompose(total_cell(POINT))


class TestEnrichedCells:
    def test_construction_guards(self):
        with pytest.raises(ValueError):
            EnrichedCell(0, 0, 1, (EnrichedCell(0, 0, 0),))
        with pytest.raises(ValueError):
            EnrichedCell(1, 0, 0, (EnrichedCell(0, 0, 0),))
        with pytest.raises(ValueError):
            EnrichedCell(1, 1, 0)
        with pytest.raises(ValueError):
            EnrichedCell(2, 0, 1, (EnrichedCell(0, 0, 0),))

    def test_single_vertex_counts(self):
        for n in range(4):
            assert len(free_on_ograph_cells(POINT_OGRAPH, n)) == 1

    def test_single_edge_counts(self):
        assert len(free_on_ograph_cells(ARROW_OGRAPH, 0)) == 2
        assert len(free_on_ograph_cells(ARROW_OGRAPH, 1)) == 3

    def test_mutating_a_returned_list_leaves_the_next_call_unchanged(self):
        # The 1-cells of ARROW are also the parts of WHISKER's 2-cells.
        pairs = [(WHISKER_OGRAPH, 2), (ARROW_OGRAPH, 1), (WHISKER_OGRAPH, 0)]
        expected = [list(free_on_ograph_cells(g, n)) for g, n in pairs]
        for (g, n), want in zip(pairs, expected):
            first = free_on_ograph_cells(g, n)
            first.clear()
            again = free_on_ograph_cells(g, n)
            assert again == want and again is not first
            again.append(again[0])
        assert [free_on_ograph_cells(g, n) for g, n in pairs] == expected

    def test_identity_demotes_back(self):
        for n in range(3):
            for c in free_on_ograph_cells(WHISKER_OGRAPH, n):
                assert demote_enriched(enriched_identity(c)) == c

    def test_proper_cells_do_not_demote(self):
        assert demote_enriched(EnrichedCell(0, 0, 0)) is None
        f = EnrichedCell(1, 0, 1, (EnrichedCell(0, 0, 0),))
        assert demote_enriched(f) is None

    def test_compose_spans_concatenate(self):
        cells = free_on_ograph_cells(CHAIN2_OGRAPH, 1)
        f = next(c for c in cells if (c.h, c.k) == (0, 1))
        g = next(c for c in cells if (c.h, c.k) == (1, 2))
        assert compose_enriched(g, f, 0) == next(
            c for c in cells if (c.h, c.k) == (0, 2)
        )
        with pytest.raises(ValueError):
            compose_enriched(f, g, 0)

    def test_serialization_round_trip(self):
        for c in free_on_ograph_cells(WHISKER_OGRAPH, 2):
            assert EnrichedCell.from_dict(c.to_dict()) == c


class TestComparison:
    bases = [POINT_OGRAPH, ARROW_OGRAPH, CHAIN2_OGRAPH, GLOBE2_OGRAPH]

    def test_bijection_per_dimension(self):
        for g in [*self.bases, WHISKER_OGRAPH]:
            x = gamma_prime(g)
            for n in range(4 if g.size <= 5 else 3):
                images = [comparison_L(c) for c in enumerate_cells(x, n)]
                assert len(set(images)) == len(images)
                assert set(images) == set(free_on_ograph_cells(g, n))

    def test_point_cell_maps_to_vertex(self):
        [c] = enumerate_cells(POINT, 0)
        assert comparison_L(c) == EnrichedCell(0, 0, 0)

    def test_arrow_cell_maps_to_single_part_span(self):
        whole = total_cell(ARROW)
        assert comparison_L(whole) == EnrichedCell(
            1, 0, 1, (EnrichedCell(0, 0, 0),)
        )

    def test_commutes_with_boundaries(self):
        for g in self.bases:
            x = gamma_prime(g)
            for n in range(1, 4):
                for c in enumerate_cells(x, n):
                    lc = comparison_L(c)
                    for m in range(n):
                        assert comparison_L(m_source(c, m)) == enriched_m_source(lc, m)
                        assert comparison_L(m_target(c, m)) == enriched_m_target(lc, m)

    def test_commutes_with_composition(self):
        for g in self.bases:
            x = gamma_prime(g)
            for n in range(1, 3):
                cells = enumerate_cells(x, n)
                for m in range(n):
                    for alpha, beta in composable_pairs(cells, m):
                        assert comparison_L(
                            compose_cells(beta, alpha, m)
                        ) == compose_enriched(
                            comparison_L(beta), comparison_L(alpha), m
                        )


class TestPresentations:
    def test_trivial_tree_presents_empty(self):
        assert psi_obj(trivial_obj(ORDINAL)) == EMPTY_PRESENTATION

    def test_small_trees_present_free_graphs(self):
        trivial, o0, o1 = enumerate_objects(ORDINAL, 2, 2)
        assert psi_obj(o0) == OmegaPresentation(POINT_OGRAPH)
        assert psi_obj(o1) == OmegaPresentation(ARROW_OGRAPH)

    def test_interval_flavor_rejected(self):
        from theta_disk.itree import INTERVAL

        with pytest.raises(ValueError):
            psi_obj(trivial_obj(INTERVAL))

    def test_serialization_round_trip(self):
        for p in (
            EMPTY_PRESENTATION,
            OmegaPresentation(WHISKER_OGRAPH),
        ):
            assert OmegaPresentation.from_dict(p.to_dict()) == p

    def test_psi_presentations_round_trip(self):
        for h in enumerate_objects(ORDINAL, 3, 3):
            p = psi_obj(h)
            assert OmegaPresentation.from_dict(p.to_dict()) == p


class TestGeneratorsAreCardinalCells:
    """The generators of the free omega-category on an ordinal graph are
    the cells of its cardinal, and the boundaries of each are the
    generators at the cell's source and target: so the functors out of it
    are the globular maps out of the cardinal."""

    graphs = enumerate_ographs(9, 9)

    def test_one_generator_per_cell_in_cell_order(self):
        for g in self.graphs:
            x = gamma_prime(g)
            gens = all_enriched_generators(g)
            cells = x.gset.vertices()
            assert [gen.dim for gen in gens] == [k for k, _ in cells], g
            for gen, (k, i) in zip(gens, cells):
                # The cell spanned by (k, i) and its iterated boundaries,
                # read as an enriched cell over ``gamma(x) == g``.
                keep = [{i}]
                below = zip(reversed(x.gset.src[:k]), reversed(x.gset.tgt[:k]))
                for src, tgt in below:
                    keep.append({t[j] for j in keep[-1] for t in (src, tgt)})
                sub, incl = sub_globcard(x, keep[::-1])
                assert comparison_L(Cell(x, sub, incl, k)) == gen, (g, k, i)

    def test_boundaries_are_the_generators_at_the_cell_ends(self):
        for g in self.graphs:
            gset = gamma_prime(g).gset
            gens = all_enriched_generators(g)
            at = dict(zip(gset.vertices(), gens))
            for k in range(1, len(gset.levels)):
                for i in range(gset.levels[k]):
                    gen = at[(k, i)]
                    src = at[(k - 1, gset.src[k - 1][i])]
                    tgt = at[(k - 1, gset.tgt[k - 1][i])]
                    assert enriched_m_source(gen, k - 1) == src, (g, k, i)
                    assert enriched_m_target(gen, k - 1) == tgt, (g, k, i)


class TestFunctorEnumeration:
    def test_empty_domain_gives_one_functor(self):
        for cod in (EMPTY_PRESENTATION, OmegaPresentation(ARROW_OGRAPH)):
            assert len(enumerate_omega_functors(EMPTY_PRESENTATION, cod)) == 1

    def test_empty_codomain_gives_none(self):
        assert (
            enumerate_omega_functors(
                OmegaPresentation(POINT_OGRAPH), EMPTY_PRESENTATION
            )
            == []
        )

    def test_arrow_endofunctors(self):
        arrow = OmegaPresentation(ARROW_OGRAPH)
        functors = enumerate_omega_functors(arrow, arrow)
        assert len(functors) == 3
        assert sum(map(fixes_generators, functors)) == 1

    @pytest.mark.parametrize(
        "height, root, count, digest",
        [
            (
                2,
                5,
                462,
                "e6053ab0c87ded69ef7ac337fc46c8dca2bcf0c32f7c6653aee1f401501cc0a2",
            ),
            (
                3,
                2,
                26,
                "4be7c864755fafdcf20554e86d919fb5c0076fbcab054159c617cdfd0e59108a",
            ),
        ],
        ids=["height2-root5", "height3-root2"],
    )
    def test_enumeration_order_is_pinned(self, height, root, count, digest):
        # Every pair of psi's presentations over the bounded trees.  The
        # order of the functors follows the order of each generator's
        # candidate images; at height 2 every generator has one candidate
        # per boundary, at height 3 some have several.
        presentations = [
            psi_obj(h) for h in enumerate_objects(ORDINAL, height, root)
        ]
        rows = [
            repr(action.assignments)
            for a in presentations
            for b in presentations
            for action in enumerate_omega_functors(a, b)
        ]
        assert len(rows) == count
        text = "\n".join(rows)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_assignments_follow_generator_order(self):
        # Equal actions have equal assignment tuples only if every action
        # lists the generators in one order.
        trees = enumerate_objects(ORDINAL, 2, 5)
        seen = 0
        for h in trees:
            gens = all_enriched_generators(upsilon(h))
            for k in trees:
                actions = [psi_mor(f) for f in enumerate_morphisms(h, k)]
                actions += enumerate_omega_functors(psi_obj(h), psi_obj(k))
                for action in actions:
                    assert tuple(g for g, _ in action.assignments) == gens
                    seen += 1
        assert seen == 2 * 462

    def test_matches_adjunction_count(self):
        # Every graph up to size 9 (those of ``(5, 2)`` among them), up
        # to dimension 4.
        graphs = enumerate_ographs(9, 9)
        for g in graphs:
            for h in graphs:
                expected = hom_graph_count(g, h)
                got = enumerate_omega_functors(
                    OmegaPresentation(g), OmegaPresentation(h)
                )
                assert len(got) == expected, (g, h)


class TestSearchOrder:
    """The depth-first search lists the functors of the product oracle, in
    the same order."""

    @staticmethod
    def assert_same(a, b):
        got = enumerate_omega_functors(a, b)
        assert got == product_omega_functors(a, b), (a, b)

    @pytest.mark.parametrize("height, root", [(2, 5), (3, 3)])
    def test_psi_presentations(self, height, root):
        presentations = [
            psi_obj(h) for h in enumerate_objects(ORDINAL, height, root)
        ]
        for a in presentations:
            for b in presentations:
                self.assert_same(a, b)

    def test_graph_presentations(self):
        # Every graph up to size 9, which holds those of ``(5, 2)`` and
        # reaches dimension 4, where the search drops a prefix before a
        # whole dimension is assigned.
        presentations = [OmegaPresentation(g) for g in enumerate_ographs(9, 9)]
        for a in presentations:
            for b in presentations:
                self.assert_same(a, b)

    def test_terminal_and_empty_codomains(self):
        for g in enumerate_ographs(5, 2):
            self.assert_same(OmegaPresentation(g), EMPTY_PRESENTATION)


class TestHomGraphCount:
    def test_frozen_values(self):
        assert hom_graph_count(EMPTY_OGRAPH, ARROW_OGRAPH) == 1
        assert hom_graph_count(POINT_OGRAPH, ARROW_OGRAPH) == 2
        assert hom_graph_count(ARROW_OGRAPH, POINT_OGRAPH) == 1
        assert hom_graph_count(ARROW_OGRAPH, ARROW_OGRAPH) == 3
        assert hom_graph_count(CHAIN2_OGRAPH, ARROW_OGRAPH) == 4
        assert hom_graph_count(CHAIN2_OGRAPH, CHAIN2_OGRAPH) == 10

    def test_point_counts_objects(self):
        for h in enumerate_ographs(5, 2):
            assert hom_graph_count(POINT_OGRAPH, h) == h.vertices

    def test_counts_tree_morphisms_through_upsilon(self):
        # The count form of the hom-set bijection that psi is checked on.
        trees = enumerate_objects(ORDINAL, 3, 3)
        for a in trees:
            for b in trees:
                assert count_morphisms(a, b) == hom_graph_count(
                    upsilon(a), upsilon(b)
                ), (a, b)


class TestEvaluation:
    def test_identity_action_evaluates_to_itself(self):
        whisker = OmegaPresentation(WHISKER_OGRAPH)
        functors = enumerate_omega_functors(whisker, whisker)
        [action] = [f for f in functors if fixes_generators(f)]
        for n in range(3):
            for c in free_on_ograph_cells(WHISKER_OGRAPH, n):
                assert eval_functor(action, c) == c

    def test_enumerated_functors_respect_boundaries(self):
        dom = OmegaPresentation(CHAIN2_OGRAPH)
        cod = OmegaPresentation(CHAIN2_OGRAPH)
        for action in enumerate_omega_functors(dom, cod):
            for n in range(1, 3):
                for c in free_on_ograph_cells(CHAIN2_OGRAPH, n):
                    image = eval_functor(action, c)
                    for m in range(n):
                        assert enriched_m_source(image, m) == eval_functor(
                            action, enriched_m_source(c, m)
                        )
                        assert enriched_m_target(image, m) == eval_functor(
                            action, enriched_m_target(c, m)
                        )

    def test_enumerated_functors_respect_composition(self):
        dom = OmegaPresentation(CHAIN2_OGRAPH)
        for action in enumerate_omega_functors(dom, dom):
            cells = free_on_ograph_cells(CHAIN2_OGRAPH, 1)
            for alpha in cells:
                for beta in cells:
                    if alpha.k != beta.h:
                        continue
                    assert eval_functor(
                        action, compose_enriched(beta, alpha, 0)
                    ) == compose_enriched(
                        eval_functor(action, beta),
                        eval_functor(action, alpha),
                        0,
                    )


class TestPsi:
    def small_trees(self):
        return enumerate_objects(ORDINAL, 2, 2)

    def test_identity_morphism_gives_identity_action(self):
        trivial, o0, o1 = self.small_trees()
        for tree in (o0, o1):
            action = psi_mor(itree_identity(tree))
            assert action.dom == action.cod == psi_obj(tree)
            assert fixes_generators(action)
            for n in range(3):
                for c in free_on_ograph_cells(action.dom.graph, n):
                    assert eval_functor(action, c) == c

    def test_marker_gives_empty_action(self):
        trivial, o0, o1 = self.small_trees()
        from theta_disk.itree import marker

        action = psi_mor(marker(trivial, o1))
        assert action.dom == EMPTY_PRESENTATION
        assert action.cod == psi_obj(o1)
        assert action.assignments == ()

    def test_composites(self):
        trees = self.small_trees()
        for a in trees:
            for b in trees:
                for f in enumerate_morphisms(a, b):
                    for c in trees:
                        for g in enumerate_morphisms(b, c):
                            first, second = psi_mor(f), psi_mor(g)
                            gf = psi_mor(itree_compose(g, f))
                            assert (gf.dom, gf.cod) == (first.dom, second.cod)
                            assert gf.assignments == tuple(
                                (gen, eval_functor(second, img))
                                for gen, img in first.assignments
                            )

    def test_generators_are_one_shared_tuple_per_graph(self):
        trivial, o0, o1 = self.small_trees()
        gens = all_enriched_generators(upsilon(o1))
        assert type(gens) is tuple
        assert all_enriched_generators(upsilon(o1)) is gens
        for f in enumerate_morphisms(o1, o1):
            assert tuple(g for g, _ in psi_mor(f).assignments) == gens

    def test_apply_matches_evaluation(self):
        # An arrow with a two-edge chain over it: evaluating a 2-cell that
        # composes two edges goes through ``_find_split``.
        for graph in (ARROW_OGRAPH, OGraph(2, (CHAIN2_OGRAPH,))):
            tree = upsilon_prime(graph)
            for f in enumerate_morphisms(tree, tree):
                action = psi_mor(f)
                for n in range(3):
                    for c in free_on_ograph_cells(graph, n):
                        assert eval_functor(action, c) == psi_apply(f, c)

    def test_small_hom_sets_are_in_bijection_with_functors(self):
        trees = self.small_trees()
        for a in trees:
            for b in trees:
                morphisms = enumerate_morphisms(a, b)
                functors = enumerate_omega_functors(psi_obj(a), psi_obj(b))
                actions = {psi_mor(f) for f in morphisms}
                assert len(actions) == len(morphisms)
                assert actions == set(functors)
