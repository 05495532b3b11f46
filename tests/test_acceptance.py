"""Acceptance gate: the ten headline properties at their stated sizes."""

from __future__ import annotations

import time

from theta_disk.itree import vee
from theta_disk.labeled import (
    LabeledTree,
    con_dualize,
    xi_interval,
    xi_inverse,
    xi_ordinal,
)
from theta_disk.forest import make_level_tree
from theta_disk.itree import INTERVAL
from theta_disk.ograph import gamma, gamma_prime, upsilon, upsilon_prime
from theta_disk.ordinal import (
    Ordinal,
    compose as compose_ord,
    enumerate_interval_maps,
    enumerate_ord_maps,
    vee_map,
    wedge_map,
)
from theta_disk.verify import (
    Bounds,
    check_L,
    check_gamma,
    check_itree_duality,
    check_omega_laws,
    check_ordinal_duality,
    check_phi,
    check_psi,
    check_xi,
)


def _criterion(number: int, body, capsys) -> None:
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} PASS")


# The labels of the paper's example tree, one row per level.
EXAMPLE_LABELS = tuple(
    tuple(Ordinal(n) for n in row)
    for row in (
        (2,),
        (0, 3, 0),
        (0, 0, 1, 2, 0, 0),
        (0, 0, 0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    )
)


def _example_tree() -> LabeledTree:
    shape = make_level_tree(
        (1, 3, 6, 9, 10),
        (
            (0, 0, 0),
            (0, 1, 1, 1, 1, 2),
            (0, 1, 2, 2, 3, 3, 3, 4, 5),
            (0, 1, 2, 3, 4, 5, 5, 6, 7, 8),
        ),
    )
    return LabeledTree(INTERVAL, shape)


class TestAcceptance:
    def test_acceptance_1_ordinal_duality(self, capsys):
        def body():
            start = time.monotonic()
            for m in range(6):
                for n in range(6):
                    for f in enumerate_interval_maps(Ordinal(m), Ordinal(n)):
                        assert wedge_map(vee_map(f)) == f
            for p in range(-1, 6):
                for q in range(-1, 6):
                    for g in enumerate_ord_maps(Ordinal(p), Ordinal(q)):
                        assert vee_map(wedge_map(g)) == g
            for m in range(5):
                for n in range(5):
                    for k in range(5):
                        fs = enumerate_interval_maps(Ordinal(m), Ordinal(n))
                        gs = enumerate_interval_maps(Ordinal(n), Ordinal(k))
                        for f in fs:
                            for g in gs:
                                assert vee_map(compose_ord(g, f)) == compose_ord(
                                    vee_map(f), vee_map(g)
                                )
            assert time.monotonic() - start < 10.0
            assert check_ordinal_duality(Bounds(max_label=5)).passed

        _criterion(1, body, capsys)

    def test_acceptance_2_hom_count_duality(self, capsys):
        def body():
            for m in range(1, 6):
                for n in range(1, 6):
                    forward = len(
                        enumerate_interval_maps(Ordinal(m), Ordinal(n))
                    )
                    backward = len(
                        enumerate_ord_maps(Ordinal(n - 1), Ordinal(m - 1))
                    )
                    assert forward == backward

        _criterion(2, body, capsys)

    def test_acceptance_3_itree_duality(self, capsys):
        def body():
            report = check_itree_duality(Bounds(max_height=3, max_label=3))
            assert report.passed
            assert report.instances["capped_pairs"] == 0

        _criterion(3, body, capsys)

    def test_acceptance_4_disk_conversion(self, capsys):
        def body():
            start = time.monotonic()
            report = check_phi(
                Bounds(max_degree=2, max_label=3, max_height=3)
            )
            assert report.passed
            assert time.monotonic() - start < 120.0

        _criterion(4, body, capsys)

    def test_acceptance_5_cardinal_graph_equivalence(self, capsys):
        def body():
            report = check_gamma(Bounds(max_vertices=5))
            assert report.passed

        _criterion(5, body, capsys)

    def test_acceptance_6_free_category_comparison(self, capsys):
        def body():
            start = time.monotonic()
            report = check_L(Bounds(max_vertices=5, max_dim=3))
            assert report.passed
            assert time.monotonic() - start < 300.0

        _criterion(6, body, capsys)

    def test_acceptance_7_omega_category_laws(self, capsys):
        def body():
            report = check_omega_laws(Bounds(max_vertices=5, max_dim=3))
            assert report.passed

        _criterion(7, body, capsys)

    def test_acceptance_8_tree_functor_equivalence(self, capsys):
        def body():
            report = check_psi(Bounds(max_height=3, max_degree=2))
            assert report.passed

        _criterion(8, body, capsys)

    def test_acceptance_9_labeled_tree_conversion(self, capsys):
        def body():
            report = check_xi(Bounds(max_height=3, max_label=3))
            assert report.passed

        _criterion(9, body, capsys)

    def test_acceptance_10_figure_regression(self, capsys):
        def body():
            t = _example_tree()
            assert t.labels == EXAMPLE_LABELS
            parsed = LabeledTree.from_dict(t.to_dict())
            assert parsed == t
            h = xi_interval(t)
            assert xi_inverse(h) == t
            dual = con_dualize(t)
            assert con_dualize(dual) == t
            s = xi_ordinal(dual)
            assert s == vee(h)
            g = upsilon(s)
            assert upsilon_prime(g) == s
            x = gamma_prime(g)
            assert gamma(x) == g

        _criterion(10, body, capsys)
