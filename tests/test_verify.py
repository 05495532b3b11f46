"""Tests for the exhaustive verification harness."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from theta_disk import cli, verify
from theta_disk.cli import main
from theta_disk.globular import POINT_CARDINAL
from theta_disk.itree import (
    INTERVAL,
    ITreeObj,
    enumerate_morphisms,
    trivial_obj,
    vee,
)
from theta_disk.labeled import trivial_labeled, xi_interval, xi_inverse
from theta_disk.ograph import EMPTY_OGRAPH, gamma
from theta_disk.omega import (
    EnrichedCell,
    comparison_L,
    compose_cells,
    m_source,
    promote_cell,
    psi_mor,
)
from theta_disk.ordinal import Ordinal, vee_map
from theta_disk.verify import (
    CHECKS,
    Bounds,
    check_L,
    check_gamma,
    check_itree_duality,
    check_omega_laws,
    check_ordinal_duality,
    check_phi,
    check_psi,
    check_upsilon,
    check_xi,
    parse_bounds,
    render_reports,
    run_all,
)


# Instance counts of every check at ``Bounds()``, in ``CHECKS`` order.
DEFAULT_INSTANCES = {
    "ordinal-duality": {
        "objects": 8,
        "interval_maps": 35,
        "ordinal_maps": 35,
        "composable_pairs": 36,
        "hom_pairs": 9,
    },
    "itree-duality": {
        "interval_objects": 4,
        "ordinal_objects": 14,
        "interval_morphisms": 26,
        "ordinal_morphisms": 5463,
        "capped_pairs": 0,
    },
    "phi": {"disks": 3, "tree_objects": 4, "hom_pairs": 9, "morphisms": 10},
    "gamma": {"cardinals": 5, "hom_pairs": 25, "morphisms": 20},
    "upsilon": {"tree_objects": 14, "graphs": 5},
    "L": {
        "cells": 52,
        "proper_cells": 15,
        "boundary_checks": 89,
        "composition_checks": 114,
    },
    "omega-laws": {
        "unit_checks": 89,
        "associativity_checks": 142,
        "globularity_checks": 60,
        "composite_boundary_checks": 114,
    },
    "psi": {"pairs": 9, "morphisms": 10},
    "xi": {
        "interval_objects": 14,
        "ordinal_objects": 14,
        "hom_pairs": 18,
        "morphisms": 20,
        "square_objects": 14,
        "square_morphisms": 10,
    },
}

# SHA-256 of ``theta-disk verify --all`` stdout per ``--bounds`` text.
VERIFY_ALL_SHA256 = {
    "": "4f2420a6f1f27c0db0979136aa4c1dcc8d85c5bb809c229a4c43659e65727a7e",
    "height=1,label=1,vertices=2,dim=1": (
        "4b88941d8ddb30f7b197760a9a287578c7b079082fb98f237ab972398e49ab07"
    ),
}

# SHA-256 of ``theta-disk verify --check CHECK --bounds BOUNDS`` stdout.
CHECK_SHA256 = {
    ("phi", "label=5"): (
        "eaef7471919217e85e28114df6bdf026456684fd6bca0e1510fc77ef4da3e309"
    ),
    ("phi", "degree=3,label=4"): (
        "d6447a4dbdea0fc432e8ffcecc6436fd9b28151149d60fec5667da2707535632"
    ),
    ("xi", "label=4"): (
        "73f1edc5be94f85cacdad5bc0e76de2bad1b599fe9c790152b4f52cccead0776"
    ),
    ("xi", "label=5"): (
        "db3b66fb28bfbe91f27180c50bbbccac1cd687af977e7ab31e5502483549982e"
    ),
    ("gamma", "vertices=9,dim=2"): (
        "f869335a4483ab43bb2f398ff31683d4e7d2b3a7744bc7430931862d52da16e4"
    ),
    ("L", "vertices=9,dim=2"): (
        "7ac390c6d265bc7ba32e7b4a7a810488de1a33405b7846d94e9274b4cfbc0ee2"
    ),
    ("omega-laws", "vertices=9,dim=2"): (
        "c2b5afef9e9def4db8404a26c31b2cb6b1a5f35e3be15ce60728eefa20006fb8"
    ),
    ("gamma", "vertices=11,dim=2"): (
        "0b1dc96d05571bd086d38237ff60aa116fc19ad5ba50d7be3a56bb70f763d05b"
    ),
    ("L", "vertices=11,dim=2"): (
        "839a3adf8edab90977cfbbc86bc2323d5378ea091bf7624d57ccafa4f31bb6f5"
    ),
    ("omega-laws", "vertices=11,dim=2"): (
        "11ec0bf0bba95934f9f3b79846a74c3f70cf25099160981f9d4be4f1ab24b8d1"
    ),
    ("psi", "degree=5"): (
        "566448e94f01463cfaeb8462da9d86868c93c416282996e5040594b52af61fb4"
    ),
    ("psi", "height=3,degree=6"): (
        "57c53111f39c68f6d193d781c792fbec2fdbf7c67fa7a8618c908f63a29a98bf"
    ),
    ("psi", "height=3,degree=7"): (
        "41ffe2ed8e85ee113564176a335bb248bf1bfaafb345d9749b4fe9c6cd3545ad"
    ),
}

TI = trivial_obj(INTERVAL)
I1 = ITreeObj(INTERVAL, Ordinal(1), (TI, TI))


def corrupt_vee_map(f):
    """``vee_map`` with the identity on [2] sent to the wrong map."""
    if f.dom == Ordinal(2) and f.images == (0, 1, 2):
        return vee_map(type(f)(Ordinal(2), Ordinal(2), (0, 2, 2)))
    return vee_map(f)


def corrupt_vee(x):
    """``vee`` with the tree ``I1`` collapsed to the trivial object."""
    if x == I1:
        return vee(TI)
    return vee(x)


def corrupt_vee_on_morphisms(x):
    """``vee`` with each morphism out of a hom-set of several sent to the
    next morphism of its target hom-set; objects map correctly."""
    y = vee(x)
    if isinstance(x, ITreeObj):
        return y
    homs = enumerate_morphisms(y.dom, y.cod)
    return homs[(homs.index(y) + 1) % len(homs)]


def corrupt_comparison(c):
    """``comparison_L`` with the object cell 1 sent to the object 0."""
    e = comparison_L(c)
    if e.dim == 0 and e.h == e.k == 1:
        return EnrichedCell(0, 0, 0)
    return e


def corrupt_compose(beta, alpha, m):
    """``compose_cells`` answering with the unit on the m-source."""
    real = compose_cells(beta, alpha, m)
    return promote_cell(m_source(alpha, m), real.nominal_dim)


def corrupt_psi_mor(f):
    """``psi_mor`` sending every morphism to the first of its hom-set."""
    return psi_mor(enumerate_morphisms(f.dom, f.cod)[0])


class TestBounds:
    def test_defaults(self):
        b = Bounds()
        assert (b.max_height, b.max_degree, b.max_label) == (3, 2, 3)
        assert (b.max_vertices, b.max_dim) == (5, 3)

    def test_rejects_negatives(self):
        with pytest.raises(ValueError, match="non-negative"):
            Bounds(max_height=-1)

    def test_serialization_round_trip(self):
        b = Bounds(max_label=5, max_dim=2)
        assert Bounds.from_dict(b.to_dict()) == b

    @pytest.mark.parametrize("b", [Bounds(), Bounds(max_label=5, max_dim=2)])
    def test_to_dict_matches_asdict(self, b):
        assert b.to_dict() == dataclasses.asdict(b)
        assert list(b.to_dict()) == list(dataclasses.asdict(b))

    def test_parse_overrides_named_entries(self):
        b = parse_bounds("height=2,dim=1")
        assert b == Bounds(max_height=2, max_dim=1)
        assert parse_bounds("") == Bounds()
        assert parse_bounds("label=4", base=b) == Bounds(
            max_height=2, max_dim=1, max_label=4
        )

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown bounds entry"):
            parse_bounds("width=3")

    @pytest.mark.parametrize(
        "entry", ["label=1_0", "label=+3", "label=\u0663", "label=", "label=2.0"]
    )
    def test_parse_rejects_values_that_are_not_ascii_integers(self, capsys, entry):
        with pytest.raises(ValueError, match="bounds entry"):
            parse_bounds(entry)
        assert main(["render", "--bounds", entry, "[2]"]) == 2
        assert f"bounds entry {entry!r}" in capsys.readouterr().err

    def test_parse_strips_blanks_and_keeps_the_sign_check(self):
        assert parse_bounds(" label = 4 ") == Bounds(max_label=4)
        with pytest.raises(ValueError, match="max_label is non-negative"):
            parse_bounds("label=-1")

    def test_parse_is_memoized_on_text_and_base(self):
        b = parse_bounds("height=2")
        assert parse_bounds("height=2") is b
        assert parse_bounds("label=4", base=b) is parse_bounds("label=4", base=b)
        assert parse_bounds("label=4", base=b) != parse_bounds("label=4")

    def test_malformed_bounds_raise_on_every_call(self, capsys):
        before = parse_bounds.cache_info()
        for _ in range(3):
            with pytest.raises(ValueError, match="unknown bounds entry"):
                parse_bounds("height=2,width=3")
        after = parse_bounds.cache_info()
        assert (after.hits, after.currsize) == (before.hits, before.currsize)
        for _ in range(2):
            assert main(["render", "--bounds", "width=3", "[2]"]) == 2
            assert "unknown bounds entry" in capsys.readouterr().err


class TestOrdinalDualityCheck:
    def test_passes_with_pinned_map_count(self):
        report = check_ordinal_duality(Bounds(max_label=5))
        assert report.passed
        assert report.counterexample is None
        assert report.instances["interval_maps"] == 462
        assert report.instances["interval_maps"] >= 251
        assert report.instances["hom_pairs"] == 25

    def test_negative_control(self):
        report = check_ordinal_duality(Bounds(), vee_map_fn=corrupt_vee_map)
        assert not report.passed
        assert report.counterexample["law"] == "interval-map-round-trip"

    def test_negative_control_after_the_memo_is_warm(self):
        assert check_ordinal_duality(Bounds()).passed
        report = check_ordinal_duality(Bounds(), vee_map_fn=corrupt_vee_map)
        assert not report.passed
        assert report.counterexample["law"] == "interval-map-round-trip"


class TestITreeDualityCheck:
    def test_height_zero_has_one_object_per_flavor(self):
        report = check_itree_duality(Bounds(max_height=0))
        assert report.passed
        assert report.instances["interval_objects"] == 1
        assert report.instances["ordinal_objects"] == 1
        assert report.instances["capped_pairs"] == 0

    def test_passes_at_defaults(self):
        report = check_itree_duality(Bounds())
        assert report.passed
        assert report.instances["interval_morphisms"] > 0

    def test_negative_control(self):
        report = check_itree_duality(Bounds(), vee_fn=corrupt_vee)
        assert not report.passed
        assert report.counterexample["law"] == "object-round-trip"

    def test_negative_control_after_the_memo_is_warm(self):
        assert check_itree_duality(Bounds()).passed
        report = check_itree_duality(Bounds(), vee_fn=corrupt_vee)
        assert not report.passed
        assert report.counterexample["law"] == "object-round-trip"

    def test_morphism_negative_control(self):
        report = check_itree_duality(Bounds(), vee_fn=corrupt_vee_on_morphisms)
        assert not report.passed
        assert report.counterexample["law"] == "morphism-round-trip"

    def test_morphism_negative_control_after_the_tables_are_warm(self):
        assert check_itree_duality(Bounds()).passed
        report = check_itree_duality(Bounds(), vee_fn=corrupt_vee_on_morphisms)
        assert not report.passed
        assert report.counterexample["law"] == "morphism-round-trip"

    def test_hom_set_over_the_cap_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "MORPHISM_PAIR_CAP", 3)
        listed = []

        def listing(a, b):
            listed.append((a, b))
            return enumerate_morphisms(a, b)

        monkeypatch.setattr(verify, "enumerate_morphisms", listing)
        report = check_itree_duality(Bounds())
        assert not report.passed
        assert report.counterexample["law"] == "hom-set-cap"
        assert report.instances["capped_pairs"] == 1
        dom = ITreeObj.from_dict(report.counterexample["dom"])
        cod = ITreeObj.from_dict(report.counterexample["cod"])
        assert len(enumerate_morphisms(dom, cod)) > 3
        # The capped pair is counted, never listed.
        assert listed and (dom, cod) not in listed
        monkeypatch.delenv("THETA_DISK_BOUNDS", raising=False)
        assert main(["verify", "--check", "itree-duality"]) != 0
        assert json.loads(capsys.readouterr().out)["passed"] is False


class TestPhiCheck:
    def test_passes_at_defaults(self):
        report = check_phi(Bounds())
        assert report.passed
        assert report.instances["disks"] > 1
        assert report.instances["morphisms"] > 0

    def test_negative_control(self):
        report = check_phi(Bounds(), phi_obj_fn=lambda d: TI)
        assert not report.passed
        assert report.counterexample["law"] == "object-round-trip"


class TestGammaCheck:
    def test_passes_at_defaults(self):
        report = check_gamma(Bounds())
        assert report.passed
        assert report.instances["cardinals"] > 4

    def test_negative_control(self):
        def corrupt(x):
            if x == POINT_CARDINAL:
                return EMPTY_OGRAPH
            return gamma(x)

        report = check_gamma(Bounds(), gamma_fn=corrupt)
        assert not report.passed
        assert report.counterexample["law"] == "graph-round-trip"


class TestUpsilonCheck:
    def test_passes_at_defaults(self):
        report = check_upsilon(Bounds())
        assert report.passed
        assert report.instances["graphs"] > 1

    def test_negative_control(self):
        report = check_upsilon(Bounds(), upsilon_fn=lambda h: EMPTY_OGRAPH)
        assert not report.passed
        assert report.counterexample["law"] == "tree-round-trip"


class TestLCheck:
    def test_passes_at_defaults(self):
        report = check_L(Bounds())
        assert report.passed
        assert report.instances["cells"] > 0
        assert 0 < report.instances["proper_cells"] < report.instances["cells"]

    def test_negative_control(self):
        report = check_L(Bounds(), comparison_fn=corrupt_comparison)
        assert not report.passed
        assert report.counterexample["law"] == "injective"

    def test_negative_control_after_the_tables_are_warm(self):
        # Interned cells and memoized boundaries survive the passing run;
        # the comparison itself must still be called on every cell.
        assert check_L(Bounds()).passed
        report = check_L(Bounds(), comparison_fn=corrupt_comparison)
        assert not report.passed
        assert report.counterexample["law"] == "injective"


class TestOmegaLawsCheck:
    def test_passes_at_defaults(self):
        report = check_omega_laws(Bounds())
        assert report.passed
        for key in (
            "unit_checks",
            "associativity_checks",
            "globularity_checks",
            "composite_boundary_checks",
        ):
            assert report.instances[key] > 0

    def test_negative_control(self):
        report = check_omega_laws(Bounds(), compose_fn=corrupt_compose)
        assert not report.passed
        assert report.counterexample["law"] == "left-unit"

    def test_negative_control_after_the_tables_are_warm(self):
        assert check_omega_laws(Bounds()).passed
        report = check_omega_laws(Bounds(), compose_fn=corrupt_compose)
        assert not report.passed
        assert report.counterexample["law"] == "left-unit"


class TestPsiCheck:
    def test_passes_at_defaults(self):
        report = check_psi(Bounds())
        assert report.passed
        assert report.instances["pairs"] == 9

    def test_negative_control(self):
        report = check_psi(Bounds(), psi_mor_fn=corrupt_psi_mor)
        assert not report.passed
        assert report.counterexample["law"] == "faithful"

    def test_negative_control_after_the_tables_are_warm(self):
        assert check_psi(Bounds()).passed
        report = check_psi(Bounds(), psi_mor_fn=corrupt_psi_mor)
        assert not report.passed
        assert report.counterexample["law"] == "faithful"


class TestXiCheck:
    def test_passes_at_defaults(self):
        report = check_xi(Bounds())
        assert report.passed
        assert report.instances["interval_objects"] > 4
        assert report.instances["square_morphisms"] > 0

    def test_negative_control(self):
        li1 = xi_inverse(I1)

        def corrupt(t):
            if t == li1:
                return TI
            return xi_interval(t)

        report = check_xi(Bounds(), xi_interval_fn=corrupt)
        assert not report.passed
        assert report.counterexample["law"] == "object-round-trip"


class TestPools:
    def test_enumerate_lists_the_named_pools(self):
        assert cli.ENUMERATIONS == tuple(verify.POOLS)

    def test_enumerators_are_looked_up_at_call_time(self, capsys, monkeypatch):
        # A pool table holding the enumerator functions themselves would
        # miss a rebinding such as this one (or a tracing wrapper's).
        calls = []
        for name in ("enumerate_disks", "enumerate_ographs"):

            def counting(*args, real=getattr(verify, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(verify, name, counting)
        assert check_phi(Bounds()).passed
        assert calls == ["enumerate_disks"]
        assert check_L(Bounds()).passed
        assert calls == ["enumerate_disks", "enumerate_ographs"]
        monkeypatch.delenv("THETA_DISK_BOUNDS", raising=False)
        assert main(["enumerate", "--kind", "ograph"]) == 0
        assert capsys.readouterr().out
        assert calls == ["enumerate_disks", "enumerate_ographs", "enumerate_ographs"]


class TestRunAll:
    def test_everything_passes_at_defaults(self):
        reports = run_all()
        assert [r.check for r in reports] == list(CHECKS)
        assert all(r.passed for r in reports)
        assert all(r.counterexample is None for r in reports)
        assert {r.check: r.instances for r in reports} == DEFAULT_INSTANCES

    @pytest.mark.parametrize("bounds", sorted(VERIFY_ALL_SHA256))
    def test_verify_all_stdout_is_pinned(self, capsys, monkeypatch, bounds):
        monkeypatch.delenv("THETA_DISK_BOUNDS", raising=False)
        assert main(["verify", "--all", "--bounds", bounds]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[bounds]

    @pytest.mark.parametrize("check, bounds", sorted(CHECK_SHA256))
    def test_check_stdout_is_pinned(
        self, capsys, monkeypatch, check, bounds
    ):
        monkeypatch.delenv("THETA_DISK_BOUNDS", raising=False)
        assert main(["verify", "--check", check, "--bounds", bounds]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == CHECK_SHA256[
            (check, bounds)
        ]

    def test_reports_render_deterministically(self):
        bounds = Bounds(max_height=1, max_label=1, max_vertices=2, max_dim=1)
        first = render_reports(run_all(bounds))
        second = render_reports(run_all(bounds))
        assert first == second
        lines = first.strip().split("\n")
        assert len(lines) == len(CHECKS)
        for line in lines:
            data = json.loads(line)
            assert data["kind"] == "report"
            assert data["passed"] is True
