"""Tests for the exhaustive verification harness."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from itertools import product

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
from theta_disk.labeled import (
    enumerate_labeled_mors,
    xi_interval,
    xi_inverse,
)
from theta_disk.ograph import EMPTY_OGRAPH, gamma, gamma_prime
from theta_disk.omega import (
    EnrichedCell,
    comparison_L,
    compose_cells,
    enriched_m_target,
    enumerate_cells,
    m_source,
    m_target,
    promote_cell,
    psi_mor,
)
from theta_disk.ordinal import OrdMap, Ordinal, vee_map
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


def corrupt_phi_obj(d):
    """``phi_obj`` sending every disk to the trivial interval tree."""
    return TI


def corrupt_gamma(x):
    """``gamma`` with the point cardinal sent to the empty graph."""
    if x == POINT_CARDINAL:
        return EMPTY_OGRAPH
    return gamma(x)


def corrupt_upsilon(h):
    """``upsilon`` sending every tree to the empty graph."""
    return EMPTY_OGRAPH


def corrupt_xi_interval(t):
    """``xi_interval`` with the labeled tree of ``I1`` sent to the trivial
    interval tree."""
    if t == xi_inverse(I1):
        return TI
    return xi_interval(t)


# The ten negative controls through a check's seam keyword: the check, the
# keyword and the corrupted function.
NEGATIVE_CONTROLS = {
    "ordinal-duality": (check_ordinal_duality, "vee_map_fn", corrupt_vee_map),
    "itree-duality": (check_itree_duality, "vee_fn", corrupt_vee),
    "itree-duality-morphisms": (
        check_itree_duality,
        "vee_fn",
        corrupt_vee_on_morphisms,
    ),
    "phi": (check_phi, "phi_obj_fn", corrupt_phi_obj),
    "gamma": (check_gamma, "gamma_fn", corrupt_gamma),
    "upsilon": (check_upsilon, "upsilon_fn", corrupt_upsilon),
    "L": (check_L, "comparison_fn", corrupt_comparison),
    "omega-laws": (check_omega_laws, "compose_fn", corrupt_compose),
    "psi": (check_psi, "psi_mor_fn", corrupt_psi_mor),
    "xi": (check_xi, "xi_interval_fn", corrupt_xi_interval),
}

# SHA-256 of ``render_reports`` of each negative control's report at
# ``Bounds()``: the law, the witnesses and the counts at the failure.
NEGATIVE_CONTROL_SHA256 = {
    "ordinal-duality": (
        "330e28c9b4c6d9b905233b2e1e5af1d0303fbede32581f9c51138ed9f83b350a"
    ),
    "itree-duality": (
        "b620ca1db69e28171c929c11b7c86d7674ccb432d23f44ba509a1fd112e806dc"
    ),
    "itree-duality-morphisms": (
        "3cd6c53ce889b5b05b270a386b00b36dcfdfe65fd8316f04a8850b7fe81fcf9b"
    ),
    "phi": (
        "6c8b4b44d7a32874d7de28f7807d1a6906de9dd1952b3d8a2a0082dc3586694d"
    ),
    "gamma": (
        "3d16b94a2f6fcb28b2e460622c5996ec2100a293c300e90842cfea6b85a1792f"
    ),
    "upsilon": (
        "4728c1bcde2981b55db6f7d6e0b221bb6f0b472fd4766e1823389d5d0a693d0e"
    ),
    "L": (
        "55abffff739c3324d2d65f5a43b7a10eca669fe7225a5ed7af3e20df4e2a9767"
    ),
    "omega-laws": (
        "468e2631115d7e02660f7f3e4b3d3d3d4ff61860f84cae75181f095f71ef64d1"
    ),
    "psi": (
        "039a31067cc15b76f7522f629a3603cff27bdef6aaa7c5ad85e6b1b84505cfe9"
    ),
    "xi": (
        "4291611c43735361873c4ab4610a9ca1ed3f777fad0bd6cb9901d637d4beb0d5"
    ),
}


def without(index, applies=lambda *args: True):
    """Corrupt an enumerator: drop the item at ``index`` from each listing
    whose arguments satisfy ``applies``."""

    def corrupt(real):
        def listing(*args):
            items = list(real(*args))
            if items and applies(*args):
                del items[index]
            return items

        return listing

    return corrupt


def constant_composite(real):
    """Corrupt ``compose``: a composite ``[1] -> [1]`` that is not an
    interval map comes out as the constant map to ``0``."""

    def composite(g, f):
        h = real(g, f)
        if h.dom == h.cod == Ordinal(1) and not h.is_interval:
            return OrdMap(Ordinal(1), Ordinal(1), (0, 0))
        return h

    return composite


def next_dual(real):
    """Corrupt ``con_dualize_mor``: each dual comes out as the next morphism
    of its hom-set."""

    def dual(m):
        d = real(m)
        homs = enumerate_labeled_mors(d.dom, d.cod)
        return homs[(homs.index(d) + 1) % len(homs)]

    return dual


def borrowed_dual(real):
    """Corrupt ``con_dualize``: the last tree of the default interval pool
    comes out as the dual of the tree before it."""
    pool = verify.POOLS["cropped-interval"](Bounds())

    def dual(t):
        return real(pool[-2] if t == pool[-1] else t)

    return dual


def source_as_target(real):
    """Corrupt ``enriched_m_source``: every m-source comes out as the
    m-target."""
    return enriched_m_target


def composite_as_first(real):
    """Corrupt ``compose_enriched``: every composite comes out as its first
    factor ``alpha``."""
    return lambda beta, alpha, m: alpha


def never_an_identity(real):
    """Corrupt ``demote_enriched``: no enriched cell is an identity."""
    return lambda c: None


def low_source_as_target(real):
    """Corrupt ``m_source``: a source more than one dimension down comes
    out as the target there."""

    def source(c, m):
        return m_target(c, m) if c.nominal_dim > m + 1 else real(c, m)

    return source


def proper_after_unit(real):
    """Corrupt ``compose_cells``: a proper cell after an improper one (a
    unit on its right) comes out as the improper one."""

    def composite(beta, alpha, m):
        if beta.is_proper and not alpha.is_proper:
            return alpha
        return real(beta, alpha, m)

    return composite


def proper_composite_as_first(real):
    """Corrupt ``compose_cells``: a composite of two proper cells comes out
    as its first factor ``alpha``, whose target is not the composite's."""

    def composite(beta, alpha, m):
        if beta.is_proper and alpha.is_proper:
            return alpha
        return real(beta, alpha, m)

    return composite


def proper_after_smaller_as_first(real):
    """Corrupt ``compose_cells``: a proper cell after a proper cell of a
    smaller shape comes out as that first factor ``alpha``.  For three
    proper cells of one shape, ``(gamma after beta) after alpha`` is such
    a composite and ``gamma after (beta after alpha)`` is not."""

    def composite(beta, alpha, m):
        proper = beta.is_proper and alpha.is_proper
        if proper and beta.shape.size() > alpha.shape.size():
            return alpha
        return real(beta, alpha, m)

    return composite


# Controls for laws that no seam reaches: the check, the ``verify`` global
# to corrupt, the corruption of it and the law the check must fail.
GLOBAL_CONTROLS = {
    "ordinal-duality-hom-count": (
        check_ordinal_duality,
        "enumerate_ord_maps",
        without(-1, lambda m, n: m.n >= 0),
        "hom-count",
    ),
    "ordinal-duality-contravariance": (
        check_ordinal_duality,
        "compose_ord",
        constant_composite,
        "contravariance",
    ),
    "gamma-hom-count": (
        check_gamma,
        "enumerate_glob_morphisms",
        without(-1),
        "hom-count",
    ),
    "phi-hom-bijection": (
        check_phi,
        "enumerate_morphisms",
        without(0),
        "hom-bijection",
    ),
    "psi-full": (check_psi, "enumerate_omega_functors", without(-1), "full"),
    "L-bijective": (
        check_L,
        "free_on_ograph_cells",
        without(-1, lambda g, n: g.vertices > 1),
        "bijective",
    ),
    "L-proper-count": (
        check_L,
        "demote_enriched",
        never_an_identity,
        "proper-count",
    ),
    "L-boundaries": (check_L, "enriched_m_source", source_as_target, "boundaries"),
    "L-composition": (
        check_L,
        "compose_enriched",
        composite_as_first,
        "composition",
    ),
    "omega-laws-globularity": (
        check_omega_laws,
        "m_source",
        low_source_as_target,
        "globularity",
    ),
    "omega-laws-associativity": (
        check_omega_laws,
        "compose_cells",
        proper_after_smaller_as_first,
        "associativity",
    ),
    "omega-laws-right-unit": (
        check_omega_laws,
        "compose_cells",
        proper_after_unit,
        "right-unit",
    ),
    "omega-laws-target-of-composite": (
        check_omega_laws,
        "compose_cells",
        proper_composite_as_first,
        "target-of-composite",
    ),
    "xi-object-surjectivity": (
        check_xi,
        "enumerate_objects",
        without(-1),
        "object-surjectivity",
    ),
    "xi-duality-square": (
        check_xi,
        "con_dualize_mor",
        next_dual,
        "duality-square",
    ),
    "xi-object-duality-square": (
        check_xi,
        "con_dualize",
        borrowed_dual,
        "duality-square",
    ),
}


# The bounds of a control whose law ``Bounds()`` never tests on the cells
# the corruption changes: at the defaults no associativity check composes
# three proper cells (see ``TestNegativeControls``).
CONTROL_BOUNDS = {"omega-laws-associativity": parse_bounds("vertices=9,dim=2")}


def proper_triples(bounds: Bounds) -> int:
    """The triples of proper cells, each composable after the one before
    along some dimension, over the cardinals of the ``ograph`` pool."""
    found = 0
    for g in verify.POOLS["ograph"](bounds):
        x = gamma_prime(g)
        for n in range(1, bounds.max_dim + 1):
            proper = [c for c in enumerate_cells(x, n) if c.is_proper]
            for m in range(n):
                found += sum(
                    m_target(a, m) == m_source(b, m)
                    and m_target(b, m) == m_source(c, m)
                    for a, b, c in product(proper, repeat=3)
                )
    return found


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
        assert main(["cells", "--bounds", entry, "[2]"]) == 2
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
            assert main(["cells", "--bounds", "width=3", "[2]"]) == 2
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
        report = check_phi(Bounds(), phi_obj_fn=corrupt_phi_obj)
        assert not report.passed
        assert report.counterexample["law"] == "object-round-trip"


class TestGammaCheck:
    def test_passes_at_defaults(self):
        report = check_gamma(Bounds())
        assert report.passed
        assert report.instances["cardinals"] > 4

    def test_negative_control(self):
        report = check_gamma(Bounds(), gamma_fn=corrupt_gamma)
        assert not report.passed
        assert report.counterexample["law"] == "graph-round-trip"


class TestUpsilonCheck:
    def test_passes_at_defaults(self):
        report = check_upsilon(Bounds())
        assert report.passed
        assert report.instances["graphs"] > 1

    def test_negative_control(self):
        report = check_upsilon(Bounds(), upsilon_fn=corrupt_upsilon)
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
        report = check_xi(Bounds(), xi_interval_fn=corrupt_xi_interval)
        assert not report.passed
        assert report.counterexample["law"] == "object-round-trip"


class TestNegativeControls:
    @pytest.mark.parametrize("control", sorted(NEGATIVE_CONTROL_SHA256))
    def test_failing_report_is_pinned(self, control):
        check, seam, corruption = NEGATIVE_CONTROLS[control]
        out = render_reports([check(Bounds(), **{seam: corruption})])
        assert json.loads(out)["passed"] is False
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == NEGATIVE_CONTROL_SHA256[control]

    @pytest.mark.parametrize("control", sorted(GLOBAL_CONTROLS))
    def test_corrupted_global_fails_its_law(self, monkeypatch, control):
        check, name, corrupt, law = GLOBAL_CONTROLS[control]
        bounds = CONTROL_BOUNDS.get(control, Bounds())
        assert check(bounds).passed
        monkeypatch.setattr(verify, name, corrupt(getattr(verify, name)))
        report = check(bounds)
        assert not report.passed
        assert report.counterexample["law"] == law

    def test_associativity_composes_proper_cells_only_above_the_defaults(self):
        assert proper_triples(Bounds()) == 0
        assert proper_triples(CONTROL_BOUNDS["omega-laws-associativity"]) == 13
        # So the control's corruption goes unseen there.
        corrupt = proper_after_smaller_as_first(compose_cells)
        assert check_omega_laws(Bounds(), compose_fn=corrupt).passed


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

    @pytest.mark.parametrize(
        "check, name",
        [
            (check_ordinal_duality, "vee_map"),
            (check_itree_duality, "vee"),
            (check_phi, "phi_obj"),
            (check_gamma, "gamma"),
            (check_upsilon, "upsilon"),
            (check_L, "comparison_L"),
            (check_omega_laws, "compose_cells"),
            (check_psi, "psi_mor"),
            (check_xi, "xi_interval"),
        ],
    )
    def test_seams_are_looked_up_at_call_time(self, monkeypatch, check, name):
        # A seam left at its default is the module global when the check
        # runs, not the function bound when the check was defined.
        calls = []

        def counting(*args, real=getattr(verify, name)):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, name, counting)
        assert check(Bounds()).passed
        assert calls


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
