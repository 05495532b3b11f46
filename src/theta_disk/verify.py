"""Exhaustive bounded verification of the library's structural laws."""

from __future__ import annotations

import json
from dataclasses import dataclass

from theta_disk.disk import (
    enumerate_disk_morphisms,
    enumerate_disks,
    phi_inverse_obj,
    phi_mor,
    phi_obj,
    validate_disk,
)
from theta_disk.globular import enumerate_glob_morphisms
from theta_disk.itree import (
    INTERVAL,
    ORDINAL,
    enumerate_morphisms,
    enumerate_objects,
    validate as validate_itree,
    vee,
    wedge,
)
from theta_disk.labeled import (
    con_dualize,
    con_dualize_mor,
    enumerate_cropped_trees,
    enumerate_labeled_mors,
    validate_cropped,
    xi_interval,
    xi_interval_mor,
    xi_inverse,
    xi_ordinal,
    xi_ordinal_mor,
)
from theta_disk.ograph import (
    enumerate_ograph_morphisms,
    enumerate_ographs,
    gamma,
    gamma_mor,
    gamma_prime,
    gamma_prime_mor,
    upsilon,
    upsilon_prime,
)
from theta_disk.omega import (
    comparison_L,
    compose_cells,
    compose_enriched,
    demote_enriched,
    enriched_m_source,
    enriched_m_target,
    enumerate_cells,
    enumerate_omega_functors,
    free_on_ograph_cells,
    m_source,
    m_target,
    promote_cell,
    psi_mor,
    psi_obj,
)
from theta_disk.ordinal import (
    Ordinal,
    compose as compose_ord,
    enumerate_interval_maps,
    enumerate_ord_maps,
    vee_map,
    vee_obj,
    wedge_map,
    wedge_obj,
)

MORPHISM_PAIR_CAP = 2000


@dataclass(frozen=True)
class Bounds:
    """Size caps for the exhaustive checks."""

    max_height: int = 3
    max_degree: int = 2
    max_label: int = 3
    max_vertices: int = 5
    max_dim: int = 3

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} is non-negative")

    def to_dict(self) -> dict:
        return {
            "max_height": self.max_height,
            "max_degree": self.max_degree,
            "max_label": self.max_label,
            "max_vertices": self.max_vertices,
            "max_dim": self.max_dim,
        }

    @staticmethod
    def from_dict(data: dict) -> "Bounds":
        return Bounds(**{k: int(v) for k, v in data.items()})


_BOUNDS_KEYS = {
    "height": "max_height",
    "degree": "max_degree",
    "label": "max_label",
    "vertices": "max_vertices",
    "dim": "max_dim",
}


def parse_bounds(text: str, base: Bounds | None = None) -> Bounds:
    """Parse a ``height=..,degree=..,label=..,vertices=..,dim=..`` string."""
    values = (base or Bounds()).to_dict()
    for part in filter(None, (p.strip() for p in text.split(","))):
        key, sep, raw = part.partition("=")
        if not sep or key.strip() not in _BOUNDS_KEYS:
            raise ValueError(f"unknown bounds entry {part!r}")
        values[_BOUNDS_KEYS[key.strip()]] = int(raw)
    return Bounds.from_dict(values)


@dataclass
class Report:
    """The outcome of one exhaustive check."""

    check: str
    bounds: Bounds
    instances: dict[str, int]
    passed: bool
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        return {
            "kind": "report",
            "check": self.check,
            "bounds": self.bounds.to_dict(),
            "instances": dict(sorted(self.instances.items())),
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


def render_reports(reports: list[Report]) -> str:
    """Serialize reports as JSON lines with sorted keys."""
    return "".join(
        json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in reports
    )


def _ser(obj) -> object:
    to_dict = getattr(obj, "to_dict", None)
    return to_dict() if callable(to_dict) else repr(obj)


def _fail(law: str, **witnesses) -> dict:
    payload = {"law": law}
    payload.update({name: _ser(obj) for name, obj in witnesses.items()})
    return payload


def check_ordinal_duality(
    bounds: Bounds, *, vee_map_fn=vee_map, wedge_map_fn=wedge_map
) -> Report:
    """Mutually inverse contravariant duality between interval and
    ordinal maps, plus the hom-count identity it induces."""
    counts = {
        "objects": 0,
        "interval_maps": 0,
        "ordinal_maps": 0,
        "composable_pairs": 0,
        "hom_pairs": 0,
    }

    def report(failure: dict | None = None) -> Report:
        return Report("ordinal-duality", bounds, counts, failure is None, failure)

    cap = bounds.max_label
    for m in range(cap + 1):
        counts["objects"] += 1
        if wedge_obj(vee_obj(Ordinal(m))) != Ordinal(m):
            return report(_fail("object-round-trip", ordinal=Ordinal(m)))
    for p in range(-1, cap):
        counts["objects"] += 1
        if vee_obj(wedge_obj(Ordinal(p))) != Ordinal(p):
            return report(_fail("object-round-trip", ordinal=Ordinal(p)))
    for m in range(cap + 1):
        for n in range(cap + 1):
            for f in enumerate_interval_maps(Ordinal(m), Ordinal(n)):
                counts["interval_maps"] += 1
                if wedge_map_fn(vee_map_fn(f)) != f:
                    return report(_fail("interval-map-round-trip", map=f))
    for p in range(-1, cap):
        for q in range(-1, cap):
            for g in enumerate_ord_maps(Ordinal(p), Ordinal(q)):
                counts["ordinal_maps"] += 1
                if vee_map_fn(wedge_map_fn(g)) != g:
                    return report(_fail("ordinal-map-round-trip", map=g))
    tri = max(cap - 1, 0)
    for m in range(tri + 1):
        for n in range(tri + 1):
            for k in range(tri + 1):
                for f in enumerate_interval_maps(Ordinal(m), Ordinal(n)):
                    for g in enumerate_interval_maps(Ordinal(n), Ordinal(k)):
                        counts["composable_pairs"] += 1
                        composed = vee_map_fn(compose_ord(g, f))
                        swapped = compose_ord(vee_map_fn(f), vee_map_fn(g))
                        if composed != swapped:
                            return report(
                                _fail("contravariance", first=f, second=g)
                            )
    for m in range(1, cap + 1):
        for n in range(1, cap + 1):
            counts["hom_pairs"] += 1
            forward = len(enumerate_interval_maps(Ordinal(m), Ordinal(n)))
            backward = len(enumerate_ord_maps(Ordinal(n - 1), Ordinal(m - 1)))
            if forward != backward:
                return report(
                    _fail("hom-count", dom=Ordinal(m), cod=Ordinal(n))
                )
    return report()


def check_itree_duality(bounds: Bounds, *, vee_fn=vee, wedge_fn=wedge) -> Report:
    """The inductive-tree dualities are mutually inverse on bounded
    objects and on every morphism between them."""
    counts = {
        "interval_objects": 0,
        "ordinal_objects": 0,
        "interval_morphisms": 0,
        "ordinal_morphisms": 0,
        "capped_pairs": 0,
    }

    def report(failure: dict | None = None) -> Report:
        return Report("itree-duality", bounds, counts, failure is None, failure)

    interval_objs = enumerate_objects(
        INTERVAL, bounds.max_height, bounds.max_label
    )
    ordinal_objs = enumerate_objects(ORDINAL, bounds.max_height, bounds.max_label)
    for h in interval_objs:
        counts["interval_objects"] += 1
        if wedge_fn(vee_fn(h)) != h:
            return report(_fail("object-round-trip", tree=h))
    for s in ordinal_objs:
        counts["ordinal_objects"] += 1
        if vee_fn(wedge_fn(s)) != s:
            return report(_fail("object-round-trip", tree=s))
    for pool, key, forward, backward in (
        (interval_objs, "interval_morphisms", vee_fn, wedge_fn),
        (ordinal_objs, "ordinal_morphisms", wedge_fn, vee_fn),
    ):
        for a in pool:
            for b in pool:
                mors = enumerate_morphisms(a, b)
                if len(mors) > MORPHISM_PAIR_CAP:
                    # A hom-set beyond the cap is not checked, so the check
                    # cannot pass.
                    counts["capped_pairs"] += 1
                    return report(_fail("hom-set-cap", dom=a, cod=b))
                for m in mors:
                    counts[key] += 1
                    if backward(forward(m)) != m:
                        return report(_fail("morphism-round-trip", morphism=m))
    return report()


def check_phi(
    bounds: Bounds,
    *,
    phi_obj_fn=phi_obj,
    phi_inverse_obj_fn=phi_inverse_obj,
    phi_mor_fn=phi_mor,
) -> Report:
    """The disk-to-inductive-tree conversion is bijective on bounded
    objects and a hom-set bijection."""
    counts = {"disks": 0, "tree_objects": 0, "hom_pairs": 0, "morphisms": 0}

    def report(failure: dict | None = None) -> Report:
        return Report("phi", bounds, counts, failure is None, failure)

    disks = enumerate_disks(bounds.max_degree, bounds.max_label)
    for d in disks:
        counts["disks"] += 1
        h = phi_obj_fn(d)
        if validate_itree(h):
            return report(_fail("image-valid", disk=d, image=h))
        if phi_inverse_obj_fn(h) != d:
            return report(_fail("object-round-trip", disk=d))
    for h in enumerate_objects(INTERVAL, bounds.max_height, bounds.max_label):
        counts["tree_objects"] += 1
        d = phi_inverse_obj_fn(h)
        if validate_disk(d):
            return report(_fail("preimage-valid", tree=h))
        if phi_obj_fn(d) != h:
            return report(_fail("object-section", tree=h))
    for a in disks:
        for b in disks:
            counts["hom_pairs"] += 1
            disk_homs = enumerate_disk_morphisms(a, b)
            tree_homs = enumerate_morphisms(phi_obj_fn(a), phi_obj_fn(b))
            images = [phi_mor_fn(f) for f in disk_homs]
            counts["morphisms"] += len(disk_homs)
            if len(set(images)) != len(images):
                return report(_fail("hom-injective", dom=a, cod=b))
            if set(images) != set(tree_homs):
                return report(_fail("hom-bijection", dom=a, cod=b))
    return report()


def check_gamma(
    bounds: Bounds,
    *,
    gamma_fn=gamma,
    gamma_prime_fn=gamma_prime,
    gamma_mor_fn=gamma_mor,
    gamma_prime_mor_fn=gamma_prime_mor,
) -> Report:
    """Globular cardinals and ordinal graphs are isomorphic categories;
    object round-trips run one vertex beyond the hom-set bound."""
    counts = {"cardinals": 0, "hom_pairs": 0, "morphisms": 0}

    def report(failure: dict | None = None) -> Report:
        return Report("gamma", bounds, counts, failure is None, failure)

    cap = bounds.max_vertices + 1
    for g in enumerate_ographs(cap, cap):
        counts["cardinals"] += 1
        x = gamma_prime_fn(g)
        if gamma_fn(x) != g:
            return report(_fail("graph-round-trip", graph=g))
        if gamma_prime_fn(gamma_fn(x)) != x:
            return report(_fail("cardinal-round-trip", graph=g))
    small = enumerate_ographs(bounds.max_vertices, bounds.max_vertices)
    for g in small:
        for h in small:
            counts["hom_pairs"] += 1
            graph_homs = enumerate_ograph_morphisms(g, h)
            glob_homs = enumerate_glob_morphisms(
                gamma_prime_fn(g), gamma_prime_fn(h)
            )
            counts["morphisms"] += len(graph_homs)
            if len(graph_homs) != len(glob_homs):
                return report(_fail("hom-count", dom=g, cod=h))
            for f in graph_homs:
                if gamma_mor_fn(gamma_prime_mor_fn(f)) != f:
                    return report(_fail("morphism-round-trip", morphism=f))
            for f in glob_homs:
                if gamma_prime_mor_fn(gamma_mor_fn(f)) != f:
                    return report(_fail("morphism-round-trip", morphism=f))
    return report()


def check_upsilon(
    bounds: Bounds, *, upsilon_fn=upsilon, upsilon_prime_fn=upsilon_prime
) -> Report:
    """The ordinal-tree reading of ordinal graphs is surjective on
    bounded graphs and splits the bounded tree objects."""
    counts = {"tree_objects": 0, "graphs": 0}

    def report(failure: dict | None = None) -> Report:
        return Report("upsilon", bounds, counts, failure is None, failure)

    for h in enumerate_objects(ORDINAL, bounds.max_height, bounds.max_label):
        counts["tree_objects"] += 1
        if upsilon_prime_fn(upsilon_fn(h)) != h:
            return report(_fail("tree-round-trip", tree=h))
    for g in enumerate_ographs(bounds.max_vertices, bounds.max_dim):
        counts["graphs"] += 1
        witness = upsilon_prime_fn(g)
        if validate_itree(witness):
            return report(_fail("preimage-valid", graph=g))
        if upsilon_fn(witness) != g:
            return report(_fail("surjectivity", graph=g))
    return report()


def check_L(bounds: Bounds, *, comparison_fn=comparison_L) -> Report:
    """The comparison from free-category cells over a cardinal to
    enriched cells over its graph is bijective per dimension and
    commutes with boundaries and composition."""
    counts = {
        "cells": 0,
        "proper_cells": 0,
        "boundary_checks": 0,
        "composition_checks": 0,
    }

    def report(failure: dict | None = None) -> Report:
        return Report("L", bounds, counts, failure is None, failure)

    for g in enumerate_ographs(bounds.max_vertices, bounds.max_dim):
        x = gamma_prime(g)
        for n in range(bounds.max_dim + 1):
            cells = enumerate_cells(x, n)
            enriched = free_on_ograph_cells(g, n)
            images = [comparison_fn(c) for c in cells]
            counts["cells"] += len(cells)
            proper = sum(1 for c in cells if c.is_proper)
            counts["proper_cells"] += proper
            if len(set(images)) != len(images):
                return report(_fail("injective", graph=g, dimension=n))
            if set(images) != set(enriched):
                return report(_fail("bijective", graph=g, dimension=n))
            enriched_proper = sum(
                1 for e in enriched if demote_enriched(e) is None
            )
            if proper != enriched_proper:
                return report(_fail("proper-count", graph=g, dimension=n))
            if n == 0:
                continue
            for c, image in zip(cells, images):
                for m in range(n):
                    counts["boundary_checks"] += 1
                    src_ok = comparison_fn(m_source(c, m)) == enriched_m_source(
                        image, m
                    )
                    tgt_ok = comparison_fn(m_target(c, m)) == enriched_m_target(
                        image, m
                    )
                    if not (src_ok and tgt_ok):
                        return report(_fail("boundaries", cell=c, level=m))
            for m in range(n):
                for alpha in cells:
                    for beta in cells:
                        if m_target(alpha, m) != m_source(beta, m):
                            continue
                        counts["composition_checks"] += 1
                        left = comparison_fn(compose_cells(beta, alpha, m))
                        right = compose_enriched(
                            comparison_fn(beta), comparison_fn(alpha), m
                        )
                        if left != right:
                            return report(
                                _fail("composition", first=alpha, second=beta)
                            )
    return report()


def check_omega_laws(bounds: Bounds, *, compose_fn=compose_cells) -> Report:
    """Unit, associativity, globularity, and boundary-of-composite laws
    of the free category on every bounded cardinal."""
    counts = {
        "unit_checks": 0,
        "associativity_checks": 0,
        "globularity_checks": 0,
        "composite_boundary_checks": 0,
    }

    def report(failure: dict | None = None) -> Report:
        return Report("omega-laws", bounds, counts, failure is None, failure)

    for g in enumerate_ographs(bounds.max_vertices, bounds.max_dim):
        x = gamma_prime(g)
        for n in range(1, bounds.max_dim + 1):
            cells = enumerate_cells(x, n)
            for c in cells:
                for m1 in range(n):
                    for m2 in range(m1):
                        counts["globularity_checks"] += 1
                        ok = (
                            m_source(m_source(c, m1), m2) == m_source(c, m2)
                            and m_source(m_target(c, m1), m2) == m_source(c, m2)
                            and m_target(m_source(c, m1), m2) == m_target(c, m2)
                            and m_target(m_target(c, m1), m2) == m_target(c, m2)
                        )
                        if not ok:
                            return report(_fail("globularity", cell=c, level=m1))
                for m in range(n):
                    counts["unit_checks"] += 1
                    left_unit = promote_cell(m_target(c, m), n)
                    right_unit = promote_cell(m_source(c, m), n)
                    if compose_fn(left_unit, c, m) != c:
                        return report(_fail("left-unit", cell=c, level=m))
                    if compose_fn(c, right_unit, m) != c:
                        return report(_fail("right-unit", cell=c, level=m))
            for m in range(n):
                pairs = [
                    (alpha, beta)
                    for alpha in cells
                    for beta in cells
                    if m_target(alpha, m) == m_source(beta, m)
                ]
                for alpha, beta in pairs:
                    composite = compose_fn(beta, alpha, m)
                    counts["composite_boundary_checks"] += 1
                    if m_source(composite, m) != m_source(alpha, m):
                        return report(_fail("source-of-composite", first=alpha, second=beta))
                    if m_target(composite, m) != m_target(beta, m):
                        return report(_fail("target-of-composite", first=alpha, second=beta))
                    for level in range(m):
                        if m_source(composite, level) != m_source(alpha, level):
                            return report(_fail("low-source-of-composite", first=alpha, second=beta))
                        if m_target(composite, level) != m_target(alpha, level):
                            return report(_fail("low-target-of-composite", first=alpha, second=beta))
                    for level in range(m + 1, n):
                        src = compose_fn(
                            m_source(beta, level), m_source(alpha, level), m
                        )
                        tgt = compose_fn(
                            m_target(beta, level), m_target(alpha, level), m
                        )
                        if m_source(composite, level) != src:
                            return report(_fail("high-source-of-composite", first=alpha, second=beta))
                        if m_target(composite, level) != tgt:
                            return report(_fail("high-target-of-composite", first=alpha, second=beta))
                    for gamma_cell in cells:
                        if m_target(beta, m) != m_source(gamma_cell, m):
                            continue
                        counts["associativity_checks"] += 1
                        left = compose_fn(gamma_cell, composite, m)
                        right = compose_fn(
                            compose_fn(gamma_cell, beta, m), alpha, m
                        )
                        if left != right:
                            return report(
                                _fail(
                                    "associativity",
                                    first=alpha,
                                    second=beta,
                                    third=gamma_cell,
                                )
                            )
    return report()


def check_psi(bounds: Bounds, *, psi_obj_fn=psi_obj, psi_mor_fn=psi_mor) -> Report:
    """Ordinal-tree hom-sets are in bijection with omega-functors
    between the presented free categories."""
    counts = {"pairs": 0, "morphisms": 0}

    def report(failure: dict | None = None) -> Report:
        return Report("psi", bounds, counts, failure is None, failure)

    height_cap = max(bounds.max_height - 1, 0)
    trees = enumerate_objects(ORDINAL, height_cap, bounds.max_degree)
    for a in trees:
        for b in trees:
            counts["pairs"] += 1
            morphisms = enumerate_morphisms(a, b)
            functors = enumerate_omega_functors(psi_obj_fn(a), psi_obj_fn(b))
            actions = [psi_mor_fn(f) for f in morphisms]
            counts["morphisms"] += len(morphisms)
            if len(set(actions)) != len(actions):
                return report(_fail("faithful", dom=a, cod=b))
            if set(actions) != set(functors):
                return report(_fail("full", dom=a, cod=b))
    return report()


def check_xi(
    bounds: Bounds,
    *,
    xi_interval_fn=xi_interval,
    xi_ordinal_fn=xi_ordinal,
    xi_interval_mor_fn=xi_interval_mor,
    xi_ordinal_mor_fn=xi_ordinal_mor,
    con_dualize_fn=con_dualize,
    con_dualize_mor_fn=con_dualize_mor,
) -> Report:
    """Cropped labeled trees convert bijectively to inductive trees, on
    objects and hom-sets, and the conversion intertwines the dualities."""
    counts = {
        "interval_objects": 0,
        "ordinal_objects": 0,
        "hom_pairs": 0,
        "morphisms": 0,
        "square_objects": 0,
        "square_morphisms": 0,
    }

    def report(failure: dict | None = None) -> Report:
        return Report("xi", bounds, counts, failure is None, failure)

    interval_cap = bounds.max_label + 1
    ordinal_cap = bounds.max_label
    pools = {}
    for flavor, cap, key, converter in (
        (INTERVAL, interval_cap, "interval_objects", xi_interval_fn),
        (ORDINAL, ordinal_cap, "ordinal_objects", xi_ordinal_fn),
    ):
        zoo = enumerate_cropped_trees(flavor, bounds.max_height, cap)
        pools[flavor] = zoo
        images = []
        for t in zoo:
            counts[key] += 1
            if validate_cropped(t):
                return report(_fail("enumeration-cropped", tree=t))
            h = converter(t)
            images.append(h)
            if xi_inverse(h) != t:
                return report(_fail("object-round-trip", tree=t))
        expected = enumerate_objects(flavor, bounds.max_height, cap)
        if len(set(images)) != len(images) or set(images) != set(expected):
            return report(_fail("object-surjectivity", flavor=flavor))
    hom_height = max(bounds.max_height - 1, 0)
    for flavor, cap, mor_converter in (
        (INTERVAL, bounds.max_label, xi_interval_mor_fn),
        (ORDINAL, bounds.max_label - 1, xi_ordinal_mor_fn),
    ):
        obj_converter = xi_interval_fn if flavor == INTERVAL else xi_ordinal_fn
        zoo = enumerate_cropped_trees(flavor, hom_height, cap)
        for a in zoo:
            for b in zoo:
                counts["hom_pairs"] += 1
                mors = enumerate_labeled_mors(a, b)
                images = [mor_converter(m) for m in mors]
                counts["morphisms"] += len(mors)
                if len(set(images)) != len(images):
                    return report(_fail("hom-injective", dom=a, cod=b))
                if set(images) != set(
                    enumerate_morphisms(obj_converter(a), obj_converter(b))
                ):
                    return report(_fail("hom-bijection", dom=a, cod=b))
    for t in pools[INTERVAL]:
        counts["square_objects"] += 1
        if xi_ordinal_fn(con_dualize_fn(t)) != vee(xi_interval_fn(t)):
            return report(_fail("duality-square", tree=t))
    square_zoo = enumerate_cropped_trees(INTERVAL, hom_height, bounds.max_label)
    for a in square_zoo:
        for b in square_zoo:
            for m in enumerate_labeled_mors(a, b):
                counts["square_morphisms"] += 1
                if xi_ordinal_mor_fn(con_dualize_mor_fn(m)) != vee(
                    xi_interval_mor_fn(m)
                ):
                    return report(_fail("duality-square", morphism=m))
    return report()


CHECKS = {
    "ordinal-duality": check_ordinal_duality,
    "itree-duality": check_itree_duality,
    "phi": check_phi,
    "gamma": check_gamma,
    "upsilon": check_upsilon,
    "L": check_L,
    "omega-laws": check_omega_laws,
    "psi": check_psi,
    "xi": check_xi,
}


def run_all(bounds: Bounds | None = None) -> list[Report]:
    """Run every check at the given bounds, in a fixed order."""
    b = bounds or Bounds()
    return [check(b) for check in CHECKS.values()]
