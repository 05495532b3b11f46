"""Exhaustive bounded verification of the library's structural laws.

A check is a generator of failures registered with ``_check(name,
*keys)``.  It is called as ``(bounds, counts, *, <seam>=None)``, counts
its instances under the declared keys and yields a ``_fail`` payload for
each broken law; the registered function reports the first one, and
``CHECKS`` lists the checks in the order they are defined.  The seam
keyword (``vee_map_fn``, ``gamma_fn`` and so on) substitutes the map
under test.  Left at ``None``, it reads the module global at call time,
so a function rebound on this module (a test double, a tracing wrapper)
is the one that runs.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache, wraps

from theta_disk.disk import (
    enumerate_disk_morphisms,
    enumerate_disks,
    phi_inverse_obj,
    phi_mor,
    phi_obj,
)
from theta_disk.globular import enumerate_glob_morphisms
from theta_disk.itree import (
    INTERVAL,
    ORDINAL,
    count_morphisms,
    enumerate_morphisms,
    enumerate_objects,
    vee,
    wedge,
)
from theta_disk.labeled import (
    con_dualize,
    con_dualize_mor,
    enumerate_cropped_trees,
    enumerate_labeled_mors,
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
    json_int,
    vee_map,
    vee_obj,
    wedge_map,
    wedge_obj,
)

MORPHISM_PAIR_CAP = 2000


@dataclass(frozen=True)
class Bounds:
    """Size caps for the exhaustive checks.

    ``POOLS`` names the object pools that ``theta-disk enumerate`` lists
    and most checks read.  ``gamma`` at ``max_vertices + 1``, ``psi`` and
    the hom-set pools of ``xi`` call their enumerators at shifted bounds
    instead.  The keys read as follows (the CLI ``--bounds`` names drop
    the ``max_`` prefix):

    - ``max_height``: the height of inductive and labeled trees.  Hom-sets
      in ``psi`` and ``xi`` use ``max_height - 1``.
    - ``max_label``: an exclusive cap on the root of inductive trees, so
      ``3`` allows roots up to ``[2]``; ``xi`` uses ``max_label + 1`` for
      interval trees and ``max_label - 1`` for ordinal hom-sets.  It is
      also the largest disk fiber in ``phi``, and ``ordinal-duality`` runs
      over the ordinals ``[-1]`` to ``[max_label]``.
    - ``max_degree``: the degree of disks in ``phi``; ``psi`` uses it as
      its root cap in place of ``max_label``.
    - ``max_vertices``: the total vertex count of an ordinal graph, over
      all its nested edge graphs.  ``gamma`` uses it as the dimension cap
      too, and runs its object round trips at ``max_vertices + 1``.
    - ``max_dim``: the dimension of ordinal graphs and cells in
      ``upsilon``, ``L`` and ``omega-laws``.
    """

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
        # Every field is an int, so no deep copy (as ``asdict`` makes) is needed.
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @staticmethod
    def from_dict(data: dict) -> "Bounds":
        return Bounds(**{k: json_int(v) for k, v in data.items()})


_BOUNDS_KEYS = {name.removeprefix("max_"): name for name in Bounds.__dataclass_fields__}

# Each named pool as a function of the bounds.  The enumerators are looked
# up when a pool is built, so a function rebound on this module (a test
# double, a tracing wrapper) is the one that runs.
POOLS = {
    "ordinal": lambda b: [Ordinal(n) for n in range(-1, b.max_label + 1)],
    "disk": lambda b: enumerate_disks(b.max_degree, b.max_label),
    "itree-interval": lambda b: enumerate_objects(INTERVAL, b.max_height, b.max_label),
    "itree-ordinal": lambda b: enumerate_objects(ORDINAL, b.max_height, b.max_label),
    "globcard": lambda b: [gamma_prime(g) for g in POOLS["ograph"](b)],
    "ograph": lambda b: enumerate_ographs(b.max_vertices, b.max_dim),
    "cropped-interval": lambda b: enumerate_cropped_trees(
        INTERVAL, b.max_height, b.max_label + 1
    ),
    "cropped-ordinal": lambda b: enumerate_cropped_trees(
        ORDINAL, b.max_height, b.max_label
    ),
}


@lru_cache
def parse_bounds(text: str, base: Bounds | None = None) -> Bounds:
    """Parse a ``height=..,degree=..,label=..,vertices=..,dim=..`` string.

    Results are memoized on ``(text, base)``; a malformed text raises on
    every call.
    """
    values = (base or Bounds()).to_dict()
    for part in filter(None, (p.strip() for p in text.split(","))):
        key, sep, raw = part.partition("=")
        if not sep or key.strip() not in _BOUNDS_KEYS:
            raise ValueError(f"unknown bounds entry {part!r}")
        if not re.fullmatch(r"-?[0-9]+", raw.strip()):
            raise ValueError(f"bounds entry {part!r} needs a whole number")
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


# Every check by name, in definition order; ``_check`` registers them.
CHECKS: dict[str, Callable[..., Report]] = {}


def _check(name: str, *keys: str):
    """Register a generator of failures as the check ``name``.

    The generator is called as ``(bounds, counts, **seams)``, with the
    instance counts ``keys`` at zero, and yields a ``_fail`` payload for
    each broken law.  The registered check reports the first failure with
    ``counts`` as they stood when it was found.
    """

    def register(failures):
        @wraps(failures)
        def check(bounds: Bounds, **seams) -> Report:
            counts = dict.fromkeys(keys, 0)
            failure = next(failures(bounds, counts, **seams), None)
            return Report(name, bounds, counts, failure is None, failure)

        CHECKS[name] = check
        return check

    return register


def _round_trips(counts, key, items, there, back, witness, law="object-round-trip"):
    """Count each ``x`` of ``items`` under ``key``, if any, and fail ``law``
    unless ``back(there(x)) == x``; a failure names ``x`` as ``witness``.
    Returns the images.
    """
    images = []
    for x in items:
        if key is not None:
            counts[key] += 1
        y = there(x)
        images.append(y)
        if back(y) != x:
            yield _fail(law, **{witness: x})
    return images


def _hom_bijection(counts, pair_key, objs, homs, image_homs, obj_map, mor_map, laws):
    """For every pair ``a, b`` of ``objs``, check that ``mor_map`` sends
    ``homs(a, b)`` injectively, then onto ``image_homs(obj_map(a),
    obj_map(b))``; ``laws`` names the two failures.  Counts the pairs under
    ``pair_key`` and the morphisms of ``homs`` under ``"morphisms"``."""
    injective, onto = laws
    for a in objs:
        for b in objs:
            counts[pair_key] += 1
            mors = homs(a, b)
            images = {mor_map(f) for f in mors}
            counts["morphisms"] += len(mors)
            if len(images) != len(mors):
                yield _fail(injective, dom=a, cod=b)
            if images != set(image_homs(obj_map(a), obj_map(b))):
                yield _fail(onto, dom=a, cod=b)


@_check(
    "ordinal-duality",
    "objects",
    "interval_maps",
    "ordinal_maps",
    "composable_pairs",
    "hom_pairs",
)
def check_ordinal_duality(bounds: Bounds, counts: dict, *, vee_map_fn=None):
    """Mutually inverse contravariant duality between interval and
    ordinal maps, plus the hom-count identity it induces."""
    vee_map_fn = vee_map_fn or vee_map
    cap = bounds.max_label
    ordinals = POOLS["ordinal"](bounds)
    intervals, duals = ordinals[1:], ordinals[:-1]
    yield from _round_trips(counts, "objects", intervals, vee_obj, wedge_obj, "ordinal")
    yield from _round_trips(counts, "objects", duals, wedge_obj, vee_obj, "ordinal")
    # Each hom-set is listed once, by its round-trip law; the contravariance
    # and hom-count laws read those lists and the interval maps' duals.
    listed = {}
    for side, pool, homs, there, back in (
        ("interval", intervals, enumerate_interval_maps, vee_map_fn, wedge_map),
        ("ordinal", duals, enumerate_ord_maps, wedge_map, vee_map_fn),
    ):
        key, law = f"{side}_maps", f"{side}-map-round-trip"
        for a in pool:
            for b in pool:
                maps = homs(a, b)
                images = yield from _round_trips(
                    counts, key, maps, there, back, "map", law
                )
                listed[side, a, b] = maps, images
    small = intervals[: max(cap, 1)]
    for a in small:
        for b in small:
            for c in small:
                for f, dual_f in zip(*listed["interval", a, b]):
                    for g, dual_g in zip(*listed["interval", b, c]):
                        counts["composable_pairs"] += 1
                        composed = vee_map_fn(compose_ord(g, f))
                        if composed != compose_ord(dual_f, dual_g):
                            yield _fail("contravariance", first=f, second=g)
    for m in range(1, cap + 1):
        for n in range(1, cap + 1):
            counts["hom_pairs"] += 1
            forward = listed["interval", Ordinal(m), Ordinal(n)][0]
            backward = listed["ordinal", Ordinal(n - 1), Ordinal(m - 1)][0]
            if len(forward) != len(backward):
                yield _fail("hom-count", dom=Ordinal(m), cod=Ordinal(n))


@_check(
    "itree-duality",
    "interval_objects",
    "ordinal_objects",
    "interval_morphisms",
    "ordinal_morphisms",
    "capped_pairs",
)
def check_itree_duality(bounds: Bounds, counts: dict, *, vee_fn=None):
    """The inductive-tree dualities are mutually inverse on bounded
    objects and on every morphism between them."""
    vee_fn = vee_fn or vee
    intervals = POOLS["itree-interval"](bounds)
    ordinals = POOLS["itree-ordinal"](bounds)
    yield from _round_trips(
        counts, "interval_objects", intervals, vee_fn, wedge, "tree"
    )
    yield from _round_trips(counts, "ordinal_objects", ordinals, wedge, vee_fn, "tree")
    for pool, key, there, back in (
        (intervals, "interval_morphisms", vee_fn, wedge),
        (ordinals, "ordinal_morphisms", wedge, vee_fn),
    ):
        for a in pool:
            for b in pool:
                # A hom-set over the cap is counted but not checked, so the
                # check fails rather than pass on what it has not listed.
                if count_morphisms(a, b) > MORPHISM_PAIR_CAP:
                    counts["capped_pairs"] += 1
                    yield _fail("hom-set-cap", dom=a, cod=b)
                    continue
                mors = enumerate_morphisms(a, b)
                yield from _round_trips(
                    counts, key, mors, there, back, "morphism", "morphism-round-trip"
                )


@_check("phi", "disks", "tree_objects", "hom_pairs", "morphisms")
def check_phi(bounds: Bounds, counts: dict, *, phi_obj_fn=None):
    """The disk-to-inductive-tree conversion is bijective on bounded
    objects and a hom-set bijection."""
    phi_obj_fn = phi_obj_fn or phi_obj
    disks = POOLS["disk"](bounds)
    yield from _round_trips(counts, "disks", disks, phi_obj_fn, phi_inverse_obj, "disk")
    yield from _round_trips(
        counts,
        "tree_objects",
        POOLS["itree-interval"](bounds),
        phi_inverse_obj,
        phi_obj_fn,
        "tree",
        "object-section",
    )
    yield from _hom_bijection(
        counts,
        "hom_pairs",
        disks,
        enumerate_disk_morphisms,
        enumerate_morphisms,
        phi_obj_fn,
        phi_mor,
        ("hom-injective", "hom-bijection"),
    )


@_check("gamma", "cardinals", "hom_pairs", "morphisms")
def check_gamma(bounds: Bounds, counts: dict, *, gamma_fn=None):
    """Globular cardinals and ordinal graphs are isomorphic categories;
    object round-trips run one vertex beyond the hom-set bound.

    Cardinals are reached only as ``gamma_prime`` images of the
    enumerated graphs, so the object law is the graph round trip.
    """
    gamma_fn = gamma_fn or gamma
    cap = bounds.max_vertices + 1
    yield from _round_trips(
        counts,
        "cardinals",
        enumerate_ographs(cap, cap),
        gamma_prime,
        gamma_fn,
        "graph",
        "graph-round-trip",
    )
    small = enumerate_ographs(bounds.max_vertices, bounds.max_vertices)
    for g in small:
        for h in small:
            counts["hom_pairs"] += 1
            graph_homs = enumerate_ograph_morphisms(g, h)
            glob_homs = enumerate_glob_morphisms(gamma_prime(g), gamma_prime(h))
            if len(graph_homs) != len(glob_homs):
                yield _fail("hom-count", dom=g, cod=h)
            # ``morphisms`` counts the graph side; the cardinal side is uncounted.
            for key, homs, there, back in (
                ("morphisms", graph_homs, gamma_prime_mor, gamma_mor),
                (None, glob_homs, gamma_mor, gamma_prime_mor),
            ):
                yield from _round_trips(
                    counts, key, homs, there, back, "morphism", "morphism-round-trip"
                )


@_check("upsilon", "tree_objects", "graphs")
def check_upsilon(bounds: Bounds, counts: dict, *, upsilon_fn=None):
    """The ordinal-tree reading of ordinal graphs is surjective on
    bounded graphs and splits the bounded tree objects."""
    upsilon_fn = upsilon_fn or upsilon
    yield from _round_trips(
        counts,
        "tree_objects",
        POOLS["itree-ordinal"](bounds),
        upsilon_fn,
        upsilon_prime,
        "tree",
        "tree-round-trip",
    )
    yield from _round_trips(
        counts,
        "graphs",
        POOLS["ograph"](bounds),
        upsilon_prime,
        upsilon_fn,
        "graph",
        "surjectivity",
    )


def _graph_cells(bounds: Bounds, low: int):
    """``(graph, n, cells)`` for each graph of the ``ograph`` pool and each
    dimension ``n`` from ``low`` to ``max_dim``: the n-cells of the free
    category on the graph's cardinal."""
    for g in POOLS["ograph"](bounds):
        x = gamma_prime(g)
        for n in range(low, bounds.max_dim + 1):
            yield g, n, enumerate_cells(x, n)


def _composable_pairs(cells, m: int):
    """The pairs ``(alpha, beta)`` of ``cells`` with ``beta`` composable
    after ``alpha`` along dimension ``m``, each in ``cells`` order, and the
    function that lists the cells composable after a given cell."""
    by_source: dict = {}
    for c in cells:
        by_source.setdefault(m_source(c, m), []).append(c)

    def after(c):
        return by_source.get(m_target(c, m), ())

    return [(alpha, beta) for alpha in cells for beta in after(alpha)], after


@_check("L", "cells", "proper_cells", "boundary_checks", "composition_checks")
def check_L(bounds: Bounds, counts: dict, *, comparison_fn=None):
    """The comparison from free-category cells over a cardinal to
    enriched cells over its graph is bijective per dimension and
    commutes with boundaries and composition."""
    comparison_fn = comparison_fn or comparison_L
    for g, n, cells in _graph_cells(bounds, 0):
        enriched = free_on_ograph_cells(g, n)
        images = [comparison_fn(c) for c in cells]
        counts["cells"] += len(cells)
        proper = sum(1 for c in cells if c.is_proper)
        counts["proper_cells"] += proper
        if len(set(images)) != len(images):
            yield _fail("injective", graph=g, dimension=n)
        if set(images) != set(enriched):
            yield _fail("bijective", graph=g, dimension=n)
        enriched_proper = sum(1 for e in enriched if demote_enriched(e) is None)
        if proper != enriched_proper:
            yield _fail("proper-count", graph=g, dimension=n)
        for c, image in zip(cells, images):
            for m in range(n):
                counts["boundary_checks"] += 1
                src_ok = comparison_fn(m_source(c, m)) == enriched_m_source(image, m)
                tgt_ok = comparison_fn(m_target(c, m)) == enriched_m_target(image, m)
                if not (src_ok and tgt_ok):
                    yield _fail("boundaries", cell=c, level=m)
        for m in range(n):
            pairs, _ = _composable_pairs(cells, m)
            for alpha, beta in pairs:
                counts["composition_checks"] += 1
                left = comparison_fn(compose_cells(beta, alpha, m))
                right = compose_enriched(comparison_fn(beta), comparison_fn(alpha), m)
                if left != right:
                    yield _fail("composition", first=alpha, second=beta)


@_check(
    "omega-laws",
    "unit_checks",
    "associativity_checks",
    "globularity_checks",
    "composite_boundary_checks",
)
def check_omega_laws(bounds: Bounds, counts: dict, *, compose_fn=None):
    """Unit, associativity, globularity, and boundary-of-composite laws
    of the free category on every bounded cardinal."""
    compose_fn = compose_fn or compose_cells
    for _, n, cells in _graph_cells(bounds, 1):
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
                        yield _fail("globularity", cell=c, level=m1)
            for m in range(n):
                counts["unit_checks"] += 1
                left_unit = promote_cell(m_target(c, m), n)
                right_unit = promote_cell(m_source(c, m), n)
                if compose_fn(left_unit, c, m) != c:
                    yield _fail("left-unit", cell=c, level=m)
                if compose_fn(c, right_unit, m) != c:
                    yield _fail("right-unit", cell=c, level=m)
        for m in range(n):
            pairs, after = _composable_pairs(cells, m)
            for alpha, beta in pairs:
                composite = compose_fn(beta, alpha, m)
                counts["composite_boundary_checks"] += 1
                pair = {"first": alpha, "second": beta}
                if m_source(composite, m) != m_source(alpha, m):
                    yield _fail("source-of-composite", **pair)
                if m_target(composite, m) != m_target(beta, m):
                    yield _fail("target-of-composite", **pair)
                for level in range(m):
                    if m_source(composite, level) != m_source(alpha, level):
                        yield _fail("low-source-of-composite", **pair)
                    if m_target(composite, level) != m_target(alpha, level):
                        yield _fail("low-target-of-composite", **pair)
                for level in range(m + 1, n):
                    src = compose_fn(m_source(beta, level), m_source(alpha, level), m)
                    tgt = compose_fn(m_target(beta, level), m_target(alpha, level), m)
                    if m_source(composite, level) != src:
                        yield _fail("high-source-of-composite", **pair)
                    if m_target(composite, level) != tgt:
                        yield _fail("high-target-of-composite", **pair)
                for gamma_cell in after(beta):
                    counts["associativity_checks"] += 1
                    left = compose_fn(gamma_cell, composite, m)
                    right = compose_fn(compose_fn(gamma_cell, beta, m), alpha, m)
                    if left != right:
                        yield _fail("associativity", **pair, third=gamma_cell)


@_check("psi", "pairs", "morphisms")
def check_psi(bounds: Bounds, counts: dict, *, psi_mor_fn=None):
    """Ordinal-tree hom-sets are in bijection with omega-functors
    between the presented free categories."""
    psi_mor_fn = psi_mor_fn or psi_mor
    height_cap = max(bounds.max_height - 1, 0)
    yield from _hom_bijection(
        counts,
        "pairs",
        enumerate_objects(ORDINAL, height_cap, bounds.max_degree),
        enumerate_morphisms,
        enumerate_omega_functors,
        psi_obj,
        psi_mor_fn,
        ("faithful", "full"),
    )


@_check(
    "xi",
    "interval_objects",
    "ordinal_objects",
    "hom_pairs",
    "morphisms",
    "square_objects",
    "square_morphisms",
)
def check_xi(bounds: Bounds, counts: dict, *, xi_interval_fn=None):
    """Cropped labeled trees convert bijectively to inductive trees, on
    objects and hom-sets, and the conversion intertwines the dualities."""
    xi_interval_fn = xi_interval_fn or xi_interval
    converters = {INTERVAL: xi_interval_fn, ORDINAL: xi_ordinal}
    pools = {}
    for flavor, cap, key in (
        (INTERVAL, bounds.max_label + 1, "interval_objects"),
        (ORDINAL, bounds.max_label, "ordinal_objects"),
    ):
        pools[flavor] = POOLS[f"cropped-{flavor}"](bounds)
        images = yield from _round_trips(
            counts, key, pools[flavor], converters[flavor], xi_inverse, "tree"
        )
        expected = POOLS[f"itree-{flavor}"](replace(bounds, max_label=cap))
        if len(set(images)) != len(images) or set(images) != set(expected):
            yield _fail("object-surjectivity", flavor=flavor)
    hom_height = max(bounds.max_height - 1, 0)
    hom_pools = {}
    for flavor, cap, mor_converter in (
        (INTERVAL, bounds.max_label, xi_interval_mor),
        (ORDINAL, bounds.max_label - 1, xi_ordinal_mor),
    ):
        hom_pools[flavor] = enumerate_cropped_trees(flavor, hom_height, cap)
        yield from _hom_bijection(
            counts,
            "hom_pairs",
            hom_pools[flavor],
            enumerate_labeled_mors,
            enumerate_morphisms,
            converters[flavor],
            mor_converter,
            ("hom-injective", "hom-bijection"),
        )
    for t in pools[INTERVAL]:
        counts["square_objects"] += 1
        if xi_ordinal(con_dualize(t)) != vee(xi_interval_fn(t)):
            yield _fail("duality-square", tree=t)
    for a in hom_pools[INTERVAL]:
        for b in hom_pools[INTERVAL]:
            for m in enumerate_labeled_mors(a, b):
                counts["square_morphisms"] += 1
                if xi_ordinal_mor(con_dualize_mor(m)) != vee(xi_interval_mor(m)):
                    yield _fail("duality-square", morphism=m)


def run_all(bounds: Bounds | None = None) -> list[Report]:
    """Run every check at the given bounds, in ``CHECKS`` order."""
    b = bounds or Bounds()
    return [check(b) for check in CHECKS.values()]
