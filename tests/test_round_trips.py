"""Round trips on random inductive trees beyond the enumeration bounds.

The checks in ``verify`` are exhaustive up to a size bound; these draw
trees up to height 5 with roots up to ``[3]``, shapes that no default
bound reaches, and run them through the memoized conversions.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from theta_disk.disk import phi_inverse_obj, phi_obj
from theta_disk.itree import (
    FLAVORS,
    INTERVAL,
    ORDINAL,
    ITreeObj,
    trivial_obj,
    vee,
    wedge,
)
from theta_disk.labeled import con_dualize, xi_interval, xi_inverse, xi_ordinal
from theta_disk.ordinal import Ordinal

from tests.test_itree import height

MAX_HEIGHT = 5
MAX_ROOT = 3
XI = {INTERVAL: xi_interval, ORDINAL: xi_ordinal}


def nontrivial(flavor: str, max_height: int) -> st.SearchStrategy[ITreeObj]:
    """Valid non-trivial objects of height at most ``max_height >= 1``.

    The endpoint children are trivial and the interior ones non-trivial,
    so a height-1 tree has the least root, with no interior child.
    """
    spec = FLAVORS[flavor]
    top = MAX_ROOT if max_height > 1 else spec.least_root
    point = trivial_obj(flavor)

    def over(n: int) -> st.SearchStrategy[ITreeObj]:
        interior = spec.slots(Ordinal(n)) - 2
        return st.lists(
            nontrivial(flavor, max_height - 1),
            min_size=interior,
            max_size=interior,
        ).map(lambda kids: ITreeObj(flavor, Ordinal(n), (point, *kids, point)))

    return st.integers(spec.least_root, top).flatmap(over)


def itrees(flavor: str) -> st.SearchStrategy[ITreeObj]:
    return st.one_of(
        st.just(trivial_obj(flavor)),
        st.integers(1, MAX_HEIGHT).flatmap(lambda h: nontrivial(flavor, h)),
    )


ROUND_TRIPS = settings(max_examples=40, deadline=None)


@ROUND_TRIPS
@given(st.sampled_from([INTERVAL, ORDINAL]).flatmap(itrees))
def test_strategy_draws_valid_trees_within_the_bounds(h):
    # A tree that breaks the rules cannot be built.
    assert height(h) <= MAX_HEIGHT


@ROUND_TRIPS
@given(st.sampled_from([INTERVAL, ORDINAL]).flatmap(itrees))
def test_xi_inverts_xi_inverse(h):
    assert XI[h.flavor](xi_inverse(h)) is h


@ROUND_TRIPS
@given(itrees(INTERVAL))
def test_phi_inverts_phi_inverse(h):
    assert phi_obj(phi_inverse_obj(h)) is h


@ROUND_TRIPS
@given(itrees(INTERVAL))
def test_duality_square_on_interval_trees(h):
    assert xi_ordinal(con_dualize(xi_inverse(h))) is vee(h)


@ROUND_TRIPS
@given(itrees(ORDINAL))
def test_duality_square_on_ordinal_trees(h):
    assert xi_interval(con_dualize(xi_inverse(h))) is wedge(h)
