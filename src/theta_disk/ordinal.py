"""Finite ordinals, monotone maps, and the interval/ordinal adjoint calculus.

Objects are the finite linear orders ``[n] = {0 < 1 < ... < n}``, with
``[-1]`` the empty order.  A monotone map is stored densely as the tuple of
its values.  Interval maps are the monotone maps between non-empty ordinals
that preserve both the least and the greatest element; they are recognised
by :meth:`OrdMap.is_interval` rather than wrapped in a separate type.

The two constructions ``vee`` (drop the top, pass to the right adjoint) and
``wedge`` (add a top, pass to the left adjoint) translate between interval
maps and arbitrary monotone maps in opposite directions, and are mutually
inverse; the rest of the package leans on them for every duality.

Ordinals and maps are interned (see :class:`Interned`, the base every
interned value class of the package shares): equal values are one
object, so each distinct map is validated once and equality and hashing
are identity.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, log10, prod


def json_int(value: object) -> int:
    """``value`` if it is a JSON integer.

    Non-integer numbers, booleans and strings are rejected, where
    ``int()`` would truncate or convert them.
    """
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def json_str(value: object) -> str:
    """``value`` if it is a JSON string."""
    if type(value) is not str:
        raise ValueError(f"expected a string, got {value!r}")
    return value


def json_field(data: object, kind: str, name: str, read=json_int, depth: int = 0):
    """Field ``name`` of a ``kind`` object, read by ``read``.

    With ``depth`` 1 or 2 the field is a JSON list, or a list of lists,
    returned as tuples, and ``read`` reads each innermost entry.  Input
    that is not a JSON object, a missing field and a field that is not
    nested so deep raise a ``ValueError`` naming the kind and the field;
    ``read`` raises its own.
    """
    try:
        value = data[name]
    except KeyError:
        raise ValueError(f"{kind} field {name!r} is missing") from None
    except TypeError:
        raise ValueError(f"{kind} must be a JSON object, got {data!r}") from None
    if not depth:
        return read(value)
    if type(value) is list:
        if depth == 1:
            return tuple([read(v) for v in value])
        rows = tuple([tuple([read(v) for v in r]) for r in value if type(r) is list])
        if len(rows) == len(value):
            return rows
        value = next(r for r in value if type(r) is not list)
    shape = "a list" if depth == 1 else "a list of lists"
    raise ValueError(f"{kind} field {name!r} must be {shape}; {value!r} is not a list")


class _InternTable(type):
    """Looks a value up by its field tuple before building it."""

    def __init__(cls, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        cls._table: dict[tuple, object] = {}
        # The field count, read on the first miss: the dataclass decorator
        # adds the fields after the class is made.
        cls._arity = 0

    def __call__(cls, *args, **kwargs):
        if kwargs:
            return cls(*cls._positions(args, kwargs))
        try:
            value = cls._table.get(args)
        except TypeError:
            raise ValueError(f"{cls.__name__} fields must be hashable") from None
        if value is None:
            if not cls._arity:
                cls._arity = len(fields(cls))
            if len(args) < cls._arity:
                value = cls(*cls._positions(args, {}))
            else:
                # A value that fails validation raises here and is not stored.
                value = super().__call__(*args)
            cls._table[args] = value
        return value

    def _positions(cls, args: tuple, kwargs: dict) -> tuple:
        """The full positional field tuple of a call, defaults filled in."""
        bound = inspect.signature(cls.__init__).bind(None, *args, **kwargs)
        bound.apply_defaults()
        return bound.args[1:]


class Interned(metaclass=_InternTable):
    """Base of frozen value classes whose equal values are one object.

    Calling the class looks the field tuple up in the class's table, and
    only a value not seen before is built, so ``__post_init__`` validates
    each distinct value once.  The key is the full positional field tuple:
    keyword arguments are mapped to their positions and omitted fields
    take their defaults, so every call naming one value finds one key.  A
    positional call that leaves defaulted fields out is also stored under
    its own short tuple, so repeating it is one lookup.  Pickle and copy
    rebuild through the constructor, so every instance comes from the
    table.  Subclasses are dataclasses with ``eq=False``: equality and
    hashing are identity.

    Keys compare by value, so a call whose fields equal a stored value's
    (``Ordinal(True)`` once ``Ordinal(1)`` is stored) returns the stored
    value.  Validation therefore rejects mistyped fields, which would
    otherwise enter the table that every caller shares.
    """

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class Ordinal(Interned):
    """The finite linear order ``[n] = {0, ..., n}``; ``[-1]`` is empty."""

    n: int

    def __post_init__(self) -> None:
        json_int(self.n)
        if self.n < -1:
            raise ValueError(f"ordinal index must be >= -1, got {self.n}")

    @property
    def size(self) -> int:
        return self.n + 1

    def elements(self) -> range:
        return range(self.n + 1)

    def __repr__(self) -> str:
        return f"[{self.n}]"

    def to_dict(self) -> dict:
        return {"kind": "ordinal", "n": self.n}

    @staticmethod
    def from_dict(data: dict) -> "Ordinal":
        return Ordinal(json_field(data, "ordinal", "n"))


@dataclass(frozen=True, eq=False)
class OrdMap(Interned):
    """A monotone map between finite ordinals, stored by its value tuple."""

    dom: Ordinal
    cod: Ordinal
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.images) is not tuple:
            raise ValueError(f"expected a tuple of values, got {self.images!r}")
        if len(self.images) != self.dom.size:
            raise ValueError(
                f"expected {self.dom.size} values for a map out of {self.dom}, "
                f"got {len(self.images)}"
            )
        prev = 0
        for j in self.images:
            json_int(j)
            if not 0 <= j <= self.cod.n:
                raise ValueError(f"value {j} outside {self.cod}")
            if j < prev:
                raise ValueError(f"values {self.images} are not monotone")
            prev = j

    def __call__(self, i: int) -> int:
        return self.images[i]

    @property
    def is_interval(self) -> bool:
        """True when the map preserves both endpoints of non-empty ordinals."""
        if self.dom.n < 0 or self.cod.n < 0:
            return False
        return self.images[0] == 0 and self.images[-1] == self.cod.n

    def __repr__(self) -> str:
        return f"OrdMap({self.dom}->{self.cod}: {self.images})"

    def to_dict(self) -> dict:
        return {
            "kind": "ordmap",
            "dom": self.dom.n,
            "cod": self.cod.n,
            "images": list(self.images),
        }

    @staticmethod
    def from_dict(data: dict) -> "OrdMap":
        return OrdMap(
            Ordinal(json_field(data, "ordmap", "dom")),
            Ordinal(json_field(data, "ordmap", "cod")),
            json_field(data, "ordmap", "images", depth=1),
        )


def identity(a: Ordinal) -> OrdMap:
    """The identity map on ``a``."""
    return OrdMap(a, a, tuple(a.elements()))


def require_interval(f: OrdMap) -> OrdMap:
    """Return ``f`` unchanged, raising unless it is an interval map."""
    if not f.is_interval:
        raise ValueError(f"{f} is not an interval map")
    return f


def compose(g: OrdMap, f: OrdMap) -> OrdMap:
    """The composite ``g after f``."""
    if f.cod != g.dom:
        raise ValueError(f"cannot compose {g} after {f}")
    return OrdMap(f.dom, g.cod, tuple(map(g.images.__getitem__, f.images)))


def left_adjoint(g: OrdMap) -> OrdMap:
    """The map ``j -> least i with j <= g(i)``.

    Defined exactly when ``g`` preserves the greatest element (for the empty
    map this forces an empty codomain).  The result preserves the least
    element, and sends ``j`` to 0 only for ``j = 0``.
    """
    m, n = g.dom.n, g.cod.n
    if m == -1:
        if n == -1:
            return OrdMap(g.cod, g.dom, ())
        raise ValueError("empty map into a non-empty ordinal has no left adjoint")
    if g.images[-1] != n:
        raise ValueError(f"{g} does not preserve the greatest element")
    values = []
    i = 0
    for j in range(n + 1):
        while g.images[i] < j:
            i += 1
        values.append(i)
    return OrdMap(g.cod, g.dom, tuple(values))


def right_adjoint(g: OrdMap) -> OrdMap:
    """The map ``j -> greatest i with g(i) <= j``.

    Defined exactly when ``g`` preserves the least element (for the empty
    map this forces an empty codomain).  The result preserves the greatest
    element, and sends ``j`` to the top only for ``j = n``.
    """
    m, n = g.dom.n, g.cod.n
    if m == -1:
        if n == -1:
            return OrdMap(g.cod, g.dom, ())
        raise ValueError("empty map into a non-empty ordinal has no right adjoint")
    if g.images[0] != 0:
        raise ValueError(f"{g} does not preserve the least element")
    values = []
    i = 0
    for j in range(n + 1):
        while i < m and g.images[i + 1] <= j:
            i += 1
        values.append(i)
    return OrdMap(g.cod, g.dom, tuple(values))


def vee_obj(m: Ordinal) -> Ordinal:
    """Drop the top element: ``[m] -> [m-1]``.  Requires ``m`` non-empty."""
    if m.n < 0:
        raise ValueError("vee is defined on non-empty ordinals only")
    return Ordinal(m.n - 1)


@lru_cache(maxsize=None)
def vee_map(f: OrdMap) -> OrdMap:
    """Turn an interval map ``[m] -> [n]`` into the monotone map
    ``[n-1] -> [m-1]`` restricting its right adjoint below the top."""
    require_interval(f)
    r = right_adjoint(f)
    return OrdMap(vee_obj(f.cod), vee_obj(f.dom), r.images[:-1])


def wedge_obj(m: Ordinal) -> Ordinal:
    """Add a new top element: ``[m] -> [m+1]``."""
    return Ordinal(m.n + 1)


@lru_cache(maxsize=None)
def wedge_map(g: OrdMap) -> OrdMap:
    """Turn a monotone map ``[m] -> [n]`` into the interval map
    ``[n+1] -> [m+1]``: extend by topmost values, pass to the left adjoint."""
    ext = OrdMap(
        wedge_obj(g.dom), wedge_obj(g.cod), g.images + (g.cod.n + 1,)
    )
    return left_adjoint(ext)


def enumerate_ord_maps(m: Ordinal, n: Ordinal) -> list[OrdMap]:
    """All monotone maps ``m -> n`` in lexicographic order of value tuples."""
    if m.n == -1:
        return [OrdMap(m, n, ())]
    if n.n == -1:
        return []
    return [
        OrdMap(m, n, images)
        for images in combinations_with_replacement(range(n.size), m.size)
    ]


_TOO_LONG = (
    "the count has more than {} decimal digits, the most Python prints "
    "(sys.get_int_max_str_digits(); PYTHONINTMAXSTRDIGITS sets it)"
)


def printable(count: int) -> int:
    """``count``, refused with a ValueError when it has more decimal
    digits than ``sys.get_int_max_str_digits()`` lets Python print."""
    limit = sys.get_int_max_str_digits()
    if limit and count.bit_length() > 3 * limit and count >= 10**limit:
        raise ValueError(_TOO_LONG.format(limit))
    return count


def _comb(n: int, k: int) -> int:
    """``comb(n, k)``, refused before it is computed once its decimal digits
    are sure to pass the printing limit: a count of millions of digits takes
    minutes to compute and could not be printed."""
    limit = sys.get_int_max_str_digits()
    if limit:  # 0 lifts the limit
        j, digits = min(k, n - k), 0.0
        # comb(n, j) is the product over i <= j of (n - j + i) / i, each
        # factor at least 2: the sum passes the limit within 3.3 * limit terms.
        for i in range(1, j + 1):
            digits += log10(n - j + i) - log10(i)
            if digits > limit + 1:
                raise ValueError(_TOO_LONG.format(limit))
    return comb(n, k)


def count_ord_maps(m: Ordinal, n: Ordinal) -> int:
    """``len(enumerate_ord_maps(m, n))``: multisets of ``m.size`` values
    drawn from ``n.size``, without listing them."""
    if m.n == -1:
        return 1
    return _comb(n.size + m.size - 1, m.size)


def _require_non_empty(m: Ordinal, n: Ordinal) -> None:
    if m.n < 0 or n.n < 0:
        raise ValueError("interval maps run between non-empty ordinals")


def count_interval_maps(m: Ordinal, n: Ordinal) -> int:
    """``len(enumerate_interval_maps(m, n))``: both endpoints are fixed, so
    multisets of the ``m.n - 1`` inner values, without listing them."""
    _require_non_empty(m, n)
    if m.n == 0:
        return 1 if n.n == 0 else 0
    return _comb(n.size + m.n - 2, m.n - 1)


def enumerate_interval_maps(m: Ordinal, n: Ordinal) -> list[OrdMap]:
    """All interval maps ``m -> n`` in lexicographic order of value tuples."""
    _require_non_empty(m, n)
    if m.n == 0:
        return [OrdMap(m, n, (0,))] if n.n == 0 else []
    return [
        OrdMap(m, n, (0, *mid, n.n))
        for mid in combinations_with_replacement(range(n.size), m.n - 1)
    ]


def hom_recursion(branches, build):
    """``(enumerate, count)`` for hom-sets whose morphisms are an outer map
    plus one child morphism per index over it (Berger's wreath product):
    ``branches(a, b)`` lists each outer map of ``a -> b`` with the ``(dom,
    cod)`` pairs of its children, ``build(a, b, outer, kids)`` makes one
    morphism.  Trees take :func:`slot_recursion`, which counts faster."""

    def enumerate_homs(a, b) -> list:
        """All morphisms ``a -> b`` in a new list, by outer map and then
        children in ``product`` order, from one shared tuple per pair."""
        return [
            build(a, b, outer, kids)
            for outer, pairs in branches(a, b)
            for kids in product(*[children(*pair) for pair in pairs])
        ]

    @lru_cache(maxsize=None)
    def children(a, b) -> tuple:
        return tuple(enumerate_homs(a, b))

    @lru_cache(maxsize=None)
    def count(a, b) -> int:
        """``len(enumerate(a, b))``, memoized, without listing."""
        return sum(prod(count(*p) for p in pairs) for _, pairs in branches(a, b))

    return enumerate_homs, count


def slot_recursion(grid, build):
    """``hom_recursion`` for trees: ``grid(a, b)`` gives the flavor of
    ``a -> b`` (an ``itree.Flavor``), the children of its index and value
    ends, none at a trivial end, and a router.  ``route(root_map)`` is the
    ``(domains, codomains)`` of the root map's child morphisms, index child
    ``i`` paired with value child ``s(i)`` for the slot map ``s``.  Root
    maps are listed lazily and each is routed once, by the grid's router;
    the count sums ``prod_i c(i, s(i))`` over interval maps ``s`` by prefix
    sums instead, and routes nothing."""

    def branches(a, b):
        spec, index, value, route = grid(a, b)
        if not value:
            return [(None, ())]
        if not index:
            return []
        roots = [Ordinal(len(end) - 1 - spec.extra_slot) for end in (index, value)]
        return (
            (root, zip(*route(root))) for root in spec.root_maps(*spec.orient(*roots))
        )

    @lru_cache(maxsize=None)
    def count(a, b) -> int:
        spec, index, value, _ = grid(a, b)
        if not index or not value:
            return int(not value)
        # ways[j]: the slot maps of the index children so far that end at
        # value child j, weighted by their child counts; s(0) is 0.
        ways = [1] + [0] * (len(value) - 1)
        for i, x in enumerate(index):
            total = 0
            for j, y in enumerate(value if i else value[:1]):
                total += ways[j]
                ways[j] = total and total * count(*spec.orient(x, y))
        return ways[-1]

    return hom_recursion(branches, build)[0], count
