"""Sorts (types) for the HOL-ish specification logic.

The logic is many-sorted.  The base sorts mirror the ones Jahob uses for
Java verification:

* ``int``  -- mathematical integers,
* ``bool`` -- propositions / booleans,
* ``obj``  -- references to heap objects (including ``null``).

Composite sorts:

* ``SetSort(elem)``      -- finite sets of ``elem``,
* ``MapSort(dom, ran)``  -- total functions used to model fields and arrays
  (a Java field ``f`` becomes a global variable of sort ``obj => obj``;
  the array state becomes ``obj => (int => obj)``),
* ``TupleSort(items)``   -- n-ary tuples, used by relations such as the
  ``content`` specification variable of ``ArrayList`` which is a set of
  ``(int, obj)`` pairs,
* ``FunSort(args, ran)`` -- sort of uninterpreted function symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SortError(TypeError):
    """Raised when a term is built or checked with incompatible sorts."""


@dataclass(frozen=True, eq=False)
class Sort:
    """Base class for all sorts.

    The ``name`` string canonically encodes the whole sort structure (the
    composite constructors derive it deterministically from their
    components), so equality is type + name comparison and the hash is
    computed once and cached -- sorts are compared and hashed constantly by
    the hash-consed term kernel.
    """

    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash((type(self).__name__, self.name))
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        # Rebuild through the constructor on unpickle: the cached ``_hash``
        # depends on the process's string hash seed, so it must never travel
        # across process boundaries (worker pools, spawn start methods).
        return (Sort, (self.name,))

    @property
    def is_atomic(self) -> bool:
        return True


INT = Sort("int")
BOOL = Sort("bool")
OBJ = Sort("obj")


@dataclass(frozen=True, eq=False)
class SetSort(Sort):
    """Sort of finite sets over an element sort."""

    elem: Sort = field(default=OBJ)

    def __init__(self, elem: Sort) -> None:
        object.__setattr__(self, "elem", elem)
        object.__setattr__(self, "name", f"({elem}) set")

    def __reduce__(self):
        return (SetSort, (self.elem,))

    @property
    def is_atomic(self) -> bool:
        return False


@dataclass(frozen=True, eq=False)
class MapSort(Sort):
    """Sort of total maps ``dom => ran`` (fields, arrays, ghost maps)."""

    dom: Sort = field(default=OBJ)
    ran: Sort = field(default=OBJ)

    def __init__(self, dom: Sort, ran: Sort) -> None:
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "ran", ran)
        object.__setattr__(self, "name", f"({dom} => {ran})")

    def __reduce__(self):
        return (MapSort, (self.dom, self.ran))

    @property
    def is_atomic(self) -> bool:
        return False


@dataclass(frozen=True, eq=False)
class TupleSort(Sort):
    """Sort of n-ary tuples."""

    items: tuple[Sort, ...] = field(default=())

    def __init__(self, items: tuple[Sort, ...]) -> None:
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "name", "(" + " * ".join(str(s) for s in items) + ")")

    def __reduce__(self):
        return (TupleSort, (self.items,))

    @property
    def is_atomic(self) -> bool:
        return False

    @property
    def arity(self) -> int:
        return len(self.items)


@dataclass(frozen=True, eq=False)
class FunSort(Sort):
    """Sort of an uninterpreted function symbol ``args -> ran``."""

    args: tuple[Sort, ...] = field(default=())
    ran: Sort = field(default=OBJ)

    def __init__(self, args: tuple[Sort, ...], ran: Sort) -> None:
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "ran", ran)
        pretty = ", ".join(str(s) for s in args)
        object.__setattr__(self, "name", f"[{pretty}] -> {ran}")

    def __reduce__(self):
        return (FunSort, (self.args, self.ran))

    @property
    def is_atomic(self) -> bool:
        return False

    @property
    def arity(self) -> int:
        return len(self.args)


def set_of(elem: Sort) -> SetSort:
    """Build the sort of sets over ``elem``."""
    return SetSort(elem)


def map_of(dom: Sort, ran: Sort) -> MapSort:
    """Build the sort of maps from ``dom`` to ``ran``."""
    return MapSort(dom, ran)


def tuple_of(*items: Sort) -> TupleSort:
    """Build the sort of tuples over ``items``."""
    return TupleSort(tuple(items))


def fun_of(args: tuple[Sort, ...] | list[Sort], ran: Sort) -> FunSort:
    """Build the sort of an uninterpreted function symbol."""
    return FunSort(tuple(args), ran)


# Commonly used composite sorts in the Java heap encoding.
OBJ_SET = set_of(OBJ)
INT_SET = set_of(INT)
OBJ_FIELD = map_of(OBJ, OBJ)
INT_FIELD = map_of(OBJ, INT)
BOOL_FIELD = map_of(OBJ, BOOL)
ARRAY_STATE = map_of(OBJ, map_of(INT, OBJ))
INT_OBJ_PAIR = tuple_of(INT, OBJ)
INT_OBJ_REL = set_of(INT_OBJ_PAIR)
OBJ_OBJ_PAIR = tuple_of(OBJ, OBJ)
OBJ_OBJ_REL = set_of(OBJ_OBJ_PAIR)
