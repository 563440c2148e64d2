"""The benchmark catalogue: the eight data structures of Section 6."""

from __future__ import annotations

from functools import lru_cache

from ..frontend.ast import ClassModel
from .linked_structures import (
    build_association_list,
    build_circular_list,
    build_cursor_list,
    build_linked_list,
)

__all__ = [
    "all_structures",
    "structure_by_name",
    "register_structure",
    "registered_structures",
    "unregister_structure",
    "STRUCTURE_ORDER",
]

#: Table order used by the paper (most complex first).
STRUCTURE_ORDER = (
    "Hash Table",
    "Priority Queue",
    "Binary Tree",
    "Array List",
    "Circular List",
    "Cursor List",
    "Association List",
    "Linked List",
)


@lru_cache(maxsize=1)
def _catalogue() -> dict[str, ClassModel]:
    from .array_list import build_array_list
    from .binary_tree import build_binary_tree
    from .hash_table import build_hash_table
    from .priority_queue import build_priority_queue

    structures = [
        build_hash_table(),
        build_priority_queue(),
        build_binary_tree(),
        build_array_list(),
        build_circular_list(),
        build_cursor_list(),
        build_association_list(),
        build_linked_list(),
    ]
    return {cls.name: cls for cls in structures}


#: Classes registered at runtime (generated programs, ingested files),
#: in registration order.  They resolve through :func:`structure_by_name`
#: exactly like the paper catalogue -- which is what makes a generated
#: class first-class for the scheduler, the caches, the daemon's
#: ``verify`` op and the worker pool -- but they are deliberately
#: *not* part of :func:`all_structures`: Table 1 is the paper's table,
#: and a registered class must never punch holes in it.
_REGISTERED: dict[str, ClassModel] = {}


def _normalize(name: str) -> str:
    return name.lower().replace(" ", "")


def register_structure(cls: ClassModel, replace: bool = False) -> ClassModel:
    """Register ``cls`` so :func:`structure_by_name` resolves it.

    Collisions -- with the paper catalogue or an earlier registration --
    raise unless ``replace`` is set; the paper catalogue itself can never
    be replaced.
    """
    key = _normalize(cls.name)
    if any(_normalize(name) == key for name in STRUCTURE_ORDER):
        raise ValueError(f"{cls.name!r} collides with a paper catalogue class")
    if key in {_normalize(name) for name in _REGISTERED} and not replace:
        raise ValueError(f"{cls.name!r} is already registered")
    _REGISTERED.pop(
        next((n for n in _REGISTERED if _normalize(n) == key), cls.name), None
    )
    _REGISTERED[cls.name] = cls
    return cls


def registered_structures() -> list[ClassModel]:
    """Runtime-registered classes, in registration order."""
    return list(_REGISTERED.values())


def unregister_structure(name: str | None = None) -> None:
    """Remove one registered class (or, with ``name=None``, all of them).

    Test hygiene: suites that register generated corpora drop them again
    so catalogue state never leaks between tests.
    """
    if name is None:
        _REGISTERED.clear()
        return
    key = _normalize(name)
    for registered in list(_REGISTERED):
        if _normalize(registered) == key:
            del _REGISTERED[registered]
            return
    raise KeyError(f"no registered structure {name!r}")


def all_structures() -> list[ClassModel]:
    """All benchmark data structures, in the paper's table order."""
    catalogue = _catalogue()
    return [catalogue[name] for name in STRUCTURE_ORDER]


def structure_by_name(name: str) -> ClassModel:
    """Look up a data structure -- paper catalogue first, then classes
    registered at runtime (:func:`register_structure`) -- by
    (case-insensitive, space-insensitive) name."""
    catalogue = _catalogue()
    key = _normalize(name)
    for source in (catalogue, _REGISTERED):
        for candidate, value in source.items():
            if _normalize(candidate) == key:
                return value
    raise KeyError(
        f"unknown data structure {name!r}; available: "
        f"{', '.join([*catalogue, *_REGISTERED])}"
    )
