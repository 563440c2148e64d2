"""Seeded generation of catalogue classes (the "open the workload" path).

The five hand-written catalogue classes only ever exercise the stack on
programs we wrote.  This module turns the suite into a *workload
generator*: :func:`generate_class` builds a well-formed
:class:`~repro.frontend.ast.ClassModel` from nothing but
``(family, seed, size)`` -- deterministically, so any failure anywhere in
the pipeline is reproducible from a printed seed -- and
:func:`register_corpus` registers the result with
:mod:`repro.suite.catalog`, after which the suite scheduler, proof cache
and worker pool all treat it exactly like a paper class.

The differential oracle harness over generated programs lives in
``tests/gensuite``; the shrinking entry point it uses on a failure is
:func:`shrink_class`, and :func:`regression_source` renders the shrunk
program as a standalone file that ``jahob-py verify FILE`` (and the
daemon's ``verify_file`` op) can replay forever after.
"""

from __future__ import annotations

import random
import textwrap

from ..frontend.ast import ClassModel
from .catalog import register_structure
from .families import build_arith_class, build_struct_class

__all__ = [
    "FAMILIES",
    "generate_class",
    "generate_corpus",
    "register_corpus",
    "shrink_class",
    "regression_source",
]

#: Family name -> builder.  Ordering is the round-robin order of
#: :func:`generate_corpus`.
FAMILIES = {
    "arith": build_arith_class,
    "struct": build_struct_class,
}


def generate_class(
    family: str,
    seed: int,
    size: int = 3,
    drop_methods: tuple[str, ...] = (),
) -> ClassModel:
    """The class model identified by ``(family, seed, size)``.

    Deterministic: the same triple always yields the same model (method
    for method, formula for formula), in this process or any other.
    ``drop_methods`` removes the named methods afterwards -- the shrinking
    knob; generated methods never call each other, so every subset is
    itself well-formed.
    """
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; available: {', '.join(FAMILIES)}"
        ) from None
    name = f"Gen-{family}-{int(seed)}"
    model = builder(name, random.Random(int(seed)), size=size)
    if drop_methods:
        dropped = set(drop_methods)
        unknown = dropped - {method.name for method in model.methods}
        if unknown:
            raise ValueError(f"{name} has no method(s) {sorted(unknown)}")
        model = ClassModel(
            name=model.name,
            state=model.state,
            invariants=model.invariants,
            methods=tuple(m for m in model.methods if m.name not in dropped),
        )
    return model


def generate_corpus(
    count: int,
    seed: int = 0,
    families: tuple[str, ...] | None = None,
    size: int = 3,
) -> list[ClassModel]:
    """``count`` generated classes, round-robin across ``families``.

    Class ``i`` uses seed ``seed + i``, so a corpus is fully described by
    ``(count, seed, families, size)`` and any single member can be
    regenerated alone with :func:`generate_class`.
    """
    chosen = tuple(families) if families is not None else tuple(FAMILIES)
    return [
        generate_class(chosen[i % len(chosen)], seed + i, size=size)
        for i in range(int(count))
    ]


def register_corpus(classes, replace: bool = False) -> list[ClassModel]:
    """Register every class with the catalogue and return them.

    After this, ``structure_by_name`` resolves them, so the CLI, the
    daemon's ``verify`` op, the suite scheduler and the worker pool see the
    generated classes as first-class catalogue members.
    """
    for cls in classes:
        register_structure(cls, replace=replace)
    return list(classes)


def shrink_class(
    family: str,
    seed: int,
    size: int,
    still_fails,
) -> tuple[str, ...]:
    """Greedily shrink a failing generated class by dropping methods.

    ``still_fails(model)`` must return True when ``model`` still exhibits
    the failure.  Returns the ``drop_methods`` tuple of the smallest
    failing program found -- pass it back to :func:`generate_class` (or
    bake it into :func:`regression_source`) to reproduce.
    """
    model = generate_class(family, seed, size=size)
    dropped: list[str] = []
    for method in model.methods:
        candidate = tuple(dropped) + (method.name,)
        if len(candidate) == len(model.methods):
            break  # a class needs at least one method to mean anything
        try:
            shrunk = generate_class(family, seed, size=size, drop_methods=candidate)
            if still_fails(shrunk):
                dropped.append(method.name)
        except Exception:
            continue  # keep the method if dropping it breaks the check itself
    return tuple(dropped)


def regression_source(
    family: str,
    seed: int,
    size: int,
    drop_methods: tuple[str, ...] = (),
    note: str = "",
) -> str:
    """A standalone regression file reproducing one generated program.

    The file is an ordinary ``jahob-py verify FILE`` input (it exports
    ``MODEL``), so a shrunk fuzz failure replays through exactly the
    ingestion path users take.  Because generation is deterministic, the
    recipe *is* the program.  The rendered source is formatter-clean
    (double quotes, wrapped docstring) so persisted regressions pass the
    same lint gate as hand-written tests.
    """
    dropped = tuple(drop_methods)
    if len(dropped) == 1:
        rendered_drop = f'("{dropped[0]}",)'
    else:
        rendered_drop = "(" + ", ".join(f'"{name}"' for name in dropped) + ")"
    lines = [
        '"""Deep-fuzz regression: generated program pinned by its recipe.',
        "",
        f"family={family!r} seed={seed} size={size} drop_methods={dropped!r}",
    ]
    if note:
        lines += [""] + textwrap.wrap(note, width=79)
    lines += [
        "",
        "Replay with:  jahob-py verify <this file>  (or the gensuite oracle).",
        '"""',
        "",
        "from repro.suite.generate import generate_class",
        "",
        "MODEL = generate_class(",
        f'    "{family}",',
        f"    seed={int(seed)},",
        f"    size={int(size)},",
        f"    drop_methods={rendered_drop},",
        ")",
        "",
    ]
    return "\n".join(lines)
