"""Reference oracle for the sequent generator: the backward pass.

:class:`ReferenceVcGenerator` is the generator ``repro.vcgen`` used before
its forward walk.  It walks a simple guarded command backwards, keeping the
list of pending sequents (the obligations of later program points):

* ``assume l:F``   prepends ``(l, F)`` to every pending sequent;
* ``assert l:F``   puts the Figure 7 pieces of ``F`` in front of them;
* ``havoc x``      renames ``x`` to a fresh name in every pending sequent;
* choice           runs both branches on copies of the pending list;
* ``assume false`` empties the list.

It builds a fresh ``Sequent`` per pending obligation at every step, so it
costs far more than :class:`repro.vcgen.VcGenerator`, but its rules are the
sequent-level wlp rules one for one.  The differential tests hold the
production generator to it: ``==`` on the sequent lists, names, order and
labels included.
"""

from __future__ import annotations

from repro.gcl.simple import (
    SAssert,
    SAssume,
    SChoice,
    SHavoc,
    SimpleCommand,
    SSeq,
    SSkip,
)
from repro.logic.simplify import simplify
from repro.logic.subst import FreshNameGenerator, substituter
from repro.logic.terms import FALSE, Term, Var, free_var_names
from repro.vcgen.sequent import Sequent
from repro.vcgen.split import split_goal

MAX_SEQUENTS = 20000


def with_assumption(sequent: Sequent, name: str, formula: Term) -> Sequent:
    """A copy of ``sequent`` with one more assumption prepended."""
    return Sequent(
        ((name, formula),) + sequent.assumptions,
        sequent.goal,
        sequent.label,
        sequent.from_hints,
        sequent.local_assumptions,
    )


def map_formulas(sequent: Sequent, transform) -> Sequent:
    """A copy of ``sequent`` with ``transform`` applied to every formula."""
    return Sequent(
        tuple((name, transform(f)) for name, f in sequent.assumptions),
        transform(sequent.goal),
        sequent.label,
        sequent.from_hints,
        tuple((name, transform(f)) for name, f in sequent.local_assumptions),
    )


class ReferenceVcGenerator:
    """The backward sequent generator, kept as the oracle."""

    def __init__(self) -> None:
        self._fresh = FreshNameGenerator()

    def generate(
        self,
        command: SimpleCommand,
        post: Term | None = None,
        post_label: str = "Post",
        post_hints: tuple[str, ...] = (),
    ) -> list[Sequent]:
        self._reserve_names(command, post)
        pending: list[Sequent] = []
        if post is not None:
            pending = self._obligations_for(post, post_label, post_hints)
        result = self._process(command, pending)
        return [sequent for sequent in result if not sequent.is_trivial()]

    def _reserve_names(self, command: SimpleCommand, post: Term | None) -> None:
        names: set[str] = set()
        stack: list[SimpleCommand] = [command]
        while stack:
            current = stack.pop()
            if isinstance(current, (SAssume, SAssert)):
                names |= free_var_names(current.formula)
            elif isinstance(current, SHavoc):
                names |= {var.name for var in current.variables}
            stack.extend(current.children())
        if post is not None:
            names |= free_var_names(post)
        for name in names:
            self._fresh.reserve(name)

    def _obligations_for(
        self, formula: Term, label: str, hints: tuple[str, ...]
    ) -> list[Sequent]:
        return [
            Sequent(
                assumptions=(),
                goal=piece.goal,
                label=f"{label}{piece.suffix}",
                from_hints=hints,
                local_assumptions=piece.hypotheses,
            )
            for piece in split_goal(formula, label, self._fresh)
        ]

    def _process(self, command: SimpleCommand, pending: list[Sequent]) -> list[Sequent]:
        if isinstance(command, SSkip):
            return pending
        if isinstance(command, SAssume):
            if command.formula == FALSE or simplify(command.formula) == FALSE:
                return []
            label = command.label or "Assume"
            return [with_assumption(s, label, command.formula) for s in pending]
        if isinstance(command, SAssert):
            new_obligations = self._obligations_for(
                command.formula, command.label or "Assert", command.from_hints
            )
            return new_obligations + pending
        if isinstance(command, SHavoc):
            if not command.variables or not pending:
                return pending
            renaming: dict[Var, Term] = {
                var: Var(self._fresh.fresh(var.name), var.sort)
                for var in command.variables
            }
            rename = substituter(renaming)
            return [map_formulas(s, rename) for s in pending]
        if isinstance(command, SChoice):
            left = self._process(command.left, list(pending))
            right = self._process(command.right, list(pending))
            combined = left + right
            if len(combined) > MAX_SEQUENTS:
                raise RuntimeError(
                    f"verification produced more than {MAX_SEQUENTS} sequents"
                )
            return combined
        if isinstance(command, SSeq):
            current = pending
            for sub in reversed(command.commands):
                current = self._process(sub, current)
            return current
        raise TypeError(f"unknown simple command {type(command)!r}")


def reference_sequents(
    command: SimpleCommand,
    post: Term | None = None,
    post_label: str = "Post",
    post_hints: tuple[str, ...] = (),
) -> list[Sequent]:
    """The backward pass's sequents for ``{true} command {post}``."""
    return ReferenceVcGenerator().generate(command, post, post_label, post_hints)
