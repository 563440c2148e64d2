"""Verification-condition generation over simple guarded commands.

The generator walks a simple guarded command backwards, maintaining the list
of pending sequents (proof obligations of later program points):

* ``assume l:F``     adds the named assumption ``(l, F)`` to every pending
  sequent -- this is how the assumption base of the paper is built;
* ``assert l:F from h`` emits new sequents for ``F`` (split per Figure 7) and
  records the ``from`` clause for assumption-base control;
* ``havoc x``        renames ``x`` to a fresh constant in all pending
  sequents (the sequent-level counterpart of ``wlp(havoc x, G) = ALL x. G``
  followed by Figure 7's fresh-variable rule);
* choice             duplicates the pending sequents down both branches;
* ``assume false``   discharges all pending sequents of the branch, which is
  what makes the proof constructs' dead branches contribute only their own
  obligations.

The result is equivalent to generating ``wlp(c, post)`` and splitting it with
the Figure 7 rules (the test suite cross-checks both against the finite-model
evaluator); producing sequents directly keeps the assumption names attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gcl.simple import (
    SAssert,
    SAssume,
    SChoice,
    SHavoc,
    SimpleCommand,
    SSeq,
    SSkip,
)
from ..logic.simplify import simplify
from ..logic.subst import FreshNameGenerator, substituter
from ..logic.terms import FALSE, Term, Var, free_var_names
from .sequent import Sequent
from .split import split_goal

__all__ = ["generate_sequents", "VcGenerator"]


@dataclass
class VcGenerator:
    """Backward sequent generator for simple guarded commands.

    ``simplify_formulas`` is off by default so that sequents keep their
    algebraic shape: the SMT-lite prover performs comprehension elimination
    itself, while the BAPA-style set reasoner prefers the un-expanded set
    equalities and cardinalities.
    """

    simplify_formulas: bool = False
    max_sequents: int = 20000
    _fresh: FreshNameGenerator = field(default_factory=FreshNameGenerator)

    # -- public API ----------------------------------------------------------------

    def generate(
        self,
        command: SimpleCommand,
        post: Term | None = None,
        post_label: str = "Post",
        post_hints: tuple[str, ...] = (),
    ) -> list[Sequent]:
        """Sequents whose validity establishes ``{true} command {post}``."""
        self._reserve_names(command, post)
        pending: list[Sequent] = []
        if post is not None:
            pending = self._obligations_for(post, post_label, post_hints)
        result = self._process(command, pending)
        if self.simplify_formulas:
            result = [sequent.map_formulas(simplify) for sequent in result]
        return [sequent for sequent in result if not sequent.is_trivial()]

    # -- helpers ---------------------------------------------------------------------

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
        pieces = split_goal(formula, label, self._fresh)
        return [
            Sequent(
                assumptions=(),
                goal=piece.goal,
                label=f"{label}{piece.suffix}",
                from_hints=hints,
                local_assumptions=piece.hypotheses,
            )
            for piece in pieces
        ]

    # -- the backward pass -----------------------------------------------------------

    def _process(self, command: SimpleCommand, pending: list[Sequent]) -> list[Sequent]:
        if isinstance(command, SSkip):
            return pending
        if isinstance(command, SAssume):
            if command.formula == FALSE or simplify(command.formula) == FALSE:
                # The dead-branch cut of the proof constructs: nothing after
                # this point contributes obligations to this branch.
                return []
            label = command.label or "Assume"
            return [
                sequent.with_assumption(label, command.formula)
                for sequent in pending
            ]
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
            # One substitution for all pending sequents: the hypotheses
            # they share are renamed once.
            rename = substituter(renaming)
            return [sequent.map_formulas(rename) for sequent in pending]
        if isinstance(command, SChoice):
            left = self._process(command.left, list(pending))
            right = self._process(command.right, list(pending))
            combined = left + right
            if len(combined) > self.max_sequents:
                raise RuntimeError(
                    f"verification produced more than {self.max_sequents} sequents"
                )
            return combined
        if isinstance(command, SSeq):
            current = pending
            for sub in reversed(command.commands):
                current = self._process(sub, current)
            return current
        raise TypeError(f"unknown simple command {type(command)!r}")


def generate_sequents(
    command: SimpleCommand,
    post: Term | None = None,
    post_label: str = "Post",
    post_hints: tuple[str, ...] = (),
) -> list[Sequent]:
    """Convenience wrapper around :class:`VcGenerator`."""
    return VcGenerator().generate(command, post, post_label, post_hints)
