"""Verification-condition generation over simple guarded commands.

The sequents are those of ``wlp(c, post)`` split by the Figure 7 rules,
produced directly so that the assumption names stay attached.  Read
backwards, the rules are:

* ``assume l:F``     adds the named assumption ``(l, F)`` to every sequent
  of a later program point -- this is how the assumption base of the paper
  is built;
* ``assert l:F from h`` emits new sequents for ``F`` (split per Figure 7) and
  records the ``from`` clause for assumption-base control;
* ``havoc x``        renames ``x`` to a fresh constant in every later sequent
  (the sequent-level counterpart of ``wlp(havoc x, G) = ALL x. G`` followed
  by Figure 7's fresh-variable rule);
* choice             duplicates the later sequents down both branches;
* ``assume false``   discharges every later sequent of the branch, which is
  what makes the proof constructs' dead branches contribute only their own
  obligations.

Applying them backwards to a list of pending sequents copies every pending
assumption tuple at every ``assume`` and re-substitutes every pending formula
at every ``havoc``: quadratic in the length of a path.  So the generator runs
them in two passes instead (the forward scheme of Flanagan & Saxe, POPL 2001,
and Leino, IPL 2005):

1. A backward *compile* pass builds no sequents.  It visits the command in
   the backward order, so it draws fresh names in exactly the order the
   backward rules do (a havoc's names only while a later obligation exists,
   ``split_goal``'s names at each ``assert``), and it drops what cannot
   reach an obligation: everything after ``assume false``, and any
   ``assume``, ``havoc`` or choice with no ``assert`` after it.  It emits a
   tree with one node per occurrence of a command (frozen command nodes can
   appear twice in one command), in which both branches of a choice share
   the compiled rest of the program.
2. A forward depth-first *walk* of that tree.  Each path carries one
   assumption tuple, extended once per ``assume`` and shared by every
   sequent emitted on the path, and its renaming: the havocs before the
   current point, applied nearest first, each through one memoized
   ``substituter`` built at compile time and shared by every path through
   that havoc.  At a choice the walk finishes the left branch and the rest
   of the program before the right branch.

The output equals the backward rules'. Each formula is renamed by the havocs
before it on its path, nearest first -- the order in which the backward
rules reach it; a havoc whose variables the formula no longer has free
returns it untouched. (One composed map would rename the same free
variables, but can rename a bound variable apart where the backward rules do
not, when its name equals a fresh one.) Assumptions accumulate in program
order, and sequents come out in path order, which is the backward rules'
``new + pending`` and ``left + right``. Fresh names are drawn in the
backward order, so they are the same names. The test suite holds the
generator to the backward pass (``tests/vcgen/vcgen_reference.py``) with
``==`` on the sequent lists, and cross-checks both against the finite-model
evaluator.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

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

#: The walk gives up once a command has produced more sequents than this.
MAX_SEQUENTS = 20000


# -- the compiled tree: ``next`` is the rest of the path, ``None`` its end --------


class _Assume(NamedTuple):
    label: str
    formula: Term
    next: object


class _Assert(NamedTuple):
    pieces: tuple  # (label, goal, hypotheses, from_hints) per Figure 7 piece
    next: object


class _Havoc(NamedTuple):
    rename: Callable[[Term], Term]
    next: object


class _Choice(NamedTuple):
    left: object
    right: object


def _renamed(term: Term, havocs) -> Term:
    """``term`` renamed by a path's ``havocs``, a ``(rename, farther)``
    chain from the nearest havoc back."""
    while havocs is not None:
        rename, havocs = havocs
        term = rename(term)
    return term


@dataclass
class VcGenerator:
    """Sequent generator for simple guarded commands.

    Formulas are not simplified, so that sequents keep their algebraic
    shape: the SMT-lite prover performs comprehension elimination itself,
    while the BAPA-style set reasoner prefers the un-expanded set equalities
    and cardinalities.
    """

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
        end = None
        if post is not None:
            end = _Assert(self._pieces(post, post_label, post_hints), None)
        sequents = self._walk(self._compile(command, end))
        return [sequent for sequent in sequents if not sequent.is_trivial()]

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

    def _pieces(self, formula: Term, label: str, hints: tuple[str, ...]) -> tuple:
        return tuple(
            (f"{label}{piece.suffix}", piece.goal, piece.hypotheses, hints)
            for piece in split_goal(formula, label, self._fresh)
        )

    # -- pass 1: compile backwards -----------------------------------------------

    def _compile(self, command: SimpleCommand, rest):
        """``command`` followed by the compiled ``rest``; ``None`` when no
        obligation is reachable."""
        if isinstance(command, SSeq):
            for sub in reversed(command.commands):
                rest = self._compile(sub, rest)
            return rest
        if isinstance(command, SAssert):
            pieces = self._pieces(
                command.formula, command.label or "Assert", command.from_hints
            )
            return _Assert(pieces, rest)
        if isinstance(command, SChoice):
            left = self._compile(command.left, rest)
            right = self._compile(command.right, rest)
            if left is None and right is None:
                return None
            return _Choice(left, right)
        if isinstance(command, SSkip):
            return rest
        if isinstance(command, SAssume):
            if rest is None or simplify(command.formula) == FALSE:
                # Nothing follows, or the dead-branch cut of the proof
                # constructs: nothing after this point contributes
                # obligations to this branch.
                return None
            return _Assume(command.label or "Assume", command.formula, rest)
        if isinstance(command, SHavoc):
            if rest is None or not command.variables:
                return rest
            renaming: dict[Var, Term] = {
                var: Var(self._fresh.fresh(var.name), var.sort)
                for var in command.variables
            }
            return _Havoc(substituter(renaming), rest)
        raise TypeError(f"unknown simple command {type(command)!r}")

    # -- pass 2: walk forwards ---------------------------------------------------

    def _walk(self, start) -> list[Sequent]:
        sequents: list[Sequent] = []
        # Paths still to walk: (node, assumptions, havocs).
        stack: list[tuple] = [(start, (), None)]
        while stack:
            node, assumptions, havocs = stack.pop()
            while node is not None:
                kind = type(node)
                if kind is _Assume:
                    formula = _renamed(node.formula, havocs)
                    assumptions += ((node.label, formula),)
                elif kind is _Assert:
                    for label, goal, hypotheses, hints in node.pieces:
                        goal = _renamed(goal, havocs)
                        local = tuple(
                            (name, _renamed(f, havocs)) for name, f in hypotheses
                        )
                        sequents.append(Sequent(assumptions, goal, label, hints, local))
                    if len(sequents) > MAX_SEQUENTS:
                        raise RuntimeError(
                            f"verification produced more than {MAX_SEQUENTS} sequents"
                        )
                elif kind is _Havoc:
                    havocs = (node.rename, havocs)
                else:
                    stack.append((node.right, assumptions, havocs))
                    node = node.left
                    continue
                node = node.next
        return sequents


def generate_sequents(
    command: SimpleCommand,
    post: Term | None = None,
    post_label: str = "Post",
    post_hints: tuple[str, ...] = (),
) -> list[Sequent]:
    """Convenience wrapper around :class:`VcGenerator`."""
    return VcGenerator().generate(command, post, post_label, post_hints)
