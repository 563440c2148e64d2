"""Heuristic quantifier instantiation (E-matching lite).

Fully automated reasoning about the quantified facts in data structure
verification conditions is the part the paper identifies as intractable in
general; like the SMT provers Jahob calls, this module applies *heuristic*
instantiation:

* bound variables are instantiated with ground terms drawn from the problem,
* candidates are filtered by *positional triggers*: if a bound variable
  ``x`` occurs in the quantified body as an argument of ``select(m, x)`` or
  ``f(..., x, ...)``, then only ground terms that occur in the same argument
  position of the same symbol anywhere in the ground part are considered,
* the number of candidates per variable and the total number of
  instantiations per round are capped,
* each :meth:`InstantiationEngine.saturate` call indexes its ground terms
  once, as formulas enter the ground set, so a round looks its candidates
  up instead of rescanning every formula for every variable (the term
  indexes of E-matching engines, de Moura & Bjorner, CADE 2007),
* an instance is built once per process: sequents of one class share their
  axioms and most candidate tuples, so a bounded memo maps an axiom and a
  tuple to the simplified instance across engines.

The result is sound (instantiation only weakens a universally quantified
assumption) and in practice sufficient once the developer has used the
integrated proof language to identify lemmas, witnesses and instantiations
as described in the paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from ..logic.simplify import simplify
from ..logic.sorts import BOOL, Sort
from ..logic.subst import substitute
from ..logic.terms import (
    FORALL,
    App,
    Binder,
    BoolLit,
    Term,
    Var,
    subterms,
)

__all__ = ["InstantiationEngine", "QuantifiedAxiom", "collect_ground_terms"]


@dataclass
class QuantifiedAxiom:
    """A universally quantified assumption awaiting instantiation."""

    params: tuple[Var, ...]
    body: Term
    source: Term
    produced: set[tuple[Term, ...]] = field(default_factory=set)


def _rigid_subterms(term: Term):
    """Subterms of a refutation-level formula, not descending into binders.

    At the level of a proof task, every free variable denotes a fixed (rigid)
    program value, so such subterms are legitimate instantiation candidates;
    only variables bound by a quantifier inside the formula must be excluded,
    which is achieved by not descending into binder bodies.
    """
    stack = [term]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, Binder):
            continue
        stack.extend(reversed(current.children()))


def collect_ground_terms(formulas: list[Term]) -> dict[Sort, list[Term]]:
    """Collect rigid non-boolean subterms grouped by sort."""
    by_sort: dict[Sort, list[Term]] = {}
    seen: set[Term] = set()
    for formula in formulas:
        for sub in _rigid_subterms(formula):
            if sub.sort == BOOL or isinstance(sub, Binder):
                continue
            if sub in seen:
                continue
            seen.add(sub)
            by_sort.setdefault(sub.sort, []).append(sub)
    return by_sort


@lru_cache(maxsize=65536)
def _instance(params: tuple[Var, ...], body: Term, combo: tuple[Term, ...]) -> Term:
    """``body`` with ``params`` replaced by ``combo``, simplified.  A pure
    function of hash-consed terms, so it stays correct across
    :func:`~repro.logic.terms.clear_term_pools`, as simplify's memos do."""
    return simplify(substitute(body, dict(zip(params, combo))))


def _argument_positions(term: Term, var: Var) -> set[tuple[str, int]]:
    """Positions ``(function symbol, argument index)`` where ``var`` occurs."""
    positions: set[tuple[str, int]] = set()
    for sub in subterms(term):
        if isinstance(sub, App):
            for index, arg in enumerate(sub.args):
                if arg == var:
                    positions.add((sub.op, index))
    return positions


class _GroundIndex:
    """The ground terms of one :meth:`InstantiationEngine.saturate` call.

    Each formula is walked once, when it enters the ground set.  For every
    trigger position ``(function symbol, argument index)`` the index keeps
    the rigid arguments seen there with the step at which each first
    occurred; it also keeps the rigid non-boolean subterms by sort in
    first-occurrence order.  These are exactly the orders a fresh scan of
    all ground formulas would produce.  A node seen before is not walked
    again: its whole subtree was recorded the first time.
    """

    def __init__(self, positions: set[tuple[str, int]], priority: list[Term]) -> None:
        self.at: dict[tuple[str, int], dict[Term, int]] = {
            position: {} for position in positions
        }
        self.by_sort: dict[Sort, list[Term]] = {}
        self.seen: set[Term] = set()
        self.priority_by_sort = collect_ground_terms(priority)
        self._step = 0

    def add(self, formula: Term) -> None:
        seen, at = self.seen, self.at
        stack = [formula]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if isinstance(current, Binder):
                continue
            if current.sort != BOOL:
                self.by_sort.setdefault(current.sort, []).append(current)
            if isinstance(current, App):
                args = current.args
                for index, arg in enumerate(args):
                    table = at.get((current.op, index))
                    if (
                        table is not None
                        and arg not in table
                        and not isinstance(arg, Binder)
                    ):
                        table[arg] = self._step + index
                self._step += len(args)
                stack.extend(reversed(args))

    def at_positions(
        self, positions: frozenset[tuple[str, int]], sort: Sort
    ) -> list[Term]:
        """Terms of ``sort`` at any of ``positions``, by first occurrence."""
        first: dict[Term, int] = {}
        for position in positions:
            for term, step in self.at[position].items():
                if term.sort == sort and step < first.get(term, step + 1):
                    first[term] = step
        return sorted(first, key=first.__getitem__)

    def of_sort(self, sort: Sort) -> list[Term]:
        """Terms of ``sort``: the ground ones, then those only in the
        priority formulas."""
        return self.by_sort.get(sort, []) + [
            term
            for term in self.priority_by_sort.get(sort, ())
            if term not in self.seen
        ]


class InstantiationEngine:
    """Round-based heuristic instantiation of universally quantified facts."""

    def __init__(
        self,
        max_rounds: int = 3,
        max_candidates_per_var: int = 8,
        max_instances_per_round: int = 600,
        max_total_instances: int = 2500,
    ) -> None:
        self.max_rounds = max_rounds
        self.max_candidates_per_var = max_candidates_per_var
        self.max_instances_per_round = max_instances_per_round
        self.max_total_instances = max_total_instances
        self.axioms: list[QuantifiedAxiom] = []
        self.total_instances = 0

    def add_axiom(self, formula: Term) -> None:
        """Register a universally quantified assumption."""
        if isinstance(formula, Binder) and formula.kind == FORALL:
            self.axioms.append(
                QuantifiedAxiom(formula.param_vars, formula.body, formula)
            )

    def saturate(self, ground_formulas: list[Term], priority: list[Term]) -> list[Term]:
        """Run up to ``max_rounds`` rounds, feeding new instances back in."""
        triggers = [
            [
                (var.sort, frozenset(_argument_positions(axiom.body, var)))
                for var in axiom.params
            ]
            for axiom in self.axioms
        ]
        index = _GroundIndex(
            {position for row in triggers for _, ps in row for position in ps},
            priority,
        )
        for formula in ground_formulas:
            index.add(formula)
        ground = set(ground_formulas)
        priority_set = {sub for formula in priority for sub in subterms(formula)}
        ranks: dict[Term, tuple[int, int]] = {}

        def rank(term: Term) -> tuple[int, int]:
            # Prefer terms appearing in the goal, then smaller terms.
            key = ranks.get(term)
            if key is None:
                key = ranks[term] = (0 if term in priority_set else 1, len(str(term)))
            return key

        new_instances: list[Term] = []
        for _ in range(self.max_rounds):
            produced = self._round(index, triggers, rank)
            fresh = [f for f in produced if f not in ground]
            if not fresh:
                break
            new_instances.extend(fresh)
            ground.update(fresh)
            for formula in fresh:
                index.add(formula)
        return new_instances

    def _round(self, index: _GroundIndex, triggers, rank) -> list[Term]:
        """Produce one round of new ground instances.

        A variable's candidates are the ground terms of its sort at its
        argument positions (all ground terms of its sort when there are
        none), ranked and capped at ``max_candidates_per_var``; variables
        with the same sort and positions share one list per round.
        """
        candidates: dict[tuple, list[Term]] = {}

        def candidates_for(trigger) -> list[Term]:
            found = candidates.get(trigger)
            if found is None:
                sort, positions = trigger
                found = index.at_positions(positions, sort) if positions else []
                if not found:
                    found = index.of_sort(sort)
                ranked = sorted(found, key=rank)
                found = candidates[trigger] = ranked[: self.max_candidates_per_var]
            return found

        produced: list[Term] = []
        produced_count = 0
        for axiom, axiom_triggers in zip(self.axioms, triggers):
            if produced_count >= self.max_instances_per_round:
                break
            if self.total_instances >= self.max_total_instances:
                break
            candidate_lists = [candidates_for(trigger) for trigger in axiom_triggers]
            if any(not candidates for candidates in candidate_lists):
                continue
            for combo in itertools.product(*candidate_lists):
                if combo in axiom.produced:
                    continue
                axiom.produced.add(combo)
                instance = _instance(axiom.params, axiom.body, combo)
                self.total_instances += 1
                produced_count += 1
                if isinstance(instance, BoolLit) and instance.value:
                    continue
                produced.append(instance)
                if (
                    produced_count >= self.max_instances_per_round
                    or self.total_instances >= self.max_total_instances
                ):
                    break
        return produced
