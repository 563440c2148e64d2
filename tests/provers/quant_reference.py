"""Reference oracle for quantifier instantiation: the plain rounds that
``InstantiationEngine`` ran before it indexed its ground terms.

Every round rescans all ground formulas: once to group the rigid terms by
sort, and once per (axiom, variable) to collect the terms at the
variable's argument positions; candidates are re-ranked from scratch on
every call.  The term walks are copied here too, so the oracle does not
move with the production module's helpers; only the constructor and
``add_axiom`` are shared.  ``test_quant_differential.py`` holds the indexed engine to
exactly these instance lists, in the same order, with the same
``total_instances``.
"""

from __future__ import annotations

import itertools

from repro.logic.simplify import simplify
from repro.logic.sorts import BOOL, Sort
from repro.logic.subst import substitute
from repro.logic.terms import App, Binder, BoolLit, Term, Var, subterms
from repro.provers.quant import InstantiationEngine


def _rigid_subterms(term: Term):
    stack = [term]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, Binder):
            continue
        stack.extend(reversed(current.children()))


def collect_ground_terms(formulas: list[Term]) -> dict[Sort, list[Term]]:
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


def _argument_positions(term: Term, var: Var) -> set[tuple[str, int]]:
    positions: set[tuple[str, int]] = set()
    for sub in subterms(term):
        if isinstance(sub, App):
            for index, arg in enumerate(sub.args):
                if arg == var:
                    positions.add((sub.op, index))
    return positions


def _ground_terms_at_positions(
    formulas: list[Term], positions: set[tuple[str, int]]
) -> list[Term]:
    found: list[Term] = []
    seen: set[Term] = set()
    for formula in formulas:
        for sub in _rigid_subterms(formula):
            if isinstance(sub, App):
                for index, arg in enumerate(sub.args):
                    if (sub.op, index) in positions and not isinstance(arg, Binder):
                        if arg not in seen:
                            seen.add(arg)
                            found.append(arg)
    return found


class ReferenceInstantiationEngine(InstantiationEngine):
    """``InstantiationEngine`` with the rescanning ``round`` / ``saturate``."""

    def candidates(
        self,
        var: Var,
        body: Term,
        ground_formulas: list[Term],
        by_sort: dict[Sort, list[Term]],
        priority: list[Term],
    ) -> list[Term]:
        positions = _argument_positions(body, var)
        candidates: list[Term] = []
        if positions:
            candidates = [
                t
                for t in _ground_terms_at_positions(ground_formulas, positions)
                if t.sort == var.sort
            ]
        if not candidates:
            candidates = list(by_sort.get(var.sort, []))
        priority_set = set()
        for formula in priority:
            for sub in subterms(formula):
                priority_set.add(sub)

        def rank(term: Term) -> tuple[int, int]:
            return (0 if term in priority_set else 1, len(str(term)))

        candidates.sort(key=rank)
        return candidates[: self.max_candidates_per_var]

    def round(self, ground_formulas: list[Term], priority: list[Term]) -> list[Term]:
        by_sort = collect_ground_terms(ground_formulas + priority)
        produced: list[Term] = []
        produced_count = 0
        for axiom in self.axioms:
            if produced_count >= self.max_instances_per_round:
                break
            if self.total_instances >= self.max_total_instances:
                break
            candidate_lists = [
                self.candidates(var, axiom.body, ground_formulas, by_sort, priority)
                for var in axiom.params
            ]
            if any(not candidates for candidates in candidate_lists):
                continue
            for combo in itertools.product(*candidate_lists):
                if combo in axiom.produced:
                    continue
                axiom.produced.add(combo)
                mapping = dict(zip(axiom.params, combo))
                instance = simplify(substitute(axiom.body, mapping))
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

    def saturate(self, ground_formulas: list[Term], priority: list[Term]) -> list[Term]:
        all_ground = list(ground_formulas)
        new_instances: list[Term] = []
        for _ in range(self.max_rounds):
            produced = self.round(all_ground, priority)
            fresh = [f for f in produced if f not in all_ground]
            if not fresh:
                break
            new_instances.extend(fresh)
            all_ground.extend(fresh)
        return new_instances
