"""A CDCL propositional SAT solver.

This is the boolean core of the SMT-lite prover (the stand-in for the
CVC3/Z3 back-ends Jahob dispatches to).  It implements the standard
conflict-driven clause learning loop:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning,
* non-chronological backjumping,
* VSIDS-style activity-based decision heuristic with decay,
* geometric restarts (after 100 conflicts, then every 1.5x as many).

Decisions come from an order heap, as in MiniSat (Een & Sorensson, "An
Extensible SAT-solver", SAT 2003): the unassigned variable of highest
activity, ties broken by the lowest variable index -- the variable a scan
of every variable would pick.  The heap is lazy: a variable is pushed with
its activity when it is created and whenever it is unassigned (only
assigned variables are bumped), and an entry whose variable is assigned or
whose activity has moved on is dropped when it reaches the top.  It is rebuilt from the unassigned
variables when it outgrows ``_ORDER_SLACK`` entries per variable and when
the activities are rescaled.

The solver is incremental: clauses can be added between solves, and each
solve resumes from the level-0 trail with the clauses learned before.  A
refuted clause set stays refuted.

``solve`` takes an optional theory hook, which makes the search DPLL(T)
(Nieuwenhuis, Oliveras & Tinelli, "Solving SAT and SAT Modulo Theories",
JACM 2006).  Each time unit propagation settles without a conflict, the
hook's ``check(literals, level)`` gets the literals that are new on the
trail (all of the current decision level) and answers None or a theory
conflict clause, every literal of which is false.  When every variable is
assigned, ``final_check()`` answers the same way for the whole assignment;
None there ends the search with that model.  A conflict clause takes the
way of a propagation conflict through ``analyze`` and the backjump, first
dropping to the highest level among its literals.  ``backtrack(level)`` is
called on every backjump, so the hook can undo what it was told above
``level``.  A hook follows one solver from its first solve on.

Variables are positive integers; literals are signed integers (DIMACS
convention).  The solver is deliberately self-contained so it can be tested
exhaustively against a brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

__all__ = ["SatSolver", "SatResult", "Tseitin"]


#: The order heap is rebuilt once it holds more than this many entries per
#: variable, so stale entries never outnumber live ones by more than that.
_ORDER_SLACK = 4


@dataclass
class SatResult:
    """Result of a SAT call: satisfiable flag and a model if SAT."""

    satisfiable: bool
    model: dict[int, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0


class SatSolver:
    """Incremental CDCL SAT solver over integer literals.

    One object holds the clauses, the watches, the trail, the activities
    and the learned clauses for its whole life.
    """

    def __init__(self) -> None:
        self.clauses: list[list[int]] = []
        self.num_vars = 0
        self._seen_clauses: set[tuple[int, ...]] = set()
        self.assign: list[int] = [0]  # 0 unassigned, 1 true, -1 false
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]
        self.activity: list[float] = [0.0]
        #: Lazy order heap of ``(-activity, var)``: every unassigned variable
        #: has an entry holding its current activity.
        self._order: list[tuple[float, int]] = []
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.watches: dict[int, list[list[int]]] = {}
        self._qhead = 0
        self.var_inc = 1.0
        #: Set once the clauses are refuted at level 0; no later clause can
        #: make them satisfiable again.
        self._unsat = False
        #: The theory hook of the last solve, and how much of the trail it
        #: has been given.
        self._theory = None
        self._theory_head = 0

    def add_clause(self, literals: list[int] | tuple[int, ...]) -> None:
        """Add a clause (a disjunction of non-zero integer literals).

        Duplicate clauses (same sorted literal set) are ignored, so repeated
        ``add_clauses`` calls with overlapping translations don't bloat the
        watch lists.  The solver backjumps to level 0 and attaches the
        clause at once, its non-false literals first (each group in literal
        order): a clause with one non-false literal is a level-0 unit, one
        with none refutes the clause set for good.
        """
        literal_set = set(literals)
        if 0 in literal_set:
            raise ValueError("0 is not a valid literal")
        for lit in literal_set:
            if -lit in literal_set:
                return  # tautology
        key = tuple(sorted(literal_set, key=abs))
        if key in self._seen_clauses:
            return
        self._seen_clauses.add(key)
        if key and abs(key[-1]) > self.num_vars:
            self._grow(abs(key[-1]))
        if self.trail_lim:
            self.backjump(0)
        assign = self.assign
        false = [
            lit for lit in key if (assign[lit] if lit > 0 else -assign[-lit]) == -1
        ]
        if false:
            clause = [lit for lit in key if lit not in false] + false
        else:
            clause = list(key)
        self.clauses.append(clause)
        non_false = len(clause) - len(false)
        if non_false == 0:
            self._unsat = True
        elif non_false == 1:
            self.enqueue(clause[0], None)
        if len(clause) >= 2:
            self.attach_clause(clause)

    def add_definition(self, out: int, lit: int) -> None:
        """Add the binary clause ``[out, lit]`` of a Tseitin definition:
        ``out`` is a literal of the newest variable, which is never false
        and is in no clause but its own definition's.

        Such a clause is never a tautology, and only a repeated ``lit``
        makes it a duplicate, so it skips most of :meth:`add_clause`; it
        ends in the same clause list, watches and level-0 trail.
        """
        key = (lit, out)
        seen = self._seen_clauses
        if key in seen:
            return
        seen.add(key)
        if abs(out) > self.num_vars:
            self._grow(abs(out))
        if self.trail_lim:
            self.backjump(0)
        assign = self.assign
        if (assign[lit] if lit > 0 else -assign[-lit]) == -1:
            clause = [out, lit]
            self.enqueue(out, None)
        else:
            clause = [lit, out]
        self.clauses.append(clause)
        self.attach_clause(clause)

    def add_clauses(self, clauses) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def _grow(self, num_vars: int) -> None:
        extra = num_vars - self.num_vars
        if extra > 0:
            self.num_vars = num_vars
            self.assign.extend([0] * extra)
            self.level.extend([0] * extra)
            self.reason.extend([None] * extra)
            self.activity.extend([0.0] * extra)
            for var in range(num_vars - extra + 1, num_vars + 1):
                heappush(self._order, (-0.0, var))

    # -- basic operations ------------------------------------------------------

    def value(self, lit: int) -> int:
        sign = 1 if lit > 0 else -1
        return self.assign[abs(lit)] * sign

    def watch(self, lit: int, clause: list[int]) -> None:
        self.watches.setdefault(lit, []).append(clause)

    def attach_clause(self, clause: list[int]) -> None:
        watches = self.watches
        for lit in (-clause[0], -clause[1]):
            watching = watches.get(lit)
            if watching is None:
                watches[lit] = [clause]
            else:
                watching.append(clause)

    def enqueue(self, lit: int, reason: list[int] | None) -> bool:
        current = self.value(lit)
        if current == 1:
            return True
        if current == -1:
            return False
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        index = self._qhead
        while index < len(self.trail):
            lit = self.trail[index]
            index += 1
            watching = self.watches.get(lit, [])
            new_watching: list[list[int]] = []
            i = 0
            while i < len(watching):
                clause = watching[i]
                i += 1
                # Ensure clause[1] is the false literal (-lit).
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                if self.value(clause[0]) == 1:
                    new_watching.append(clause)
                    continue
                found = False
                for k in range(2, len(clause)):
                    if self.value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watch(-clause[1], clause)
                        found = True
                        break
                if found:
                    continue
                new_watching.append(clause)
                if self.value(clause[0]) == -1:
                    # Conflict: restore remaining watches and report.
                    new_watching.extend(watching[i:])
                    self.watches[lit] = new_watching
                    self._qhead = len(self.trail)
                    return clause
                self.enqueue(clause[0], clause)
            self.watches[lit] = new_watching
        self._qhead = index
        return None

    # -- conflict analysis ------------------------------------------------------

    def bump(self, var: int) -> None:
        # Only assigned variables are bumped (every literal of a conflict or
        # reason clause is false), so the order heap gets the new activity
        # when backjump unassigns ``var``.
        activity = self.activity
        activity[var] += self.var_inc
        if activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_order()

    def decay(self) -> None:
        self.var_inc /= 0.95

    def analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        learned = [0]
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = 0
        clause = conflict
        trail_index = len(self.trail) - 1
        current_level = len(self.trail_lim)
        while True:
            for q in clause:
                if q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self.bump(var)
                    if self.level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(self.trail[trail_index])]:
                trail_index -= 1
            lit = self.trail[trail_index]
            var = abs(lit)
            seen[var] = False
            trail_index -= 1
            counter -= 1
            if counter == 0:
                break
            clause = self.reason[var] or []
        learned[0] = -lit
        # Backjump level = max level among learned[1:]; move a literal of that
        # level into position 1 so the watched-literal invariant holds after
        # backjumping.
        if len(learned) == 1:
            back_level = 0
        else:
            best = 1
            for index in range(2, len(learned)):
                if self.level[abs(learned[index])] > self.level[abs(learned[best])]:
                    best = index
            learned[1], learned[best] = learned[best], learned[1]
            back_level = self.level[abs(learned[1])]
        return learned, back_level

    def backjump(self, level: int) -> None:
        order, activity = self._order, self.activity
        while len(self.trail_lim) > level:
            limit = self.trail_lim.pop()
            while len(self.trail) > limit:
                lit = self.trail.pop()
                var = abs(lit)
                self.assign[var] = 0
                self.reason[var] = None
                heappush(order, (-activity[var], var))
        self._qhead = min(self._qhead, len(self.trail))
        if self._theory is not None:
            self._theory_head = min(self._theory_head, len(self.trail))
            self._theory.backtrack(level)
        if len(order) > _ORDER_SLACK * self.num_vars:
            self._rebuild_order()

    # -- decisions ---------------------------------------------------------------

    def _rebuild_order(self) -> None:
        activity, assign = self.activity, self.assign
        self._order = [
            (-activity[var], var)
            for var in range(1, self.num_vars + 1)
            if assign[var] == 0
        ]
        heapify(self._order)

    def decide(self) -> int | None:
        """The negative literal of the unassigned variable of highest
        activity, lowest index first among equals; None if none is left."""
        order, activity, assign = self._order, self.activity, self.assign
        while order:
            negated, var = heappop(order)
            if assign[var] == 0 and -negated == activity[var]:
                return -var  # prefer negative phase (compact models)
        return None

    # -- main search ---------------------------------------------------------------

    def solve(
        self, max_conflicts: int | None = None, should_stop=None, theory=None
    ) -> SatResult:
        """Solve the clauses added so far, resuming from the level-0 trail.

        ``max_conflicts`` bounds this call's conflicts, theory conflicts
        included.  ``should_stop`` is an optional callable polled
        periodically; when it returns True the solver raises
        ``TimeoutError``.  Either way the solver stays usable.  ``theory``
        is the optional theory hook (see the module docstring); an
        exception it raises ends the solve.
        """
        conflicts = decisions = 0
        if self._unsat:
            return SatResult(False)
        if theory is not self._theory:
            self._theory = theory
            self._theory_head = 0
        self.backjump(0)
        restart_limit = 100
        conflicts_since_restart = 0
        while True:
            if should_stop is not None and should_stop():
                raise TimeoutError("SAT solver interrupted")
            conflict = self.propagate()
            if conflict is None and theory is not None:
                head = self._theory_head
                if head < len(self.trail):
                    self._theory_head = len(self.trail)
                    clause = theory.check(self.trail[head:], len(self.trail_lim))
                    if clause is not None:
                        conflict = self._theory_conflict(clause)
            if conflict is None:
                lit = self.decide()
                if lit is not None:
                    decisions += 1
                    self.trail_lim.append(len(self.trail))
                    self.enqueue(lit, None)
                    continue
                if theory is not None:
                    clause = theory.final_check()
                    if clause is not None:
                        conflict = self._theory_conflict(clause)
                if conflict is None:
                    model = {
                        var: self.assign[var] == 1
                        for var in range(1, self.num_vars + 1)
                    }
                    self._verify_model()
                    return SatResult(
                        True, model, conflicts=conflicts, decisions=decisions
                    )
            conflicts += 1
            conflicts_since_restart += 1
            if not self.trail_lim:
                self._unsat = True
                return SatResult(False, conflicts=conflicts, decisions=decisions)
            if max_conflicts is not None and conflicts > max_conflicts:
                raise TimeoutError("SAT solver exceeded conflict budget")
            learned, back_level = self.analyze(conflict)
            self.backjump(back_level)
            if len(learned) == 1:
                self.enqueue(learned[0], None)
            else:
                self.attach_clause(learned)
                self.enqueue(learned[0], learned)
            self.decay()
            if conflicts_since_restart >= restart_limit:
                conflicts_since_restart = 0
                restart_limit = int(restart_limit * 1.5)
                self.backjump(0)

    def _theory_conflict(self, clause: list[int]) -> list[int]:
        """Backjump to the highest level among a theory conflict clause's
        literals, so that ``analyze`` finds one of them at the current
        level."""
        level = self.level
        top = max((level[abs(lit)] for lit in clause), default=0)
        if top < len(self.trail_lim):
            self.backjump(top)
        return clause

    def _verify_model(self) -> None:
        """Safety net: the full assignment must satisfy every input clause."""
        assign = self.assign
        for clause in self.clauses:
            for lit in clause:
                if (assign[lit] if lit > 0 else -assign[-lit]) == 1:
                    break
            else:
                raise RuntimeError(
                    "internal SAT solver error: model does not satisfy clause "
                    f"{clause}"
                )


class Tseitin:
    """Tseitin transformation of formula DAGs into CNF over integer literals.

    The class manages the mapping between atoms (arbitrary hashable objects,
    in practice :class:`~repro.logic.terms.Term` atoms) and SAT variables,
    and introduces auxiliary variables for internal connective nodes.
    """

    def __init__(self) -> None:
        self.solver = SatSolver()
        #: Atom -> SAT variable; read it, never mutate it.
        self.atoms: dict[object, int] = {}
        self._next_var = 0
        self._cache: dict[object, int] = {}

    def fresh_var(self) -> int:
        self._next_var += 1
        return self._next_var

    def atom_var(self, atom: object) -> int:
        if atom not in self.atoms:
            self.atoms[atom] = self.fresh_var()
        return self.atoms[atom]

    def add_clause(self, literals) -> None:
        self.solver.add_clause(literals)

    def encode_and(self, lits: list[int]) -> int:
        """Return a literal equivalent to the conjunction of ``lits``."""
        key = ("and", tuple(sorted(lits)))
        if key in self._cache:
            return self._cache[key]
        out = self.fresh_var()
        for lit in lits:
            self.solver.add_definition(-out, lit)
        self.add_clause([out] + [-lit for lit in lits])
        self._cache[key] = out
        return out

    def encode_or(self, lits: list[int]) -> int:
        """Return a literal equivalent to the disjunction of ``lits``."""
        key = ("or", tuple(sorted(lits)))
        if key in self._cache:
            return self._cache[key]
        out = self.fresh_var()
        for lit in lits:
            self.solver.add_definition(out, -lit)
        self.add_clause([-out] + list(lits))
        self._cache[key] = out
        return out

    def assert_literal(self, lit: int) -> None:
        self.add_clause([lit])

    def solve(
        self, should_stop=None, max_conflicts: int | None = None, theory=None
    ) -> SatResult:
        return self.solver.solve(
            should_stop=should_stop, max_conflicts=max_conflicts, theory=theory
        )
