"""Tests for the low-level reasoning engines: SAT, congruence closure, LIA."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import Int, IntVar, ObjVar, Select, Var, map_of
from repro.logic.sorts import OBJ
from repro.provers.euf import CongruenceClosure
from repro.provers.lia import LinearExpr, LinearSolver, linearize
from repro.provers.sat import _ORDER_SLACK, SatSolver, Tseitin


# -- SAT ---------------------------------------------------------------------


def _models(clauses, nvars):
    for bits in itertools.product([False, True], repeat=nvars):
        model = {i + 1: bits[i] for i in range(nvars)}
        if _satisfies(model, clauses):
            yield model


def _satisfies(model, clauses):
    return all(any(model.get(abs(l), False) == (l > 0) for l in c) for c in clauses)


def _brute_force(clauses, nvars):
    return next(_models(clauses, nvars), None) is not None


def _pigeonhole(solver):
    """3 pigeons, 2 holes (unsatisfiable): variable p(i,h) = 2*i + h + 1."""
    var = lambda i, h: 2 * i + h + 1  # noqa: E731
    for i in range(3):
        solver.add_clause([var(i, 0), var(i, 1)])
    for h in range(2):
        for i in range(3):
            for j in range(i + 1, 3):
                solver.add_clause([-var(i, h), -var(j, h)])


class TestSatSolver:
    def test_simple_sat(self):
        solver = SatSolver()
        solver.add_clauses([[1, 2], [-1, 2], [1, -2]])
        result = solver.solve()
        assert result.satisfiable
        assert result.model[1] and result.model[2]

    def test_simple_unsat(self):
        solver = SatSolver()
        solver.add_clauses([[1], [-1]])
        assert not solver.solve().satisfiable

    def test_duplicate_clauses_deduplicated(self):
        solver = SatSolver()
        solver.add_clauses([[1, 2], [2, 1], [1, 2, 2]])
        assert len(solver.clauses) == 1
        # Repeated add_clauses calls (e.g. re-asserting a translation) must
        # not bloat the clause database either.
        solver.add_clauses([[1, 2], [-1, 2]])
        assert len(solver.clauses) == 2
        assert solver.solve().satisfiable

    def test_pigeonhole_unsat(self):
        solver = SatSolver()
        _pigeonhole(solver)
        assert not solver.solve().satisfiable

    def test_empty_clause_is_unsat(self):
        solver = SatSolver()
        solver.add_clause([1])
        solver.add_clause([])
        assert not solver.solve().satisfiable

    def test_assumptions(self):
        """What used to be solve-time assumptions are clauses added between
        solves."""
        solver = SatSolver()
        solver.add_clause([1, 2])
        assert solver.solve().satisfiable
        solver.add_clause([-1])
        result = solver.solve()
        assert result.satisfiable and result.model[2]
        solver.add_clause([-2])
        assert not solver.solve().satisfiable

    def test_unsat_is_final(self):
        """Once refuted, a solver answers UNSAT without searching again."""
        solver = SatSolver()
        _pigeonhole(solver)
        first = solver.solve()
        assert not first.satisfiable and first.decisions > 0
        solver.add_clause([7, 8])
        again = solver.solve()
        assert not again.satisfiable
        assert (again.conflicts, again.decisions) == (0, 0)

    @pytest.mark.parametrize("clause", [[0], [1, 0], [0, 1, -1]])
    def test_zero_literal_is_rejected(self, clause):
        # 0 == -0, so a zero would otherwise pass for a tautology and the
        # clause would be dropped without a word.
        with pytest.raises(ValueError):
            SatSolver().add_clause(clause)

    def test_solver_survives_its_conflict_budget(self):
        solver = SatSolver()
        _pigeonhole(solver)
        with pytest.raises(TimeoutError):
            solver.solve(max_conflicts=0)
        assert not solver.solve().satisfiable
        # A level-0 conflict is a refutation, not a spent budget.
        solver = SatSolver()
        solver.add_clauses([[-2, 3], [-2, -3], [1], [-1, 2]])
        assert not solver.solve(max_conflicts=0).satisfiable


_clauses = st.lists(
    st.lists(
        st.tuples(st.integers(1, 6), st.booleans()).map(
            lambda p: p[0] if p[1] else -p[0]
        ),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=8,
)


@given(batches=st.lists(_clauses, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_sat_matches_brute_force(batches):
    """Solving after each batch of added clauses agrees with brute force on
    every clause added so far, and every model satisfies all of them."""
    solver = SatSolver()
    added = []
    for batch in batches:
        solver.add_clauses(batch)
        added.extend(batch)
        result = solver.solve()
        assert result.satisfiable == _brute_force(added, 6)
        if result.satisfiable:
            assert _satisfies(result.model, added)


@given(clauses=_clauses)
@settings(max_examples=100, deadline=None)
def test_blocking_clauses_enumerate_every_model(clauses):
    """Block each model until UNSAT, the pattern of a lazy SMT loop."""
    solver = SatSolver()
    solver.add_clauses(clauses)
    nvars = solver.num_vars
    found = set()
    while (result := solver.solve()).satisfiable:
        model = tuple(result.model[var] for var in range(1, nvars + 1))
        assert model not in found
        assert _satisfies(result.model, clauses)
        found.add(model)
        solver.add_clause([-v if value else v for v, value in enumerate(model, 1)])
    assert len(found) == sum(1 for _ in _models(clauses, nvars))


class _AtMostOne:
    """A toy theory hook: at most one variable of ``group`` is true, and,
    when ``final`` is set, no full model makes ``final`` all true.

    It keeps its own copy of what it was told and checks it against the
    solver's trail on every call, so a missed ``backtrack`` shows."""

    def __init__(self, solver, group, final=()):
        self.solver, self.group, self.final = solver, set(group), list(final)
        self.true: list[tuple[int, int]] = []  # (level, var)
        self.calls = self.final_calls = 0

    def backtrack(self, level):
        self.true = [(at, var) for at, var in self.true if at <= level]

    def check(self, lits, level):
        self.calls += 1
        for lit in lits:
            assert self.solver.level[abs(lit)] == level
            if lit in self.group:
                self.true.append((level, lit))
        on_trail = {v for v in self.group if self.solver.value(v) == 1}
        assert {var for _, var in self.true} == on_trail
        if len(self.true) >= 2:
            return [-self.true[-1][1], -self.true[0][1]]
        return None

    def final_check(self):
        self.final_calls += 1
        solver = self.solver
        assert all(solver.value(v) != 0 for v in range(1, solver.num_vars + 1))
        if self.final and all(solver.value(lit) == 1 for lit in self.final):
            return [-lit for lit in self.final]
        return None

    def clauses(self):
        pairs = [[-a, -b] for a, b in itertools.combinations(sorted(self.group), 2)]
        return pairs + ([[-lit for lit in self.final]] if self.final else [])


@given(
    clauses=_clauses,
    group=st.sets(st.integers(1, 6), min_size=2, max_size=4),
    final=st.lists(
        st.integers(1, 6).flatmap(lambda v: st.sampled_from([v, -v])),
        max_size=3,
        unique_by=abs,
    ),
)
@settings(max_examples=200, deadline=None)
def test_theory_hook_matches_brute_force(clauses, group, final):
    """A search with a theory hook answers as brute force over the clauses
    plus the theory's own clauses, and its models satisfy both."""
    solver = SatSolver()
    solver.add_clauses(clauses)
    solver._grow(6)  # the theory's variables exist even where no clause has them
    theory = _AtMostOne(solver, group, final)
    result = solver.solve(theory=theory)
    everything = clauses + theory.clauses()
    assert result.satisfiable == _brute_force(everything, 6)
    if result.satisfiable:
        assert _satisfies(result.model, everything)
        assert theory.final_calls >= 1
    # The hook stays attached: a clause added later backtracks it too.
    solver.add_clause([1, 2, 3])
    again = solver.solve(theory=theory)
    assert again.satisfiable == _brute_force(everything + [[1, 2, 3]], 6)


def test_theory_conflict_at_level_zero_refutes_for_good():
    solver = SatSolver()
    solver.add_clauses([[1], [2], [3, 4]])
    theory = _AtMostOne(solver, {1, 2})
    result = solver.solve(theory=theory)
    assert not result.satisfiable and result.decisions == 0
    assert theory.calls == 1 and theory.final_calls == 0
    assert not solver.solve(theory=theory).satisfiable


def test_final_conflict_below_the_current_level_backjumps_first():
    """Decisions ``-1``, ``-3``, ``-5`` make 2, 4 and 6 true at levels 1 to
    3; the final check then forbids 2 alone.  The solver drops to level 1,
    where ``analyze`` finds the clause's literal, learns ``-2`` at level 0
    and ends with a model the final check accepts."""
    solver = SatSolver()
    solver.add_clauses([[1, 2], [3, 4], [5, 6]])
    theory = _AtMostOne(solver, set(), final=[2])
    result = solver.solve(theory=theory)
    assert result.satisfiable and result.conflicts == 1
    assert not result.model[2] and result.model[1]
    assert theory.final_calls == 2
    assert solver.value(-2) == 1 and solver.level[2] == 0


class _ScanCheckedSolver(SatSolver):
    """A solver whose every decision is checked against a full scan."""

    def decide(self):
        expected = _reference_decision(self)
        assert len(self._order) <= _ORDER_SLACK * self.num_vars
        assert super().decide() == expected
        return expected


def _reference_decision(solver):
    """The unassigned variable of highest activity, the lowest index among
    equals, negated; None when every variable is assigned."""
    best_var, best_activity = 0, -1.0
    for var in range(1, solver.num_vars + 1):
        if solver.assign[var] == 0 and solver.activity[var] > best_activity:
            best_var, best_activity = var, solver.activity[var]
    return -best_var if best_var else None


def _random_clauses(rng, num_vars, count):
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(count)
    ]


def _drive_lazy_loop(seed, var_inc=1.0):
    """Solve random CNFs near the 3-SAT threshold that grow between solves
    (new variables included) and are blocked model by model, as smt's lazy
    loop does; a refuted solver is replaced by a fresh one.  Returns the
    number of decisions and whether the activities were ever rescaled."""
    rng = random.Random(seed)
    solver, decisions, rescaled = None, 0, False
    for step in range(40):
        if solver is None:
            solver, num_vars = _ScanCheckedSolver(), 10
            solver.var_inc = var_inc
            solver.add_clauses(_random_clauses(rng, num_vars, 4 * num_vars))
        elif step % 4 == 0:
            num_vars += 5
            solver.add_clauses(_random_clauses(rng, num_vars, 15))
        result = solver.solve()
        decisions += result.decisions
        # The increment only grows, except when a rescale shrinks it.
        rescaled |= solver.var_inc < var_inc
        if result.satisfiable:
            blocked = rng.sample(range(1, num_vars + 1), 6)
            solver.add_clause([-v if result.model.get(v) else v for v in blocked])
        else:
            solver = None
    return decisions, rescaled


@pytest.mark.parametrize("seed", range(8))
def test_decisions_match_a_full_scan(seed):
    """The order heap decides exactly as a scan of every variable would."""
    decisions, _ = _drive_lazy_loop(seed)
    assert decisions > 100


@pytest.mark.parametrize("seed", range(8))
def test_decisions_match_a_full_scan_across_activity_rescales(seed):
    """With a huge increment a variable's second bump passes 1e100 and every
    activity is scaled down; the heap is rebuilt and still decides as the
    scan."""
    decisions, rescaled = _drive_lazy_loop(seed, var_inc=3e99)
    assert rescaled and decisions > 100


class TestTseitin:
    def test_atom_sharing(self):
        tseitin = Tseitin()
        assert tseitin.atom_var("a") == tseitin.atom_var("a")
        assert tseitin.atom_var("a") != tseitin.atom_var("b")

    def test_and_or_encoding(self):
        tseitin = Tseitin()
        a, b = tseitin.atom_var("a"), tseitin.atom_var("b")
        conj = tseitin.encode_and([a, b])
        tseitin.assert_literal(conj)
        result = tseitin.solve()
        assert result.satisfiable
        assert result.model[a] and result.model[b]


# -- Congruence closure --------------------------------------------------------

a, b, c = ObjVar("a"), ObjVar("b"), ObjVar("c")
f = Var("f", map_of(OBJ, OBJ))


class TestCongruenceClosure:
    def test_transitivity(self):
        cc = CongruenceClosure()
        cc.assert_equal(a, b)
        cc.assert_equal(b, c)
        assert cc.are_equal(a, c)

    def test_congruence_over_select(self):
        cc = CongruenceClosure()
        cc.intern(Select(f, a))
        cc.intern(Select(f, b))
        cc.assert_equal(a, b)
        assert cc.are_equal(Select(f, a), Select(f, b))

    def test_disequality_conflict(self):
        cc = CongruenceClosure()
        cc.assert_distinct(Select(f, a), Select(f, b))
        cc.assert_equal(a, b)
        assert cc.check() is not None

    def test_consistent_state(self):
        cc = CongruenceClosure()
        cc.assert_equal(a, b)
        cc.assert_distinct(a, c)
        assert cc.check() is None

    def test_distinct_int_literals_conflict(self):
        cc = CongruenceClosure()
        cc.assert_equal(Int(1), Int(2))
        assert cc.check() is not None

    def test_implied_equalities(self):
        cc = CongruenceClosure()
        cc.assert_equal(a, b)
        pairs = cc.implied_equalities([a, b, c])
        assert (a, b) in pairs or (b, a) in pairs


# -- Linear integer arithmetic ----------------------------------------------------

x, y, z = IntVar("x"), IntVar("y"), IntVar("z")


class TestLinearSolver:
    def test_cycle_is_infeasible(self):
        solver = LinearSolver()
        solver.add_le_terms(x, y)
        solver.add_lt_terms(y, z)
        solver.add_le_terms(z, x)
        assert solver.is_infeasible()

    def test_chain_is_feasible(self):
        solver = LinearSolver()
        solver.add_le_terms(x, y)
        solver.add_le_terms(y, z)
        assert not solver.is_infeasible()

    def test_entailment(self):
        solver = LinearSolver()
        solver.add_le_terms(x, y)
        solver.add_le_terms(y, z)
        assert solver.entails_le(linearize(x).sub(linearize(z)))
        assert not solver.entails_le(linearize(z).sub(linearize(x)))

    def test_equality_constraints(self):
        solver = LinearSolver()
        solver.add_eq_terms(x, y)
        solver.add_lt_terms(x, y)
        assert solver.is_infeasible()

    def test_integer_tightening(self):
        # x < y and y < x + 1 has rational solutions but no integer ones;
        # tightening x < y to x + 1 <= y detects it.
        solver = LinearSolver()
        solver.add_lt_terms(x, y)
        solver.add_lt_terms(y, Var("x", x.sort))
        assert solver.is_infeasible()

    def test_implied_equalities(self):
        solver = LinearSolver()
        solver.add_le_terms(x, y, frozenset({"xy"}))
        solver.add_le_terms(y, x, frozenset({"yx"}))
        assert (x, y, frozenset({"xy", "yx"})) in solver.implied_equalities([x, y, z])

    def test_linearize_nested(self):
        from repro.logic.builder import Plus

        expr = linearize(Plus(x, x, Int(2)))
        assert expr.coefficient(x) == 2
        assert expr.constant == 2

    def test_linear_expr_algebra(self):
        expr = LinearExpr.of_atom(x).scale(3).add(LinearExpr.of_constant(4))
        assert expr.coefficient(x) == 3 and expr.constant == 4
        assert expr.sub(expr).is_constant
