"""Tests for the SMT-lite prover, the specialised provers and the dispatcher.

The SMT cases are representative of the sequents that arise from the
benchmark data structures: ground arithmetic/equality reasoning, reasoning
about function updates (field and array assignment), quantified invariants
with instantiation, comprehension-defined specification variables, and
existentially quantified goals resolved by a witness in the assumption base.
"""

import inspect
import json

import pytest

from repro.logic import BOOL, INT, OBJ, fun_of, map_of, set_of, tuple_of
from repro.logic.parser import parse_formula
from repro.provers import (
    CachedVerdict,
    Outcome,
    PortfolioEntry,
    ProofCache,
    ProofTask,
    Prover,
    ProverPortfolio,
    ProverResult,
    SetCardinalityProver,
    SmtProver,
    default_portfolio,
)
from repro.provers.cache import PersistentCacheStore
from repro.provers.dispatch import PROVER_FACTORIES, PortfolioSpec
from repro.provers.sat import SatResult, SatSolver, Tseitin
from repro.provers.theory import TheoryChecker
from repro.suite import all_structures
from repro.verifier import VerificationEngine

ENV = {
    "x": INT, "y": INT, "z": INT, "i": INT, "j": INT, "size": INT, "csize": INT,
    "old_csize": INT, "capacity": INT,
    "a": OBJ, "b": OBJ, "o": OBJ, "n": OBJ, "first": OBJ,
    "f": map_of(OBJ, OBJ), "next": map_of(OBJ, OBJ), "g": map_of(INT, INT),
    "elements": map_of(INT, OBJ), "elements2": map_of(INT, OBJ),
    "S": set_of(OBJ), "T": set_of(OBJ), "nodes": set_of(OBJ),
    "old_nodes": set_of(OBJ),
    "content": set_of(tuple_of(INT, OBJ)), "old_content": set_of(tuple_of(INT, OBJ)),
}
FUNCS = {"p": fun_of([OBJ], BOOL), "q": fun_of([OBJ], BOOL), "r": fun_of([OBJ], BOOL)}


def task(assumptions, goal):
    return ProofTask(
        tuple(
            (f"h{i}", parse_formula(a, ENV, FUNCS)) for i, a in enumerate(assumptions)
        ),
        parse_formula(goal, ENV, FUNCS),
    )


SMT_PROVABLE = [
    (["x <= y", "y < z"], "x < z"),
    (["a = b"], "f[a] = f[b]"),
    (["f[a] ~= f[b]"], "a ~= b"),
    (["x = y", "g[x] = 3"], "g[y] > 2"),
    ([], "x < x + 1"),
    ([], "elements[i := o][i] = o"),
    (["j ~= i"], "elements[i := o][j] = elements[j]"),
    (["elements2 = elements[i := o]", "j ~= i"], "elements2[j] = elements[j]"),
    (
        [
            "ALL k : int. 0 <= k & k < size --> elements[k] ~= null",
            "0 <= i",
            "i < size",
        ],
        "elements[i] ~= null",
    ),
    (
        ["(i, o) in content", "ALL k : int, m : obj. (k, m) in content --> 0 <= k"],
        "0 <= i",
    ),
    (["a in S", "S subseteq {b}"], "a = b"),
    (["(i, o) in content"], "EX k : int. (k, o) in content"),
    (
        ["content = old_content Un {(i, o)}", "(j, b) in old_content"],
        "(j, b) in content",
    ),
    (
        [
            "ALL m : obj. m in nodes --> next[m] in nodes | next[m] = null",
            "a in nodes",
            "next[a] ~= null",
        ],
        "next[a] in nodes",
    ),
    (
        [
            "content = {(k, m). 0 <= k & k < size & m = elements[k]}",
            "0 <= i",
            "i < size",
        ],
        "(i, elements[i]) in content",
    ),
]

SMT_NOT_PROVABLE = [
    (["x <= y"], "y <= x"),
    (["a in nodes"], "next[a] in nodes"),
    ([], "g[x] = g[y]"),
]


class TestSmtProver:
    @pytest.mark.parametrize("assumptions, goal", SMT_PROVABLE)
    def test_proves_valid_sequents(self, assumptions, goal):
        result = SmtProver().prove(task(assumptions, goal), timeout=15.0)
        assert result.is_proved, result.reason

    @pytest.mark.parametrize("assumptions, goal", SMT_NOT_PROVABLE)
    def test_never_proves_invalid_sequents(self, assumptions, goal):
        result = SmtProver().prove(task(assumptions, goal), timeout=10.0)
        assert not result.is_proved


def pigeons(count):
    """``count`` distinct integers in ``0 .. count - 2``: every refutation
    takes many theory conflicts (745 for 6, 122 for 5)."""
    env = {f"p{i}": INT for i in range(count)}
    assumptions = [
        (f"Range{i}", parse_formula(f"0 <= p{i} & p{i} <= {count - 2}", env))
        for i in range(count)
    ] + [
        (f"Distinct{i}.{j}", parse_formula(f"~(p{i} = p{j})", env))
        for i in range(count)
        for j in range(i + 1, count)
    ]
    return ProofTask(tuple(assumptions), parse_formula("false", env), "pigeons")


def catalogue_tasks(class_names=None):
    engine = VerificationEngine(use_proof_cache=False)
    return [
        engine.task_for(sequent)
        for cls in all_structures()
        if class_names is None or cls.name in class_names
        for method in cls.methods
        for sequent in engine.method_sequents(cls, method)
    ]


class TestTheoryOnTheTrail:
    """smt's one DPLL(T) search: its limits and budget."""

    def test_theory_conflicts_are_capped(self):
        result = SmtProver().prove(pigeons(6))
        assert (result.outcome, result.reason) == (
            Outcome.UNKNOWN,
            "theory iteration limit",
        )
        under_the_cap = SmtProver().prove(pigeons(5))
        assert under_the_cap.is_proved
        assert "0 instantiations" in under_the_cap.reason

    def test_budget_expiring_in_an_in_search_theory_check_is_a_timeout(
        self, monkeypatch
    ):
        conflict = TheoryChecker.conflict
        calls = []

        def expiring(self):
            calls.append(self)
            self.arithmetic.deadline.seconds = 0.0
            return conflict(self)

        monkeypatch.setattr(TheoryChecker, "conflict", expiring)
        result = SmtProver().prove(pigeons(5), timeout=60.0)
        assert calls
        assert result.outcome is Outcome.TIMEOUT

    def test_budget_expiring_in_a_final_check_is_a_timeout(self, monkeypatch):
        check = TheoryChecker.check
        calls = []

        def expiring(self, literals=(), budget=None):
            calls.append(self)
            budget.seconds = 0.0
            return check(self, literals, budget)

        monkeypatch.setattr(TheoryChecker, "check", expiring)
        # A theory-consistent model reaches the final check.
        result = SmtProver().prove(task(["x <= y"], "y <= x"), timeout=60.0)
        assert calls
        assert (result.outcome, result.reason) == (Outcome.TIMEOUT, "budget expired")


def test_definitional_fast_path_matches_the_generic_path(monkeypatch):
    """Every catalogue attempt's encoding ends in the same clauses, watch
    lists, level-0 trail and dedup set whether Tseitin's definitional
    clauses take ``add_definition`` or the generic ``add_clause``."""
    snapshots = []

    def snapshot(self, should_stop=None, max_conflicts=None, theory=None):
        solver = self.solver
        watches = {lit: [list(c) for c in w] for lit, w in solver.watches.items()}
        snapshots.append(
            (
                [list(clause) for clause in solver.clauses],
                watches,
                list(solver.trail),
                set(solver._seen_clauses),
            )
        )
        return SatResult(False)

    monkeypatch.setattr(Tseitin, "solve", snapshot)
    tasks = catalogue_tasks()
    prover = SmtProver()
    for proof_task in tasks:
        prover.prove(proof_task)
    fast = list(snapshots)
    snapshots.clear()
    monkeypatch.setattr(
        SatSolver, "add_definition", lambda self, out, lit: self.add_clause([out, lit])
    )
    for proof_task in tasks:
        prover.prove(proof_task)
    assert len(fast) > 250
    assert snapshots == fast


class TestSetCardinalityProver:
    def test_insert_increases_cardinality(self):
        result = SetCardinalityProver().prove(
            task(
                [
                    "csize = card nodes",
                    "~(n in nodes)",
                    "old_csize = csize",
                ],
                "card (nodes Un {n}) = old_csize + 1",
            ),
            timeout=10.0,
        )
        assert result.is_proved

    def test_subset_transitivity(self):
        result = SetCardinalityProver().prove(
            task(["S subseteq T", "T subseteq nodes"], "S subseteq nodes"),
            timeout=10.0,
        )
        assert result.is_proved

    def test_subset_cardinality_monotone(self):
        result = SetCardinalityProver().prove(
            task(["S subseteq T"], "card S <= card T"), timeout=10.0
        )
        assert result.is_proved

    def test_empty_set_has_no_members(self):
        result = SetCardinalityProver().prove(
            task(["card S = 0"], "a ~in S"), timeout=10.0
        )
        assert result.is_proved

    def test_does_not_prove_invalid(self):
        result = SetCardinalityProver().prove(
            task([], "card S <= card T"), timeout=10.0
        )
        assert not result.is_proved

    def test_declines_out_of_fragment_goals(self):
        result = SetCardinalityProver().prove(task([], "f[a] = f[b]"), timeout=5.0)
        assert result.outcome is Outcome.UNKNOWN


class StubProver(Prover):
    """A test-only prover: answers every sequent with ``outcome`` (a
    refutation carries a fixed countermodel) and counts its calls."""

    def __init__(self, name: str, outcome: Outcome) -> None:
        self.name = name
        self.outcome = outcome
        self.calls = 0

    def attempt(self, task, budget):
        self.calls += 1
        countermodel = {"x": 1, "y": 0} if self.outcome is Outcome.REFUTED else None
        return ProverResult(self.outcome, reason="stub", countermodel=countermodel)


class TestPortfolio:
    def test_dispatch_uses_specialised_prover(self):
        portfolio = default_portfolio()
        result = portfolio.dispatch(
            task(
                ["csize = card nodes", "~(n in nodes)"],
                "card (nodes Un {n}) = csize + 1",
            )
        )
        assert result.proved
        assert result.winning_prover == "sets"

    def test_dispatch_smt_first(self):
        portfolio = default_portfolio()
        result = portfolio.dispatch(task(["x <= y", "y < z"], "x < z"))
        assert result.proved and result.winning_prover == "smt"

    def test_restriction_and_statistics(self):
        portfolio = default_portfolio().only("smt")
        assert portfolio.prover_names == ["smt"]
        result = portfolio.dispatch(task([], "x < x + 1"))
        assert result.proved
        assert portfolio.statistics.sequents_attempted == 1
        assert portfolio.statistics.sequents_proved == 1

    def test_default_line_up_is_every_registered_prover(self):
        assert set(PROVER_FACTORIES) == {"smt", "sets"}
        assert default_portfolio().prover_names == ["smt", "sets"]

    def test_default_portfolio_takes_only_timeouts_and_the_cache_switch(self):
        params = inspect.signature(default_portfolio).parameters
        assert list(params) == ["smt_timeout", "sets_timeout", "with_cache"]
        uncached = default_portfolio(
            smt_timeout=2.0, sets_timeout=0.5, with_cache=False
        )
        assert uncached.proof_cache is None
        assert [(e.prover.name, e.timeout) for e in uncached.entries] == [
            ("smt", 2.0),
            ("sets", 0.5),
        ]

    def test_smt_limits_are_fixed_class_constants(self):
        assert not inspect.signature(SmtProver).parameters
        with pytest.raises(TypeError):
            SmtProver(instantiation_rounds=5)
        smt = SmtProver()
        assert (
            smt.instantiation_rounds,
            smt.max_candidates_per_var,
            smt.max_theory_iterations,
            smt.max_sat_conflicts,
        ) == (3, 8, 400, 20000)

    def test_spec_rebuilds_the_default_and_rejects_a_custom_prover(self):
        spec = PortfolioSpec.from_portfolio(default_portfolio())
        assert spec.entries == (("smt", 4.0), ("sets", 1.5))
        rebuilt = spec.build()
        assert rebuilt.prover_names == ["smt", "sets"]
        assert PortfolioSpec.from_portfolio(rebuilt) == spec
        # A prover object outside PROVER_FACTORIES cannot be rebuilt in a
        # worker process, so it has no spec.
        stub = StubProver("stub", Outcome.PROVED)
        custom = ProverPortfolio([PortfolioEntry(stub, 1.0)])
        with pytest.raises(ValueError, match="'stub'"):
            PortfolioSpec.from_portfolio(custom)

    def test_build_names_the_unknown_prover(self):
        with pytest.raises(ValueError, match="'spass'"):
            PortfolioSpec((("smt", 1.0), ("spass", 0.8))).build()

    def test_refutation_stops_dispatch_and_is_cached(self, tmp_path):
        refuter = StubProver("refuter", Outcome.REFUTED)
        later = StubProver("later", Outcome.PROVED)
        portfolio = ProverPortfolio(
            [PortfolioEntry(refuter, 1.0), PortfolioEntry(later, 1.0)], ProofCache()
        )
        sequent = task(["x <= y"], "y <= x")
        result = portfolio.dispatch(sequent)
        assert result.refuted and not result.proved
        assert result.winning_prover == "refuter"
        assert [attempt.prover for attempt in result.attempts] == ["refuter"]
        assert result.attempts[0].countermodel == {"x": 1, "y": 0}
        assert later.calls == 0
        # The verdict is cached: a repeat is answered without any prover.
        repeat = portfolio.dispatch(sequent)
        assert repeat.cached and repeat.refuted
        assert repeat.winning_prover == "refuter"
        assert refuter.calls == 1
        # ...and survives a persistent store round trip.
        key = "refuter:1;later:1"
        store = PersistentCacheStore(tmp_path, key)
        store.save(portfolio.proof_cache.snapshot())
        entries = json.loads(store.path.read_text())["entries"]
        assert [verdict for _, verdict in entries] == [
            {"proved": False, "refuted": True, "prover": "refuter"}
        ]
        (loaded,) = PersistentCacheStore(tmp_path, key).load().values()
        assert loaded == CachedVerdict(False, True, "refuter", "disk")

    def test_only_and_without_reject_unknown_provers(self):
        portfolio = default_portfolio()
        with pytest.raises(ValueError, match="fol"):
            portfolio.only("fol")
        with pytest.raises(ValueError, match="spass"):
            portfolio.without("sets", "spass")
        assert portfolio.without("sets").prover_names == ["smt"]

    def test_unprovable_sequent_reports_all_attempts(self):
        portfolio = default_portfolio()
        result = portfolio.dispatch(task(["x <= y"], "y <= x"))
        assert not result.proved
        assert len(result.attempts) == len(portfolio.prover_names)

    def test_scaled_timeouts(self):
        portfolio = default_portfolio().scaled(0.5)
        assert portfolio.entries[0].timeout == pytest.approx(
            default_portfolio().entries[0].timeout * 0.5
        )
