"""Tests for the sequent-level proof cache and its dispatcher integration."""

from __future__ import annotations

from repro.logic import builder as b
from repro.logic.terms import Var
from repro.provers.cache import ProofCache, task_fingerprint, term_fingerprint
from repro.provers.dispatch import (
    PortfolioEntry,
    ProverPortfolio,
    default_portfolio,
)
from repro.provers.interface import Prover
from repro.provers.result import Budget, Outcome, ProofTask, ProverResult
from repro.suite import all_structures
from repro.verifier.engine import VerificationEngine


def _lt(left: str, right: str):
    return b.Lt(b.IntVar(left), b.IntVar(right))


class TestFingerprints:
    def test_alpha_invariance(self):
        one = b.ForAll([b.IntVar("i")], b.Lt(b.IntVar("i"), b.IntVar("n")))
        two = b.ForAll([b.IntVar("j")], b.Lt(b.IntVar("j"), b.IntVar("n")))
        assert term_fingerprint(one) == term_fingerprint(two)

    def test_free_variables_distinguish(self):
        one = b.ForAll([b.IntVar("i")], b.Lt(b.IntVar("i"), b.IntVar("n")))
        other = b.ForAll([b.IntVar("i")], b.Lt(b.IntVar("i"), b.IntVar("m")))
        assert term_fingerprint(one) != term_fingerprint(other)

    def test_shadowing_respected(self):
        inner_shadow = b.ForAll(
            [b.IntVar("i")],
            b.Or(
                b.Lt(b.IntVar("i"), b.Int(0)),
                b.ForAll([b.IntVar("i")], b.Lt(b.IntVar("i"), b.Int(1))),
            ),
        )
        inner_fresh = b.ForAll(
            [b.IntVar("i")],
            b.Or(
                b.Lt(b.IntVar("i"), b.Int(0)),
                b.ForAll([b.IntVar("k")], b.Lt(b.IntVar("k"), b.Int(1))),
            ),
        )
        assert term_fingerprint(inner_shadow) == term_fingerprint(inner_fresh)

    def test_distinct_binder_references_distinguished(self):
        # Regression: with absolute de Bruijn levels plus the closed-subterm
        # env reset, `ALL a. ALL b. Q(b)` and `ALL a. ALL b. Q(a)` collided
        # (the reset renumbered the inner binder from level 0, aliasing the
        # outer binder).  Relative indices keep them apart.
        from repro.logic.sorts import BOOL, OBJ
        from repro.logic.terms import App, Binder, Var

        def nested(body_var: str):
            return Binder(
                "forall",
                (("a", OBJ),),
                Binder(
                    "forall",
                    (("b", OBJ),),
                    App("Q", (Var(body_var, OBJ),), BOOL),
                ),
            )

        assert term_fingerprint(nested("b")) != term_fingerprint(nested("a"))
        renamed = Binder(
            "forall",
            (("x", OBJ),),
            Binder("forall", (("y", OBJ),), App("Q", (Var("x", OBJ),), BOOL)),
        )
        assert term_fingerprint(nested("a")) == term_fingerprint(renamed)

    def test_task_key_ignores_assumption_names_and_order(self):
        goal = _lt("x", "z")
        one = ProofTask((("h1", _lt("x", "y")), ("h2", _lt("y", "z"))), goal)
        two = ProofTask((("b", _lt("y", "z")), ("a", _lt("x", "y"))), goal)
        assert task_fingerprint(one) == task_fingerprint(two)

    def test_task_key_is_the_repr_sorted_set_of_hypothesis_fingerprints(self):
        def spelled_out(task):
            hypotheses = {term_fingerprint(f) for _, f in task.assumptions}
            return (tuple(sorted(hypotheses, key=repr)), term_fingerprint(task.goal))

        k, j = b.IntVar("k"), b.IntVar("j")
        # Alpha-equivalent and repeated hypotheses fold into one.
        task = ProofTask(
            (
                ("a", b.ForAll([k], b.Le(k, b.IntVar("x")))),
                ("b", _lt("y", "z")),
                ("c", b.ForAll([j], b.Le(j, b.IntVar("x")))),
                ("d", _lt("y", "z")),
            ),
            _lt("x", "z"),
        )
        assert len(task_fingerprint(task)[0]) == 2
        tasks = [task]
        engine = VerificationEngine()
        for cls in all_structures():
            for method in cls.methods:
                sequents = engine.method_sequents(cls, method)
                tasks += [engine.task_for(sequent) for sequent in sequents]
        assert [task_fingerprint(t) for t in tasks] == [spelled_out(t) for t in tasks]

    def test_task_key_distinguishes_goals(self):
        assumptions = (("h", _lt("x", "y")),)
        assert task_fingerprint(
            ProofTask(assumptions, _lt("x", "y"))
        ) != task_fingerprint(ProofTask(assumptions, _lt("y", "x")))


class _CountingProver(Prover):
    """Proves everything, counting invocations."""

    name = "counting"

    def __init__(self) -> None:
        self.calls = 0

    def attempt(self, task: ProofTask, budget: Budget) -> ProverResult:
        self.calls += 1
        return ProverResult(Outcome.PROVED, reason="stub")


class TestDispatchCaching:
    def test_second_dispatch_is_cached(self):
        prover = _CountingProver()
        portfolio = ProverPortfolio(
            [PortfolioEntry(prover, 1.0)], proof_cache=ProofCache()
        )
        task = ProofTask((("h", _lt("x", "y")),), _lt("x", "y"))
        first = portfolio.dispatch(task)
        second = portfolio.dispatch(task)
        assert first.proved and second.proved
        assert not first.cached and second.cached
        assert second.winning_prover == "counting"
        assert prover.calls == 1
        stats = portfolio.statistics
        assert stats.cache_hits == 1 and stats.cache_misses == 1
        assert stats.sequents_attempted == 2
        assert stats.sequents_proved == 2

    def test_alpha_variant_sequent_hits_cache(self):
        prover = _CountingProver()
        portfolio = ProverPortfolio(
            [PortfolioEntry(prover, 1.0)], proof_cache=ProofCache()
        )
        i, j, n = b.IntVar("i"), b.IntVar("j"), b.IntVar("n")
        portfolio.dispatch(
            ProofTask((("inv", b.ForAll([i], b.Lt(i, n))),), b.Lt(b.Int(0), n))
        )
        result = portfolio.dispatch(
            ProofTask((("other", b.ForAll([j], b.Lt(j, n))),), b.Lt(b.Int(0), n))
        )
        assert result.cached
        assert prover.calls == 1

    def test_no_cache_means_no_counters(self):
        prover = _CountingProver()
        portfolio = ProverPortfolio([PortfolioEntry(prover, 1.0)])
        task = ProofTask((), _lt("x", "y"))
        portfolio.dispatch(task)
        portfolio.dispatch(task)
        assert prover.calls == 2
        assert portfolio.statistics.cache_lookups == 0

    def test_restricted_copies_get_fresh_caches(self):
        portfolio = default_portfolio()
        assert portfolio.proof_cache is not None
        scaled = portfolio.scaled(0.5)
        assert scaled.proof_cache is not None
        assert scaled.proof_cache is not portfolio.proof_cache
        only = portfolio.only("smt")
        assert only.proof_cache is not None
        assert only.proof_cache is not portfolio.proof_cache
        uncached = default_portfolio(with_cache=False)
        assert uncached.proof_cache is None
        assert uncached.scaled(0.5).proof_cache is None


class TestEngineIntegration:
    def test_engine_attaches_cache_by_default(self):
        engine = VerificationEngine()
        assert engine.portfolio.proof_cache is not None

    def test_engine_can_disable_cache(self):
        engine = VerificationEngine(use_proof_cache=False)
        assert engine.portfolio.proof_cache is None

    def test_cache_never_changes_verdicts(self):
        """Same per-sequent proved/refuted verdicts with cache on and off."""
        structures = {
            cls.name: cls
            for cls in all_structures()
            if cls.name in ("Array List", "Linked List")
        }
        assert len(structures) == 2
        for cls in structures.values():
            verdicts = {}
            for use_cache in (True, False):
                engine = VerificationEngine(
                    default_portfolio(with_cache=use_cache).scaled(0.25),
                    use_proof_cache=use_cache,
                )
                report = engine.verify_class(cls)
                verdicts[use_cache] = [
                    (
                        method.method_name,
                        outcome.sequent.label,
                        outcome.dispatch.proved,
                        outcome.dispatch.refuted,
                    )
                    for method in report.methods
                    for outcome in method.outcomes
                ]
            assert verdicts[True] == verdicts[False]
