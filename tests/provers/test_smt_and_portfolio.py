"""Tests for the SMT-lite prover, the specialised provers and the dispatcher.

The SMT cases are representative of the sequents that arise from the
benchmark data structures: ground arithmetic/equality reasoning, reasoning
about function updates (field and array assignment), quantified invariants
with instantiation, comprehension-defined specification variables, and
existentially quantified goals resolved by a witness in the assumption base.
"""

import pytest

from repro.logic import BOOL, INT, OBJ, fun_of, map_of, set_of, tuple_of
from repro.logic.parser import parse_formula
from repro.provers import (
    FiniteModelFinder,
    FolProver,
    Outcome,
    ProofTask,
    SetCardinalityProver,
    SmtProver,
    default_portfolio,
)

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


class TestFolProver:
    def test_modus_ponens_chain(self):
        result = FolProver().prove(
            task(
                ["ALL v : obj. p(v) --> q(v)", "ALL v : obj. q(v) --> r(v)", "p(a)"],
                "r(a)",
            ),
            timeout=10.0,
        )
        assert result.is_proved

    def test_existential_goal(self):
        result = FolProver().prove(task(["p(a)"], "EX v : obj. p(v)"), timeout=10.0)
        assert result.is_proved

    def test_does_not_prove_invalid(self):
        result = FolProver().prove(task(["p(a)"], "q(a)"), timeout=5.0)
        assert not result.is_proved


class TestModelFinder:
    def test_refutes_invalid_sequent(self):
        result = FiniteModelFinder().prove(task(["x <= y"], "y <= x"), timeout=5.0)
        assert result.outcome is Outcome.REFUTED
        assert result.countermodel is not None

    def test_declines_uninterpreted_symbols(self):
        result = FiniteModelFinder().prove(task(["p(a)"], "q(a)"), timeout=5.0)
        assert result.outcome is Outcome.UNKNOWN


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

    def test_default_line_up_leaves_fol_opt_in(self):
        assert default_portfolio().prover_names == ["smt", "sets"]
        opted_in = default_portfolio(fol_timeout=2.0, model_finder_timeout=1.0)
        assert opted_in.prover_names == ["smt", "sets", "fol", "model-finder"]
        assert opted_in.only("fol").prover_names == ["fol"]

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
