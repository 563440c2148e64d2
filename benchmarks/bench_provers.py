"""Prover micro-benchmarks.

These measure the individual reasoning systems of the portfolio on
representative sequent families drawn from the data-structure proofs:
ground arithmetic + equality (SMT-lite), quantified heap facts with
function updates (SMT-lite with instantiation) and cardinality reasoning
(the BAPA-style set reasoner).  They are the reproduction's counterpart of
the per-prover behaviour the paper describes qualitatively in Section 6.
"""

from __future__ import annotations

from repro.logic import INT, OBJ, map_of, set_of
from repro.logic.parser import parse_formula
from repro.provers import ProofTask, SetCardinalityProver, SmtProver

_ENV = {
    "x": INT,
    "y": INT,
    "z": INT,
    "i": INT,
    "size": INT,
    "csize": INT,
    "old_csize": INT,
    "a": OBJ,
    "b": OBJ,
    "n": OBJ,
    "elements": map_of(INT, OBJ),
    "next": map_of(OBJ, OBJ),
    "nodes": set_of(OBJ),
    "old_nodes": set_of(OBJ),
    "S": set_of(OBJ),
    "T": set_of(OBJ),
}


def _task(assumptions, goal):
    return ProofTask(
        tuple(
            (f"h{i}", parse_formula(text, _ENV))
            for i, text in enumerate(assumptions)
        ),
        parse_formula(goal, _ENV),
    )


_SMT_GROUND = _task(["x <= y", "y < z", "a = b"], "x < z & next[a] = next[b]")
_SMT_QUANT = _task(
    [
        "ALL k : int. 0 <= k & k < size --> elements[k] ~= null",
        "0 <= i",
        "i < size",
    ],
    "elements[i := elements[i]][i] ~= null",
)
_SETS_CARD = _task(
    [
        "csize = card nodes",
        "old_nodes = nodes",
        "~(n in nodes)",
        "old_csize = csize",
    ],
    "card (nodes Un {n}) = old_csize + 1",
)


def test_smt_ground_arithmetic_equality(benchmark):
    prover = SmtProver()
    result = benchmark(lambda: prover.prove(_SMT_GROUND, timeout=10.0))
    assert result.is_proved


def test_smt_quantified_array_facts(benchmark):
    prover = SmtProver()
    result = benchmark(lambda: prover.prove(_SMT_QUANT, timeout=10.0))
    assert result.is_proved


def test_sets_cardinality_reasoning(benchmark):
    prover = SetCardinalityProver()
    result = benchmark(lambda: prover.prove(_SETS_CARD, timeout=10.0))
    assert result.is_proved
