"""Indexed quantifier instantiation against the rescanning reference.

``InstantiationEngine.saturate`` walks each ground formula once into a
term index; :mod:`quant_reference` keeps the rounds that rescanned every
formula for every variable.  Both must produce the same instances, in the
same order, and count the same ``total_instances`` -- on every catalogue
and fuzz-regression sequent smt receives, on Hypothesis-generated
ground/axiom sets (with tight caps, so every limit is hit), and, in the
slow sweep, on the 300-class generated corpus.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.loader import load_class_models
from repro.logic import builder as b
from repro.logic.sorts import INT, OBJ, map_of
from repro.logic.terms import Var
from repro.provers.quant import InstantiationEngine
from repro.provers.rewriter import prepare
from repro.provers.smt import SmtProver
from repro.suite import all_structures
from repro.suite.generate import generate_corpus
from repro.verifier.engine import VerificationEngine

from quant_reference import ReferenceInstantiationEngine

REGRESSIONS = sorted(
    (Path(__file__).parent.parent / "gensuite" / "regressions").glob("*.py")
)


def assert_same_instances(axioms, ground, priority, **limits):
    runs = []
    for engine_class in (ReferenceInstantiationEngine, InstantiationEngine):
        engine = engine_class(**limits)
        for axiom in axioms:
            engine.add_axiom(axiom)
        runs.append((engine.saturate(ground, priority), engine.total_instances))
    (expected, expected_total), (actual, actual_total) = runs
    assert actual == expected
    assert all(new is old for new, old in zip(actual, expected))
    assert actual_total == expected_total


def check_classes(classes) -> int:
    """Hold every prepared smt task of ``classes`` to the reference, with
    smt's own instantiation limits; returns the number of tasks."""
    smt = SmtProver()
    limits = dict(
        max_rounds=smt.instantiation_rounds,
        max_candidates_per_var=smt.max_candidates_per_var,
    )
    engine = VerificationEngine(use_proof_cache=False)
    checked = 0
    for cls in classes:
        for method in cls.methods:
            for sequent in engine.method_sequents(cls, method):
                prepared = prepare(engine.task_for(sequent))
                if prepared.trivially_proved:
                    continue
                assert_same_instances(
                    prepared.axioms, prepared.ground, prepared.goal_hint, **limits
                )
                checked += 1
    return checked


@pytest.mark.parametrize(
    "cls", all_structures(), ids=lambda cls: cls.name.replace(" ", "")
)
def test_catalogue_instances_match_reference(cls):
    assert check_classes([cls]) > 0


@pytest.mark.parametrize("path", REGRESSIONS, ids=[path.stem for path in REGRESSIONS])
def test_regression_instances_match_reference(path):
    assert check_classes(load_class_models(path)) > 0


@pytest.mark.slow
def test_generated_corpus_instances_match_reference():
    # The corpus ``perfbench/run.py --workload corpus-cold --seed 1
    # --seconds 10`` verifies.
    assert check_classes(generate_corpus(300, seed=1_100_000, size=10)) > 0


# -- Hypothesis: random ground facts and axioms -----------------------------------

G = Var("g", map_of(INT, INT))
KEY = Var("key", map_of(OBJ, INT))
NEXT = Var("next", map_of(OBJ, OBJ))
ELEMS = Var("elems", map_of(INT, OBJ))
K = b.IntVar("k")
P = b.ObjVar("p")


def terms(bound: tuple[Var, ...]):
    """``(int_terms, obj_terms)`` strategies that may use ``bound``."""
    int_leaves = st.sampled_from(
        [b.Int(0), b.Int(1), b.IntVar("x"), b.IntVar("y")]
        + [var for var in bound if var.sort == INT]
    )
    obj_leaves = st.sampled_from(
        [b.ObjVar("a"), b.ObjVar("c")] + [var for var in bound if var.sort == OBJ]
    )
    obj_reads = st.one_of(
        obj_leaves,
        obj_leaves.map(lambda o: b.Select(NEXT, o)),
        int_leaves.map(lambda t: b.Select(ELEMS, t)),
    )
    int_terms = st.recursive(
        st.one_of(int_leaves, obj_reads.map(lambda o: b.Select(KEY, o))),
        lambda children: st.one_of(
            children.map(lambda t: b.Select(G, t)),
            st.tuples(children, children).map(lambda p: b.Apply("f", p, INT)),
            st.tuples(children, children).map(lambda p: b.Plus(*p)),
        ),
        max_leaves=4,
    )
    obj_terms = st.recursive(
        obj_reads,
        lambda children: st.one_of(
            children.map(lambda o: b.Select(NEXT, o)),
            int_terms.map(lambda t: b.Select(ELEMS, t)),
        ),
        max_leaves=3,
    )
    return int_terms, obj_terms


def formulas(bound: tuple[Var, ...] = ()):
    int_terms, obj_terms = terms(bound)
    atoms = st.one_of(
        st.tuples(int_terms, int_terms).map(lambda p: b.Le(*p)),
        st.tuples(int_terms, int_terms).map(lambda p: b.Eq(*p)),
        st.tuples(obj_terms, obj_terms).map(lambda p: b.Eq(*p)),
    )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            children.map(b.Not),
            st.tuples(children, children).map(lambda p: b.Or(*p)),
            st.tuples(children, children).map(lambda p: b.Implies(*p)),
        ),
        max_leaves=4,
    )


axioms = st.sampled_from([(K,), (P,), (K, P)]).flatmap(
    lambda params: formulas(params).map(lambda body: b.ForAll(list(params), body))
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    ground=st.lists(formulas(), min_size=1, max_size=8),
    priority=st.lists(formulas(), max_size=3),
    axiom_list=st.lists(axioms, min_size=1, max_size=3),
    rounds=st.integers(1, 3),
    per_var=st.integers(1, 8),
    per_round=st.integers(1, 100),
    total=st.integers(1, 300),
)
def test_generated_instances_match_reference(
    ground, priority, axiom_list, rounds, per_var, per_round, total
):
    assert_same_instances(
        axiom_list,
        ground,
        priority,
        max_rounds=rounds,
        max_candidates_per_var=per_var,
        max_instances_per_round=per_round,
        max_total_instances=total,
    )
