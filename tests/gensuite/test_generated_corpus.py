"""Tier-1 seeded corpus: generation, registration, and the full oracle.

The corpus here is fixed (``CORPUS_COUNT`` classes from ``CORPUS_SEED``),
so this file is deterministic; the open-ended exploration of the same
generator/oracle pair lives in ``test_deep_fuzz.py`` (nightly).
"""

from __future__ import annotations

import pytest
from oracle import CORPUS_COUNT, CORPUS_SEED, make_engine, run_oracle

from repro.suite.catalog import (
    cost_hint,
    registered_structures,
    structure_by_name,
    unregister_structure,
)
from repro.suite.generate import (
    FAMILIES,
    generate_class,
    generate_corpus,
    register_corpus,
)


@pytest.fixture()
def clean_registry():
    yield
    unregister_structure()


def corpus():
    return generate_corpus(CORPUS_COUNT, seed=CORPUS_SEED)


def test_corpus_covers_both_families_at_acceptance_size():
    classes = corpus()
    assert len(classes) >= 20
    by_family = {family: 0 for family in FAMILIES}
    for cls in classes:
        by_family[cls.name.split("-")[1]] += 1
    assert all(count >= 10 for count in by_family.values()), by_family


def test_generation_is_deterministic():
    first, second = corpus(), corpus()
    for a, b in zip(first, second):
        assert a.name == b.name
        assert [m.name for m in a.methods] == [m.name for m in b.methods]
        # Formulas are hash-consed: deterministic regeneration means the
        # *same interned objects*, not merely equal ones.
        for inv_a, inv_b in zip(a.invariants, b.invariants):
            assert inv_a.formula is inv_b.formula
        for m_a, m_b in zip(a.methods, b.methods):
            assert m_a.contract.requires is m_b.contract.requires
            assert m_a.contract.ensures is m_b.contract.ensures


def test_drop_methods_shrinks_soundly():
    full = generate_class("arith", 5, size=3)
    victim = full.methods[0].name
    shrunk = generate_class("arith", 5, size=3, drop_methods=(victim,))
    assert [m.name for m in shrunk.methods] == [
        m.name for m in full.methods if m.name != victim
    ]
    with pytest.raises(ValueError):
        generate_class("arith", 5, size=3, drop_methods=("no_such_method",))
    with pytest.raises(ValueError):
        generate_class("nope", 0)


def test_registered_corpus_is_first_class(clean_registry):
    classes = register_corpus(corpus())
    assert len(registered_structures()) == len(classes)
    # Name resolution, the same path the CLI / daemon 'verify' op takes
    # (case- and space-insensitive, like the paper catalogue).
    assert structure_by_name("Gen-arith-0") is classes[0]
    assert structure_by_name("gen-struct-1") is classes[1]
    # Unknown classes price at the cost model's default rung.
    assert cost_hint("Gen-arith-0") == cost_hint("never-registered")
    with pytest.raises(ValueError):
        register_corpus(classes[:1])  # duplicate registration
    register_corpus(classes[:1], replace=True)
    unregister_structure("Gen-arith-0")
    with pytest.raises(KeyError):
        structure_by_name("Gen-arith-0")


def test_corpus_passes_full_differential_oracle(tmp_path, clean_registry):
    """The acceptance check: >= 20 generated classes, both families,
    bit-identical verdicts across jobs/cache/warm configurations, and
    evaluator agreement on the quantifier-free fragment."""
    classes = register_corpus(corpus())
    facts = run_oracle(classes, tmp_path / "cache")
    assert facts["classes"] >= 20
    assert set(facts["per_family_sequents"]) == {"arith", "struct"}
    assert all(count > 0 for count in facts["per_family_sequents"].values())
    assert facts["evaluator_checked"] > 0
    assert facts["warm_hits"]["disk"] > 0


def test_suite_scheduler_prices_generated_classes_at_default(clean_registry):
    """Generated classes flow through the cost model like any unknown
    class: the suite plan records them at the 'default' rung (they
    graduate to 'measured' once a warm store has seen them)."""
    classes = register_corpus(corpus()[:4])
    engine = make_engine(jobs=2)
    engine.verify_suite(list(classes))
    stats = engine.last_run
    engine.close()
    assert stats is not None
    sources = {cls.class_name: cls.hint_source for cls in stats.classes}
    assert set(sources) == {cls.name for cls in classes}
    assert set(sources.values()) == {"default"}
