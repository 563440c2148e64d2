"""The benchmark suite: construction, statistics and verification.

Full verification of every structure is exercised by the benchmarks
(``benchmarks/bench_table1.py`` / ``bench_table2.py``); the tests here keep
the default ``pytest`` run fast by fully verifying the quick structures and
only spot-checking representative methods of the heavier ones.
"""

import pytest

from repro.provers.dispatch import default_portfolio
from repro.suite import STRUCTURE_ORDER, all_structures, structure_by_name
from repro.suite.array_list import build_array_list
from repro.suite.linked_structures import build_circular_list, build_linked_list
from repro.verifier import VerificationEngine, class_statistics

#: Proved/total sequents of the catalogue classes that do not fully verify
#: at timeout scale 0.4 (the other five classes prove every sequent).  A
#: floor, not an exact count: a change that proves more passes, one that
#: silently loses a proof fails.
PROVED_FLOORS = {
    "Hash Table": (41, 50),
    "Priority Queue": (36, 37),
    "Binary Tree": (46, 48),
}
CATALOGUE_PROVED_FLOOR = 276
CATALOGUE_SEQUENTS = 288


class TestCatalogue:
    def test_all_eight_structures_present(self):
        structures = all_structures()
        assert len(structures) == 8
        assert [cls.name for cls in structures] == list(STRUCTURE_ORDER)

    def test_lookup_by_name(self):
        assert structure_by_name("linked list").name == "Linked List"
        assert structure_by_name("HashTable").name == "Hash Table"
        with pytest.raises(KeyError):
            structure_by_name("skip list")

    def test_every_structure_produces_sequents(self):
        engine = VerificationEngine()
        for cls in all_structures():
            total = sum(
                len(engine.method_sequents(cls, method)) for method in cls.methods
            )
            assert total > 0, cls.name

    def test_construct_usage_shape_matches_paper(self):
        """Complex structures use the proof language, simple ones barely do."""
        by_name = {cls.name: class_statistics(cls) for cls in all_structures()}
        assert by_name["Linked List"].total_proof_statements == 0
        assert by_name["Cursor List"].total_proof_statements == 0
        assert by_name["Hash Table"].total_proof_statements >= 5
        assert by_name["Hash Table"].notes_with_from >= 5
        assert by_name["Priority Queue"].construct("induct") == 1
        assert by_name["Array List"].construct("witness") == 1

    def test_spec_variable_counts(self):
        for cls in all_structures():
            stats = class_statistics(cls)
            assert stats.spec_vars >= 1
            assert stats.invariants >= 1


class TestVerification:
    def test_linked_list_verifies_fully(self):
        engine = VerificationEngine()
        report = engine.verify_class(build_linked_list())
        assert report.verified, [
            (m.method_name, o.sequent.label)
            for m in report.methods
            for o in m.failed_sequents
        ]
        # Both the SMT-lite prover and the set reasoner contribute.
        assert set(report.provers_used) >= {"smt", "sets"}

    def test_circular_list_verifies_fully(self):
        engine = VerificationEngine()
        report = engine.verify_class(build_circular_list())
        assert report.verified

    def test_array_list_witness_method(self):
        array_list = build_array_list()
        engine = VerificationEngine()
        report = engine.verify_method(array_list, array_list.method("whereIs"))
        assert report.verified

    def test_array_list_get(self):
        array_list = build_array_list()
        engine = VerificationEngine()
        report = engine.verify_method(array_list, array_list.method("get"))
        assert report.verified

    def test_stripping_proofs_never_increases_proved_sequents(self):
        engine = VerificationEngine()
        structure = build_circular_list()
        with_proofs = engine.verify_class(structure)
        without = engine.verify_class(structure, strip_proofs=True)
        assert with_proofs.sequents_proved >= without.sequents_proved


@pytest.mark.slow
def test_catalogue_proved_counts_never_drop():
    """The nightly correctness ratchet on Table 1's proved counts."""
    engine = VerificationEngine(default_portfolio().scaled(0.4))
    counts = {}
    for cls in all_structures():
        report = engine.verify_class(cls)
        counts[cls.name] = (report.sequents_proved, report.sequents_total)
    for name, (proved, total) in counts.items():
        floor, expected_total = PROVED_FLOORS.get(name, (total, total))
        assert total == expected_total, (name, counts)
        assert proved >= floor, (name, counts)
    assert sum(total for _, total in counts.values()) == CATALOGUE_SEQUENTS
    assert sum(proved for proved, _ in counts.values()) >= CATALOGUE_PROVED_FLOOR
