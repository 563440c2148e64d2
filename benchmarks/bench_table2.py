"""Benchmark E2: regenerate Table 2.

Table 2 compares, per data structure, how many methods and sequents verify
*without* the integrated proof language constructs against the fully
annotated program.  The expected shape (the paper's headline result): the
simple structures verify fully either way, while the complex structures lose
methods/sequents when the proof constructs are stripped.
"""

from __future__ import annotations

import pytest

from conftest import make_engine
from repro.suite import all_structures
from repro.provers.result import PortfolioStatistics
from repro.verifier.report import Table2Row, format_performance, format_table2

_ROWS: list[Table2Row] = []
_PORTFOLIO_TOTALS = PortfolioStatistics()


@pytest.mark.parametrize(
    "structure", all_structures(), ids=lambda cls: cls.name.replace(" ", "")
)
def test_table2_row(structure, benchmark):
    """Verify one structure with and without proof constructs."""
    engine = make_engine()

    def verify_both():
        without = engine.verify_class(structure, strip_proofs=True)
        with_proofs = engine.verify_class(structure, strip_proofs=False)
        return without, with_proofs

    without, with_proofs = benchmark.pedantic(verify_both, rounds=1, iterations=1)
    _PORTFOLIO_TOTALS.merge(engine.portfolio.statistics)
    statistics = engine.portfolio.statistics
    benchmark.extra_info["proof_cache_hits"] = statistics.cache_hits
    benchmark.extra_info["proof_cache_misses"] = statistics.cache_misses
    _ROWS.append(
        Table2Row(
            class_name=structure.name,
            methods_without=without.methods_verified,
            methods_total=without.methods_total,
            sequents_without=without.sequents_proved,
            sequents_total_without=without.sequents_total,
            methods_with=with_proofs.methods_verified,
            sequents_with=with_proofs.sequents_proved,
            sequents_total_with=with_proofs.sequents_total,
        )
    )
    # The paper's qualitative claim: adding proof language constructs never
    # loses proved sequents and (for the annotated structures) gains some.
    assert with_proofs.sequents_proved >= without.sequents_proved
    assert with_proofs.methods_verified >= without.methods_verified


def test_table2_print():
    """Print the assembled Table 2."""
    print("\n\nTable 2 -- effect of proof language constructs\n")
    print(format_table2(_ROWS))
    print()
    print(format_performance(_PORTFOLIO_TOTALS))
    assert len(_ROWS) <= len(all_structures())
