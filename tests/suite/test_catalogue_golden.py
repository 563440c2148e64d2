"""Per-sequent golden of the catalogue: verdict, refutation, winner and
every prover attempt.

``PROVED_FLOORS`` in ``test_structures.py`` only bounds proved counts per
class; this golden pins every sequent's outcome, so a change that proves
one sequent and loses another (or moves a win from smt to sets) fails.
Each outcome is keyed by ``(class, method, position, label)`` because a
label such as ``NullCheck`` can repeat within one method.  The last column
lists each attempt's ``[prover, outcome, reason]``; smt's reason carries
its theory-iteration, instantiation and conflict counts, so a change meant
to speed smt up without changing its search must leave it as it is.  A
sequent answered from the proof cache (a duplicate of an earlier one) has
no attempts.

A change that means to move verdicts regenerates the file and says why::

    PYTHONPATH=src python tests/suite/test_catalogue_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.provers.dispatch import default_portfolio
from repro.verifier import VerificationEngine

GOLDEN = Path(__file__).with_name("catalogue_golden.json")

#: The golden is the same at both scales: the slowest smt attempt on the
#: catalogue takes a fraction of the 0.4 budget.
GOLDEN_SCALE = 0.4


def catalogue_outcomes(scale: float) -> list[list]:
    """``[class, method, position, label, proved, refuted, prover,
    attempts]`` for every catalogue sequent, in catalogue order."""
    engine = VerificationEngine(default_portfolio().scaled(scale))
    rows = []
    for report in engine.verify_suite():
        for method in report.methods:
            for position, outcome in enumerate(method.outcomes):
                rows.append(
                    [
                        report.class_name,
                        method.method_name,
                        position,
                        outcome.sequent.label,
                        outcome.proved,
                        outcome.dispatch.refuted,
                        outcome.prover,
                        [
                            [attempt.prover, attempt.outcome.value, attempt.reason]
                            for attempt in outcome.dispatch.attempts
                        ],
                    ]
                )
    return rows


def _by_key(rows: list[list]) -> dict[tuple, tuple]:
    return {tuple(row[:4]): tuple(row[4:]) for row in rows}


@pytest.mark.parametrize(
    "scale", [GOLDEN_SCALE, pytest.param(1.0, marks=pytest.mark.slow)]
)
def test_catalogue_matches_golden(scale):
    rows = catalogue_outcomes(scale)
    golden = _by_key(json.loads(GOLDEN.read_text()))
    actual = _by_key(rows)
    assert len(actual) == len(rows), "duplicate sequent key"
    assert actual.keys() == golden.keys()
    changed = {
        key: (golden[key], actual[key]) for key in golden if golden[key] != actual[key]
    }
    assert not changed, changed


if __name__ == "__main__":
    rows = catalogue_outcomes(GOLDEN_SCALE)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"wrote {len(rows)} outcomes to {GOLDEN}")
