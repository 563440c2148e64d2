"""Construct counting for Table 1.

Table 1 of the paper reports, per data structure: the number of Java
methods and statements, the verification time, the number of specification
variables, local specification variables, data structure invariants and
loop invariants, and the number of uses of each integrated proof language
construct (with the ``note`` column also reporting how many notes carry a
``from`` clause).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.ast import (
    ClassModel,
    Stmt,
    While,
    count_proof_constructs,
    count_statements,
)
from ..proofs.constructs import PROOF_CONSTRUCT_NAMES

__all__ = [
    "ClassStatistics",
    "class_statistics",
    "TABLE1_CONSTRUCT_ORDER",
    "LATENCY_BUCKETS",
    "LatencyHistogram",
]

#: Proof construct columns in the order Table 1 lists them.
TABLE1_CONSTRUCT_ORDER = (
    "note",
    "localize",
    "assuming",
    "mp",
    "pickAny",
    "instantiate",
    "witness",
    "pickWitness",
    "cases",
    "induct",
)


@dataclass
class ClassStatistics:
    """The static (non-timing) columns of one Table 1 row."""

    class_name: str
    methods: int = 0
    statements: int = 0
    spec_vars: int = 0
    local_spec_vars: int = 0
    invariants: int = 0
    loop_invariants: int = 0
    construct_counts: dict[str, int] = field(default_factory=dict)
    notes_with_from: int = 0

    def construct(self, name: str) -> int:
        return self.construct_counts.get(name, 0)

    @property
    def total_proof_statements(self) -> int:
        return sum(
            count
            for name, count in self.construct_counts.items()
            if name in PROOF_CONSTRUCT_NAMES
        )


#: Upper bucket bounds (seconds) for latency histograms -- log-spaced from
#: "answered from a warm cache" to "prover near its timeout".
LATENCY_BUCKETS = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


class LatencyHistogram:
    """A tiny fixed-bucket histogram of observed latencies (seconds).

    The daemon keeps one for its watch subscriptions' edit-to-verdict
    latency (the ``metrics`` op ships :meth:`as_dict`).  Buckets are
    cumulative-free counts per band:
    ``counts[i]`` is the number of samples in
    ``(LATENCY_BUCKETS[i-1], LATENCY_BUCKETS[i]]``, with one overflow
    band at the end.
    """

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKETS) + 1)
        self.count = 0
        self.total = 0.0
        self.peak = 0.0

    def add(self, seconds: float) -> None:
        for index, bound in enumerate(LATENCY_BUCKETS):
            if seconds <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += seconds
        self.peak = max(self.peak, seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) from the buckets.

        Linear interpolation inside the winning band, which is as precise
        as a fixed-bucket histogram gets: exact enough for p50/p95/p99
        load reports, and cheap enough to keep per op.  The
        overflow band is clamped to the observed ``peak``.
        """
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        lower = 0.0
        for index, bound in enumerate(LATENCY_BUCKETS):
            band = self.counts[index]
            if seen + band >= rank:
                if not band:
                    return min(lower, self.peak)
                fraction = (rank - seen) / band
                # Clamp to the observed peak: interpolation must not
                # report a quantile above the largest sample.
                return min(lower + fraction * (bound - lower), self.peak)
            seen += band
            lower = bound
        return self.peak

    def as_dict(self) -> dict:
        """JSON-ready snapshot: summary numbers plus per-band counts."""
        bands = [[bound, count] for bound, count in zip(LATENCY_BUCKETS, self.counts)]
        bands.append(["inf", self.counts[-1]])
        return {
            "count": self.count,
            "mean": round(self.mean, 6),
            "max": round(self.peak, 6),
            "p50": round(self.percentile(0.50), 6),
            "p95": round(self.percentile(0.95), 6),
            "p99": round(self.percentile(0.99), 6),
            "buckets": bands,
        }


def _count_loops(statements: tuple[Stmt, ...]) -> int:
    count = 0
    for statement in statements:
        if isinstance(statement, While):
            count += 1
        count += _count_loops(statement.substatements())
    return count


def class_statistics(cls: ClassModel) -> ClassStatistics:
    """Compute the static Table 1 columns for one data structure."""
    stats = ClassStatistics(class_name=cls.name)
    stats.methods = len(cls.methods)
    stats.spec_vars = len(cls.spec_vars)
    stats.local_spec_vars = len(cls.ghost_vars)
    stats.invariants = len(cls.invariants)
    for method in cls.methods:
        stats.statements += count_statements(method)
        stats.loop_invariants += _count_loops(method.body)
        for name, count in count_proof_constructs(method).items():
            if name == "note_with_from":
                stats.notes_with_from += count
            else:
                stats.construct_counts[name] = (
                    stats.construct_counts.get(name, 0) + count
                )
    return stats
