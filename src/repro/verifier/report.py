"""Report generation: the paper's Table 1 and Table 2.

:func:`table1_rows` and :func:`table2_rows` compute the rows of the two
tables of Section 6 for a list of data structures; :func:`format_table`
renders them as aligned text.  The benchmark harness
(``benchmarks/bench_table1.py`` / ``bench_table2.py``) and the CLI both use
these functions, so the printed artifacts are identical in both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.ast import ClassModel
from ..provers.result import PortfolioStatistics
from .engine import ClassReport, VerificationEngine
from .stats import TABLE1_CONSTRUCT_ORDER, class_statistics

__all__ = [
    "Table1Row",
    "Table2Row",
    "table1_rows",
    "table2_rows",
    "format_table1",
    "format_table2",
    "format_table",
    "format_performance",
    "format_run",
    "format_verify",
    "format_verify_file",
    "format_metrics",
    "format_watch_event",
]


@dataclass
class Table1Row:
    """One data structure's row of Table 1.

    ``verification_time`` (the "Time (s)" column) is the class report's
    ``elapsed``: prover CPU seconds of the sequents the run dispatched,
    with cache hits counting 0.
    """

    class_name: str
    methods: int
    statements: int
    verification_time: float
    spec_vars: int
    local_spec_vars: int
    invariants: int
    loop_invariants: int
    notes: int
    notes_with_from: int
    construct_counts: dict[str, int] = field(default_factory=dict)
    verified: bool = True

    def cells(self) -> list[str]:
        row = [
            self.class_name,
            str(self.methods),
            str(self.statements),
            f"{self.verification_time:.1f}",
            str(self.spec_vars),
            str(self.local_spec_vars),
            str(self.invariants),
            str(self.loop_invariants),
            f"{self.notes} ({self.notes_with_from})",
        ]
        for name in TABLE1_CONSTRUCT_ORDER[1:]:
            row.append(str(self.construct_counts.get(name, 0)))
        return row


@dataclass
class Table2Row:
    """One data structure's row of Table 2."""

    class_name: str
    methods_without: int
    methods_total: int
    sequents_without: int
    sequents_total_without: int
    methods_with: int
    sequents_with: int
    sequents_total_with: int

    def cells(self) -> list[str]:
        return [
            self.class_name,
            f"{self.methods_without} of {self.methods_total}",
            f"{self.sequents_without} of {self.sequents_total_without}",
            str(self.methods_with),
            f"{self.sequents_with} of {self.sequents_total_with}",
        ]


TABLE1_HEADER = [
    "Data Structure",
    "Methods",
    "Statements",
    "Time (s)",
    "Spec Vars",
    "Local Spec Vars",
    "Invariants",
    "Loop Invs",
    "note (from)",
    "localize",
    "assuming",
    "mp",
    "pickAny",
    "instantiate",
    "witness",
    "pickWitness",
    "cases",
    "induct",
]

TABLE2_HEADER = [
    "Data Structure",
    "Methods Verified (no proof)",
    "Sequents Verified (no proof)",
    "Methods Verified (with proof)",
    "Sequents Verified (with proof)",
]


def table1_rows(
    classes: list[ClassModel], reports: list[ClassReport] | None = None
) -> list[Table1Row]:
    """Compute Table 1: construct counts plus (optionally) verification time.

    Pass the ``reports`` of a verification run (e.g. a suite-scheduled
    :meth:`~repro.verifier.engine.VerificationEngine.verify_suite`) to
    fill the timing/verified columns; without them the timing column is
    0 and the ``verified`` flag is left True.
    """
    by_name = {report.class_name: report for report in reports or ()}
    rows: list[Table1Row] = []
    for cls in classes:
        stats = class_statistics(cls)
        elapsed = 0.0
        verified = True
        if reports is not None:
            report = by_name[cls.name]
            elapsed = report.elapsed
            verified = report.verified
        rows.append(
            Table1Row(
                class_name=cls.name,
                methods=stats.methods,
                statements=stats.statements,
                verification_time=elapsed,
                spec_vars=stats.spec_vars,
                local_spec_vars=stats.local_spec_vars,
                invariants=stats.invariants,
                loop_invariants=stats.loop_invariants,
                notes=stats.construct("note"),
                notes_with_from=stats.notes_with_from,
                construct_counts=dict(stats.construct_counts),
                verified=verified,
            )
        )
    return rows


def table2_rows(
    classes: list[ClassModel], engine: VerificationEngine, run=None
) -> list[tuple[Table2Row, ClassReport, ClassReport]]:
    """Compute Table 2 by verifying each structure with and without proofs.

    ``run``, a :class:`~repro.verifier.pipeline.RunRecord`, gets every
    verification call's record merged into it when given.
    """
    rows: list[tuple[Table2Row, ClassReport, ClassReport]] = []
    for cls in classes:
        without = engine.verify_class(cls, strip_proofs=True)
        if run is not None:
            run.merge(engine.last_run)
        with_proofs = engine.verify_class(cls, strip_proofs=False)
        if run is not None:
            run.merge(engine.last_run)
        rows.append(
            (
                Table2Row(
                    class_name=cls.name,
                    methods_without=without.methods_verified,
                    methods_total=without.methods_total,
                    sequents_without=without.sequents_proved,
                    sequents_total_without=without.sequents_total,
                    methods_with=with_proofs.methods_verified,
                    sequents_with=with_proofs.sequents_proved,
                    sequents_total_with=with_proofs.sequents_total,
                ),
                without,
                with_proofs,
            )
        )
    return rows


def format_table(header: list[str], rows: list[list[str]]) -> str:
    """Render a table as aligned plain text."""
    widths = [len(cell) for cell in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(header)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_table1(rows: list[Table1Row]) -> str:
    """Render Table 1."""
    return format_table(TABLE1_HEADER, [row.cells() for row in rows])


def format_performance(statistics: PortfolioStatistics) -> str:
    """Render a portfolio's cache counters, with the term-kernel
    allocation counters, as aligned text (from
    :meth:`~repro.provers.result.PortfolioStatistics.as_dict`)."""
    counters = statistics.as_dict()
    lines = [
        "Performance counters",
        f"  terms allocated     {counters['terms_allocated']}",
        f"  terms interned      {counters['terms_interned']} "
        f"(hit rate {counters['intern_hit_rate']:.1%})",
        f"  proof cache hits    {counters['proof_cache_hits']} "
        f"(memory {counters['proof_cache_hits_memory']}, "
        f"disk {counters['proof_cache_hits_disk']})",
        f"  proof cache misses  {counters['proof_cache_misses']} "
        f"(hit rate {counters['proof_cache_hit_rate']:.1%})",
        f"  sequents attempted  {counters['sequents_attempted']}",
        f"  sequents proved     {counters['sequents_proved']}",
    ]
    return "\n".join(lines)


def format_run(stats) -> str:
    """Render the run record of one or more verification calls.

    ``stats`` is a :class:`~repro.verifier.pipeline.RunRecord`: pooled
    dispatch and cache-provenance counters, the per-class plan and one
    line per worker pid.
    """
    lines = [
        f"Run plan ({stats.jobs} jobs)",
        f"  sequents total      {stats.sequents_total}",
        f"  dispatched          {stats.dispatched}",
        f"  answered from cache {stats.hits_memory + stats.hits_disk} "
        f"(memory {stats.hits_memory}, disk {stats.hits_disk})",
        f"  duplicates folded   {stats.duplicates_folded}",
        f"  dispatch wall time  {stats.wall_time:.1f}s "
        f"(prover time {stats.prover_time:.1f}s)",
    ]
    header = ["class", "sequents", "dispatched", "cache", "dup"]
    rows = [
        [
            cls.class_name,
            str(cls.sequents),
            str(cls.dispatched),
            str(cls.hits_memory + cls.hits_disk),
            str(cls.duplicates_folded),
        ]
        for cls in stats.classes
    ]
    lines.extend("  " + line for line in format_table(header, rows).splitlines())
    lines += [
        f"  worker {load.pid:<12} {load.tasks} sequents, "
        f"{load.prover_time:.1f}s"
        for load in stats.workers
    ]
    return "\n".join(lines)


def format_metrics(payload: dict) -> str:
    """Render the daemon's ``metrics`` response as aligned text.

    The CLI's ``jahob-py metrics --connect`` prints exactly this; the
    payload is the JSON object
    :meth:`~repro.verifier.daemon.VerifierDaemon._op_metrics` builds, so
    the sections mirror its fields (cache provenance, the last run's
    plan, admission and watch subscriptions).
    """
    lines = [f"Daemon metrics (protocol {payload.get('protocol', '?')})"]
    counters = payload.get("counters") or {}
    lines.append("Cache provenance")
    lines.append(
        f"  proof cache hits    {counters.get('proof_cache_hits', 0)} "
        f"(memory {counters.get('proof_cache_hits_memory', 0)}, "
        f"disk {counters.get('proof_cache_hits_disk', 0)})"
    )
    lines.append(f"  proof cache misses  {counters.get('proof_cache_misses', 0)}")
    store = payload.get("persistent_cache")
    if store:
        lines.append(
            f"  persistent store    {store.get('path')} ({store.get('status')})"
        )
    schedule = payload.get("schedule")
    if schedule:
        lines.append(f"Last run's plan ({schedule.get('jobs')} jobs)")
        header = ["class", "sequents", "dispatched", "cache", "dup"]
        rows = [
            [
                entry.get("class", "?"),
                str(entry.get("sequents", 0)),
                str(entry.get("dispatched", 0)),
                str(entry.get("cache_hits", 0)),
                str(entry.get("duplicates", 0)),
            ]
            for entry in schedule.get("classes", [])
        ]
        lines.extend("  " + line for line in format_table(header, rows).splitlines())
    admission = payload.get("admission")
    if admission:
        rejected = admission.get("rejected") or {}
        queued = admission.get("queued") or {}
        lines.append(
            f"Admission (queue limit {admission.get('queue_limit', '?')}, "
            f"peak depth {admission.get('peak_depth', 0)})"
        )
        lines.append(
            f"  admitted            {admission.get('admitted', 0)}, rejected "
            + ", ".join(f"{code} {count}" for code, count in sorted(rejected.items()))
        )
        lines.append(
            "  queued now          "
            + ", ".join(f"{lane} {count}" for lane, count in sorted(queued.items()))
        )
    watch = payload.get("watch")
    if watch and watch.get("subscriptions"):
        latency = watch.get("latency") or {}
        lines.append(
            f"Watch subscriptions ({watch.get('active', 0)} active, "
            f"{watch.get('subscriptions', 0)} total)"
        )
        lines.append(
            f"  verify cycles       {watch.get('events', 0)}, "
            f"mean {latency.get('mean', 0.0):.3f}s, "
            f"max {latency.get('max', 0.0):.3f}s"
        )
    return "\n".join(lines)


def format_verify(report: ClassReport) -> str:
    """Render one class's verification outcome, method by method.

    The CLI ``verify`` command and the daemon's ``verify`` op both print
    exactly this, so a ``--connect`` run is textually identical to a local
    one.
    """
    lines = []
    for method_report in report.methods:
        status = "ok" if method_report.verified else "FAILED"
        lines.append(
            f"{report.class_name}.{method_report.method_name}: "
            f"{method_report.sequents_proved}/{method_report.sequents_total} "
            f"sequents ({method_report.elapsed:.1f}s) {status}"
        )
        for outcome in method_report.failed_sequents:
            lines.append(f"    failed: {outcome.sequent.label}")
    lines.append(
        f"total: {report.sequents_proved}/{report.sequents_total} sequents, "
        f"{report.methods_verified}/{report.methods_total} methods, "
        f"{report.elapsed:.1f}s"
    )
    return "\n".join(lines)


def format_verify_file(path: str, reports: list[ClassReport]) -> str:
    """Render a ``verify FILE`` run: every loaded class model in turn.

    Shared by the CLI's local path and the daemon's ``verify_file`` op,
    so a ``--connect`` run prints the same text a local one does (the
    CLI forwards the absolute path to the daemon, so even the summary
    line matches).
    """
    blocks = [format_verify(report) for report in reports]
    verified = sum(1 for report in reports if report.verified)
    blocks.append(f"{path}: {verified}/{len(reports)} class models verified")
    return "\n\n".join(blocks)


def format_watch_event(event: dict) -> str:
    """Render one daemon ``watch`` stream event for the terminal.

    One block per event: ``verdicts`` events carry per-class incremental
    accounting (clean / dirty / dispatched), so the user can see that an
    edit re-proved only the sequents it invalidated.
    """
    kind = event.get("event") if isinstance(event, dict) else None
    if kind == "subscribed":
        return (
            f"watching {event.get('path')} "
            f"(poll every {event.get('interval', 0):g}s, ctrl-C to stop)"
        )
    if kind == "verdicts":
        generation = event.get("generation", 0)
        lines = []
        for entry in event.get("classes", []):
            status = "ok" if entry.get("verified") else "FAILED"
            incremental = entry.get("incremental") or {}
            if incremental.get("cold_start"):
                detail = f"cold start, {incremental.get('dispatched', 0)} dispatched"
            else:
                detail = (
                    f"{incremental.get('sequents_clean', 0)} clean, "
                    f"{incremental.get('sequents_dirty', 0)} dirty, "
                    f"{incremental.get('dispatched', 0)} dispatched"
                )
            lines.append(
                f"[{generation}] {entry.get('class')}: "
                f"{entry.get('sequents_proved', 0)}/"
                f"{entry.get('sequents_total', 0)} sequents {status} "
                f"({detail}) {event.get('latency', 0.0):.2f}s"
            )
            for method in entry.get("methods", []):
                for outcome in method.get("outcomes", []):
                    if not outcome.get("proved"):
                        lines.append(
                            f"    failed: {method.get('method')}:"
                            f"{outcome.get('label')}"
                        )
        return "\n".join(lines)
    if kind == "error":
        return f"error: {event.get('error')} (watch continues)"
    if kind == "rejected":
        return f"rejected: {event.get('error')} (watch continues)"
    if kind == "closed":
        return (
            f"watch closed ({event.get('reason')}, "
            f"{event.get('events', 0)} events)"
        )
    if isinstance(event, dict) and not event.get("ok", True):
        return f"watch error: {event.get('error')}"
    return str(event)


def format_table2(rows: list[Table2Row]) -> str:
    """Render Table 2."""
    return format_table(TABLE2_HEADER, [row.cells() for row in rows])
