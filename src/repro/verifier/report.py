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
from .engine import ClassReport, VerificationEngine
from .stats import (
    TABLE1_CONSTRUCT_ORDER,
    PerformanceCounters,
    class_statistics,
    performance_counters,
)

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
    "format_loadgen",
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
    classes: list[ClassModel],
    engine: VerificationEngine | None = None,
    reports: list[ClassReport] | None = None,
) -> list[Table1Row]:
    """Compute Table 1: construct counts plus (optionally) verification time.

    When ``engine`` is None the timing column is 0 and the ``verified`` flag
    is left True; passing an engine runs full verification class by class.
    Alternatively, pass precomputed ``reports`` (e.g. from a suite-scheduled
    :meth:`~repro.verifier.engine.VerificationEngine.verify_suite` run) to
    fill the timing/verified columns without re-verifying.
    """
    by_name = (
        {report.class_name: report for report in reports}
        if reports is not None
        else None
    )
    rows: list[Table1Row] = []
    for cls in classes:
        stats = class_statistics(cls)
        elapsed = 0.0
        verified = True
        if by_name is not None:
            report = by_name[cls.name]
            elapsed = report.elapsed
            verified = report.verified
        elif engine is not None:
            report = engine.verify_class(cls)
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

    ``run``, a :class:`~repro.verifier.parallel.RunRecord`, gets every
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


def format_performance(
    counters: PerformanceCounters | None = None, portfolio=None
) -> str:
    """Render the cache / allocation counters of a run as aligned text.

    Pass either precollected :class:`PerformanceCounters` or the portfolio
    to collect them from.
    """
    if counters is None:
        counters = performance_counters(portfolio)
    lines = [
        "Performance counters",
        f"  terms allocated     {counters.terms_allocated}",
        f"  terms interned      {counters.terms_interned} "
        f"(hit rate {counters.intern_hit_rate:.1%})",
        f"  proof cache hits    {counters.proof_cache_hits} "
        f"(memory {counters.proof_cache_hits_memory}, "
        f"disk {counters.proof_cache_hits_disk})",
        f"  proof cache misses  {counters.proof_cache_misses} "
        f"(hit rate {counters.proof_cache_hit_rate:.1%})",
        f"  sequents attempted  {counters.sequents_attempted}",
        f"  sequents proved     {counters.sequents_proved}",
    ]
    return "\n".join(lines)


def format_run(stats) -> str:
    """Render the run record of one or more verification calls.

    ``stats`` is a :class:`~repro.verifier.parallel.RunRecord`: pooled
    dispatch and cache-provenance counters, the per-class plan, the
    longest-class-first dispatch order and one line per worker (an OS
    pid for the in-process pool, a ``host/pid`` label for remote
    workers).
    """
    backend = "" if stats.backend == "process" else f", {stats.backend} workers"
    lines = [
        f"Run plan ({stats.jobs} jobs{backend})",
        f"  dispatch order      {', '.join(stats.schedule_order)}",
        f"  sequents total      {stats.sequents_total}",
        f"  dispatched          {stats.dispatched}",
        f"  answered from cache {stats.hits_memory + stats.hits_disk} "
        f"(memory {stats.hits_memory}, disk {stats.hits_disk})",
        f"  duplicates folded   {stats.duplicates_folded}",
        f"  dispatch wall time  {stats.wall_time:.1f}s "
        f"(prover time {stats.prover_time:.1f}s)",
    ]
    header = [
        "class", "cost hint", "hint src", "sequents", "dispatched", "cache", "dup"
    ]
    rows = [
        [
            cls.class_name,
            f"{cls.cost_hint:.3g}",
            cls.hint_source,
            str(cls.sequents),
            str(cls.dispatched),
            str(cls.hits_memory + cls.hits_disk),
            str(cls.duplicates_folded),
        ]
        for cls in stats.classes
    ]
    lines.extend("  " + line for line in format_table(header, rows).splitlines())
    lines += [
        f"  worker {str(load.pid):<12} {load.tasks} sequents, "
        f"{load.prover_time:.1f}s"
        for load in stats.workers
    ]
    return "\n".join(lines)


def format_metrics(payload: dict) -> str:
    """Render the daemon's ``metrics`` response as aligned text.

    The CLI's ``jahob-py metrics --connect`` prints exactly this; the
    payload is the JSON object
    :meth:`~repro.verifier.daemon.VerifierDaemon._op_metrics` builds, so
    the sections mirror its fields (cache provenance, measured class
    costs, the last run's plan, per-worker latency).
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
    cost_model = payload.get("cost_model") or {}
    classes = cost_model.get("classes") or {}
    lines.append(
        f"Measured class costs "
        f"({cost_model.get('sequent_timings', 0)} sequent timings)"
    )
    if classes:
        header = ["class", "wall (s)", "cpu (s)", "sequents", "mean (s)"]
        rows = [
            [
                name,
                f"{data.get('wall', 0.0):.2f}",
                f"{data.get('cpu', 0.0):.2f}",
                str(data.get("sequents", 0)),
                f"{data.get('mean_wall', 0.0):.3f}",
            ]
            for name, data in sorted(classes.items())
        ]
        lines.extend("  " + line for line in format_table(header, rows).splitlines())
    else:
        lines.append("  (no measured profiles yet)")
    schedule = payload.get("schedule")
    if schedule:
        lines.append(
            f"Last run's plan ({schedule.get('jobs')} jobs, "
            f"{schedule.get('backend')} backend)"
        )
        lines.append(f"  dispatch order      {', '.join(schedule.get('order', []))}")
        header = ["class", "cost", "source", "sequents", "dispatched", "cache", "dup"]
        rows = [
            [
                entry.get("class", "?"),
                f"{entry.get('cost', 0.0):.3g}",
                entry.get("source", "?"),
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
            + f"; service ewma {admission.get('service_ewma', 0.0):.3f}s"
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
    workers = payload.get("workers") or []
    lines.append("Remote workers")
    if not workers:
        lines.append("  (none connected)")
    for worker in workers:
        latency = worker.get("latency") or {}
        ewma = worker.get("ewma_task_wall")
        ewma_text = f"{ewma:.3f}s" if isinstance(ewma, (int, float)) else "n/a"
        lines.append(
            f"  {worker.get('worker', '?')} ({worker.get('origin', '?')}): "
            f"task ewma {ewma_text}, {latency.get('count', 0)} answers, "
            f"mean {latency.get('mean', 0.0):.3f}s, "
            f"max {latency.get('max', 0.0):.3f}s"
        )
        bands = [
            (f"<={bound}s" if bound != "inf" else "slower") + f": {count}"
            for bound, count in latency.get("buckets", [])
            if count
        ]
        if bands:
            lines.append("    latency histogram " + ", ".join(bands))
    return "\n".join(lines)


def format_loadgen(record: dict) -> str:
    """Render one :func:`repro.verifier.loadgen.run_loadgen` record.

    ``jahob-py loadgen`` and ``benchmarks/load_harness.py`` both print
    exactly this; the JSON record itself is the CI artifact.
    """
    config = record.get("config") or {}
    requests = record.get("requests") or {}
    latency = record.get("latency") or {}
    verdicts = record.get("verdicts") or {}
    wall = record.get("wall_seconds") or {}
    lines = [
        f"Load run: {config.get('clients', '?')} clients x "
        f"{config.get('requests_per_client', '?')} requests, "
        f"{len(config.get('tenants', []))} tenants, "
        f"queue limit {config.get('queue_limit', '?')}"
        + (
            f", rate limit {config.get('rate_limit')}/s"
            if config.get("rate_limit")
            else ""
        ),
        f"  wall                baseline {wall.get('baseline', 0.0):.2f}s, "
        f"load {wall.get('load', 0.0):.2f}s",
        f"  requests            {requests.get('succeeded', 0)}"
        f"/{requests.get('total', 0)} ok, "
        f"{requests.get('retries', 0)} retries, "
        f"{requests.get('gave_up', 0)} gave up, "
        f"{requests.get('dropped_connections', 0)} dropped connections",
        "  rejections          "
        + (
            ", ".join(
                f"{code} {count}"
                for code, count in (record.get("rejections") or {}).items()
            )
            or "(none)"
        ),
        f"  latency             p50 {latency.get('p50', 0.0):.3f}s, "
        f"p95 {latency.get('p95', 0.0):.3f}s, "
        f"p99 {latency.get('p99', 0.0):.3f}s, "
        f"max {latency.get('max', 0.0):.3f}s "
        f"({latency.get('count', 0)} samples)",
        f"  verdicts            {verdicts.get('checked', 0)} checked vs "
        f"sequential baseline, "
        f"{len(verdicts.get('mismatches', []))} mismatches",
    ]
    for op, hist in (record.get("latency_by_op") or {}).items():
        lines.append(
            f"    {op:<17} p50 {hist.get('p50', 0.0):.3f}s, "
            f"p95 {hist.get('p95', 0.0):.3f}s, "
            f"p99 {hist.get('p99', 0.0):.3f}s "
            f"({hist.get('count', 0)} samples)"
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
