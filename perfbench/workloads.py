"""The benchmark's three workloads.

* ``table1-cold`` -- the paper's headline: all eight Table 1 classes on a
  fresh engine with an empty proof cache and no store.  The provers do
  nearly all the work, timeouts included.
* ``corpus-cold`` -- a seeded generated corpus, cold, in-memory proof cache
  on, no store.  The front end, the cache and the smt theory solver do the
  work; ``fol`` and ``sets`` never run and no prover times out.
* ``edit-serve`` -- the edit loop as users drive it: an in-process daemon
  behind its HTTP front door, persistence on, its store primed at set-up
  to the size of a store that has served a while (about 2.85 MB).  Two
  closed-loop clients of one tenant each rotate through a write (verify an
  edited version of a primed class -- one method deleted -- that the store
  has not seen; it merge-saves the store), the lock-free metrics read and
  a pure-hit read (verify a fast catalogue class).  The
  provers are nearly idle; persistence, loading, the front end and
  queueing dominate.  Its latency percentiles cover the two engine
  requests.

Every workload uses the benchmark-scaled portfolio and ``jobs=1``.  The
amount of work is fixed by ``(seed, seconds)`` alone, so verdict counts
repeat exactly; ``seconds`` sets how much work is generated, calibrated so
the timed phase lasts about that long on a 2-core machine.  ``table1-cold``
always runs the whole catalogue once, which takes longer.

Timings are reference-speed seconds (:mod:`speed`): each workload gives
the speed sampler a checkpoint wherever no verifier work is in flight.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_reports
from repro.logic.terms import term_stats
from repro.provers.dispatch import ProverPortfolio, default_portfolio
from repro.provers.result import Outcome
from repro.suite.catalog import all_structures, structure_by_name
from repro.suite.generate import FAMILIES, generate_corpus, regression_source
from repro.verifier.daemon import VerifierDaemon
from repro.verifier.engine import VerificationEngine
from repro.verifier.http import HttpApiClient
from speed import SpeedSampler

#: The benchmark-scaled portfolio (the value ``benchmarks/conftest.py`` uses).
TIMEOUT_SCALE = 0.4
#: Method count per generated class.
GENERATED_SIZE = 10
#: Generated classes verified per requested second on ``corpus-cold``.
CORPUS_CLASSES_PER_SECOND = 30
#: Generated classes that prime the ``edit-serve`` store.  With the four
#: fast catalogue classes they make a store of about 2.85 MB: a little over
#: half the 5.0 MB served store whose merge-save was measured to take
#: 2.04 s of a 2.05 s request, so a write is still almost all save, while
#: the three set-ups of a run (each primes a store) stay near 9 s apiece.
PRIME_CLASSES = 50
#: Sequents left in every edited class an ``edit-serve`` write sends (the
#: most common count among the one-method deletions of generated classes);
#: with it every run verifies the same number of sequents, whatever its seed.
EDIT_SEQUENTS = 40
#: Catalogue classes far from any prover timeout; they prime the store and
#: are the targets of the pure-hit read requests.
FAST_CLASSES = ("Array List", "Cursor List", "Linked List", "Circular List")
#: Closed-loop clients on ``edit-serve`` (the machine has 2 cores).
CLIENTS = 2
#: Requested seconds per ``edit-serve`` round.  In a round each client
#: sends one write, one metrics read and one catalogue read; the clients
#: then wait for each other, and the speed probe runs with no request in
#: flight.  Four rounds (``--seconds 10``) read each fast class twice.
SECONDS_PER_ROUND = 2.5
#: Shared secret of the loopback front door.
SECRET = b"perfbench-loopback-secret"


def generator_seed(seed: int, stream: int) -> int:
    """First generator seed of one input stream of a workload seed.

    Streams of one seed, and the streams of different seeds, never share a
    generated class (a stream uses fewer than 10 000 consecutive seeds).
    """
    return 1_000_000 + seed * 100_000 + stream * 10_000


@dataclass
class RunResult:
    """What one timed phase produced; metrics are derived from it."""

    #: Reference-speed seconds (see :mod:`speed`); ``raw_wall_s`` is the
    #: plain wall clock and ``cpu_s`` the process's CPU time over it, both
    #: without the probe pauses.
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: What each latency sample timed (class name or request path).
    latency_labels: list[str] = field(default_factory=list)
    attempted: int = 0
    succeeded: int = 0
    sequents_proved: int = 0
    sequents_total: int = 0
    classes_verified: int = 0
    #: Share of the work fully proved: sequents on the cold workloads,
    #: requests answered right on ``edit-serve``.
    proved_share: float = 0.0
    problems: list[str] = field(default_factory=list)
    rows: list[str] = field(default_factory=list)
    #: Numbers the per-layer metrics read besides the spans.
    layer: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded


def _benchmark_engine(**kwargs) -> VerificationEngine:
    return VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE), jobs=1, **kwargs
    )


class ColdWorkload:
    """Verify a fixed list of classes, in order, on one fresh engine."""

    name = ""
    #: Whether the run must give the evaluator at least one proved sequent.
    needs_evaluator = False

    def __init__(self, seed: int, seconds: int, root: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.classes = []
        self.tracer = None
        self.engine: VerificationEngine | None = None

    def build_classes(self) -> list:
        raise NotImplementedError

    def setup(self, sampler, tracer=None) -> None:
        self.classes = self.build_classes()
        self.tracer = tracer
        self.engine = _benchmark_engine()
        cache = self.engine.portfolio.proof_cache
        if (
            cache is None
            or len(cache) != 0
            or self.engine.persistent_store is not None
            or self.engine.portfolio.statistics.sequents_attempted != 0
        ):
            raise RuntimeError(f"{self.name}: the engine is not cold")
        if tracer is not None:
            from tracing import install_layer_wrappers

            install_layer_wrappers(tracer)

    def run(self) -> RunResult:
        result = RunResult()
        run_provers = ProverPortfolio.__dict__["run_provers"]
        budgets = {
            entry.prover.name: entry.timeout for entry in self.engine.portfolio.entries
        }
        sampler = SpeedSampler()
        # Inside a traced run a probe pause would land inside the engine's
        # spans, so there the probe runs between classes only.
        fine = self.tracer is None

        def run_provers_timed(portfolio, task):
            # A prover that times out runs out a CPU-second budget, which
            # costs the same seconds on a fast and a slow machine.
            if fine:
                sampler.checkpoint()
            began = time.monotonic()
            answer = run_provers(portfolio, task)
            sampler.charge_unscaled(
                began,
                time.monotonic(),
                sum(
                    min(attempt.elapsed, budgets.get(attempt.prover, 0.0))
                    for attempt in answer.attempts
                    if attempt.outcome is Outcome.TIMEOUT
                ),
            )
            return answer

        spans = []
        sampler.start()
        ProverPortfolio.run_provers = run_provers_timed
        try:
            terms_before = term_stats()
            cpu_start = time.process_time()
            start = time.monotonic()
            for cls in self.classes:
                sampler.checkpoint()
                began = time.monotonic()
                result.reports.append(self.engine.verify_class(cls))
                spans.append((began, time.monotonic()))
            end = time.monotonic()
            cpu_end = time.process_time()
        finally:
            ProverPortfolio.run_provers = run_provers
            sampler.stop()

        result.latency_labels = [cls.name for cls in self.classes]
        result.latencies_s = [sampler.seconds(*span) for span in spans]
        result.wall_s = sampler.seconds(start, end)
        result.raw_wall_s = sampler.active_wall(start, end)
        result.cpu_s = cpu_end - cpu_start
        result.layer["speed"] = sampler.record()
        terms_after = term_stats()
        statistics = self.engine.portfolio.statistics
        result.layer.update(
            terms_allocated=terms_after.allocated - terms_before.allocated,
            terms_interned_hits=terms_after.interned_hits
            - terms_before.interned_hits,
            cache_hits=statistics.cache_hits,
            cache_misses=statistics.cache_misses,
        )
        for report in result.reports:
            result.sequents_total += report.sequents_total
            result.sequents_proved += report.sequents_proved
            result.classes_verified += int(report.verified)
        result.proved_share = result.sequents_proved / max(1, result.sequents_total)
        return result

    def check(self, result: RunResult) -> None:
        """Outside the timed phase: known-answer checks of every verdict.

        An operation is a sequent; it fails when its verdict is wrong (a
        refutation, or a proof the evaluator contradicts).  An unproved
        sequent is an incomplete but sound answer, counted by
        ``sequents_proved``.
        """
        verdicts = check_reports(result.reports)
        result.attempted = result.sequents_total
        result.succeeded = result.attempted - (
            verdicts["refuted"] + verdicts["contradictions"]
        )
        result.problems.extend(verdicts["problems"])
        result.layer["evaluator_checked"] = verdicts["evaluator_checked"]
        if self.needs_evaluator and not verdicts["evaluator_checked"]:
            result.problems.append(
                "the evaluator checked no proved sequent: the cross-check "
                "would have been a no-op"
            )
        result.rows.extend(self.rows(result))

    def rows(self, result: RunResult) -> list[str]:
        return []

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()


class Table1Cold(ColdWorkload):
    """All eight Table 1 classes, cold.  The catalogue is fixed, so the seed
    changes nothing here (it is still recorded)."""

    name = "table1-cold"

    def build_classes(self) -> list:
        return all_structures()

    def rows(self, result: RunResult) -> list[str]:
        lines = [
            f"{'class':<18} {'methods':>9} {'sequents':>9} {'wall_s':>8}  provers"
        ]
        for report, latency in zip(result.reports, result.latencies_s):
            provers = " ".join(
                f"{name}:{count}" for name, count in sorted(report.provers_used.items())
            )
            lines.append(
                f"{report.class_name:<18} "
                f"{report.methods_verified:>4}/{report.methods_total:<4} "
                f"{report.sequents_proved:>4}/{report.sequents_total:<4} "
                f"{latency:>8.3f}  {provers}"
            )
        return lines


class CorpusCold(ColdWorkload):
    """A seeded generated corpus, cold."""

    name = "corpus-cold"
    needs_evaluator = True

    def build_classes(self) -> list:
        return generate_corpus(
            CORPUS_CLASSES_PER_SECOND * self.seconds,
            seed=generator_seed(self.seed, 0),
            size=GENERATED_SIZE,
        )


class EditServe:
    """The warm edit loop over HTTP against a freshly primed store."""

    name = "edit-serve"

    def __init__(self, seed: int, seconds: int, root: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.rounds = max(1, round(seconds / SECONDS_PER_ROUND))
        self.workdir: Path | None = None
        self.daemon: VerifierDaemon | None = None
        self.thread: threading.Thread | None = None
        self.address = ""
        #: ``rounds[client][round]``: the requests one client sends in one
        #: round, in order.
        self.streams: list[list[list[tuple]]] = []
        #: ``(family, generator seed, method)`` of every one-method deletion
        #: of a primed class that leaves :data:`EDIT_SEQUENTS` sequents.
        self.edits: list[tuple[str, int, str]] = []
        self.store_bytes_primed = 0

    # -- set-up ------------------------------------------------------------------

    def setup(self, sampler, tracer=None) -> None:
        scratch = self.root / ".perfbench" / "tmp"
        scratch.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="edit-serve-", dir=scratch))
        store_dir = self.workdir / "store"
        if store_dir.exists():
            raise RuntimeError("edit-serve: the store directory is not fresh")
        self._prime(store_dir, sampler)
        self.streams = self._request_streams()
        if tracer is not None:
            from tracing import install_layer_wrappers

            install_layer_wrappers(tracer)
        self.daemon = VerifierDaemon(
            "127.0.0.1:0",
            jobs=1,
            cache_dir=store_dir,
            persist=True,
            timeout_scale=TIMEOUT_SCALE,
            secret=SECRET,
            http="127.0.0.1:0",
        )
        store = self.daemon.engine.persistent_store
        if not store.last_load_status.startswith("warm:") or not store.last_dependencies:
            raise RuntimeError(
                f"edit-serve: primed store did not load ({store.last_load_status})"
            )
        self.store_bytes_primed = store.path.stat().st_size
        self.daemon.bind()
        self.address = self.daemon.http_door.address
        self.thread = threading.Thread(
            target=self.daemon.serve_forever, name="perfbench-daemon"
        )
        self.thread.start()
        HttpApiClient(self.address, SECRET).wait_ready()

    def _prime(self, store_dir: Path, sampler) -> None:
        """Verify the priming classes, save the store once and note the
        edits the writes can choose from."""
        first = generator_seed(self.seed, 0)
        families = tuple(FAMILIES)
        generated = generate_corpus(PRIME_CLASSES, seed=first, size=GENERATED_SIZE)
        classes = generated + [structure_by_name(name) for name in FAST_CLASSES]
        primer = _benchmark_engine(cache_dir=store_dir, persist=False)
        if len(primer.portfolio.proof_cache) != 0:
            raise RuntimeError("edit-serve: the priming engine is not cold")
        for index, cls in enumerate(classes):
            sampler.checkpoint()
            report = primer.verify_class(cls)
            if not report.verified:
                raise RuntimeError(f"edit-serve: priming left {cls.name} unverified")
            if index < len(generated):
                self.edits.extend(
                    (families[index % len(families)], first + index, method.method_name)
                    for method in report.methods
                    if report.sequents_total - len(method.outcomes) == EDIT_SEQUENTS
                )
        primer.persist = True
        primer.flush_persistent_cache()
        primer.close()

    def _request_streams(self) -> list[list[list[tuple]]]:
        """Each client's requests, round by round, derived from the seed only.

        In a round each client sends (write, metrics, read), in step with
        the other, so reads queue behind the other client's writes.  Every
        write is a seed-chosen edit of a different primed class: the class
        with one method deleted, a program the store has not seen, whose
        verdicts are all cached and whose dependency record replaces the
        class's own (so the store keeps its size).  The reads cycle through
        the fast catalogue classes from a seed-chosen start.
        """
        programs = self.workdir / "programs"
        programs.mkdir()
        rng = random.Random(generator_seed(self.seed, 1))
        chosen: dict[int, tuple[str, int, str]] = {}
        for family, class_seed, method in rng.sample(self.edits, len(self.edits)):
            chosen.setdefault(class_seed, (family, class_seed, method))
        edits = list(chosen.values())
        if len(edits) < CLIENTS * self.rounds:
            raise RuntimeError(
                f"edit-serve: only {len(edits)} primed classes have an edit "
                f"leaving {EDIT_SEQUENTS} sequents"
            )
        streams = [[] for _ in range(CLIENTS)]
        writes = reads = 0
        for _ in range(self.rounds):
            for stream in streams:
                family, class_seed, method = edits[writes]
                path = programs / f"program_{writes}.py"
                path.write_text(
                    regression_source(
                        family, class_seed, GENERATED_SIZE, drop_methods=(method,)
                    ),
                    encoding="utf-8",
                )
                writes += 1
                name = FAST_CLASSES[(self.seed + reads) % len(FAST_CLASSES)]
                reads += 1
                stream.append(
                    [
                        ("POST", "/v1/verify-file", {"path": str(path)}),
                        ("GET", "/v1/metrics", None),
                        ("POST", "/v1/verify", {"name": name}),
                    ]
                )
        return streams

    # -- the timed phase -------------------------------------------------------

    def run(self) -> RunResult:
        result = RunResult()
        engine = self.daemon.engine
        statistics = engine.portfolio.statistics
        hits_before, misses_before = statistics.cache_hits, statistics.cache_misses
        terms_before = term_stats()
        answers: list[list[tuple]] = [[] for _ in range(CLIENTS)]
        sampler = SpeedSampler()
        gate = threading.Event()
        # Between rounds the last client to arrive takes a burst of speed
        # samples, while no request is in flight.  (Inside a round some
        # thread is always busy: the engine, or a handler loading a file.)
        rounds = threading.Barrier(CLIENTS, action=sampler.burst)
        clients = [
            threading.Thread(
                target=self._client,
                args=(self.streams[index], gate, rounds, answers[index]),
                name=f"perfbench-client-{index}",
            )
            for index in range(CLIENTS)
        ]
        for client in clients:
            client.start()
        sampler.start()
        try:
            cpu_start = time.process_time()
            start = time.monotonic()
            gate.set()
            for client in clients:
                client.join()
            end = time.monotonic()
            cpu_end = time.process_time()
        finally:
            gate.set()
            rounds.abort()
            sampler.stop()
        result.wall_s = sampler.seconds(start, end)
        result.raw_wall_s = sampler.active_wall(start, end)
        result.cpu_s = cpu_end - cpu_start
        terms_after = term_stats()
        handler_ms, overhead_ms = [], []
        for answer in answers:
            for request, status, response, began, ended in answer:
                round_trip = ended - began
                result.attempted += 1
                # The lock-free metrics read answers in about a millisecond;
                # counted in the latency percentiles it would pin the median
                # to the edge between unqueued and queued requests.
                if request[1] != "/v1/metrics":
                    result.latencies_s.append(sampler.seconds(began, ended))
                    result.latency_labels.append(request[1])
                if isinstance(response, dict) and "elapsed" in response:
                    handler_ms.append(response["elapsed"] * 1000.0)
                    overhead_ms.append((round_trip - response["elapsed"]) * 1000.0)
                problem = self._judge(request, status, response, result)
                if problem is None:
                    result.succeeded += 1
                else:
                    result.problems.append(problem)
        expected = CLIENTS * self.rounds * 3
        if result.attempted != expected:
            result.problems.append(
                f"{result.attempted} of {expected} requests were answered"
            )
        result.proved_share = result.succeeded / max(1, result.attempted)
        result.layer.update(
            speed=sampler.record(),
            terms_allocated=terms_after.allocated - terms_before.allocated,
            terms_interned_hits=terms_after.interned_hits
            - terms_before.interned_hits,
            cache_hits=statistics.cache_hits - hits_before,
            cache_misses=statistics.cache_misses - misses_before,
            handler_ms=handler_ms,
            http_overhead_ms=overhead_ms,
        )
        return result

    def _client(self, stream, gate, rounds, answers: list) -> None:
        api = HttpApiClient(self.address, SECRET)
        gate.wait()
        for requests in stream:
            for method, path, body in requests:
                began = time.monotonic()
                try:
                    status, response = api.request(method, path, body)
                except Exception as exc:  # noqa: BLE001 - a failed request
                    status, response = 0, {"error": f"{type(exc).__name__}: {exc}"}
                answers.append(
                    ((method, path, body), status, response, began, time.monotonic())
                )
            try:
                rounds.wait()
            except threading.BrokenBarrierError:
                return  # the other client or the probe failed; counted as missing

    @staticmethod
    def _judge(request, status: int, response: dict, result: RunResult):
        """None when the response is right; else why it is not."""
        method, path, body = request
        where = f"{method} {path} {body or ''}".rstrip()
        if status != 200 or not response.get("ok"):
            reason = response.get("error") or response.get("code")
            return f"{where}: status {status}, {reason}"
        if path == "/v1/metrics":
            if "admission" not in response or "counters" not in response:
                return f"{where}: metrics response lacks admission/counters"
            return None
        if response.get("exit") != 0:
            return f"{where}: exit {response.get('exit')}"
        reports = response.get("reports") or [response.get("report")]
        for report in reports:
            refuted = sum(
                outcome["refuted"]
                for method_report in report["methods"]
                for outcome in method_report["outcomes"]
            )
            if refuted:
                return f"{where}: {refuted} sequent(s) REFUTED, but all are valid"
            if report["sequents_proved"] != report["sequents_total"]:
                return (
                    f"{where}: {report['class']} proved "
                    f"{report['sequents_proved']}/{report['sequents_total']}"
                )
            result.sequents_proved += report["sequents_proved"]
            result.sequents_total += report["sequents_total"]
            result.classes_verified += int(report["verified"])
        return None

    def check(self, result: RunResult) -> None:
        """Outside the timed phase: admission and store state for the
        per-layer metrics (the responses were judged as they came)."""
        status, metrics = HttpApiClient(self.address, SECRET).request(
            "GET", "/v1/metrics"
        )
        if status != 200:
            result.problems.append(f"final metrics read answered {status}")
            metrics = {}
        admission = metrics.get("admission", {})
        result.layer.update(
            admission_peak_depth=admission.get("peak_depth", 0),
            admission_rejected=sum(admission.get("rejected", {}).values()),
            store_bytes_primed=self.store_bytes_primed,
            store_bytes=self.daemon.engine.persistent_store.path.stat().st_size,
        )
        result.rows.append(
            f"{CLIENTS} clients x {self.rounds} rounds x 3 requests, store "
            f"{self.store_bytes_primed} -> {result.layer['store_bytes']} bytes"
        )

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
        if self.thread is not None:
            self.thread.join(timeout=60.0)
        if self.daemon is not None and self.thread is None:
            self.daemon.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    workload.name: workload for workload in (Table1Cold, CorpusCold, EditServe)
}
