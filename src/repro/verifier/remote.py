"""Coordinator side of the distributed worker backend.

:mod:`repro.verifier.parallel` runs the pure prover phase of a shard on an
in-process ``ProcessPoolExecutor``.  This module provides the second
:class:`~repro.verifier.parallel.WorkerBackend` implementation:
:class:`RemoteWorkerPool` ships the same ``(shard_index, ProofTask)``
pairs -- batched, base64-pickled inside newline-JSON messages
(:mod:`repro.verifier.wire`) -- to ``jahob-py worker`` processes on the
other end of a TCP connection, and streams verdicts back in completion
order.

Workers reach the coordinator two ways, both ending in the identical
authenticated session protocol:

* the coordinator **dials** workers that are listening
  (``jahob-py worker --listen HOST:PORT`` + coordinator ``--workers
  HOST:PORT,...``);
* workers **register** with a listening coordinator
  (``jahob-py worker --connect HOST:PORT`` + a :class:`WorkerRegistry`,
  which the daemon opens with ``serve --worker-listen``).

Fault model: a worker that disconnects or crashes mid-run loses nothing
but time -- every task it had not answered is requeued onto the surviving
workers (or onto a newly registered one).  The parent keeps all cache
authority, so verdicts, prover attribution and counters stay bit-identical
to a sequential run; ``tests/verifier/test_remote_differential.py`` pins
this down, including the mid-run worker-kill case.

Session protocol (coordinator's view, after the wire handshake)::

    <- {"op": "hello", "pid": ..., "host": ..., "jahob": WIRE_VERSION}
    -> {"op": "init", "spec": [[prover, timeout], ...]}
    -> {"op": "batch", "tasks": [[index, <b64 pickle>], ...]}   (repeated)
    <- {"op": "result", "index": ..., "wall": ..., "payload": <b64>}
    <- {"op": "error", "index": ..., "error": "..."}            (prover crash)
    <- {"op": "error", "index": null, "error": "..."}           (bad init spec)
    -> {"op": "bye"}
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque

from ..provers.dispatch import PortfolioSpec
from .parallel import WorkerBackend
from .stats import LatencyHistogram
from .wire import (
    HANDSHAKE_TIMEOUT,
    HandshakeError,
    LineChannel,
    WireError,
    connect_address,
    create_listener,
    format_address,
    handshake_accept,
    handshake_connect,
    decode_payload,
    encode_payload,
)

__all__ = [
    "RemoteWorkerError",
    "WorkerConnection",
    "WorkerRegistry",
    "RemoteWorkerPool",
    "DEFAULT_BATCH_SIZE",
]

#: Upper bound on tasks kept in flight per worker.  A refill is sent
#: whenever a worker's in-flight count drops below its *window* -- the
#: per-worker share of this bound scaled by observed throughput (see
#: :meth:`RemoteWorkerPool._window`) -- so workers never idle between
#: batches while tasks remain, and slow workers stop hoarding.
DEFAULT_BATCH_SIZE = 4

#: How long a pool with a registry waits for a replacement worker when
#: every connection died with tasks still pending.
_REPLACEMENT_WAIT = 30.0

#: How often a dispatching run with a registry interrupts its event wait
#: to adopt newly registered workers.  Without this bound a newcomer
#: would sit idle until some existing worker answered or died.
_ADOPTION_POLL = 0.5

#: Smoothing factor of the per-worker task-wall EWMA (the weight of the
#: newest sample).
_LATENCY_ALPHA = 0.3


class RemoteWorkerError(RuntimeError):
    """The remote backend cannot make progress (no workers reachable /
    left alive, or a worker reported a prover crash)."""


class WorkerConnection:
    """One authenticated session with a remote worker process.

    The connection outlives individual runs (a warm daemon reuses it for
    every request), so it owns exactly one reader thread for its whole
    life; each run points ``events`` at its own queue before dispatching.
    ``dead`` is set by the reader when the peer goes away, so a later run
    never trusts a corpse.
    """

    def __init__(
        self, channel: LineChannel, hello: dict, address: str | None, origin: str
    ) -> None:
        self.channel = channel
        self.pid = hello.get("pid", 0)
        self.host = hello.get("host", "?")
        #: The dialable address (None for registry-registered workers).
        self.address = address
        #: Where the connection came from ("dial host:port" / "registry").
        self.origin = origin
        #: Worker identity as reported in scheduling statistics
        #: (per-worker provenance in ``--perf`` output and reports).
        self.label = f"{self.host}/{self.pid}"
        #: shard_index -> ProofTask for everything sent but not answered.
        self.inflight: dict[int, object] = {}
        #: shard_index -> monotonic send time (answer-latency measurement).
        self.sent_at: dict[int, float] = {}
        self.initialized = False
        #: The current run's event sink; the reader reads it at push time.
        self.events: queue.SimpleQueue | None = None
        self.reader_started = False
        self.dead = False
        #: Exponentially weighted per-task service time, from the
        #: *worker-reported* wall seconds of each answer; ``None`` until
        #: the first answer.  Drives the pool's heterogeneous in-flight
        #: windows.  Deliberately not the coordinator-side sojourn: that
        #: includes queueing behind the worker's own window, which feeds
        #: back into the window computation and makes it oscillate.
        self.ewma_task_wall: float | None = None
        #: Coordinator-side answer-latency distribution (send -> result
        #: receipt, queueing included) for the daemon's ``metrics`` op.
        self.latency = LatencyHistogram()

    def send_init(self, spec: PortfolioSpec) -> None:
        self.channel.send(
            {"op": "init", "spec": [list(entry) for entry in spec.entries]}
        )
        self.initialized = True

    def send_batch(self, tasks: list[tuple[int, object]]) -> None:
        now = time.monotonic()
        for index, task in tasks:
            self.inflight[index] = task
            self.sent_at[index] = now
        self.channel.send(
            {
                "op": "batch",
                "tasks": [
                    [index, encode_payload(task)] for index, task in tasks
                ],
            }
        )

    def observe_answer(self, task_wall: float, sojourn: float | None) -> None:
        """Fold one answer in: the worker-reported per-task wall updates
        the throughput EWMA, the coordinator-side sojourn (when known)
        goes to the latency histogram."""
        if sojourn is not None:
            self.latency.add(sojourn)
        if task_wall <= 0.0:
            return
        if self.ewma_task_wall is None:
            self.ewma_task_wall = task_wall
        else:
            self.ewma_task_wall = (
                _LATENCY_ALPHA * task_wall
                + (1.0 - _LATENCY_ALPHA) * self.ewma_task_wall
            )

    def metrics(self) -> dict:
        """JSON-ready per-worker scheduling metrics (``metrics`` op)."""
        return {
            "worker": self.label,
            "origin": self.origin,
            "ewma_task_wall": (
                round(self.ewma_task_wall, 6)
                if self.ewma_task_wall is not None
                else None
            ),
            "inflight": len(self.inflight),
            "latency": self.latency.as_dict(),
        }

    def close(self) -> None:
        try:
            self.channel.send({"op": "bye"})
        except WireError:
            pass
        self.channel.close()


class WorkerRegistry:
    """Accept ``jahob-py worker --connect`` registrations on a TCP port.

    The registry owns only the listening socket and the handshake; ready
    connections queue up until a :class:`RemoteWorkerPool` adopts them.
    A daemon keeps one registry for its whole lifetime, so workers may
    register before, during, or between verification runs -- a worker
    that arrives mid-run is adopted at the next scheduling step.
    """

    def __init__(self, address: str, secret: bytes) -> None:
        if not secret:
            raise RemoteWorkerError(
                "a worker registry needs a shared secret (--secret-file "
                "or JAHOB_SECRET)"
            )
        self.secret = secret
        self._server = create_listener(address)
        self.address = "%s:%d" % self._server.getsockname()[:2]
        self._ready: queue.SimpleQueue[WorkerConnection] = queue.SimpleQueue()
        self._closing = False
        self._thread = threading.Thread(
            target=self._accept_loop, name="jahob-worker-registry", daemon=True
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self._server.getsockname()[1]

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                connection, _ = self._server.accept()
            except OSError:
                return  # listener closed
            # A deadline for the handshake only: a silent peer must not
            # wedge the one accept thread.  Afterwards the connection
            # blocks indefinitely -- a registered worker may sit idle for
            # hours between a daemon's requests.
            connection.settimeout(HANDSHAKE_TIMEOUT)
            channel = LineChannel(connection)
            try:
                handshake_accept(channel, self.secret, expect_role="worker")
                hello = channel.recv()
                if not isinstance(hello, dict) or hello.get("op") != "hello":
                    raise WireError("worker did not introduce itself")
            except (WireError, HandshakeError):
                channel.close()
                continue
            connection.settimeout(None)
            self._ready.put(
                WorkerConnection(channel, hello, address=None, origin="registry")
            )

    def adopt(self, timeout: float | None = None) -> WorkerConnection | None:
        """The next registered worker, or ``None`` when none arrives in
        ``timeout`` seconds (``timeout=None``: don't wait at all)."""
        try:
            if timeout is None:
                return self._ready.get_nowait()
            return self._ready.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        self._closing = True
        try:
            self._server.close()
        except OSError:
            pass
        while True:
            worker = self.adopt()
            if worker is None:
                break
            worker.close()


class RemoteWorkerPool(WorkerBackend):
    """Load-balance shard dispatch across remote worker processes.

    Implements the same backend surface as
    :class:`~repro.verifier.parallel.ProverPool` (``warm_up`` / ``run`` /
    ``close`` / ``matches``), so the engine, the suite scheduler and the
    daemon drive both backends through one code path.  Connections are
    established lazily on first use, mirroring the lazy executor fork of
    the in-process pool.

    ``addresses`` are listening workers to dial; ``registry`` supplies
    workers that dialed us.  Both may be used together.  ``jobs`` is the
    resulting worker count (used only for statistics labels -- the real
    parallelism is whatever is connected).
    """

    backend_name = "remote"

    def __init__(
        self,
        spec: PortfolioSpec,
        addresses: tuple[str, ...] = (),
        *,
        registry: WorkerRegistry | None = None,
        secret: bytes | None = None,
        connect_timeout: float = 10.0,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if not addresses and registry is None:
            raise RemoteWorkerError(
                "a remote pool needs worker addresses or a registry"
            )
        if addresses and not secret:
            raise RemoteWorkerError(
                "dialing TCP workers needs a shared secret (--secret-file "
                "or JAHOB_SECRET)"
            )
        self.spec = spec
        self.addresses = tuple(addresses)
        self.registry = registry
        self.secret = secret
        self.connect_timeout = connect_timeout
        self.batch_size = max(1, int(batch_size))
        self.jobs = max(1, len(self.addresses) + (1 if registry else 0))
        self._workers: list[WorkerConnection] = []
        self._dialed = False

    # -- backend surface ---------------------------------------------------------

    def matches(self, spec: PortfolioSpec, jobs: int) -> bool:
        """Remote parallelism is fixed by the configured workers, so only
        the portfolio spec decides reusability of a warm pool."""
        return self.spec == spec

    @property
    def started(self) -> bool:
        return bool(self._workers)

    def warm_up(self) -> None:
        """Dial the configured workers and adopt any registered ones now,
        so the first run (or the daemon's first request) pays no connect
        or handshake latency.  Never *waits* for registrations: a daemon
        must start serving clients before its workers show up; the first
        dispatching run blocks for a worker if none has arrived by then."""
        self._ensure_workers(minimum=0)

    def run(self, items: list[tuple[int, object]]):
        """Dispatch ``(index, task)`` pairs; yields ``(index, label, wall,
        result)`` in completion order, exactly like the in-process pool.

        Scheduling: every worker keeps up to its *window* of tasks in
        flight -- ``batch_size`` scaled down (to as little as 1) by the
        worker's observed answer latency relative to the fastest peer
        (:meth:`_window`), so a slow or distant worker stops hoarding
        long sequents while fast workers idle.  Whenever a worker
        answers, it is refilled from the front of the pending queue, so
        dispatch follows the given order.  A worker that
        disconnects gets its unanswered tasks requeued onto the
        survivors; with none left, the pool waits briefly for a
        replacement registration before giving up.  With a registry, the
        event wait is interrupted every ``_ADOPTION_POLL`` seconds so a
        worker that registers mid-run is put to work immediately --
        not only after some existing worker answers or dies.
        """
        if not items:
            return
        self._ensure_workers(minimum=1)
        events: queue.SimpleQueue = queue.SimpleQueue()
        pending: deque[tuple[int, object]] = deque(items)
        done: set[int] = set()
        live: list[WorkerConnection] = []

        def drop(worker: WorkerConnection) -> None:
            """Forget a dead worker, requeueing its unanswered tasks."""
            if worker in live:
                live.remove(worker)
            if worker in self._workers:
                self._workers.remove(worker)
            worker.dead = True
            worker.channel.close()
            requeued = sorted(worker.inflight.items())
            worker.inflight.clear()
            worker.sent_at.clear()
            if requeued:
                pending.extendleft(reversed(requeued))

        def refill(worker: WorkerConnection) -> None:
            room = self._window(worker, live) - len(worker.inflight)
            if room <= 0 or not pending:
                return
            batch = [pending.popleft() for _ in range(min(room, len(pending)))]
            try:
                worker.send_batch(batch)
            except WireError:
                # Requeue this batch exactly once, here; the reader's
                # "gone" event (if any is still in flight) finds an empty
                # inflight map afterwards.
                for index, task in reversed(batch):
                    worker.inflight.pop(index, None)
                    worker.sent_at.pop(index, None)
                    pending.appendleft((index, task))
                drop(worker)

        def attach(worker: WorkerConnection) -> None:
            """Fold a (possibly brand-new) connection into this run."""
            if worker.dead:
                drop(worker)
                return
            worker.inflight.clear()
            worker.sent_at.clear()
            worker.events = events
            if not worker.reader_started:
                worker.reader_started = True
                self._start_reader(worker)
            if not worker.initialized:
                try:
                    worker.send_init(self.spec)
                except WireError:
                    drop(worker)
                    return
            live.append(worker)
            refill(worker)

        def adopt_newcomers() -> None:
            if self.registry is None:
                return
            newcomer = self.registry.adopt()
            while newcomer is not None:
                self._workers.append(newcomer)
                attach(newcomer)
                newcomer = self.registry.adopt()

        for worker in list(self._workers):
            attach(worker)
        while len(done) < len(items):
            adopt_newcomers()
            if not live:
                replacement = self._wait_for_replacement()
                if replacement is None:
                    raise RemoteWorkerError(
                        f"all remote workers are gone with "
                        f"{len(items) - len(done)} tasks unfinished"
                    )
                self._workers.append(replacement)
                attach(replacement)
                continue
            try:
                # A bounded wait (registry only): newly registered
                # workers must be adopted even while every live worker is
                # deep in a long prover task and no event is coming.
                kind, worker, *rest = events.get(
                    timeout=_ADOPTION_POLL if self.registry is not None else None
                )
            except queue.Empty:
                continue
            if kind == "result":
                index, wall, payload = rest
                worker.inflight.pop(index, None)
                sent = worker.sent_at.pop(index, None)
                worker.observe_answer(
                    wall, time.monotonic() - sent if sent is not None else None
                )
                refill(worker)
                if index in done:
                    continue  # belt: a verdict can only count once
                done.add(index)
                yield index, worker.label, wall, decode_payload(payload)
            elif kind == "error":
                index, message = rest
                label = worker.label
                # Drop every connection before raising: the abandoned
                # generator must not leak sockets and reader threads on
                # the surviving workers.
                self.close()
                raise RemoteWorkerError(
                    f"worker {label} failed on task {index}: {message}"
                )
            else:  # "gone"
                drop(worker)
                for survivor in list(live):
                    refill(survivor)

    def close(self, cancel_futures: bool = False) -> None:
        """Say goodbye to every worker and drop the connections.  (The
        ``cancel_futures`` flag is part of the backend surface; remote
        workers drop queued batches when the connection closes.)"""
        for worker in self._workers:
            worker.close()
        self._workers = []
        self._dialed = False

    def worker_metrics(self) -> list[dict]:
        """Per-connection scheduling metrics (latency EWMA + histogram),
        JSON-ready for the daemon's ``metrics`` op.  Iterates a list()
        snapshot: the op is lock-free and a mid-run drop/adopt mutates
        ``_workers`` concurrently."""
        return [worker.metrics() for worker in list(self._workers)]

    # -- internals ---------------------------------------------------------------

    def _window(self, worker: WorkerConnection, peers: list[WorkerConnection]) -> int:
        """The worker's current in-flight window, between 1 and
        ``batch_size``.

        Throughput is estimated by the EWMA of *worker-reported* per-task
        wall time: a worker ``k`` times slower than the fastest live peer
        gets roughly ``batch_size / k`` tasks in flight.  (Service time,
        not coordinator-side sojourn: sojourn includes queueing behind the
        worker's own window, which would feed the window back into itself
        and oscillate.)  An unmeasured worker (no answer yet) gets the
        full window -- the first answers are what calibrate it.  With
        homogeneous workers every ratio is ~1 and the windows stay at
        ``batch_size``, the pre-PR-5 behaviour.
        """
        ewma = worker.ewma_task_wall
        if ewma is None or ewma <= 0.0:
            return self.batch_size
        fastest = min(
            (
                peer.ewma_task_wall
                for peer in peers
                if peer.ewma_task_wall is not None and peer.ewma_task_wall > 0.0
            ),
            default=ewma,
        )
        scaled = int(self.batch_size * fastest / ewma + 0.5)
        return max(1, min(self.batch_size, scaled))

    def _dial(self, address: str) -> WorkerConnection:
        try:
            sock = connect_address(address, timeout=self.connect_timeout)
        except OSError as exc:
            raise RemoteWorkerError(
                f"cannot reach worker at {format_address(address)}: {exc}"
            ) from exc
        channel = LineChannel(sock)
        try:
            handshake_connect(channel, self.secret, role="coordinator")
            hello = channel.recv()
            if not isinstance(hello, dict) or hello.get("op") != "hello":
                raise WireError("worker did not introduce itself")
        except (WireError, HandshakeError) as exc:
            channel.close()
            raise RemoteWorkerError(
                f"handshake with worker at {format_address(address)} "
                f"failed: {exc}"
            ) from exc
        # The connect timeout bounded dial + handshake; from here on the
        # connection must block indefinitely (prover work and warm-daemon
        # idle periods both legitimately exceed any fixed deadline).
        sock.settimeout(None)
        return WorkerConnection(
            channel,
            hello,
            address=address,
            origin=f"dial {format_address(address)}",
        )

    def _ensure_workers(self, minimum: int) -> None:
        self._workers = [w for w in self._workers if not w.dead]
        if not self._dialed:
            # First use fails fast: an unreachable configured worker is a
            # configuration error, not a mid-run crash.
            self._dialed = True
            for address in self.addresses:
                self._workers.append(self._dial(address))
        else:
            # Between runs, quietly re-dial addresses whose connection
            # died -- a restarted worker process rejoins the next run.
            connected = {worker.address for worker in self._workers}
            for address in self.addresses:
                if address not in connected:
                    try:
                        self._workers.append(self._dial(address))
                    except RemoteWorkerError:
                        pass
        if self.registry is not None:
            while True:
                worker = self.registry.adopt()
                if worker is None:
                    break
                self._workers.append(worker)
            while len(self._workers) < minimum:
                worker = self.registry.adopt(timeout=_REPLACEMENT_WAIT)
                if worker is None:
                    raise RemoteWorkerError(
                        f"no worker registered at {self.registry.address} "
                        f"within {_REPLACEMENT_WAIT:.0f}s"
                    )
                self._workers.append(worker)
        if minimum and not self._workers:
            raise RemoteWorkerError("no remote workers available")
        self.jobs = max(1, len(self._workers))

    @staticmethod
    def _start_reader(worker: WorkerConnection) -> None:
        """The connection's single, life-long reader thread.

        It pushes into ``worker.events`` *read at push time*, so the same
        thread feeds every successive run on a warm connection.  On EOF
        or error it marks the worker dead and exits; a run that attaches
        the corpse later sees the flag.
        """

        def read_loop() -> None:
            while True:
                try:
                    message = worker.channel.recv()
                except WireError as exc:
                    worker.dead = True
                    worker.events.put(("gone", worker, str(exc)))
                    return
                if message is None:
                    worker.dead = True
                    worker.events.put(("gone", worker, "worker hung up"))
                    return
                op = message.get("op")
                if op == "result":
                    worker.events.put(
                        (
                            "result",
                            worker,
                            message.get("index"),
                            float(message.get("wall", 0.0)),
                            message.get("payload"),
                        )
                    )
                elif op == "error":
                    worker.events.put(
                        (
                            "error",
                            worker,
                            message.get("index"),
                            message.get("error", "unknown worker error"),
                        )
                    )
                # Anything else (future extensions) is ignored.

        threading.Thread(
            target=read_loop,
            name=f"jahob-remote-{worker.label}",
            daemon=True,
        ).start()

    def _wait_for_replacement(self) -> WorkerConnection | None:
        if self.registry is None:
            return None
        return self.registry.adopt(timeout=_REPLACEMENT_WAIT)
