"""Admission control: bounded queue, priority lanes, tenancy.

Exercises :mod:`repro.verifier.admission` directly (no sockets) plus the
tenant-namespace mechanics of :class:`repro.provers.cache.ProofCache`.
The daemon- and HTTP-level integration is covered by
``test_daemon_concurrent.py`` and ``test_http.py``.
"""

from __future__ import annotations

import json
import threading
import time

from repro.logic import builder as b
from repro.provers.cache import (
    CachedVerdict,
    ProofCache,
    fingerprint_from_json,
    fingerprint_to_json,
    task_fingerprint,
)
from repro.provers.result import ProofTask
from repro.verifier.admission import (
    BATCH_AGING,
    PRIORITY_LANES,
    REJECTION_CODES,
    AdmissionController,
    rejection_response,
)

_WAIT = 5.0


def _eventually(predicate, timeout=_WAIT):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _queue_waiter(controller, lane, name, order, threads):
    """Start a thread that queues in ``lane`` and appends ``name`` to
    ``order`` once admitted; returns when the request is queued."""
    queued = controller.snapshot()["queued"][lane]

    def waiter():
        controller.admit(priority=lane)
        order.append(name)

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    threads.append(thread)
    assert _eventually(lambda: controller.snapshot()["queued"][lane] == queued + 1)


class TestAdmit:
    def test_fast_path_and_release(self):
        controller = AdmissionController(queue_limit=4)
        decision = controller.admit()
        assert decision.admitted
        assert controller.lock.locked()
        assert controller.snapshot()["busy"] is True
        controller.release()
        assert controller.snapshot()["busy"] is False
        assert controller.snapshot()["admitted"] == 1

    def test_nowait_busy_rejection_is_structured(self):
        controller = AdmissionController(queue_limit=4)
        assert controller.admit().admitted
        decision = controller.admit(nowait=True)
        assert not decision.admitted
        assert decision.code == "busy"
        response = rejection_response(decision)
        assert response["ok"] is False
        assert response["busy"] is True
        assert response["code"] == "busy"
        assert response["retry_after"] == 1.0
        assert "busy" in response["error"]
        controller.release()

    def test_queue_full_rejection(self):
        controller = AdmissionController(queue_limit=1)
        assert controller.admit().admitted
        granted = threading.Event()

        def waiter():
            controller.admit()
            granted.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        assert _eventually(
            lambda: controller.snapshot()["queued"]["interactive"] == 1
        )
        # The queue is full: the next request is rejected immediately,
        # it does not block.
        decision = controller.admit()
        assert not decision.admitted
        assert decision.code == "queue_full"
        assert rejection_response(decision)["retry_after"] == 1.0
        assert controller.snapshot()["rejected"]["queue_full"] == 1
        controller.release()
        assert granted.wait(_WAIT)
        controller.release()
        thread.join(_WAIT)

    def test_priority_lane_ordering_under_contention(self):
        controller = AdmissionController(queue_limit=8)
        assert controller.admit().admitted
        order: list[str] = []
        done: list[threading.Thread] = []

        def waiter(lane: str):
            controller.admit(priority=lane)
            order.append(lane)
            controller.release()

        # The batch request queues FIRST; the interactive one arrives
        # later and must still be served first.
        for lane in ("batch", "interactive"):
            thread = threading.Thread(target=waiter, args=(lane,), daemon=True)
            thread.start()
            done.append(thread)
            assert _eventually(
                lambda lane=lane: controller.snapshot()["queued"][lane] == 1
            )
        controller.release()
        for thread in done:
            thread.join(_WAIT)
        assert order == ["interactive", "batch"]

    def test_batch_request_ages_past_a_stream_of_interactive_ones(self):
        controller = AdmissionController(queue_limit=16)
        assert controller.admit().admitted
        order: list[str] = []
        threads: list[threading.Thread] = []
        # The batch request queues first, then a stream that keeps the
        # interactive lane busy: one new arrival per admission.  The slot is
        # released one admission at a time, on behalf of whoever holds it.
        _queue_waiter(controller, "batch", "batch", order, threads)
        _queue_waiter(controller, "interactive", "i0", order, threads)
        for step in range(BATCH_AGING + 4):
            if step < BATCH_AGING + 2:
                _queue_waiter(controller, "interactive", f"i{step + 1}", order, threads)
            controller.release()
            assert _eventually(lambda step=step: len(order) == step + 1)
        controller.release()
        for thread in threads:
            thread.join(_WAIT)
        interactive = [f"i{n}" for n in range(BATCH_AGING + 3)]
        expected = interactive[:BATCH_AGING] + ["batch"] + interactive[BATCH_AGING:]
        assert order == expected
        assert controller.snapshot()["queued"] == {"interactive": 0, "batch": 0}

    def test_each_batch_request_lets_the_same_number_pass(self):
        # Aging restarts for the next batch head: after one batch
        # admission, interactive requests go first again.
        controller = AdmissionController(queue_limit=16)
        assert controller.admit().admitted
        order: list[str] = []
        threads: list[threading.Thread] = []
        interactive = [f"i{n}" for n in range(2 * BATCH_AGING + 1)]
        for name in ["b0", "b1"]:
            _queue_waiter(controller, "batch", name, order, threads)
        for name in interactive:
            _queue_waiter(controller, "interactive", name, order, threads)
        for step in range(len(threads)):
            controller.release()
            assert _eventually(lambda step=step: len(order) == step + 1)
        controller.release()
        for thread in threads:
            thread.join(_WAIT)
        assert order == (
            interactive[:BATCH_AGING]
            + ["b0"]
            + interactive[BATCH_AGING : 2 * BATCH_AGING]
            + ["b1"]
            + interactive[2 * BATCH_AGING :]
        )

    def test_direct_lock_users_cannot_strand_the_queue(self):
        # Internal code (and older tests) grab the raw engine lock
        # without going through admit(); queued waiters must still make
        # progress once it is released.
        controller = AdmissionController(queue_limit=4)
        assert controller.lock.acquire(blocking=False)
        granted = threading.Event()

        def waiter():
            controller.admit()
            granted.set()
            controller.release()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        assert _eventually(
            lambda: controller.snapshot()["queued"]["interactive"] == 1
        )
        controller.lock.release()  # raw release: no notify, poll must catch it
        assert granted.wait(_WAIT)
        thread.join(_WAIT)


    def test_exclusive_bypasses_the_queue_bound(self):
        # Teardown must never be load-shed: with no queue room at all,
        # admit() is turned away but exclusive() waits its turn.
        controller = AdmissionController(queue_limit=0)
        assert controller.admit().admitted
        assert controller.admit().code == "queue_full"
        inside = threading.Event()

        def teardown():
            with controller.exclusive():
                inside.set()

        thread = threading.Thread(target=teardown, daemon=True)
        thread.start()
        assert _eventually(
            lambda: controller.snapshot()["queued"]["interactive"] == 1
        )
        assert not inside.is_set()
        controller.release()
        assert inside.wait(_WAIT)
        thread.join(_WAIT)
        assert controller.snapshot()["busy"] is False

    def test_peak_depth_counts_requests_not_teardown(self):
        controller = AdmissionController(queue_limit=4)
        assert controller.admit().admitted
        queued = threading.Thread(target=controller.admit, daemon=True)
        queued.start()
        assert _eventually(lambda: controller.snapshot()["peak_depth"] == 1)

        def teardown():
            with controller.exclusive():
                pass

        closing = threading.Thread(target=teardown, daemon=True)
        closing.start()
        assert _eventually(
            lambda: controller.snapshot()["queued"]["interactive"] == 2
        )
        assert controller.snapshot()["peak_depth"] == 1
        controller.release()  # to the queued request
        queued.join(_WAIT)
        controller.release()  # its turn ends; teardown runs
        closing.join(_WAIT)
        assert controller.snapshot()["busy"] is False
        assert controller.snapshot()["peak_depth"] == 1

    def test_dying_waiter_leaves_no_ghost_ticket(self):
        controller = AdmissionController(queue_limit=4)
        assert controller.admit().admitted
        failures: list[BaseException] = []

        def doomed():
            try:
                controller.admit()
            except RuntimeError as exc:
                failures.append(exc)

        real_wait = controller._cond.wait

        def failing_wait(timeout=None):
            raise RuntimeError("injected waiter failure")

        controller._cond.wait = failing_wait
        try:
            thread = threading.Thread(target=doomed, daemon=True)
            thread.start()
            thread.join(_WAIT)
        finally:
            controller._cond.wait = real_wait
        assert len(failures) == 1
        assert controller.snapshot()["queued"] == {"interactive": 0, "batch": 0}
        controller.release()
        # The dead waiter's ticket is gone, so the fast path is open.
        assert controller.admit(nowait=True).admitted
        controller.release()

    def test_snapshot_fields(self):
        snapshot = AdmissionController(queue_limit=3).snapshot()
        assert snapshot == {
            "queue_limit": 3,
            "queued": {"interactive": 0, "batch": 0},
            "busy": False,
            "admitted": 0,
            "rejected": {"busy": 0, "queue_full": 0},
            "peak_depth": 0,
        }


class TestRejectionShape:
    def test_codes_are_the_documented_set(self):
        assert set(REJECTION_CODES) == {"busy", "queue_full"}
        assert PRIORITY_LANES == ("interactive", "batch")


def _task() -> ProofTask:
    return ProofTask(
        (("h", b.Lt(b.IntVar("x"), b.IntVar("y"))),),
        b.Lt(b.IntVar("x"), b.IntVar("y")),
    )


class TestTenantNamespaces:
    def test_isolation_between_tenants(self):
        cache = ProofCache()
        task = _task()
        verdict = CachedVerdict(proved=True, refuted=False, winning_prover="smt")
        cache.namespace = "alice"
        cache.store(cache.key(task), verdict)
        assert cache.lookup(cache.key(task)) is verdict
        # Neither another tenant nor the anonymous namespace sees it.
        cache.namespace = "bob"
        assert cache.lookup(cache.key(task)) is None
        cache.namespace = ""
        assert cache.lookup(cache.key(task)) is None

    def test_anonymous_namespace_is_the_legacy_key(self):
        cache = ProofCache()
        task = _task()
        assert cache.key(task) == task_fingerprint(task)

    def test_namespaced_key_round_trips_the_store_encoding(self):
        # Tenant keys must survive the persistent store's JSON encoding
        # exactly, or a warm restart would leak verdicts across tenants.
        cache = ProofCache()
        cache.namespace = "alice"
        key = cache.key(_task())
        encoded = json.loads(json.dumps(fingerprint_to_json(key)))
        assert fingerprint_from_json(encoded) == key

    def test_engine_bracketing(self):
        from repro.verifier.engine import VerificationEngine

        engine = VerificationEngine(use_proof_cache=True, persist=False)
        try:
            cache = engine.portfolio.proof_cache
            engine.set_cache_namespace("alice")
            assert cache.namespace == "alice"
            engine.set_cache_namespace("")
            assert cache.namespace == ""
        finally:
            engine.close()
