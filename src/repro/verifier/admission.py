"""Admission control for the daemon's engine ops.

The portfolio's caches and counters are single-writer, so one engine op
runs at a time.  :class:`AdmissionController` is the one bounded queue in
front of that slot.  Every engine-driving request passes through
:meth:`~AdmissionController.admit` before it may touch the engine:

* **bounded queue with priority lanes** -- a busy engine queues the
  request in its lane (``interactive`` ahead of ``batch``, FIFO within a
  lane) up to ``queue_limit`` waiters; beyond that the request is
  rejected with ``code="queue_full"``.  With ``nowait`` a busy engine is
  answered at once with ``code="busy"``.  The batch lane cannot starve:
  once its head has waited through :data:`BATCH_AGING` interactive
  admissions, it goes next.
* **structured rejections** -- every rejection carries the same shape,
  ``{"ok": false, "busy": true, "code": ..., "retry_after": 1.0,
  "error": ...}`` (:func:`rejection_response`), used verbatim by the
  socket protocol and mapped to ``429 Too Many Requests`` plus a
  ``Retry-After: 1`` header by the HTTP layer (:mod:`repro.verifier.http`).

The controller wraps (it does not replace) a plain :class:`threading.Lock`
guarding the engine: the winner of admission holds that lock until
:meth:`~AdmissionController.release`.  Waiters poll the lock rather than
rely exclusively on hand-off, so code that grabs the raw lock directly
(tests, the daemon's own shutdown path) cannot strand the queue.
"""

from __future__ import annotations

import contextlib
import threading
from collections import deque
from dataclasses import dataclass

__all__ = [
    "BATCH_AGING",
    "PRIORITY_LANES",
    "REJECTION_CODES",
    "RETRY_AFTER",
    "AdmissionDecision",
    "AdmissionController",
    "rejection_response",
]

#: The priority classes, highest first.  A lower lane's waiters are
#: served while every higher lane is empty, and the batch lane's head
#: also once :data:`BATCH_AGING` interactive admissions passed it.
PRIORITY_LANES = ("interactive", "batch")

#: How many interactive admissions a waiting batch request lets pass
#: before the batch lane's head goes next.  At 4, eight closed-loop
#: clients (four batch) kept interactive p90 at 391 ms against 576 ms
#: under FIFO, and batch p50 fell from 6.3 s (strict lanes) to 1.2 s;
#: docs/performance.md section 9 has the runs.
BATCH_AGING = 4

#: Every ``code`` a rejection can carry, for the docs drift check and the
#: HTTP status mapping (both are answered 429 over HTTP).
REJECTION_CODES = ("busy", "queue_full")

#: The ``retry_after`` hint (seconds) every rejection carries.
RETRY_AFTER = 1.0

#: How often a queued waiter re-checks the engine lock.  Hand-off via the
#: condition variable is the fast path; the poll is the safety net against
#: direct lock users.
_QUEUE_POLL = 0.05


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one :meth:`AdmissionController.admit` call.

    ``admitted`` means the caller now holds the engine slot and must call
    :meth:`AdmissionController.release` when done.  Otherwise ``code`` is
    one of :data:`REJECTION_CODES`.
    """

    admitted: bool
    code: str | None = None
    message: str = ""


def rejection_response(decision: AdmissionDecision) -> dict:
    """The one structured error shape both transports answer with.

    ``busy`` stays ``True`` for every rejection flavour so clients that
    only know the busy bit keep working; others switch on ``code``.
    """
    return {
        "ok": False,
        "busy": True,
        "code": decision.code,
        "retry_after": RETRY_AFTER,
        "error": decision.message,
    }


class AdmissionController:
    """Bounded, prioritized admission to one engine slot.

    ``queue_limit`` bounds the number of *waiting* requests (the running
    one is not counted).
    """

    def __init__(self, queue_limit: int = 16) -> None:
        self.queue_limit = max(0, int(queue_limit))
        self.lock = threading.Lock()
        self._cond = threading.Condition()
        self._lanes: dict[str, deque[object]] = {
            lane: deque() for lane in PRIORITY_LANES
        }
        self.admitted_total = 0
        #: Interactive admissions since the batch lane's head became its
        #: head (queued into an empty lane, or the previous head admitted).
        self._batch_passed_over = 0
        self.rejected: dict[str, int] = {code: 0 for code in REJECTION_CODES}
        self.peak_depth = 0

    def admit(
        self, priority: str = "interactive", nowait: bool = False
    ) -> AdmissionDecision:
        """Try to claim the engine slot at ``priority``.

        Blocks while queued (unless ``nowait``); returns an admitted
        decision once the slot is held, or a rejection that never blocked.
        ``priority`` must be one of :data:`PRIORITY_LANES` -- the caller
        validates user input; this method trusts it.
        """
        with self._cond:
            if not self._waiting() and self.lock.acquire(blocking=False):
                self.admitted_total += 1
                return AdmissionDecision(True)
            if nowait:
                self.rejected["busy"] += 1
                return AdmissionDecision(
                    False,
                    code="busy",
                    message="daemon busy: the engine is serving another "
                    "request (drop 'nowait' to queue)",
                )
            depth = self._waiting()
            if depth >= self.queue_limit:
                self.rejected["queue_full"] += 1
                return AdmissionDecision(
                    False,
                    code="queue_full",
                    message=f"daemon overloaded: admission queue is full "
                    f"({depth} waiting)",
                )
            # Only requests count toward the peak: a teardown waiter in
            # exclusive() is not load.
            self.peak_depth = max(self.peak_depth, depth + 1)
            self._wait_for_slot(priority)
            return AdmissionDecision(True)

    def release(self) -> None:
        """Give the engine slot back and wake the next waiter (if any)."""
        with self._cond:
            self.lock.release()
            self._cond.notify_all()

    @contextlib.contextmanager
    def exclusive(self):
        """Internal blocking access to the engine slot (shutdown paths).

        Queues like an interactive request but bypasses the queue bound --
        teardown must never be load-shed.
        """
        with self._cond:
            self._wait_for_slot("interactive")
        try:
            yield
        finally:
            self.release()

    def snapshot(self) -> dict:
        """JSON-ready admission state for the daemon's ``metrics`` op."""
        with self._cond:
            return {
                "queue_limit": self.queue_limit,
                "queued": {
                    lane: len(queue) for lane, queue in self._lanes.items()
                },
                "busy": self.lock.locked(),
                "admitted": self.admitted_total,
                "rejected": dict(self.rejected),
                "peak_depth": self.peak_depth,
            }

    def _wait_for_slot(self, lane: str) -> None:
        """Queue in ``lane`` and block until this waiter holds the lock.

        The caller holds ``self._cond``.
        """
        ticket = object()
        queue = self._lanes[lane]
        queue.append(ticket)
        if lane == "batch" and len(queue) == 1:
            self._batch_passed_over = 0
        try:
            while not (self._head() is ticket and self.lock.acquire(blocking=False)):
                self._cond.wait(_QUEUE_POLL)
        except BaseException:
            # A waiter dying (interpreter shutdown, injected test failure)
            # must not leave a ghost ticket at the head of its lane,
            # wedging every later request.
            queue.remove(ticket)
            self._cond.notify_all()
            raise
        queue.popleft()
        self.admitted_total += 1
        if lane != "interactive":
            self._batch_passed_over = 0
        elif self._lanes["batch"]:
            self._batch_passed_over += 1

    def _waiting(self) -> int:
        return sum(len(queue) for queue in self._lanes.values())

    def _head(self) -> object | None:
        batch = self._lanes["batch"]
        if batch and self._batch_passed_over >= BATCH_AGING:
            return batch[0]
        for lane in PRIORITY_LANES:
            if self._lanes[lane]:
                return self._lanes[lane][0]
        return None
