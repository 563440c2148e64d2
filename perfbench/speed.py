"""Timings in seconds at a fixed reference machine speed.

On a shared virtual machine the same pure-Python work can take twice as
long from one minute to the next: how fast the vCPUs run depends on what
their neighbours on the host are doing.  The speed drifts slowly (tens of
seconds), so a longer run does not average it away, and on top of that it
flips between a fast and a slow state several times a second; both moves
hit both vCPUs together.  So :class:`SpeedSampler` times a fixed Python
probe -- code independent of the verifier, so no change to ``src/`` can
speed it up -- in a process of its own, so the verifier's heap and garbage
collector cannot slow it down.

The probe never runs beside the verifier.  The workload calls
:meth:`SpeedSampler.checkpoint` (one sample) or :meth:`SpeedSampler.burst`
(several, spread over a few tenths of a second) where no verifier work is
in flight -- between classes, between prover runs, between request rounds
-- and the benchmark waits for them; the wait is cut out of every interval
the sampler converts.  So the probe does not share the CPUs, the caches or
the memory bandwidth with the verifier, and a change to the verifier
cannot move the probe.  A wall interval then counts
``integral of REFERENCE_PROBE_S / probe(t) dt`` reference seconds.  One
sample catches the machine in one of its two states, so each sample's
factor is first replaced by the mean of :data:`SMOOTHING_SAMPLES`
neighbouring samples, and the factor is linear between samples.

Two kinds of time are charged unscaled, because machine speed does not
change them: the CPU-second budget a prover runs out when it times out,
and ``os.fsync``.  The raw wall time is kept too, in the run's record.

Run as a script, this module is the probe process: for every line it reads
it prints one ``<speed factor>`` line, until its standard input closes.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

#: The probe duration that defines the reference speed (about what one
#: probe takes on an idle 2-vCPU Xeon virtual machine at its usual speed).
REFERENCE_PROBE_S = 0.007
#: Least wall time between two probes taken by :meth:`SpeedSampler.checkpoint`
#: (the default; a sampler may be given a longer one).
PROBE_INTERVAL_S = 0.25
#: Probe repetitions per sample; the median counts, so one preemption does
#: not read as a slow machine.
PROBE_REPEATS = 3
#: Samples in a burst, and the sleep between two of them: a burst sees the
#: machine over a few tenths of a second, in both its states.
BURST_PROBES = 5
BURST_GAP_S = 0.025
#: Consecutive samples whose mean stands for the middle one.
SMOOTHING_SAMPLES = 5
#: Probes the probe process runs for itself before it answers, so that a
#: fresh process (its memory not yet mapped) does not read as a slow machine.
WARM_UP_PROBES = 5
#: Size of the table the probe reads; large enough that, like the
#: verifier's term pools and caches, the probe's working set does not fit
#: the caches.  (A cache-resident probe tracks the verifier's speed worse.)
PROBE_TABLE_SIZE = 100_000


def _probe_work(table: array) -> int:
    """Build a tuple-keyed dict from strided reads of a large table: the
    allocation- and memory-bound mix the verifier's term and cache code
    spends its time on."""
    built = {}
    for index in range(0, PROBE_TABLE_SIZE, 7):
        built[(index, table[(index * 31) % PROBE_TABLE_SIZE])] = (index,)
    return sum(len(value) for value in built.values())


def speed_factor(table: array) -> float:
    """``REFERENCE_PROBE_S`` over the probe's duration right now (above 1
    when this machine is faster than the reference)."""
    durations = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _probe_work(table)
        durations.append(time.perf_counter() - start)
    return REFERENCE_PROBE_S / statistics.median(durations)


class SpeedSampler:
    """Owns the probe process for one measured stretch of work.

    Timestamps are ``time.monotonic()`` readings.  :meth:`start` and
    :meth:`stop` each take a burst in the idle windows around the work; in
    between the workload calls :meth:`checkpoint` or :meth:`burst` where no
    verifier work is in flight.  Afterwards :meth:`seconds` converts wall
    intervals.  While the sampler runs, ``os.fsync`` is timed so that its
    time can be charged unscaled.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S) -> None:
        self.interval = interval
        self._process: subprocess.Popen | None = None
        self._fsync = None
        #: ``(moment, factor)`` of every sample, in time order.
        self.samples: list[tuple[float, float]] = []
        #: Wall windows in which the work waited for samples.
        self.pauses: list[tuple[float, float]] = []
        #: ``(start, end, seconds)``: of the wall window ``[start, end]``,
        #: ``seconds`` are charged at face value rather than scaled.
        self.unscaled: list[tuple[float, float, float]] = []
        #: How many samples the opening and the closing burst took.
        self._opening = self._closing = 0
        self._smooth: list[float] = []

    # -- sampling ----------------------------------------------------------------

    def start(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.burst()
        except BaseException:
            self._end_process()
            raise
        self._opening = len(self.samples)
        self._fsync = os.fsync
        os.fsync = self._timed_fsync

    def _sample(self) -> None:
        began = time.monotonic()
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line.strip():
            raise RuntimeError("the speed probe process stopped answering")
        self.samples.append(((began + time.monotonic()) / 2.0, float(line)))

    def checkpoint(self) -> None:
        """One sample, if :attr:`interval` seconds have passed since the
        last; call only where no verifier work is in flight."""
        if time.monotonic() - self.pauses[-1][1] >= self.interval:
            began = time.monotonic()
            self._sample()
            self.pauses.append((began, time.monotonic()))

    def burst(self) -> None:
        """:data:`BURST_PROBES` samples spread over a few tenths of a second;
        call only where no verifier work is in flight (for example as a
        :class:`threading.Barrier` action)."""
        began = time.monotonic()
        for index in range(BURST_PROBES):
            if index:
                time.sleep(BURST_GAP_S)
            self._sample()
        self.pauses.append((began, time.monotonic()))

    def charge_unscaled(self, start: float, end: float, seconds: float) -> None:
        """Charge ``seconds`` of the wall window ``[start, end]`` unscaled."""
        if seconds > 0.0:
            self.unscaled.append((start, end, seconds))

    def _timed_fsync(self, fd) -> None:
        began = time.monotonic()
        try:
            self._fsync(fd)
        finally:
            ended = time.monotonic()
            self.charge_unscaled(began, ended, ended - began)

    def stop(self) -> None:
        """Take the closing burst, end the probe process and wait for it."""
        if self._fsync is not None:
            os.fsync, self._fsync = self._fsync, None
        if self._process is None:
            return
        try:
            if not self._closing:
                before = len(self.samples)
                self.burst()
                self._closing = len(self.samples) - before
        finally:
            self._end_process()

    def _end_process(self) -> None:
        process, self._process = self._process, None
        try:
            process.communicate(input="", timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
        if process.returncode != 0:
            raise RuntimeError("the speed probe process failed")

    # -- reading -----------------------------------------------------------------

    def record(self) -> dict:
        """The probe factors before, inside and after the measured work."""
        factors = [factor for _, factor in self.samples]
        inside = factors[self._opening : len(factors) - self._closing]
        return {
            "samples": len(factors),
            "factor_before": statistics.mean(factors[: self._opening]),
            "factor_during": statistics.mean(inside) if inside else None,
            "factor_after": (
                statistics.mean(factors[len(factors) - self._closing :])
                if self._closing
                else None
            ),
            "factors": [
                [round(moment - self.samples[0][0], 3), factor]
                for moment, factor in self.samples
            ],
        }

    def _smoothed(self) -> list[float]:
        """Each sample's factor as the mean of its neighbourhood."""
        if len(self._smooth) != len(self.samples):
            factors = [factor for _, factor in self.samples]
            width = min(SMOOTHING_SAMPLES, len(factors))
            self._smooth = []
            for index in range(len(factors)):
                first = min(max(0, index - width // 2), len(factors) - width)
                self._smooth.append(statistics.mean(factors[first : first + width]))
        return self._smooth

    def _factor(self, moment: float) -> float:
        """The smoothed speed factor at ``moment``, linear between samples."""
        factors = self._smoothed()
        index = bisect.bisect_left(self.samples, (moment,))
        if index == 0:
            return factors[0]
        if index == len(self.samples):
            return factors[-1]
        left, right = self.samples[index - 1][0], self.samples[index][0]
        share = (moment - left) / (right - left) if right > left else 0.0
        return factors[index - 1] + share * (factors[index] - factors[index - 1])

    def active_wall(self, start: float, end: float) -> float:
        """Wall seconds of ``[start, end]`` outside the probe pauses."""
        paused = sum(
            max(0.0, min(end, right) - max(start, left)) for left, right in self.pauses
        )
        return max(0.0, end - start - paused)

    def _scaled(self, start: float, end: float) -> float:
        """Reference seconds of ``[start, end]`` less the pauses, all scaled."""
        if end <= start:
            return 0.0
        cuts = sorted(
            {start, end}
            | {moment for pause in self.pauses for moment in pause if start < moment < end}
            | {moment for moment, _ in self.samples if start < moment < end}
        )
        total = 0.0
        for left, right in zip(cuts, cuts[1:]):
            middle = (left + right) / 2.0
            index = bisect.bisect_right(self.pauses, (middle,)) - 1
            if index >= 0 and self.pauses[index][1] > middle:
                continue  # inside a probe pause
            total += (right - left) * (self._factor(left) + self._factor(right)) / 2.0
        return total

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        total = self._scaled(start, end)
        for left, right, unscaled in self.unscaled:
            overlap = min(end, right) - max(start, left)
            if overlap <= 0.0:
                continue
            wall = self.active_wall(left, right)
            share = min(1.0, overlap / (right - left)) if right > left else 1.0
            mean_factor = self._scaled(left, right) / wall if wall > 0 else 1.0
            total += share * unscaled * (1.0 - mean_factor)
        return total


def _serve_samples() -> int:
    """The probe process: one factor line per request line until EOF."""
    table = array("l", range(PROBE_TABLE_SIZE))
    for _ in range(WARM_UP_PROBES):
        _probe_work(table)
    while sys.stdin.readline():
        print(f"{speed_factor(table):.6f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_serve_samples())
