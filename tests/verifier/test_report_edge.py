"""Edge-case coverage for the report renderers.

``format_run`` / ``format_verify`` were only exercised on happy-path runs;
these tests pin down the degenerate shapes a serving system actually
produces: empty classes, all-cache-hit runs that never start a worker,
and runs whose per-worker loads must add up to what was dispatched.
"""

from __future__ import annotations

import pytest

from repro.suite import structure_by_name
from repro.verifier.daemon import VerifierDaemon
from repro.verifier.engine import ClassReport, MethodReport, VerificationEngine
from repro.verifier.pipeline import ClassScheduleStats, RunRecord, WorkerLoad
from repro.verifier.report import format_metrics, format_run, format_verify


class TestFormatRun:
    def test_empty_run_renders(self):
        text = format_run(RunRecord(jobs=2))
        assert "Run plan (2 jobs" in text
        assert "sequents total      0" in text
        assert "dispatched          0" in text

    def test_all_cache_hit_run_has_no_workers(self):
        stats = RunRecord(jobs=4)
        stats.classes.append(
            ClassScheduleStats("Warm", sequents=40, hits_memory=30, hits_disk=10)
        )
        text = format_run(stats)
        assert "answered from cache 40 (memory 30, disk 10)" in text
        assert "worker " not in text  # nothing was dispatched

    def test_worker_pids_render_one_line_each(self):
        # Uneven load across two pool workers: each pid gets its own
        # line, and the per-worker loads add up to what was dispatched.
        stats = RunRecord(jobs=2)
        stats.classes.append(ClassScheduleStats("Pooled", sequents=10, dispatched=10))
        stats.fold_worker(101, 2, 0.3)
        stats.fold_worker(202, 8, 2.1)
        text = format_run(stats)
        assert text.splitlines()[0] == "Run plan (2 jobs)"
        assert "worker 101          2 sequents, 0.3s" in text
        assert "worker 202          8 sequents, 2.1s" in text
        assert sum(load.tasks for load in stats.workers) == stats.dispatched

    def test_empty_class_row_renders(self):
        stats = RunRecord(jobs=1)
        stats.classes.append(ClassScheduleStats(class_name="Empty Thing"))
        text = format_run(stats)
        assert "Empty Thing" in text
        # All-zero row: sequents, dispatched, cache, dup.
        row = next(
            line
            for line in text.splitlines()
            if line.strip().startswith("Empty Thing")
        )
        assert row.split()[-4:] == ["0", "0", "0", "0"]

    def test_all_cache_hit_class(self):
        stats = RunRecord(jobs=2)
        stats.classes.append(
            ClassScheduleStats(class_name="Warm Class", sequents=20, hits_memory=20)
        )
        text = format_run(stats)
        assert "answered from cache 20 (memory 20, disk 0)" in text
        row = next(
            line
            for line in text.splitlines()
            if line.strip().startswith("Warm Class")
        )
        assert row.split()[-3:] == ["0", "20", "0"]  # dispatched, cache, dup


class TestRunRecord:
    def test_fold_worker_accumulates_by_identity(self):
        stats = RunRecord(jobs=2)
        stats.fold_worker(1234, 1, 0.1)
        stats.fold_worker(1234, 2, 0.2)
        stats.fold_worker(5678, 1, 0.1)  # another pid is a new identity
        assert [load.pid for load in stats.workers] == [1234, 5678]
        assert stats.workers[0].tasks == 3
        assert stats.workers[0].prover_time == pytest.approx(0.3)
        assert isinstance(stats.workers[0], WorkerLoad)

    def test_merge_folds_worker_loads_by_pid(self):
        # Two runs on one warm pool: the same pid's loads accumulate.
        total = RunRecord(jobs=2)
        for pid, tasks in ((7, 2), (7, 1), (8, 3)):
            run = RunRecord(jobs=2)
            run.classes.append(ClassScheduleStats("A", tasks, dispatched=tasks))
            run.fold_worker(pid, tasks, 0.5)
            total.merge(run)
        assert [(load.pid, load.tasks) for load in total.workers] == [(7, 3), (8, 3)]
        assert total.sequents_total == total.dispatched == 6
        assert total.prover_time == pytest.approx(1.5)

    def test_merge_appends_classes(self):
        total = RunRecord(jobs=1)
        for name in ("A", "B"):
            run = RunRecord(jobs=1)
            run.classes.append(ClassScheduleStats(class_name=name))
            total.merge(run)
        assert [entry.class_name for entry in total.classes] == ["A", "B"]


class TestFormatMetrics:
    """Protocol 7 payloads, and older ones with the former cost fields
    (``cost_model``, a plan's ``order`` / ``cost`` / ``source``) or
    remote-worker fields (``workers``, a plan's ``backend``), render
    alike: every field is read with a default."""

    PLAN_ENTRY = {
        "class": "Array List",
        "sequents": 26,
        "dispatched": 20,
        "cache_hits": 6,
        "duplicates": 0,
    }

    def test_current_payload(self):
        payload = {
            "protocol": 7,
            "counters": {},
            "schedule": {"jobs": 1, "classes": [self.PLAN_ENTRY]},
        }
        text = format_metrics(payload)
        assert "Last run's plan (1 jobs)" in text
        row = next(line for line in text.splitlines() if "Array List" in line)
        assert row.split()[-4:] == ["26", "20", "6", "0"]

    def test_admission_section(self):
        payload = {
            "protocol": 8,
            "counters": {},
            "admission": {
                "queue_limit": 2,
                "queued": {"interactive": 1, "batch": 0},
                "busy": True,
                "admitted": 28,
                "rejected": {"busy": 0, "queue_full": 6},
                "peak_depth": 2,
            },
        }
        lines = format_metrics(payload).splitlines()
        start = lines.index("Admission (queue limit 2, peak depth 2)")
        assert lines[start + 1].split() == [
            "admitted", "28,", "rejected", "busy", "0,", "queue_full", "6"
        ]
        assert lines[start + 2].split() == [
            "queued", "now", "batch", "0,", "interactive", "1"
        ]

    def test_payload_with_cost_model_fields(self):
        payload = {
            "protocol": 6,
            "counters": {},
            "workers": [],
            "cost_model": {"classes": {"Array List": {"wall": 1.0}}},
            "schedule": {
                "jobs": 2,
                "backend": "process",
                "order": ["Array List"],
                "classes": [dict(self.PLAN_ENTRY, cost=0.4, source="static")],
            },
        }
        text = format_metrics(payload)
        assert "Last run's plan (2 jobs)" in text
        assert "Remote workers" not in text
        row = next(line for line in text.splitlines() if "Array List" in line)
        assert row.split()[-4:] == ["26", "20", "6", "0"]


class TestFormatVerify:
    def test_empty_class_report(self):
        text = format_verify(ClassReport("Empty"))
        assert text == "total: 0/0 sequents, 0/0 methods, 0.0s"

    def test_method_with_no_sequents(self):
        report = ClassReport("Thin")
        report.methods.append(MethodReport("Thin", "noop"))
        text = format_verify(report)
        assert "Thin.noop: 0/0 sequents" in text
        assert text.endswith("total: 0/0 sequents, 1/1 methods, 0.0s")


class TestDaemonEmptySuite:
    def test_suite_op_with_empty_names(self, tmp_path):
        daemon = VerifierDaemon(
            tmp_path / "x.sock", engine=VerificationEngine(persist=False)
        )
        try:
            response = daemon.handle({"op": "suite", "names": []})
            assert response["ok"]
            assert response["reports"] == []
            assert "Run plan" in response["output"]
        finally:
            daemon.close()

    def test_verify_op_unknown_name_is_clean(self, tmp_path):
        daemon = VerifierDaemon(
            tmp_path / "y.sock", engine=VerificationEngine(persist=False)
        )
        try:
            response = daemon.handle({"op": "verify", "name": "Nope"})
            assert not response["ok"] and "Nope" in response["error"]
        finally:
            daemon.close()

    def test_report_payload_shape(self, tmp_path):
        daemon = VerifierDaemon(
            tmp_path / "z.sock", engine=VerificationEngine(persist=False)
        )
        try:
            cls = structure_by_name("Linked List")
            response = daemon.handle({"op": "verify", "name": cls.name})
            assert response["ok"]
            payload = response["report"]
            assert payload["class"] == cls.name
            assert payload["sequents_total"] == sum(
                len(method["outcomes"]) for method in payload["methods"]
            )
        finally:
            daemon.close()
