"""The end-to-end verification engine, scheduling, serving and reporting."""

from .daemon import DaemonError, VerifierDaemon
from .engine import ClassReport, MethodReport, SequentOutcome, VerificationEngine
from .pipeline import ClassScheduleStats, ProverPool, RunRecord, WorkerLoad
from .report import (
    Table1Row,
    Table2Row,
    format_run,
    format_table1,
    format_table2,
    format_verify,
    table1_rows,
    table2_rows,
)
from .stats import ClassStatistics, class_statistics
from .strip import strip_proofs_from_class, strip_proofs_from_method

__all__ = [name for name in dir() if not name.startswith("_")]
