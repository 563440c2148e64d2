"""The verification engine, reports and table generation."""

import pytest

from repro.provers.dispatch import default_portfolio
from repro.suite.common import StructureBuilder
from repro.verifier import (
    VerificationEngine,
    format_table1,
    format_table2,
    table1_rows,
)
from repro.verifier.report import Table2Row, format_table


def build_toy():
    s = StructureBuilder("Toy")
    s.concrete("value", "int")
    s.invariant("NonNegative", "0 <= value")
    m = s.method(
        "bump",
        requires="value < 100",
        modifies="value",
        ensures="value = old value + 1",
    )
    m.assign("value", "value + 1")
    m.done()
    m = s.method(
        "broken",
        modifies="value",
        ensures="value = old value + 1",
    )
    m.assign("value", "value - 1")  # does not satisfy its contract
    m.done()
    return s.build()


class TestEngine:
    def test_method_report_contents(self):
        toy = build_toy()
        engine = VerificationEngine()
        report = engine.verify_method(toy, toy.method("bump"))
        assert report.verified
        assert report.sequents_total == report.sequents_proved > 0
        assert all(outcome.prover for outcome in report.outcomes)

    def test_incorrect_method_fails(self):
        toy = build_toy()
        engine = VerificationEngine()
        report = engine.verify_method(toy, toy.method("broken"))
        assert not report.verified
        assert report.failed_sequents

    def test_class_report_aggregation(self):
        toy = build_toy()
        engine = VerificationEngine()
        report = engine.verify_class(toy)
        assert report.methods_total == 2
        assert report.methods_verified == 1
        assert not report.verified
        assert report.sequents_total == sum(m.sequents_total for m in report.methods)
        assert report.elapsed > 0


class TestReports:
    def test_table1_rows_without_engine(self):
        rows = table1_rows([build_toy()])
        assert len(rows) == 1
        assert rows[0].methods == 2
        text = format_table1(rows)
        assert "Toy" in text and "note" in text.lower()

    def test_table2_formatting(self):
        row = Table2Row(
            class_name="Toy",
            methods_without=1,
            methods_total=2,
            sequents_without=5,
            sequents_total_without=8,
            methods_with=2,
            sequents_with=8,
            sequents_total_with=8,
        )
        text = format_table2([row])
        assert "1 of 2" in text and "5 of 8" in text

    def test_generic_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) <= 2


class TestCli:
    def test_cli_list(self, capsys):
        from repro.verifier.cli import main

        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "Linked List" in output and "Hash Table" in output

    def test_cli_interrupted_run_keeps_its_finished_verdicts(
        self, capsys, monkeypatch, tmp_path
    ):
        # Verdicts reach the store at checkpoints and at the end of a run;
        # an interrupt in between must still flush what already finished.
        from repro.provers.dispatch import ProverPortfolio
        from repro.verifier.cli import main

        finished = []
        run_provers = ProverPortfolio.run_provers

        def interrupt_at_eleventh(portfolio, task):
            if len(finished) == 10:
                raise KeyboardInterrupt
            result = run_provers(portfolio, task)
            finished.append(result)
            return result

        monkeypatch.setattr(ProverPortfolio, "run_provers", interrupt_at_eleventh)
        argv = ["--timeout-scale", "0.4", "--cache-dir", str(tmp_path)]
        with pytest.raises(KeyboardInterrupt):
            main(argv + ["verify", "Array List"])
        monkeypatch.undo()
        capsys.readouterr()
        engine = VerificationEngine(
            default_portfolio().scaled(0.4), cache_dir=tmp_path, persist=False
        )
        assert engine.persistent_store.last_load_status.startswith("warm:")
        assert len(engine.portfolio.proof_cache) == len(finished) == 10

    def test_cli_local_run_never_reads_the_secret(self, capsys, tmp_path):
        # The shared secret authenticates TCP peers only; a local run has
        # none, so an unreadable --secret-file must not stop it.
        from repro.verifier.cli import main

        missing = tmp_path / "no-such-secret"
        assert main(["--secret-file", str(missing), "list"]) == 0
        captured = capsys.readouterr()
        assert "Linked List" in captured.out
        assert "secret" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--connect", "{sock}", "--secret-file", "{missing}", "list"],
            ["serve", "--socket", "{sock}", "--secret-file", "{missing}"],
        ],
        ids=["connect", "serve"],
    )
    def test_cli_tcp_capable_commands_still_read_the_secret(
        self, argv, capsys, tmp_path
    ):
        # The commands that can speak TCP load the secret before doing
        # anything else, so an unreadable file is a usage error up front.
        from repro.verifier.cli import main

        paths = {"sock": tmp_path / "j.sock", "missing": tmp_path / "no-secret"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert "cannot read --secret-file" in capsys.readouterr().err
        assert not paths["sock"].exists()
