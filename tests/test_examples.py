"""The example programs are live verifier inputs, not just scripts.

Every ``examples/*.py`` file must verify through the real ingestion path
-- ``jahob-py verify FILE`` -- exactly as a user would run it (the CLI's
``main`` is called in-process with the file path as the operand).  The
two richest examples keep their script-level smoke tests on top, since
their printed narratives (prover cooperation, soundness sweep) are part
of what they demonstrate.
"""

import ast
import pathlib
import re
import sys

import pytest

from repro.verifier.cli import main as cli_main

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES, ids=[path.stem for path in EXAMPLE_FILES]
)
def test_example_verifies_through_the_file_path(path, capsys):
    exit_code = cli_main(["--timeout-scale", "0.4", "verify", str(path)])
    output = capsys.readouterr().out
    assert exit_code == 0, output
    summary = output.splitlines()[-1]
    assert summary.startswith(str(path)) and "class models verified" in summary
    assert "FAILED" not in output


@pytest.fixture()
def _examples_on_path():
    sys.path.insert(0, str(EXAMPLES_DIR))
    yield
    sys.path.remove(str(EXAMPLES_DIR))


def test_soundness_example_checks_every_construct(_examples_on_path, capsys):
    import soundness_check

    soundness_check.main()
    output = capsys.readouterr().out
    assert "all constructs verified" in output
    assert "NOT PROVED" not in output


def test_cooperation_example_runs_every_portfolio(_examples_on_path, capsys):
    """Each line names a non-empty line-up, and the full portfolio proves
    strictly more than either prover alone -- the example's point."""
    import multi_prover_cooperation

    multi_prover_cooperation.main(timeout_scale=0.1)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    proved = []
    for line in lines:
        portfolio, rest = line.split("portfolio: ", 1)[1].split(", attempts: ")
        attempts = ast.literal_eval(rest.split(", provers used")[0])
        assert portfolio and attempts, line
        proved.append(int(re.search(r"(\d+)/\d+ sequents", line).group(1)))
    assert "portfolio: smt, sets," in lines[0]
    assert lines[1].startswith("SMT-lite only") and "portfolio: smt," in lines[1]
    assert lines[2].startswith("set reasoner only") and "portfolio: sets," in lines[2]
    assert proved[0] > proved[1] and proved[0] > proved[2], lines


def test_example_scripts_exist_and_are_documented():
    scripts = sorted(p.name for p in EXAMPLE_FILES)
    assert {
        "quickstart.py",
        "arraylist_remove.py",
        "multi_prover_cooperation.py",
        "soundness_check.py",
    } <= set(scripts)
    for script in scripts:
        text = (EXAMPLES_DIR / script).read_text()
        assert text.lstrip().startswith('"""'), f"{script} lacks a docstring"
