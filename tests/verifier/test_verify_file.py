"""File ingestion end to end: loader, CLI ``verify FILE``, daemon op.

The loader unit tests pin the export conventions (MODEL / MODELS /
module-level ClassModels / zero-arg ``build*`` functions) and the error
cases; the integration tests drive the same file through the local CLI,
the daemon's ``verify_file`` op over a real unix socket, and the CLI's
``--connect`` routing -- asserting the three print identical reports.
"""

from __future__ import annotations

import re
import threading
import time

import pytest

from repro.frontend.loader import ProgramLoadError, load_class_models
from repro.verifier.cli import main as cli_main
from repro.verifier.daemon import DaemonClient, DaemonError, VerifierDaemon

TIMEOUT_SCALE = 0.4

GOOD_PROGRAM = '''
from repro.suite.common import StructureBuilder


def build_toggle():
    s = StructureBuilder("Toggle")
    s.concrete("on", "int")
    s.invariant("Bit", "0 <= on & on <= 1")
    m = s.method("flip", modifies="on", ensures="on = 1 - old on")
    m.assign("on", "1 - on")
    m.done()
    return s.build()
'''

FAILING_PROGRAM = '''
from repro.suite.common import StructureBuilder


def build_broken():
    s = StructureBuilder("Broken")
    s.concrete("n", "int")
    m = s.method("bad", modifies="n", ensures="n = old n + 1")
    m.assign("n", "n + 2")
    m.done()
    return s.build()
'''


@pytest.fixture()
def program(tmp_path):
    path = tmp_path / "toggle.py"
    path.write_text(GOOD_PROGRAM)
    return path


# -- loader conventions -----------------------------------------------------------


def test_loader_discovers_build_functions(program):
    (model,) = load_class_models(program)
    assert model.name == "Toggle"
    assert [m.name for m in model.methods] == ["flip"]


def test_loader_prefers_explicit_model(tmp_path):
    path = tmp_path / "explicit.py"
    path.write_text(
        GOOD_PROGRAM
        + "\nMODEL = build_toggle()\n"
        + "def build_decoy():\n    raise RuntimeError('must not be called')\n"
    )
    (model,) = load_class_models(path)
    assert model.name == "Toggle"


def test_loader_models_list_and_module_level_instances(tmp_path):
    path = tmp_path / "many.py"
    path.write_text(GOOD_PROGRAM + "\nfirst = build_toggle()" + "\nMODELS = [first]\n")
    (model,) = load_class_models(path)
    assert model.name == "Toggle"

    bare = tmp_path / "bare.py"
    bare.write_text(GOOD_PROGRAM + "\ninstance = build_toggle()\n")
    # Both the bound instance and the builder are found; dedup by class
    # name keeps one.
    (model,) = load_class_models(bare)
    assert model.name == "Toggle"


def test_loader_skips_builders_with_required_arguments(tmp_path):
    path = tmp_path / "parametric.py"
    path.write_text(GOOD_PROGRAM.replace("def build_toggle():", "def build_toggle(n):"))
    with pytest.raises(ProgramLoadError, match="exports no class models"):
        load_class_models(path)


def test_loader_repeated_loads_pick_up_edits(tmp_path):
    """Watch mode re-ingests a file on every save: repeated loads must see
    the edited content and leave no module residue behind."""
    import sys

    path = tmp_path / "prog.py"
    path.write_text(GOOD_PROGRAM)
    (first,) = load_class_models(path)
    path.write_text(GOOD_PROGRAM.replace('"flip"', '"flop"'))
    (second,) = load_class_models(path)
    assert [m.name for m in first.methods] == ["flip"]
    assert [m.name for m in second.methods] == ["flop"]
    # The first load's model is untouched by the second load.
    assert first.methods[0].name == "flip"
    assert not any(name.startswith("_jahob_program_") for name in sys.modules)


def test_loader_same_path_loads_get_distinct_module_names(tmp_path):
    """Two loads of one path never collide in ``sys.modules`` (daemon
    request threads can ingest the same file concurrently)."""
    path = tmp_path / "prog.py"
    path.write_text(GOOD_PROGRAM + "\nimport sys\nMODULE_NAME = __name__\n")
    (a,) = load_class_models(path)
    (b,) = load_class_models(path)
    assert a.name == b.name == "Toggle"
    from repro.frontend.loader import _import_file

    first = _import_file(path)
    second = _import_file(path)
    assert first.MODULE_NAME != second.MODULE_NAME


def test_loader_error_cases(tmp_path):
    with pytest.raises(ProgramLoadError, match="no such file"):
        load_class_models(tmp_path / "missing.py")
    crashing = tmp_path / "crash.py"
    crashing.write_text("raise RuntimeError('boom')\n")
    with pytest.raises(ProgramLoadError, match="boom"):
        load_class_models(crashing)
    wrong = tmp_path / "wrong.py"
    wrong.write_text("MODEL = 42\n")
    with pytest.raises(ProgramLoadError, match="MODEL must be a ClassModel"):
        load_class_models(wrong)


# -- CLI --------------------------------------------------------------------------


def run_cli(args, capsys):
    code = cli_main(["--timeout-scale", str(TIMEOUT_SCALE), *args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_verify_file_local(program, capsys):
    code, out, _ = run_cli(["verify", str(program)], capsys)
    assert code == 0
    assert "Toggle.flip" in out
    assert out.splitlines()[-1].endswith("1/1 class models verified")


def test_cli_verify_file_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.py"
    path.write_text(FAILING_PROGRAM)
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert "FAILED" in out
    assert out.splitlines()[-1].endswith("0/1 class models verified")


def test_cli_verify_file_load_error(tmp_path, capsys):
    code, _, err = run_cli(["verify", str(tmp_path / "missing.py")], capsys)
    assert code == 2
    assert "no such file" in err


def test_cli_catalogue_names_still_resolve(capsys):
    code, out, _ = run_cli(["verify", "Cursor List"], capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith("total:")


def run_record_rows(out: str) -> dict[str, list[str]]:
    """The per-class rows of the ``--perf`` run record, by class name."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == ["class"])
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("  ") or line.startswith("  worker "):
            break
        cells = re.split(r"\s{2,}", line.strip())
        rows[cells[0]] = cells[1:]
    return rows


def test_cli_perf_prints_the_run_record_at_jobs_one(capsys):
    code, out, _ = run_cli(["--perf", "verify", "Array List"], capsys)
    assert code == 0
    assert "Run plan (1 jobs)" in out
    dispatched = re.search(r"^  dispatched +(\d+)$", out, re.M)
    assert dispatched and int(dispatched.group(1)) > 0
    assert list(run_record_rows(out)) == ["Array List"]


def test_cli_perf_run_record_covers_every_model_of_a_file(tmp_path, capsys):
    path = tmp_path / "two.py"
    path.write_text(GOOD_PROGRAM + FAILING_PROGRAM)
    code, out, _ = run_cli(["--perf", "verify", str(path)], capsys)
    assert code == 1
    rows = run_record_rows(out)
    assert sorted(rows) == ["Broken", "Toggle"]
    total = re.search(r"^  sequents total +(\d+)$", out, re.M)
    # Columns: sequents, dispatched, cache, dup.
    assert int(total.group(1)) == sum(int(cells[0]) for cells in rows.values()) > 0


# -- daemon -----------------------------------------------------------------------


@pytest.fixture()
def daemon(tmp_path):
    instance = VerifierDaemon(
        tmp_path / "jahob.sock", jobs=1, timeout_scale=TIMEOUT_SCALE
    )
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    client = DaemonClient(instance.socket_path)
    deadline = time.monotonic() + 5.0
    while True:
        try:
            client.ping()
            break
        except DaemonError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)
    yield instance, client
    if thread.is_alive():
        instance.stop()
        thread.join(timeout=10.0)
    instance.close()


def test_daemon_verify_file_over_socket(daemon, program, capsys):
    instance, client = daemon
    response = client.request({"op": "verify_file", "path": str(program)})
    assert response["ok"] and response["exit"] == 0
    (payload,) = response["reports"]
    assert payload["class"] == "Toggle" and payload["verified"]
    assert response["output"].splitlines()[-1].endswith("1/1 class models verified")

    missing = client.request(
        {"op": "verify_file", "path": str(program.parent / "gone.py")}
    )
    assert not missing["ok"] and "no such file" in missing["error"]
    badreq = client.request({"op": "verify_file"})
    assert not badreq["ok"] and "'path'" in badreq["error"]

    # --connect routes verify FILE to the daemon and prints its output;
    # a local run of the same file prints the identical report, up to the
    # wall times (the daemon's run is warm, the local one cold, and both
    # sit near a 0.1 s rounding boundary).
    code = cli_main(["--connect", str(instance.socket_path), "verify", str(program)])
    connected_out = capsys.readouterr().out
    assert code == 0
    code = cli_main(["--timeout-scale", str(TIMEOUT_SCALE), "verify", str(program)])
    local_out = capsys.readouterr().out
    assert code == 0

    def untimed(text):
        return re.sub(r"\d+\.\d+s\b", "_s", text)

    assert untimed(connected_out) == untimed(local_out)
