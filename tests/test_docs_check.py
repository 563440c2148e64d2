"""Tier-1 docs check: the README quickstarts must run, links must resolve.

Three guards against documentation drift:

* every README code block marked ``<!-- docs-check: execute -->`` is
  executed verbatim, command by command (a renamed flag or subcommand
  breaks this test, not a user's first contact with the repo).  Blocks
  may set ``VAR=value`` environment prefixes, and a trailing ``&``
  backgrounds a long-running command (the daemon of the HTTP
  quickstart) exactly like a shell would, the next command starting
  once the daemon prints its ``listening on`` readiness line;
* every CLI option and subcommand the argument parser actually defines
  must be mentioned in the README's CLI reference, and every option and
  subcommand that reference's tables name must exist in the parser; so
  must every ``--option`` on a ``jahob-py …`` or ``python -m
  repro.verifier.cli …`` command line anywhere in ``README.md`` and
  ``docs/*.md``, in code blocks and inline code alike;
* every relative markdown link in ``README.md`` and ``docs/*.md`` must
  point at an existing file.
"""

from __future__ import annotations

import os
import re
import select
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
DOCS = REPO_ROOT / "docs"

_EXECUTE_MARKER = "<!-- docs-check: execute -->"

_ENV_PREFIX = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")


def quickstart_blocks() -> list[list[str]]:
    """The ``$``-prefixed commands of every marked README block, in order."""
    text = README.read_text(encoding="utf-8")
    assert _EXECUTE_MARKER in text, "README lost its executable quickstart blocks"
    blocks = []
    for part in text.split(_EXECUTE_MARKER)[1:]:
        match = re.search(r"```console\n(.*?)```", part, re.DOTALL)
        assert match, "no ```console block after a docs-check marker"
        commands = []
        for line in match.group(1).splitlines():
            line = line.strip()
            if line.startswith("$ "):
                commands.append(line[2:].split("  #", 1)[0].strip())
        assert commands, "a marked quickstart block contains no commands"
        blocks.append(commands)
    return blocks


def quickstart_commands() -> list[str]:
    """The first (original) quickstart block."""
    return quickstart_blocks()[0]


def _prepare(command: str) -> tuple[list[str], dict]:
    """Split one documented command into ``(argv, env)``.

    Leading ``VAR=value`` words become environment entries, exactly as a
    shell would treat them.  The remaining command must be the generic
    CLI spelling; the test supplies the interpreter actually running the
    suite and ``PYTHONPATH=src``.
    """
    argv = shlex.split(command)
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    while argv and _ENV_PREFIX.match(argv[0]):
        key, _, value = argv.pop(0).partition("=")
        env[key] = value
    assert argv[:3] == ["python", "-m", "repro.verifier.cli"], command
    argv[0] = sys.executable
    return argv, env


def run_cli(command: str) -> subprocess.CompletedProcess:
    argv, env = _prepare(command)
    return subprocess.run(
        argv, cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def wait_until_listening(
    command: str, process: subprocess.Popen, timeout: float = 60.0
) -> None:
    """Block until a backgrounded daemon prints ``listening on``.

    ``docs/operations.md`` names that line as the readiness signal: the
    daemon prints it after every listener has bound.  The raw descriptor
    is read, so the pipe's text wrapper buffers nothing that
    ``communicate`` would later miss.
    """
    deadline = time.monotonic() + timeout
    fd = process.stdout.fileno()
    seen = b""
    while b"listening on" not in seen:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise AssertionError(
                f"backgrounded quickstart command never printed its "
                f"'listening on' line: {command}"
            )
        chunk = os.read(fd, 4096)
        if not chunk:
            raise AssertionError(
                f"backgrounded quickstart command exited before listening: "
                f"{command}\nstdout: {seen.decode(errors='replace')}"
            )
        seen += chunk


def run_block(commands: list[str]) -> None:
    """Execute one quickstart block, shell-style: ``&`` backgrounds.

    A backgrounded command must print its ``listening on`` line before
    the next command runs, as a script driving the daemon would wait
    for it.  Backgrounded processes must exit on their own by the end of the
    block (the HTTP quickstart ends with a ``shutdown`` command); one
    still running afterwards means the documented sequence does not
    actually stop what it starts.
    """
    background: list[tuple[str, subprocess.Popen]] = []
    try:
        for command in commands:
            if command.endswith("&"):
                argv, env = _prepare(command.rstrip("&").strip())
                process = subprocess.Popen(
                    argv,
                    cwd=REPO_ROOT,
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
                background.append((command, process))
                wait_until_listening(command, process)
                continue
            result = run_cli(command)
            assert result.returncode == 0, (
                f"README quickstart command failed: {command}\n"
                f"stdout: {result.stdout}\nstderr: {result.stderr}"
            )
        for command, process in background:
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                raise AssertionError(
                    f"backgrounded quickstart command still running after "
                    f"the block finished: {command}"
                ) from None
    finally:
        for _, process in background:
            if process.poll() is None:
                process.kill()
            process.communicate(timeout=30)


def test_readme_quickstart_commands_execute():
    commands = quickstart_commands()
    # The quickstart must exercise --help and a fast-class verify.
    assert any("--help" in command for command in commands)
    assert any("verify" in command for command in commands)
    run_block(commands)
    # Spot-check the advertised outputs.
    listing = run_cli("python -m repro.verifier.cli list")
    assert "Linked List" in listing.stdout


def test_readme_watch_quickstart_executes():
    """The 'Watch mode' block: a --watch subscription that terminates on
    its own (--watch-max caps the event budget at the baseline run)."""
    blocks = [
        block
        for block in quickstart_blocks()
        if any("--watch" in command for command in block)
    ]
    assert blocks, "README lost its watch-mode quickstart block"
    (commands,) = blocks
    assert all("--watch-max" in c for c in commands if "--watch" in c), (
        "the executed watch command must self-terminate via --watch-max"
    )
    run_block(commands)


def test_readme_http_quickstart_executes():
    """The 'Serve it over HTTP' block: daemon with an HTTP front door in
    the background, --connect verifies and metrics against it, shutdown at
    the end."""
    blocks = [
        block
        for block in quickstart_blocks()
        if any("--http" in command for command in block)
    ]
    assert blocks, "README lost its HTTP quickstart block"
    (commands,) = blocks
    assert any("serve" in command and command.endswith("&") for command in commands)
    assert "shutdown" in commands[-1], "the block must stop what it starts"
    run_block(commands)


def test_readme_documents_every_cli_flag():
    from repro.verifier.cli import _build_parser

    text = README.read_text(encoding="utf-8")
    parser = _build_parser()
    for action in parser._actions:
        for option in action.option_strings:
            if option in ("-h",):
                continue
            assert option in text, f"README does not document {option}"
        if action.choices and not action.option_strings:
            # The subparsers action: every subcommand must be documented.
            for name, subparser in action.choices.items():
                assert f"`{name}`" in text or f"`{name} " in text or (
                    f" {name}`" in text
                ), f"README does not document the {name!r} subcommand"
                for sub_action in subparser._actions:
                    for option in sub_action.option_strings:
                        if option == "-h":
                            continue
                        assert option in text, (
                            f"README does not document {name} {option}"
                        )


def _parser_surface() -> tuple[set[str], set[str]]:
    """Every option string (global or of any subcommand) and every
    subcommand name the argument parser defines."""
    from repro.verifier.cli import _build_parser

    options: set[str] = set()
    commands: set[str] = set()
    for action in _build_parser()._actions:
        options.update(action.option_strings)
        if action.choices and not action.option_strings:
            for name, subparser in action.choices.items():
                commands.add(name)
                for sub_action in subparser._actions:
                    options.update(sub_action.option_strings)
    return options, commands


def cli_reference_rows() -> list[list[str]]:
    """The cells of every table row in README's "CLI reference" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI reference\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_cli_reference_names_only_real_flags_and_commands():
    """The reverse of the check above: a row for a deleted flag or
    subcommand must go with it."""
    options, commands = _parser_surface()
    rows = cli_reference_rows()
    assert rows, "README lost its CLI reference tables"
    for cells in rows:
        first = cells[0].strip("`").split()[0]
        if first.startswith("--"):
            assert first in options, f"README's CLI reference lists unknown {first}"
        else:
            assert first in commands, (
                f"README's CLI reference lists unknown subcommand {first!r}"
            )
        for option in re.findall(r"(?<![\w-])--[a-z][a-z-]*", " ".join(cells)):
            assert option in options, (
                f"README's CLI reference mentions unknown {option} (row {first})"
            )


_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def markdown_files() -> list[Path]:
    return [README, *sorted(DOCS.glob("*.md"))]


@pytest.mark.parametrize("path", markdown_files(), ids=lambda p: p.name)
def test_no_dead_relative_links(path: Path):
    text = path.read_text(encoding="utf-8")
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        assert resolved.exists(), f"{path.name}: dead link {target}"


_COMMAND = re.compile(r"(?:\bjahob-py|python3? -m repro\.verifier\.cli)\b(.*)")
_OPTION = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def documented_command_lines(path: Path) -> list[str]:
    """The argument text of every CLI command line in one markdown file:
    fenced lines (``\\`` continuations joined, ``  #`` comments and pipes
    cut) and inline code spans, from the command name on."""
    found, fenced, pending = [], False, ""
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            fenced, pending = not fenced, ""
            continue
        if fenced:
            pending += line
            if pending.endswith("\\"):
                pending = pending[:-1] + " "
                continue
            spans, pending = [pending.split("  #", 1)[0]], ""
        else:
            spans = re.findall(r"`([^`]+)`", line)
        for span in spans:
            match = _COMMAND.search(span)
            if match:
                found.append(match.group(1).split(" | ", 1)[0])
    return found


@pytest.mark.parametrize("path", markdown_files(), ids=lambda p: p.name)
def test_documented_command_lines_use_only_real_options(path: Path):
    """A stale flag on any documented command line (say, a deleted
    ``serve --tcp`` in a runbook example) fails here, not in a reader's
    shell."""
    options, _ = _parser_surface()
    for arguments in documented_command_lines(path):
        for option in _OPTION.findall(arguments):
            assert option in options, (
                f"{path.name}: a command line uses unknown {option}: {arguments}"
            )


def test_docs_mention_current_entry_points():
    """The architecture/cache docs must track the modules they describe."""
    architecture = (DOCS / "architecture.md").read_text(encoding="utf-8")
    for module in ("engine.py", "pipeline.py", "daemon.py", "cli.py"):
        assert module in architecture, f"architecture.md lost {module}"
    cache_format = (DOCS / "cache-format.md").read_text(encoding="utf-8")
    from repro.provers.cache import CACHE_FORMAT_VERSION, FINGERPRINT_VERSION

    assert f'"format": {CACHE_FORMAT_VERSION}' in cache_format, (
        "cache-format.md shows a stale CACHE_FORMAT_VERSION"
    )
    assert f'"fingerprint_version": {FINGERPRINT_VERSION}' in cache_format, (
        "cache-format.md shows a stale FINGERPRINT_VERSION"
    )
