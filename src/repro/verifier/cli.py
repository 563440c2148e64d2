"""Command-line interface: ``jahob-py``.

Subcommands::

    jahob-py list                 list the benchmark data structures
    jahob-py verify <name>        verify one data structure (add --no-proofs
                                  to strip the proof language constructs)
    jahob-py verify <file.py>     verify every class model exported by a
                                  standalone Python file (MODEL/MODELS,
                                  module-level ClassModels, or zero-arg
                                  build* functions; see repro.frontend.loader)
    jahob-py verify <file.py> --watch
                                  keep verifying the file as it changes:
                                  stream verdicts per edit; the warm proof
                                  cache re-proves only the sequents each
                                  edit invalidated (self-hosts a daemon,
                                  or --connect)
    jahob-py table1               regenerate Table 1 (the whole catalogue
                                  as one suite-scheduled run)
    jahob-py table2               regenerate Table 2 (slow: verifies twice)
    jahob-py serve                run the warm verification daemon on a
                                  unix socket (--socket), optionally with
                                  the HTTP/JSON front door for remote
                                  clients (--http; see
                                  docs/service-api.md) and an admission
                                  queue bound (--queue-limit)
    jahob-py metrics              scheduling metrics of a running daemon:
                                  cache provenance, admission, watch
                                  latency and the last run's plan
                                  (requires --connect)
    jahob-py shutdown             stop a daemon (requires --connect
                                  SOCKET)

With ``--connect ADDR`` the ``list`` / ``verify`` / ``table1`` /
``metrics`` commands are served by a running daemon (``jahob-py serve``)
instead of a cold local engine; the printed output is identical.  A
unix-socket path speaks to the daemon's socket; ``HOST:PORT`` speaks to
its HTTP front door, signing every request with the shared secret from
``--secret-file`` or ``JAHOB_SECRET``.  ``shutdown`` and ``verify
--watch`` need the socket.  ``--client NAME`` attaches the client
identity that keys the daemon's tenant cache namespace, and ``--priority
batch`` yields the admission queue to interactive requests.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from ..provers.dispatch import default_portfolio
from .engine import VerificationEngine
from .pipeline import RunRecord
from .report import (
    format_performance,
    format_run,
    format_table1,
    format_table2,
    format_verify,
    format_verify_file,
    table1_rows,
    table2_rows,
)

__all__ = ["main"]

#: Default unix-socket path for ``serve`` / ``--connect``.
DEFAULT_SOCKET = ".jahob.sock"


def _print_perf(engine: VerificationEngine, run: RunRecord) -> None:
    """The ``--perf`` block: counters, the command's run record (every
    verification call of the command, folded) and the store status."""
    print(format_performance(engine.portfolio.statistics))
    print(format_run(run))
    if engine.persistent_store is not None:
        print(
            f"Persistent cache: {engine.persistent_store.path} "
            f"({engine.persistent_store.last_load_status})"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jahob-py",
        description="Jahob-style verifier with an integrated proof language "
        "(PLDI 2009 reproduction)",
    )
    parser.add_argument(
        "--timeout-scale",
        type=float,
        default=1.0,
        help="scale factor applied to every per-prover timeout",
    )
    parser.add_argument(
        "--perf",
        action="store_true",
        help="print term-interning and proof-cache counters after the run",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the sequent-level proof cache",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard prover dispatch across N worker processes "
        "(verdicts are identical to the sequential run)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist proof-cache verdicts under DIR across runs "
        "(invalidated automatically on portfolio or fingerprint changes)",
    )
    parser.add_argument(
        "--no-persist",
        action="store_true",
        help="with --cache-dir: read the persistent cache but do not write it back",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="ADDR",
        help="serve list/verify/table1/metrics/shutdown through the daemon "
        "listening on this unix socket, or through its HTTP door at "
        "HOST:PORT, instead of a cold local engine",
    )
    parser.add_argument(
        "--secret-file",
        default=None,
        metavar="PATH",
        help="file holding the shared secret that signs the HTTP requests "
        "of --connect HOST:PORT and serve --http (JAHOB_SECRET works "
        "too); local runs never read it",
    )
    parser.add_argument(
        "--client",
        default="",
        metavar="NAME",
        help="with --connect: the client identity that keys the daemon's "
        "tenant proof-cache namespace (over HTTP it is signed and "
        "cannot be spoofed)",
    )
    parser.add_argument(
        "--priority",
        choices=("interactive", "batch"),
        default="interactive",
        help="with --connect: admission priority lane; 'batch' requests "
        "yield the queue to 'interactive' ones",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list benchmark data structures")
    verify = subparsers.add_parser(
        "verify",
        help="verify one data structure, or every class model in a Python file",
    )
    verify.add_argument(
        "name",
        help="data structure name (see 'list') or a path to a Python file "
        "exporting class models (anything ending in .py or containing a "
        "path separator is treated as a file)",
    )
    verify.add_argument(
        "--no-proofs",
        action="store_true",
        help="strip the integrated proof language constructs first",
    )
    verify.add_argument(
        "--watch",
        action="store_true",
        help="keep verifying the file as it changes: stream verdicts per "
        "edit, re-proving only the sequents each edit invalidated "
        "(file operand only; works locally or with --connect)",
    )
    verify.add_argument(
        "--watch-max",
        type=int,
        default=None,
        metavar="N",
        help="with --watch: exit after N verification events (the first "
        "fires immediately as the baseline)",
    )
    subparsers.add_parser("table1", help="regenerate Table 1")
    subparsers.add_parser("table2", help="regenerate Table 2")
    serve = subparsers.add_parser(
        "serve",
        help="run the warm verification daemon (keeps worker pool and "
        "caches alive across --connect requests)",
    )
    serve.add_argument(
        "--socket",
        default=DEFAULT_SOCKET,
        metavar="PATH",
        help=f"unix socket to listen on (default: {DEFAULT_SOCKET})",
    )
    serve.add_argument(
        "--http",
        default=None,
        metavar="HOST:PORT",
        help="also serve the HTTP/JSON API for remote clients on this "
        "address (requires the shared secret; routes in "
        "docs/service-api.md)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        metavar="N",
        help="max engine requests waiting in the admission queue before "
        "new ones are rejected with code 'queue_full' (default 16)",
    )
    serve.add_argument(
        "--secret-file",
        dest="secret_file",
        # SUPPRESS, not None: argparse copies the sub-namespace over the
        # main one, so a plain default would clobber a global
        # --secret-file given before the subcommand.
        default=argparse.SUPPRESS,
        metavar="PATH",
        help="same as the global --secret-file, accepted after 'serve' too",
    )
    subparsers.add_parser(
        "metrics",
        help="print a running daemon's scheduling metrics: cache "
        "provenance, admission, watch latency and the last run's plan "
        "(requires --connect)",
    )
    subparsers.add_parser(
        "shutdown",
        help="flush the daemon's caches and stop it (requires --connect "
        "SOCKET)",
    )
    return parser


#: Flags that configure the local engine, as ``(flag, dest)`` pairs.  The
#: daemon paths warn when one of these is passed but cannot take effect;
#: non-default detection compares against the parser's own defaults so a
#: new flag only needs to be added here, not re-described.
_ENGINE_FLAGS = (
    ("--timeout-scale", "timeout_scale"),
    ("--no-cache", "no_cache"),
    ("--jobs", "jobs"),
    ("--cache-dir", "cache_dir"),
    ("--no-persist", "no_persist"),
    ("--perf", "perf"),
)


def _non_default_flags(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    flags=_ENGINE_FLAGS,
) -> list[str]:
    return [
        flag
        for flag, dest in flags
        if getattr(args, dest) != parser.get_default(dest)
    ]


def _is_program_path(name: str) -> bool:
    """Whether the ``verify`` operand names a file rather than a
    catalogue class.  No catalogue class ends in ``.py`` or contains a
    path separator, so the two namespaces cannot collide."""
    return name.endswith(".py") or "/" in name or os.sep in name


def _load_secret_arg(args: argparse.Namespace) -> bytes | None:
    """The shared secret from ``--secret-file`` / ``JAHOB_SECRET``; an
    unreadable file surfaces as ``OSError`` for the caller to report."""
    from .wire import load_secret

    return load_secret(args.secret_file)


#: Why an op is refused on a ``HOST:PORT`` address.
_SOCKET_ONLY = (
    "{what} is served on the daemon's unix socket only: run it with "
    "--connect SOCKET on the daemon's host (see docs/service-api.md)"
)


def _run_connected(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Serve the command through a running daemon (``--connect``): its unix
    socket for a path, its signed HTTP door for ``HOST:PORT``."""
    from .daemon import DaemonClient, DaemonError
    from .wire import parse_address

    # Engine configuration lives in the daemon: flags that would rebuild
    # the engine locally cannot be forwarded, so say so instead of
    # silently serving with the daemon's configuration.
    dropped = _non_default_flags(parser, args)
    if dropped:
        print(
            f"warning: {', '.join(dropped)} ignored with --connect; "
            "the daemon keeps the engine configuration it was started with",
            file=sys.stderr,
        )
    try:
        secret = _load_secret_arg(args)
    except OSError as exc:
        print(f"cannot read --secret-file: {exc}", file=sys.stderr)
        return 2
    remote = parse_address(args.connect)[0] == "tcp"
    if args.command == "verify" and args.watch:
        if not _is_program_path(args.name):
            print(
                "--watch requires a file operand "
                "(catalogue classes do not change on disk)",
                file=sys.stderr,
            )
            return 2
        if remote:
            print(_SOCKET_ONLY.format(what="verify --watch"), file=sys.stderr)
            return 2
        return _stream_watch(DaemonClient(args.connect, client_id=args.client), args)
    if args.command == "list":
        request = {"op": "list"}
    elif args.command == "verify" and _is_program_path(args.name):
        # The daemon runs in its own working directory, so forward the
        # absolute path (which also keeps the printed summary identical).
        request = {
            "op": "verify_file",
            "path": os.path.abspath(args.name),
            "strip": args.no_proofs,
        }
    elif args.command == "verify":
        request = {"op": "verify", "name": args.name, "strip": args.no_proofs}
    elif args.command == "table1":
        request = {"op": "table1"}
    elif args.command == "metrics":
        request = {"op": "metrics"}
    elif args.command == "shutdown":
        if remote:
            print(_SOCKET_ONLY.format(what="shutdown"), file=sys.stderr)
            return 2
        request = {"op": "shutdown"}
    else:
        print(f"--connect does not support {args.command!r}", file=sys.stderr)
        return 2
    if args.priority != "interactive":
        request["priority"] = args.priority
    if remote and not secret:
        print(
            f"connecting to {args.connect} requires the shared secret "
            "(--secret-file or JAHOB_SECRET)",
            file=sys.stderr,
        )
        return 2
    try:
        if remote:
            response = _http_request(args, secret, request)
        else:
            response = DaemonClient(args.connect, client_id=args.client).request(
                request
            )
    except DaemonError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not response.get("ok"):
        print(f"daemon error: {response.get('error')}", file=sys.stderr)
        return 2
    if args.command == "list":
        for name in response["structures"]:
            print(name)
        return 0
    if args.command == "metrics":
        from .report import format_metrics

        print(format_metrics(response))
        return 0
    if args.command == "shutdown":
        print(f"daemon stopped ({response.get('cache_entries', 0)} cached verdicts)")
        return 0
    print(response["output"])
    return int(response.get("exit", 0))


def _http_request(args: argparse.Namespace, secret: bytes, request: dict) -> dict:
    """Send one line-protocol ``request`` to the daemon's HTTP door at
    ``--connect HOST:PORT`` through the op's route in ``ROUTES``; every
    status carries the same response object the socket would return."""
    from .daemon import DaemonError
    from .http import ROUTES, HttpApiClient, HttpApiError

    (route,) = [route for route in ROUTES if route.op == request["op"]]
    body = {key: value for key, value in request.items() if key != "op"}
    client = HttpApiClient(args.connect, secret, client_id=args.client, timeout=None)
    try:
        return client.request(route.method, route.path, body or None)[1]
    except HttpApiError as exc:
        raise DaemonError(str(exc)) from exc


def _stream_watch(client, args: argparse.Namespace) -> int:
    """Stream one ``watch`` subscription to the terminal.

    Exit status follows the *latest* verdict event (the file may go red
    and green again over the subscription's lifetime); ctrl-C unsubscribes
    cleanly.
    """
    from .daemon import DaemonError
    from .report import format_watch_event

    payload: dict = {"path": os.path.abspath(args.name)}
    if args.watch_max is not None:
        payload["max_events"] = args.watch_max
    if args.priority != "interactive":
        payload["priority"] = args.priority
    verified = True
    try:
        for event in client.watch(payload):
            print(format_watch_event(event), flush=True)
            if isinstance(event, dict):
                if "event" not in event and not event.get("ok", True):
                    return 2
                if event.get("event") == "verdicts":
                    verified = bool(event.get("verified"))
    except KeyboardInterrupt:
        pass
    except DaemonError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0 if verified else 1


def _run_watch_local(args: argparse.Namespace, engine: VerificationEngine) -> int:
    """``verify FILE --watch`` without ``--connect``.

    Watch mode is daemon-native (the subscription protocol lives on the
    socket -- see docs/service-api.md), so the local spelling self-hosts a
    private daemon around the already-built engine on a temporary unix
    socket for the duration of the subscription.
    """
    import tempfile
    import threading
    import time

    from .daemon import DaemonClient, DaemonError, VerifierDaemon

    if not _is_program_path(args.name):
        print(
            "--watch requires a file operand "
            "(catalogue classes do not change on disk)",
            file=sys.stderr,
        )
        return 2
    if args.no_proofs:
        print(
            "warning: --no-proofs ignored with --watch "
            "(watch always verifies the full proof language)",
            file=sys.stderr,
        )
    with tempfile.TemporaryDirectory(prefix="jahob-watch-") as tmp:
        daemon = VerifierDaemon(os.path.join(tmp, "watch.sock"), engine=engine)
        try:
            daemon.bind()
        except DaemonError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        client = DaemonClient(daemon.socket_path)
        deadline = time.monotonic() + 5.0
        while True:
            try:
                client.ping()
                break
            except DaemonError:
                if time.monotonic() > deadline:
                    print("watch daemon did not come up", file=sys.stderr)
                    return 2
                time.sleep(0.02)
        try:
            return _stream_watch(client, args)
        finally:
            daemon.stop()
            thread.join(timeout=10.0)
            daemon.close()


def _run_serve(args: argparse.Namespace) -> int:
    """Run the warm daemon until SIGINT/SIGTERM or a ``shutdown`` request."""
    from .daemon import DaemonError, VerifierDaemon

    try:
        secret = _load_secret_arg(args)
    except OSError as exc:
        print(f"cannot read --secret-file: {exc}", file=sys.stderr)
        return 2
    try:
        daemon = VerifierDaemon(
            args.socket,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            persist=not args.no_persist,
            use_proof_cache=not args.no_cache,
            timeout_scale=args.timeout_scale,
            secret=secret,
            queue_limit=args.queue_limit,
            http=args.http,
        )
    except DaemonError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        daemon.bind()
    except DaemonError as exc:
        print(str(exc), file=sys.stderr)
        daemon.close()
        return 2
    previous = signal.signal(signal.SIGTERM, lambda *_: daemon.stop())
    if daemon.http_door is not None:
        print(
            f"jahob-py daemon serving HTTP on {daemon.http_door.address}",
            flush=True,
        )
    print(f"jahob-py daemon listening on {daemon.address}", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.close()
        signal.signal(signal.SIGTERM, previous)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "serve":
        if args.connect is not None:
            print(
                "serve starts a daemon and cannot itself use --connect",
                file=sys.stderr,
            )
            return 2
        dropped = _non_default_flags(
            parser,
            args,
            [pair for pair in _ENGINE_FLAGS if pair[0] == "--perf"],
        )
        if dropped:
            print(
                f"warning: {', '.join(dropped)} ignored with serve; "
                "use the daemon's stats op for counters",
                file=sys.stderr,
            )
        return _run_serve(args)
    if args.connect is not None:
        return _run_connected(parser, args)
    if args.command in ("shutdown", "metrics"):
        print(f"{args.command} requires --connect ADDR", file=sys.stderr)
        return 2

    portfolio = default_portfolio(with_cache=not args.no_cache)
    portfolio = portfolio.scaled(args.timeout_scale)
    engine = VerificationEngine(
        portfolio,
        use_proof_cache=not args.no_cache,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        persist=not args.no_persist,
    )
    # Closing the engine flushes the verdicts that arrived since the last
    # checkpoint, also when the run is interrupted, and shuts its pool down.
    with engine:
        return _run_local(args, engine)


def _run_local(args: argparse.Namespace, engine: VerificationEngine) -> int:
    """The commands served by a local engine (no ``--connect``)."""
    from ..suite.catalog import all_structures, structure_by_name

    if args.command == "list":
        for cls in all_structures():
            print(cls.name)
        return 0

    if args.command == "verify":
        if args.watch:
            return _run_watch_local(args, engine)
        if _is_program_path(args.name):
            from ..frontend.loader import ProgramLoadError, load_class_models

            try:
                models = load_class_models(args.name)
            except ProgramLoadError as exc:
                print(str(exc), file=sys.stderr)
                return 2
            run = RunRecord(jobs=engine.jobs)
            reports = []
            for model in models:
                reports.append(engine.verify_class(model, strip_proofs=args.no_proofs))
                run.merge(engine.last_run)
            print(format_verify_file(os.path.abspath(args.name), reports))
            if args.perf:
                _print_perf(engine, run)
            return 0 if all(report.verified for report in reports) else 1
        cls = structure_by_name(args.name)
        report = engine.verify_class(cls, strip_proofs=args.no_proofs)
        print(format_verify(report))
        if args.perf:
            _print_perf(engine, engine.last_run)
        return 0 if report.verified else 1

    if args.command == "table1":
        classes = all_structures()
        rows = table1_rows(classes, reports=engine.verify_suite(classes))
        print(format_table1(rows))
        if args.perf:
            print()
            _print_perf(engine, engine.last_run)
        return 0

    if args.command == "table2":
        run = RunRecord(jobs=engine.jobs)
        rows = [row for row, _, _ in table2_rows(all_structures(), engine, run)]
        print(format_table2(rows))
        if args.perf:
            print()
            _print_perf(engine, run)
        return 0

    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
