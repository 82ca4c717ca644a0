"""Command-line client (paper Section III: "clients can range from a
simple command-line interface to web-based front-ends").

Usage::

    graql run script.graql --param Product1=product42
    graql run script.graql --db ./shop.db [--fsync always|batch|off]
    graql serve 127.0.0.1:7687 --db ./shop.db
    graql recover ./shop.db [--verify]
    graql checkpoint ./shop.db
    graql check script.graql [more.graql ...] [--strict]
    graql profile script.graql --demo berlin
    graql stats script.graql --demo berlin
    graql repl
    graql demo berlin --scale 200
    graql demo cyber
    graql demo biology

``graql run --db PATH`` executes against the durable database directory
at PATH (created on first use): every mutation is written ahead to its
WAL, so a later ``graql run --db PATH`` (or crash + restart) continues
from the committed state.  ``graql recover PATH`` performs recovery and
prints the report; with ``--verify`` it additionally proves the
recovery invariants (docs/DURABILITY.md) and exits 0 only when the
store verified clean.  ``graql checkpoint PATH`` snapshots the state
and truncates the WAL.

``graql check`` statically analyzes without executing and exits 0 when
clean, 1 when only warnings were found under ``--strict``, and 2 when
errors were found (docs/ANALYSIS.md).  Each script is checked against
its own catalog snapshot, taken under the serving layer's read lock.

Execution commands talk to the database through the serving-layer
client API (docs/API.md): one :class:`~repro.serve.Connection`, with
table results streamed through a :class:`~repro.serve.Cursor` in
batches rather than materialized as one row list.

The REPL accepts a statement per paragraph: terminate input with an empty
line (or end with ``;``).  ``\\tables``, ``\\vertices``, ``\\edges`` and
``\\subgraphs`` list catalog objects; ``\\check <stmt>`` analyzes a
statement without running it; ``\\quit`` exits.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Optional

from repro.engine.session import Database
from repro.errors import GraQLError
from repro.query.executor import StatementResult


def _parse_params(pairs: list[str]) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param expects Name=Value, got {pair!r}")
        name, value = pair.split("=", 1)
        for conv in (int, float):
            try:
                params[name] = conv(value)
                break
            except ValueError:
                continue
        else:
            params[name] = value
    return params


def _print_result(result: StatementResult, limit: int) -> None:
    if result.kind == "table" and result.table is not None:
        print(result.table.pretty(limit))
        print(f"({result.table.num_rows} rows)")
    elif result.kind == "subgraph" and result.subgraph is not None:
        sg = result.subgraph
        print(f"subgraph {sg.name!r}:")
        for t, v in sorted(sg.vertices.items()):
            print(f"  vertices {t}: {len(v)}")
        for t, e in sorted(sg.edges.items()):
            print(f"  edges {t}: {len(e)}")
    else:
        print(result.message or result.kind)


def _print_cursor_table(cur, limit: int) -> None:
    """Print the cursor's result set, pulling rows through the streaming
    fetch API (batched production) instead of materializing the table."""
    table = cur.table
    names = table.schema.names()
    shown = [
        [c.dtype.format(v) or "NULL" for c, v in zip(table.schema, row)]
        for row in cur.fetchmany(limit)
    ]
    widths = [
        max(len(n), *(len(r[j]) for r in shown)) if shown else len(n)
        for j, n in enumerate(names)
    ]
    print(" | ".join(n.ljust(w) for n, w in zip(names, widths)))
    print("-+-".join("-" * w for w in widths))
    for r in shown:
        print(" | ".join(v.ljust(w) for v, w in zip(r, widths)))
    if cur.rowcount > limit:
        print(f"... ({cur.rowcount} rows total)")
    print(f"({cur.rowcount} rows)")


def _execute_and_print(conn, source: str, params, limit: int) -> None:
    """Run one script through a streaming cursor and print every result;
    the last table is consumed through the cursor's batched fetch."""
    with conn.cursor(batch_size=max(limit, 1)) as cur:
        cur.execute(source, params or None)
        streamed = cur.table
        for r in cur.results:
            if (
                r.kind == "table"
                and r.table is not None
                and r.table is streamed
            ):
                _print_cursor_table(cur, limit)
            else:
                _print_result(r, limit)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        db = (
            Database.open(args.db, fsync=args.fsync)
            if args.db
            else Database()
        )
    except GraQLError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    params = _parse_params(args.param or [])
    try:
        with open(args.script, encoding="utf-8") as fh:
            source = fh.read()
        if args.explain:
            print(db.explain(source, params))
            return 0
        _execute_and_print(db.connect(), source, params, args.limit)
    except GraQLError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        db.close()  # flush the WAL before the interpreter exits
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a database over TCP (docs/NETWORK.md).

    ``HOST:PORT`` binds an address (``:PORT`` binds loopback; port 0
    picks a free port).  SIGTERM and SIGINT drain gracefully: the
    listener closes, in-flight statements finish and write their
    responses, then the process exits — with ``--db`` every
    acknowledged mutation is already in the WAL, so a SIGKILL instead
    loses nothing that was acknowledged (``graql recover --verify``).
    """
    import signal

    from repro.net import GraqlServer

    host, _, port_s = args.address.rpartition(":")
    try:
        port = int(port_s)
    except ValueError:
        raise SystemExit(
            f"serve expects HOST:PORT or :PORT, got {args.address!r}"
        )
    replica = None
    try:
        if args.replica_of:
            if not args.db:
                raise SystemExit("--replica-of requires --db PATH (the "
                                 "replica's own durable directory)")
            from repro.replication import Replica

            replica = Replica(
                args.db,
                args.replica_of,
                durability={"fsync": args.fsync},
            )
            db = replica.database
        elif args.db:
            db = Database.open(args.db, fsync=args.fsync)
        elif args.demo:
            db = _demo_database(args.demo, args.scale)
        else:
            db = Database()
    except GraQLError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    server = GraqlServer(
        None if replica is not None else db,
        host=host or "127.0.0.1",
        port=port,
        max_connections=args.max_connections,
        idle_timeout=args.idle_timeout,
        replica=replica,
    )
    try:
        server.start()
    except OSError as e:
        print(f"error: cannot bind {args.address}: {e}", file=sys.stderr)
        db.close()
        return 1
    if replica is not None:
        replica.start()
        backing = f"replica of {args.replica_of} at {args.db}"
    else:
        backing = args.db or (
            f"demo {args.demo}" if args.demo else "in-memory"
        )
    print(f"graql server listening on {server.url} ({backing})", flush=True)

    def _drain(signum: int, frame: object) -> None:
        print("draining...", flush=True)
        server.shutdown(drain=True)

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    try:
        server.serve_forever()
    finally:
        server.shutdown()
        if replica is not None:
            replica.stop()
        db.close()  # flush the WAL before the interpreter exits
    print("stopped", flush=True)
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Recover (and optionally verify) a durable database directory."""
    if args.verify:
        from repro.durability import verify_store

        report = verify_store(args.path)
        rec = report.recovery
        if rec is not None:
            print(
                f"recovered {args.path}: snapshot seq {rec.snapshot_seq}, "
                f"{rec.records_replayed} WAL record(s) replayed, "
                f"last seq {rec.last_seq} ({rec.wal_end_reason})"
            )
        for note in report.notes:
            print(f"note: {note}")
        for problem in report.problems:
            print(f"problem: {problem}", file=sys.stderr)
        if report.ok:
            print(f"verified ok (state {report.fingerprint[:16]})")
            return 0
        return 1
    try:
        db = Database.recover(args.path)
    except GraQLError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        rec = db.recovery
        print(
            f"recovered {args.path}: snapshot seq {rec.snapshot_seq}, "
            f"{rec.records_replayed} WAL record(s) replayed, "
            f"last seq {rec.last_seq} ({rec.wal_end_reason})"
        )
        if rec.bytes_truncated:
            print(f"truncated {rec.bytes_truncated} torn tail byte(s)")
        print(db.db)
    finally:
        db.close()
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """Snapshot a durable database and truncate its WAL."""
    try:
        db = Database.open(args.path)
    except GraQLError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        path = db.checkpoint()
        print(f"checkpoint written: {path} (seq {db.store.seq})")
    except GraQLError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        db.close()
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Statically analyze scripts; exit 0 clean / 1 warnings / 2 errors.

    Each script is analyzed against a
    :meth:`~repro.catalog.Catalog.scratch_copy` taken under the server's
    catalog read lock, so a live server can keep executing (even DDL)
    while scripts are being checked.
    """
    from repro.analysis import Analyzer

    db = (
        _demo_database(args.demo, args.scale) if args.demo else Database()
    )
    params = _parse_params(args.param or [])
    sources: list[tuple[str, str]] = []
    for path in args.script:
        try:
            with open(path, encoding="utf-8") as fh:
                sources.append((path, fh.read()))
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    exit_code = 0
    for path, source in sources:
        with db.server.lock.read_locked():
            catalog = db.catalog.scratch_copy()
        result = Analyzer(catalog).analyze(source, params or None)
        if args.format == "json":
            print(result.to_json(path))
        else:
            print(result.render_text(path))
        exit_code = max(exit_code, result.exit_code(strict=args.strict))
    return exit_code


def cmd_devcheck(args: argparse.Namespace) -> int:
    """Self-analyze the engine source; same exit contract as ``check``.

    Parses every ``.py`` file under the given paths and runs the
    engine-invariant passes (lock order, blocking-under-lock,
    ack-before-durability, crash-safety hygiene) from
    :mod:`repro.devlint`.  ``--baseline`` names a reviewed suppression
    file; stale entries in it are themselves reported (GDL090).
    """
    from repro.devlint import Baseline, run_devcheck

    baseline = None
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except (OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    for path in args.path:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
    result = run_devcheck(args.path, baseline=baseline)
    if args.format == "json":
        print(result.to_json())
    else:
        print(result.render_text())
    return result.exit_code(strict=args.strict)


def cmd_profile(args: argparse.Namespace) -> int:
    """EXPLAIN ANALYZE a script: plans, then measured profiles."""
    db = (
        _demo_database(args.demo, args.scale) if args.demo else Database()
    )
    params = _parse_params(args.param or [])
    try:
        with open(args.script, encoding="utf-8") as fh:
            print(db.explain(fh.read(), params, mode="analyze"))
    except GraQLError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def cmd_ping(args: argparse.Namespace) -> int:
    """Health-check a server without entering its admission queue."""
    from repro.net.client import ping

    try:
        pong = ping(args.url, timeout=args.timeout)
    except GraQLError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    endpoint = pong.pop("endpoint", args.url)
    rtt = pong.pop("rtt_s", 0.0)
    print(f"pong from {endpoint} in {rtt * 1000:.1f} ms")
    for key, value in pong.items():
        if key == "replicas":
            print(f"  replicas: {len(value)}")
            for peer in value:
                print(
                    f"    {peer['peer']} {peer['addr']}: "
                    f"ack_seq {peer['ack_seq']}, "
                    f"lag {peer['lag_records']} record(s)"
                )
        else:
            print(f"  {key}: {value}")
    return 0


def cmd_promote(args: argparse.Namespace) -> int:
    """Promote a replica to primary (docs/REPLICATION.md runbook)."""
    import socket as _socket

    from repro.net.client import parse_endpoints
    from repro.net.frame import (
        FT_ERROR,
        FT_HELLO,
        FT_HELLO_OK,
        FT_PROMOTE,
        FT_PROMOTED,
        FrameSocket,
        PROTOCOL_VERSION,
    )
    from repro.net.protocol import decode_error

    host, port = parse_endpoints(args.url)[0]
    try:
        sock = _socket.create_connection((host, port), timeout=args.timeout)
    except OSError as e:
        print(f"error: cannot reach {host}:{port}: {e}", file=sys.stderr)
        return 1
    fs = FrameSocket(sock)
    try:
        fs.send_magic()
        fs.send_frame(FT_HELLO, {"proto": PROTOCOL_VERSION, "user": args.user})
        ftype, payload = fs.recv_frame()
        if ftype == FT_ERROR:
            raise decode_error(payload)
        if ftype != FT_HELLO_OK:
            print(f"error: unexpected frame type {ftype}", file=sys.stderr)
            return 1
        fs.send_frame(FT_PROMOTE, {})
        ftype, payload = fs.recv_frame()
        if ftype == FT_ERROR:
            raise decode_error(payload)
        if ftype != FT_PROMOTED:
            print(f"error: unexpected frame type {ftype}", file=sys.stderr)
            return 1
        print(
            f"promoted {host}:{port}: now primary at replication epoch "
            f"{payload['repl_epoch']} (seq {payload['seq']})"
        )
    except GraQLError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        fs.close()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Execute a script and print the Prometheus metrics exposition."""
    if args.replication:
        return cmd_ping(
            argparse.Namespace(url=args.replication, timeout=5.0)
        )
    if not args.script:
        print(
            "error: a script is required unless --replication URL is given",
            file=sys.stderr,
        )
        return 2
    db = (
        _demo_database(args.demo, args.scale) if args.demo else Database()
    )
    params = _parse_params(args.param or [])
    try:
        db.execute_file(args.script, params)
    except GraQLError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.indexes:
        report = db.schema()
        if not report.indexes:
            print("(no indexes)")
        for info in report.indexes:
            print(info.describe())
        return 0
    print(db.render_metrics(), end="")
    return 0


def _demo_database(name: str, scale: int) -> Database:
    if name == "berlin":
        from repro.workloads.berlin import berlin_database

        return berlin_database(scale=scale, with_export=True)
    if name == "cyber":
        from repro.workloads.cyber import cyber_database

        return cyber_database(hosts_per_subnet=max(scale // 4, 5))
    if name == "biology":
        from repro.workloads.biology import biology_database

        return biology_database(num_pathways=max(scale // 40, 2))
    raise SystemExit(f"unknown demo {name!r} (berlin | cyber | biology)")


def _repl(db: Database, limit: int) -> int:
    print(
        "GraQL REPL — terminate a statement with an empty line; "
        "\\explain <stmt> shows plans; \\profile <stmt> runs explain "
        "analyze; \\check <stmt> analyzes without running; "
        "\\stats prints metrics; \\di lists indexes; \\quit to exit"
    )
    conn = db.connect()  # one serving-layer connection for the session
    buffer: list[str] = []
    while True:
        try:
            prompt = "graql> " if not buffer else "  ...> "
            line = input(prompt)
        except EOFError:
            print()
            return 0
        stripped = line.strip()
        if not buffer and stripped.startswith("\\explain "):
            try:
                print(db.explain(stripped[len("\\explain "):]))
            except GraQLError as e:
                print(f"error: {e}", file=sys.stderr)
            continue
        if not buffer and stripped.startswith("\\profile "):
            try:
                print(db.explain(stripped[len("\\profile "):], mode="analyze"))
            except GraQLError as e:
                print(f"error: {e}", file=sys.stderr)
            continue
        if not buffer and stripped == "\\stats":
            print(db.render_metrics(), end="")
            continue
        if not buffer and stripped.startswith("\\check "):
            print(db.analyze(stripped[len("\\check "):]).render_text("<repl>"))
            continue
        if not buffer and stripped.startswith("\\"):
            if stripped in ("\\quit", "\\q"):
                return 0
            if stripped == "\\tables":
                for name, meta in sorted(db.catalog.tables.items()):
                    print(f"  {name} ({meta.num_rows} rows)")
            elif stripped == "\\vertices":
                for name, meta in sorted(db.catalog.vertices.items()):
                    print(f"  {name} ({meta.num_vertices} instances)")
            elif stripped == "\\edges":
                for name, meta in sorted(db.catalog.edges.items()):
                    print(f"  {name} ({meta.num_edges} edges)")
            elif stripped == "\\subgraphs":
                for name in sorted(db.catalog.subgraphs):
                    print(f"  {name}")
            elif stripped == "\\di":
                report = db.schema()
                if not report.indexes:
                    print("  (no indexes)")
                for info in report.indexes:
                    print(f"  {info.describe()}")
            elif stripped == "\\schema":
                print(db.schema())
            else:
                print(f"unknown command {stripped!r}")
            continue
        terminated = stripped.endswith(";")
        if stripped:
            buffer.append(line.rstrip(";") if terminated else line)
        if buffer and (not stripped or terminated):
            text = "\n".join(buffer)
            buffer = []
            try:
                _execute_and_print(conn, text, None, limit)
            except GraQLError as e:
                print(f"error: {e}", file=sys.stderr)


def cmd_repl(args: argparse.Namespace) -> int:
    return _repl(Database(), args.limit)


def cmd_demo(args: argparse.Namespace) -> int:
    db = _demo_database(args.name, args.scale)
    print(f"loaded demo {args.name!r}: {db.db}")
    return _repl(db, args.limit)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="graql", description="GraQL attributed-graph database client"
    )
    parser.add_argument(
        "--limit", type=int, default=20, help="max rows printed per table"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a GraQL script file")
    p_run.add_argument("script")
    p_run.add_argument(
        "--param", action="append", metavar="NAME=VALUE", help="query parameter"
    )
    p_run.add_argument(
        "--explain",
        action="store_true",
        help="print the plans instead of executing",
    )
    p_run.add_argument(
        "--db",
        metavar="PATH",
        help="durable database directory (WAL + checkpoints); created on "
        "first use, recovered on every later one",
    )
    p_run.add_argument(
        "--fsync",
        choices=["always", "batch", "off"],
        default="always",
        help="WAL fsync policy for --db (default: always)",
    )
    p_run.set_defaults(func=cmd_run)

    p_srv = sub.add_parser(
        "serve", help="serve a database over TCP (binary wire protocol)"
    )
    p_srv.add_argument(
        "address",
        metavar="HOST:PORT",
        help="bind address; ':PORT' binds loopback, port 0 picks a free port",
    )
    p_srv.add_argument(
        "--db",
        metavar="PATH",
        help="serve the durable database directory at PATH (created on "
        "first use, recovered on start)",
    )
    p_srv.add_argument(
        "--fsync",
        choices=["always", "batch", "off"],
        default="always",
        help="WAL fsync policy for --db (default: always)",
    )
    p_srv.add_argument(
        "--demo",
        choices=["berlin", "cyber", "biology"],
        help="serve a demo dataset instead of an empty database",
    )
    p_srv.add_argument("--scale", type=int, default=200)
    p_srv.add_argument(
        "--replica-of",
        metavar="URL",
        help="run as a streaming read-only replica of the primary at URL "
        "(requires --db; see docs/REPLICATION.md)",
    )
    p_srv.add_argument(
        "--max-connections",
        type=int,
        default=64,
        help="refuse connections beyond this many concurrent sessions",
    )
    p_srv.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        help="close connections idle for this many seconds",
    )
    p_srv.set_defaults(func=cmd_serve)

    p_rec = sub.add_parser(
        "recover", help="recover a durable database directory and report"
    )
    p_rec.add_argument("path")
    p_rec.add_argument(
        "--verify",
        action="store_true",
        help="additionally prove the recovery invariants; exit 0 iff clean",
    )
    p_rec.set_defaults(func=cmd_recover)

    p_ckpt = sub.add_parser(
        "checkpoint", help="snapshot a durable database and truncate its WAL"
    )
    p_ckpt.add_argument("path")
    p_ckpt.set_defaults(func=cmd_checkpoint)

    p_check = sub.add_parser(
        "check", help="statically analyze a script without executing it"
    )
    p_check.add_argument("script", nargs="+")
    p_check.add_argument(
        "--param", action="append", metavar="NAME=VALUE", help="query parameter"
    )
    p_check.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when warnings are present (errors always exit 2)",
    )
    p_check.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )
    p_check.add_argument(
        "--demo",
        choices=["berlin", "cyber", "biology"],
        help="analyze against a demo dataset's catalog instead of an "
        "empty database",
    )
    p_check.add_argument("--scale", type=int, default=200)
    p_check.set_defaults(func=cmd_check)

    p_dev = sub.add_parser(
        "devcheck",
        help="self-analyze the engine source for concurrency and "
        "durability invariant violations (GDL codes)",
    )
    p_dev.add_argument(
        "path", nargs="+", help="files or directories of engine source"
    )
    p_dev.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="diagnostic output format",
    )
    p_dev.add_argument(
        "--baseline", metavar="FILE",
        help="reviewed suppression baseline (JSON; see docs/DEVLINT.md)",
    )
    p_dev.add_argument(
        "--strict", action="store_true",
        help="exit 1 when only warnings are found",
    )
    p_dev.set_defaults(func=cmd_devcheck)

    p_prof = sub.add_parser(
        "profile", help="explain analyze a script (plans + measured profiles)"
    )
    p_prof.add_argument("script")
    p_prof.add_argument(
        "--param", action="append", metavar="NAME=VALUE", help="query parameter"
    )
    p_prof.add_argument(
        "--demo",
        choices=["berlin", "cyber", "biology"],
        help="run against a demo dataset instead of an empty database",
    )
    p_prof.add_argument("--scale", type=int, default=200)
    p_prof.set_defaults(func=cmd_profile)

    p_stats = sub.add_parser(
        "stats", help="execute a script and print Prometheus metrics"
    )
    p_stats.add_argument("script", nargs="?")
    p_stats.add_argument(
        "--replication",
        metavar="URL",
        help="print a remote server's replication status (PING) instead "
        "of running a script",
    )
    p_stats.add_argument(
        "--param", action="append", metavar="NAME=VALUE", help="query parameter"
    )
    p_stats.add_argument(
        "--demo",
        choices=["berlin", "cyber", "biology"],
        help="run against a demo dataset instead of an empty database",
    )
    p_stats.add_argument("--scale", type=int, default=200)
    p_stats.add_argument(
        "--indexes",
        action="store_true",
        help="print secondary-index + statistics state instead of metrics",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_ping = sub.add_parser(
        "ping", help="health-check a server (no auth, no admission queue)"
    )
    p_ping.add_argument("url", metavar="URL", help="graql://HOST:PORT[,HOST:PORT...]")
    p_ping.add_argument("--timeout", type=float, default=5.0)
    p_ping.set_defaults(func=cmd_ping)

    p_promote = sub.add_parser(
        "promote",
        help="promote a replica to primary (fence the old timeline, "
        "open writes)",
    )
    p_promote.add_argument("url", metavar="URL")
    p_promote.add_argument(
        "--user", default="admin", help="admin account (default: admin)"
    )
    p_promote.add_argument("--timeout", type=float, default=10.0)
    p_promote.set_defaults(func=cmd_promote)

    p_repl = sub.add_parser("repl", help="interactive session (empty database)")
    p_repl.set_defaults(func=cmd_repl)

    p_demo = sub.add_parser("demo", help="interactive session on a demo dataset")
    p_demo.add_argument("name", choices=["berlin", "cyber", "biology"])
    p_demo.add_argument("--scale", type=int, default=200)
    p_demo.set_defaults(func=cmd_demo)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
