"""Server subprocesses for the remote and replicated workloads.

The parent side (:class:`ServerProc`) starts ``python procs.py ...`` as a
child, reads the ``graql://`` URL the child announces, and stops it with
SIGTERM (drain) or SIGKILL (the durability check).  The child side
(:func:`serve_main`) builds its database through the public API —
``berlin_database`` / ``Database.open`` / ``Replica`` — and serves it with
``GraqlServer``, exactly what ``graql serve`` does, plus two things the
benchmark needs from outside a running server: SIGUSR1 dumps the server's
``MetricsRegistry.snapshot()`` to a file, and the child exits when its
parent vanishes, so a crashed benchmark leaves no orphan.

Processes are not pinned to cores: on the 2-vCPU sandbox pinning client
and server apart made ``remote_stream`` about 30% and
``ingest_read_mix`` about 2x slower, and noisier (README.md, "Known
constraints").
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: seconds a child gets to announce its URL / answer SIGUSR1 / drain
START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size (``VmHWM``) of *pid*, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServerProc:
    """One server child: start, read metrics, stop — no orphan left."""

    def __init__(self, workdir: str, tag: str, args: list[str]) -> None:
        self.stats_file = os.path.join(workdir, f"{tag}.metrics.json")
        self._args = args + ["--stats-file", self.stats_file]
        self._proc: Optional[subprocess.Popen] = None
        self.url = ""

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def start(self) -> "ServerProc":
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)] + self._args,
            env=env, stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self._proc.stdout], [], [], START_TIMEOUT)
        line = self._proc.stdout.readline() if ready else ""
        if not line.startswith("graql://"):
            self.kill()
            raise RuntimeError(f"server child did not announce a URL: {line!r}")
        self.url = line.strip()
        return self

    def metrics(self) -> dict[str, Any]:
        """The server's counters right now (SIGUSR1 -> snapshot file)."""
        assert self._proc is not None
        # a session folds a request's byte counts into the registry just
        # after sending its last frame: let that happen before reading
        time.sleep(0.05)
        if os.path.exists(self.stats_file):
            os.remove(self.stats_file)
        self._proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + STOP_TIMEOUT
        while not os.path.exists(self.stats_file):
            if time.monotonic() > deadline or self._proc.poll() is not None:
                raise RuntimeError("server child did not dump its metrics")
            time.sleep(0.005)
        with open(self.stats_file, encoding="utf-8") as fh:
            return json.load(fh)

    def stop(self) -> None:
        """SIGTERM: drain in-flight requests, close the WAL, exit."""
        self._end(signal.SIGTERM)

    def kill(self) -> None:
        """SIGKILL: no drain, no WAL close — a crash."""
        self._end(signal.SIGKILL)

    def _end(self, sig: int) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(sig)
            try:
                proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------

def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(3)


def serve_main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="procs.py")
    ap.add_argument("kind", choices=["berlin", "durable", "replica"])
    ap.add_argument("--scale", type=int, default=0)
    ap.add_argument("--data-seed", type=int, default=0)
    ap.add_argument("--db")
    ap.add_argument("--fsync", default="always")
    ap.add_argument("--replica-of")
    ap.add_argument("--stats-file", required=True)
    args = ap.parse_args(argv)

    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()

    from repro import Database, GraqlServer

    replica = None
    if args.kind == "berlin":
        from repro.workloads.berlin import berlin_database

        db = berlin_database(scale=args.scale, seed=args.data_seed)
    elif args.kind == "durable":
        db = Database.open(args.db, fsync=args.fsync)
    else:
        from repro.replication import Replica

        replica = Replica(args.db, args.replica_of, durability={"fsync": args.fsync})
        db = replica.database
    server = GraqlServer(None if replica is not None else db, replica=replica)
    server.start()
    if replica is not None:
        replica.start()

    def dump(signum: int, frame: object) -> None:
        tmp = args.stats_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(db.metrics.snapshot(), fh)
        os.replace(tmp, args.stats_file)

    signal.signal(signal.SIGUSR1, dump)
    signal.signal(signal.SIGTERM, lambda s, f: server.shutdown(drain=True))
    print(server.url, flush=True)
    try:
        server.serve_forever()
    finally:
        server.shutdown()
        if replica is not None:
            replica.stop()
        db.close()
    return 0


if __name__ == "__main__":
    sys.exit(serve_main(sys.argv[1:]))
