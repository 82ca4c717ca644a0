"""One command for the GraQL statement path: end-to-end and per-layer.

Two ways in (README.md has the details):

* **one run** — what ``BENCHMARK.json``'s ``command`` is called with::

      python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

  sets the workload up, checks every result, measures for ``S`` seconds
  and prints one JSON object as the last line of standard output:
  the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
  traced pass (``--trace 1``).  Exit code 1 if any check failed.

* **the suite** — no ``--trace``::

      python3 benchmarks/perf/run.py [--seed N] [--workload NAME]... [--traced]
                                     [--aa N] [--quick] [--out FILE]

  runs every named workload (default: all five) in its own fresh child
  interpreter and prints one JSON document: environment, commit, seed,
  per-workload end-to-end metrics with sample counts, the layer table
  and diagnostics.  ``--aa N`` repeats the suite N times and prints the
  run-to-run spread of every metric against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: scratch space of a run (server directories, CSV files, span logs);
#: inside the checkout and in .gitignore
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SCHEMA_VERSION = 1
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
QUICK_SECONDS = 1
#: an A/A spread beyond this is flagged: the metric cannot be gated at 10%
AA_SPREAD_LIMIT = 0.10


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"run.py: no src/repro under {ROOT}: nothing to benchmark")
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import measure
    import procs
    from workloads import WORKLOADS

    spec = load_spec()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    wl = WORKLOADS[name](seed, seconds, workdir)
    setup_s = []
    try:
        for i in range(1 if trace else SETUP_REPEATS):
            if i:
                wl.teardown()
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
        try:
            wl.build_twin()
            wl.verify_ops()
            if trace:
                import layers

                log = os.path.join(WORK_ROOT, f"spans-{name}-{seed}.jsonl")
                attempted, failed, values, detail = layers.traced_pass(wl, log)
                wanted = spec["per_layer"]
            else:
                warm = measure.drive(wl.ops, wl.run_op, **wl.warmup_box())
                window = measure.drive(
                    wl.ops, wl.run_op, first=warm.next, **wl.window_box()
                )
                attempted, failed = window.attempted, window.failed
                values, detail = measure.end_to_end(window, wl.ops)
                values["peak_rss_mb"] = procs.peak_rss_mb(wl.engine_pid())
                values["setup_s"] = statistics.median(setup_s)
                detail["setup_samples_s"] = setup_s
                wanted = spec["end_to_end"]
            wl.finish()
        finally:
            wl.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(
        workload=name, seed=seed, seconds=seconds, trace=int(trace),
        statements=attempted, checks=wl.checks,
        flush_policy=getattr(wl, "flush_policy", None),
    )
    attempted += wl.checks
    failed += wl.check_failures
    detail["failed_frac"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print("DETAIL " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------

def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh interpreter; its result and detail lines."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("DETAIL "):
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"run.py: {name} (trace {trace}) printed no result")
    out = json.loads(lines[-1])
    out["detail"] = json.loads(lines[-2][len("DETAIL "):])
    out["exit_code"] = proc.returncode
    for line in lines[:-2]:
        print(f"[{name}] {line}", file=sys.stderr)
    return out


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_suite(names: list[str], seed: int, seconds: float, traced: bool) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "environment": environment(),
        "seed": seed,
        "seconds": seconds,
        "workloads": {},
    }
    for name in names:
        e2e = run_child(name, seed, seconds, 0)
        entry = {
            "end_to_end": e2e["metrics"],
            "attempted": e2e["attempted"],
            "failed": e2e["failed"],
            "failed_frac": e2e["detail"]["failed_frac"],
            "diagnostics": e2e["detail"],
        }
        ok = e2e["correct"] and e2e["exit_code"] == 0
        if traced:
            layer = run_child(name, seed, seconds, 1)
            entry["per_layer"] = layer["metrics"]
            entry["layer_diagnostics"] = layer["detail"]
            ok = ok and layer["correct"] and layer["exit_code"] == 0
        entry["correct"] = ok
        doc["workloads"][name] = entry
    doc["correct"] = all(w["correct"] for w in doc["workloads"].values())
    return doc


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (two values: their
    distance as a share of their mean)."""
    if len(values) < 2:
        return 0.0
    mid = statistics.median(values)
    if mid == 0:
        return 0.0
    if len(values) == 2:
        return abs(values[0] - values[1]) / abs(mid)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def aa_table(docs: list[dict], spec: dict) -> list[dict]:
    """Per metric x workload: the values of the A/A sets, their spread,
    the bound, and whether the spread is over a tenth."""
    rows = []
    for name in docs[0]["workloads"]:
        for m in spec["end_to_end"]:
            values = [
                d["workloads"][name]["end_to_end"][m["name"]]["value"] for d in docs
            ]
            s = spread(values)
            rows.append({
                "workload": name, "metric": m["name"], "unit": m["unit"],
                "values": values, "spread": s, "bound": m["bound"],
                "over_a_tenth": s > AA_SPREAD_LIMIT,
            })
    return rows


def main(argv: list[str]) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names, metavar="NAME",
                    help=f"one of {', '.join(names)} (repeatable in suite mode)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measured seconds per run (default {spec['run_seconds']})")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="one run: 0 = end-to-end metrics, 1 = traced per-layer pass")
    ap.add_argument("--traced", action="store_true",
                    help="suite: also run the traced pass of every workload")
    ap.add_argument("--aa", type=int, default=0, metavar="N",
                    help="suite: run N complete sets and print each metric's spread")
    ap.add_argument("--quick", action="store_true",
                    help=f"suite: {QUICK_SECONDS}-second windows (smoke test)")
    ap.add_argument("--out", metavar="FILE", help="suite: also write the document here")
    args = ap.parse_args(argv)
    seconds = args.seconds or (QUICK_SECONDS if args.quick else spec["run_seconds"])

    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            ap.error("--trace needs exactly one --workload")
        return run_one(args.workload[0], args.seed, seconds, bool(args.trace))

    selected = args.workload or names
    docs = [
        run_suite(selected, args.seed, seconds, args.traced)
        for _ in range(max(1, args.aa))
    ]
    doc = docs[-1]
    if args.aa:
        doc["aa"] = aa_table(docs, spec)
        for row in doc["aa"]:
            flag = "  <- over a tenth" if row["over_a_tenth"] else ""
            print(
                f"{row['workload']:16s} {row['metric']:20s} spread "
                f"{row['spread']:.4f} bound {row['bound']:.2f}{flag}",
                file=sys.stderr,
            )
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if all(d["correct"] for d in docs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
