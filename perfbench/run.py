"""Study benchmark for axicav.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one library study of the named workload (see workloads.py) again and
again, one call at a time (a closed loop), for about S seconds on a cavity
drawn from the seed, and checks every result with the workload's physics
gates.  Call k of a run studies cavity k of the seed's sequence.  The study
calls run in a fresh measuring process (measure.py); this process times the
set-up, kills the measuring process when a study call never returns,
counts that call as failed, goes on with the next cavity in a new measuring
process, and turns the records into metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones, measured
with tracing off; with --trace 1 the calls alternate untraced and traced,
the metrics are the per-layer ones from the traced calls, and their spans
are written to perfbench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the measuring process loads one core and leaves the other
# to this process and the rest of the machine.
BLAS_THREADS = 1
SETUP_REPEATS = 7
# A study call that gives no result for TIMEOUT_FACTOR times the median
# completed call (FIRST_CALL_TIMEOUT_S before any call completed, over twice
# the slowest workload's call) is stuck: it counts as failed and its
# measuring process is killed.  A new measuring process starts only while
# its MIN_CALLS calls, each given the current timeout, end before RUN_CAP_S,
# so that a run ends within 180 s.
FIRST_CALL_TIMEOUT_S = 50.0
TIMEOUT_FACTOR = 3.0
RUN_CAP_S = 160.0

END_TO_END_UNITS = {
    "study_s": "s",
    "study_s_max": "s",
    "pencils_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rel_error_max": "rel",
}

# Imported from fresh interpreters: what a user pays before the first study call.
_SETUP_SNIPPET = "import sys, workloads; workloads.warm_up(sys.argv[1:])"


def pin_blas_threads() -> None:
    """Sets the BLAS thread variables for this process and every child.

    Must run before numpy is imported anywhere in this process.
    """
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    path = [str(SRC), str(BENCH_DIR), os.environ.get("PYTHONPATH", "")]
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in path if p)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def setup_seconds(degrees, repeats: int) -> list:
    """Wall time of fresh interpreters importing axicav and warming up."""
    cmd = [sys.executable, "-c", _SETUP_SNIPPET, *map(str, degrees)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return times


def collect(cmd, timeout):
    """Run the measuring process and gather its JSON records.

    Returns (records, returncode, hung).  When no record arrives for
    `timeout(records so far)` seconds, the process is killed and `hung` is
    the seconds since its last record: a study call was in flight that long.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    lines = queue.Queue()

    def read():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    last = time.monotonic()
    records, hung = [], None
    try:
        while True:
            try:
                line = lines.get(timeout=max(0.0, last + timeout(records) - time.monotonic()))
            except queue.Empty:
                hung = time.monotonic() - last
                break
            if line is None:
                break
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if isinstance(record, dict):
                records.append(record)
                last = time.monotonic()
            else:
                sys.stderr.write(line)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
        proc.stdout.close()
    return records, proc.returncode, hung


def ops_of(records, returncode: int, hung: float | None) -> list:
    """The "op" records, plus a failed one for a call that never reported.

    Without a "done" record the measuring process hung or died in the
    middle of a study call; that call is counted as attempted and failed,
    and its time, unmeasured, stays out of the timings.
    """
    ops = [r["op"] for r in records if "op" in r]
    if not any("done" in r for r in records):
        why = (f"study call gave no result within {hung:.0f} s" if hung is not None
               else f"measuring process died with code {returncode}")
        ops.append({"seconds": hung or 0.0, "traced": False, "violations": [why],
                    "pencils": 0, "hung": True})
    return ops


def call_timeout(ops) -> float:
    done = [op["seconds"] for op in ops if not op.get("hung")]
    return TIMEOUT_FACTOR * statistics.median(done) if done else FIRST_CALL_TIMEOUT_S


def end_to_end(ops, setup) -> dict:
    done = [op for op in ops if not op.get("hung")]
    # Only when every call hung: the time waited, a lower bound.
    study = [op["seconds"] for op in done if not op["traced"]] or [
        op["seconds"] for op in ops]
    ok = [op for op in ops if not op["violations"]]
    solved = sum(op["seconds"] for op in ok)
    errors = [op["rel_error_max"] for op in ok if op.get("rel_error_max") is not None]
    peak = (max(op["peak_rss_mb"] for op in done) if done
            else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    return {
        "study_s": statistics.median(study),
        "study_s_max": max(study),
        "pencils_per_s": sum(op["pencils"] for op in ok) / solved if solved else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
        "rel_error_max": max(errors, default=0.0),
    }


def per_layer(ops) -> tuple[dict, dict]:
    from probe import LAYER_UNITS

    layers = [op["layers"] for op in ops if "layers" in op]
    values = {k: (statistics.median(m[k] for m in layers) if layers else 0.0)
              for k in LAYER_UNITS}
    done = [op for op in ops if not op.get("hung")]
    traced = [op["seconds"] for op in done if op["traced"]]
    untraced = [op["seconds"] for op in done if not op["traced"]]
    values["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)
                                  if traced and untraced else 0.0)
    return values, {**LAYER_UNITS, "trace.overhead_s": "s"}


def report(ops, values: dict, units: dict) -> dict:
    """Prints the metric table and the result line; returns the result."""
    failed = sum(1 for op in ops if op["violations"])
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    table = {**metrics, "ops_failed_frac": {"value": failed / len(ops), "unit": "ratio"}}
    print(f"# samples: {len(ops)} study calls, {failed} failed")
    for name, m in table.items():
        print(f"{name:<28} {m['value']:<22.10g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "axicav" / "__init__.py").is_file():
        print(f"axicav sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path[:0] = [p for p in (str(SRC), str(BENCH_DIR)) if p not in sys.path]
    # Imported only now: numpy must see the thread variables set above.
    import workloads as wl
    from measure import MIN_CALLS

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    env = {"nproc": len(os.sched_getaffinity(0)),
           "threads": {var: os.environ[var] for var in THREAD_VARS},
           "python": platform.python_version(), "commit": git_commit()}
    setup = [] if args.trace else setup_seconds(
        workload.degrees(workload.config(args.seed)), SETUP_REPEATS)

    cmd = [sys.executable, str(BENCH_DIR / "measure.py"), "--workload", workload.name,
           "--seed", str(args.seed)]
    if args.trace:
        cmd.append("--trace")
    ops, versions, first = [], None, 0
    start = time.monotonic()
    while True:
        remaining = max(0.0, args.seconds - (time.monotonic() - start))
        records, returncode, hung = collect(
            [*cmd, "--first", str(first), "--seconds", str(remaining)],
            lambda recs: call_timeout(ops + [r["op"] for r in recs if "op" in r]))
        versions = versions or next((r["env"] for r in records if "env" in r), None)
        if versions is None:  # the measuring process could not start: no result
            print(f"measuring process exited with code {returncode}", file=sys.stderr)
            return returncode or 1
        new = ops_of(records, returncode, hung)
        ops += new
        if any("done" in r for r in records):
            break
        first += len(new)  # go on after the cavity whose call never returned
        elapsed = time.monotonic() - start
        completed = any(not op.get("hung") for op in ops)
        if (elapsed >= args.seconds and completed) or (
                elapsed + MIN_CALLS * call_timeout(ops) > RUN_CAP_S):
            break

    print("# env " + json.dumps({**env, **versions}))
    print("# input " + json.dumps({
        "workload": workload.name, "seed": args.seed,
        "cavities": [[op["cavity"], op["R"], op["L"]] for op in ops if "cavity" in op]}))
    for op in ops:
        for msg in op["violations"]:
            print(f"gate failed: {workload.name}: {msg}", file=sys.stderr)
    if args.trace:
        from spans import write_jsonl

        path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        write_jsonl(path, {"workload": workload.name, "seed": args.seed, **versions},
                    (sp for op in ops for sp in op.pop("spans", ())))
        print(f"# spans {path.relative_to(ROOT)}")
        values, units = per_layer(ops)
    else:
        values, units = end_to_end(ops, setup), END_TO_END_UNITS
    report(ops, values, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
