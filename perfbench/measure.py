"""Measuring process of the study benchmark.

Started by run.py with the BLAS thread variables already set, so numpy sees
them when it loads.  Runs the named workload's study one call at a time,
call k on cavity `first + k` of the seed's sequence, and writes one JSON
object per line to standard output:

    {"env": {...}}      first: library versions
    {"op": {...}}       after every study call
    {"done": {}}        last

run.py turns these records into the metrics; a study call that never
returns shows up there as a missing "op" record.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import numpy
import scipy

import workloads as wl
from probe import Probe, layer_metrics
from spans import Recorder

# Calls made even when they overrun `seconds`: a median needs two samples,
# and a traced run needs an untraced and a traced call.
MIN_CALLS = 2


def library_versions() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def run_op(workload, cfg, recorder) -> dict:
    """One study call, checked by the workload's gates; returns its "op" record."""
    probe = Probe(recorder)
    result, bad = None, []
    with probe:
        t0 = time.perf_counter()
        try:
            if recorder is None:
                result = workload.run(cfg)
            else:
                with recorder.span(f"studies.{cfg.study}"):
                    result = workload.run(cfg)
        except Exception as exc:  # a failed op must not stop the benchmark
            traceback.print_exc()
            bad = [f"{type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - t0
    if result is not None:
        bad = workload.check(result) + wl.residual_violations(probe.spectra)
    op = {"seconds": seconds, "traced": recorder is not None, "violations": bad,
          "pencils": len(probe.spectra)}
    if recorder is not None:
        op["spans"] = recorder.export(recorder.trace_id)
    if not bad:
        errors = wl.rel_errors(result, probe.matches)
        op["rel_error_max"] = max(errors) if errors else None
        if recorder is not None:
            op["layers"] = layer_metrics(recorder, recorder.trace_id)
    return op


def measure(workload, seed: int, first: int, seconds: float, trace: bool, emit) -> None:
    """Closed loop of study calls for about `seconds`, at least MIN_CALLS;
    emits each op record.

    With `trace` the calls alternate untraced and traced, starting untraced,
    so both kinds are measured under the same conditions; a traced call's
    trace id is its cavity index, and its op record carries its spans.
    """
    recorder = Recorder() if trace else None
    durations = []
    start = time.perf_counter()
    while True:
        traced = trace and len(durations) % 2 == 1
        index = first + len(durations)
        cfg = workload.config(seed, index)
        if traced:
            recorder.new_trace(index)
        op = run_op(workload, cfg, recorder if traced else None)
        op.update(cavity=index, R=cfg.R, L=cfg.L,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        emit({"op": op})
        durations.append(op["seconds"])
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_CALLS and elapsed + statistics.median(durations) > seconds:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, default=0, help="index of the first cavity")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true", help="trace every second call")
    args = parser.parse_args(argv)

    def emit(record):
        print(json.dumps(record), flush=True)

    workload = wl.WORKLOADS[args.workload]
    emit({"env": library_versions()})
    wl.warm_up(workload.degrees(workload.config(args.seed, args.first)))
    measure(workload, args.seed, args.first, args.seconds, args.trace, emit)
    emit({"done": {}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
