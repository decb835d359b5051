"""Tests of the study benchmark itself: metrics, gates, watchdog, spans."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import measure
import run
import workloads as wl
from spans import Recorder

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# A spurious scan on a two-rung ladder: milliseconds per study call.
TINY_ENTRIES = {"study": "spurious", "transforms": "TB", "n": "1", "q": "2", "p": "1",
                "mesh_ladder": "2,3", "modes": "3"}


def tiny_ops(check, trace=False):
    workload = wl.Workload("tiny", TINY_ENTRIES, check)
    records = []
    measure.measure(workload, 3, 0, 0.0, trace, records.append)
    return [r["op"] for r in records]


def printed_units(out: str) -> dict:
    rows = (re.fullmatch(r"(\S+)\s+(\S+)\s+(\S+)", line) for line in out.splitlines())
    return {m[1]: m[3] for m in rows if m}


def result_line(out: str) -> dict:
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_smoke_run_prints_every_end_to_end_metric_with_unit(capsys):
    ops = tiny_ops(wl.spurious_counts(clean=("TB",), flooded=()))
    run.report(ops, run.end_to_end(ops, setup=[0.5, 0.4, 0.6]), run.END_TO_END_UNITS)
    out = capsys.readouterr().out
    units = printed_units(out)
    result = result_line(out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == len(ops)
    for metric in BENCHMARK["end_to_end"]:
        assert units[metric["name"]] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert units["ops_failed_frac"] == "ratio"
    assert result["metrics"]["setup_s"]["value"] == 0.5


def test_traced_run_prints_every_per_layer_metric_with_unit(capsys):
    ops = tiny_ops(wl.spurious_counts(clean=("TB",), flooded=()), trace=True)
    assert [op["traced"] for op in ops] == [False, True]
    root, *children = ops[1]["spans"]
    assert root["name"] == "studies.spurious" and root["parent"] is None
    assert root["trace_id"] == ops[1]["cavity"] == 1
    assert {sp["parent"] for sp in children} == {root["id"]}
    run.report(ops, *run.per_layer(ops))
    out = capsys.readouterr().out
    units = printed_units(out)
    metrics = result_line(out)["metrics"]
    for metric in BENCHMARK["per_layer"]:
        assert units[metric["name"]] == metric["unit"]
    assert metrics["assembly.calls"]["value"] == 2
    assert metrics["eigen.dense_calls"]["value"] == 2
    assert metrics["assembly.qp_evals"]["value"] == pytest.approx(
        metrics["quadrature.points_per_tri"]["value"] * (2 * 2 + 3 * 3) * 2)


def test_wrong_expectation_registers_as_failed_op(capsys):
    # TB with q = p + 1 is spurious-free, so expecting spurious modes must fail.
    ops = tiny_ops(wl.spurious_counts(clean=(), flooded=("TB",)))
    assert all(op["violations"] for op in ops)
    run.report(ops, run.end_to_end(ops, setup=[0.5]), run.END_TO_END_UNITS)
    out = capsys.readouterr().out
    result = result_line(out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(ops)
    assert re.search(r"^ops_failed_frac\s+1\s+ratio$", out, re.M)


def test_gates_flag_each_violation():
    assert wl.slopes_within(3.6, 4.6)(([], {"TB": 4.05, "TC(1,1)": 3.2}))[0].startswith("TC(1,1)")
    flags = {"TA": True, "TC(1,2)": True}
    assert wl.degree_stability(("TC(1,2)",), ("TA",))(([], flags, {})) == [
        "TA: expected degree-sensitive"]

    class Spectrum:
        residuals = np.array([1e-12, 3e-8])

    assert wl.residual_violations([Spectrum()]) == ["eigenpair residual 3.000e-08"]
    assert wl.residual_violations([]) == ["no spectrum was computed"]


def test_study_that_raises_is_a_failed_op():
    # A quadrature sweep without quad_degrees raises when it runs.
    entries = {**TINY_ENTRIES, "study": "quadsweep", "target": "TE,1,1,1"}
    workload = wl.Workload("broken", entries, wl.degree_stability(("TB",), ()))
    op = measure.run_op(workload, workload.config(3, 0), None)
    assert op["violations"] and "rel_error_max" not in op


def test_hung_measuring_process_is_killed_and_counted_failed(tmp_path):
    worker = tmp_path / "worker.py"
    worker.write_text(textwrap.dedent("""
        import json, time
        print(json.dumps({"env": {}, "input": {}}), flush=True)
        print(json.dumps({"op": {"seconds": 0.1, "traced": False,
                                 "violations": [], "pencils": 1}}), flush=True)
        time.sleep(60)
    """))
    records, returncode, hung = run.collect([sys.executable, str(worker)], lambda recs: 2.0)
    assert returncode != 0 and hung is not None and len(records) == 2
    ops = run.ops_of(records, returncode, hung)
    assert [bool(op["violations"]) for op in ops] == [False, True]
    assert "no result" in ops[-1]["violations"][0]
    # The hung call is a failure, not a timing: it stays out of study_s.
    ops[0]["peak_rss_mb"] = 100.0
    values = run.end_to_end(ops, setup=[0.5])
    assert values["study_s"] == 0.1 and values["peak_rss_mb"] == 100.0
    assert run.call_timeout(ops) == pytest.approx(3 * 0.1)


def test_cavity_is_seeded_and_keeps_the_axial_subdivision():
    assert wl.cavity(7, 2) == wl.cavity(7, 2)
    assert len({str(wl.cavity(7, 0)), str(wl.cavity(7, 1)), str(wl.cavity(8, 0))}) == 3
    for seed in range(300):
        R, L = (float(v) for v in wl.cavity(seed % 10, seed).values())
        assert 0.5 <= R <= 2.0 and abs(L / R - 1.0) <= 0.01
        assert all(round(N * L / R) == N for N in range(1, 33))


def test_self_time_subtracts_the_union_of_child_spans():
    rec = Recorder()
    rec.new_trace(1)
    with rec.span("root"):
        pass
    root = rec.spans[0]
    root.start, root.end = 0.0, 10.0
    for start, end in ((1.0, 3.0), (2.0, 5.0), (6.0, 7.0)):
        rec.spans.append(type(root)("child", start, end, parent=0, trace_id=1))
    assert rec.self_times()[0] == pytest.approx(5.0)
    assert math.isclose(rec.self_times()[1], 2.0)


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(BENCH_DIR.parent / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    cmd = [*BENCHMARK["command"], "--workload", BENCHMARK["workloads"][0]["name"],
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
