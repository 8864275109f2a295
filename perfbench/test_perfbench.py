"""Tests of the benchmark itself (not part of the repository's tier-1 run).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench.spans import Span, SpanRecorder, _union_within  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from repro import run_protocol  # noqa: E402
from repro.tune import TuningTable  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args: str) -> "tuple[int, list[str]]":
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(workload, trace):
    code, lines = run_bench("--workload", workload, "--tiny", "--seed", "3",
                            "--seconds", "1", "--trace", trace,
                            "--trace-out", os.devnull)
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_inputs_are_seeded():
    for cls in WORKLOADS.values():
        wl = cls(tiny=True)
        if hasattr(wl, "inputs"):
            assert wl.inputs(5) == wl.inputs(5)
            assert wl.inputs(5) != wl.inputs(6)
    a, b = WORKLOADS["sweep-batch"](tiny=True), WORKLOADS["sweep-batch"](tiny=True)
    sa, sb = a._stream(5), b._stream(5)
    assert [next(sa) for _ in range(4)] == [next(sb) for _ in range(4)]


def test_checker_flags_a_completion_one_tick_off():
    wl = WORKLOADS["call-default"](tiny=True)
    call = wl.inputs(2)[0]
    result = wl.execute(call)
    assert wl.check(None, call, result) == []
    tick = Fraction(1, Fraction(call.lam).denominator)
    for delta in (tick, -tick):
        bad = replace(result, completion_time=result.completion_time + delta)
        assert wl.check(None, call, bad)
    # a schedule that disagrees with the collected metrics is flagged too
    other = run_protocol("BCAST", n=9, lam=2, backend="replay")
    if result.schedule is not None:
        assert wl.check(None, call, replace(result, schedule=other.schedule))


def test_batch_checker_flags_a_corrupted_row():
    wl = WORKLOADS["sweep-batch"](tiny=True)
    state = wl.setup(4)
    points = next(wl.calls(state))
    results = wl.execute(points)
    assert wl.check(state, points, results) == []
    bad = list(results)
    bad[0] = replace(bad[0], completion=str(Fraction(bad[0].completion) + 1))
    assert wl.check(state, points, bad)
    assert [i for i, _ in wl.final_check(state, [(7, points, bad)])] == [7]


def test_auto_checker_flags_a_wrong_family():
    wl = WORKLOADS["auto-select"]()
    state = {"table": TuningTable.load(os.path.join(ROOT, "TUNING_postal.json"))}
    call = next(c for c in wl.inputs(1) if c.grid and c.workload == "broadcast")
    result = wl.execute(call)
    assert wl.check(state, call, result) == []
    worse = run_protocol("STAR", n=call.n, m=call.m, lam=call.lam,
                         backend="replay")
    assert wl.check(state, call, worse)


def test_calls_are_timed_at_their_inputs_fastest_repetition():
    from perfbench.run import call_times

    run = {"keys": ["a", "b", "a", ("c", 1), "b"],
           "durations": [3.0, 5.0, 1.0, 7.0, 6.0]}
    assert call_times(run) == [1.0, 5.0, 1.0, 7.0, 5.0]


def test_self_time_subtracts_children_union():
    rec = SpanRecorder()
    rec.spans = [
        Span(1, None, "root", 0, 0, 100, 1, {}),
        Span(2, 1, "a", 0, 10, 40, 1, {"n": 2}),
        Span(3, 1, "b", 0, 30, 60, 2, {"n": 3}),  # overlaps a (worker)
    ]
    selfs = rec.self_times()
    assert selfs["root"] == pytest.approx(50 / 1e9)
    assert selfs["a"] == pytest.approx(30 / 1e9)
    assert rec.counts()["a"] == {"n": 2}
    assert _union_within([(0, 5), (3, 9), (20, 30)], 4, 25) == 5 + 5


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name)) as src:
                (bench / name).write_text(src.read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "call-default",
         "--seconds", "1"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_leaves_no_process_behind():
    # sweep-batch forks a pool and, through shared memory, starts the
    # multiprocessing resource tracker; none of them may outlive the run
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "sweep-batch", "--tiny", "--seconds", "1"],
        stdout=subprocess.DEVNULL, cwd=ROOT, start_new_session=True,
    )
    assert proc.wait(timeout=120) == 0
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # fields after the parenthesised command: state, ppid, pgrp, ...
        if int(stat.rsplit(")", 1)[1].split()[2]) == proc.pid:
            left.append(pid)
    assert left == []
