"""The repository benchmark: default-args calls, batch sweeps, auto selection.

Run from the repository root::

    python3 perfbench/run.py                          # every workload
    python3 perfbench/run.py --workload call-default --seed 1 --seconds 30
    python3 perfbench/run.py --workload sweep-batch --trace 1

One workload runs in this process; ``--workload all`` (the default)
runs each workload in a process of its own, so that ``peak_rss_mb``
belongs to one workload.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``
(measured with no instrumentation installed); with ``--trace 1`` they
are the per-layer ones, from spans recorded around each layer's entry
point (:mod:`perfbench.layers`) and written as Chrome-trace JSON to
``--trace-out``.  Any output that disagrees with the paper's closed
forms is a failed call, and makes the command exit with code 1.

The timed loop cycles through a fixed deck of inputs, so each input is
called several times in a run.  ``call_p50_ms``, ``call_p90_ms`` and
``sends_per_s`` time every call at the fastest of its input's calls in
the run: on a shared host a co-tenant slows whole stretches of a run by
up to ~1.8x, and the fastest repetition is the estimate of the call's
own cost that such stretches leave alone (as with ``timeit``).  The
plain per-call figures are printed on the ``# raw`` line.  Inputs that
never repeat (the chunks of ``sweep-batch``) are timed as they ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
ROTATE_NS = 500_000_000
#: imports the program and the NumPy kernels, in a fresh interpreter
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro, repro.batch, repro.tune; "
    "from repro.batch.kernels import numpy_or_none; numpy_or_none(); "
    "print(time.perf_counter() - t)"
)

#: per-layer metric -> (layer, what, unit); "self" is self time in s
LAYER_METRICS = {
    "postal.runner.self_s": ("postal.runner", "self", "s"),
    "turbo.replay.materialize.self_s": ("turbo.replay.materialize", "self", "s"),
    "turbo.replay.materialize.records": ("turbo.replay.materialize", "records", "count"),
    "turbo.fastsim.materialize.self_s": ("turbo.fastsim.materialize", "self", "s"),
    "turbo.fastsim.materialize.records": ("turbo.fastsim.materialize", "records", "count"),
    "postal.validator.self_s": ("postal.validator", "self", "s"),
    "postal.validator.calls": ("postal.validator", "calls", "count"),
    "obs.metrics.self_s": ("obs.metrics", "self", "s"),
    "obs.metrics.records": ("obs.metrics", "records", "count"),
    "plan.cache.hits": ("plan.cache", "hits", "count"),
    "plan.cache.misses": ("plan.cache", "misses", "count"),
    "plan.cache.self_s": ("plan.cache", "self", "s"),
    "plan.build.self_s": ("plan.build", "self", "s"),
    "plan.build.plans": ("plan.build", "plans", "count"),
    "plan.build.events": ("plan.build", "events", "count"),
    "plan.build.bytes": ("plan.build", "bytes", "bytes"),
    "turbo.replay.kernel.self_s": ("turbo.replay.kernel", "self", "s"),
    "turbo.replay.kernel.events": ("turbo.replay.kernel", "events", "count"),
    "turbo.fastsim.loop.self_s": ("turbo.fastsim.loop", "self", "s"),
    "turbo.fastsim.loop.events": ("turbo.fastsim.loop", "events", "count"),
    "tune.self_s": ("tune", "self", "s"),
    "tune.queries": ("tune", "queries", "count"),
    "tune.calibration_runs": ("tune", "calibration_runs", "count"),
    "batch.self_s": ("batch", "self", "s"),
    "batch.share_s": ("batch.share", "self", "s"),
    "batch.digest_s": ("batch.digest", "self", "s"),
    "batch.points": ("batch", "points", "count"),
}


def environment() -> dict:
    """The header every result carries."""
    from repro.batch.kernels import numpy_version

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "platform": platform.platform(),
        "REPRO_NUMPY": os.environ.get("REPRO_NUMPY"),
    }


def import_seconds() -> float:
    """Median import time of the program over fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              stdout=subprocess.PIPE, text=True, check=True,
                              timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


class CpuRotation:
    """Moves this process to the next allowed CPU every ``ROTATE_NS``,
    so that the repetitions of each input land on every CPU.  On a
    shared host one vCPU can run ~1.5x slower than another for tens of
    seconds, and the scheduler leaves a lone busy process where it is.
    Off for a workload that forks workers, which would inherit the pin."""

    def __init__(self, enabled: bool):
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if enabled and hasattr(os, "sched_setaffinity") else [])
        self.current = None

    def step(self, elapsed_ns: int) -> None:
        if len(self.cpus) < 2:
            return
        cpu = self.cpus[elapsed_ns // ROTATE_NS % len(self.cpus)]
        if cpu != self.current:
            os.sched_setaffinity(0, {cpu})
            self.current = cpu

    def restore(self) -> None:
        if self.current is not None:
            os.sched_setaffinity(0, self.cpus)
            self.current = None


def measure(wl, state, *, seconds=None, count=None, recorder=None):
    """Closed loop: the next call starts when the previous one (and its
    output check) is done, until *seconds* pass or *count* calls ran."""
    rotation = CpuRotation(not wl.forks)
    try:
        return _measure(wl, state, seconds, count, recorder, rotation)
    finally:
        rotation.restore()


def _measure(wl, state, seconds, count, recorder, rotation):
    stream = wl.calls(state)
    log = []
    durations, keys, sends, problems = [], [], [], []
    failed = 0
    start = time.perf_counter_ns()
    deadline = time.perf_counter() + (seconds or 0)
    while (len(durations) < count if count is not None
           else time.perf_counter() < deadline):
        call = next(stream)
        rotation.step(time.perf_counter_ns() - start)
        if recorder is not None:
            recorder.call = len(durations)
            token = recorder.open()
        t0 = time.perf_counter_ns()
        try:
            result = wl.execute(call, recorder)
            error = None
        except Exception as exc:  # a raising call is a failed call
            result, error = None, f"{call}: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        if recorder is not None:
            recorder.close(token, wl.root_layer, wl.span_counts(call))
        durations.append((t1 - t0) / 1e9)
        keys.append(tuple(call) if isinstance(call, list) else call)
        found = [error] if error else wl.check(state, call, result)
        sends.append(0 if found else wl.sends_of(result))
        if found:
            failed += 1
            problems.extend(found)
        else:
            if wl.keeps_results:
                log.append((len(durations) - 1, call, result))
        # a caller that is done with a result drops it before the next call
        result = None
    return {"durations": durations, "keys": keys, "sends": sends,
            "failed": failed, "problems": problems, "log": log,
            "wall_ns": time.perf_counter_ns() - start}


def call_times(run) -> "list[float]":
    """Each call's duration replaced by the fastest call of the same
    input in the run (see the module docstring)."""
    best = {}
    for key, d in zip(run["keys"], run["durations"]):
        best[key] = min(d, best.get(key, d))
    return [best[key] for key in run["keys"]]


def timing(d: "list[float]") -> "tuple[float, float, float]":
    """p50 and p90 in ms of durations *d*, and their sum in s."""
    deciles = statistics.quantiles(d * (2 if len(d) < 2 else 1), n=10,
                                   method="inclusive")
    return statistics.median(d) * 1e3, deciles[8] * 1e3, sum(d)


def end_to_end(run, setup_s: float) -> dict:
    p50, p90, busy = timing(call_times(run))
    return {
        "setup_s": (setup_s, "s"),
        "call_p50_ms": (p50, "ms"),
        "call_p90_ms": (p90, "ms"),
        "sends_per_s": (sum(run["sends"]) / busy, "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(recorder, traced, untraced) -> dict:
    selfs = recorder.self_times()
    counts = recorder.counts()
    out = {}
    for metric, (layer, what, unit) in LAYER_METRICS.items():
        value = selfs.get(layer, 0.0) if what == "self" else \
            counts.get(layer, {}).get(what, 0)
        out[metric] = (value, unit)
    hits = out["plan.cache.hits"][0]
    lookups = hits + out["plan.cache.misses"][0]
    covered = recorder.covered_ns()
    out.update({
        "plan.cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "trace.calls": (len(traced["durations"]), "count"),
        "trace.overhead_ratio": (sum(traced["durations"])
                                 / sum(untraced["durations"]), "ratio"),
        "trace.unaccounted_ratio": (1 - covered / traced["wall_ns"], "ratio"),
    })
    return out


def stop_children() -> None:
    """Stop and reap every process this one started.  ``run_batch``
    joins its pool workers itself, but its first shared-memory segment
    starts the multiprocessing resource tracker, which would otherwise
    outlive this process by seconds while it drains its queue."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    # closes the tracker's pipe and waits for it to exit
    resource_tracker._resource_tracker._stop()


def run_workload(args) -> int:
    # a SIGTERM unwinds like an exception, so children are still reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return _run_workload(args)
    finally:
        stop_children()


def _run_workload(args) -> int:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import repro from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: repro imports from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    import_s = import_seconds()
    wl = WORKLOADS[args.workload](tiny=args.tiny)
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        state = wl.setup(args.seed)
        setups.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setups)

    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, **environment()}
    print("# " + " ".join(f"{k}={v}" for k, v in header.items()))
    if not args.trace:
        run = measure(wl, state, seconds=args.seconds)
        metrics = end_to_end(run, setup_s)
    else:
        from perfbench.layers import instrument
        from perfbench.spans import SpanRecorder

        untraced = measure(wl, state, seconds=args.seconds / 2)
        state = wl.setup(args.seed)
        recorder = SpanRecorder()
        undo = instrument(recorder)
        try:
            run = measure(wl, state, count=len(untraced["durations"]),
                          recorder=recorder)
        finally:
            undo()
        run["failed"] += untraced["failed"]
        run["problems"] += untraced["problems"]
        metrics = per_layer(recorder, run, untraced)
        out = args.trace_out or os.path.join(
            ".perfbench", f"trace-{args.workload}-seed{args.seed}.json")
        recorder.write_chrome(out, header)
        print(f"# chrome trace: {out}")
    # a call whose rerun disagrees fails too
    rerun = wl.final_check(state, run["log"])
    problems = run["problems"] + [p for _, p in rerun]
    attempted = len(run["durations"])
    failed = run["failed"] + len({i for i, _ in rerun})
    p50, p90, busy = timing(run["durations"])
    print(f"# raw call_p50_ms={p50:.4f} call_p90_ms={p90:.4f} "
          f"sends_per_s={sum(run['sends']) / busy:.6g} "
          f"inputs={len(set(run['keys']))}")
    for p in problems[:20]:
        print(f"! {p}")
    print(f"# calls={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.6g} "
          f"import_s={import_s:.4f} "
          f"setup_runs={','.join(f'{s:.4f}' for s in setups)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>13}  {name:<36} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    names = tuple(WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="Chrome-trace output path of a --trace 1 run")
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for a seconds-long smoke run")
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    status = 0
    results = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            status = status or 1
    if len(results) != len(names):
        return status or 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return status


if __name__ == "__main__":
    sys.exit(main())
