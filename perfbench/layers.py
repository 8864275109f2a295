"""Layer spans recorded from outside the program.

:func:`instrument` wraps each layer's public entry point at the name
its caller looks it up under (``repro.postal.runner.validate_run``,
``repro.plan.build_plan``, class methods on ``ReplaySystem`` ...) so
that each call opens and closes a span on a
:class:`~spans.SpanRecorder`.  Nothing inside ``repro`` changes; the
returned callable restores every original.

Layer names follow the modules:

=============================  ==============================================
``postal.runner``              one ``run_protocol`` call (opened by the bench)
``tune``                       ``resolve_family`` on an ``auto`` spec
``plan.cache``                 ``build_plan`` (hit or miss)
``plan.build``                 ``compile_plan`` behind a cache miss
``turbo.replay.kernel``        ``replay_plan`` (the column passes)
``turbo.fastsim.loop``         ``TurboEnvironment.run`` (the event loop)
``turbo.*.materialize``        ``flush_trace`` / ``realized_schedule``
``postal.validator``           ``validate_run`` / ``audit_ports``
``obs.metrics``                ``MetricsCollector`` from creation to
                               ``finalize``
``batch``                      one ``run_batch`` call (opened by the bench)
``batch.share``                ``to_shared`` / ``from_shared`` /
                               ``release_shared``
``batch.digest``               ``ReplaySystem.column_digest``
=============================  ==============================================

``run_batch(jobs=2)`` replays and digests in forked pool workers.  The
worker function is wrapped too: it returns its spans next to its result
(:class:`WorkerOut`), and :func:`unpack_batch` merges them back.
"""

from __future__ import annotations

import functools
from typing import NamedTuple


class WorkerOut(NamedTuple):
    """A pool worker's result plus the spans it recorded."""

    result: object
    spans: list


def unpack_batch(recorder, results):
    """Strip :class:`WorkerOut` wrappers from a ``run_batch`` result,
    merging worker spans into *recorder*."""
    out = []
    for item in results:
        if isinstance(item, WorkerOut):
            recorder.extend(item.spans)
            item = item.result
        out.append(item)
    return out


def instrument(recorder):
    """Install span wrappers on every layer; returns an undo callable."""
    import repro.batch.runner as batch_runner
    import repro.batch.shared as batch_shared
    import repro.plan as plan_pkg
    import repro.plan.cache as plan_cache
    import repro.postal.runner as runner
    import repro.tune.model as tune_model
    from repro.plan.columns import SchedulePlan
    from repro.turbo.fastsim import TurboEnvironment, TurboSystem
    from repro.turbo.replay import ReplaySystem
    import repro.turbo.replay as replay_mod

    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def spanned(fn, name, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = recorder.open()
            counts = None
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    counts = count(out, args)
                return out
            finally:
                recorder.close(token, name, counts)

        return wrapper

    # ---------------------------------------------------------- plan layer
    cache_stats = plan_cache.default_cache

    def cached_build(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cache = kwargs.get("cache") or cache_stats()
            misses = cache.misses
            token = recorder.open()
            try:
                return fn(*args, **kwargs)
            finally:
                missed = cache.misses - misses
                recorder.close(token, "plan.cache",
                               {"hits": 1 - missed, "misses": missed})

        return wrapper

    build = cached_build(plan_cache.build_plan)
    patch(plan_pkg, "build_plan", build)
    patch(batch_runner, "build_plan", build)
    patch(plan_cache, "compile_plan", spanned(
        plan_cache.compile_plan, "plan.build",
        lambda plan, a: {"plans": 1, "events": plan.event_count,
                         "bytes": plan.nbytes},
    ))

    # -------------------------------------------------------- replay lane
    kernel = spanned(replay_mod.replay_plan, "turbo.replay.kernel",
                     lambda system, a: {"events": a[0].event_count})
    patch(replay_mod, "replay_plan", kernel)
    patch(batch_runner, "replay_plan", kernel)

    def materialize(cls, attr, name):
        fn = cls.__dict__[attr]

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            before = len(self.tracer)
            token = recorder.open()
            out = None
            try:
                out = fn(self, *args, **kwargs)
                return out
            finally:
                if attr == "flush_trace":
                    records = len(self.tracer) - before
                else:
                    records = len(out) if out is not None else 0
                recorder.close(token, name, {"records": records})

        patch(cls, attr, wrapper)

    for attr in ("flush_trace", "realized_schedule"):
        materialize(ReplaySystem, attr, "turbo.replay.materialize")
        materialize(TurboSystem, attr, "turbo.fastsim.materialize")

    # --------------------------------------------------------- turbo loop
    run = TurboEnvironment.__dict__["run"]

    @functools.wraps(run)
    def loop(self, *args, **kwargs):
        token = recorder.open()
        try:
            return run(self, *args, **kwargs)
        finally:
            # every queue entry pushed is executed by quiescence
            recorder.close(token, "turbo.fastsim.loop",
                           {"events": self._seq})

    patch(TurboEnvironment, "run", loop)

    # ---------------------------------------------- validator and metrics
    for attr in ("validate_run", "audit_ports"):
        patch(runner, attr, spanned(
            getattr(runner, attr), "postal.validator",
            lambda out, a: {"calls": 1},
        ))

    base = runner.MetricsCollector

    class SpannedCollector(base):
        """Opens the ``obs.metrics`` span at creation, closes it at
        ``finalize`` (the runner folds every record in between)."""

        def __init__(self):
            super().__init__()
            self._bench_token = recorder.open()

        def finalize(self, **kwargs):
            out = None
            try:
                out = super().finalize(**kwargs)
                return out
            finally:
                records = 0 if out is None else (
                    out.total_sends + out.total_deliveries
                    + out.total_consumed + out.total_drops
                )
                recorder.close(self._bench_token, "obs.metrics",
                               {"records": records})

    patch(runner, "MetricsCollector", SpannedCollector)

    # --------------------------------------------------------------- tune
    calibrations = [0]
    measure = tune_model.measure

    @functools.wraps(measure)
    def counted_measure(*args, **kwargs):
        calibrations[0] += 1
        return measure(*args, **kwargs)

    patch(tune_model, "measure", counted_measure)
    resolve = tune_model.resolve_family

    @functools.wraps(resolve)
    def traced_resolve(family, *args, **kwargs):
        if tune_model.auto_workload(family) is None:
            return resolve(family, *args, **kwargs)
        runs = calibrations[0]
        token = recorder.open()
        try:
            return resolve(family, *args, **kwargs)
        finally:
            recorder.close(token, "tune", {
                "queries": 1, "calibration_runs": calibrations[0] - runs,
            })

    patch(tune_model, "resolve_family", traced_resolve)

    # -------------------------------------------------------------- batch
    patch(batch_shared, "release_shared", spanned(
        batch_shared.release_shared, "batch.share"))
    patch(SchedulePlan, "to_shared", spanned(
        SchedulePlan.__dict__["to_shared"], "batch.share"))
    from_shared = SchedulePlan.__dict__["from_shared"].__func__
    patch(SchedulePlan, "from_shared", classmethod(spanned(
        from_shared, "batch.share")))
    patch(ReplaySystem, "column_digest", spanned(
        ReplaySystem.__dict__["column_digest"], "batch.digest"))

    worker = batch_runner._batch_worker

    # functools.wraps keeps __module__/__qualname__, so the pool pickles
    # this wrapper by reference to repro.batch.runner._batch_worker and a
    # forked worker resolves it to the same (inherited) closure
    @functools.wraps(worker)
    def traced_worker(item):
        mark = len(recorder.spans)
        out = worker(item)
        spans = [tuple(s) for s in recorder.spans[mark:]]
        del recorder.spans[mark:]
        return WorkerOut(out, spans)

    patch(batch_runner, "_batch_worker", traced_worker)

    def undo():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
        saved.clear()

    return undo
