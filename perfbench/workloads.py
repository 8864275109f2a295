"""The benchmark's workloads: seeded inputs, the timed call, output checks.

Every workload is a closed loop with one caller in one process.  Its
inputs come only from the seed, and a generator draws only points that
``oracle.applicable`` accepts (and, for the replay lane, that the plan
layer can compile), so a correct program has no failures by
construction.  Each call is checked against the paper's closed forms
after its timer stops.

Sizes are set by send count, the unit of work of every lane: a family
whose sends grow as ``m * n`` gets ``n = sends / m``; the all-to-all
shaped collectives, whose sends grow as ``n**2``, get
``n = sqrt(sends)``.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

LAMS = ("1", "2", "5/2", "7/3", "4")
MS = (1, 2, 4, 8)
#: oracle semantics whose send count grows as n**2 (or n log n times n)
QUADRATIC = ("alltoall", "allgather", "gossip")
#: oracle semantics that send twice per processor (combine + notify)
DOUBLE = ("allreduce", "barrier")


def size_for(oracle, per_message_sends: float) -> int:
    """The ``n`` at which *oracle*'s family sends about
    *per_message_sends* messages per broadcast message."""
    if oracle.semantics in QUADRATIC:
        n = round(math.sqrt(per_message_sends)) + 1
    elif oracle.semantics in DOUBLE:
        n = round(per_message_sends / 2) + 1
    else:
        n = round(per_message_sends) + 1
    return max(n, 8)


def plan_compilable(family: str, n: int, m: int, lam) -> bool:
    from repro.errors import InvalidParameterError
    from repro.plan import canonical_family, plan_m

    try:
        plan_m(canonical_family(family, n, m, lam), n, m)
    except InvalidParameterError:
        return False
    return True


def draw_point(rng, family: str, sends: float, *, need_plan: bool,
               per_message: bool = False):
    """``(n, m, lam)`` for *family* near *sends* total sends (or *sends*
    per message with *per_message*), drawn uniformly among the
    ``(m, lam)`` pairs the oracle accepts."""
    from repro.conformance.oracles import get_oracle
    from repro.types import as_time

    oracle = get_oracle(family)
    pairs = [(m, lam) for m in MS for lam in LAMS]
    rng.shuffle(pairs)
    for m, lam in pairs:
        n = size_for(oracle, sends if per_message else sends / m)
        if oracle.applicable(n, m, as_time(lam)) and (
            not need_plan or plan_compilable(family, n, m, lam)
        ):
            return n, m, lam
    raise ValueError(f"no applicable (m, lambda) for {family} near {sends}")


def check_completion(oracle, n: int, m: int, lam, completion) -> "list[str]":
    """Completion against the family's closed form: ``==`` for exact
    oracles, ``<=`` for upper bounds."""
    from repro.types import as_time, time_repr

    bound = oracle.time(n, m, as_time(lam))
    completion = Fraction(completion)
    if oracle.exact and completion != bound:
        return [f"{oracle.family} n={n} m={m} lam={lam}: completion "
                f"{time_repr(completion)} != closed form {time_repr(bound)}"]
    if not oracle.exact and completion > bound:
        return [f"{oracle.family} n={n} m={m} lam={lam}: completion "
                f"{time_repr(completion)} > upper bound {time_repr(bound)}"]
    return []


def check_result(oracle, n: int, m: int, lam, result) -> "list[str]":
    """Output checks on one ``ProtocolResult`` (strict policy)."""
    from repro.obs.metrics import cross_check_metrics

    problems = check_completion(oracle, n, m, lam, result.completion_time)
    if result.metrics is None:
        problems.append(f"{oracle.family} n={n}: no metrics collected")
    elif result.schedule is not None:
        problems.extend(
            f"{oracle.family} n={n} m={m} lam={lam}: {p}"
            for p in cross_check_metrics(result.metrics, result.schedule)
        )
    return problems


def _pin_caches() -> None:
    """A fresh in-memory plan cache and no tuning-table cache, whatever
    ``$REPRO_PLAN_CACHE`` / ``$REPRO_TUNE_CACHE`` say."""
    from repro.plan import DEFAULT_CAPACITY, configure
    from repro.tune import configure_tune_cache

    configure(mode="mem", capacity=DEFAULT_CAPACITY)
    configure_tune_cache(mode="off")


def _forever(deck):
    while True:
        yield from deck


# ------------------------------------------------------------ call-default


@dataclass(frozen=True)
class ProtocolCall:
    family: str
    n: int
    m: int
    lam: str
    backend: str


class CallDefault:
    """``run_protocol(family, n=, m=, lam=, backend=)`` with every other
    argument at its default (validate, collect, strict)."""

    name = "call-default"
    root_layer = "postal.runner"
    keeps_results = False
    forks = False
    strata = 2

    def __init__(self, tiny: bool = False):
        self.sends = (64, 256) if tiny else (256, 2048)

    def inputs(self, seed: int) -> "list[ProtocolCall]":
        """Every family once in each of ``strata`` equal-width strata of
        ``log(sends)``.  Every other family runs on turbo in one of its
        strata (the strata take turns) and on replay in the rest, so
        about 1/4 of the calls are turbo, each stratum holds the same
        number of them for every seed, and the seed moves only which
        families those are, ``(m, lambda)`` and the sizes within a
        stratum.  The deck is small enough that each input repeats ~15
        times in a run."""
        from repro.plan import collective_plan_families, plan_families

        rng = random.Random(seed)
        fams = list(plan_families() + collective_plan_families())
        rng.shuffle(fams)
        ratio = math.log(self.sends[1] / self.sends[0])
        calls = []
        for i, fam in enumerate(fams):
            for k in range(self.strata):
                turbo = i % 2 == 0 and k == i // 2 % self.strata
                sends = self.sends[0] * math.exp(
                    ratio * (k + rng.random()) / self.strata)
                n, m, lam = draw_point(rng, fam, sends, need_plan=not turbo)
                calls.append(ProtocolCall(fam, n, m, lam,
                                          "turbo" if turbo else "replay"))
        rng.shuffle(calls)
        return calls

    def setup(self, seed: int):
        from repro import run_protocol

        _pin_caches()
        deck = self.inputs(seed)
        # compile every replay plan now, so the timed calls only read
        # the plan cache; one small call per backend loads lazy imports
        for c in deck:
            if c.backend == "replay":
                run_protocol(c.family, n=c.n, m=c.m, lam=c.lam,
                             backend="replay", validate=False, collect=False)
        for backend in ("replay", "turbo"):
            run_protocol("BCAST", n=16, lam=2, backend=backend)
        return deck

    def calls(self, deck):
        return _forever(deck)

    def execute(self, call: ProtocolCall, recorder=None):
        from repro import run_protocol

        return run_protocol(call.family, n=call.n, m=call.m, lam=call.lam,
                            backend=call.backend)

    def check(self, state, call: ProtocolCall, result) -> "list[str]":
        from repro.conformance.oracles import get_oracle

        return check_result(get_oracle(call.family), call.n, call.m,
                            call.lam, result)

    def sends_of(self, result) -> int:
        return result.sends

    def span_counts(self, call):
        return None

    def final_check(self, state, log) -> "list[tuple[int, str]]":
        return []


# ------------------------------------------------------------- sweep-batch


class SweepBatch:
    """``run_batch(points, jobs=2)`` over a stream of chunks, about half
    of whose plan keys are new; the run's distinct keys outnumber the
    plan cache's LRU capacity."""

    name = "sweep-batch"
    root_layer = "batch"
    keeps_results = True  # for the jobs=1 rerun check
    forks = True  # run_batch's pool workers
    jobs = 2

    def __init__(self, tiny: bool = False):
        self.chunk = 4 if tiny else 8
        self.work = (32, 128) if tiny else (1000, 10000)
        self.history = 8 if tiny else 48
        self.rerun_sample = 4 if tiny else 16

    def _stream(self, seed: int):
        from repro.batch import BatchPoint
        from repro.plan import collective_plan_families, plan_families

        rng = random.Random(seed)
        fams = plan_families() + collective_plan_families()
        seen = set()

        def fresh():
            while True:
                fam = fams[rng.randrange(len(fams))]
                work = math.exp(rng.uniform(*map(math.log, self.work)))
                n, m, lam = draw_point(rng, fam, work, need_plan=True,
                                       per_message=True)
                if (fam, n, m, lam) not in seen:
                    seen.add((fam, n, m, lam))
                    return fam, n, m, lam

        recent = deque((fresh() for _ in range(self.history)),
                       maxlen=self.history)
        yield list(recent)
        half = self.chunk // 2
        while True:
            keys = [fresh() for _ in range(half)]
            keys += [recent[rng.randrange(len(recent))]
                     for _ in range(self.chunk - half)]
            recent.extend(keys[:half])
            rng.shuffle(keys)
            yield [BatchPoint(f, n, m, lam, rng.choice(("strict", "queued")))
                   for f, n, m, lam in keys]

    def setup(self, seed: int):
        from repro.batch import BatchPoint, run_batch
        from repro.plan import build_plan

        _pin_caches()
        stream = self._stream(seed)
        for fam, n, m, lam in next(stream):
            build_plan(fam, n, m, lam)
        # fork a pool once and load the kernels before timing
        run_batch([BatchPoint("BCAST", 64, 1, "2"),
                   BatchPoint("REPEAT", 64, 2, "2")], jobs=self.jobs)
        return {"stream": stream, "seed": seed}

    def calls(self, state):
        return state["stream"]

    def execute(self, points, recorder=None):
        from repro.batch import run_batch

        results = run_batch(points, jobs=self.jobs)
        if recorder is not None:
            from perfbench.layers import unpack_batch

            results = unpack_batch(recorder, results)
        return results

    def check(self, state, points, results) -> "list[str]":
        from repro.conformance.oracles import get_oracle

        if len(results) != len(points):
            return [f"{len(results)} results for {len(points)} points"]
        problems = []
        for p, r in zip(points, results):
            oracle = get_oracle(p.family)
            problems.extend(check_completion(oracle, p.n, p.m, p.lam,
                                             r.completion))
            if r.contended:
                problems.append(f"{p}: a collision-free plan queued")
        return problems

    def sends_of(self, results) -> int:
        return sum(r.sends for r in results)

    def span_counts(self, points):
        return {"points": len(points)}

    def final_check(self, state, log) -> "list[tuple[int, str]]":
        """A seeded sample of the run's points, rerun with ``jobs=1``,
        must give equal ``BatchResult`` rows."""
        from repro.batch import run_batch

        done = [(i, p, r) for i, points, results in log
                for p, r in zip(points, results)]
        if not done:
            return []
        rng = random.Random(state["seed"] ^ 0x5EED)
        sample = rng.sample(done, min(self.rerun_sample, len(done)))
        again = run_batch([p for _, p, _ in sample], jobs=1)
        return [(i, f"{p}: jobs=1 rerun gave {a}, jobs={self.jobs} gave {r}")
                for (i, p, r), a in zip(sample, again) if a != r]


# ------------------------------------------------------------- auto-select


@dataclass(frozen=True)
class AutoCall:
    workload: str
    n: int
    m: int
    lam: str
    grid: bool

    @property
    def spec(self) -> str:
        return "auto" if self.workload == "broadcast" else f"auto:{self.workload}"


class AutoSelect:
    """``run_protocol("auto" | "auto:<workload>", n=, m=, lam=,
    backend="replay")`` with default arguments, over a query pool whose
    members repeat with Zipf frequencies."""

    name = "auto-select"
    root_layer = "postal.runner"
    keeps_results = False
    forks = False

    #: The query pool, most frequent first: ``(workload, n, m, lam)``
    #: where ``n`` is a size or a narrow ``(lo, hi)`` band.  Queries up
    #: to n=1040 are calibrated; the two rarest lie above
    #: CALIBRATION_MAX_N, where closed forms alone decide, and only they
    #: draw their size from a band.  Below that line lambda and n decide
    #: how many families tie (and so how many calibration runs a query
    #: costs: 0 to 3 over n=1000..1060 at m=2, lambda=7/3), so those
    #: slots are fixed, and the seed draws the two sizes and the order
    #: of the calls.  The ranks are placed so that the median call falls
    #: inside the most frequent query (about 38-70% of calls are
    #: cheaper) and the 90th percentile inside the n=1040 one (83-94%),
    #: not on the edge between two queries of unequal cost.  The n=1040
    #: query is third, not fourth, so that the 90th percentile rests on
    #: more repetitions of it in a run.
    SLOTS = (
        ("broadcast", 256, 1, "5/2"),
        ("broadcast", 64, 1, "2"),
        ("broadcast", 1040, 2, "7/3"),
        ("allgather", 64, 1, "5/2"),
        ("scatter", 64, 1, "5/2"),
        ("allreduce", 64, 1, "2"),
        ("reduce", 64, 1, "2"),
        ("alltoall", 64, 1, "2"),
        ("gather", 64, 1, "2"),
        ("barrier", 64, 1, "5/2"),
        ("barrier", (5000, 5300), 1, "4"),
        ("broadcast", (12000, 12720), 1, "5/2"),
    )
    TINY_SLOTS = (
        ("broadcast", 16, 1, "2"),
        ("reduce", 16, 1, "5/2"),
        ("broadcast", 40, 2, "7/3"),
    )

    def __init__(self, tiny: bool = False):
        self.slots = self.TINY_SLOTS if tiny else self.SLOTS
        self.deck_size = 8 if tiny else 64

    def inputs(self, seed: int) -> "list[AutoCall]":
        from repro.tune import default_queries

        rng = random.Random(seed)
        grid = {(q.workload, q.n, q.m, q.lam) for q in default_queries()}
        pool = []
        for workload, size, m, lam in self.slots:
            n = size if isinstance(size, int) else rng.randint(*size)
            pool.append(AutoCall(workload, n, m, lam,
                                 (workload, n, m, lam) in grid))
        harmonic = sum(1 / r for r in range(1, len(pool) + 1))
        deck = []
        for rank, query in enumerate(pool, 1):
            count = round(self.deck_size / (rank * harmonic))
            deck.extend([query] * max(1, count))
        rng.shuffle(deck)
        return deck

    def setup(self, seed: int):
        from repro import run_protocol
        from repro.tune import TuningTable

        _pin_caches()
        deck = self.inputs(seed)
        table = TuningTable.load(_tuning_table_path())
        run_protocol("auto", n=16, lam=2, backend="replay")
        return {"deck": deck, "table": table}

    def calls(self, state):
        return _forever(state["deck"])

    def execute(self, call: AutoCall, recorder=None):
        from repro import run_protocol

        return run_protocol(call.spec, n=call.n, m=call.m, lam=call.lam,
                            backend="replay")

    def check(self, state, call: AutoCall, result) -> "list[str]":
        from repro.conformance.oracles import get_oracle
        from repro.plan import canonical_family
        from repro.tune.model import candidate_families
        from repro.types import as_time

        lam = as_time(call.lam)
        chosen = result.system.plan.family
        where = f"{call.spec} n={call.n} m={call.m} lam={call.lam}"
        candidates = [f for f in candidate_families(call.workload)
                      if get_oracle(f).applicable(call.n, call.m, lam)
                      and plan_compilable(f, call.n, call.m, lam)]
        if call.grid:
            entry = state["table"].lookup(call.workload, call.n, call.m, lam)
            if entry is None:
                return [f"{where}: not on the pinned tuning grid"]
            if canonical_family(entry.winner, call.n, call.m, lam) != chosen:
                return [f"{where}: resolved {chosen}, table winner "
                        f"{entry.winner}"]
            resolved = [entry.winner]
        else:
            resolved = [f for f in candidates
                        if canonical_family(f, call.n, call.m, lam) == chosen]
            if not resolved:
                return [f"{where}: resolved {chosen}, not a candidate"]
        problems = check_result(get_oracle(resolved[0]), call.n, call.m,
                                call.lam, result)
        best = min((get_oracle(f).time(call.n, call.m, lam)
                    for f in candidates if get_oracle(f).exact), default=None)
        if best is not None and Fraction(result.completion_time) > best:
            problems.append(f"{where}: {chosen} finishes after the best "
                            f"exact closed form {best}")
        return problems

    def sends_of(self, result) -> int:
        return result.sends

    def span_counts(self, call):
        return None

    def final_check(self, state, log) -> "list[tuple[int, str]]":
        return []


def _tuning_table_path() -> str:
    import os

    return os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "TUNING_postal.json")


WORKLOADS = {w.name: w for w in (CallDefault, SweepBatch, AutoSelect)}
