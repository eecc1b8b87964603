"""The four seeded workloads, driven through the public ``repro`` API.

Each workload is built as ``Workload(seed, tiny=False, meter=None)``, where
``meter`` is the run's own :class:`perfbench.clock.Meter` (used by the
workloads that build in this process), and follows one protocol, used by
``run.py``:

* ``setup()`` derives every input from the workload seed (networks, LC
  values, requests) and does the reference builds and regime checks.  It is
  repeatable: ``run.py`` calls it several times and reports the median.
* ``run_round(rec)`` makes one pass over those fixed inputs; ``rec`` is the
  traced run's recorder or ``None``.
* ``finish()`` runs the checks that happen after the timed phase.
* ``metrics()`` returns :data:`METRICS`, the end-to-end metrics every
  workload reports (besides ``setup_s`` and ``peak_rss_mb``, which
  ``run.py`` measures), each for the workload's own unit of work, its
  *operation*: one IRA build (``ira_large``), AAML plus local search on one
  instance (``local_search_large``), one sweep trial (``fig_sweep``), one
  request (``served_mix``).  Times are in reference seconds
  (:mod:`perfbench.clock`), measured in the process that does the work.
* ``IN_PROCESS`` says whether the operations run in this process (so the
  run's own meter must keep running through the timed rounds) or in
  worker processes (which meter themselves).
* ``tally`` counts operations attempted and failed; ``digest_items`` holds
  the first round's ``(label, parent map)`` pairs.

``tiny=True`` shrinks every size so the benchmark's own tests run in
seconds; the timed benchmark never uses it.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import re
import statistics
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.checks import result_problems, served_signature, tree_problems
from perfbench.clock import Meter, factor_of
from repro import LifetimeSpec, Network, build_tree, random_graph

#: IRA's and local search's lifetime bound, as a share of AAML's lifetime.
LC_FRACTION = 0.8

#: Problems kept for the report (the count is always complete).
MAX_REPORTED = 20

#: Scratch and trace output, inside the checkout (ignored by git).
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"

#: The end-to-end metrics of :meth:`metrics`, with their units:
#: ``op_ms`` is the mean latency of one operation (the median one of a
#: cold request on ``served_mix``), ``ops_per_s`` the
#: operations completed per second of the timed rounds, ``cost_over_mst``
#: the mean C(tree) / C(MST) of the workload's trees (lower is better: the
#: solution-quality guard).
METRICS = (("op_ms", "ms"), ("ops_per_s", "1/s"), ("cost_over_mst", "ratio"))


def _rng(tag: int, seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed, k])


@dataclass
class Tally:
    """Operations attempted and failed, with the first few problems."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, label: str, problems: Sequence[str]) -> None:
        self.add(1, 1 if problems else 0, [f"{label}: {problems[0]}"] if problems else [])

    def add(self, attempted: int, failed: int, problems: Sequence[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[: MAX_REPORTED - len(self.problems)])


def regime(network, lc: float) -> str:
    """Name of the children caps ``lc`` leaves every non-sink node."""
    spec = LifetimeSpec.uninflated(network, lc)
    caps = {spec.tree_feasible_degree(network, v) - 1 for v in network.nodes if v != network.sink}
    names = {frozenset({1}): "one_child", frozenset({2}): "two_child"}
    return names.get(frozenset(caps), "caps" + "-".join(map(str, sorted(caps))))


@dataclass
class Instance:
    """One network with its set-up products."""

    label: str
    network: Any
    lc: float
    mst_cost: float


def seeded_instances(tag: int, seed: int, link_sets: Sequence[Tuple[int, int, str]]) -> List[Instance]:
    """One instance per ``(n, link-set seed, regime)`` of *link_sets*.

    The links are those of ``random_graph(n, 0.3, seed=<link-set seed>)``;
    the workload seed draws every link's PRR afresh from the same U(0.95, 1)
    model, instance ``k`` from the stream ``(tag, seed, k)``.  AAML ignores
    PRRs, so an instance's LC regime is a property of its link set, and it
    is asserted here.
    """
    instances: List[Instance] = []
    for k, (n, link_seed, want) in enumerate(link_sets):
        links = random_graph(n, 0.3, seed=link_seed)
        rng = _rng(tag, seed, k)
        net = Network(n)
        for edge in links.edges():
            net.add_link(edge.u, edge.v, float(rng.uniform(0.95, 1.0)))
        lc = LC_FRACTION * build_tree("aaml", net).lifetime
        found = regime(net, lc)
        if found != want:
            raise RuntimeError(f"n={n} link set {link_seed} is in regime {found}, not {want}")
        instances.append(Instance(f"n{n}-{found}-{link_seed}", net, lc, build_tree("mst", net).cost))
    return instances


class _Builds:
    """Shared bookkeeping for the workloads that build in this process.

    Build times are in reference seconds of the run's meter
    (:mod:`perfbench.clock`), which ticks in this process while they run.
    """

    IN_PROCESS = True

    def __init__(self, meter: Optional[Meter]) -> None:
        self.meter = meter or Meter()
        self.tally = Tally()
        self.digest_items: List[Tuple[str, Dict[int, int]]] = []
        self.times: Dict[str, List[float]] = {}
        self.costs: Dict[str, float] = {}
        self._first: Dict[str, Dict[int, int]] = {}

    def build(self, rec, key: str, builder: str, inst: Instance, **config) -> None:
        """Time one build, then check it."""
        op = rec.operation(key, "op." + builder) if rec is not None else nullcontext()
        mark = self.meter.mark()
        start = perf_counter()
        try:
            with op:
                result = build_tree(builder, inst.network, **config)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            self.tally.record(key, [f"{type(exc).__name__}: {exc}"])
            return
        seconds = self.meter.reference(perf_counter() - start, mark)
        self.times.setdefault(key, []).append(seconds)
        problems = result_problems(inst.network, result, config.get("lc"))
        parents = dict(result.tree.parents)
        first = self._first.setdefault(key, parents)
        if first is parents:
            self.digest_items.append((key, parents))
            self.costs[key] = result.cost
        elif first != parents:
            problems.append("parents differ from the first round")
        self.tally.record(key, problems)

    def op_metrics(self, ops: Sequence[float], ratios: Sequence[float]) -> Dict[str, float]:
        """:data:`METRICS` from operation times (reference s) and cost ratios."""
        return {
            "op_ms": 1000.0 * statistics.fmean(ops),
            "ops_per_s": len(ops) / sum(ops),
            "cost_over_mst": statistics.fmean(ratios),
        }

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass

    @staticmethod
    def op_kind(op: Optional[str]) -> str:
        """``n60-two_child-3/ira`` -> ``n60-two_child/ira``."""
        return re.sub(r"-\d+/", "/", op or "-")


class IraLarge(_Builds):
    """IRA at n=40 on twelve one-child-regime instances.

    The link sets are fixed, the PRRs drawn from the seed
    (:func:`seeded_instances`): the first twelve ``random_graph(40, 0.3,
    seed=s)`` whose LC leaves every non-sink node one child.  One LC regime
    only: across seeds, IRA's time and cost ratio vary about twice as much
    on two-child instances, and mixing regimes made the workload's
    seed-to-seed spread exceed its bound.  Twelve instances at n=40 rather
    than four at n=60 (a round takes about 20 s either way): with four, the
    seed-to-seed spread of the mean cost ratio alone was 0.13-0.15.
    """

    name = "ira_large"
    TAG = 11
    LINK_SETS = tuple((40, s, "one_child") for s in (9, 10, 12, 18, 22, 25, 29, 32, 37, 40, 70, 75))
    TINY_LINK_SETS = ((30, 2, "one_child"),)

    def __init__(self, seed: int, tiny: bool = False, meter: Optional[Meter] = None) -> None:
        super().__init__(meter)
        self.seed = seed
        self.link_sets = self.TINY_LINK_SETS if tiny else self.LINK_SETS
        self.instances: List[Instance] = []

    def setup(self) -> None:
        self.instances = seeded_instances(self.TAG, self.seed, self.link_sets)

    def run_round(self, rec) -> None:
        for i in self.instances:
            self.build(rec, f"{i.label}/ira", "ira", i, lc=i.lc)

    def metrics(self) -> Dict[str, float]:
        ops = [s for t in self.times.values() for s in t]
        ratios = [self.costs[f"{i.label}/ira"] / i.mst_cost for i in self.instances if f"{i.label}/ira" in self.costs]
        return self.op_metrics(ops, ratios)


class LocalSearchLarge(_Builds):
    """AAML then local search on five two-child and five one-child instances.

    The link sets are fixed, the PRRs drawn from the seed
    (:func:`seeded_instances`): ``random_graph(100, 0.3, seed=s)`` for the
    first five seeds whose LC leaves every non-sink node two children (cost
    descent under caps dominates local search) and the first five that
    leave one (the 2-opt/or-opt path polish dominates).  Drawing whole
    graphs instead made set-up search for a graph in each regime.  Ten
    instances at n=100 rather than one at n=150
    and one at n=200 (a round takes about 20 s either way): with two, the
    path polish's work alone (``Network.has_edge`` calls) moved by 20%
    between seeds.
    """

    name = "local_search_large"
    TAG = 12
    #: ``(n, link-set seed, regime)`` per instance.
    LINK_SETS = tuple((100, s, "two_child") for s in (0, 1, 2, 5, 6)) + tuple(
        (100, s, "one_child") for s in (3, 4, 7, 16, 19)
    )
    TINY_LINK_SETS = ((24, 2, "two_child"), (30, 2, "one_child"))

    def __init__(self, seed: int, tiny: bool = False, meter: Optional[Meter] = None) -> None:
        super().__init__(meter)
        self.seed = seed
        self.link_sets = self.TINY_LINK_SETS if tiny else self.LINK_SETS
        self.instances: List[Instance] = []

    def setup(self) -> None:
        self.instances = seeded_instances(self.TAG, self.seed, self.link_sets)

    def run_round(self, rec) -> None:
        for i in self.instances:
            self.build(rec, f"{i.label}/aaml", "aaml", i)
            self.build(rec, f"{i.label}/local_search", "local_search", i, lc=i.lc)

    def metrics(self) -> Dict[str, float]:
        ops = [
            a + b
            for i in self.instances
            for a, b in zip(self.times.get(f"{i.label}/aaml", []), self.times.get(f"{i.label}/local_search", []))
        ]
        ratios = [
            self.costs[f"{i.label}/local_search"] / i.mst_cost
            for i in self.instances
            if f"{i.label}/local_search" in self.costs
        ]
        return self.op_metrics(ops, ratios)


class FigSweep:
    """The Fig. 9 and Fig. 10 trial sweeps at n=16 over two processes.

    Trials run in ``parallel_map``'s worker processes, so the trees are
    checked there: the name ``build_tree`` that each trial looks up is
    wrapped (before any pool exists, so forked workers inherit the wrapper)
    by one that checks the tree and appends a record to a per-process file
    under the output directory.  The parent reads the records after each
    round; a trial whose records are missing counts as failed.

    The wrapper also runs the worker's meter during each build and records
    its passes (:mod:`perfbench.clock`).  A round's wall time and its
    trials' times are rescaled by the mean of all passes of the round; a
    trial's time is the sum of its three builds (AAML, MST, IRA; a worker
    runs its trials one after another, so its records come in such
    triples).
    """

    name = "fig_sweep"
    TAG = 13
    N_JOBS = 2
    IN_PROCESS = False
    TRIAL = ("aaml", "mst", "ira")

    def __init__(self, seed: int, tiny: bool = False, meter: Optional[Meter] = None) -> None:
        self.seed = seed
        self.worker_meter = Meter()
        self.trial_s: List[float] = []
        self.trials9, self.trials10 = (2, 1) if tiny else (28, 16)
        self.probabilities: Tuple[float, ...] = (0.5, 0.7) if tiny else (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        self.tally = Tally()
        self.digest_items: List[Tuple[str, Dict[int, int]]] = []
        self.rates: List[float] = []
        self.ratios: List[float] = []
        self.records_dir = OUT_DIR / f"fig-records-{os.getpid()}"
        self.rec = None  # the recorder while a traced round runs
        self._restore = None
        self._rounds = 0

    def setup(self) -> None:
        from repro.experiments import fig8_same_energy

        rng = _rng(self.TAG, self.seed, 0)
        self.base9, self.base10 = (int(x) for x in rng.integers(0, 2**31 - 1, size=2))
        self.records_dir.mkdir(parents=True, exist_ok=True)
        if self._restore is None:
            original = fig8_same_energy.build_tree
            fig8_same_energy.build_tree = self._checked(original)
            self._restore = lambda: setattr(fig8_same_energy, "build_tree", original)

    def _checked(self, build):
        def checked_build(name, network, **config):
            rec = self.rec
            if rec is not None:
                rec.fork_reset()
            op = rec.operation("trial:" + name, "op." + name) if rec is not None else nullcontext()
            meter = self.worker_meter
            meter.start()
            mark = meter.mark()
            start = perf_counter()
            try:
                with op:
                    result = build(name, network, **config)
            finally:
                wall = perf_counter() - start
                meter.stop()
            passes, spent = meter.since(mark)
            record = {
                "builder": name,
                "work_s": wall - spent,
                "passes": passes,
                "problems": result_problems(network, result, config.get("lc")),
                "parents": sorted(result.tree.parents.items()),
                "chunk": rec.drain() if rec is not None else None,
            }
            with open(self.records_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            return result

        return checked_build

    def run_round(self, rec) -> None:
        from repro.experiments import run_fig9, run_fig10

        self.rec = rec
        start = perf_counter()
        try:
            fig9 = run_fig9(n_trials=self.trials9, n_nodes=16, base_seed=self.base9, n_jobs=self.N_JOBS)
            fig10 = run_fig10(
                self.probabilities,
                n_trials=self.trials10,
                n_nodes=16,
                base_seed=self.base10,
                n_jobs=self.N_JOBS,
            )
        except Exception as exc:  # noqa: BLE001 - the round's trials count as failed
            expected = self.trials9 + self.trials10 * len(self.probabilities)
            self.tally.add(expected, expected, [f"sweep raised {type(exc).__name__}: {exc}"])
            return
        finally:
            self.rec = None
        wall = perf_counter() - start
        trials = list(fig9.trials) + [t for p in fig10.probabilities for t in fig10.trials[p]]
        self._collect(rec, trials, wall)

    def _collect(self, rec, trials, wall: float) -> None:
        records = []
        triples = []
        for path in sorted(self.records_dir.glob("*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                mine = [json.loads(line) for line in fh]
            path.unlink()
            records.extend(mine)
            for k in range(0, len(mine) - 2, 3):
                triple = mine[k : k + 3]
                if tuple(r["builder"] for r in triple) == self.TRIAL:
                    triples.append(sum(r["work_s"] for r in triple))
        factor = factor_of([x for r in records for x in r["passes"]])
        self.trial_s.extend(factor * t for t in triples)
        self.rates.append(len(trials) / (wall * factor))
        problems = [f"{r['builder']}: {r['problems'][0]}" for r in records if r["problems"]]
        missing = 3 * len(trials) - len(records)
        if missing > 0:
            problems.append(f"{missing} trees not checked (no record from a worker)")
        for i, trial in enumerate(trials):
            if not trial.ira_lifetime_ok:
                problems.append(f"trial {i}: IRA tree misses its LC")
            if trial.ira_cost < trial.mst_cost * (1.0 - 1e-12):
                problems.append(f"trial {i}: IRA cost {trial.ira_cost!r} below the MST's {trial.mst_cost!r}")
        # Records do not say which trial they came from, so each problem
        # fails one trial (at most every trial of the round).
        self.tally.add(len(trials), min(len(trials), len(problems)), problems)
        if self._rounds == 0:
            self.ratios = [t.ira_cost / t.mst_cost for t in trials]
            self.digest_items = [(r["builder"], {v: p for v, p in r["parents"]}) for r in records]
        self._rounds += 1
        if rec is not None:
            for r in records:
                if r["chunk"] is not None:
                    rec.merge(r["chunk"])

    def finish(self) -> None:
        pass

    def metrics(self) -> Dict[str, float]:
        return {
            "op_ms": 1000.0 * statistics.fmean(self.trial_s),
            "ops_per_s": statistics.median(self.rates),
            "cost_over_mst": statistics.fmean(self.ratios),
        }

    def close(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None
        if self.records_dir.exists():
            for path in self.records_dir.glob("*"):
                path.unlink()
            self.records_dir.rmdir()

    @staticmethod
    def op_kind(op: Optional[str]) -> str:
        return op or "parent"


@dataclass
class _Served:
    """One request's outcome in one round."""

    index: int
    latency_s: float
    response: Any = None
    error: Optional[str] = None
    queue_wait_s: Optional[float] = None


def _cold_signature(job) -> str:
    """Signature of a cold, serverless build of one served request."""
    from repro.serve import make_response

    builder, network, params = job
    result = build_tree(builder, network, **params)
    return served_signature(make_response(result, "-", "-", hit=False, source="built"))


class ServedMix:
    """A process-pool TreeServer driven as a closed loop by two clients.

    Every round serves the same seeded request sequence on a fresh server
    (fresh caches) over the one long-lived worker pool spawned in set-up.

    The cold-request mix is 25% fast builders (aaml, mst, spt), 50% local
    search and 25% IRA (at n=16 only), so the median falls mid-way into
    the local-search latencies and the 90th percentile into the IRA ones,
    and a round is cheap enough for a run to collect several hundred cold
    latencies.  Cold latency is mostly queueing behind whichever build
    shares the batch; with one request per builder per topology and IRA
    at n=24, a run held about 200 cold requests, both percentiles sat
    between two builders' latencies, and the cold p50 moved by 12%
    between runs of one seed.

    The workers meter their builds: ``build_tree`` as
    ``repro.serve.workers`` looks it up is wrapped before the pool forks,
    and each build appends the calibration passes made during it to a
    per-process file.  A round's wall time and latencies are rescaled by
    the mean of all passes of the round (:mod:`perfbench.clock`).  An operation is one request;
    ``op_ms`` is the median latency of the *cold* ones (a cache hit takes
    well under a millisecond and says nothing of the builds).
    """

    name = "served_mix"
    TAG = 14
    IN_PROCESS = False
    #: Cold requests per topology: ``(builder, LC as a share of L_AAML)``.
    #: Every topology gets local search at two LCs and one of the fast
    #: builders in turn; the n=16 topologies also get IRA at two LCs.
    EVERY = (("local_search", 0.8), ("local_search", 0.7))
    ROTATING = (("aaml", None), ("mst", None), ("spt", None))
    SMALL_ONLY = (("ira", 0.8), ("ira", 0.7))
    CLIENTS = 2
    WORKERS = 2
    #: A repeat re-sends a request at least this many positions back, so it
    #: reads the cache instead of coalescing onto the original build.
    REPEAT_GAP = 8

    def __init__(self, seed: int, tiny: bool = False, meter: Optional[Meter] = None) -> None:
        self.seed = seed
        self.worker_meter = Meter()
        self.records_dir = OUT_DIR / f"served-records-{os.getpid()}"
        self.scales: List[float] = []
        self._restore = None
        self.n_base = 2 if tiny else 24
        self.n_drift = 1 if tiny else 8
        self.tally = Tally()
        self.digest_items: List[Tuple[str, Dict[int, int]]] = []
        self.pool = None
        self.rounds: List[List[_Served]] = []
        self.walls: List[float] = []
        self.stats: List[Dict[str, Any]] = []
        self.shard_starts: Dict[str, float] = {}
        self.traced_rounds: List[int] = []

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        from repro.serve import BuildRequest

        rng = _rng(self.TAG, self.seed, 0)
        networks = []
        for i in range(self.n_base):
            n, p = (16, 0.7) if i % 2 == 0 else (24, 0.5)
            networks.append(random_graph(n, p, seed=_rng(self.TAG, self.seed, 1 + i)))
        for j in range(self.n_drift):
            net = networks[j % self.n_base].copy()
            edges = list(net.edges())
            for k in rng.choice(len(edges), size=3, replace=False):
                net.set_prr(edges[k].u, edges[k].v, float(rng.uniform(0.95, 1.0)))
            networks.append(net)
        self.networks = networks
        self.mst_costs = [build_tree("mst", net).cost for net in networks]
        self.unique = []  # (topology index, builder, LC or None, request)
        for t, net in enumerate(networks):
            aaml_lifetime = build_tree("aaml", net).lifetime
            wanted = self.EVERY + (self.ROTATING[t % len(self.ROTATING)],)
            if net.n == 16:
                wanted += self.SMALL_ONLY
            for builder, share in wanted:
                lc = None if share is None else share * aaml_lifetime
                self.unique.append((t, builder, lc, BuildRequest(builder, network=net, lc_bound=lc)))
        order = rng.permutation(len(self.unique))
        self.unique = [self.unique[i] for i in order]
        self.sequence = self._sequence(rng)
        self._spawn_pool()

    def _sequence(self, rng: np.random.Generator) -> List[int]:
        """Every unique request once, plus as many repeats, alternating.

        A repeat re-sends a uniformly chosen request that was first sent
        at least :data:`REPEAT_GAP` positions earlier; repeats left over
        when the fresh requests run out go at the end.
        """
        seq: List[int] = []
        fresh = repeats = 0
        while repeats < len(self.unique):
            if fresh < len(self.unique) and fresh <= repeats + self.REPEAT_GAP:
                seq.append(fresh)
                fresh += 1
            else:
                seq.append(seq[int(rng.integers(0, len(seq) - self.REPEAT_GAP))])
                repeats += 1
        return seq

    def _spawn_pool(self) -> None:
        from repro.serve import BuildRequest, TreeServer, WorkerPool
        from repro.serve import workers

        self.close()
        self.records_dir.mkdir(parents=True, exist_ok=True)
        original = workers.build_tree
        workers.build_tree = self._metered(original)
        self._restore = lambda: setattr(workers, "build_tree", original)
        self.pool = WorkerPool(mode="process", n_workers=self.WORKERS)
        warm = [random_graph(8, 0.7, seed=_rng(self.TAG, self.seed, 1000 + i)) for i in range(self.WORKERS)]

        async def warm_up() -> None:
            async with TreeServer(pool=self.pool) as server:
                await server.submit_many(BuildRequest("mst", network=net) for net in warm)

        asyncio.run(warm_up())

    def _metered(self, build):
        """``build`` with the worker's meter running, one record per build."""

        def metered_build(*args, **kwargs):
            meter = self.worker_meter
            meter.start()
            mark = meter.mark()
            try:
                return build(*args, **kwargs)
            finally:
                meter.stop()
                record = {"passes": meter.since(mark)[0]}
                with open(self.records_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")

        return metered_build

    def _drain_records(self) -> List[Dict[str, float]]:
        records = []
        for path in sorted(self.records_dir.glob("*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                records.extend(json.loads(line) for line in fh)
            path.unlink()
        return records

    # -- timed rounds ---------------------------------------------------
    def run_round(self, rec) -> None:
        self._drain_records()
        wall, served, stats = asyncio.run(self._round(rec))
        self.scales.append(factor_of([x for r in self._drain_records() for x in r["passes"]]))
        self.walls.append(wall)
        self.rounds.append(served)
        self.stats.append(stats)
        if rec is not None:
            self.traced_rounds.append(len(self.rounds) - 1)

    async def _round(self, rec):
        from repro.serve import TreeServer

        self.shard_starts.clear()
        served: List[_Served] = []
        cursor = iter(range(len(self.sequence)))

        async def client() -> None:
            for pos in cursor:
                index = self.sequence[pos]
                _, builder, _, request = self.unique[index]
                op = rec.operation(f"request:{builder}", "serve.request") if rec is not None else nullcontext()
                start = perf_counter()
                try:
                    with op:
                        response = await server.submit(request)
                except Exception as exc:  # noqa: BLE001 - counted as a failed request
                    served.append(_Served(index, perf_counter() - start, error=f"{type(exc).__name__}: {exc}"))
                    continue
                item = _Served(index, perf_counter() - start, response)
                began = self.shard_starts.get(response.cache_info.key)
                if not response.cache_info.hit and began is not None:
                    item.queue_wait_s = began - start
                served.append(item)

        async with TreeServer(pool=self.pool) as server:
            start = perf_counter()
            await asyncio.gather(*(client() for _ in range(self.CLIENTS)))
            wall = perf_counter() - start
            stats = server.stats()
        return wall, served, stats

    # -- checks ---------------------------------------------------------
    def finish(self) -> None:
        """Rebuild every unique request cold and compare every response.

        The rebuilds run in two forked processes of the benchmark's own
        (after the serving pool is closed, so no pool thread is alive at
        fork); each returns the signature of a plain ``build_tree`` result.
        """
        from repro.serve import effective_params

        self.close()
        jobs = [(builder, self.networks[t], effective_params(request)) for t, builder, _, request in self.unique]
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=self.WORKERS, mp_context=context) as pool:
            reference = dict(enumerate(pool.map(_cold_signature, jobs, chunksize=4)))
        for round_no, served in enumerate(self.rounds):
            for item in served:
                builder = self.unique[item.index][1]
                label = f"round {round_no} request {item.index} ({builder})"
                if item.error is not None:
                    self.tally.record(label, [item.error])
                    continue
                self.tally.record(label, self.response_problems(item.index, item.response, reference))
                if round_no == 0 and item.response.cache_info.source == "built":
                    self.digest_items.append((f"{item.index}/{builder}", dict(item.response.tree.parents)))

    def response_problems(self, index: int, response, reference) -> List[str]:
        """Checks of one served response against its cold rebuild."""
        t, _, lc, _ = self.unique[index]
        metrics = response.metrics
        problems = tree_problems(
            self.networks[t],
            dict(response.tree.parents),
            (metrics["cost"], metrics["reliability"], metrics["lifetime"]),
            lc,
        )
        if served_signature(response) != reference[index]:
            problems.append("served response differs from the cold rebuild")
        return problems

    # -- metrics --------------------------------------------------------
    def _latencies(self, hit: bool, rounds: Sequence[int]) -> List[float]:
        """Latencies in reference seconds of the hits or the cold requests."""
        return [
            item.latency_s * self.scales[i]
            for i in rounds
            for item in self.rounds[i]
            if item.response is not None and item.response.cache_info.hit == hit
        ]

    def metrics(self) -> Dict[str, float]:
        built = [
            item.response.metrics["cost"] / self.mst_costs[self.unique[item.index][0]]
            for item in self.rounds[0]
            if item.response is not None and item.response.cache_info.source == "built"
        ]
        return {
            "op_ms": 1000.0 * statistics.median(self._latencies(False, range(len(self.rounds)))),
            "ops_per_s": statistics.median(
                len(self.sequence) / (w * scale) for w, scale in zip(self.walls, self.scales)
            ),
            "cost_over_mst": statistics.fmean(built),
        }

    def serve_stats(self) -> Dict[str, float]:
        """Per-round serve-layer metrics over the traced rounds."""
        rounds = [self.stats[i] for i in self.traced_rounds]
        served = [item for i in self.traced_rounds for item in self.rounds[i]]
        hit_s = self._latencies(True, self.traced_rounds)
        cold_s = self._latencies(False, self.traced_rounds)
        requests = sum(s["requests"] for s in rounds)
        hits = sum(s["result_cache"]["hits"] + s["coalesced"] for s in rounds)
        structure = [s["structure_cache"] for s in rounds]
        lookups = sum(s["hits"] + s["misses"] for s in structure)
        waits = [item.queue_wait_s for item in served if item.queue_wait_s is not None]
        return {
            "serve.hit_rate": hits / requests if requests else 0.0,
            "serve.built": sum(s["built"] for s in rounds) / len(rounds),
            "serve.coalesced": sum(s["coalesced"] for s in rounds) / len(rounds),
            "serve.structure_hit_rate": sum(s["hits"] for s in structure) / lookups if lookups else 0.0,
            "serve.queue_wait_ms": 1000.0 * statistics.median(waits) if waits else 0.0,
            "serve.hit_p50_ms": 1000.0 * statistics.median(hit_s) if hit_s else 0.0,
            "serve.cold_p90_ms": 1000.0 * statistics.quantiles(cold_s, n=10, method="inclusive")[8]
            if len(cold_s) > 1
            else 0.0,
        }

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self._restore is not None:
            self._restore()
            self._restore = None
        if self.records_dir.exists():
            for path in self.records_dir.glob("*"):
                path.unlink()
            self.records_dir.rmdir()

    @staticmethod
    def op_kind(op: Optional[str]) -> str:
        return op or "server"


WORKLOADS = {cls.name: cls for cls in (IraLarge, LocalSearchLarge, FigSweep, ServedMix)}
