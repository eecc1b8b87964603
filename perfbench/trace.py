"""In-memory span recorder and the layer wrappers of the traced run.

The traced run measures each layer from outside: it replaces the name a
caller looks up (``repro.core.lp.linprog``, ``repro.engine.builders.
build_ira_tree``, a method on a class, ...) with a wrapper that records a
span or bumps a counter, and restores every name afterwards.  Nothing under
``src/`` knows about it.  ``from x import f`` binds ``f`` in the importing
module, so each wrapper targets the module that *calls* the function.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the span
list, ``op`` is the id of the build or request the span belongs to.  The
open-span stack lives in a context variable, so concurrent asyncio tasks
(the served workload's clients) each nest their own spans.

A target that no longer exists is not an error: it is recorded in
:attr:`Patches.absent`, and every metric that depended only on absent
targets is reported as absent by name (:func:`absent_metrics`); its value
reads 0, like that of a layer the workload never reaches.
"""

from __future__ import annotations

import contextvars
import importlib
import json
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_STACK: "contextvars.ContextVar[Tuple[int, ...]]" = contextvars.ContextVar(
    "perfbench_span_stack", default=()
)
_OP: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_op", default=None
)

#: Counters the wrappers bump, pre-seeded so the hot path is a plain ``+=``.
COUNTERS = (
    "separation.cuts_returned",
    "separation.productive",
    "lp.highs_infeasible",
    "ira.iterations",
    "ira.lp_solves",
    "ira.cuts",
    "ira.forced_relaxations",
    "local_search.ascent_moves",
    "network.cost_calls",
    "network.has_edge_calls",
    "network.neighbors_calls",
    "treestate.reparent_calls",
    "treestate.in_subtree_calls",
    "parallel.pools_created",
    "serve.batches",
    "serve.batch_items",
    "pool.items",
)


class Recorder:
    """Spans and counters of one process, kept in memory until written out.

    A process-pool worker forked from the traced parent inherits a copy of
    the recorder; :meth:`fork_reset` empties that copy in place (the
    wrappers hold references to the list and dict, so they keep working)
    before the worker records anything of its own.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)

    def fork_reset(self) -> None:
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans.clear()
            self.counts.update(dict.fromkeys(self.counts, 0))
            _STACK.set(())

    def open(self, name: str) -> Tuple[int, "contextvars.Token"]:
        stack = _STACK.get()
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, stack[-1] if stack else None, _OP.get()])
        return idx, _STACK.set(stack + (idx,))

    def close(self, idx: int, token: "contextvars.Token") -> None:
        self.spans[idx][2] = perf_counter()
        _STACK.reset(token)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx, token = self.open(name)
        try:
            yield
        finally:
            self.close(idx, token)

    @contextmanager
    def operation(self, op: str, name: str = "op") -> Iterator[None]:
        """Root span of one build or request; its spans share the op id."""
        token = _OP.set(op)
        try:
            with self.span(name):
                yield
        finally:
            _OP.reset(token)

    def drain(self) -> Dict[str, Any]:
        """Hand over and forget everything recorded so far (worker side)."""
        out = {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}
        self.spans.clear()
        self.counts.update(dict.fromkeys(self.counts, 0))
        return out

    def merge(self, chunk: Dict[str, Any]) -> None:
        """Append a drained chunk from another process (parents re-indexed)."""
        base = len(self.spans)
        for name, start, end, parent, op in chunk["spans"]:
            self.spans.append([name, start, end, None if parent is None else parent + base, op])
        for key, value in chunk["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")


class Patches:
    """Name replacements with undo, tolerant of targets that are gone.

    A target is ``"module:attr"`` or ``"module:Class.method"``.  A method
    is only wrapped on the class whose ``__dict__`` defines it, so a
    subclass that inherits it is never counted twice.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        self.present: List[str] = []
        self.absent: List[str] = []

    def wrap(self, target: str, make: Callable[[Any], Any]) -> bool:
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(target)
            return False
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))
        self.present.append(target)
        return True

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def timed(rec: Recorder, name: str, after: Optional[Callable[[Any], None]] = None):
    """Wrapper factory: one span per call, then ``after(result)``."""

    def make(fn):
        def wrapper(*args, **kwargs):
            idx, token = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx, token)
            if after is not None:
                after(result)
            return result

        return wrapper

    return make


def timed_async(rec: Recorder, name: str, before: Optional[Callable[..., None]] = None):
    """Async variant of :func:`timed`; ``before(*args)`` runs at entry."""

    def make(fn):
        async def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            idx, token = rec.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.close(idx, token)

        return wrapper

    return make


def counting(rec: Recorder, key: str):
    """Wrapper factory: count calls only (for calls that number millions)."""
    counts = rec.counts

    def make(fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make


# ----------------------------------------------------------------------
# Layer wiring
# ----------------------------------------------------------------------

#: Metric -> targets it is measured through.  A metric whose targets are
#: all absent is reported as absent.  Derived and serve-side metrics are
#: listed with the targets they read.
METRIC_TARGETS: Dict[str, Tuple[str, ...]] = {}


def _register(metrics: Sequence[str], targets: Sequence[str]) -> None:
    for metric in metrics:
        METRIC_TARGETS[metric] = METRIC_TARGETS.get(metric, ()) + tuple(targets)


SEPARATION = ("repro.core.lp:find_violated_subtours",)
MAXFLOW = (
    "repro.utils.maxflow:DinicMaxFlow.solve",
    "repro.core.separation:maximum_flow",
)
LP_SOLVE = ("repro.core.lp:MRLCLinearProgram.solve",)
HIGHS = ("repro.core.lp:linprog",)
IRA = ("repro.engine.builders:build_ira_tree",)
IRA_REPAIR = ("repro.core.ira:IterativeRelaxation._repair_lifetime",)
MAXIMIZE = (
    "repro.engine.builders:maximize_lifetime",
    "repro.baselines.aaml:maximize_lifetime",
    "repro.core.ira:maximize_lifetime",
)
REDUCE = (
    "repro.engine.builders:reduce_cost_under_caps",
    "repro.core.ira:reduce_cost_under_caps",
)
POLISH = (
    "repro.engine.builders:improve_hamiltonian_path",
    "repro.core.ira:improve_hamiltonian_path",
)
NETWORK = {
    "network.cost_calls": "repro.network.model:Network.cost",
    "network.has_edge_calls": "repro.network.model:Network.has_edge",
    "network.neighbors_calls": "repro.network.model:Network.neighbors",
}
PARALLEL_MAP = ("repro.experiments.fig8_same_energy:parallel_map",)
PARALLEL_POOL = ("repro.experiments.parallel:ProcessPoolExecutor",)
SERVE_BATCH = ("repro.serve.server:TreeServer._collect_batch",)
SERVE_FINGERPRINT = ("repro.serve.cache:StructureCache.fingerprint_of",)
POOL_SHARD = ("repro.serve.workers:WorkerPool.run_shard",)


def _treestate_targets(method: str) -> Tuple[str, ...]:
    """``Class.method`` targets on every registered TreeState backend."""
    try:
        from repro.engine.backend import available_tree_backends, get_backend_class
    except ImportError:
        classes: List[type] = []
        try:
            from repro.engine.treestate import TreeState

            classes = [TreeState]
        except ImportError:
            return ("repro.engine.treestate:TreeState." + method,)
    else:
        classes = [get_backend_class(name) for name in available_tree_backends()]
    return tuple(
        f"{cls.__module__}:{cls.__qualname__}.{method}"
        for cls in classes
        if method in cls.__dict__
    ) or ("repro.engine.treestate:TreeState." + method,)


_register(["separation.calls", "separation.s", "separation.cuts_returned", "separation.productive_frac"], SEPARATION)
_register(["maxflow.solves", "maxflow.s", "maxflow.solves_per_separation"], MAXFLOW)
_register(["lp.solve_calls", "lp.solve_s", "lp.self_s"], LP_SOLVE)
_register(["lp.highs_calls", "lp.highs_s", "lp.highs_infeasible", "lp.self_s"], HIGHS)
_register(["ira.iterations", "ira.lp_solves", "ira.cuts", "ira.forced_relaxations", "ira.self_s"], IRA)
_register(["ira.repair_s"], IRA_REPAIR)
_register(["local_search.maximize_lifetime_s", "local_search.ascent_moves"], MAXIMIZE)
_register(["local_search.reduce_cost_s"], REDUCE)
_register(["local_search.path_polish_s"], POLISH)
for _metric, _target in NETWORK.items():
    _register([_metric], (_target,))
# Replaced by the registered backend classes in install_layers.
_register(["treestate.reparent_calls", "treestate.accept_ratio"], ("repro.engine.treestate:TreeState.reparent",))
_register(["treestate.in_subtree_calls", "treestate.accept_ratio"], ("repro.engine.treestate:TreeState.in_subtree",))
_register(["parallel.map_calls", "parallel.map_s"], PARALLEL_MAP)
_register(["parallel.pools_created"], PARALLEL_POOL)
_register(["serve.batches", "serve.mean_batch"], SERVE_BATCH)
_register(["serve.fingerprint_s"], SERVE_FINGERPRINT)
_register(["serve.queue_wait_ms", "pool.shards", "pool.shard_ms", "pool.items_per_shard"], POOL_SHARD)


def install_layers(rec: Recorder, patches: Patches, shard_starts: Dict[str, float]) -> None:
    """Wrap every measured layer; ``shard_starts`` maps key -> run_shard start."""
    counts = rec.counts

    def on_cuts(result) -> None:
        counts["separation.cuts_returned"] += len(result)
        if result:
            counts["separation.productive"] += 1

    def on_highs(result) -> None:
        if getattr(result, "status", None) == 2:
            counts["lp.highs_infeasible"] += 1

    def on_ira(result) -> None:
        counts["ira.iterations"] += result.iterations
        counts["ira.lp_solves"] += result.lp_solves
        counts["ira.cuts"] += result.cuts_generated
        counts["ira.forced_relaxations"] += len(result.forced_relaxations)

    def on_ascent(result) -> None:
        counts["local_search.ascent_moves"] += result[1]

    for target in SEPARATION:
        patches.wrap(target, timed(rec, "separation", on_cuts))
    for target in MAXFLOW:
        patches.wrap(target, timed(rec, "maxflow"))
    for target in LP_SOLVE:
        patches.wrap(target, timed(rec, "lp.solve"))
    for target in HIGHS:
        patches.wrap(target, timed(rec, "lp.highs", on_highs))
    for target in IRA:
        patches.wrap(target, timed(rec, "ira", on_ira))
    for target in IRA_REPAIR:
        patches.wrap(target, timed(rec, "ira.repair"))
    for target in MAXIMIZE:
        patches.wrap(target, timed(rec, "local_search.maximize_lifetime", on_ascent))
    for target in REDUCE:
        patches.wrap(target, timed(rec, "local_search.reduce_cost"))
    for target in POLISH:
        patches.wrap(target, timed(rec, "local_search.path_polish"))
    for metric, target in NETWORK.items():
        patches.wrap(target, counting(rec, metric))
    for target in _treestate_targets("reparent"):
        patches.wrap(target, counting(rec, "treestate.reparent_calls"))
    for target in _treestate_targets("in_subtree"):
        patches.wrap(target, counting(rec, "treestate.in_subtree_calls"))
    reparent, in_subtree = _treestate_targets("reparent"), _treestate_targets("in_subtree")
    METRIC_TARGETS["treestate.reparent_calls"] = reparent
    METRIC_TARGETS["treestate.in_subtree_calls"] = in_subtree
    METRIC_TARGETS["treestate.accept_ratio"] = reparent + in_subtree

    for target in PARALLEL_MAP:
        patches.wrap(target, timed(rec, "parallel.map"))

    def counting_pool(cls):
        class CountingPool(cls):
            def __init__(self, *args, **kwargs):
                counts["parallel.pools_created"] += 1
                super().__init__(*args, **kwargs)

        return CountingPool

    for target in PARALLEL_POOL:
        patches.wrap(target, counting_pool)

    def wrap_collect(fn):
        async def wrapper(*args, **kwargs):
            batch = await fn(*args, **kwargs)
            counts["serve.batches"] += 1
            counts["serve.batch_items"] += len(batch)
            return batch

        return wrapper

    for target in SERVE_BATCH:
        patches.wrap(target, wrap_collect)
    for target in SERVE_FINGERPRINT:
        patches.wrap(target, timed(rec, "serve.fingerprint"))

    def shard_started(pool, warm, items) -> None:
        now = perf_counter()
        counts["pool.items"] += len(items)
        for item in items:
            shard_starts.setdefault(item.key, now)

    for target in POOL_SHARD:
        patches.wrap(target, timed_async(rec, "pool.shard", shard_started))


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def self_times(spans: Sequence[Sequence[Any]]) -> List[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for name, start, end, parent, op in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def span_totals(spans: Sequence[Sequence[Any]]) -> Dict[str, Dict[str, float]]:
    """``{span name: {"calls", "total_s", "self_s"}}``."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span, self_s in zip(spans, own):
        row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += self_s
    return table


#: Serve-side metrics the served workload reads from the server itself;
#: zero on the workloads that do not serve.
SERVE_STATS = (
    "serve.hit_rate",
    "serve.built",
    "serve.coalesced",
    "serve.structure_hit_rate",
    "serve.queue_wait_ms",
    "serve.hit_p50_ms",
    "serve.cold_p90_ms",
)

#: Metrics of the traced run itself, set by ``run.py``.
TRACE_STATS = ("trace.round_s", "trace.untraced_round_s", "trace.overhead_frac")


def layer_metrics(
    rec: Recorder,
    rounds: int,
    serve_stats: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric, per traced round (see :func:`layer_names`).

    Counts and seconds are divided by the number of traced rounds (one
    round is one pass over the workload's fixed inputs); ratios, means and
    percentiles are not.  ``serve_stats`` carries :data:`SERVE_STATS`
    (already per round).  A layer whose targets are gone recorded
    nothing, so its metrics read 0; :func:`absent_metrics` names them.
    """
    t = span_totals(rec.spans)
    c = rec.counts

    def calls(name: str) -> float:
        return t.get(name, {}).get("calls", 0)

    def total(name: str) -> float:
        return t.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return t.get(name, {}).get("self_s", 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    shard_s = [s[2] - s[1] for s in rec.spans if s[0] == "pool.shard"]
    values = {
        "aaml.build_s": total("op.aaml"),
        "separation.calls": calls("separation"),
        "separation.s": own("separation"),
        "separation.cuts_returned": c["separation.cuts_returned"],
        "separation.productive_frac": ratio(c["separation.productive"], calls("separation")),
        "maxflow.solves": calls("maxflow"),
        "maxflow.s": total("maxflow"),
        "maxflow.solves_per_separation": ratio(calls("maxflow"), calls("separation")),
        "lp.solve_calls": calls("lp.solve"),
        "lp.solve_s": total("lp.solve"),
        "lp.highs_calls": calls("lp.highs"),
        "lp.highs_s": total("lp.highs"),
        "lp.highs_infeasible": c["lp.highs_infeasible"],
        "lp.self_s": own("lp.solve"),
        "ira.iterations": c["ira.iterations"],
        "ira.lp_solves": c["ira.lp_solves"],
        "ira.cuts": c["ira.cuts"],
        "ira.forced_relaxations": c["ira.forced_relaxations"],
        "ira.repair_s": total("ira.repair"),
        "ira.self_s": own("ira"),
        "local_search.maximize_lifetime_s": total("local_search.maximize_lifetime"),
        "local_search.reduce_cost_s": total("local_search.reduce_cost"),
        "local_search.path_polish_s": total("local_search.path_polish"),
        "local_search.ascent_moves": c["local_search.ascent_moves"],
        "network.cost_calls": c["network.cost_calls"],
        "network.has_edge_calls": c["network.has_edge_calls"],
        "network.neighbors_calls": c["network.neighbors_calls"],
        "treestate.reparent_calls": c["treestate.reparent_calls"],
        "treestate.in_subtree_calls": c["treestate.in_subtree_calls"],
        "treestate.accept_ratio": ratio(c["treestate.reparent_calls"], c["treestate.in_subtree_calls"]),
        "parallel.map_calls": calls("parallel.map"),
        "parallel.map_s": total("parallel.map"),
        "parallel.pools_created": c["parallel.pools_created"],
        "serve.batches": c["serve.batches"],
        "serve.mean_batch": ratio(c["serve.batch_items"], c["serve.batches"]),
        "serve.fingerprint_s": total("serve.fingerprint"),
        "pool.shards": calls("pool.shard"),
        "pool.shard_ms": 1000.0 * ratio(sum(shard_s), len(shard_s)),
        "pool.items_per_shard": ratio(c["pool.items"], calls("pool.shard")),
    }
    per_round = {
        name
        for name in values
        if not name.endswith(("_frac", "_ratio", "per_separation", "mean_batch", "shard_ms", "per_shard"))
    }
    out = {k: (v / rounds if k in per_round else v) for k, v in values.items()}
    out.update(dict.fromkeys(SERVE_STATS, 0.0))
    out.update(serve_stats or {})
    return out


def absent_metrics(absent: Sequence[str]) -> List[str]:
    """Metrics every one of whose targets is in *absent*, sorted."""
    gone = set(absent)
    return sorted(m for m, targets in METRIC_TARGETS.items() if targets and all(t in gone for t in targets))


def layer_names() -> List[str]:
    """Names of the per-layer metrics a traced run reports, sorted."""
    return sorted(layer_metrics(Recorder(), 1).keys() | set(TRACE_STATS))


def render_table(rec: Recorder, wall_s: float, op_kind: Callable[[Optional[str]], str]) -> str:
    """Self-time table per (operation kind, span name), largest first."""
    own = self_times(rec.spans)
    rows: Dict[Tuple[str, str], List[float]] = {}
    for span, self_s in zip(rec.spans, own):
        row = rows.setdefault((op_kind(span[4]), span[0]), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span[2] - span[1]
        row[2] += self_s
    lines = [f"{'operation':<24} {'span':<34} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self%':>6}"]
    for (kind, name), (n, tot, slf) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        share = 100.0 * slf / wall_s if wall_s else 0.0
        lines.append(f"{kind:<24} {name:<34} {n:>9d} {tot:>10.3f} {slf:>10.3f} {share:>6.1f}")
    return "\n".join(lines)
