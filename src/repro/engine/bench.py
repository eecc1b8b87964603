"""Core-compute benchmark: the vectorized round simulation vs the loop.

``AggregationSimulator.estimate_reliability`` (the batched Bernoulli-matrix
path) runs against a faithful re-implementation of the historical per-edge
Python loop, on an n≥5000 tree.  Both consume the same RNG stream and must
produce the same estimate; the speedup is the vectorization win alone.

``repro bench-core`` runs it and can append the report to a
``BENCH_core.json`` trajectory (same shape as ``BENCH_serve.json``), which
``repro obs bench-diff`` then gates — the cross-PR regression sentinel for
the compute core.  End-to-end local-search speed is measured by the
``local_search_large`` perfbench workload instead.  See
``docs/performance.md``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Union

from repro.engine.registry import build_tree
from repro.network.topology import grid_graph
from repro.simulation.rounds import AggregationSimulator
from repro.utils.rng import as_rng

__all__ = [
    "BENCH_CORE_FORMAT",
    "CoreBenchReport",
    "append_core_bench_run",
    "run_core_bench",
]

BENCH_CORE_FORMAT = "repro-bench-core"
BENCH_CORE_VERSION = 1

#: Default workload size — the smallest the acceptance bar admits
#: (round simulation at n ≥ 5000).
ROUND_SIM_GRID = 71  # 71 × 71 = 5041 nodes
ROUND_SIM_ROUNDS = 200


def _reference_estimate(tree, rng, n_rounds: int) -> float:
    """The historical per-edge scalar loop, kept verbatim as the baseline.

    One ``rng.random()`` per non-sink postorder node per round — the exact
    draw order the vectorized simulator reproduces, so both sides of the
    benchmark can (and do) assert equal estimates.
    """
    net = tree.network
    postorder = tree.postorder()
    complete = 0
    for _ in range(n_rounds):
        delivered_below = {v: {v} for v in range(tree.n)}
        for v in postorder:
            if v == tree.sink:
                continue
            parent = tree.parent(v)
            if rng.random() < net.prr(v, parent):
                delivered_below[parent] |= delivered_below[v]
        complete += len(delivered_below[tree.sink]) == tree.n
    return complete / n_rounds


@dataclass(frozen=True)
class CoreBenchReport:
    """One core-bench run: sizes, wall-clock split, and the speedup."""

    round_sim_nodes: int
    round_sim_rounds: int
    round_sim_reference_s: float
    round_sim_vectorized_s: float
    round_sim_speedup: float
    timestamp: float

    def to_doc(self) -> Dict[str, Any]:
        return asdict(self)

    def render(self) -> str:
        lines = [
            "core bench",
            f"  round sim   n={self.round_sim_nodes} rounds={self.round_sim_rounds}:"
            f" loop {self.round_sim_reference_s:.3f}s ->"
            f" vectorized {self.round_sim_vectorized_s:.3f}s"
            f"  ({self.round_sim_speedup:.1f}x)",
        ]
        return "\n".join(lines)


def run_core_bench(
    *,
    round_grid: int = ROUND_SIM_GRID,
    rounds: int = ROUND_SIM_ROUNDS,
    seed: int = 0,
) -> CoreBenchReport:
    """Run the core benchmark once and return the report.

    Correctness is asserted, not sampled: the two estimates must agree
    exactly (they share one RNG stream), so a speedup can never be bought
    with a behaviour change.
    """
    sim_net = grid_graph(round_grid, round_grid, seed=seed)
    sim_tree = build_tree("bfs", sim_net).tree

    start = time.perf_counter()
    vec = AggregationSimulator(sim_tree, seed=seed).estimate_reliability(rounds)
    vectorized_s = time.perf_counter() - start

    start = time.perf_counter()
    ref = _reference_estimate(sim_tree, as_rng(seed), rounds)
    reference_s = time.perf_counter() - start
    if vec != ref:
        raise AssertionError(
            f"round-sim divergence: vectorized {vec} != reference {ref}"
        )

    return CoreBenchReport(
        round_sim_nodes=sim_net.n,
        round_sim_rounds=rounds,
        round_sim_reference_s=reference_s,
        round_sim_vectorized_s=vectorized_s,
        round_sim_speedup=reference_s / max(vectorized_s, 1e-9),
        timestamp=time.time(),
    )


def append_core_bench_run(
    path: Union[str, Path], report: CoreBenchReport
) -> Dict[str, Any]:
    """Append *report* to the ``BENCH_core.json`` trajectory at *path*.

    Same one-document shape as the serve trajectory: ``{"format":
    "repro-bench-core", "version": 1, "runs": [...]}``, runs in append
    order.  Returns the written document.
    """
    target = Path(path)
    if target.exists():
        doc = json.loads(target.read_text(encoding="utf-8"))
        if doc.get("format") != BENCH_CORE_FORMAT:
            raise ValueError(
                f"{target} is not a {BENCH_CORE_FORMAT} document "
                f"(format={doc.get('format')!r})"
            )
    else:
        doc = {
            "format": BENCH_CORE_FORMAT,
            "version": BENCH_CORE_VERSION,
            "runs": [],
        }
    doc["runs"].append(report.to_doc())
    target.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return doc
