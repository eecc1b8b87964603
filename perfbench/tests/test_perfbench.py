"""The benchmark's own tests: tiny-size smoke runs, seeding, and its checks.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import checks, trace
from perfbench.run import END_TO_END, WORKLOAD_NAMES, unit_of
from perfbench.workloads import METRICS, WORKLOADS, Instance, IraLarge, ServedMix
from repro import build_tree, random_graph
from repro.network.serialization import topology_fingerprint

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tiny_run(name: str, seed: int, traced: bool):
    workload = WORKLOADS[name](seed, tiny=True)
    try:
        workload.setup()
        rec = patches = None
        if traced:
            rec, patches = trace.Recorder(), trace.Patches()
            trace.install_layers(rec, patches, getattr(workload, "shard_starts", {}))
        try:
            workload.run_round(rec)
        finally:
            if patches is not None:
                patches.restore()
        workload.finish()
        return workload, rec, patches
    finally:
        workload.close()


def _inputs(workload) -> list:
    """A comparable description of a workload's generated inputs."""
    if hasattr(workload, "instances"):
        return [topology_fingerprint(i.network) for i in workload.instances]
    if hasattr(workload, "networks"):
        return [topology_fingerprint(net) for net in workload.networks]
    return [workload.base9, workload.base10]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_checks_outputs_and_metric_names(name):
    workload, _, _ = _tiny_run(name, 1, traced=False)
    assert workload.tally.attempted > 0
    assert workload.tally.failed == 0, workload.tally.problems
    metrics = workload.metrics()
    assert set(metrics) == {m for m, _ in METRICS}
    assert all(NAME.fullmatch(m) for m in metrics)
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_round_reports_every_layer_metric(name):
    workload, rec, patches = _tiny_run(name, 1, traced=True)
    stats = workload.serve_stats() if hasattr(workload, "serve_stats") else None
    metrics = trace.layer_metrics(rec, 1, stats)
    assert workload.tally.failed == 0, workload.tally.problems
    assert all(NAME.fullmatch(m) for m in metrics)
    assert set(metrics) | set(trace.TRACE_STATS) == set(trace.layer_names())
    assert trace.absent_metrics(patches.absent) == []


def test_layers_show_up_where_they_should():
    _, rec, patches = _tiny_run("ira_large", 1, traced=True)
    ira = trace.layer_metrics(rec, 1)
    assert ira["separation.calls"] > 0 and ira["maxflow.solves"] > 0
    assert ira["parallel.map_calls"] == 0 and ira["pool.shards"] == 0
    _, rec, patches = _tiny_run("local_search_large", 1, traced=True)
    ls = trace.layer_metrics(rec, 1)
    assert ls["lp.solve_calls"] == 0 and ls["separation.calls"] == 0
    assert ls["network.has_edge_calls"] > 0 and ls["treestate.in_subtree_calls"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs_not_metric_names(name):
    first, _, _ = _tiny_run(name, 1, traced=False)
    second, _, _ = _tiny_run(name, 2, traced=False)
    assert _inputs(first) != _inputs(second)
    assert set(first.metrics()) == set(second.metrics())
    again = WORKLOADS[name](1, tiny=True)
    try:
        again.setup()
        assert _inputs(again) == _inputs(first)
    finally:
        again.close()


def test_corrupted_parent_maps_are_reported():
    net = random_graph(12, 0.6, seed=3)
    result = build_tree("mst", net)
    parents = dict(result.tree.parents)
    reported = (result.cost, result.reliability, result.lifetime)
    assert checks.tree_problems(net, parents, reported) == []

    cycle = dict(parents)
    a, b = next((v, p) for v, p in parents.items() if p != net.sink)
    cycle[b] = a
    missing = dict(parents)
    missing.pop(a)
    non_link = next(
        {**parents, v: u} for v in parents for u in range(net.n) if u != v and not net.has_edge(u, v)
    )
    for corrupt in (cycle, missing, non_link, {**parents, net.sink: 1}):
        assert checks.tree_problems(net, corrupt, reported), corrupt
    wrong_cost = (result.cost * (1 + 1e-12), result.reliability, result.lifetime)
    assert checks.tree_problems(net, parents, wrong_cost)
    assert checks.tree_problems(net, parents, reported, lc=result.lifetime * 1.01)


def test_corrupted_build_counts_as_failed_operation(monkeypatch):
    net = random_graph(12, 0.6, seed=3)
    good = build_tree("mst", net)
    parents = dict(good.tree.parents)
    v = next(iter(parents))
    parents[v] = v  # self-parent: not a tree
    fake = SimpleNamespace(
        tree=SimpleNamespace(parents=parents),
        cost=good.cost,
        reliability=good.reliability,
        lifetime=good.lifetime,
    )
    monkeypatch.setattr("perfbench.workloads.build_tree", lambda *a, **k: fake)
    workload = IraLarge(1, tiny=True)
    workload.build(None, "x/ira", "ira", Instance("x", net, 1.0, good.cost), lc=1.0)
    assert (workload.tally.attempted, workload.tally.failed) == (1, 1)


def test_tampered_served_response_counts_as_failed():
    workload = ServedMix(1, tiny=True)
    try:
        workload.setup()
        workload.run_round(None)
    finally:
        workload.close()
    served = workload.rounds[0]
    item = next(i for i in served if i.response is not None and i.response.builder == "ira")
    metrics = dict(item.response.metrics, cost=item.response.metrics["cost"] + 1e-9)
    item.response = dataclasses.replace(item.response, metrics=metrics)
    workload.finish()
    assert workload.tally.failed == 1
    assert "C reported" in workload.tally.problems[0]


def test_absent_target_is_reported_not_fatal():
    patches = trace.Patches()
    assert not patches.wrap("repro.core.lp:no_such_function", lambda fn: fn)
    assert not patches.wrap("repro.no_such_module:f", lambda fn: fn)
    assert patches.absent == ["repro.core.lp:no_such_function", "repro.no_such_module:f"]
    absent = trace.absent_metrics(list(trace.SEPARATION))
    assert "separation.calls" in absent and "lp.highs_calls" not in absent
    assert trace.layer_metrics(trace.Recorder(), 1)["separation.calls"] == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(END_TO_END)
    assert dict(METRICS).items() <= dict(END_TO_END).items()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {m: unit_of(m) for m in trace.layer_names()}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ira_large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
