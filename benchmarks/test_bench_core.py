"""Core-bench smoke: the vectorized round simulation beats the loop.

A scaled-down in-CI version of ``repro bench-core`` (whose full-size runs
feed ``BENCH_core.json``): asserts the vectorized round simulator produces
an *identical* estimate to the historical loop and is faster at
bench-smoke sizes.  The absolute threshold is deliberately loose —
machine-independence matters more than the exact ratio, which the
trajectory file tracks across PRs instead.
"""

from __future__ import annotations

from repro.engine.bench import (
    BENCH_CORE_FORMAT,
    append_core_bench_run,
    run_core_bench,
)
from repro.obs.benchdiff import diff_trajectory_file


def test_core_bench_speedups_and_identity(tmp_path):
    # A small grid keeps the loop baseline to a couple of seconds; identity
    # between implementations is asserted inside run_core_bench.
    report = run_core_bench(round_grid=40, rounds=100, seed=0)
    assert report.round_sim_nodes == 1600
    # The full-size BENCH_core.json runs pin >=10x; at smoke size the
    # margin is smaller but must still be decisive.
    assert report.round_sim_speedup > 3.0

    # Trajectory plumbing: append twice, then the sentinel must parse the
    # document and find no regression between back-to-back runs.
    out = tmp_path / "BENCH_core.json"
    doc = append_core_bench_run(out, report)
    assert doc["format"] == BENCH_CORE_FORMAT
    append_core_bench_run(out, report)
    diff = diff_trajectory_file(out)
    assert not diff.regressed, diff.render()
