"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload ira_large --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (:data:`END_TO_END`, the same
on every workload), measured with no wrapper in place.  ``--trace 1``
prints the per-layer metrics instead: it makes one untraced reference
round, then traced rounds for ``--seconds``, prints a self-time table, and
writes the spans to ``.perfbench_out/spans-<workload>-<seed>.jsonl``.

The package under test is imported from ``src/`` next to this directory and
nowhere else; without it the script exits with status 3 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.clock import Meter  # noqa: E402 - stdlib only, needs ROOT on the path

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: End-to-end metrics of every workload: ``(name, unit)``.  The first three
#: are the workload's (``workloads.METRICS``), the last two ``run.py``'s own.
END_TO_END = (
    ("op_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cost_over_mst", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

WORKLOAD_NAMES = ("ira_large", "local_search_large", "fig_sweep", "served_mix")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith(("_frac", "_ratio", "_rate")):
        return "ratio"
    return "count"


def import_package() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with status 3."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        sys.exit(3)
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"perfbench: repro resolved to {repro.__file__}, not under {src}", file=sys.stderr)
        sys.exit(3)


def peak_rss_mb() -> float:
    """This process plus its largest (waited-for) child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def measure(workload, seconds: float, rec=None) -> List[float]:
    """Rounds for *seconds*; their wall times.

    At least one round runs; another starts only if a round as long as the
    last one still ends within *seconds*.
    """
    walls: List[float] = []
    start = perf_counter()
    while not walls or perf_counter() - start + walls[-1] <= seconds:
        began = perf_counter()
        workload.run_round(rec)
        walls.append(perf_counter() - began)
    return walls


def traced(workload, seconds: float, name: str, seed: int) -> Dict[str, float]:
    from perfbench import trace
    from perfbench.workloads import OUT_DIR

    reference = measure(workload, 0.0)[0]
    rec = trace.Recorder()
    patches = trace.Patches()
    trace.install_layers(rec, patches, getattr(workload, "shard_starts", {}))
    start = perf_counter()
    try:
        walls = measure(workload, seconds, rec)
    finally:
        patches.restore()
    wall = perf_counter() - start
    serve_stats = workload.serve_stats() if hasattr(workload, "serve_stats") else None
    metrics = trace.layer_metrics(rec, len(walls), serve_stats)
    round_s = statistics.median(walls)
    metrics["trace.round_s"] = round_s
    metrics["trace.untraced_round_s"] = reference
    metrics["trace.overhead_frac"] = (round_s - reference) / reference

    roots = sum(s[2] - s[1] for s in rec.spans if s[3] is None)
    print(f"traced rounds: {len(walls)}, wall {wall:.3f} s; round {round_s:.3f} s traced, {reference:.3f} s untraced")
    print(trace.render_table(rec, wall, workload.op_kind))
    print(
        f"self times sum to {roots:.3f} s over {wall:.3f} s of traced wall "
        f"(concurrency {roots / wall:.2f}); tracing overhead {metrics['trace.overhead_frac']:+.1%} per round"
    )
    for target in patches.absent:
        print(f"absent target: {target}")
    for metric in trace.absent_metrics(patches.absent):
        print(f"absent metric: {metric} (reads 0)")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    rec.write(str(OUT_DIR / f"spans-{name}-{seed}.jsonl"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meter = Meter()
    meter.start()
    try:
        return run(args, meter)
    finally:
        meter.stop()


def run(args, meter: Meter) -> int:
    mark, start = meter.mark(), perf_counter()
    import_package()
    from perfbench import checks
    from perfbench.workloads import WORKLOADS

    import_s = meter.reference(perf_counter() - start, mark)
    workload = WORKLOADS[args.workload](args.seed, meter=meter)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            mark, start = meter.mark(), perf_counter()
            workload.setup()
            setups.append(meter.reference(perf_counter() - start, mark))
        if args.trace or not workload.IN_PROCESS:
            meter.stop()
        if args.trace:
            values = traced(workload, args.seconds, args.workload, args.seed)
            units = {name: unit_of(name) for name in values}
        else:
            measure(workload, args.seconds)
        meter.stop()
        workload.finish()
        if not args.trace:
            values = workload.metrics()
    finally:
        workload.close()
    if not args.trace:
        values["setup_s"] = import_s + statistics.median(setups)
        values["peak_rss_mb"] = peak_rss_mb()
        units = dict(END_TO_END)

    tally = workload.tally
    print(f"host speed: {meter.overall():.4f} reference s per wall s in this process")
    print(f"digest {args.workload} seed {args.seed}: {checks.digest(workload.digest_items)}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in sorted(values)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
