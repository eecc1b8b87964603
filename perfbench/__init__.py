"""End-to-end and per-layer benchmark for the paper's workloads.

Run it from the repository root::

    python3 perfbench/run.py --workload ira_large --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""
