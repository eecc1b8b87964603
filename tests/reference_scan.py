"""Nested-loop reference for :meth:`TreeState.best_cost_reparent`.

The runtime scan scores every ``(child, candidate-parent)`` pair in one
vectorized pass.  This module keeps the plain loops it replaced — the cost
descents of ``repair_overload``, ``reduce_cost_under_caps`` and
``delay_bounded`` — as one oracle with the same keyword interface, so tests
can compare the two move by move or monkeypatch the oracle in and rerun
whole builders.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np
import pytest

from repro.engine import TreeState


def reference_best_cost_reparent(
    state: TreeState,
    *,
    cand_ok: Optional[np.ndarray] = None,
    child_group: Optional[np.ndarray] = None,
    pair_ok: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    threshold: Optional[float] = None,
) -> Optional[Tuple[float, int, int]]:
    """The cheapest valid re-parent move by explicit loops.

    Walks children ascending, then each child's neighbours ascending (with
    ``child_group``: groups ascending first, then children, then
    candidates) and keeps a move only when its delta is strictly below the
    best so far, so ties go to the first pair walked.
    """
    if not state.spanning:
        raise ValueError("bulk move scans require a spanning state")
    network = state.network
    children = [v for v in range(state.n) if v != state.sink]
    if child_group is not None:
        children = [v for v in children if child_group[v] >= 0]
        children.sort(key=lambda v: int(child_group[v]))  # stable
    best: Optional[Tuple[float, int, int]] = None
    for child in children:
        parent = state.parent(child)
        for cand in network.neighbors(child):
            if cand == parent or state.in_subtree(cand, child):
                continue
            if cand_ok is not None and not cand_ok[cand]:
                continue
            if pair_ok is not None and not pair_ok(
                np.array([child]), np.array([cand])
            )[0]:
                continue
            delta = network.cost(child, cand) - network.cost(child, parent)
            if threshold is not None and not delta < threshold:
                continue
            if best is None or delta < best[0]:
                best = (delta, child, cand)
    return best


def use_reference_scan(monkeypatch) -> None:
    """Route every ``TreeState.best_cost_reparent`` call to the oracle."""
    monkeypatch.setattr(
        TreeState, "best_cost_reparent", reference_best_cost_reparent
    )


@pytest.fixture(autouse=True, params=["object", "numpy"])
def move_scan(request, monkeypatch):
    """Run every test of an importing module under both cost scans.

    ``object`` routes ``TreeState.best_cost_reparent`` to the nested-loop
    reference above; ``numpy`` keeps the vectorized runtime scan.  The ids
    name the two former TreeState classes those scans come from.
    """
    if request.param == "object":
        use_reference_scan(monkeypatch)
    return request.param
