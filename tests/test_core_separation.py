"""Tests for repro.core.separation (subtour oracle)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.separation import (
    DEFAULT_TOLERANCE,
    find_violated_subtours,
    subtour_violation,
)
from repro.obs import instrument


def _triangle():
    """K3: edges aligned with x vectors in tests."""
    return 3, [(0, 1), (1, 2), (0, 2)]


class TestSubtourViolation:
    def test_cycle_violates(self):
        n, edges = _triangle()
        x = np.array([1.0, 1.0, 1.0])  # a 3-cycle: x(E(S)) = 3 > |S|-1 = 2
        assert subtour_violation([0, 1, 2], edges, x) == pytest.approx(1.0)

    def test_tree_does_not_violate(self):
        n, edges = _triangle()
        x = np.array([1.0, 1.0, 0.0])
        assert subtour_violation([0, 1, 2], edges, x) <= 0.0

    def test_subset_counts_internal_edges_only(self):
        n, edges = _triangle()
        x = np.array([1.0, 1.0, 1.0])
        assert subtour_violation([0, 1], edges, x) == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            find_violated_subtours(3, [(0, 1)], np.array([1.0, 1.0]))


class TestFindViolatedSubtours:
    def test_detects_integral_cycle(self):
        n, edges = _triangle()
        # Spanning "tree" constraint would be x sums to 2; here the 3-cycle
        # with all ones violates S = {0,1,2}.
        found = find_violated_subtours(n, edges, np.array([1.0, 1.0, 1.0]))
        assert frozenset({0, 1, 2}) in found

    def test_spanning_tree_point_is_clean(self):
        n, edges = _triangle()
        assert find_violated_subtours(n, edges, np.array([1.0, 0.0, 1.0])) == []

    def test_fractional_cycle_detected(self):
        # Two disjoint fractional cycles on 6 nodes; total = 5 = n - 1, so
        # the spanning equality holds but each cycle violates its subtour.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        x = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        found = find_violated_subtours(6, edges, x)
        assert frozenset({0, 1, 2}) in found

    def test_uniform_fractional_point_ok(self):
        # x_e = 2/3 on a triangle: x(E(S)) = 2 = |S| - 1 for S = V; subsets
        # of size 2 have x = 2/3 <= 1.  No violation.
        n, edges = _triangle()
        assert find_violated_subtours(n, edges, np.array([2 / 3] * 3)) == []

    def test_violation_just_over_tolerance(self):
        n, edges = _triangle()
        x = np.array([1.0, 1.0, 1e-5])
        found = find_violated_subtours(n, edges, x, tolerance=1e-6)
        assert frozenset({0, 1, 2}) in found

    def test_violation_under_tolerance_ignored(self):
        n, edges = _triangle()
        x = np.array([1.0, 1.0, 1e-9])
        assert find_violated_subtours(n, edges, x, tolerance=1e-6) == []

    def test_max_sets_cap(self):
        # Many independent triangles, each violated.
        edges = []
        for k in range(5):
            base = 3 * k
            edges += [(base, base + 1), (base + 1, base + 2), (base, base + 2)]
        x = np.ones(len(edges))
        found = find_violated_subtours(15, edges, x, max_sets=2)
        assert len(found) == 2

    def test_trivial_sizes(self):
        assert find_violated_subtours(1, [], np.array([])) == []
        assert find_violated_subtours(2, [(0, 1)], np.array([1.0])) == []

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_reported_sets_truly_violate(self, seed):
        """Soundness: every reported set must violate its constraint."""
        rng = np.random.default_rng(seed)
        n = 8
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if not edges:
            return
        x = rng.uniform(0.0, 1.0, size=len(edges))
        # Scale to satisfy the spanning equality roughly (not required).
        found = find_violated_subtours(n, edges, x)
        for subset in found:
            assert len(subset) >= 2
            assert subtour_violation(sorted(subset), edges, x) > 0

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_completeness_against_bruteforce(self, seed):
        """If brute force finds a violated set, the oracle must find one."""
        from itertools import combinations

        rng = np.random.default_rng(seed)
        n = 6
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        x = rng.uniform(0.0, 0.9, size=len(edges))

        brute_violation = 0.0
        for size in range(2, n + 1):
            for subset in combinations(range(n), size):
                brute_violation = max(
                    brute_violation, subtour_violation(subset, edges, x)
                )
        found = find_violated_subtours(n, edges, x)
        if brute_violation > 1e-6:
            assert found, f"oracle missed a violation of {brute_violation}"
        if not found:
            assert brute_violation <= 1e-6


def _reference_oracle(n, edges, x, *, tolerance=DEFAULT_TOLERANCE, max_sets=10):
    """The oracle's contract by enumeration (n <= 9).

    Per root in order: the minimal minimiser of ``f(S) = |S| - x(E(S))``
    (support edges only) over the sets containing the root, reported when
    ``f < 1 - tol``, ``|S| >= 2`` and its violation exceeds ``tol``; stop
    at ``max_sets`` distinct sets, then rank by violation (stable).
    """
    support = [(u, v, float(x[i])) for i, (u, v) in enumerate(edges) if x[i] > 0.0]
    subsets = [
        frozenset(c) for k in range(1, n + 1) for c in combinations(range(n), k)
    ]
    f = {
        s: len(s) - sum(val for u, v, val in support if u in s and v in s)
        for s in subsets
    }
    found = {}
    for root in range(n):
        containing = [s for s in subsets if root in s]
        best = min(f[s] for s in containing)
        minimal = frozenset.intersection(
            *[s for s in containing if f[s] <= best + 1e-9]
        )
        if best < 1.0 - tolerance and len(minimal) >= 2:
            violation = subtour_violation(sorted(minimal), edges, x)
            if violation > tolerance:
                found[minimal] = violation
                if len(found) >= max_sets:
                    break
    ranked = sorted(found.items(), key=lambda item: -item[1])
    return [s for s, _ in ranked[:max_sets]]


@st.composite
def separation_inputs(draw):
    """Random graphs with x > 1 edges, forest supports and x = 1 cycles."""
    n = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["random", "forest", "cycle_pendants"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "random":
        edges = [p for p in pairs if rng.random() < 0.6]
        x = rng.uniform(0.0, 1.0, len(edges))
        x[rng.random(len(edges)) < 0.15] = 1.0
        x[rng.random(len(edges)) < 0.1] = 0.0
        heavy = rng.random(len(edges)) < 0.15
        x[heavy] = rng.uniform(1.0, 1.5, int(heavy.sum()))
    elif kind == "forest":
        tree = [(int(rng.integers(v)), v) for v in range(1, n) if rng.random() < 0.85]
        # Zero-valued extra edges stay out of the support.
        edges = tree + [p for p in pairs if p not in tree and rng.random() < 0.3]
        x = np.zeros(len(edges))
        x[: len(tree)] = rng.choice([1.0, 0.5, rng.uniform(0.0, 1.0)], len(tree))
        if rng.random() < 0.3 and tree:
            x[int(rng.integers(len(tree)))] = rng.uniform(1.0, 1.5)
    else:
        k = int(rng.integers(min(3, n), n + 1))
        cycle = [(i, i + 1) for i in range(k - 1)] + ([(0, k - 1)] if k >= 3 else [])
        pendants = [(int(rng.integers(v)), v) for v in range(k, n)]
        extra = [
            p for p in pairs
            if p not in cycle and p not in pendants and rng.random() < 0.2
        ]
        edges = cycle + pendants + extra
        x = np.concatenate([
            np.ones(len(cycle)),
            rng.choice([1.0, rng.uniform(0.0, 1.0)], len(pendants)),
            rng.uniform(0.0, 0.3, len(extra)),
        ])
    max_sets = draw(st.sampled_from([2, 10]))
    return n, edges, x, max_sets


class TestExactSemantics:
    @given(separation_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_oracle(self, case):
        n, edges, x, max_sets = case
        assert find_violated_subtours(n, edges, x, max_sets=max_sets) == (
            _reference_oracle(n, edges, x, max_sets=max_sets)
        )


def _probes(n, edges, x):
    with instrument() as session:
        found = find_violated_subtours(n, edges, np.asarray(x, dtype=float))
    return found, session.registry.counter_value("separation.root_probes")


class TestRootProbes:
    """``separation.root_probes`` counts the max-flow probes actually run."""

    def test_forest_support_needs_no_probe(self):
        n = 8
        edges = [(0, 1), (1, 2), (1, 3), (3, 4), (5, 6), (0, 7), (2, 4)]
        x = [1.0, 0.5, 1.0, 0.25, 1.0, 0.75, 0.0]
        assert _probes(n, edges, x) == ([], 0)

    def test_unproductive_fractional_cycle_stops_early(self):
        # A 6-cycle at x = 5/6 (f(V) = 1, tight but not violated) with a
        # pendant path: the first probe pins node 0 and the rest peels away.
        n = 9
        edges = [(i, (i + 1) % 6) for i in range(6)] + [(2, 6), (6, 7), (7, 8)]
        x = [5 / 6] * 6 + [1.0, 1.0, 1.0]
        found, probes = _probes(n, edges, x)
        assert found == []
        assert 1 <= probes < n

    def test_productive_point_matches_reference(self):
        # Two unit triangles joined by a half edge, plus a fractional tail.
        n = 8
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (5, 6), (6, 7)]
        x = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.4, 0.9])
        found, probes = _probes(n, edges, x)
        assert found == _reference_oracle(n, edges, x)
        assert found[0] == frozenset(range(6))  # f = 6 - 6.5
        assert 1 <= probes <= n
