"""Parallel execution of embarrassingly-parallel experiment sweeps.

The random-graph experiments (Figs. 8–10) run hundreds of independent
trials; each trial's seed is already a pure function of its semantic labels
(:func:`repro.utils.rng.stable_hash_seed`), so trials can be distributed
across processes with **bitwise-identical** results to the serial loop —
the property the tests pin.

Design notes (per the scientific-Python guidance this project follows):

* processes, not threads — the LP solver and the local searches are
  CPU-bound Python;
* chunked map — each worker gets a contiguous block of trial indices to
  amortise process start-up and pickling;
* the pool is only engaged when the caller asks for it — an explicit
  ``n_jobs > 1`` is always honoured, however few the items;
* :class:`ProcessPool` is the project's one process pool.  Its owner picks
  the lifetime — :func:`parallel_map` one per call (forked workers inherit
  that call's state), the tree server one for its lifetime, a portfolio
  race one per race — and ends it with :meth:`ProcessPool.close` or, when
  work is hung past a deadline, :meth:`ProcessPool.kill`.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional
from typing import Sequence, Tuple, TypeVar

__all__ = [
    "ParallelBuildError",
    "ProcessPool",
    "default_workers",
    "parallel_build",
    "parallel_map",
]

T = TypeVar("T")


class ParallelBuildError(RuntimeError):
    """A sweep trial's builder failed; names the builder and trial index.

    Raised by :func:`parallel_build` in place of the builder's own
    exception, which — surfacing from a worker process deep in a pool map —
    otherwise says nothing about *which* of the hundreds of trials died or
    what builder/config it was running.  The original exception stays
    available as ``__cause__``.

    The ``(builder, index, detail)`` args round-trip through pickle, so the
    error crosses the process boundary intact.
    """

    def __init__(self, builder: str, index: int, detail: str):
        super().__init__(builder, index, detail)
        self.builder = builder
        self.index = index
        self.detail = detail

    def __str__(self) -> str:
        return (
            f"builder {self.builder!r} failed on trial {self.index}: "
            f"{self.detail}"
        )


class ProcessPool:
    """Worker processes that the owner shuts down or kills.

    A thin owner of one :class:`ProcessPoolExecutor`: work goes in through
    :meth:`submit`/:meth:`map`, and the pool ends with :meth:`close` (let
    running work finish) or :meth:`kill` (terminate it now).  Used as a
    context manager it closes on exit.
    """

    def __init__(self, n_workers: int) -> None:
        self._executor = ProcessPoolExecutor(max_workers=n_workers)

    def submit(self, fn: Callable[..., T], /, *args: Any) -> Future[T]:
        return self._executor.submit(fn, *args)

    def map(self, fn: Callable[..., T], items: Iterable[Any]) -> Iterator[T]:
        return self._executor.map(fn, items)

    def close(self) -> None:
        """Shut down after the submitted work finishes."""
        self._executor.shutdown(wait=True)

    def kill(self) -> None:
        """Terminate and join every live worker, then shut down at once.

        Work still running is lost; its futures fail or stay pending.
        """
        workers = list((self._executor._processes or {}).values())
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.join()
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> ProcessPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def default_workers() -> int:
    """Worker count: physical parallelism minus one, at least 1."""
    return max((os.cpu_count() or 2) - 1, 1)


def _run_block(args: Tuple[Callable[[int], T], Sequence[int]]) -> List[T]:
    func, indices = args
    return [func(i) for i in indices]


def _build_indexed(
    builder: str,
    network_factory: Callable[[int], Any],
    config: Dict[str, Any],
    index: int,
):
    from repro.engine import build_tree

    try:
        return build_tree(builder, network_factory(index), **config)
    except Exception as exc:
        raise ParallelBuildError(
            builder, index, f"{type(exc).__name__}: {exc}"
        ) from exc


def parallel_build(
    builder: str,
    network_factory: Callable[[int], Any],
    n_trials: int,
    *,
    config: Optional[Dict[str, Any]] = None,
    n_jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Run one registry builder over ``n_trials`` independent networks.

    The builder is addressed by its registry *name* (a plain string, so the
    work items pickle cheaply) and is resolved once up-front to fail fast on
    typos.  ``network_factory(i)`` must build trial *i*'s network from the
    index alone (derive seeds from ``i``), which makes the sweep
    schedule-independent exactly like :func:`parallel_map`.

    Returns the :class:`repro.engine.BuildResult` list in trial order.
    """
    from functools import partial

    from repro.engine import get_builder

    get_builder(builder)  # fail fast on unknown names before forking
    func = partial(_build_indexed, builder, network_factory, dict(config or {}))
    return parallel_map(func, n_trials, n_jobs=n_jobs, chunk_size=chunk_size)


def parallel_map(
    func: Callable[[int], T],
    n_items: int,
    *,
    n_jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[T]:
    """Evaluate ``[func(0), ..., func(n_items - 1)]``, possibly in parallel.

    Args:
        func: Index -> result; must be picklable (a module-level function or
            functools.partial of one) and must derive all randomness from
            the index, so results are order- and schedule-independent.
        n_items: Number of items.
        n_jobs: Process count; ``None`` or ``1`` runs serially (``None``
            stays serial to keep the default path dependency-free;
            pass ``default_workers()`` to use all cores).  An explicit
            ``n_jobs > 1`` always engages a pool, created for this call.
        chunk_size: Items per worker task (default: balanced blocks).

    Returns results in index order, identical to the serial evaluation.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be non-negative, got {n_items}")
    if n_items == 0:
        return []
    if n_jobs is not None and n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if chunk_size is not None and chunk_size < 1:
        # Without this, chunk_size=0 used to escape as an opaque
        # "range() arg 3 must not be zero" from the block splitter.
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")

    if n_jobs is None or n_jobs == 1:
        return [func(i) for i in range(n_items)]

    workers = min(n_jobs, n_items)
    if chunk_size is None:
        chunk_size = max(1, (n_items + workers - 1) // workers)
    blocks = [
        list(range(start, min(start + chunk_size, n_items)))
        for start in range(0, n_items, chunk_size)
    ]
    tasks = [(func, block) for block in blocks]
    results: List[T] = []
    with ProcessPool(workers) as pool:
        for block_result in pool.map(_run_block, tasks):
            results.extend(block_result)
    return results
