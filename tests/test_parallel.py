"""Tests for repro.experiments.parallel."""

import math
import multiprocessing
import os
import time

import pytest

from repro.experiments.fig8_same_energy import run_fig8
from repro.experiments.parallel import (
    ParallelBuildError,
    ProcessPool,
    default_workers,
    parallel_build,
    parallel_map,
)


def _square(i: int) -> int:
    return i * i


def _worker_pid(i: int) -> int:
    return os.getpid()


def _trial_network(i: int):
    from repro.network.topology import random_graph

    return random_graph(12, 0.5, seed=1000 + i)


class TestParallelMap:
    def test_empty(self):
        assert parallel_map(_square, 0) == []

    def test_serial_path(self):
        assert parallel_map(_square, 5) == [0, 1, 4, 9, 16]

    def test_parallel_matches_serial(self):
        serial = parallel_map(_square, 40, n_jobs=1)
        parallel = parallel_map(_square, 40, n_jobs=2)
        assert parallel == serial

    def test_small_inputs_stay_serial(self):
        # Below the advisory threshold the result is the same either way.
        assert parallel_map(_square, 4, n_jobs=4) == [0, 1, 4, 9]

    def test_explicit_n_jobs_engages_pool_below_threshold(self):
        # Regression: an explicit n_jobs > 1 used to be silently demoted to
        # the serial path below 8 items.  Worker pids prove real
        # subprocesses ran even for a tiny item count.
        n_items = 7
        pids = parallel_map(_worker_pid, n_items, n_jobs=2)
        assert len(pids) == n_items
        assert os.getpid() not in pids

    def test_default_n_jobs_stays_serial(self):
        # n_jobs=None is the dependency-free default: same process, no pool.
        pids = parallel_map(_worker_pid, 10)
        assert set(pids) == {os.getpid()}

    def test_chunking_preserves_order(self):
        out = parallel_map(_square, 30, n_jobs=3, chunk_size=4)
        assert out == [i * i for i in range(30)]

    def test_validation(self):
        with pytest.raises(ValueError):
            parallel_map(_square, -1)
        with pytest.raises(ValueError):
            parallel_map(_square, 5, n_jobs=0)

    def test_chunk_size_validation(self):
        # Regression: chunk_size=0 used to escape as an opaque
        # "range() arg 3 must not be zero" from the block splitter.
        with pytest.raises(ValueError, match="chunk_size must be >= 1, got 0"):
            parallel_map(_square, 5, n_jobs=2, chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size must be >= 1, got -3"):
            parallel_map(_square, 5, n_jobs=2, chunk_size=-3)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestParallelBuildError:
    def test_names_builder_and_trial(self):
        # delay_bounded requires max_depth; omitting it fails every trial,
        # and the wrapper must say which builder/trial died.
        with pytest.raises(ParallelBuildError) as excinfo:
            parallel_build("delay_bounded", _trial_network, 3)
        assert excinfo.value.builder == "delay_bounded"
        assert excinfo.value.index == 0
        assert "builder 'delay_bounded' failed on trial 0" in str(excinfo.value)
        assert "max_depth" in str(excinfo.value)

    def test_crosses_the_process_boundary_intact(self):
        with pytest.raises(ParallelBuildError) as excinfo:
            parallel_build("delay_bounded", _trial_network, 4, n_jobs=2)
        assert excinfo.value.builder == "delay_bounded"
        assert "failed on trial" in str(excinfo.value)

    def test_original_exception_is_the_cause(self):
        with pytest.raises(ParallelBuildError) as excinfo:
            parallel_build("delay_bounded", _trial_network, 2)
        assert isinstance(excinfo.value.__cause__, TypeError)

    def test_pickle_roundtrip(self):
        import pickle

        err = ParallelBuildError("ira", 7, "TypeError: boom")
        back = pickle.loads(pickle.dumps(err))
        assert back.builder == "ira"
        assert back.index == 7
        assert str(back) == str(err)


class TestParallelExperiments:
    def test_fig8_parallel_bitwise_identical(self):
        serial = run_fig8(n_trials=10, n_jobs=1)
        parallel = run_fig8(n_trials=10, n_jobs=2)
        assert serial.costs("ira") == parallel.costs("ira")
        assert serial.costs("aaml") == parallel.costs("aaml")
        assert [t.lc for t in serial.trials] == [t.lc for t in parallel.trials]


class TestProcessPool:
    def test_kill_ends_a_hung_task_promptly(self):
        before = len(multiprocessing.active_children())
        pool = ProcessPool(2)
        pool.submit(time.sleep, 60)
        time.sleep(0.2)  # let a worker pick the task up
        start = time.perf_counter()
        pool.kill()
        assert time.perf_counter() - start < 5.0
        assert len(multiprocessing.active_children()) == before
