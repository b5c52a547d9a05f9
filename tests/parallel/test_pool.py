"""Tests for the process-pool sweep executor."""

import os

import pytest

from repro.parallel.pool import default_workers, fold_results, run_tasks


def square(x):
    return x * x


def add(a, b):
    return a + b


def boom(x):
    raise RuntimeError(f"boom {x}")


class TestRunTasks:
    def test_serial_matches_expected(self):
        assert run_tasks(square, [(i,) for i in range(6)], serial=True) == [
            0, 1, 4, 9, 16, 25,
        ]

    def test_parallel_matches_serial(self):
        args = [(i,) for i in range(12)]
        serial = run_tasks(square, args, serial=True)
        parallel = run_tasks(square, args, max_workers=2)
        assert serial == parallel

    def test_results_in_submission_order(self):
        args = [(i,) for i in range(20)]
        assert run_tasks(square, args, max_workers=3) == [i * i for i in range(20)]

    def test_multi_arg_tasks(self):
        assert run_tasks(add, [(1, 2), (3, 4)], serial=True) == [3, 7]

    def test_empty_input(self):
        assert run_tasks(square, []) == []

    def test_single_task_runs_inline(self):
        assert run_tasks(square, [(5,)]) == [25]

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_tasks(boom, [(1,)], serial=True)

    def test_invalid_max_workers_raises(self):
        with pytest.raises(ValueError):
            run_tasks(square, [(1,), (2,)], max_workers=0)
        with pytest.raises(ValueError):
            run_tasks(square, [], max_workers=0)


class TestFoldResults:
    def test_left_fold_in_order(self):
        order = []

        def merge(a, b):
            order.append((a, b))
            return a + b

        assert fold_results([1, 2, 3], merge) == 6
        assert order == [(1, 2), (3, 3)]

    def test_empty_returns_none(self):
        assert fold_results([], lambda a, b: a + b) is None

    def test_single_result_passes_through(self):
        sentinel = object()
        assert fold_results([sentinel], lambda a, b: a) is sentinel

    def test_folds_telemetry_snapshots(self):
        """The intended use: per-worker metric snapshots fold into one
        sweep-level view with the commutative snapshot merge."""
        from repro.telemetry import MetricRegistry, merge_snapshots

        snaps = []
        for v in (1, 2, 3):
            reg = MetricRegistry()
            reg.counter("x").add(v)
            snaps.append(reg.snapshot())
        merged = fold_results(snaps, merge_snapshots)
        assert merged["x"]["value"] == 6


class TestIterTasks:
    """What callers of the retired streaming ``iter_tasks`` relied on,
    now held by ``run_tasks``: lazy iterables of task tuples, submission
    order on a pool, and in-process serial runs."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("repro.parallel.pool.ProcessPoolExecutor", refuse)

    def test_streams_in_submission_order(self):
        tasks = ((i,) for i in range(8))
        results = run_tasks(square, tasks, max_workers=2)
        assert results == [i * i for i in range(8)]

    def test_serial_streaming(self, no_pool):
        assert run_tasks(square, iter([(3,), (4,)]), serial=True) == [9, 16]

    def test_empty(self, no_pool):
        assert run_tasks(square, iter([]), max_workers=2) == []
        assert run_tasks(square, iter([]), serial=True) == []


class TestDefaultWorkers:
    def test_explicit_value(self):
        assert default_workers(3) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            default_workers(0)

    def test_auto_leaves_headroom(self):
        w = default_workers()
        assert 1 <= w <= (os.cpu_count() or 2)

    def test_clamps_to_task_count(self):
        """Regression: a 2-cell shard must not spawn cpu_count-1
        workers — the pool is capped at one worker per task."""
        assert default_workers(None, n_tasks=2) <= 2
        assert default_workers(8, n_tasks=3) == 3
        assert default_workers(2, n_tasks=5) == 2

    def test_task_count_keeps_floor_of_one(self):
        assert default_workers(None, n_tasks=1) == 1
        with pytest.raises(ValueError):
            default_workers(None, n_tasks=0)
