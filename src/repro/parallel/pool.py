"""Process-pool execution of embarrassingly parallel experiment sweeps.

A sweep is a grid of independent simulation cells; this module fans
them out over a :class:`concurrent.futures.ProcessPoolExecutor` (the
natural Python analogue of the MPI fan-out pattern in the HPC guides:
no shared state, explicit task messages, deterministic per-task RNG).
It serves in-memory sweeps (:func:`repro.analysis.sweep.sweep_from_spec`)
and ad-hoc grids; runs that write artifacts go through the sweep
driver in :mod:`repro.parallel.scheduler` instead.

Design notes
------------
* Tasks must be *picklable*: we ship (callable, args) pairs, so sweep
  callables are defined at module top level.
* Worker count defaults to ``os.cpu_count() - 1`` (leave one core for
  the parent), and the pool degrades gracefully to serial execution
  when only one task or one core is available — which also keeps unit
  tests fast and debuggable.
* Results come back in *submission order*, not completion order, so a
  sweep's output table is deterministic.
* Per-worker accumulators (telemetry registries, ``PacketStats``,
  ``LatencyReservoir``) come home as picklable values and fold with an
  *order-insensitive* merge; :func:`fold_results` runs that reduction
  in submission order so pool and serial execution agree exactly.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence

__all__ = ["run_tasks", "fold_results", "default_workers"]


def default_workers(
    max_workers: int | None = None, n_tasks: int | None = None
) -> int:
    """Resolve a worker count: explicit value, else cpu_count - 1.

    ``n_tasks`` caps the answer at the number of tasks to run, so a
    2-cell shard never spawns a ``cpu_count - 1`` pool only to leave
    most workers idle at fork cost.
    """
    if max_workers is not None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        workers = max_workers
    else:
        workers = max(1, (os.cpu_count() or 2) - 1)
    if n_tasks is not None:
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        workers = min(workers, n_tasks)
    return workers


def _call(task: tuple[Callable[..., Any], tuple]) -> Any:
    fn, args = task
    return fn(*args)


def run_tasks(
    fn: Callable[..., Any],
    argtuples: Sequence[tuple] | Iterable[tuple],
    max_workers: int | None = None,
    serial: bool = False,
) -> list[Any]:
    """Execute ``fn(*args)`` for every tuple in ``argtuples``.

    Parameters
    ----------
    fn:
        Top-level (picklable) callable.
    argtuples:
        One tuple of positional arguments per task.
    max_workers:
        Pool size; ``None`` uses cpu_count - 1.
    serial:
        Force in-process execution (useful under debuggers, in tests,
        and on single-core machines).

    Returns
    -------
    list
        Results in the order of ``argtuples``.  The first exception a
        task raises propagates to the caller.
    """
    tasks = [(fn, tuple(args)) for args in argtuples]
    workers = default_workers(max_workers, n_tasks=len(tasks) or None)
    if serial or workers == 1 or len(tasks) <= 1:
        return [_call(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_call, tasks))


def fold_results(
    results: Iterable[Any], merge: Callable[[Any, Any], Any]
) -> Any:
    """Reduce per-task results with a two-argument ``merge``.

    ``run_tasks`` already returns results in submission order, so this
    left fold is deterministic for any pool size; when ``merge`` is
    additionally commutative (the telemetry / ``PacketStats`` merge
    contract), the fold equals the serial sweep's accumulation exactly.
    Returns ``None`` for an empty iterable.
    """
    acc = None
    first = True
    for r in results:
        if first:
            acc, first = r, False
        else:
            acc = merge(acc, r)
    return acc
