"""Property tests: exactly-once under arbitrary scheduler interleavings.

Hypothesis drives the pure :class:`SweepScheduler` state machine
through random interleavings of every operation it exposes — leases,
steals, completions, transient and deterministic failures, worker
deaths, lease expiry, heartbeats, *and* adversarial stale reports from
workers whose leases were reclaimed — asserting the exactly-once
partition invariant after every single step, then driving the grid to
completion and checking that every cell finished exactly once.

This is the paper-level guarantee the chaos suite samples and this
suite exhausts: no interleaving of steals, reclaims, and duplicate
leases can lose a cell or finish one twice.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.scheduler import (
    SWEEP_EVENT_KIND,
    SweepScheduler,
    fold_events,
)
from repro.parallel.sharding import SweepCell

WORKERS = ("w0", "w1", "w2", "w3")

#: The operation alphabet.  Stale variants deliberately report from a
#: worker that may not hold the lease (or for a finished cell).
OPS = (
    "acquire",
    "complete",
    "fail-transient",
    "fail-deterministic",
    "stale-complete",
    "stale-fail",
    "worker-lost",
    "expire-all",
    "heartbeat",
)


def make_cells(n: int) -> list[SweepCell]:
    return [
        SweepCell.build("proto", float(i), i, f"{i:016x}") for i in range(n)
    ]


def finish_serially(sched: SweepScheduler, clock: float) -> None:
    """Drain whatever is left through one well-behaved worker."""
    # Release any leases still held by the chaos phase via expiry...
    while not sched.finished:
        clock += sched.lease_seconds + 1.0
        sched.reclaim_expired(clock)
        sched.check_invariants()
        while (cell := sched.acquire("closer", 0, clock)) is not None:
            sched.complete("closer", cell.cell_id, {"v": 1}, 1, clock, 0.0)
            sched.check_invariants()


def drive_randomly(sched: SweepScheduler, cells, data) -> float:
    """Run a hypothesis-drawn interleaving of every operation against
    ``sched``, checking the invariants after each; returns the clock."""
    clock = 0.0
    steps = data.draw(
        st.lists(st.sampled_from(OPS), max_size=4 * len(cells)),
        label="interleaving",
    )
    for op in steps:
        clock += 1.0
        worker = data.draw(st.sampled_from(WORKERS), label=op)
        held = sched.lease_of(worker)
        if op == "acquire" and held is None:
            sched.acquire(worker, data.draw(
                st.integers(0, 3), label="index"
            ), clock)
        elif op == "complete" and held is not None:
            attempts = data.draw(st.integers(1, 2), label="attempts")
            sched.complete(worker, held.cell_id, {"v": 1}, attempts, clock, 0.0)
        elif op == "fail-transient" and held is not None:
            sched.fail(
                worker, held.cell_id,
                {"type": "OSError", "message": "x", "class": "transient"},
                1, clock, 0.0,
            )
        elif op == "fail-deterministic" and held is not None:
            sched.fail(
                worker, held.cell_id,
                {
                    "type": "ValueError",
                    "message": "x",
                    "class": "deterministic",
                },
                1, clock, 0.0,
            )
        elif op == "stale-complete":
            # A late success for an arbitrary cell: accepted iff the
            # cell is unfinished, counted duplicate otherwise —
            # never a second row.
            cell = data.draw(st.sampled_from(cells), label="stale cell")
            sched.complete(worker, cell.cell_id, {"v": 1}, 1, clock, 0.0)
        elif op == "stale-fail":
            cell = data.draw(st.sampled_from(cells), label="stale cell")
            sched.fail(
                worker, cell.cell_id,
                {"type": "OSError", "message": "x", "class": "transient"},
                1, clock, 0.0,
            )
        elif op == "worker-lost":
            sched.worker_lost(worker, clock)
        elif op == "expire-all":
            clock += sched.lease_seconds + 1.0
            sched.reclaim_expired(clock)
        elif op == "heartbeat":
            sched.heartbeat(worker, clock)
        sched.check_invariants()
    return clock


class TestExactlyOnce:
    @given(
        n_cells=st.integers(min_value=1, max_value=8),
        num_queues=st.integers(min_value=1, max_value=4),
        max_attempts=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_interleaving_yields_exactly_once_rows(
        self, n_cells, num_queues, max_attempts, data
    ):
        cells = make_cells(n_cells)
        sched = SweepScheduler(
            cells,
            num_queues,
            lease_seconds=10.0,
            max_lease_attempts=max_attempts,
        )
        clock = drive_randomly(sched, cells, data)
        finish_serially(sched, clock)

        finished = set(sched.rows) | set(sched.errors)
        assert finished == {c.cell_id for c in cells}
        assert not (set(sched.rows) & set(sched.errors))
        rows, errors, missing = sched.partial_sweep()
        assert not missing
        assert len(rows) + len(errors) == n_cells
        # Attempt budget held for every cell that ever leased.
        assert all(
            1 <= a <= max_attempts for a in sched.attempts.values()
        )
        # The event log is a gapless, seq-ordered history.
        assert [e["seq"] for e in sched.events] == list(
            range(1, len(sched.events) + 1)
        )

    @given(
        n_cells=st.integers(min_value=1, max_value=8),
        num_queues=st.integers(min_value=1, max_value=4),
        max_attempts=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_fold_of_any_interleaving_equals_machine_counters(
        self, n_cells, num_queues, max_attempts, data
    ):
        # `repro status` is a fold over the log; whatever the machine
        # went through, the fold of its events between a start and a
        # finish record must say what the machine itself counted.
        cells = make_cells(n_cells)
        sched = SweepScheduler(
            cells,
            num_queues,
            lease_seconds=10.0,
            max_lease_attempts=max_attempts,
        )
        finish_serially(sched, drive_randomly(sched, cells, data))
        start = {
            "event": "start", "schema": 1, "spec_fingerprint": "0" * 16,
            "shard": 0, "num_shards": 0, "cells_total": n_cells,
            "resumed": 0, "started_unix": 0.0,
        }
        log = [
            {**record, "kind": SWEEP_EVENT_KIND, "seq": i, "t": float(i)}
            for i, record in enumerate(
                [start, *sched.events, {"event": "finish", "state": "complete"}]
            )
        ]
        status = fold_events(log)
        finished = [*sched.rows.values(), *sched.errors.values()]
        assert status["done"] == len(sched.rows) + len(sched.errors)
        assert status["failed"] == len(sched.errors)
        assert status["retried"] == sum(r["attempts"] > 1 for r in finished)
        assert status["steals"] == sched.steals
        assert status["reclaimed"] == sched.reclaims
        assert status["state"] == "complete"
        assert status["eta_seconds"] == 0.0

    @given(
        n_cells=st.integers(min_value=1, max_value=10),
        num_queues=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_pure_drain_completes_every_cell_without_duplicates(
        self, n_cells, num_queues
    ):
        # The no-chaos baseline: a fleet of greedy workers draining the
        # queues (with steals) finishes the grid exactly once.
        sched = SweepScheduler(make_cells(n_cells), num_queues)
        clock = 0.0
        while not sched.finished:
            clock += 1.0
            progressed = False
            for i, worker in enumerate(WORKERS):
                if sched.lease_of(worker) is not None:
                    continue
                cell = sched.acquire(worker, i, clock)
                if cell is None:
                    continue
                progressed = True
                sched.complete(worker, cell.cell_id, {"v": 1}, 1, clock, 0.0)
                sched.check_invariants()
            assert progressed, "scheduler wedged with work outstanding"
        assert len(sched.rows) == n_cells
        assert sched.duplicates == 0
        assert not sched.errors
