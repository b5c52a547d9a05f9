"""Property tests: exactly-once under arbitrary work-queue interleavings.

Hypothesis drives the pure :class:`WorkQueue` state machine through
random interleavings of every operation it exposes — grants,
completions, transient and deterministic failures, and worker deaths —
asserting the exactly-once partition invariant after every single step,
then driving the grid to completion and checking that every cell
finished exactly once.

This is the paper-level guarantee the chaos suite samples and this
suite exhausts: no interleaving of grants, failures and lost workers
can lose a cell or finish one twice, and a cell is granted again only
after the worker holding it was lost.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.scheduler import SWEEP_EVENT_KIND, WorkQueue, fold_events
from repro.parallel.sharding import SweepCell

WORKERS = ("w0", "w1", "w2", "w3")

#: The operation alphabet.
OPS = (
    "acquire",
    "complete",
    "fail-transient",
    "fail-deterministic",
    "worker-lost",
)


def make_cells(n: int) -> list[SweepCell]:
    return [
        SweepCell.build("proto", float(i), i, f"{i:016x}") for i in range(n)
    ]


def finish_serially(queue: WorkQueue) -> None:
    """Drain whatever is left through one well-behaved worker."""
    # Workers still holding cells from the chaos phase report them...
    for worker, cell_id in list(queue.held.items()):
        queue.complete(worker, cell_id, {"v": 1}, 1, 0.0)
        queue.check_invariants()
    # ...then the queue drains in order.
    while (cell := queue.acquire("closer")) is not None:
        queue.complete("closer", cell.cell_id, {"v": 1}, 1, 0.0)
        queue.check_invariants()


def assert_regrant_only_after_loss(events: list[dict]) -> None:
    """Every grant after a cell's first follows a ``worker-dead`` event
    for the worker that held the cell, and grant counts rise by one."""
    holder: dict[str, str] = {}
    grants: dict[str, int] = {}
    done: set[str] = set()
    for e in events:
        if e["event"] == "lease":
            cid = e["cell_id"]
            assert cid not in holder, f"cell {cid} granted while held"
            assert cid not in done, f"finished cell {cid} granted again"
            assert e["grant"] == grants.get(cid, 0) + 1
            grants[cid] = e["grant"]
            holder[cid] = e["worker"]
        elif e["event"] in ("complete", "error"):
            cid = e["cell_id"]
            done.add(cid)
            # A terminal event either comes from the holder, or is the
            # WorkerLost row minted when the holder died.
            if cid in holder:
                assert holder.pop(cid) == e["worker"]
        elif e["event"] == "worker-dead" and e["cell_id"] is not None:
            assert holder.pop(e["cell_id"]) == e["worker"]


def drive_randomly(queue: WorkQueue, data) -> None:
    """Run a hypothesis-drawn interleaving of every operation against
    ``queue``, checking the invariants after each."""
    steps = data.draw(
        st.lists(st.sampled_from(OPS), max_size=4 * len(queue.cells)),
        label="interleaving",
    )
    for op in steps:
        worker = data.draw(st.sampled_from(WORKERS), label=op)
        held = queue.held.get(worker)
        if op == "acquire" and held is None:
            queue.acquire(worker)
        elif op == "complete" and held is not None:
            attempts = data.draw(st.integers(1, 2), label="attempts")
            queue.complete(worker, held, {"v": 1}, attempts, 0.0)
        elif op == "fail-transient" and held is not None:
            queue.fail(
                worker, held,
                {"type": "OSError", "message": "x", "class": "transient"},
                1 + queue.retries, 0.0,
            )
        elif op == "fail-deterministic" and held is not None:
            queue.fail(
                worker, held,
                {
                    "type": "ValueError",
                    "message": "x",
                    "class": "deterministic",
                },
                1, 0.0,
            )
        elif op == "worker-lost":
            queue.worker_lost(worker)
        queue.check_invariants()


class TestExactlyOnce:
    @given(
        n_cells=st.integers(min_value=1, max_value=8),
        retries=st.integers(min_value=0, max_value=2),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_interleaving_yields_exactly_once_rows(
        self, n_cells, retries, data
    ):
        cells = make_cells(n_cells)
        queue = WorkQueue(cells, retries=retries)
        drive_randomly(queue, data)
        finish_serially(queue)

        finished = set(queue.rows) | set(queue.errors)
        assert finished == {c.cell_id for c in cells}
        assert not (set(queue.rows) & set(queue.errors))
        assert not queue.held and not queue.queue
        # Retry budget held for every cell that was ever granted.
        assert all(1 <= g <= retries + 1 for g in queue.grants.values())
        # Grants beyond the first happen only after the holder died.
        assert_regrant_only_after_loss(queue.events)
        terminal = [e for e in queue.events if e["event"] in ("complete", "error")]
        assert sorted(e["cell_id"] for e in terminal) == sorted(finished)

    @given(
        n_cells=st.integers(min_value=1, max_value=8),
        retries=st.integers(min_value=0, max_value=2),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_fold_of_any_interleaving_equals_machine_counters(
        self, n_cells, retries, data
    ):
        # `repro status` is a fold over the log; whatever the queue
        # went through, the fold of its events between a start and a
        # finish record must say what the queue itself counted.
        queue = WorkQueue(make_cells(n_cells), retries=retries)
        drive_randomly(queue, data)
        finish_serially(queue)
        start = {
            "event": "start", "schema": 1, "spec_fingerprint": "0" * 16,
            "shard": 1, "num_shards": 1, "cells_total": n_cells,
            "resumed": 0, "started_unix": 0.0,
        }
        log = [
            {**record, "kind": SWEEP_EVENT_KIND, "seq": i, "t": float(i)}
            for i, record in enumerate(
                [start, *queue.events, {"event": "finish", "state": "complete"}]
            )
        ]
        status = fold_events(log)
        finished = [*queue.rows.values(), *queue.errors.values()]
        assert status["done"] == len(queue.rows) + len(queue.errors)
        assert status["failed"] == len(queue.errors)
        assert status["retried"] == sum(r["attempts"] > 1 for r in finished)
        assert status["reclaimed"] == queue.reclaims
        assert status["state"] == "complete"
        assert status["eta_seconds"] == 0.0

    @given(
        n_cells=st.integers(min_value=1, max_value=10),
        n_workers=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_pure_drain_completes_every_cell_without_duplicates(
        self, n_cells, n_workers
    ):
        # The no-chaos baseline: a fleet of greedy workers draining the
        # queue finishes the grid exactly once, in canonical order.
        cells = make_cells(n_cells)
        queue = WorkQueue(cells)
        order = []
        while not queue.finished:
            progressed = False
            for worker in WORKERS[:n_workers]:
                cell = queue.acquire(worker)
                if cell is None:
                    continue
                progressed = True
                order.append(cell.cell_id)
                queue.complete(worker, cell.cell_id, {"v": 1}, 1, 0.0)
                queue.check_invariants()
            assert progressed, "queue wedged with work outstanding"
        assert order == [c.cell_id for c in cells]
        assert len(queue.rows) == n_cells
        assert not queue.errors and queue.reclaims == 0
