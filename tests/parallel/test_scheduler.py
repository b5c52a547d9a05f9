"""Unit tests for the sweep driver's FIFO work queue.

These drive :class:`repro.parallel.scheduler.WorkQueue` directly — no
processes, no clock — so every lifecycle transition (grant, complete,
fail, worker loss, requeue, exhaustion) is pinned in isolation.  The
process driver's integration surface lives in
``test_scheduler_chaos.py``; the exactly-once guarantee under random
interleavings in ``test_scheduler_properties.py``.
"""

import pytest

from repro.parallel.scheduler import (
    EVENT_FIELDS,
    EVENT_KEYS,
    SWEEP_EVENT_KIND,
    WorkQueue,
    event_log_path,
)
from repro.parallel.sharding import (
    CELL_ERROR_KIND,
    SweepCell,
    SweepSpec,
    load_artifact,
    run_shard,
)
from repro.telemetry.jsonl import read_jsonl_tolerant


def make_cells(n: int) -> list[SweepCell]:
    """Synthetic grid cells with real (hash-derived) stable IDs."""
    return [
        SweepCell.build("proto", float(i), i, f"{i:016x}") for i in range(n)
    ]


def drain(queue: WorkQueue, worker="w0"):
    """Run every remaining cell to completion through one worker."""
    while True:
        cell = queue.acquire(worker)
        if cell is None:
            return
        queue.complete(worker, cell.cell_id, {"v": cell.seed}, 1, 0.0)


TRANSIENT = {"type": "OSError", "message": "flaky", "class": "transient"}


class TestConstruction:
    def test_validation(self):
        cells = make_cells(2)
        with pytest.raises(ValueError, match="retries"):
            WorkQueue(cells, retries=-1)
        with pytest.raises(ValueError, match="duplicate"):
            WorkQueue(cells + cells[:1])


class TestLeaseLifecycle:
    def test_acquire_complete_exactly_once(self):
        cells = make_cells(4)
        queue = WorkQueue(cells)
        drain(queue)
        assert queue.finished
        assert set(queue.rows) == {c.cell_id for c in cells}
        assert not queue.errors
        queue.check_invariants()

    def test_cells_granted_in_canonical_order(self):
        cells = make_cells(5)
        queue = WorkQueue(cells)
        granted = [queue.acquire(f"w{i}").cell_id for i in range(5)]
        assert granted == [c.cell_id for c in cells]

    def test_worker_cannot_hold_two_leases(self):
        queue = WorkQueue(make_cells(3))
        queue.acquire("w0")
        with pytest.raises(ValueError, match="already holds"):
            queue.acquire("w0")

    def test_acquire_exhausted_returns_none(self):
        queue = WorkQueue(make_cells(1))
        cell = queue.acquire("w0")
        assert queue.acquire("w1") is None  # only cell is held
        queue.complete("w0", cell.cell_id, {}, 1, 0.0)
        assert queue.acquire("w1") is None  # grid finished

    def test_only_the_holder_may_report(self):
        queue = WorkQueue(make_cells(2))
        cell = queue.acquire("w0")
        with pytest.raises(ValueError, match="does not hold"):
            queue.complete("w1", cell.cell_id, {}, 1, 0.0)
        with pytest.raises(ValueError, match="does not hold"):
            queue.fail("w1", cell.cell_id, TRANSIENT, 1, 0.0)
        queue.complete("w0", cell.cell_id, {}, 1, 0.0)
        # A second report for a finished cell has no holder either.
        with pytest.raises(ValueError, match="does not hold"):
            queue.complete("w0", cell.cell_id, {}, 1, 0.0)
        queue.check_invariants()


class TestFailures:
    def test_deterministic_failure_is_final_and_never_requeued(self):
        queue = WorkQueue(make_cells(1), retries=3)
        cell = queue.acquire("w0")
        record = queue.fail(
            "w0", cell.cell_id,
            {"type": "ValueError", "message": "bad", "class": "deterministic"},
            1, 0.0,
        )
        assert record["kind"] == CELL_ERROR_KIND
        assert queue.finished
        assert not any(e["event"] == "requeue" for e in queue.events)
        queue.check_invariants()

    def test_transient_failure_is_final_after_in_worker_retries(self):
        # The worker already spent the retry budget on the exception
        # (_guarded_cell); the queue records the one error row it sent.
        queue = WorkQueue(make_cells(1), retries=2)
        cell = queue.acquire("w0")
        record = queue.fail("w0", cell.cell_id, TRANSIENT, 3, 0.0)
        assert record["kind"] == CELL_ERROR_KIND
        assert record["attempts"] == 3
        assert queue.finished
        assert [e["event"] for e in queue.events] == ["lease", "error"]
        queue.check_invariants()

    def test_unknown_cell_rejected(self):
        queue = WorkQueue(make_cells(1))
        with pytest.raises(ValueError, match="unknown cell"):
            queue.complete("w0", "f" * 16, {}, 1, 0.0)
        with pytest.raises(ValueError, match="unknown cell"):
            queue.fail("w0", "f" * 16, {}, 1, 0.0)


class TestReclaim:
    def test_worker_lost_requeues_its_cell(self):
        queue = WorkQueue(make_cells(2), retries=1)
        cell = queue.acquire("w0")
        assert queue.worker_lost("w0") is None
        assert queue.reclaims == 1
        assert "w0" not in queue.held
        queue.check_invariants()
        # The cell goes to the back of the queue; another worker picks
        # it up after the cell that was already waiting.
        ids = []
        while (got := queue.acquire("w1")) is not None:
            ids.append(got.cell_id)
            queue.complete("w1", got.cell_id, {}, 1, 0.0)
        assert ids[-1] == cell.cell_id and queue.finished
        assert queue.grants[cell.cell_id] == 2

    def test_worker_lost_without_lease_is_recorded_only(self):
        queue = WorkQueue(make_cells(1))
        assert queue.worker_lost("w9") is None
        assert queue.reclaims == 0
        assert [e["event"] for e in queue.events] == ["worker-dead"]

    def test_reclaim_exhaustion_synthesises_error_row(self):
        # ``retries`` lost workers requeue the cell; the next loss
        # (grant retries + 1) ends it as one transient error row.
        for retries in (0, 1, 2):
            queue = WorkQueue(make_cells(1), retries=retries)
            for _ in range(retries):
                cell = queue.acquire("w0")
                assert queue.worker_lost("w0") is None
            cell = queue.acquire("w0")
            record = queue.worker_lost("w0")
            assert queue.finished
            assert queue.errors[cell.cell_id] is record
            assert record["error"]["type"] == "WorkerLost"
            assert record["error"]["class"] == "transient"
            assert record["attempts"] == retries + 1
            assert queue.reclaims == retries + 1
            queue.check_invariants()


SPEC = SweepSpec(
    protocols=("direct",),
    lambdas=(4.0, 8.0),
    seeds=(0, 1),
    rounds=2,
    telemetry=True,
)


def run_fleet(spec, out, **kwargs):
    """The whole grid on a two-worker fleet."""
    return run_shard(spec, 1, 1, out, max_workers=2, **kwargs)


class TestRunScheduled:
    """Whole-grid runs whose cells the work queue schedules onto a
    two-worker fleet."""

    def test_artifact_is_mergeable_and_manifest_carries_provenance(
        self, tmp_path
    ):
        out = tmp_path / "fleet.jsonl"
        result = run_fleet(SPEC, out)
        assert result.ok and len(result.executed) == len(SPEC)
        art = load_artifact(out)
        assert (art.manifest["shard"], art.manifest["num_shards"]) == (1, 1)
        assert art.manifest["spec_fingerprint"] == SPEC.fingerprint
        ids = [r["cell_id"] for r in art.cell_rows]
        assert len(ids) == len(set(ids)) == len(SPEC)

    def test_full_resume_leaves_bytes_untouched(self, tmp_path):
        out = tmp_path / "fleet.jsonl"
        run_fleet(SPEC, out)
        before = out.read_bytes()
        again = run_fleet(SPEC, out)
        assert out.read_bytes() == before
        assert not again.executed
        assert len(again.skipped) == len(SPEC)

    def test_events_sidecar_is_schema_clean(self, tmp_path):
        out = tmp_path / "fleet.jsonl"
        run_fleet(SPEC, out)
        events = read_jsonl_tolerant(event_log_path(out))
        assert events, "no fleet events recorded"
        assert all(e["kind"] == SWEEP_EVENT_KIND for e in events)
        assert [e["seq"] for e in events] == list(
            range(1, len(events) + 1)
        )
        # Every record carries exactly its schema's keys, and ``t``
        # never runs backwards.
        for e in events:
            assert set(e) == set(EVENT_KEYS) | set(EVENT_FIELDS[e["event"]])
        assert [e["t"] for e in events] == sorted(e["t"] for e in events)
        assert events[0]["event"] == "start"
        assert events[-1] == {**events[-1], "event": "finish", "state": "complete"}
        completes = [e for e in events if e["event"] == "complete"]
        assert len(completes) == len(SPEC)
        # Two workers, one grant per cell, nothing lost.
        leases = [e for e in events if e["event"] == "lease"]
        assert {e["worker"] for e in leases} == {"w0", "w1"}
        assert [e["grant"] for e in leases] == [1] * len(SPEC)

    def test_compressed_artifact_round_trips(self, tmp_path):
        out = tmp_path / "fleet.jsonl.gz"
        result = run_fleet(SPEC, out, compression="gz")
        assert result.ok
        art = load_artifact(out)
        assert len(art.cell_rows) == len(SPEC)
        # Resume keeps the sniffed codec without restating it.
        before = out.read_bytes()
        run_fleet(SPEC, out)
        assert out.read_bytes() == before

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="retries"):
            run_fleet(SPEC, tmp_path / "x.jsonl", retries=-1)


class TestTornTailResume:
    """Satellite: the resume path reads artifacts through the shared
    torn-tail-tolerant reader — a crash mid-append costs exactly the
    torn record, plain or compressed."""

    @pytest.mark.parametrize("codec,suffix", [("none", ""), ("gz", ".gz")])
    def test_truncated_final_row_recomputed_only(
        self, tmp_path, codec, suffix
    ):
        out = tmp_path / f"fleet.jsonl{suffix}"
        run_fleet(SPEC, out, compression=codec)
        raw = out.read_bytes()
        # Tear the artifact mid final record (crash mid-append).
        out.write_bytes(raw[: len(raw) - 7])
        result = run_fleet(SPEC, out)
        # The torn tail cost at most the trailer + final record; every
        # fully-written row resumed.
        assert len(result.skipped) >= len(SPEC) - 1
        art = load_artifact(out)
        ids = [r["cell_id"] for r in art.cell_rows]
        assert len(ids) == len(set(ids)) == len(SPEC)
        assert art.records[-1]["kind"] == "shard-telemetry"

    def test_interior_corruption_is_not_silently_healed(self, tmp_path):
        out = tmp_path / "fleet.jsonl"
        run_fleet(SPEC, out)
        lines = out.read_text().splitlines()
        lines[2] = "CORRUPTED"
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="malformed JSONL"):
            load_artifact(out)
