"""Tests for the live shard-status sidecar (repro.parallel.status)."""

import json

import pytest

from repro.analysis.sweep import run_cell
from repro.parallel.sharding import SweepSpec, load_artifact, run_shard
from repro.parallel.status import (
    MAX_STATUS_ROWS,
    STATUS_KIND,
    ShardStatusWriter,
    find_status_files,
    load_status,
    shard_status_path,
)

SPEC = SweepSpec(
    protocols=("direct",),
    lambdas=(4.0, 8.0),
    seeds=(0, 1),
    rounds=2,
)


def _failing_cell(protocol, lam, seed, **kwargs):
    if seed == 1:
        raise RuntimeError("injected status-test fault")
    return run_cell(protocol, lam, seed, **kwargs)


class TestWriterUnit:
    def _writer(self, tmp_path, **kwargs):
        ticks = iter(range(1000))
        return ShardStatusWriter(
            tmp_path / "shard.jsonl",
            spec_fingerprint="0" * 16,
            shard=1,
            num_shards=2,
            cells_total=kwargs.pop("cells_total", 4),
            clock=lambda: float(next(ticks)),
            wall=lambda: 1754650000.0,
            **kwargs,
        )

    def test_lifecycle_rows(self, tmp_path):
        w = self._writer(tmp_path)
        w.start()
        w.cell_finished()
        w.cell_finished(error=True, attempts=2)
        w.finish()
        rows = [
            json.loads(line)
            for line in w.path.read_text().splitlines()
        ]
        assert [r["state"] for r in rows] == (
            ["running", "running", "running", "complete"]
        )
        last = rows[-1]
        assert last["kind"] == STATUS_KIND
        assert last["done"] == 2
        assert last["failed"] == 1
        assert last["retried"] == 1
        assert last["ewma_cell_seconds"] is not None

    def test_eta_null_before_first_cell_zero_when_done(self, tmp_path):
        w = self._writer(tmp_path, cells_total=1)
        w.start()
        assert load_status(w.path)["eta_seconds"] is None
        w.cell_finished()
        assert load_status(w.path)["eta_seconds"] == 0.0

    def test_resumed_counts_as_done(self, tmp_path):
        w = self._writer(tmp_path)
        w.start(resumed=3)
        row = load_status(w.path)
        assert row["resumed"] == 3
        assert row["done"] == 3

    def test_rows_bounded(self, tmp_path):
        w = self._writer(tmp_path, cells_total=MAX_STATUS_ROWS * 2)
        w.start()
        for _ in range(MAX_STATUS_ROWS * 2):
            w.cell_finished()
        lines = w.path.read_text().splitlines()
        assert len(lines) == MAX_STATUS_ROWS
        # The launch row survives trimming.
        assert json.loads(lines[0])["done"] == 0

    def test_load_status_tolerates_torn_tail(self, tmp_path):
        w = self._writer(tmp_path)
        w.start()
        w.cell_finished()
        with open(w.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "shard-status", "done"')
        assert load_status(w.path)["done"] == 1

    def test_load_status_empty_raises(self, tmp_path):
        empty = tmp_path / "x.status.jsonl"
        empty.write_text("not json at all\n")
        with pytest.raises(ValueError):
            load_status(empty)


class TestRunShardIntegration:
    def test_sidecar_matches_artifact(self, tmp_path):
        out = tmp_path / "shard.jsonl"
        run_shard(SPEC, 1, 1, out, serial=True)
        sidecar = shard_status_path(out)
        assert sidecar.exists()
        status = load_status(sidecar)
        art = load_artifact(out)
        assert status["state"] == "complete"
        assert status["done"] == len(art.cell_rows) == len(SPEC)
        assert status["failed"] == len(art.error_rows) == 0
        assert status["spec_fingerprint"] == SPEC.fingerprint

    def test_failed_cells_counted(self, tmp_path):
        out = tmp_path / "shard.jsonl"
        run_shard(
            SPEC, 1, 1, out, serial=True, cell_fn=_failing_cell, retries=0
        )
        status = load_status(shard_status_path(out))
        art = load_artifact(out)
        assert status["state"] == "complete"
        assert status["failed"] == len(art.error_rows) == 2
        assert status["done"] == len(SPEC)

    def test_fully_resumed_rerun_refreshes_sidecar(self, tmp_path):
        out = tmp_path / "shard.jsonl"
        run_shard(SPEC, 1, 1, out, serial=True)
        shard_status_path(out).unlink()
        before = out.read_bytes()
        run_shard(SPEC, 1, 1, out, serial=True)
        # Artifact untouched (the resume contract) …
        assert out.read_bytes() == before
        # … but the sidecar reflects the re-invocation as complete.
        status = load_status(shard_status_path(out))
        assert status["state"] == "complete"
        assert status["resumed"] == len(SPEC)
        assert status["done"] == len(SPEC)


class TestEtaUnderEwma:
    def test_eta_monotone_for_constant_cell_times(self, tmp_path):
        # One tick per cell: the EWMA settles immediately, so the ETA
        # must fall strictly with every finished cell — a status line
        # that says "9 minutes left" may never later say "12".
        ticks = iter(range(1000))
        w = ShardStatusWriter(
            tmp_path / "shard.jsonl",
            spec_fingerprint="0" * 16,
            shard=1,
            num_shards=1,
            cells_total=8,
            clock=lambda: float(next(ticks)),
            wall=lambda: 1754650000.0,
        )
        w.start()
        for _ in range(8):
            w.cell_finished()
        rows = [
            json.loads(line) for line in w.path.read_text().splitlines()
        ]
        etas = [r["eta_seconds"] for r in rows if r["eta_seconds"] is not None]
        assert etas == sorted(etas, reverse=True)
        assert etas[-1] == 0.0

    def test_eta_monotone_when_cells_speed_up(self, tmp_path):
        # Cell times falling (warm caches): the EWMA lags but the ETA
        # must still never rise.
        t = {"now": 0.0}
        w = ShardStatusWriter(
            tmp_path / "shard.jsonl",
            spec_fingerprint="0" * 16,
            shard=1,
            num_shards=1,
            cells_total=5,
            clock=lambda: t["now"],
            wall=lambda: 1754650000.0,
        )
        w.start()
        for dt in (8.0, 4.0, 2.0, 1.0, 0.5):
            t["now"] += dt
            w.cell_finished()
        rows = [
            json.loads(line) for line in w.path.read_text().splitlines()
        ]
        etas = [r["eta_seconds"] for r in rows if r["eta_seconds"] is not None]
        assert all(b <= a for a, b in zip(etas, etas[1:]))


class TestSchedulerStatus:
    def test_scheduler_counters_flow_into_rows(self, tmp_path):
        ticks = iter(range(1000))
        w = ShardStatusWriter(
            tmp_path / "sched.jsonl",
            spec_fingerprint="0" * 16,
            shard=0,
            num_shards=0,
            cells_total=2,
            clock=lambda: float(next(ticks)),
            wall=lambda: 1754650000.0,
        )
        w.start()
        w.steals = 3
        w.reclaimed = 1
        w.cell_finished()
        row = load_status(w.path)
        assert (row["shard"], row["num_shards"]) == (0, 0)
        assert row["steals"] == 3
        assert row["reclaimed"] == 1

    def test_run_scheduled_writes_live_sidecar(self, tmp_path):
        from repro.parallel.scheduler import run_scheduled

        out = tmp_path / "sched.jsonl"
        result = run_scheduled(SPEC, out, num_workers=2, poll_seconds=0.02)
        status = load_status(shard_status_path(out))
        assert status["state"] == "complete"
        assert status["done"] == len(SPEC)
        assert status["failed"] == 0
        assert status["steals"] == result.steals
        assert status["reclaimed"] == result.reclaims
        assert (status["shard"], status["num_shards"]) == (0, 0)


class TestFindStatusFiles:
    def test_resolution_modes(self, tmp_path):
        out = tmp_path / "sub" / "shard.jsonl"
        run_shard(SPEC, 1, 1, out, serial=True)
        sidecar = shard_status_path(out)
        # Directory scan, explicit sidecar, artifact path — all resolve
        # to the same file, deduplicated.
        found = find_status_files([tmp_path, sidecar, out])
        assert found == [sidecar]

    def test_missing_paths_yield_nothing(self, tmp_path):
        assert find_status_files([tmp_path / "nope.jsonl"]) == []
