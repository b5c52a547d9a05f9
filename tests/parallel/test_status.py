"""Tests for ``repro status``'s view: the fold over a sweep event log
(:func:`repro.parallel.scheduler.fold_events`) and the log the driver
writes."""

import pytest

from repro.analysis.sweep import run_cell
from repro.parallel.scheduler import (
    SWEEP_EVENT_KIND,
    event_log_path,
    find_event_logs,
    fold_events,
)
from repro.parallel.sharding import SweepSpec, load_artifact, run_shard
from repro.telemetry.jsonl import read_jsonl_tolerant
from tests.conftest import assert_fold_matches

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


def _event(event, t, **payload):
    return {"kind": SWEEP_EVENT_KIND, "event": event, "t": float(t), **payload}


def _start(cells_total=4, resumed=0, shard=1, num_shards=2):
    return _event(
        "start", 0.0, schema=1, spec_fingerprint="0" * 16, shard=shard,
        num_shards=num_shards, cells_total=cells_total, resumed=resumed,
        started_unix=1754650000.0,
    )


def _cell(t, *, error=False, attempts=1, compute_s=0.5):
    return _event(
        "error" if error else "complete", t, cell_id="0" * 16, worker="w0",
        attempts=attempts, compute_s=compute_s,
    )


def _prefixes(records):
    """The fold after each record: what ``repro status`` would have
    shown while the log was being written."""
    return [fold_events(records[: i + 1]) for i in range(len(records))]


class TestWriterUnit:
    """The fold's units, fed ``t`` values directly."""

    def test_lifecycle_rows(self):
        log = [
            _start(),
            _cell(1.0),
            _cell(2.0, error=True, attempts=2),
            _event("finish", 2.5, state="complete"),
        ]
        states = [row["state"] for row in _prefixes(log)]
        assert states == ["running", "running", "running", "complete"]
        last = fold_events(log)
        assert last["done"] == 2
        assert last["failed"] == 1
        assert last["retried"] == 1
        assert last["ewma_cell_seconds"] is not None
        assert last["compute_s"] == 1.0
        assert last["elapsed_seconds"] == 2.5
        assert last["updated_unix"] == 1754650002.5

    def test_eta_null_before_first_cell_zero_when_done(self):
        log = [_start(cells_total=1), _cell(1.0)]
        assert fold_events(log[:1])["eta_seconds"] is None
        assert fold_events(log)["eta_seconds"] == 0.0

    def test_ewma_and_eta_math(self):
        # Gaps 2, 4: the EWMA starts at the first gap, then moves 0.3
        # of the way to each new one; the ETA is EWMA x remaining.
        row = fold_events([_start(cells_total=5), _cell(2.0), _cell(6.0)])
        assert row["ewma_cell_seconds"] == pytest.approx(2.0 + 0.3 * 2.0)
        assert row["eta_seconds"] == pytest.approx(2.6 * 3)

    def test_resumed_counts_as_done(self):
        row = fold_events([_start(resumed=3)])
        assert row["resumed"] == 3
        assert row["done"] == 3

    def test_load_status_tolerates_torn_tail(self, tmp_path):
        log = tmp_path / "shard.jsonl.events.jsonl"
        run_shard(SPEC, 1, 1, tmp_path / "shard.jsonl", serial=True)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "sweep-event", "event"')
        assert fold_events(read_jsonl_tolerant(log))["done"] == len(SPEC)

    def test_load_status_empty_raises(self, tmp_path):
        empty = tmp_path / "x.jsonl.events.jsonl"
        empty.write_text("not json at all\n")
        with pytest.raises(ValueError, match="start"):
            fold_events(read_jsonl_tolerant(empty))
        # Events without their start record are no log either.
        with pytest.raises(ValueError, match="start"):
            fold_events([_cell(1.0)])

    def test_drain_then_stopped(self):
        log = [
            _start(),
            _cell(1.0),
            _event("drain", 1.2),
            _event("finish", 1.5, state="stopped"),
        ]
        draining, stopped = _prefixes(log)[2:]
        assert draining["state"] == "draining"
        assert stopped["state"] == "stopped"
        assert stopped["done"] == 1  # progress survives into the end
        assert stopped["eta_seconds"] is None  # a stopped run has no ETA


class TestRunShardIntegration:
    def test_sidecar_matches_artifact(self, tmp_path):
        out = tmp_path / "shard.jsonl"
        result = run_shard(SPEC, 1, 1, out, serial=True)
        assert result.events_path == event_log_path(out)
        # The log is the only file written beside the artifact.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "shard.jsonl", "shard.jsonl.events.jsonl",
        ]
        status = assert_fold_matches(result)
        art = load_artifact(out)
        assert status["state"] == "complete"
        assert status["done"] == len(art.cell_rows) == len(SPEC)
        assert status["failed"] == len(art.error_rows) == 0
        assert status["spec_fingerprint"] == SPEC.fingerprint
        assert 0.0 < status["compute_s"] <= status["elapsed_seconds"]
        events = read_jsonl_tolerant(result.events_path)
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        assert [e["event"] for e in events] == (
            ["start"] + ["lease", "complete"] * len(SPEC) + ["finish"]
        )

    def test_failed_cells_counted(self, tmp_path):
        out = tmp_path / "shard.jsonl"
        result = run_shard(
            SPEC, 1, 1, out, serial=True, cell_fn=_failing_cell, retries=0
        )
        status = assert_fold_matches(result)
        art = load_artifact(out)
        assert status["state"] == "complete"
        assert status["failed"] == len(art.error_rows) == 2
        assert status["done"] == len(SPEC)

    def test_fully_resumed_rerun_refreshes_sidecar(self, tmp_path):
        out = tmp_path / "shard.jsonl"
        run_shard(SPEC, 1, 1, out, serial=True)
        event_log_path(out).unlink()
        before = out.read_bytes()
        result = run_shard(SPEC, 1, 1, out, serial=True)
        # Artifact untouched (the resume contract) …
        assert out.read_bytes() == before
        # … but the log records the re-invocation, start to finish.
        events = read_jsonl_tolerant(result.events_path)
        assert [e["event"] for e in events] == ["start", "finish"]
        status = assert_fold_matches(result)
        assert status["state"] == "complete"
        assert status["resumed"] == status["done"] == len(SPEC)


class TestEtaUnderEwma:
    def test_eta_monotone_for_constant_cell_times(self):
        # One second per cell: the EWMA settles immediately, so the ETA
        # must fall strictly with every finished cell — a status line
        # that says "9 minutes left" may never later say "12".
        log = [_start(cells_total=8)] + [_cell(i) for i in range(1, 9)]
        etas = [
            row["eta_seconds"] for row in _prefixes(log)
            if row["eta_seconds"] is not None
        ]
        assert etas == sorted(etas, reverse=True)
        assert etas[-1] == 0.0

    def test_eta_monotone_when_cells_speed_up(self):
        # Cell times falling (warm caches): the EWMA lags but the ETA
        # must still never rise.
        log, t = [_start(cells_total=5)], 0.0
        for dt in (8.0, 4.0, 2.0, 1.0, 0.5):
            t += dt
            log.append(_cell(t))
        etas = [
            row["eta_seconds"] for row in _prefixes(log)
            if row["eta_seconds"] is not None
        ]
        assert all(b <= a for a, b in zip(etas, etas[1:]))


class TestSchedulerStatus:
    def test_scheduler_counters_flow_into_rows(self):
        cell = {"cell_id": "0" * 16, "worker": "w1", "grant": 1}
        log = [
            _start(cells_total=2, shard=1, num_shards=1),
            _event("lease", 0.1, **cell),
            _event("worker-dead", 0.2, worker="w1", cell_id="0" * 16,
                   reason="worker-died"),
            _event("reclaim", 0.2, reason="worker-died", **cell),
            _event("requeue", 0.2, cell_id="0" * 16, grant=1,
                   reason="worker-died"),
            _cell(1.0),
        ]
        row = fold_events(log)
        assert (row["shard"], row["num_shards"]) == (1, 1)
        assert row["reclaimed"] == 1
        assert row["done"] == 1

    def test_fleet_shard_writes_only_the_log(self, tmp_path):
        out = tmp_path / "shard.jsonl"
        result = run_shard(SPEC, 1, 2, out, max_workers=2)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "shard.jsonl", "shard.jsonl.events.jsonl",
        ]
        assert assert_fold_matches(result)["state"] == "complete"


class TestFindStatusFiles:
    def test_resolution_modes(self, tmp_path):
        out = tmp_path / "sub" / "shard.jsonl"
        run_shard(SPEC, 1, 1, out, serial=True)
        log = event_log_path(out)
        # Directory scan, explicit log, artifact path — all resolve to
        # the same file, deduplicated.
        assert find_event_logs([tmp_path, log, out]) == [log]

    def test_missing_paths_yield_nothing(self, tmp_path):
        assert find_event_logs([tmp_path / "nope.jsonl"]) == []
