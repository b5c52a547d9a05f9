"""Chaos and equivalence acceptance tests for the worker fleet.

Real process violence: a worker SIGKILLs itself mid-cell (the
coordinator sees the pipe die, requeues the cell, respawns the slot,
and the cell reruns exactly once), a cell raises a deterministic
error (an immediate ``cell-error`` row, never granted again), and —
the paper-level invariant — a chaos-ridden fleet run, healed and
resumed, merges bit-for-bit equal to the serial sweep and to a
static-sharded run on every deterministic metric.
"""

import os
import signal
import time
from pathlib import Path

from repro.analysis.sweep import run_cell, sweep_from_spec
from repro.parallel.scheduler import event_log_path
from repro.parallel.sharding import (
    CELL_ERROR_KIND,
    SweepSpec,
    load_artifact,
    merge_artifacts,
    run_shard,
)
from repro.telemetry import deterministic_view
from repro.telemetry.jsonl import read_jsonl_tolerant
from tests.conftest import assert_fold_matches

SPEC = SweepSpec(
    protocols=("direct",),
    lambdas=(4.0, 8.0),
    seeds=(0, 1, 2, 3),
    rounds=2,
    telemetry=True,
)

#: Directory holding the kill-once marker; set by tests that want a
#: worker death.  The marker makes the SIGKILL one-shot: the re-leased
#: attempt finds it and computes normally.
KILL_DIR_ENV = "REPRO_TEST_SCHED_KILL_DIR"
#: When set, the deterministically-failing cell is healed.
HEAL_ENV = "REPRO_TEST_SCHED_HEAL"

#: The victim cells (module-level so the chaos is deterministic).
KILL_SEED, FAIL_SEED = 0, 1
CHAOS_LAMBDA = 4.0


def _chaos_cell(protocol, lam, seed, **kwargs):
    kill_dir = os.environ.get(KILL_DIR_ENV)
    if kill_dir and seed == KILL_SEED and lam == CHAOS_LAMBDA:
        marker = Path(kill_dir) / "killed-once"
        if not marker.exists():
            marker.write_text("x")
            os.kill(os.getpid(), signal.SIGKILL)
    if (
        seed == FAIL_SEED
        and lam == CHAOS_LAMBDA
        and not os.environ.get(HEAL_ENV)
    ):
        raise ValueError("injected deterministic cell failure")
    return run_cell(protocol, lam, seed, **kwargs)


def _cell_ids_by_seed(spec):
    return {
        (c.lam, c.seed): c.cell_id for c in spec.cells()
    }


def run_fleet(spec, out, **kwargs):
    """The whole grid on a two-worker fleet, chaos cell installed."""
    return run_shard(
        spec, 1, 1, out, max_workers=2, cell_fn=_chaos_cell, **kwargs
    )


class TestSigkillMidCell:
    def test_lease_reclaimed_and_cell_reruns_exactly_once(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(KILL_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(HEAL_ENV, "1")
        out = tmp_path / "fleet.jsonl"
        result = run_fleet(SPEC, out)
        assert (tmp_path / "killed-once").exists(), "chaos never fired"
        assert result.worker_deaths == 1
        assert result.reclaims == 1
        assert result.ok
        assert not result.errors

        # Exactly-once in the merged artifact: every cell of the grid
        # appears once, including the one whose first worker died.
        art = load_artifact(out)
        ids = [r["cell_id"] for r in art.cell_rows]
        assert len(ids) == len(set(ids)) == len(SPEC)
        killed_id = _cell_ids_by_seed(SPEC)[(CHAOS_LAMBDA, KILL_SEED)]
        assert ids.count(killed_id) == 1

        # The event log tells the full story for the killed cell:
        # lease -> worker-dead -> reclaim -> requeue -> lease -> complete,
        # between the run's start and finish records.
        events = read_jsonl_tolerant(event_log_path(out))
        assert events[0]["event"] == "start"
        assert events[-1]["event"] == "finish"
        story = [
            e["event"] for e in events if e.get("cell_id") == killed_id
        ]
        assert story[0] == "lease"
        assert story.count("complete") == 1
        order = [
            story.index(v)
            for v in ("worker-dead", "reclaim", "requeue", "complete")
        ]
        assert order == sorted(order)
        # `repro status` folds the same log to the run's own counters.
        status = assert_fold_matches(result)
        assert (status["reclaimed"], status["state"]) == (1, "complete")

    def test_chaos_artifact_equals_clean_run(self, tmp_path, monkeypatch):
        """A worker death must not perturb the artifact contents: the
        rerun computes the same deterministic row."""
        monkeypatch.setenv(HEAL_ENV, "1")
        clean = tmp_path / "clean" / "fleet.jsonl"
        run_fleet(SPEC, clean)
        monkeypatch.setenv(KILL_DIR_ENV, str(tmp_path))
        chaotic = tmp_path / "chaos" / "fleet.jsonl"
        run_fleet(SPEC, chaotic)
        a = merge_artifacts([clean]).require_complete()
        b = merge_artifacts([chaotic]).require_complete()
        assert a.sweep.rows == b.sweep.rows
        assert deterministic_view(a.sweep.telemetry) == deterministic_view(
            b.sweep.telemetry
        )


class TestDeterministicFailure:
    def test_error_row_immediately_and_never_releases(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(HEAL_ENV, raising=False)
        monkeypatch.delenv(KILL_DIR_ENV, raising=False)
        out = tmp_path / "fleet.jsonl"
        result = run_fleet(SPEC, out)
        assert not result.ok
        assert len(result.errors) == 1
        record = result.errors[0]
        assert record["kind"] == CELL_ERROR_KIND
        assert record["error"]["type"] == "ValueError"
        assert record["error"]["class"] == "deterministic"
        assert record["attempts"] == 1

        failed_id = _cell_ids_by_seed(SPEC)[(CHAOS_LAMBDA, FAIL_SEED)]
        events = read_jsonl_tolerant(event_log_path(out))
        story = [
            e["event"] for e in events if e.get("cell_id") == failed_id
        ]
        # One grant, one terminal error — no requeue, no second lease.
        assert story == ["lease", "error"]
        # The other cells all completed.
        art = load_artifact(out)
        assert len(art.cell_rows) == len(SPEC) - 1

    def test_heal_resume_recomputes_only_the_errored_cell(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(HEAL_ENV, raising=False)
        monkeypatch.delenv(KILL_DIR_ENV, raising=False)
        out = tmp_path / "fleet.jsonl"
        run_fleet(SPEC, out)
        failed_id = _cell_ids_by_seed(SPEC)[(CHAOS_LAMBDA, FAIL_SEED)]

        monkeypatch.setenv(HEAL_ENV, "1")
        healed = run_fleet(SPEC, out)
        assert healed.executed == [failed_id]
        assert len(healed.skipped) == len(SPEC) - 1
        assert healed.ok
        merge_artifacts([out]).require_complete()


class TestScheduledEqualsShardedEqualsSerial:
    def test_three_way_equivalence_through_chaos(
        self, tmp_path, monkeypatch
    ):
        """The acceptance invariant: serial sweep, static 2-shard run,
        and a fleet run that survived one worker SIGKILL and one
        deterministic failure (healed + resumed) agree bit for bit on
        every deterministic metric."""
        serial = sweep_from_spec(SPEC, serial=True)

        shards = [
            run_shard(
                SPEC, k, 2, tmp_path / f"shard-{k}of2.jsonl", serial=True
            )
            for k in (1, 2)
        ]
        sharded = merge_artifacts(
            [r.path for r in shards]
        ).require_complete()

        # Chaos pass: one transient SIGKILL, one deterministic failure.
        monkeypatch.setenv(KILL_DIR_ENV, str(tmp_path))
        monkeypatch.delenv(HEAL_ENV, raising=False)
        out = tmp_path / "fleet.jsonl"
        chaos = run_fleet(SPEC, out)
        assert chaos.worker_deaths == 1, "transient kill never fired"
        assert len(chaos.errors) == 1, "deterministic failure never fired"
        # Only the transient cell was granted again; the deterministic
        # one errored on its single grant.
        assert chaos.reclaims == 1
        assert chaos.errors[0]["attempts"] == 1

        # Heal and resume: recompute exactly the errored cell.
        monkeypatch.setenv(HEAL_ENV, "1")
        healed = run_fleet(SPEC, out)
        assert len(healed.executed) == 1 and healed.ok

        fleet = merge_artifacts([out]).require_complete()
        assert fleet.sweep.rows == serial.rows
        assert sharded.sweep.rows == serial.rows
        assert deterministic_view(
            fleet.sweep.telemetry
        ) == deterministic_view(serial.telemetry)
        assert deterministic_view(
            sharded.sweep.telemetry
        ) == deterministic_view(serial.telemetry)


class TestOneRetryBudget:
    """``retries`` covers lost workers as well as transient exceptions:
    a SIGKILLed cell is granted again while the budget lasts, and
    becomes one transient error row once it is spent."""

    def test_killed_cell_reruns_within_the_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv(KILL_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(HEAL_ENV, "1")
        out = tmp_path / "fleet.jsonl"
        result = run_fleet(SPEC, out, retries=1)
        assert (tmp_path / "killed-once").exists(), "chaos never fired"
        assert (result.worker_deaths, result.reclaims) == (1, 1)
        assert result.ok
        serial = sweep_from_spec(SPEC, serial=True)
        merged = merge_artifacts([out]).require_complete()
        assert merged.sweep.rows == serial.rows
        assert deterministic_view(merged.sweep.telemetry) == deterministic_view(
            serial.telemetry
        )

    def test_zero_retries_turns_the_kill_into_one_error_row(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(KILL_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(HEAL_ENV, "1")
        out = tmp_path / "fleet.jsonl"
        result = run_fleet(SPEC, out, retries=0)
        assert (result.worker_deaths, result.reclaims) == (1, 1)
        assert len(result.errors) == 1
        err = result.errors[0]
        assert err["cell_id"] == _cell_ids_by_seed(SPEC)[(CHAOS_LAMBDA, KILL_SEED)]
        assert err["kind"] == CELL_ERROR_KIND
        assert (err["error"]["type"], err["error"]["class"]) == (
            "WorkerLost", "transient",
        )
        assert err["attempts"] == 1
        art = load_artifact(out)
        assert len(art.error_rows) == 1
        assert len(art.cell_rows) == len(SPEC) - 1
        assert assert_fold_matches(result)["failed"] == 1


#: The slow cell of TestSlowCell: it outlasts every other cell of the
#: grid several times over.
SLOW_SEED = 2


def _slow_cell(protocol, lam, seed, **kwargs):
    if seed == SLOW_SEED and lam == CHAOS_LAMBDA:
        time.sleep(1.0)
    return run_cell(protocol, lam, seed, **kwargs)


class TestSlowCell:
    def test_busy_worker_is_never_granted_a_second_cell(self, tmp_path):
        """No deadline can free a busy worker: a cell that runs ~1 s
        while its sibling drains the rest of the queue is granted once,
        and every cell lands as exactly one row."""
        out = tmp_path / "fleet.jsonl"
        result = run_shard(
            SPEC, 1, 1, out, max_workers=2, cell_fn=_slow_cell
        )
        assert result.ok
        assert (result.worker_deaths, result.reclaims) == (0, 0)
        ids = [r["cell_id"] for r in load_artifact(out).cell_rows]
        assert sorted(ids) == sorted(c.cell_id for c in SPEC.cells())
        events = read_jsonl_tolerant(result.events_path)
        grants = [e["grant"] for e in events if e["event"] == "lease"]
        assert grants == [1] * len(SPEC)
        # The slow cell's worker held it until it reported.
        slow_id = _cell_ids_by_seed(SPEC)[(CHAOS_LAMBDA, SLOW_SEED)]
        story = [e["event"] for e in events if e.get("cell_id") == slow_id]
        assert story == ["lease", "complete"]
