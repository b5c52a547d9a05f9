"""Preemptible sweep cells: checkpoint resume through the parallel layer.

Covers the run_cell resume contract (tag derivation, telemetry
carry-over, the resume sidecar), graceful drain of run_shard inline
and on a worker fleet, and the chaos headline: the cell of a SIGKILLed
fleet worker is requeued, resumes from its snapshot and re-executes
only the rounds after it.
"""

import dataclasses
import json
import os
import signal

from repro.analysis.sweep import PROTOCOLS, run_cell
from repro.checkpoint import CheckpointWriter
from repro.config import RoutingConfig, paper_config
from repro.kernels import resolve_backend_name
from repro.parallel import (
    DrainFlag,
    SweepSpec,
    fold_events,
    load_artifact,
    merge_artifacts,
    run_shard,
)
from repro.simulation import SimulationEngine
from repro.telemetry import Telemetry
from repro.telemetry.jsonl import read_jsonl_tolerant
from repro.telemetry.manifest import config_fingerprint
from repro.telemetry.registry import deterministic_view
from tests.conftest import assert_fold_matches

#: Directory holding the kill-once marker of the chaos test (workers
#: inherit the environment, so the path crosses the fork/spawn).
KILL_DIR_ENV = "REPRO_CKPT_CHAOS_KILL_DIR"


def _cell_config(protocol, lam, seed, rounds, faults=None, routing="direct"):
    """The exact config run_cell builds — the resume tag contract."""
    config = dataclasses.replace(
        paper_config(mean_interarrival=lam, seed=seed, rounds=rounds),
        backend=resolve_backend_name("auto"),
        equivalence="bitwise",
        max_block_mb=None,
        routing=RoutingConfig(kind=routing),
    )
    if faults:
        from repro.faults import build_fault_plan

        config = config.replace(faults=build_fault_plan(faults, config))
    return config


def _seed_snapshot(
    checkpoint_dir,
    *,
    protocol="qlec",
    lam=4.0,
    seed=0,
    rounds=6,
    upto=3,
    telemetry=False,
    faults=None,
    routing="direct",
):
    """Simulate an interrupted run_cell attempt: run ``upto`` rounds of
    the identical cell and leave its snapshot under the run_cell tag."""
    config = _cell_config(protocol, lam, seed, rounds, faults, routing)
    tel = Telemetry() if telemetry else None
    engine = SimulationEngine(config, PROTOCOLS[protocol](), telemetry=tel)
    for _ in range(upto):
        engine.run_round()
    tag = f"{protocol}-{config_fingerprint(config)}"
    CheckpointWriter(checkpoint_dir, tag, every=1).snapshot(engine)
    return tag


def _resume_log(checkpoint_dir, tag):
    path = checkpoint_dir / f"{tag}.resume.jsonl"
    if not path.exists():
        return []
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestRunCellResume:
    def test_resumes_from_seeded_snapshot_bit_identical(self, tmp_path):
        clean = run_cell(
            "qlec", 4.0, 0, rounds=6, telemetry=True,
            faults="ch-kill", routing="tree",
        )
        tag = _seed_snapshot(
            tmp_path, telemetry=True, faults="ch-kill", routing="tree"
        )
        resumed = run_cell(
            "qlec", 4.0, 0, rounds=6, telemetry=True,
            faults="ch-kill", routing="tree",
            checkpoint_every=2, checkpoint_dir=str(tmp_path),
        )
        clean_tel = clean.pop("telemetry")
        resumed_tel = resumed.pop("telemetry")
        assert resumed == clean
        assert deterministic_view(resumed_tel) == deterministic_view(clean_tel)
        log = _resume_log(tmp_path, tag)
        assert len(log) == 1
        assert log[0]["kind"] == "checkpoint-resume"
        assert log[0]["round_index"] == 3  # restored, not recomputed

    def test_mismatched_snapshot_is_ignored(self, tmp_path):
        # A snapshot of a *different* cell (other seed) under its own
        # tag: the resuming cell must not pick it up.
        _seed_snapshot(tmp_path, seed=1)
        clean = run_cell("qlec", 4.0, 0, rounds=6)
        fresh = run_cell(
            "qlec", 4.0, 0, rounds=6,
            checkpoint_every=2, checkpoint_dir=str(tmp_path),
        )
        assert fresh == clean

    def test_no_checkpoint_kwargs_changes_nothing(self, tmp_path):
        assert run_cell("qlec", 4.0, 0, rounds=4) == run_cell(
            "qlec", 4.0, 0, rounds=4,
            checkpoint_every=None, checkpoint_dir=str(tmp_path),
        )
        assert not list(tmp_path.iterdir())  # every=None writes nothing


class TestRunShardDrain:
    SPEC = dict(
        protocols=("qlec", "leach"), lambdas=(4.0,), seeds=(0, 1), rounds=2
    )

    def test_drain_stops_at_cell_boundary_and_resumes(self, tmp_path):
        spec = SweepSpec(**self.SPEC)
        out = tmp_path / "shard.jsonl"
        result = run_shard(
            spec, 1, 1, out, serial=True, stop_requested=lambda: True
        )
        assert 1 <= len(result.executed) < len(spec)
        assert assert_fold_matches(result)["state"] == "stopped"

        # Reference artifact from an uninterrupted run.
        ref = tmp_path / "ref.jsonl"
        run_shard(spec, 1, 1, ref, serial=True)

        resumed = run_shard(spec, 1, 1, out, serial=True)
        assert len(resumed.skipped) == len(result.executed)
        assert len(resumed.executed) == len(spec) - len(result.executed)
        assert assert_fold_matches(resumed)["state"] == "complete"
        rows = [r["summary"] for r in load_artifact(out).records
                if r.get("kind") == "cell"]
        ref_rows = [r["summary"] for r in load_artifact(ref).records
                    if r.get("kind") == "cell"]
        assert rows == ref_rows

    def test_unlatched_flag_changes_nothing(self, tmp_path):
        spec = SweepSpec(**self.SPEC)
        flag = DrainFlag()
        result = run_shard(
            spec, 1, 1, tmp_path / "s.jsonl", serial=True,
            stop_requested=flag,
        )
        assert len(result.executed) == len(spec)
        assert assert_fold_matches(result)["state"] == "complete"
        events = read_jsonl_tolerant(result.events_path)
        assert "drain" not in [e["event"] for e in events]


def _kill_once_cell(*args, **kwargs):
    """Fleet chaos cell: SIGKILL the worker running seed 0 once, then
    delegate.

    Module-level so it pickles into spawned workers; the marker file
    makes the kill happen exactly once across respawns."""
    kill_dir = os.environ.get(KILL_DIR_ENV)
    if kill_dir and args[2] == 0:
        marker = os.path.join(kill_dir, "killed")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
    return run_cell(*args, **kwargs)


class TestSchedulerSnapshotReclaim:
    def test_reclaimed_lease_resumes_from_snapshot(self, tmp_path, monkeypatch):
        """The chaos headline: kill the worker, requeue its cell, and
        prove via the resume sidecar that the replacement re-executed
        only the rounds after the seeded snapshot."""
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        tag = _seed_snapshot(ckpt_dir, rounds=6, upto=3)
        monkeypatch.setenv(KILL_DIR_ENV, str(tmp_path))

        # Two cells, so the run gets a two-worker fleet (one cell would
        # run inline, in this process).
        spec = SweepSpec(protocols=("qlec",), lambdas=(4.0,), seeds=(0, 1),
                         rounds=6)
        out = tmp_path / "fleet.jsonl"
        result = run_shard(
            spec, 1, 1, out, max_workers=2, cell_fn=_kill_once_cell,
            checkpoint_every=3, checkpoint_dir=ckpt_dir,
        )
        assert result.ok and result.worker_deaths == 1
        assert (tmp_path / "killed").exists()

        log = _resume_log(ckpt_dir, tag)
        assert log and log[0]["round_index"] == 3

        clean = [run_cell("qlec", 4.0, seed, rounds=6) for seed in (0, 1)]
        assert merge_artifacts([out]).require_complete().sweep.rows == clean

    def test_scheduler_drain_leaves_resumable_artifact(self, tmp_path):
        spec = SweepSpec(protocols=("qlec", "leach"), lambdas=(4.0,),
                         seeds=(0, 1), rounds=2)
        out = tmp_path / "fleet.jsonl"
        flag = DrainFlag()

        def first_row_latches() -> bool:
            # Latch once the artifact holds its first cell row.
            if not flag.requested and out.exists() and any(
                r.get("kind") == "cell" for r in read_jsonl_tolerant(out)
            ):
                flag.request()
            return flag()

        drained = run_shard(
            spec, 1, 1, out, max_workers=2, stop_requested=first_row_latches
        )
        assert 1 <= len(drained.executed) < len(spec)
        assert assert_fold_matches(drained)["state"] == "stopped"

        finished = run_shard(spec, 1, 1, out, max_workers=2)
        assert len(finished.skipped) == len(drained.executed)
        assert len(finished.executed) == len(spec) - len(drained.executed)
        assert assert_fold_matches(finished)["state"] == "complete"


class TestStatusStates:
    def test_draining_and_stopped_rows(self, tmp_path):
        spec = SweepSpec(**TestRunShardDrain.SPEC)
        result = run_shard(
            spec, 1, 1, tmp_path / "a.jsonl", serial=True,
            stop_requested=lambda: True,
        )
        events = read_jsonl_tolerant(result.events_path)
        verbs = [e["event"] for e in events]
        assert verbs[-2:] == ["drain", "finish"]
        # What `repro status` shows while the drain is in flight, then
        # once the run ended.
        draining = fold_events(events[:-1])
        assert draining["state"] == "draining"
        last = fold_events(events)
        assert last["state"] == "stopped"
        assert last["done"] == len(result.executed)  # progress survives


class TestDrainSignals:
    def test_flag_latches_once_and_records_signum(self):
        flag = DrainFlag()
        assert not flag() and not flag.requested
        flag.request(signal.SIGTERM)
        flag.request(signal.SIGINT)
        assert flag() and flag.requested
        assert flag.signum == signal.SIGTERM  # first signal wins

    def test_handlers_installed_and_restored(self):
        from repro.parallel import drain_on_signals

        before = signal.getsignal(signal.SIGTERM)
        with drain_on_signals() as flag:
            assert signal.getsignal(signal.SIGTERM) is not before
            os.kill(os.getpid(), signal.SIGTERM)
            assert flag.requested and flag.signum == signal.SIGTERM
            # First signal re-installed the previous handler (escalation).
            assert signal.getsignal(signal.SIGTERM) is before
        assert signal.getsignal(signal.SIGTERM) is before
