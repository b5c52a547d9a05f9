"""Tests for the job-catalog serve loop (repro.parallel.serve)."""

import json

import pytest

from repro.analysis.sweep import run_cell
from repro.parallel.scheduler import run_scheduled
from repro.parallel.serve import (
    JOB_SUFFIX,
    discover_jobs,
    job_snapshot,
    load_job,
    serve_forever,
    serve_once,
    serve_status_path,
)
from repro.parallel.sharding import SweepSpec

SPEC = SweepSpec(
    protocols=("direct",),
    lambdas=(4.0, 8.0),
    seeds=(0, 1),
    rounds=2,
)


def _write_job(jobs_dir, name, *, spec=SPEC, **options):
    jobs_dir.mkdir(parents=True, exist_ok=True)
    path = jobs_dir / f"{name}{JOB_SUFFIX}"
    path.write_text(json.dumps({"spec": spec.to_payload(), **options}))
    return path


def _failing_cell(protocol, lam, seed, **kwargs):
    if seed == 1 and lam == 4.0:
        raise ValueError("injected serve-test failure")
    return run_cell(protocol, lam, seed, **kwargs)


class TestJobCatalog:
    def test_load_job_round_trips_options(self, tmp_path):
        path = _write_job(
            tmp_path, "fig3",
            workers=2, compression="gz", retries=1,
            lease_seconds=60.0, max_lease_attempts=2,
        )
        job = load_job(path)
        assert job.name == "fig3"
        assert job.spec == SPEC
        assert job.artifact_path == tmp_path / "artifacts" / "fig3.jsonl.gz"
        assert job.workers == 2
        assert job.retries == 1
        assert job.lease_seconds == 60.0
        assert job.max_lease_attempts == 2

    def test_unknown_job_key_raises(self, tmp_path):
        path = _write_job(tmp_path, "typo", worker=3)
        with pytest.raises(ValueError, match="unknown job key"):
            load_job(path)

    def test_job_needs_spec(self, tmp_path):
        path = tmp_path / f"empty{JOB_SUFFIX}"
        path.write_text("{}")
        with pytest.raises(ValueError, match="'spec'"):
            load_job(path)

    def test_discover_jobs_sorted_by_name(self, tmp_path):
        for name in ("zeta", "alpha"):
            _write_job(tmp_path, name)
        assert [j.name for j in discover_jobs(tmp_path)] == ["alpha", "zeta"]


class TestJobSnapshot:
    def test_states_across_the_artifact_lifecycle(self, tmp_path):
        job = load_job(_write_job(tmp_path, "j"))
        # No artifact yet.
        snap = job_snapshot(job)
        assert snap["state"] == "queued"
        assert snap["missing"] == len(SPEC) and snap["rows"] == []

        # Complete run.
        run_scheduled(job.spec, job.artifact_path, num_workers=1,
                      poll_seconds=0.02)
        snap = job_snapshot(job)
        assert snap["state"] == "complete"
        assert snap["done"] == len(SPEC) and not snap["missing"]
        assert len(snap["rows"]) == len(SPEC)

        # Torn artifact (crash mid-append): tolerant read, partial view.
        raw = job.artifact_path.read_bytes()
        lines = raw.decode().splitlines()
        job.artifact_path.write_text("\n".join(lines[:-1]) + "\n")
        snap = job_snapshot(job)
        assert snap["state"] == "partial"
        assert snap["done"] == len(SPEC) - 1 and snap["missing"] == 1

        # Interior corruption is surfaced, not silently healed.
        job.artifact_path.write_text("GARBAGE\n" + "\n".join(lines[1:]))
        assert job_snapshot(job)["state"] == "corrupt"

    def test_failed_state_when_errors_and_nothing_missing(self, tmp_path):
        job = load_job(_write_job(tmp_path, "j"))
        run_scheduled(
            job.spec, job.artifact_path, num_workers=1,
            cell_fn=_failing_cell, poll_seconds=0.02,
        )
        snap = job_snapshot(job)
        assert snap["state"] == "failed"
        assert snap["errors"] == 1
        assert snap["done"] == len(SPEC) - 1 and not snap["missing"]


class TestServeOnce:
    def test_drains_catalog_and_publishes_idle_snapshot(self, tmp_path):
        _write_job(tmp_path, "plain")
        _write_job(tmp_path, "packed", compression="gz")
        report = serve_once(tmp_path, workers=1, poll_seconds=0.02)
        assert report.ok
        assert report.executed == 2 * len(SPEC)
        assert (tmp_path / "artifacts" / "plain.jsonl").exists()
        assert (tmp_path / "artifacts" / "packed.jsonl.gz").exists()
        status = json.loads(serve_status_path(tmp_path).read_text())
        assert status["kind"] == "serve-status"
        assert status["state"] == "idle"
        assert [j["state"] for j in status["jobs"]] == ["complete"] * 2

    def test_non_artifact_at_artifact_path_propagates(self, tmp_path):
        """A foreign file where a job's artifact belongs stops the pass
        with the sweep's ValueError instead of being overwritten."""
        _write_job(tmp_path, "j")
        artifact = tmp_path / "artifacts" / "j.jsonl"
        artifact.parent.mkdir()
        artifact.write_text("someone else's file\n")
        with pytest.raises(ValueError, match="j.jsonl"):
            serve_once(tmp_path, workers=1, poll_seconds=0.02)
        assert artifact.read_text() == "someone else's file\n"

    def test_second_pass_is_an_idempotent_resume(self, tmp_path):
        _write_job(tmp_path, "j")
        serve_once(tmp_path, workers=1, poll_seconds=0.02)
        artifact = tmp_path / "artifacts" / "j.jsonl"
        before = artifact.read_bytes()
        report = serve_once(tmp_path, workers=1, poll_seconds=0.02)
        assert report.executed == 0
        assert report.resumed == len(SPEC)
        assert artifact.read_bytes() == before

    def test_live_snapshot_streams_partial_rows(self, tmp_path):
        _write_job(tmp_path, "j")
        seen = []

        def watch(job, scheduler, result):
            snap = json.loads(serve_status_path(tmp_path).read_text())
            seen.append(snap)

        serve_once(tmp_path, workers=1, poll_seconds=0.02, on_progress=watch)
        assert seen, "on_progress never fired"
        # Mid-run snapshots say running; the done counts only grow, and
        # partial rows are served before the grid finishes.
        assert all(s["state"] == "running" for s in seen)
        counts = [s["jobs"][0]["done"] for s in seen]
        assert counts == sorted(counts)
        assert counts[0] < len(SPEC)
        assert len(seen[0]["jobs"][0]["rows"]) == counts[0]


class TestServeForever:
    def test_bounded_cycles_with_injected_sleep(self, tmp_path):
        _write_job(tmp_path, "j")
        naps = []
        report = serve_forever(
            tmp_path, workers=1, poll_seconds=0.02,
            idle_seconds=7.0, max_cycles=3, sleep=naps.append,
        )
        # Three cycles, sleeping between them but not after the last.
        assert naps == [7.0, 7.0]
        # The last cycle was a pure resume.
        assert report.executed == 0 and report.resumed == len(SPEC)

    def test_new_jobs_picked_up_between_cycles(self, tmp_path):
        _write_job(tmp_path, "first")
        executed = []

        def drop_job(seconds):
            _write_job(tmp_path, "second")

        report = serve_forever(
            tmp_path, workers=1, poll_seconds=0.02,
            max_cycles=2, sleep=drop_job,
        )
        executed.append(report.executed)
        # Cycle 2 found "second" fresh and resumed "first" untouched.
        assert report.executed == len(SPEC)
        assert report.resumed == len(SPEC)
        status = json.loads(serve_status_path(tmp_path).read_text())
        assert [j["name"] for j in status["jobs"]] == ["first", "second"]
