"""End-to-end shard determinism, resume, and failure-path coverage.

These are the acceptance tests of the sharding layer: a grid executed
as 1, 3, or N shards (in any merge order) must equal the serial sweep
bit for bit on every deterministic metric; resume must recompute
nothing when nothing changed and exactly the invalidated cells when
the config fingerprint moves; and a cell that keeps raising in a
worker must surface as an error row, not a lost cell or a dead shard.
"""

import dataclasses
import json
import re

import pytest

from repro.analysis.sweep import run_cell, sweep_from_spec
from repro.parallel.sharding import (
    CELL_ERROR_KIND,
    CELL_KIND,
    SweepSpec,
    classify_error,
    load_artifact,
    merge_artifacts,
    run_shard,
)
from repro.telemetry import deterministic_view

SPEC = SweepSpec(
    protocols=("direct", "kmeans"),
    lambdas=(4.0, 8.0),
    seeds=(0, 1),
    rounds=2,
    telemetry=True,
)


@pytest.fixture(scope="module")
def serial_sweep():
    return sweep_from_spec(SPEC, serial=True)


def _run_all_shards(spec, num_shards, root, **kwargs):
    return [
        run_shard(
            spec, k, num_shards, root / f"shard-{k}of{num_shards}.jsonl",
            serial=True, **kwargs,
        )
        for k in range(1, num_shards + 1)
    ]


class TestShardDeterminism:
    @pytest.mark.parametrize("num_shards", [1, 3, len(SPEC)])
    def test_k_shards_equal_serial(
        self, num_shards, serial_sweep, tmp_path
    ):
        results = _run_all_shards(SPEC, num_shards, tmp_path)
        assert sum(len(r.executed) for r in results) == len(SPEC)
        merged = merge_artifacts(
            [r.path for r in reversed(results)]
        ).require_complete()
        assert merged.sweep.rows == serial_sweep.rows
        assert deterministic_view(merged.sweep.telemetry) == deterministic_view(
            serial_sweep.telemetry
        )

    def test_pooled_shard_equals_serial_shard(self, tmp_path):
        """The pool inside one shard cannot leak into its artifact."""
        spec = SweepSpec(
            protocols=("direct",), lambdas=(8.0,), seeds=(0, 1, 2), rounds=2
        )
        a = run_shard(spec, 1, 1, tmp_path / "serial.jsonl", serial=True)
        b = run_shard(spec, 1, 1, tmp_path / "pooled.jsonl", max_workers=2)
        assert (
            merge_artifacts([a.path]).sweep.rows
            == merge_artifacts([b.path]).sweep.rows
        )


    def test_two_worker_fleet_equals_serial(self, serial_sweep, tmp_path):
        """serial ≡ sharded ≡ fleet: the whole grid on two workers."""
        result = run_shard(SPEC, 1, 1, tmp_path / "fleet.jsonl", max_workers=2)
        assert sorted(result.executed) == sorted(c.cell_id for c in SPEC.cells())
        merged = merge_artifacts([result.path]).require_complete()
        assert merged.sweep.rows == serial_sweep.rows
        assert deterministic_view(merged.sweep.telemetry) == deterministic_view(
            serial_sweep.telemetry
        )


class TestResume:
    def test_full_resume_recomputes_nothing(self, tmp_path):
        results = _run_all_shards(SPEC, 3, tmp_path)
        before = [r.path.read_bytes() for r in results]
        again = _run_all_shards(SPEC, 3, tmp_path)
        for first, second in zip(results, again):
            assert second.executed == []
            assert sorted(second.skipped) == sorted(
                c.cell_id for c in first.cells
            )
        assert [r.path.read_bytes() for r in again] == before

    def test_partial_resume_recomputes_only_missing(
        self, serial_sweep, tmp_path
    ):
        result = run_shard(SPEC, 1, 1, tmp_path / "all.jsonl", serial=True)
        # Simulate a crash: drop the trailer and the last two cell rows.
        lines = result.path.read_text().splitlines()
        assert len(lines) == 1 + len(SPEC) + 1  # manifest + cells + trailer
        result.path.write_text("\n".join(lines[:-3]) + "\n")
        lost = {
            json.loads(line)["cell_id"] for line in lines[-3:-1]
        }

        resumed = run_shard(SPEC, 1, 1, result.path, serial=True)
        assert set(resumed.executed) == lost
        assert len(resumed.skipped) == len(SPEC) - 2
        merged = merge_artifacts([result.path]).require_complete()
        assert merged.sweep.rows == serial_sweep.rows

    def test_crash_during_resume_preserves_retained_rows(self, tmp_path):
        """The rewrite is atomic (temp file + os.replace): a crash
        while the resumed run is simulating must not lose the rows
        that were already on disk."""
        result = run_shard(SPEC, 1, 1, tmp_path / "shard.jsonl", serial=True)
        lines = result.path.read_text().splitlines()
        result.path.write_text("\n".join(lines[:-3]) + "\n")
        kept = {json.loads(line)["cell_id"] for line in lines[1:-3]}
        lost = {json.loads(line)["cell_id"] for line in lines[-3:-1]}

        with pytest.raises(KeyboardInterrupt):
            run_shard(
                SPEC, 1, 1, result.path,
                serial=True, cell_fn=_interrupting_cell,
            )
        art = load_artifact(result.path)
        assert {r["cell_id"] for r in art.cell_rows} == kept
        assert not list(tmp_path.glob("*.tmp"))

        healed = run_shard(SPEC, 1, 1, result.path, serial=True)
        assert set(healed.executed) == lost
        merge_artifacts([result.path]).require_complete()

    def test_no_resume_flag_recomputes_everything(self, tmp_path):
        path = tmp_path / "shard.jsonl"
        run_shard(SPEC, 1, 1, path, serial=True)
        rerun = run_shard(SPEC, 1, 1, path, serial=True, resume=False)
        assert len(rerun.executed) == len(SPEC)
        assert rerun.skipped == []

    def test_fingerprint_change_invalidates_rows(self, tmp_path):
        """Same grid coordinates, different scenario config: every row
        is stale and must be recomputed, none silently reused."""
        path = tmp_path / "shard.jsonl"
        run_shard(SPEC, 1, 1, path, serial=True)
        changed = SweepSpec(
            protocols=SPEC.protocols,
            lambdas=SPEC.lambdas,
            seeds=SPEC.seeds,
            initial_energy=SPEC.initial_energy,
            rounds=3,  # changes every cell's config fingerprint
            telemetry=True,
        )
        resumed = run_shard(changed, 1, 1, path, serial=True)
        assert len(resumed.executed) == len(changed)
        assert resumed.skipped == []
        art = load_artifact(path)
        fingerprints = {
            r["config_fingerprint"] for r in art.cell_rows
        }
        assert fingerprints == {
            c.config_fingerprint for c in changed.cells()
        }
        assert art.manifest["spec_fingerprint"] == changed.fingerprint

    def test_stop_on_death_change_invalidates_rows(self, tmp_path):
        """stop_on_death lives outside SimulationConfig (it is a
        run_simulation kwarg), yet flipping it changes the run's
        outcome: resume must recompute every cell, never reuse rows
        computed under the other setting."""
        path = tmp_path / "shard.jsonl"
        run_shard(SPEC, 1, 1, path, serial=True)
        flipped = SweepSpec(
            protocols=SPEC.protocols,
            lambdas=SPEC.lambdas,
            seeds=SPEC.seeds,
            initial_energy=SPEC.initial_energy,
            rounds=SPEC.rounds,
            stop_on_death=True,
            telemetry=True,
        )
        resumed = run_shard(flipped, 1, 1, path, serial=True)
        assert len(resumed.executed) == len(flipped)
        assert resumed.skipped == []
        art = load_artifact(path)
        assert {r["cell_id"] for r in art.cell_rows} == {
            c.cell_id for c in flipped.cells()
        }
        assert art.manifest["spec_fingerprint"] == flipped.fingerprint

    def test_uninstrumented_rows_not_reused_for_instrumented_spec(
        self, tmp_path
    ):
        bare = SweepSpec(
            protocols=SPEC.protocols, lambdas=SPEC.lambdas, seeds=SPEC.seeds,
            rounds=SPEC.rounds, telemetry=False,
        )
        path = tmp_path / "shard.jsonl"
        run_shard(bare, 1, 1, path, serial=True)
        resumed = run_shard(SPEC, 1, 1, path, serial=True)
        assert len(resumed.executed) == len(SPEC)
        merged = merge_artifacts([path]).require_complete()
        assert merged.sweep.telemetry is not None


#: Both execution paths of the one sweep driver — inline and a
#: two-worker fleet; they must share its resume and refusal rules.
ENTRY_POINTS = {
    "run_shard": lambda spec, path, **kw: run_shard(
        spec, 1, 1, path, serial=True, **kw
    ),
    "fleet": lambda spec, path, **kw: run_shard(
        spec, 1, 1, path, max_workers=2, **kw
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestOneResumeRule:
    GRID = SweepSpec(
        protocols=("direct",), lambdas=(4.0,), seeds=(0, 1, 2), rounds=2
    )

    def test_grown_grid_runs_only_the_new_cells(self, entry, tmp_path):
        """Rows are reused by cell ID: adding a 4th seed to a 3-seed
        artifact computes 1 cell and keeps 3."""
        run = ENTRY_POINTS[entry]
        path = tmp_path / "grid.jsonl"
        run(self.GRID, path)
        grown = dataclasses.replace(self.GRID, seeds=(0, 1, 2, 3))
        result = run(grown, path)
        assert len(result.executed) == 1
        assert len(result.skipped) == 3
        merged = merge_artifacts([path]).require_complete()
        assert merged.spec == grown
        assert merged.sweep.rows == sweep_from_spec(grown, serial=True).rows

    @pytest.mark.parametrize("resume", [True, False])
    def test_non_artifact_is_refused_and_left_untouched(
        self, entry, resume, tmp_path
    ):
        path = tmp_path / "notes.jsonl"
        path.write_text("my notes; not a sweep artifact\n")
        before = path.read_bytes()
        with pytest.raises(ValueError, match=re.escape(str(path))):
            ENTRY_POINTS[entry](self.GRID, path, resume=resume)
        assert path.read_bytes() == before


def _interrupting_cell(*args, **kwargs):
    """Stand-in for a hard crash (SIGINT) mid-shard: _guarded_cell
    absorbs Exception but BaseException rips through run_shard."""
    raise KeyboardInterrupt


# --- failure injection ------------------------------------------------------

#: Module-level so the injected cell function stays picklable; mutated
#: by the tests (shards run serial, so the state is visible in-process).
_FAULT = {"seeds": set(), "flaky_first_attempt": False, "calls": {}}


def _reset_fault():
    _FAULT["seeds"] = set()
    _FAULT["flaky_first_attempt"] = False
    _FAULT["calls"] = {}


def faulty_cell(protocol, lam, seed, **kwargs):
    key = (protocol, lam, seed)
    _FAULT["calls"][key] = _FAULT["calls"].get(key, 0) + 1
    if seed in _FAULT["seeds"]:
        raise RuntimeError(f"injected fault for seed {seed}")
    if _FAULT["flaky_first_attempt"] and _FAULT["calls"][key] == 1:
        raise RuntimeError("transient fault on first attempt")
    return run_cell(protocol, lam, seed, **kwargs)


class TestFailurePaths:
    def setup_method(self):
        _reset_fault()

    def test_faulty_cell_becomes_error_row_and_shard_completes(
        self, tmp_path
    ):
        _FAULT["seeds"] = {1}
        path = tmp_path / "shard.jsonl"
        result = run_shard(
            SPEC, 1, 1, path, serial=True, cell_fn=faulty_cell, retries=1
        )
        bad = {c.cell_id for c in SPEC.cells() if c.seed == 1}
        assert {e["cell_id"] for e in result.errors} == bad
        assert len(result.executed) == len(SPEC) - len(bad)

        art = load_artifact(path)
        assert {r["cell_id"] for r in art.error_rows} == bad
        for row in art.error_rows:
            assert row["kind"] == CELL_ERROR_KIND
            assert row["error"]["type"] == "RuntimeError"
            assert row["attempts"] == 2  # first try + one retry

    def test_merge_reports_error_rows(self, serial_sweep, tmp_path):
        _FAULT["seeds"] = {1}
        path = tmp_path / "shard.jsonl"
        run_shard(SPEC, 1, 1, path, serial=True, cell_fn=faulty_cell)
        merged = merge_artifacts([path])
        assert not merged.complete
        assert {e["cell_id"] for e in merged.errors} == {
            c.cell_id for c in SPEC.cells() if c.seed == 1
        }
        assert merged.missing == []
        # The healthy cells still merged correctly.
        good = [r for r in serial_sweep.rows if r["seed"] != 1]
        assert merged.sweep.rows == good
        with pytest.raises(ValueError, match="error cell"):
            merged.require_complete()

    def test_resume_retries_errored_cells_after_fault_cleared(
        self, serial_sweep, tmp_path
    ):
        _FAULT["seeds"] = {1}
        path = tmp_path / "shard.jsonl"
        first = run_shard(
            SPEC, 1, 1, path, serial=True, cell_fn=faulty_cell
        )
        bad = {e["cell_id"] for e in first.errors}

        _FAULT["seeds"] = set()  # clear the fault
        resumed = run_shard(
            SPEC, 1, 1, path, serial=True, cell_fn=faulty_cell
        )
        assert set(resumed.executed) == bad
        assert resumed.errors == []
        art = load_artifact(path)
        assert art.error_rows == []

        merged = merge_artifacts([path]).require_complete()
        assert merged.sweep.rows == serial_sweep.rows
        assert deterministic_view(merged.sweep.telemetry) == deterministic_view(
            serial_sweep.telemetry
        )

    def test_in_worker_retry_absorbs_transient_fault(self, tmp_path):
        _FAULT["flaky_first_attempt"] = True
        path = tmp_path / "shard.jsonl"
        result = run_shard(
            SPEC, 1, 1, path, serial=True, cell_fn=faulty_cell, retries=1
        )
        assert result.errors == []
        assert len(result.executed) == len(SPEC)
        art = load_artifact(path)
        assert all(r["attempts"] == 2 for r in art.cell_rows)
        assert all(r["kind"] == CELL_KIND for r in art.cell_rows)

    def test_zero_retries_fails_fast(self, tmp_path):
        _FAULT["flaky_first_attempt"] = True
        result = run_shard(
            SPEC, 1, 1, tmp_path / "shard.jsonl",
            serial=True, cell_fn=faulty_cell, retries=0,
        )
        assert len(result.errors) == len(SPEC)
        assert all(e["attempts"] == 1 for e in result.errors)


def _deterministic_faulty_cell(protocol, lam, seed, **kwargs):
    """Fails like a code bug, not like a flaky environment."""
    key = (protocol, lam, seed)
    _FAULT["calls"][key] = _FAULT["calls"].get(key, 0) + 1
    if seed in _FAULT["seeds"]:
        raise ValueError(f"deterministic bug for seed {seed}")
    return run_cell(protocol, lam, seed, **kwargs)


class TestErrorClassification:
    def setup_method(self):
        _reset_fault()

    def test_classify_error(self):
        assert classify_error(ValueError("x")) == "deterministic"
        assert classify_error(KeyError("x")) == "deterministic"  # LookupError
        assert classify_error(ZeroDivisionError()) == "deterministic"
        assert classify_error(RuntimeError("x")) == "transient"
        assert classify_error(OSError("x")) == "transient"
        assert classify_error(MemoryError()) == "transient"

    def test_deterministic_error_is_not_retried(self, tmp_path):
        _FAULT["seeds"] = {1}
        result = run_shard(
            SPEC, 1, 1, tmp_path / "shard.jsonl",
            serial=True, cell_fn=_deterministic_faulty_cell, retries=3,
        )
        bad = {c.cell_id for c in SPEC.cells() if c.seed == 1}
        assert {e["cell_id"] for e in result.errors} == bad
        # One attempt each despite the generous retry budget: replaying
        # a pure function of the inputs cannot heal it.
        assert all(e["attempts"] == 1 for e in result.errors)
        for key, calls in _FAULT["calls"].items():
            assert calls == 1, key

    def test_error_rows_record_class(self, tmp_path):
        _FAULT["seeds"] = {1}
        run_shard(
            SPEC, 1, 1, tmp_path / "det.jsonl",
            serial=True, cell_fn=_deterministic_faulty_cell, retries=1,
        )
        art = load_artifact(tmp_path / "det.jsonl")
        assert all(
            r["error"]["class"] == "deterministic" for r in art.error_rows
        )
        run_shard(
            SPEC, 1, 1, tmp_path / "trans.jsonl",
            serial=True, cell_fn=faulty_cell, retries=1,
        )
        art = load_artifact(tmp_path / "trans.jsonl")
        assert art.error_rows  # RuntimeError seam
        assert all(
            r["error"]["class"] == "transient" for r in art.error_rows
        )
        assert all(r["attempts"] == 2 for r in art.error_rows)


class TestFaultSweeps:
    SPEC_CHAOS = SweepSpec(
        protocols=("direct", "kmeans"), lambdas=(4.0,), seeds=(0, 1),
        rounds=4, faults="churn",
    )

    def test_fault_cells_never_collide_with_fault_free(self):
        plain = SweepSpec(
            protocols=self.SPEC_CHAOS.protocols,
            lambdas=self.SPEC_CHAOS.lambdas,
            seeds=self.SPEC_CHAOS.seeds,
            rounds=self.SPEC_CHAOS.rounds,
        )
        chaos_ids = {c.cell_id for c in self.SPEC_CHAOS.cells()}
        plain_ids = {c.cell_id for c in plain.cells()}
        assert not chaos_ids & plain_ids

    def test_sharded_fault_sweep_equals_serial(self, tmp_path):
        serial = sweep_from_spec(self.SPEC_CHAOS, serial=True)
        results = _run_all_shards(self.SPEC_CHAOS, 2, tmp_path)
        merged = merge_artifacts(
            [r.path for r in results]
        ).require_complete()
        assert merged.sweep.rows == serial.rows

    def test_spec_payload_round_trips_faults(self):
        payload = self.SPEC_CHAOS.to_payload()
        assert payload["faults"] == "churn"
        again = SweepSpec.from_payload(json.loads(json.dumps(payload)))
        assert again == self.SPEC_CHAOS
        assert again.fingerprint == self.SPEC_CHAOS.fingerprint
