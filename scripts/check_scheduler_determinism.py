#!/usr/bin/env python
"""CI gate: a chaos-ridden worker-fleet sweep must merge back to serial.

Runs one small grid on a two-worker fleet (``run_shard`` with
``max_workers=2``, cells fed from the driver's FIFO work queue) with
two injected casualties — one worker SIGKILLed mid-cell (transient:
the cell must be taken back and only that cell granted again) and one
deterministic cell failure (an immediate ``cell-error`` row, never
granted again) — then heals the deterministic fault, resumes, and
diffs rows and deterministic telemetry against the serial sweep.  A
clean fleet pass and a gzip-compressed pass are checked the same way,
plus the resume contract: re-running a complete fleet artifact must
recompute nothing and leave its bytes untouched.  Any drift fails the
build: fleet determinism is a contract, not a best effort.

Usage: PYTHONPATH=src python scripts/check_scheduler_determinism.py [workdir]
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
from pathlib import Path

from repro.analysis.sweep import run_cell, sweep_from_spec
from repro.parallel.scheduler import fold_events
from repro.parallel.sharding import SweepSpec, merge_artifacts, run_shard
from repro.telemetry import deterministic_view
from repro.telemetry.jsonl import read_jsonl_tolerant

SPEC = SweepSpec(
    protocols=("direct",),
    lambdas=(4.0, 8.0),
    seeds=(0, 1, 2, 3),
    rounds=2,
    telemetry=True,
)

KILL_DIR_ENV = "REPRO_GATE_KILL_DIR"
HEAL_ENV = "REPRO_GATE_HEAL"
KILL_SEED, FAIL_SEED = 0, 1
CHAOS_LAMBDA = 4.0


def chaos_cell(protocol, lam, seed, **kwargs):
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


def run_fleet(path: Path, **kwargs):
    """The whole grid on a two-worker fleet with the chaos cell."""
    return run_shard(
        SPEC, 1, 1, path, max_workers=2, cell_fn=chaos_cell, **kwargs
    )


def fail(msg: str) -> int:
    print(f"FAIL {msg}", file=sys.stderr)
    return 1


def check_merge(path: Path, serial, label: str) -> int:
    merged = merge_artifacts([path])
    if not merged.complete:
        return fail(
            f"{label}: merge incomplete "
            f"(missing {merged.missing}, errors {merged.errors})"
        )
    if merged.sweep.rows != serial.rows:
        return fail(f"{label}: merged rows differ from serial run")
    if deterministic_view(merged.sweep.telemetry) != deterministic_view(
        serial.telemetry
    ):
        return fail(f"{label}: merged telemetry differs from serial run")
    return 0


def main(argv: list[str]) -> int:
    workdir = Path(argv[0]) if argv else Path(tempfile.mkdtemp(prefix="sched-"))
    workdir.mkdir(parents=True, exist_ok=True)
    serial = sweep_from_spec(SPEC, serial=True)

    # -- clean fleet pass + resume contract ----------------------------
    # Chaos disarmed: no kill marker dir, fault healed.
    os.environ.pop(KILL_DIR_ENV, None)
    os.environ[HEAL_ENV] = "1"
    clean = workdir / "clean.jsonl"
    result = run_fleet(clean)
    if not result.ok or len(result.executed) != len(SPEC):
        return fail(f"clean: run incomplete ({result.errors})")
    if rc := check_merge(clean, serial, "clean"):
        return rc
    before = clean.read_bytes()
    resumed = run_fleet(clean)
    if resumed.executed:
        return fail(f"clean: resume recomputed {resumed.executed}")
    if clean.read_bytes() != before:
        return fail("clean: resume rewrote artifact bytes")
    print(f"ok: clean fleet run — {len(SPEC)} cells, merge == serial, "
          "resume touched nothing")

    # -- chaos pass: one SIGKILL + one deterministic failure -----------
    os.environ[KILL_DIR_ENV] = str(workdir)
    os.environ.pop(HEAL_ENV, None)
    chaotic = workdir / "chaos.jsonl"
    chaos = run_fleet(chaotic)
    if chaos.worker_deaths != 1:
        return fail(f"chaos: expected 1 worker death, saw {chaos.worker_deaths}")
    if chaos.reclaims != 1:
        return fail(
            "chaos: expected exactly the transient cell granted again, "
            f"saw {chaos.reclaims} reclaim(s)"
        )
    if len(chaos.errors) != 1:
        return fail(f"chaos: expected 1 error row, saw {len(chaos.errors)}")
    err = chaos.errors[0]
    if err["error"]["class"] != "deterministic" or err["attempts"] != 1:
        return fail(f"chaos: deterministic failure granted again: {err}")
    # The heal below truncates this log, so fold it now: `repro
    # status` must report what the killed run itself counted.
    status = fold_events(read_jsonl_tolerant(chaos.events_path))
    seen = {k: status[k] for k in ("done", "failed", "reclaimed", "state")}
    if seen != {"done": len(SPEC), "failed": 1, "reclaimed": 1,
                "state": "complete"}:
        return fail(f"chaos: event-log fold disagrees with the run: {seen}")
    print("ok: chaos pass — 1 worker death requeued, deterministic "
          "failure errored on its single grant, event log agrees")

    # -- heal + resume: recompute only the errored cell ----------------
    os.environ[HEAL_ENV] = "1"
    healed = run_fleet(chaotic)
    if not healed.ok:
        return fail(f"healed: still erroring ({healed.errors})")
    if len(healed.executed) != 1:
        return fail(
            f"healed: expected exactly 1 recomputed cell, "
            f"got {healed.executed}"
        )
    if rc := check_merge(chaotic, serial, "healed chaos"):
        return rc
    print("ok: healed resume — recomputed 1 cell, merge == serial")

    # -- compressed pass -----------------------------------------------
    packed = workdir / "packed.jsonl.gz"
    result = run_fleet(packed, compression="gz")
    if not result.ok:
        return fail(f"gz: run incomplete ({result.errors})")
    if rc := check_merge(packed, serial, "gz"):
        return rc
    print("ok: gz-compressed fleet run — merge == serial")

    print("ok: fleet determinism holds through kills, faults, and codecs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
