"""Repository benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload fig3-sweep --seed 0 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` measures untraced and traced
operations side by side and reports the per-layer metrics.  Every
operation's simulated outputs are checked against ``pins.json``; a
mismatch or an exception counts as a failed operation.

Output: a human-readable report, then one ``perfbench-record`` JSON line
carrying the host and build fingerprint (``compare.py`` reads these),
then, as the last line, ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import IMPORTS, LAYER_METRICS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BACKEND,
    PINS_PATH,
    ROOT,
    SRC,
    WORKLOADS,
    Fig3Sweep,
    InProcess,
    child_env,
)

#: End-to-end metrics with their units, in report order.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("node_rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("pdr", "ratio"),
    ("energy_j", "J"),
    ("success_rate", "ratio"),
)
#: Fresh interpreters timed to the first round per in-process run
#: (after one discarded warm-up that fills the bytecode cache).
SETUP_PROBES = 7
#: Fresh interpreters per module for the import timings.
IMPORT_PROBES = 3
#: Timed resume scans over the completed fig3-sweep artifact.
RESUME_SCANS = 3


class Ops:
    """Attempted operations of one run: what completed, what failed.

    With ``rotate`` the n-th operation of the run takes input seed
    ``seed + n``, so one run covers several pooled inputs and its
    simulated totals vary less from seed to seed; without it every
    operation repeats the same input (traced runs, whose per-operation
    counts and traced/untraced ratio need identical work).
    """

    def __init__(self, workload, seed: int, pins: dict, rotate: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.rotate = rotate
        self.attempted = 0
        #: One line per failed operation (raised, or a digest mismatch).
        self.errors: list[str] = []

    def one(self, work: Path, tracer=None):
        """Run and check one operation; ``None`` when it raised.  An
        operation with wrong outputs is returned (its time is real) but
        counted as failed."""
        seed = self.seed + (self.attempted if self.rotate else 0)
        self.attempted += 1
        expected = {k: self.pins.get(k) for k in self.workload.keys(seed)}
        try:
            out = self.workload.operation(seed, work, tracer)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        if out.digests != expected:
            bad = sorted(
                k for k in set(out.digests) | set(expected)
                if out.digests.get(k) != expected.get(k)
            )
            self.errors.append(f"seed {seed}: digest mismatch: {', '.join(bad)}")
        return out

    def loop(self, work: Path, seconds: float, tracer=None) -> list:
        """Closed loop: operations back to back until ``seconds`` have
        passed and at least one has completed; returns the completed
        ones.  Raises when none completed in the time."""
        done = []
        t_end = time.perf_counter() + seconds
        while not done or time.perf_counter() < t_end:
            out = self.one(work, tracer)
            if out is not None:
                done.append(out)
            elif not done and time.perf_counter() >= t_end:
                raise RuntimeError(f"no operation completed: {self.errors[-1]}")
        return done


# ---------------------------------------------------------------------------
# fresh-interpreter probes
# ---------------------------------------------------------------------------


def setup_time(workload, seed: int, work: Path) -> float:
    """Seconds from spawning an interpreter to its first simulated round."""
    probe = work / "setup"
    shutil.rmtree(probe, ignore_errors=True)
    probe.mkdir(parents=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        workload.setup_command(seed, probe), env=child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed


def import_time(module: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "import", module],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.strip())


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------


def _tree_sha(root: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # an exported checkout; src_sha256 identifies the build
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    """Host and build identity; ``compare.py`` refuses to compare
    records whose host fields differ."""
    import numpy

    from repro.kernels import resolve_backend

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "backend": resolve_backend(BACKEND).name,
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha(SRC, "*.py"),
        "bench_sha256": _tree_sha(HERE, "*.py"),
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def _rss_mb(workload) -> float:
    """Peak RSS of this process, or of the largest interpreter it started
    for a workload that runs in subprocesses."""
    if isinstance(workload, InProcess):
        who = resource.RUSAGE_SELF
    else:
        who = resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, seed: int, seconds: float, ops: Ops, work: Path) -> dict:
    setup_time(workload, seed, work)  # warm-up: bytecode cache, page cache
    probes = [] if isinstance(workload, Fig3Sweep) else [
        setup_time(workload, seed, work) for _ in range(SETUP_PROBES)
    ]
    if isinstance(workload, InProcess):
        ops.one(work)  # warm-up: first-use imports inside the run path
    timed = ops.loop(work, seconds)
    # fig3-sweep starts a fresh interpreter per operation and times its
    # set-up there; in-process operations need the probes.
    setups = probes or [o.setup_s for o in timed]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(o.wall_s for o in timed),
        "node_rounds_per_s": statistics.median(
            o.node_rounds / o.compute_s for o in timed
        ),
        "peak_rss_mb": _rss_mb(workload),
        "pdr": sum(o.delivered for o in timed) / sum(o.generated for o in timed),
        "energy_j": statistics.fmean(o.energy_j for o in timed),
    }


def per_layer(workload, seed: int, seconds: float, ops: Ops, work: Path) -> dict:
    imports = {
        name: statistics.median(import_time(mod) for _ in range(IMPORT_PROBES))
        for name, mod in IMPORTS.items()
    }
    in_process = isinstance(workload, InProcess)
    if in_process:
        ops.one(work)  # warm-up
    untraced = ops.loop(work, seconds / 2)
    with Tracer() as tracer:
        if in_process:
            tracer.install()
        traced = ops.loop(work, seconds / 2, tracer)
    metrics = {name: 0.0 for name, _ in LAYER_METRICS}
    metrics.update(imports)
    metrics.update(tracer.metrics(len(traced)))
    if isinstance(workload, Fig3Sweep):
        metrics.update(sweep_scan(work / "sweep.jsonl"))
    traced_wall = sum(o.wall_s for o in traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(o.wall_s for o in traced)
        / statistics.median(o.wall_s for o in untraced)
        - 1.0
    )
    metrics["trace.coverage"] = tracer.self_time() / traced_wall
    return metrics


def sweep_scan(artifact: Path) -> dict:
    """Cell count and a warm in-process re-run over a complete artifact
    (every cell resumes, none executes)."""
    from repro.parallel import SweepSpec, load_artifact, run_shard

    spec = SweepSpec.from_payload(load_artifact(artifact).manifest["spec"])
    scans = []
    for i in range(RESUME_SCANS + 1):
        t0 = time.perf_counter()
        res = run_shard(spec, 1, 1, artifact, serial=True)
        if i:  # the first scan is a warm-up
            scans.append(time.perf_counter() - t0)
        if res.executed:
            raise RuntimeError("resume scan re-executed cells")
    return {
        "parallel.resume_scan_s": statistics.median(scans),
        "parallel.cells": float(len(spec)),
    }


# ---------------------------------------------------------------------------


def report(workload, args, metrics: dict, units: dict, ops: Ops) -> None:
    error_rate = len(ops.errors) / max(ops.attempted, 1)
    print(f"workload   {workload.name} (seed {args.seed}, trace {args.trace}, "
          f"{args.seconds} s)")
    print(f"why        {workload.why}")
    print(f"ops        {ops.attempted} attempted, {len(ops.errors)} failed, "
          f"error_rate {error_rate:.4f}")
    for err in ops.errors:
        print(f"  FAILED   {err}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {units[name]}")
    record = {
        "kind": "perfbench-record",
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "fingerprint": fingerprint(),
        "error_rate": error_rate,
        "errors": ops.errors,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not ops.errors,
        "attempted": ops.attempted,
        "failed": len(ops.errors),
        "metrics": record["metrics"],
    }))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, workloads=None, pins=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401 - fail before measuring if the build is broken

    workload = (workloads or WORKLOADS)[args.workload]
    if pins is None:
        pins = json.loads(PINS_PATH.read_text())
    ops = Ops(workload, args.seed, pins.get(workload.name, {}),
              rotate=not args.trace)
    work = HERE / "_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics = per_layer(workload, args.seed, args.seconds, ops, work)
            units = dict(LAYER_METRICS)
        else:
            metrics = end_to_end(workload, args.seed, args.seconds, ops, work)
            metrics["success_rate"] = 1.0 - len(ops.errors) / ops.attempted
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other workload's dir is left
    report(workload, args, metrics, units, ops)
    return 0


if __name__ == "__main__":
    sys.exit(main())
