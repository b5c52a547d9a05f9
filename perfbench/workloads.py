"""The benchmark's three workloads, why each was chosen, and what they predict.

Every workload is a closed loop with one client: an operation starts
when the previous one has finished, nothing runs in threads, and the
in-process workloads run in the benchmark's own process.  The kernel
backend is fixed to ``numpy`` and the numeric tier to ``bitwise``: numba
is not a dependency, and ``auto`` would only add a fallback warning.

Inputs come from ``--seed``.  Each workload draws its simulation seeds
from a pool of ``POOL`` seeds whose output digests are pinned in
``pins.json`` (regenerate with ``python3 perfbench/pin.py`` when a change
is *meant* to alter simulated outputs).  An operation fails when it
raises or when any digest differs from its pin.

This module imports only the standard library at load time, so the
fresh-interpreter set-up probes pay for nothing the real run path does
not import.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS_PATH = HERE / "pins.json"

BACKEND = "numpy"
EQUIVALENCE = "bitwise"
#: Simulation seeds per workload with a pinned digest; ``--seed`` picks
#: from them modulo the pool size.
POOL = 8
#: One process, no threads: numpy's BLAS pool is held to one thread.
#: Set before numpy is imported, here and in every child interpreter.
SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(SINGLE_THREAD)


def child_env() -> dict:
    """Environment for every interpreter the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    return env


def digest(payload) -> str:
    """Short content digest of a JSON-able payload (floats by repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_digest(result) -> str:
    """Digest of an in-process run: every scalar ``PacketStats`` field,
    ``total_energy`` and ``n_alive_final``."""
    p = result.packets
    return digest(
        {
            "generated": p.generated,
            "delivered": p.delivered,
            "dropped_channel": p.dropped_channel,
            "dropped_queue": p.dropped_queue,
            "dropped_dead": p.dropped_dead,
            "expired": p.expired,
            "total_latency_slots": p.total_latency_slots,
            "total_hops": p.total_hops,
            "total_energy": repr(float(result.total_energy)),
            "n_alive_final": int(result.n_alive_final),
        }
    )


def cell_digest(row: dict) -> str:
    """Digest of one sweep artifact cell row (identity plus summary)."""
    return digest(
        {
            "cell_id": row["cell_id"],
            "config_fingerprint": row["config_fingerprint"],
            "summary": row["summary"],
        }
    )


@dataclass
class Outcome:
    """What one operation produced and how long it took."""

    wall_s: float
    #: Time from the first simulated round to the end of the last.
    compute_s: float
    #: Set-up measured inside the operation (a fresh interpreter's spawn
    #: to its first round), or ``None`` for in-process operations.
    setup_s: float | None
    node_rounds: int
    generated: int
    delivered: int
    energy_j: float
    #: pin key -> digest of the simulated output it names.
    digests: dict[str, str] = field(default_factory=dict)


class Workload:
    """One named workload: its inputs, its operation, its rationale."""

    name: str = ""
    why: str = ""
    def keys(self, seed: int) -> list[str]:
        """Pin keys of the outputs one operation at ``seed`` produces."""
        raise NotImplementedError

    def operation(self, seed: int, work: Path, tracer=None) -> Outcome:
        """Run one operation at ``seed`` with scratch space ``work``.

        ``tracer`` is the :class:`layers.Tracer` of a traced operation.
        In-process operations are traced by the wrappers it installed;
        ``fig3-sweep`` traces its child interpreters and folds their
        aggregates into it."""
        raise NotImplementedError

    def setup_command(self, seed: int, work: Path) -> list[str]:
        """A fresh interpreter that prints ``READY`` at the first round.
        The workload's sizes (its constructor arguments, which every
        subclass stores under the same names) travel as JSON."""
        params = inspect.signature(type(self)).parameters
        sizes = {k: v for k, v in vars(self).items() if k in params}
        return [
            sys.executable, str(HERE / "child.py"), "setup", self.name,
            str(seed), str(work), json.dumps(sizes),
        ]


# ---------------------------------------------------------------------------
# fig3-sweep
# ---------------------------------------------------------------------------


class Fig3Sweep(Workload):
    """Paper Fig. 3 at Table 2 scale through the real command line.

    ``repro sweep --serial`` over qlec, fcm and kmeans x lambda {4, 8} x
    two seeds x 20 rounds (N = 100, k = 5) in one subprocess, then
    ``repro merge --strict`` on the artifact in a second one.  This is
    what a user waits for at paper scale: interpreter start-up, imports
    (scipy.stats via repro.analysis), cell enumeration, per-call Python
    overhead, artifact I/O and the merge.  The relay-choice Q block is
    tiny (k = 5) and routing is inert, so optimisations there should
    leave this workload unchanged.
    """

    name = "fig3-sweep"
    why = (
        "Fig. 3 grid at Table 2 scale via repro sweep + merge subprocesses; "
        "start-up, imports and per-call overhead dominate"
    )
    def __init__(self, protocols=("qlec", "fcm", "kmeans"), lambdas=(4, 8),
                 rounds=20, n_seeds=2):
        self.protocols = tuple(protocols)
        self.lambdas = tuple(lambdas)
        self.rounds = int(rounds)
        self.n_seeds = int(n_seeds)

    def grid_seeds(self, seed: int) -> list[int]:
        return sorted({(seed + i) % POOL for i in range(self.n_seeds)})

    def keys(self, seed: int) -> list[str]:
        return [
            f"{p}/{float(lam)}/{s}"
            for p in self.protocols
            for lam in self.lambdas
            for s in self.grid_seeds(seed)
        ]

    def sweep_argv(self, seed: int, out: Path) -> list[str]:
        return [
            "sweep", "--serial",
            "--protocols", *self.protocols,
            "--lambdas", *[str(lam) for lam in self.lambdas],
            "--seeds", *[str(s) for s in self.grid_seeds(seed)],
            "--rounds", str(self.rounds),
            "--backend", BACKEND, "--equivalence", EQUIVALENCE,
            "--out", str(out),
        ]

    def merge_argv(self, artifact: Path, merged: Path) -> list[str]:
        return ["merge", "--strict", str(artifact), "--out", str(merged)]

    def node_rounds(self, seed: int) -> int:
        # paper_config fixes N = 100 nodes per cell.
        return 100 * self.rounds * len(self.keys(seed))

    def _cli(self, argv: list[str], child: list[str] | None = None):
        """Run ``repro <argv>`` in a fresh interpreter, directly or
        through ``child.py <child...>``; return (spawn epoch, seconds)."""
        if child is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), *child, *argv]
        spawned = time.time()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, check=False)
        dur = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(
                f"repro {argv[0]} exited {proc.returncode}: "
                f"{proc.stderr.strip()[-500:]}"
            )
        return spawned, dur

    def operation(self, seed: int, work: Path, tracer=None) -> Outcome:
        work.mkdir(parents=True, exist_ok=True)
        artifact, merged = work / "sweep.jsonl", work / "merged.json"
        stamp = work / "first-round"
        for stale in (artifact, merged, stamp):
            stale.unlink(missing_ok=True)
        sweep_trace, merge_trace = work / "trace-sweep.json", work / "trace-merge.json"
        spawned, sweep_s = self._cli(
            self.sweep_argv(seed, artifact),
            ["cli", str(stamp), "-" if tracer is None else str(sweep_trace)],
        )
        # The sweep interpreter's set-up ends where its first round starts.
        setup_s = float(stamp.read_text()) - spawned
        merge_argv = self.merge_argv(artifact, merged)
        if tracer is None:
            _, merge_s = self._cli(merge_argv)
        else:
            _, merge_s = self._cli(merge_argv, ["cli", str(stamp), str(merge_trace)])
            for trace in (sweep_trace, merge_trace):
                tracer.absorb(json.loads(trace.read_text()))
        rows = [
            json.loads(line)
            for line in artifact.read_text().splitlines()
            if line.strip()
        ]
        cells = [r for r in rows if r.get("kind") == "cell"]
        merged_rows = json.loads(merged.read_text())["rows"]
        if sorted(map(digest, merged_rows)) != sorted(
            digest(r["summary"]) for r in cells
        ):
            raise RuntimeError("merged rows differ from the artifact's cells")
        digests = {
            f"{r['protocol']}/{float(r['lambda'])}/{r['seed']}": cell_digest(r)
            for r in cells
        }
        return Outcome(
            wall_s=sweep_s + merge_s,
            compute_s=sweep_s - setup_s,
            setup_s=setup_s,
            node_rounds=self.node_rounds(seed),
            generated=sum(r["summary"]["generated"] for r in cells),
            delivered=sum(r["summary"]["delivered"] for r in cells),
            energy_j=sum(r["summary"]["energy_J"] for r in cells),
            digests=digests,
        )


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


class InProcess(Workload):
    """A batched QLEC run in the benchmark's own process."""

    def keys(self, seed: int) -> list[str]:
        return [str(seed % POOL)]

    def build(self, sim_seed: int):
        """Return ``(config, engine_kwargs)`` for one run."""
        raise NotImplementedError

    def run_kwargs(self, work: Path) -> dict:
        return {}

    def operation(self, seed: int, work: Path, tracer=None) -> Outcome:
        from repro.core import QLECProtocol
        from repro.simulation.engine import SimulationEngine

        sim_seed = seed % POOL
        t0 = time.perf_counter()
        config, engine_kwargs = self.build(sim_seed)
        engine = SimulationEngine(config, QLECProtocol(), batched=True,
                                  **engine_kwargs)
        t1 = time.perf_counter()
        result = engine.run(**self.run_kwargs(work))
        t2 = time.perf_counter()
        return Outcome(
            wall_s=t2 - t0,
            compute_s=t2 - t1,
            setup_s=None,
            node_rounds=engine.state.n * result.rounds_executed,
            generated=result.packets.generated,
            delivered=result.packets.delivered,
            energy_j=float(result.total_energy),
            digests={str(sim_seed): result_digest(result)},
        )


class Scale100k(InProcess):
    """Loaded-but-healthy large-N QLEC: N = 1e5 in a 300 m cube.

    k = 316 heads, lambda = 64, a 64 MiB distance-block budget.  The
    network delivers about 73 % of its packets (unlike the saturated
    N = 1e5 gate in ``benchmarks/test_bench_scale.py``, which this does
    not replace), and relay choice - the Q block scoring every sender
    against every head - takes over 80 % of round time.  Routing,
    faults and checkpoints are off.
    """

    name = "scale-100k"
    why = (
        "N=1e5 batched QLEC, k=316, lambda=64, 300 m cube, 64 MiB blocks; "
        "relay choice dominates, PDR ~0.73"
    )

    def __init__(self, n_nodes=100_000, n_clusters=316, rounds=4):
        self.n_nodes = int(n_nodes)
        self.n_clusters = int(n_clusters)
        self.rounds = int(rounds)

    def build(self, sim_seed: int):
        from repro.config import (
            DeploymentConfig,
            QueueConfig,
            SimulationConfig,
            TrafficConfig,
        )

        config = SimulationConfig(
            deployment=DeploymentConfig(
                n_nodes=self.n_nodes, side=300.0, initial_energy=5.0
            ),
            traffic=TrafficConfig(mean_interarrival=64.0),
            queue=QueueConfig(),
            rounds=self.rounds,
            n_clusters=self.n_clusters,
            seed=sim_seed,
            backend=BACKEND,
            equivalence=EQUIVALENCE,
            max_block_mb=64.0,
        )
        return config, {}


class Fig4Multihop(InProcess):
    """Paper Fig. 4's large-scale network under the multi-hop substrate.

    The 2,896-node synthetic power-plant dataset (fixed; the simulation
    seed varies), k = 272, lambda = 16, with ``routing=tree``, the
    ``churn`` fault plan and a checkpoint after every round.  It uses
    the engine differently from the other two: a multi-hop uplink walk
    instead of the vectorized direct uplink, snapshot writes beside the
    compute, and faults active.  CH selection is the largest layer.
    """

    name = "fig4-multihop"
    why = (
        "Fig. 4 2,896-node dataset, k=272, tree routing, churn faults, "
        "checkpoint every round; CH selection, uplink walk, snapshots"
    )

    def __init__(self, n_nodes=2896, n_clusters=272, rounds=10):
        self.n_nodes = int(n_nodes)
        self.n_clusters = int(n_clusters)
        self.rounds = int(rounds)

    def build(self, sim_seed: int):
        import numpy as np

        from repro.config import (
            DeploymentConfig,
            QueueConfig,
            RoutingConfig,
            SimulationConfig,
            TrafficConfig,
        )
        from repro.datasets import load_power_plants
        from repro.faults import build_fault_plan

        dataset = load_power_plants(
            None, n_fallback=self.n_nodes, rng=np.random.default_rng(0)
        )
        nodes, bs, energies = dataset.to_network(side=250.0)
        config = SimulationConfig(
            deployment=DeploymentConfig(
                n_nodes=nodes.n,
                side=250.0,
                initial_energy=float(energies.mean()),
                bs_position=tuple(bs.position),
            ),
            traffic=TrafficConfig(mean_interarrival=16.0),
            queue=QueueConfig(),
            rounds=self.rounds,
            n_clusters=self.n_clusters,
            seed=sim_seed,
            backend=BACKEND,
            equivalence=EQUIVALENCE,
            routing=RoutingConfig(kind="tree"),
        )
        config = config.replace(faults=build_fault_plan("churn", config))
        return config, {"nodes": nodes, "bs": bs, "initial_energy": energies}

    def run_kwargs(self, work: Path) -> dict:
        ckpt = work / "checkpoints"
        shutil.rmtree(ckpt, ignore_errors=True)
        ckpt.mkdir(parents=True)
        return {
            "checkpoint_every": 1,
            "checkpoint_dir": str(ckpt),
            "checkpoint_keep_last": 2,
            "checkpoint_tag": "fig4",
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Fig3Sweep(), Scale100k(), Fig4Multihop())
}


def sized(name: str, params: dict) -> Workload:
    """The named workload at the given sizes."""
    return type(WORKLOADS[name])(**params)


# ---------------------------------------------------------------------------
# Predictions: which end-to-end metric each layer metric should move, where
# ---------------------------------------------------------------------------

#: (layer metric prefix, end-to-end metric, workload, expectation).  A
#: later performance change cites the row it expects to move, and every
#: row naming another workload is a "no change" prediction for it.
PREDICTIONS: tuple[tuple[str, str, str, str], ...] = (
    ("import.", "setup_s, wall_s", "fig3-sweep",
     "both the first cell and the merge pay ~1.4 s of scipy.stats import"),
    ("import.", "setup_s", "scale-100k, fig4-multihop",
     "only set-up; nothing after the first round"),
    ("parallel.", "wall_s", "fig3-sweep",
     "enumeration, resume scan and merge; absent from in-process runs"),
    ("sweep.cell_s.", "wall_s", "fig3-sweep",
     "per-protocol cell time; FCM is the slowest cell"),
    ("engine.", "node_rounds_per_s", "all",
     "the dominant phase moves it; per-call overhead on fig3-sweep"),
    ("relay.", "node_rounds_per_s, wall_s", "scale-100k",
     ">80 % of round time; ~4 % of fig4-multihop; no change on fig3-sweep"),
    ("select.", "wall_s", "fig4-multihop",
     "largest layer: ~45 % of the time, ~60 % with routing discovery; "
     "~5 % of scale-100k"),
    ("kernel.", "node_rounds_per_s", "scale-100k",
     "distance_block and expected_q carry the relay-choice Q block"),
    ("ledger. channel. queue.", "pdr, energy_j", "all",
     "deterministic work counts: a speed-up must not come from less work"),
    ("routing.", "wall_s", "fig4-multihop",
     "discovery, tree build and uplink walk; inert on the other two"),
    ("fcm.", "wall_s", "fig3-sweep",
     "FCM re-clustering and its scalar per-frame uplink walk"),
    ("faults.", "wall_s", "fig4-multihop", "churn plan; inert elsewhere"),
    ("checkpoint.", "wall_s", "fig4-multihop",
     "~8 % of the time; does not apply to the other two"),
)
