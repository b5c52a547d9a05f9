"""Generic protocol-comparison sweeps (the machinery behind Fig. 3).

A sweep cell is (protocol, lambda, seed); cells are independent and fan
out over the process pool.  The protocol registry maps names to fresh
protocol instances so cells stay picklable (a worker builds its own
protocol object; nothing stateful crosses the process boundary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..baselines import (
    DEECProtocol,
    DirectProtocol,
    FCMProtocol,
    HEEDProtocol,
    KMeansProtocol,
    LEACHProtocol,
    QELARProtocol,
    TLLEACHProtocol,
)
from ..baselines.base import ClusteringProtocol
from ..core import QLECProtocol
from ..parallel import SweepSpec, fold_results, run_tasks
from ..parallel.sharding import cell_config
from ..telemetry import Telemetry, merge_snapshots
from .stats import mean_ci

__all__ = [
    "PROTOCOLS",
    "SweepResult",
    "run_cell",
    "sweep_from_spec",
    "sweep_protocols",
]

#: Registry: protocol name -> zero-argument factory.
PROTOCOLS: dict[str, Callable[[], ClusteringProtocol]] = {
    "qlec": QLECProtocol,
    "fcm": FCMProtocol,
    "kmeans": KMeansProtocol,
    "kmeans-adaptive": lambda: KMeansProtocol(recluster_every=1),
    "leach": LEACHProtocol,
    "tl-leach": TLLEACHProtocol,
    "qelar": QELARProtocol,
    "heed": HEEDProtocol,
    "deec": DEECProtocol,
    "direct": DirectProtocol,
}


def _log_resume(checkpoint_dir, tag: str, header: dict, path) -> None:
    """Append one resume record to the tag's observability sidecar.

    The sidecar is ephemeral operational evidence ("this attempt
    restored round N from that snapshot"), written with O_APPEND so
    concurrent attempts interleave whole lines; it is never merged,
    fingerprinted, or read back by the sweep machinery — chaos tests
    and operators read it to prove a reclaim resumed instead of
    recomputing.
    """
    import json
    import os

    record = {
        "kind": "checkpoint-resume",
        "tag": tag,
        "round_index": header["round_index"],
        "snapshot": os.path.basename(str(path)),
    }
    line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(
        os.path.join(str(checkpoint_dir), f"{tag}.resume.jsonl"),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        0o644,
    )
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def run_cell(
    protocol: str,
    mean_interarrival: float,
    seed: int,
    initial_energy: float = 0.25,
    rounds: int = 20,
    stop_on_death: bool = False,
    telemetry: bool = False,
    backend: str = "auto",
    faults: str | None = None,
    equivalence: str = "bitwise",
    max_block_mb: float | None = None,
    routing: str = "direct",
    checkpoint_every: int | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_keep_last: int = 3,
) -> dict:
    """One sweep cell: build the Table-2 scenario and run one protocol.

    Module-level so it is picklable for the process pool.  Returns the
    flat result summary plus the consumption-balance index; with
    ``telemetry=True`` the summary additionally carries the cell's
    metric snapshot under ``"telemetry"`` (a plain JSON-able dict — the
    picklable per-worker half of the sweep-level merge).

    The config comes from :func:`repro.parallel.sharding.cell_config`,
    the same derivation :meth:`~repro.parallel.SweepSpec.cells`
    fingerprints, so the config a cell runs is exactly the one its cell
    ID pins: the *resolved* ``backend`` (never ``"auto"``), the
    ``faults`` scenario materialised against the cell's config, and the
    ``equivalence`` tier, ``max_block_mb`` budget and ``routing``
    substrate as config fields — artifacts can never silently mix
    backends, tiers or substrates.

    ``checkpoint_every`` + ``checkpoint_dir`` make the cell
    *preemptible*: the engine snapshots its complete state every N
    rounds under a tag derived from the cell identity, and a rerun of
    the same cell (requeued from a lost worker, a retried shard)
    restores the newest valid snapshot and re-executes only the rounds
    after it — bit-identical to an uninterrupted run.  Checkpoint
    knobs are execution detail, never identity: they hash into no
    fingerprint and no cell ID.
    """
    if protocol not in PROTOCOLS:
        raise KeyError(f"unknown protocol {protocol!r}; known: {sorted(PROTOCOLS)}")
    config = cell_config(
        mean_interarrival,
        seed,
        initial_energy=initial_energy,
        rounds=rounds,
        backend=backend,
        faults=faults,
        equivalence=equivalence,
        max_block_mb=max_block_mb,
        routing=routing,
    )
    proto = PROTOCOLS[protocol]()
    engine = None
    ckpt_tag = None
    if checkpoint_dir is not None and checkpoint_every:
        from ..checkpoint import latest_valid
        from ..telemetry.manifest import config_fingerprint

        fingerprint = config_fingerprint(config)
        ckpt_tag = f"{protocol}-{fingerprint}"
        expected_run = {
            "protocol": proto.name,
            "stop_on_death": bool(stop_on_death),
            "batched": True,
            "telemetry": bool(telemetry),
            "tracer": False,
            "trace": False,
        }
        found = latest_valid(
            checkpoint_dir,
            ckpt_tag,
            config_fingerprint=fingerprint,
            run=expected_run,
        )
        if found is not None:
            path, header, engine = found
            _log_resume(checkpoint_dir, ckpt_tag, header, path)
    tel = Telemetry() if telemetry else None
    if engine is None:
        from ..simulation import SimulationEngine

        engine = SimulationEngine(
            config,
            proto,
            stop_on_death=stop_on_death,
            telemetry=tel,
        )
    elif telemetry:
        # The snapshot carries the half-accumulated telemetry of the
        # interrupted attempt; the finished cell's snapshot must come
        # from it, not from a fresh handle.
        tel = engine.telemetry
    result = engine.run(
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        checkpoint_keep_last=checkpoint_keep_last,
        checkpoint_tag=ckpt_tag if ckpt_tag is not None else "cell",
    )
    summary = result.summary()
    summary["protocol"] = protocol  # registry name, not class default
    if "routing" in result.extras:
        # Active substrates only — direct rows keep the pre-substrate
        # key set, so existing artifacts merge/resume unchanged.
        summary["routing"] = result.extras["routing"]
    if tel is not None:
        summary["telemetry"] = tel.snapshot()
    return summary


@dataclass
class SweepResult:
    """All cell summaries of one sweep plus aggregation helpers.

    ``telemetry`` holds the merged metric snapshot of every cell when
    the sweep ran with telemetry (None otherwise).  The merge is
    order-insensitive, so the pool's completion order cannot leak into
    it: a 2-worker sweep and a serial sweep agree exactly on every
    deterministic (non-``time/``) metric.
    """

    rows: list[dict] = field(default_factory=list)
    telemetry: dict | None = None

    def filtered(self, **match) -> list[dict]:
        out = self.rows
        for key, value in match.items():
            out = [r for r in out if r.get(key) == value]
        return out

    def aggregate(
        self, metric: str, protocol: str, mean_interarrival: float
    ) -> float:
        """Mean of ``metric`` over seeds for one (protocol, lambda)."""
        rows = self.filtered(protocol=protocol, **{"lambda": mean_interarrival})
        if not rows:
            raise KeyError(
                f"no rows for protocol={protocol!r}, lambda={mean_interarrival}"
            )
        return float(np.mean([r[metric] for r in rows]))

    def aggregate_ci(self, metric: str, protocol: str, mean_interarrival: float):
        rows = self.filtered(protocol=protocol, **{"lambda": mean_interarrival})
        return mean_ci([r[metric] for r in rows])

    def series(
        self, metric: str, protocols: Sequence[str], lambdas: Sequence[float]
    ) -> dict[str, list[float]]:
        """Figure-shaped output: one metric series per protocol."""
        return {
            p: [self.aggregate(metric, p, lam) for lam in lambdas]
            for p in protocols
        }


def sweep_protocols(
    protocols: Sequence[str],
    lambdas: Sequence[float],
    seeds: Sequence[int],
    initial_energy: float = 0.25,
    rounds: int = 20,
    stop_on_death: bool = False,
    max_workers: int | None = None,
    serial: bool = False,
    telemetry: bool = False,
    backend: str = "auto",
    faults: str | None = None,
    equivalence: str = "bitwise",
    max_block_mb: float | None = None,
    routing: str = "direct",
) -> SweepResult:
    """Run the full (protocol x lambda x seed) grid in parallel.

    This is the engine behind every Fig.-3 regeneration: identical
    scenarios per seed across protocols (the deployment/traffic streams
    depend only on the seed), cells scheduled over the process pool,
    results in deterministic order.

    With ``telemetry=True`` every cell instruments its run; per-cell
    snapshots come back with the rows and fold (in submission order,
    with an order-insensitive merge) into ``SweepResult.telemetry``.
    """
    spec = SweepSpec(
        protocols=tuple(protocols),
        lambdas=tuple(lambdas),
        seeds=tuple(seeds),
        initial_energy=initial_energy,
        rounds=rounds,
        stop_on_death=stop_on_death,
        telemetry=telemetry,
        backend=backend,
        faults=faults,
        equivalence=equivalence,
        max_block_mb=max_block_mb,
        routing=routing,
    )
    return sweep_from_spec(spec, max_workers=max_workers, serial=serial)


def sweep_from_spec(
    spec: SweepSpec,
    max_workers: int | None = None,
    serial: bool = False,
) -> SweepResult:
    """Run a :class:`~repro.parallel.SweepSpec` grid in one process pool.

    The spec's canonical cell enumeration is the single source of truth
    for row order — the same enumeration the shard runner partitions —
    so a serial run, a pooled run, and a K-shard merge all produce
    rows in the same order with the same values.
    """
    rows = run_tasks(
        partial(run_cell, **spec.cell_kwargs()),
        [(c.protocol, c.lam, c.seed) for c in spec.cells()],
        max_workers=max_workers,
        serial=serial,
    )
    merged = None
    if spec.telemetry:
        snaps = [row.pop("telemetry") for row in rows]
        merged = fold_results(snaps, merge_snapshots)
    return SweepResult(rows=rows, telemetry=merged)
