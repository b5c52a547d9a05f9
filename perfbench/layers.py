"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each layer, times every
call into them, keeps the spans' aggregates in memory, and reads the
engine's own ``time/phase/*`` and ``prof/kernels/*`` counters through
``Telemetry(profile_kernels=True)``, which it hands to every engine that
was built without telemetry.  Nothing inside ``src/`` is changed; the
wrappers are removed again on :meth:`Tracer.uninstall`.

A span's self time is its duration minus the time of the spans it
encloses, so the self times of all layers add up to at most the traced
wall time; their ratio is ``trace.coverage``.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: The 11 lap phases of ``SimulationEngine.run_round``.
PHASES = (
    "setup", "ch_select", "generate", "relay_choice", "discharge", "channel",
    "queue_offer", "estimator", "service", "uplink", "round_end",
)
KERNELS = (
    "distance_block", "expected_q", "grouped_discharge", "ewma_fold_shared",
    "bernoulli", "distance_pairs",
)
IMPORTS = {
    "import.repro_s": "repro",
    "import.repro_analysis_sweep_s": "repro.analysis.sweep",
    "import.scipy_stats_s": "scipy.stats",
}
SWEEP_PROTOCOLS = ("qlec", "fcm", "kmeans")


def _metric_units() -> list[tuple[str, str]]:
    units = [(name, "s") for name in IMPORTS]
    units += [
        ("parallel.enumerate_s", "s"),
        ("parallel.resume_scan_s", "s"),
        ("parallel.merge_s", "s"),
        ("parallel.cells", "count"),
    ]
    units += [(f"sweep.cell_s.{p}", "s") for p in SWEEP_PROTOCOLS]
    units += [
        ("engine.construct_s", "s"),
        ("engine.round_s_p50", "s"),
        ("engine.round_s_tail", "s"),
        ("engine.round_tail_pct", "%"),
        ("engine.rounds", "count"),
    ]
    units += [(f"engine.phase.{p}_s", "s") for p in PHASES]
    units += [
        ("relay.calls", "count"),
        ("relay.s", "s"),
        ("relay.pairs_scored", "count"),
        ("relay.ns_per_pair", "ns"),
        ("select.calls", "count"),
        ("select.s", "s"),
    ]
    for k in KERNELS:
        units += [
            (f"kernel.{k}.calls", "count"),
            (f"kernel.{k}.elements", "count"),
            (f"kernel.{k}.ns_per_elem", "ns"),
        ]
    units += [
        ("ledger.discharge_s", "s"),
        ("channel.attempts", "count"),
        ("channel.success_ratio", "ratio"),
        ("queue.offered", "count"),
        ("queue.drop_ratio", "ratio"),
        ("routing.begin_round_s", "s"),
        ("routing.uplink_path_s", "s"),
        ("routing.hops_mean", "hops"),
        ("routing.repairs", "count"),
        ("routing.fallbacks", "count"),
        ("fcm.select_s", "s"),
        ("fcm.uplink_path_s", "s"),
        ("faults.s", "s"),
        ("faults.injected", "count"),
        ("checkpoint.snapshots", "count"),
        ("checkpoint.write_s", "s"),
        ("checkpoint.bytes", "bytes"),
        ("trace.overhead_frac", "ratio"),
        ("trace.coverage", "ratio"),
    ]
    return units


#: Every per-layer metric, in report order, with its unit.
LAYER_METRICS: tuple[tuple[str, str], ...] = tuple(_metric_units())


class Tracer:
    """Span aggregates, counts and telemetry sums for traced operations."""

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: span name -> individual durations, for percentiles.
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: named counts gathered at the wrapped boundaries.
        self.counts: dict[str, float] = defaultdict(float)
        #: summed engine telemetry (counters by value; gauges and
        #: histograms by ``<name>/total`` and ``<name>/count``).
        self.telemetry: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------
    def _wrap(self, owner, attr: str, name, sample: bool = False,
              before=None, after=None):
        orig = owner.__dict__[attr]
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            if before is not None:
                before(args, kwargs)
            tracer._stack.append(0.0)
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += dur
                agg = tracer.spans[span]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
                if sample:
                    tracer.samples[span].append(dur)
            if after is not None:
                after(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self, sweep: bool = False) -> "Tracer":
        """Wrap every layer's public entry points.  ``sweep`` adds the
        sweep-driver layers (it imports ``repro.analysis``, which the
        in-process workloads never load)."""
        from repro.checkpoint import CheckpointWriter
        from repro.core.routing import QRouter
        from repro.core.selection import ImprovedDEECSelector
        from repro.energy.battery import EnergyLedger
        from repro.faults import PlanInjector
        from repro.network.queueing import QueueBank
        from repro.routing.base import TreeRouting
        from repro.simulation.engine import SimulationEngine
        from repro.telemetry import Telemetry

        def add_telemetry(args, kwargs):
            # Positional slot 11 (after self) is ``telemetry``.
            if len(args) <= 11 and kwargs.get("telemetry") is None:
                kwargs["telemetry"] = Telemetry(profile_kernels=True)

        def after_run(args, _kwargs, result):
            engine = args[0]
            self._absorb_telemetry(engine.telemetry.snapshot())
            if engine.router.active:
                for key, value in engine.router.counters().items():
                    self.counts[f"routing.{key}"] += value
            if result.faults is not None:
                self.counts["faults.injected"] += result.faults["injected"]

        def after_relay(args, _kwargs, _out):
            senders, heads = args[1], args[2]
            # Action set = every head plus the direct-BS action.
            self.counts["relay.pairs_scored"] += len(senders) * (len(heads) + 1)

        def after_offer(args, _kwargs, accepted):
            self.counts["queue.offered"] += len(accepted)
            self.counts["queue.accepted"] += int(accepted.sum())

        def after_snapshot(_args, _kwargs, path):
            self.counts["checkpoint.bytes"] += Path(path).stat().st_size

        self._wrap(SimulationEngine, "__init__", "engine.construct",
                   before=add_telemetry)
        self._wrap(SimulationEngine, "run", "engine.run", after=after_run)
        self._wrap(SimulationEngine, "run_round", "engine.round", sample=True)
        self._wrap(QRouter, "choose_many", "relay", after=after_relay)
        self._wrap(ImprovedDEECSelector, "select", "select")
        self._wrap(EnergyLedger, "discharge_many", "ledger.discharge")
        self._wrap(EnergyLedger, "discharge", "ledger.discharge")
        self._wrap(QueueBank, "offer_batch", "queue.offer", after=after_offer)
        self._wrap(TreeRouting, "begin_round", "routing.begin_round")
        self._wrap(TreeRouting, "uplink_path", "routing.uplink_path")
        self._wrap(PlanInjector, "begin_round", "faults")
        self._wrap(PlanInjector, "at_slot", "faults")
        self._wrap(CheckpointWriter, "snapshot", "checkpoint.write",
                   after=after_snapshot)
        if sweep:
            import repro.analysis.sweep as sweep_mod
            import repro.parallel as parallel
            from repro.baselines.fcm import FCMProtocol
            from repro.parallel.sharding import SweepSpec

            self._wrap(FCMProtocol, "select_cluster_heads", "fcm.select")
            self._wrap(FCMProtocol, "uplink_path", "fcm.uplink_path")
            self._wrap(SweepSpec, "cells", "parallel.enumerate")
            self._wrap(parallel, "merge_artifacts", "parallel.merge")

            self._wrap(sweep_mod, "run_cell",
                       lambda args: f"sweep.cell.{args[0]}", sample=True)
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _absorb_telemetry(self, snapshot: dict) -> None:
        for key, snap in snapshot.items():
            if snap["kind"] == "counter":
                self.telemetry[key] += snap["value"]
            else:
                self.telemetry[key + "/total"] += snap["total"]
                self.telemetry[key + "/count"] += snap["count"]

    # -- transport between interpreters ----------------------------------
    def to_json(self) -> dict:
        return {
            "spans": dict(self.spans),
            "samples": dict(self.samples),
            "counts": dict(self.counts),
            "telemetry": dict(self.telemetry),
        }

    def absorb(self, payload: dict) -> None:
        """Fold in another tracer's :meth:`to_json` (a traced child)."""
        for name, (calls, total, self_s) in payload["spans"].items():
            agg = self.spans[name]
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, values in payload["samples"].items():
            self.samples[name].extend(values)
        for table in ("counts", "telemetry"):
            mine = getattr(self, table)
            for key, value in payload[table].items():
                mine[key] += value

    # -- reporting -------------------------------------------------------
    def total(self, span: str) -> float:
        return self.spans[span][1] if span in self.spans else 0.0

    def calls(self, span: str) -> int:
        return int(self.spans[span][0]) if span in self.spans else 0

    def self_time(self) -> float:
        """Summed self time of every traced layer."""
        return sum(agg[2] for agg in self.spans.values())

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Layer metrics per traced operation (times and counts are
        per-operation means; percentiles pool every sample)."""
        per = 1.0 / max(n_ops, 1)
        tel = self.telemetry
        out: dict[str, float] = {}

        def median(span: str) -> float:
            values = self.samples.get(span)
            return statistics.median(values) if values else 0.0

        for p in SWEEP_PROTOCOLS:
            out[f"sweep.cell_s.{p}"] = median(f"sweep.cell.{p}")
        out["parallel.enumerate_s"] = self.total("parallel.enumerate") * per
        out["parallel.merge_s"] = self.total("parallel.merge") * per
        constructs = self.calls("engine.construct")
        out["engine.construct_s"] = (
            self.total("engine.construct") / constructs if constructs else 0.0
        )
        rounds = sorted(self.samples.get("engine.round", []))
        n = len(rounds)
        out["engine.rounds"] = float(n)
        out["engine.round_s_p50"] = statistics.median(rounds) if rounds else 0.0
        # Highest percentile with at least ten rounds beyond it; below
        # twenty rounds that is no higher than the median.
        if n >= 20:
            pct = 100.0 * (n - 10) / n
            out["engine.round_s_tail"] = rounds[n - 11]
        else:
            pct = 50.0
            out["engine.round_s_tail"] = out["engine.round_s_p50"]
        out["engine.round_tail_pct"] = pct
        for phase in PHASES:
            out[f"engine.phase.{phase}_s"] = tel[f"time/phase/{phase}"] * per
        out["relay.calls"] = self.calls("relay") * per
        out["relay.s"] = self.total("relay") * per
        pairs = self.counts["relay.pairs_scored"]
        out["relay.pairs_scored"] = pairs * per
        out["relay.ns_per_pair"] = 1e9 * self.total("relay") / pairs if pairs else 0.0
        out["select.calls"] = self.calls("select") * per
        out["select.s"] = self.total("select") * per
        for k in KERNELS:
            calls = tel[f"prof/kernels/{k}/calls"]
            elems = tel[f"prof/kernels/{k}/elements"]
            out[f"kernel.{k}.calls"] = calls * per
            out[f"kernel.{k}.elements"] = elems * per
            out[f"kernel.{k}.ns_per_elem"] = (
                1e9 * tel[f"time/kernel/{k}"] / elems if elems else 0.0
            )
        out["ledger.discharge_s"] = self.total("ledger.discharge") * per
        attempts = tel["channel/attempts"]
        out["channel.attempts"] = attempts * per
        out["channel.success_ratio"] = (
            tel["channel/acks"] / attempts if attempts else 0.0
        )
        offered = self.counts["queue.offered"]
        out["queue.offered"] = offered * per
        out["queue.drop_ratio"] = (
            1.0 - self.counts["queue.accepted"] / offered if offered else 0.0
        )
        out["routing.begin_round_s"] = self.total("routing.begin_round") * per
        out["routing.uplink_path_s"] = self.total("routing.uplink_path") * per
        hops = tel["routing/hops/count"]
        out["routing.hops_mean"] = tel["routing/hops/total"] / hops if hops else 0.0
        out["routing.repairs"] = self.counts["routing.repairs"] * per
        out["routing.fallbacks"] = self.counts["routing.fallbacks"] * per
        out["fcm.select_s"] = self.total("fcm.select") * per
        out["fcm.uplink_path_s"] = self.total("fcm.uplink_path") * per
        out["faults.s"] = self.total("faults") * per
        out["faults.injected"] = self.counts["faults.injected"] * per
        out["checkpoint.snapshots"] = self.calls("checkpoint.write") * per
        out["checkpoint.write_s"] = self.total("checkpoint.write") * per
        out["checkpoint.bytes"] = self.counts["checkpoint.bytes"] * per
        return out
