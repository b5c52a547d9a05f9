"""Batched slot kernel vs scalar reference mode.

``SimulationEngine(batched=False)`` differs from the default in exactly
one step: relay choice runs as a per-sender ``choose_relay`` loop
instead of one ``choose_relays`` call.  Everything else — energy
batches, channel draws, queue operations, estimator updates — is
shared code, so the two modes must produce *bit-identical* traces for
every protocol.  That identity is what makes the scalar mode a valid
baseline for the slot-kernel benchmark.
"""

import numpy as np
import pytest

from repro.analysis import PROTOCOLS
from repro.checkpoint import CHECKPOINT_SCHEMA, read_checkpoint, write_checkpoint
from repro.config import (
    DeploymentConfig,
    QueueConfig,
    RoutingConfig,
    SimulationConfig,
    TrafficConfig,
    paper_config,
)
from repro.core import QLECProtocol
from repro.core.routing import QRouter
from repro.core.selection import ImprovedDEECSelector
from repro.datasets import load_power_plants
from repro.energy.harvesting import HarvestingConfig
from repro.network.mobility import MobilityConfig
from repro.simulation.engine import SimulationEngine


def fingerprint(result):
    rows = []
    for rs in result.per_round:
        p = rs.packets
        rows.append(
            (
                rs.round_index, rs.n_heads, rs.n_alive, rs.energy_consumed,
                p.generated, p.delivered, p.dropped_channel, p.dropped_queue,
                p.dropped_dead, p.expired, p.total_latency_slots,
                p.total_hops, rs.mean_queue_peak, rs.v_updates,
            )
        )
    return rows


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_engine_modes_bit_identical(name):
    cfg = paper_config(seed=3, rounds=4)
    batched = SimulationEngine(cfg, PROTOCOLS[name](), batched=True).run()
    scalar = SimulationEngine(cfg, PROTOCOLS[name](), batched=False).run()
    assert fingerprint(batched) == fingerprint(scalar)
    assert batched.packets.latencies == scalar.packets.latencies
    assert batched.total_energy == scalar.total_energy


def _relay_choices(name: str, batched: bool) -> np.ndarray:
    """Drive a fresh engine two rounds, then ask the protocol for one
    slot's relay choices in the requested mode.

    Both calls see identical protocol/network state (the two modes are
    bit-identical through the warm-up, per the test above), so any
    difference isolates ``choose_relays`` vs the scalar loop.
    """
    cfg = paper_config(seed=5, rounds=4)
    engine = SimulationEngine(cfg, PROTOCOLS[name](), batched=batched)
    for _ in range(2):
        engine.run_round()
    st = engine.state
    proto = engine.protocol
    heads = proto.validate_heads(st, proto.select_cluster_heads(st))
    alive = np.flatnonzero(st.ledger.alive)
    senders = alive[~np.isin(alive, heads)]
    qlens = np.zeros(heads.size, dtype=np.int64)
    if batched:
        return np.asarray(proto.choose_relays(st, senders, heads, qlens))
    return np.array(
        [proto.choose_relay(st, int(s), heads, qlens) for s in senders],
        dtype=np.intp,
    )


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_choose_relays_matches_scalar_loop(name):
    batched = _relay_choices(name, batched=True)
    scalar = _relay_choices(name, batched=False)
    assert batched.tolist() == scalar.tolist()


def _pruning_config(rounds: int = 3) -> SimulationConfig:
    """Large enough that every slot's relay choice takes the pruned path
    (~800 senders x 121 actions, 120 heads in a 200 m cube), with nodes
    moving and harvesting between rounds."""
    return SimulationConfig(
        deployment=DeploymentConfig(n_nodes=2000, side=200.0, initial_energy=2.0),
        traffic=TrafficConfig(mean_interarrival=2.0),
        queue=QueueConfig(),
        rounds=rounds,
        n_clusters=120,
        seed=11,
        mobility=MobilityConfig(speed=5.0),
        harvesting=HarvestingConfig(model="solar", mean_income=0.01),
    )


def test_pruned_relay_choice_scalar_equals_batched(monkeypatch, tmp_path):
    pruned_rounds = set()
    pruned_block = QRouter._q_block_pruned

    def spy(self, nodes, heads, grid):
        q, v_new, targets = pruned_block(self, nodes, heads, grid)
        if np.isinf(q).any():  # some entries really were left unscored
            pruned_rounds.add(self.state.round_index)
        return q, v_new, targets

    monkeypatch.setattr(QRouter, "_q_block_pruned", spy)
    cfg = _pruning_config()
    batched_engine = SimulationEngine(cfg, QLECProtocol(), batched=True)
    batched = batched_engine.run()
    assert pruned_rounds == set(range(cfg.rounds))

    scalar_engine = SimulationEngine(cfg, QLECProtocol(), batched=False)
    scalar = scalar_engine.run()
    assert fingerprint(batched) == fingerprint(scalar)
    assert batched.packets.latencies == scalar.packets.latencies
    assert batched.total_energy == scalar.total_energy
    np.testing.assert_array_equal(
        batched_engine.protocol.router.v.values.view(np.int64),
        scalar_engine.protocol.router.v.values.view(np.int64),
    )

    # The grid is rebuilt per call and never stored: a checkpoint taken
    # mid-run keeps its schema and resumes to the uninterrupted result.
    interrupted = SimulationEngine(cfg, QLECProtocol(), batched=True)
    interrupted.run_round()
    path = tmp_path / "run-r00000001.ckpt"
    header = write_checkpoint(interrupted, path)
    assert header["schema"] == CHECKPOINT_SCHEMA == 1
    _, restored = read_checkpoint(path)
    resumed = restored.run()
    assert fingerprint(resumed) == fingerprint(batched)
    assert resumed.total_energy == batched.total_energy


def _plants_engine(batched: bool) -> SimulationEngine:
    """Fig. 4's regime at 600 clustered plants: k = 120 is far more
    heads than d_c spacing admits, so promotion walks both pools."""
    dataset = load_power_plants(None, n_fallback=600, rng=np.random.default_rng(0))
    nodes, bs, energies = dataset.to_network(side=250.0)
    cfg = SimulationConfig(
        deployment=DeploymentConfig(
            n_nodes=nodes.n, side=250.0,
            initial_energy=float(energies.mean()), bs_position=tuple(bs.position),
        ),
        traffic=TrafficConfig(mean_interarrival=16.0),
        queue=QueueConfig(),
        rounds=3,
        n_clusters=120,
        seed=4,
        routing=RoutingConfig(kind="tree"),
    )
    return SimulationEngine(cfg, QLECProtocol(), nodes=nodes, bs=bs,
                            initial_energy=energies, batched=batched)


def test_exhausted_promotion_scalar_equals_batched(monkeypatch, tmp_path):
    short_rounds = set()
    promote = ImprovedDEECSelector._promote

    def spy(self, state, heads, pools):
        kept = promote(self, state, heads, pools)
        if kept.size < self.k_target:  # both pools walked to the end
            short_rounds.add(state.round_index)
        return kept

    monkeypatch.setattr(ImprovedDEECSelector, "_promote", spy)
    batched_engine = _plants_engine(batched=True)
    batched = batched_engine.run()
    assert short_rounds == {0, 1, 2}

    scalar = _plants_engine(batched=False).run()
    assert fingerprint(batched) == fingerprint(scalar)
    assert batched.packets.latencies == scalar.packets.latencies
    assert batched.total_energy == scalar.total_energy

    interrupted = _plants_engine(batched=True)
    interrupted.run_round()
    path = tmp_path / "run-r00000001.ckpt"
    write_checkpoint(interrupted, path)
    _, restored = read_checkpoint(path)
    resumed = restored.run()
    assert fingerprint(resumed) == fingerprint(batched)
    assert resumed.total_energy == batched.total_energy
