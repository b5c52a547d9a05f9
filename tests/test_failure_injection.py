"""Failure-injection tests: the system must degrade gracefully, never
crash, and keep its accounting invariants under hostile conditions.

The adverse conditions are expressed through the ``repro.faults`` plan
API — seeded, scheduled, and accounted — rather than by poking engine
internals; one regression test keeps the direct ``channel.blackout``
toggle alive because ad-hoc state injection between rounds is itself a
supported (if unaccounted) debugging technique.
"""

import pytest

from repro.baselines import DirectProtocol, KMeansProtocol
from repro.config import QueueConfig
from repro.core import QLECProtocol
from repro.faults import FaultEvent, FaultPlan
from repro.simulation.engine import SimulationEngine, run_simulation
from tests.conftest import make_config


class TestChannelBlackout:
    @pytest.mark.parametrize("protocol_cls", [QLECProtocol, KMeansProtocol])
    def test_total_blackout_delivers_nothing(self, protocol_cls):
        plan = FaultPlan(
            events=(FaultEvent(kind="blackout", round=0, duration=5),),
        )
        result = run_simulation(make_config(seed=1, faults=plan), protocol_cls())
        result.validate()
        assert result.packets.delivered == 0
        # Senders still burned energy on the attempts.
        assert result.total_energy > 0.0
        assert result.faults["injected"] == 1

    def test_blackout_mid_run(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="blackout", round=3, duration=3),),
        )
        engine = SimulationEngine(
            make_config(seed=2, rounds=6, faults=plan), QLECProtocol()
        )
        for _ in range(3):
            engine.run_round()
        delivered_before = engine._totals.delivered
        for _ in range(3):
            engine.run_round()
        assert engine._totals.delivered == delivered_before

    def test_direct_blackout_poke_still_works(self):
        """Regression: toggling ``channel.blackout`` by hand between
        rounds (no plan, no accounting) must keep behaving — it is the
        escape hatch for conditions the plan language cannot express."""
        engine = SimulationEngine(make_config(seed=1), QLECProtocol())
        engine.state.channel.blackout = True
        result = engine.run()
        result.validate()
        assert result.packets.delivered == 0
        assert result.faults is None  # unplanned chaos is unaccounted


class TestQueueStarvation:
    def test_zero_capacity_queues(self):
        config = make_config(seed=3).replace(
            queue=QueueConfig(capacity=0, service_rate=1)
        )
        result = run_simulation(config, QLECProtocol())
        result.validate()
        # Every head-bound packet bounced; only channel losses add up.
        assert result.packets.delivered == 0 or result.packets.dropped_queue > 0

    def test_queue_clamp_window(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="queue_clamp", round=1, duration=2, capacity=1),
            ),
        )
        result = run_simulation(
            make_config(seed=3, mean_interarrival=2.0, faults=plan),
            QLECProtocol(),
        )
        result.validate()
        assert result.faults["events_by_kind"].get("queue_clamp") == 1


class TestMassDeath:
    def test_engine_survives_total_network_death(self):
        config = make_config(
            seed=4, initial_energy=0.0005, rounds=10, mean_interarrival=1.0
        )
        result = run_simulation(config, QLECProtocol())
        result.validate()
        assert result.first_death_round is not None

    def test_headless_rounds_fall_back_to_direct(self):
        """Kill every candidate head: the engine must route direct."""
        config = make_config(seed=5, rounds=2)
        engine = SimulationEngine(config, DirectProtocol())
        result = engine.run()
        assert result.packets.mean_hops <= 1.0

    def test_half_population_crash_mid_run_accounted(self):
        """Crashing half the population mid-run must not break packet
        conservation, and every death must carry its cause."""
        config = make_config(seed=6, rounds=6, mean_interarrival=2.0)
        n = config.deployment.n_nodes
        plan = FaultPlan(
            events=(
                FaultEvent(kind="crash", round=1, nodes=tuple(range(0, n, 2))),
            ),
        )
        result = run_simulation(config.replace(faults=plan), KMeansProtocol())
        result.validate()
        p = result.packets
        assert p.generated >= p.delivered + p.dropped
        assert result.faults["deaths_by_cause"]["crash"] == n // 2 + n % 2

    def test_churn_revives_crashed_nodes(self):
        config = make_config(seed=6, rounds=6)
        victims = (0, 1, 2)
        plan = FaultPlan(
            events=(
                FaultEvent(kind="crash", round=1, nodes=victims),
                FaultEvent(kind="revive", round=3, nodes=victims),
            ),
        )
        result = run_simulation(config.replace(faults=plan), QLECProtocol())
        result.validate()
        assert result.faults["revived"] == len(victims)


class TestDegenerateScales:
    def test_single_node_network(self):
        config = make_config(n_nodes=1, n_clusters=1, seed=7)
        result = run_simulation(config, DirectProtocol())
        result.validate()

    def test_two_node_network_with_clustering(self):
        config = make_config(n_nodes=2, n_clusters=1, seed=8)
        result = run_simulation(config, QLECProtocol())
        result.validate()

    def test_k_larger_than_population(self):
        config = make_config(n_nodes=4, n_clusters=10, seed=9)
        result = run_simulation(config, QLECProtocol())
        result.validate()

    def test_one_round(self):
        config = make_config(rounds=1, seed=10)
        result = run_simulation(config, QLECProtocol())
        assert result.rounds_executed == 1

    def test_one_slot_per_round(self):
        from repro.config import TrafficConfig

        config = make_config(seed=11).replace(
            traffic=TrafficConfig(mean_interarrival=2.0, slots_per_round=1)
        )
        result = run_simulation(config, QLECProtocol())
        result.validate()

    def test_crash_entire_population_via_plan(self):
        """A plan that kills everyone: the engine must finish the run
        with empty rounds and conserved accounting."""
        config = make_config(seed=12, rounds=4)
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind="crash", round=1,
                    nodes=tuple(range(config.deployment.n_nodes)),
                ),
            ),
        )
        result = run_simulation(config.replace(faults=plan), QLECProtocol())
        result.validate()
        assert result.n_alive_final == 0
