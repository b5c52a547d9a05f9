"""Shared fixtures for the test suite.

Small, fast scenario builders: tests that need a full network use a
30-node cube and a handful of rounds so the whole suite stays quick
while still exercising every code path a Table-2 run does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    DeploymentConfig,
    QueueConfig,
    SimulationConfig,
    TrafficConfig,
)
from repro.simulation.state import NetworkState


def make_config(
    n_nodes: int = 30,
    side: float = 120.0,
    initial_energy: float = 0.2,
    rounds: int = 5,
    n_clusters: int = 3,
    mean_interarrival: float = 4.0,
    seed: int = 0,
    **kwargs,
) -> SimulationConfig:
    """A small but fully-featured scenario."""
    return SimulationConfig(
        deployment=DeploymentConfig(
            n_nodes=n_nodes, side=side, initial_energy=initial_energy
        ),
        traffic=TrafficConfig(mean_interarrival=mean_interarrival),
        queue=QueueConfig(),
        rounds=rounds,
        n_clusters=n_clusters,
        seed=seed,
        **kwargs,
    )


@pytest.fixture
def small_config() -> SimulationConfig:
    return make_config()


@pytest.fixture
def small_state(small_config) -> NetworkState:
    return NetworkState(small_config)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def assert_fold_matches(result) -> dict:
    """Fold ``result``'s event log and check it against the counters of
    the run's ``ShardRunResult``; returns the folded status row."""
    from repro.parallel import fold_events, load_artifact
    from repro.telemetry.jsonl import read_jsonl_tolerant

    rows = {
        r["cell_id"]: r
        for r in load_artifact(result.path).records
        if "cell_id" in r
    }
    fresh = [rows[c] for c in result.executed] + result.errors
    done = len(result.skipped) + len(fresh)
    expected = {
        "done": done,
        "failed": len(result.errors),
        "retried": sum(r["attempts"] > 1 for r in fresh),
        "resumed": len(result.skipped),
        "reclaimed": result.reclaims,
        "state": "complete" if done == len(result.cells) else "stopped",
    }
    status = fold_events(read_jsonl_tolerant(result.events_path))
    assert {k: status[k] for k in expected} == expected
    return status
