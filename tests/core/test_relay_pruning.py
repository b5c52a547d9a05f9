"""Pruned relay choice ≡ the dense Q block, call by call.

``QRouter.choose_many`` scores a large call's senders only against the
heads that can still win each row (``_q_block_pruned``).  Every test
here builds one relay-choice call, runs it once on the dense block and
once on the pruned path from identical copies of the router, and
asserts bitwise equality of the picks, the V table (compared as int64
bit patterns), the update and evaluation counts, and the tie-break
generator's state after the call.

Pruning is forced through ``_prune_grid`` with a grid of a drawn cell
width, so the certificate is exercised at sizes and widths the
automatic path choice would never pick.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import QLearningConfig
from repro.core.relay_grid import HeadGrid
from repro.core.rewards import RewardModel
from repro.core.routing import QRouter
from repro.network.node import BaseStation, NodeArray
from repro.simulation.state import NetworkState
from tests.conftest import make_config

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
WIDTHS = st.floats(min_value=2.0, max_value=120.0)


def build_call(seed, *, n=60, k=12, side=100.0, v_spread=0.05, qlearning=None,
               shared=True, head_box=None, bs=None, colocate=0, dead=0):
    """A router plus one call's ``(senders, heads)``.

    Senders fill the ``side`` cube; heads fill ``head_box`` (a sub-box,
    default the whole cube).  ``colocate`` heads share one position,
    energy and V (exact ties); ``dead`` heads are killed.
    """
    rng = np.random.default_rng(seed)
    lo, hi = head_box if head_box is not None else (0.0, side)
    n_total = n + k
    pos = rng.uniform(0.0, side, (n_total, 3))
    pos[n:] = rng.uniform(lo, hi, (k, 3))
    energy = rng.uniform(0.5, 1.0, n_total)
    if colocate:
        pos[n:n + colocate] = pos[n]
        energy[n:n + colocate] = energy[n]
    bs_pos = bs if bs is not None else (side / 2, side / 2, side / 2)
    config = make_config(
        n_nodes=n_total, side=side, seed=int(seed % 1000),
        qlearning=qlearning or QLearningConfig(),
        estimator_shared=shared,
    )
    state = NetworkState(
        config, nodes=NodeArray(pos, energy), bs=BaseStation(tuple(bs_pos)),
        initial_energy=energy,
    )
    est = state.link_estimator
    if shared:
        est._shared_row[:] = rng.uniform(0.0, 1.0, est._shared_row.size)
    else:
        est._est[:] = rng.uniform(0.0, 1.0, est._est.shape)
    rewards = RewardModel(
        config.qlearning, state.radio, config.traffic.packet_bits,
        energy_scale=1.0,
    )
    router = QRouter(state, rewards, config.qlearning)
    v = rng.uniform(-v_spread, 0.0, n_total + 1)
    if colocate:
        v[n:n + colocate] = v[n]
    router.v.set_many(np.arange(n_total + 1), v)
    heads = np.arange(n, n_total)
    if dead:
        state.ledger.drain(heads[-dead:], energy[-dead:])
        assert not state.ledger.alive[heads[-dead:]].any()
    return router, np.arange(n), heads


def assert_pruned_equals_dense(router, senders, heads, width, seed=0):
    """Run the call both ways; return how many rows fell back to dense."""
    dense, pruned = copy.deepcopy(router), copy.deepcopy(router)
    dense._prune_grid = lambda nodes, hd: None
    grid = HeadGrid(pruned.state.nodes.positions[heads], width)
    pruned._prune_grid = lambda nodes, hd: grid
    fallback = []
    block = pruned._q_block
    pruned._q_block = lambda nodes, hd: fallback.append(len(nodes)) or block(nodes, hd)
    rng_d, rng_p = np.random.default_rng(seed), np.random.default_rng(seed)

    picks_d = dense.choose_many(senders, heads, rng=rng_d)
    picks_p = pruned.choose_many(senders, heads, rng=rng_p)

    np.testing.assert_array_equal(picks_p, picks_d)
    np.testing.assert_array_equal(
        pruned.v.values.view(np.int64), dense.v.values.view(np.int64)
    )
    assert pruned.v.update_count == dense.v.update_count
    assert pruned.q_evaluations == dense.q_evaluations == senders.size * (heads.size + 1)
    assert rng_p.bit_generator.state == rng_d.bit_generator.state
    return sum(fallback)


@given(seed=SEEDS, width=WIDTHS)
@settings(max_examples=40, deadline=None)
def test_random_deployments(seed, width):
    router, senders, heads = build_call(seed)
    assert_pruned_equals_dense(router, senders, heads, width, seed)


@given(seed=SEEDS, width=WIDTHS, colocate=st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_exact_ties_between_colocated_heads(seed, width, colocate):
    # Equal position, energy, V and p: the tied heads' Q are equal bit
    # for bit, so rows choosing among them consume tie-break draws.
    router, senders, heads = build_call(seed, colocate=colocate, v_spread=0.0)
    router.state.link_estimator._shared_row[:] = 1.0
    assert_pruned_equals_dense(router, senders, heads, width, seed)


@given(seed=SEEDS, width=WIDTHS)
@settings(max_examples=25, deadline=None)
def test_senders_outside_the_heads_bounding_box(seed, width):
    router, senders, heads = build_call(seed, side=300.0, head_box=(120.0, 180.0))
    assert_pruned_equals_dense(router, senders, heads, width, seed)


@given(seed=SEEDS, width=WIDTHS)
@settings(max_examples=20, deadline=None)
def test_single_head(seed, width):
    router, senders, heads = build_call(seed, k=1)
    assert_pruned_equals_dense(router, senders, heads, width, seed)


@given(seed=SEEDS, width=WIDTHS, penalty=st.sampled_from([0.0, 0.01, 100.0]))
@settings(max_examples=25, deadline=None)
def test_bs_nearer_than_every_head(seed, width, penalty):
    # Senders and the BS sit in one corner, every head in the far one.
    router, senders, heads = build_call(
        seed, side=300.0, head_box=(250.0, 300.0), bs=(20.0, 20.0, 20.0),
        qlearning=QLearningConfig(bs_penalty=penalty),
    )
    pos = router.state.nodes.positions.copy()
    pos[senders] = np.random.default_rng(seed).uniform(0.0, 60.0, (senders.size, 3))
    router.state.update_positions(pos)
    assert_pruned_equals_dense(router, senders, heads, width, seed)


@given(seed=SEEDS, width=WIDTHS)
@settings(max_examples=20, deadline=None)
def test_no_cost_weight_never_prunes(seed, width):
    # alpha2 = beta2 = 0: Q does not fall with distance, so no row can
    # be certified unless its block already holds every head.
    qcfg = QLearningConfig(alpha2=0.0, beta2=0.0)
    router, senders, heads = build_call(seed, qlearning=qcfg)
    assert router._prune_grid(senders, heads) is None
    fallback = assert_pruned_equals_dense(router, senders, heads, width, seed)
    grid = HeadGrid(router.state.nodes.positions[heads], width)
    _, _, gap = grid.neighbours(router.state.nodes.positions[senders])
    assert fallback == int(np.isfinite(gap).sum())


@given(
    seed=SEEDS, width=WIDTHS,
    alpha2=st.floats(0.0, 5.0), beta2=st.floats(0.0, 5.0),
    alpha1=st.floats(0.0, 1.0), beta1=st.floats(0.0, 1.0),
    gamma=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_unequal_reward_weights(seed, width, alpha2, beta2, alpha1, beta1, gamma):
    qcfg = QLearningConfig(
        alpha1=alpha1, alpha2=alpha2, beta1=beta1, beta2=beta2, gamma=gamma,
    )
    router, senders, heads = build_call(seed, qlearning=qcfg)
    assert_pruned_equals_dense(router, senders, heads, width, seed)


@given(seed=SEEDS, width=WIDTHS)
@settings(max_examples=25, deadline=None)
def test_per_pair_estimator(seed, width):
    router, senders, heads = build_call(seed, shared=False)
    assert_pruned_equals_dense(router, senders, heads, width, seed)


@given(seed=SEEDS, width=WIDTHS, dead=st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_dead_heads_stay_in_the_action_set(seed, width, dead):
    router, senders, heads = build_call(seed, dead=dead)
    assert_pruned_equals_dense(router, senders, heads, width, seed)


@given(seed=SEEDS)
@settings(max_examples=20, deadline=None)
def test_wide_v_spread_falls_back(seed):
    # A V spread far above any cost difference in the cube: most rows
    # whose block misses a head cannot be certified and go dense.
    router, senders, heads = build_call(seed, v_spread=50.0)
    assert assert_pruned_equals_dense(router, senders, heads, 20.0, seed) > 0


def test_out_of_range_estimate_raises_on_both_paths():
    router, senders, heads = build_call(0)
    router.state.link_estimator._shared_row[heads[0]] = 1.5
    grid = HeadGrid(router.state.nodes.positions[heads], 30.0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        router._q_block(senders, heads)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        router._q_block_pruned(senders, heads, grid)


class TestPathChoice:
    def test_large_uniform_call_prunes(self):
        router, senders, heads = build_call(1, n=2000, k=300, side=300.0, v_spread=0.0)
        router.state.link_estimator._shared_row[:] = 1.0
        grid = router._prune_grid(senders, heads)
        assert grid is not None
        assert grid.scored_share <= 0.25

    def test_small_block_stays_dense(self):
        # Paper scale: k = 5 and at most 100 senders.
        router, senders, heads = build_call(1, n=100, k=5)
        assert router._prune_grid(senders, heads) is None

    def test_wide_head_spread_stays_dense(self):
        # The cost difference that outweighs the spread needs cells as
        # wide as the cube: a 3x3x3 block would cover every head.
        router, senders, heads = build_call(1, n=2000, k=300, side=300.0, v_spread=2.0)
        assert router._prune_grid(senders, heads) is None

    @pytest.mark.parametrize(
        "kwargs",
        [{"epsilon": 0.1}, {"learning_rate": 0.5}],
        ids=["epsilon-greedy", "sampled-td"],
    )
    def test_non_greedy_or_sampled_backups_stay_dense(self, kwargs):
        router, senders, heads = build_call(1, n=2000, k=300, side=300.0, v_spread=0.0)
        other = QRouter(router.state, router.rewards, router.cfg, **kwargs)
        assert router._prune_grid(senders, heads) is not None
        assert other._prune_grid(senders, heads) is None

    def test_router_keeps_no_grid_between_calls(self):
        router, senders, heads = build_call(1, n=2000, k=300, side=300.0, v_spread=0.0)
        before = set(vars(router))
        router.choose_many(senders, heads, rng=np.random.default_rng(0))
        assert set(vars(router)) == before
