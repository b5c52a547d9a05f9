"""The blocked d_c-spaced greedy is the per-candidate loop, bit for bit.

``spaced_greedy`` runs Algorithm 3's redundancy reduction and the
replacement rule's top-up in vectorized chunks.  The oracle below keeps
the two per-candidate loops the selector used before, verbatim; every
test asserts equal heads (order included), equal ``suppressed`` and an
equal ``promoted`` flag.
"""

from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import selection
from repro.core.selection import (
    GREEDY_CHUNK,
    ImprovedDEECSelector,
    SelectionConfig,
    spaced_greedy,
)
from repro.core.theory import cluster_radius
from repro.datasets import load_power_plants
from repro.network.node import BaseStation, NodeArray
from repro.simulation.state import NetworkState
from tests.conftest import make_config


class LoopSelector(ImprovedDEECSelector):
    """The selector with its original per-candidate loops (the oracle)."""

    def _reduce_redundancy(self, state, elected):
        if elected.size <= 1:
            return elected, np.empty(0, dtype=np.intp)
        d_c = cluster_radius(self.k_target, state.config.deployment.side)
        energy = state.ledger.residual[elected]
        order = elected[np.argsort(-energy, kind="stable")]
        positions = state.nodes.positions
        kept: list[int] = []
        suppressed: list[int] = []
        for h in order:
            if kept:
                d = np.linalg.norm(positions[kept] - positions[h], axis=1)
                if np.any(d <= d_c):
                    suppressed.append(int(h))
                    continue
            kept.append(int(h))
        return np.asarray(kept, dtype=np.intp), np.asarray(suppressed, dtype=np.intp)

    def _promote(self, state, heads, pools):
        d_c = (
            cluster_radius(self.k_target, state.config.deployment.side)
            if self.config.use_redundancy_reduction
            else 0.0
        )
        positions = state.nodes.positions
        kept = [int(h) for h in heads]
        for pool in pools:
            if len(kept) >= self.k_target:
                break
            pool = np.asarray(pool, dtype=np.intp)
            pool = pool[~np.isin(pool, kept)]
            if pool.size == 0:
                continue
            order = pool[np.argsort(-state.ledger.residual[pool], kind="stable")]
            for cand in order:
                if len(kept) >= self.k_target:
                    break
                if d_c > 0.0 and kept:
                    d = np.linalg.norm(positions[kept] - positions[cand], axis=1)
                    if np.any(d <= d_c):
                        continue
                kept.append(int(cand))
        return np.asarray(kept, dtype=np.intp)


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def make_state(positions, energies=None, k=4, side=100.0, seed=0):
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    energies = np.full(n, 0.5) if energies is None else np.asarray(energies, float)
    cfg = make_config(n_nodes=n, side=side, n_clusters=k, seed=seed,
                      initial_energy=float(energies.mean()))
    nodes = NodeArray(positions, energies)
    return NetworkState(cfg, nodes=nodes, bs=BaseStation((side / 2,) * 3),
                        initial_energy=energies)


def compare_select(build, k, config=None):
    """Run both selectors on identical fresh states; return the result."""
    want = LoopSelector(k, config).select(build())
    got = ImprovedDEECSelector(k, config).select(build())
    assert_same_array(got.heads, want.heads)
    assert_same_array(got.suppressed, want.suppressed)
    assert_same_array(got.elected, want.elected)
    assert got.promoted == want.promoted
    return got


def compare_methods(state, k, elected, heads, pools, config=None):
    """Both halves on explicit inputs, so pools can be any size."""
    oracle, fast = LoopSelector(k, config), ImprovedDEECSelector(k, config)
    elected = np.asarray(elected, dtype=np.intp)
    for got, want in zip(fast._reduce_redundancy(state, elected),
                         oracle._reduce_redundancy(state, elected)):
        assert_same_array(got, want)
    heads = np.asarray(heads, dtype=np.intp)
    assert_same_array(fast._promote(state, heads, pools),
                      oracle._promote(state, heads, pools))


def lattice(k, side, step_in_dc, shape):
    """Grid points spaced ``step_in_dc * d_c`` apart, so neighboring
    pairs sit at (or within rounding of) a multiple of d_c."""
    d_c = cluster_radius(k, side)
    idx = np.stack(np.meshgrid(*(np.arange(s) for s in shape), indexing="ij"),
                   axis=-1).reshape(-1, 3)
    return idx * (step_in_dc * d_c)


positions_3d = st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.sampled_from([0.0, 5.0, 12.5, 20.0, 33.3, 50.0])
                    | st.floats(0.0, 60.0)] * 3),
        min_size=n, max_size=n,
    )
)


class TestSpacedGreedy:
    @given(
        pts=positions_3d,
        d_c=st.sampled_from([5.0, 12.5, 20.0]) | st.floats(0.1, 40.0),
        chunk=st.integers(1, 9),
        limit=st.none() | st.integers(0, 70),
        n_seed=st.integers(0, 3),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_loop(self, pts, d_c, chunk, limit, n_seed, data):
        """Random orders over co-located and lattice-valued points, with
        chunks far smaller than the pool and limits hit anywhere."""
        positions = np.asarray(pts, dtype=np.float64)
        n = positions.shape[0]
        order = np.asarray(data.draw(st.permutations(range(n))), dtype=np.intp)
        n_seed = min(n_seed, n)
        seed_heads, order = order[:n_seed], order[n_seed:]

        kept = [int(h) for h in seed_heads]
        rejected = []
        for c in order:
            if limit is not None and len(kept) >= limit:
                break
            if kept:
                d = np.linalg.norm(positions[kept] - positions[c], axis=1)
                if np.any(d <= d_c):
                    rejected.append(int(c))
                    continue
            kept.append(int(c))

        with mock.patch.object(selection, "GREEDY_CHUNK", chunk):
            got_kept, got_rejected = spaced_greedy(
                positions, order, seed_heads, d_c, limit=limit
            )
        assert_same_array(got_kept, np.asarray(kept, dtype=np.intp))
        assert_same_array(got_rejected, np.asarray(rejected, dtype=np.intp))

    def test_no_spacing_takes_the_prefix(self):
        positions = np.zeros((5, 3))
        kept, rejected = spaced_greedy(positions, [4, 3, 2, 1], [0], None, limit=3)
        assert kept.tolist() == [0, 4, 3]
        assert rejected.size == 0
        kept, _ = spaced_greedy(positions, [4, 3], [0, 1, 2], None, limit=2)
        assert kept.tolist() == [0, 1, 2]

    def test_empty_order(self):
        kept, rejected = spaced_greedy(np.zeros((2, 3)), [], [1], 1.0, limit=5)
        assert kept.tolist() == [1]
        assert rejected.dtype == np.intp and rejected.size == 0


class TestSelectorMatchesLoops:
    def test_lattice_pairs_at_exactly_dc(self):
        k, side = 8, 100.0
        for step in (1.0, 0.5, 2.0, 1.0 / 3.0):
            pts = lattice(k, side, step, (7, 6, 5))
            state = make_state(pts, k=k, side=side)
            everyone = np.arange(state.n)
            compare_methods(state, k, everyone, [], (everyone, everyone))
            compare_select(partial(make_state, pts, k=k, side=side), k)

    def test_co_located_nodes(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0, 100, size=(40, 3))
        pts = np.repeat(base, 5, axis=0)  # five nodes on every site
        energies = rng.uniform(0.1, 1.0, size=pts.shape[0])
        state = make_state(pts, energies, k=12)
        everyone = np.arange(state.n)
        compare_methods(state, 12, everyone, [], (everyone[::2], everyone))
        compare_select(partial(make_state, pts, energies, k=12), 12)

    def test_equal_residuals_keep_the_stable_order(self):
        pts = np.random.default_rng(2).uniform(0, 100, size=(300, 3))
        state = make_state(pts, k=20)  # homogeneous energies
        everyone = np.arange(state.n)
        compare_methods(state, 20, everyone[::-1], [], (everyone[::-1], everyone))
        compare_select(partial(make_state, pts, k=20), 20)

    @pytest.mark.parametrize("k", [3, 40, 250])
    def test_pools_longer_than_one_chunk(self, k):
        n = 3 * GREEDY_CHUNK + 17
        rng = np.random.default_rng(k)
        pts = rng.uniform(0, 100, size=(n, 3))
        energies = rng.uniform(0.05, 1.0, size=n)
        state = make_state(pts, energies, k=k)
        everyone = np.arange(n)
        compare_methods(state, k, everyone, [], (everyone[: n // 2], everyone))
        compare_methods(state, k, everyone, everyone[:2], (everyone,))
        compare_methods(state, k, [], [], (everyone[::3], everyone[::2], everyone))

    @pytest.mark.parametrize("stop", [1, 7, GREEDY_CHUNK // 2, GREEDY_CHUNK - 1,
                                      GREEDY_CHUNK, GREEDY_CHUNK + 5])
    def test_k_target_reached_mid_chunk(self, stop):
        """Spacing off, or on with a tiny d_c, so every candidate is
        accepted and the walk stops exactly at ``stop`` heads."""
        n = 2 * GREEDY_CHUNK + 3
        pts = np.random.default_rng(stop).uniform(0, 100, size=(n, 3))
        state = make_state(pts, k=stop, side=1e-3)  # d_c ~ 1e-4
        everyone = np.arange(n)
        for cfg in (None, SelectionConfig(use_redundancy_reduction=False)):
            compare_methods(state, stop, [], [], (everyone,), cfg)
            compare_methods(state, stop, [], everyone[:1], (everyone[:3], everyone), cfg)
        got = ImprovedDEECSelector(stop)._promote(state, np.empty(0, np.intp),
                                                  (everyone,))
        assert got.size == stop

    def test_empty_pools_and_elected_sets(self):
        pts = np.random.default_rng(3).uniform(0, 100, size=(30, 3))
        state = make_state(pts, k=5)
        empty = np.empty(0, dtype=np.intp)
        compare_methods(state, 5, empty, empty, (empty, empty))
        compare_methods(state, 5, [4], [4], (empty, np.arange(30)))
        compare_methods(state, 5, [4, 9], [], (np.arange(30), empty))

    def test_without_redundancy_reduction(self):
        pts = np.repeat(np.random.default_rng(4).uniform(0, 100, (20, 3)), 3, axis=0)
        cfg = SelectionConfig(use_redundancy_reduction=False)
        for seed in range(5):
            got = compare_select(
                partial(make_state, pts, k=10, seed=seed), 10, cfg
            )
            assert got.suppressed.size == 0

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 60),
           n=st.integers(2, 400),
           rr=st.booleans(), rotation=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_rounds(self, seed, k, n, rr, rotation):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 100, size=(n, 3))
        energies = rng.choice([0.2, 0.5, 0.8], size=n)  # many equal residuals
        cfg = SelectionConfig(use_redundancy_reduction=rr, use_rotation=rotation)
        compare_select(partial(make_state, pts, energies, k=k, seed=seed), k, cfg)

    def test_clustered_plants_exhaust_both_pools(self):
        """The Fig. 4 regime: clustered plants, k far above what d_c
        spacing admits, so promotion walks both pools to the end."""
        dataset = load_power_plants(None, n_fallback=600,
                                    rng=np.random.default_rng(0))
        nodes, bs, energies = dataset.to_network(side=250.0)
        k = 120

        def build():
            cfg = make_config(n_nodes=nodes.n, side=250.0, n_clusters=k,
                              initial_energy=float(energies.mean()))
            return NetworkState(cfg, nodes=nodes, bs=bs, initial_energy=energies)

        got = compare_select(build, k)
        assert got.promoted and got.k < k
        state = build()
        compare_methods(state, k, state.alive_indices(), [],
                        (state.alive_indices()[::3], state.alive_indices()))
