"""Q-learning packet routing (paper §4.2, Algorithm 4).

For each non-cluster-head node ``b_i`` the state space is
``S(b_i) = {b_i, h_BS} ∪ H`` and each action ``a_j`` forwards the
packet to head ``h_j`` (or directly to the BS).  Algorithm 4 is a
*model-based expected backup*: using the ACK-estimated link
probabilities ``P^{a_j}_{b_i h_j}`` the node computes, for every
action,

    Q*(b_i, a_j) = R_t + gamma * (P * V*(h_j) + (1 - P) * V*(b_i))

then updates ``V*(b_i) = max_j Q*`` and forwards to the argmax head.
Nodes never need to *take* an action to evaluate it — exactly the
paper's point about Q-learning with a known local model.

Cluster heads run the same backup for their single BS action at round
end (Algorithm 1, line 15); the BS penalty ``l`` of Eq. (19) does not
apply to heads, whose designated job is the BS uplink.

Two extensions beyond the paper are provided for the ablation study:
``epsilon``-greedy exploration, and a *sampled* TD backup
(``learning_rate`` is not None) replacing the expected one.
"""

from __future__ import annotations

import numpy as np

from ..config import QLearningConfig
from ..rl.policies import EpsilonGreedyPolicy, GreedyPolicy, Policy
from ..rl.qtable import VTable
from ..simulation.state import NetworkState
from .relay_grid import HeadGrid
from .rewards import RewardModel

__all__ = ["QRouter"]

#: Smallest ``senders x (k+1)`` block worth pruning; below it building
#: the grid costs more than the dense block it would save.
PRUNE_MIN_BLOCK = 1 << 14
#: Prune only when a sender's 3x3x3 block of cells is expected to hold
#: at most this share of the heads.
PRUNE_MAX_SHARE = 0.25
#: Relative rounding margin of the pruning certificate: far above the
#: few ulps by which the computed Q and bound can stray.
PRUNE_MARGIN = 2.0**-30


class QRouter:
    """Per-run routing brain shared by all nodes (the V "matrix").

    Parameters
    ----------
    state:
        The network this router observes (link estimates, residual
        energies, geometry).
    reward_model:
        Evaluator of Eqs. (16)-(20).
    qconfig:
        Discount and convergence parameters.
    epsilon:
        Exploration rate for relay choice; the paper's algorithm is
        purely greedy (epsilon = 0).
    learning_rate:
        When given, Q backups become sampled TD updates with this step
        size instead of full expected backups (ablation variant).
    """

    def __init__(
        self,
        state: NetworkState,
        reward_model: RewardModel,
        qconfig: QLearningConfig,
        epsilon: float = 0.0,
        learning_rate: float | None = None,
        policy: Policy | None = None,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if learning_rate is not None and not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        self.state = state
        self.rewards = reward_model
        self.cfg = qconfig
        self.epsilon = epsilon
        self.learning_rate = learning_rate
        if policy is not None:
            self.policy: Policy = policy
        elif epsilon > 0.0:
            self.policy = EpsilonGreedyPolicy(epsilon)
        else:
            self.policy = GreedyPolicy()
        self.v = VTable(state.n)
        #: Kernel backend for the batched Q block (shared with every
        #: substrate of the state; bit-identical across backends).
        self.kernels = state.kernels
        #: Number of Q evaluations in the logical action sets (the
        #: per-call k+1 of Lemma 3), counted the same whether or not
        #: relay choice pruned the block; together with
        #: ``v.update_count`` this measures X.
        self.q_evaluations = 0

    # ------------------------------------------------------------------
    def action_targets(self, heads: np.ndarray) -> np.ndarray:
        """The action set A(b_i): every head plus the direct-BS action."""
        heads = np.asarray(heads, dtype=np.intp)
        return np.concatenate([heads, [self.state.bs_index]])

    def q_values(self, node: int, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized Algorithm 4, line 1: Q*(b_i, a_j) for all actions.

        Returns ``(q, targets)`` where ``targets[j]`` is the relay
        reached by action j (the last entry is the base station).
        """
        st = self.state
        targets = self.action_targets(heads)
        distances = st.distances_from(node, targets)
        p = st.link_estimator.row(node)[targets]
        # Residual energy of each candidate; the BS is mains-powered —
        # its x(.) contribution is pinned to 0 so Eq. (19)'s penalty l
        # alone governs the direct-uplink tradeoff.
        is_bs = targets == st.bs_index
        e_dst = np.where(
            is_bs, 0.0, st.ledger.residual[np.where(is_bs, 0, targets)]
        )
        r_t = self.rewards.expected_reward(
            p, float(st.ledger.residual[node]), e_dst, distances, is_bs
        )
        v_targets = self.v.get_many(targets)
        q = r_t + self.cfg.gamma * (p * v_targets + (1.0 - p) * self.v[node])
        self.q_evaluations += q.size
        return q, targets

    # ------------------------------------------------------------------
    def choose(self, node: int, heads: np.ndarray,
               rng: np.random.Generator | None = None) -> int:
        """Algorithm 4: back up V(b_i) and return the chosen relay."""
        heads = np.asarray(heads, dtype=np.intp)
        if heads.size == 0:
            return self.state.bs_index
        q, targets = self.q_values(node, heads)
        v_new = float(q.max())
        if self.learning_rate is None:
            self.v[node] = v_new
        else:
            old = self.v[node]
            self.v[node] = old + self.learning_rate * (v_new - old)
        return int(targets[self.policy.select(q, rng)])

    def _action_terms(
        self, nodes: np.ndarray, heads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The per-column half of the Q block: ``(targets, p, is_bs,
        x_dst, v_targets)``.

        ``p`` is the ``(len(nodes), k+1)`` link-estimate block.  A shared
        estimator holds one row, so the ``k+1`` targets are gathered and
        range-checked once and the row is broadcast; per-pair estimates
        are gathered as a block.  Either way every value the block scores
        is checked.
        """
        st = self.state
        targets = self.action_targets(heads)
        est = st.link_estimator
        if est.shared:
            p = np.broadcast_to(est.row(0)[targets], (nodes.size, targets.size))
            scored = p[:1]  # the one distinct row (none without senders)
        else:
            p = np.asarray(est.estimates[np.ix_(nodes, targets)], dtype=np.float64)
            scored = p
        if np.any((scored < 0.0) | (scored > 1.0)):
            raise ValueError("success probabilities must lie in [0, 1]")
        is_bs = targets == st.bs_index
        e_dst = np.where(
            is_bs, 0.0, st.ledger.residual[np.where(is_bs, 0, targets)]
        )
        return targets, p, is_bs, self.rewards.x(e_dst), self.v.get_many(targets)

    def _expected_q(self, p, y, x_src, x_dst, is_bs, v_targets, v_self):
        c = self.rewards.cfg
        return self.kernels.expected_q(
            p, y, x_src, x_dst, is_bs, v_targets, v_self,
            g=c.g,
            alpha1=c.alpha1,
            alpha2=c.alpha2,
            beta1=c.beta1,
            beta2=c.beta2,
            bs_penalty=c.bs_penalty,
            gamma=self.cfg.gamma,
        )

    def _q_block(
        self, nodes: np.ndarray, heads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched Q block + fused row max on the kernel backend.

        Returns ``(q, v_new, targets)``.  Row i of ``q`` is bitwise
        identical to ``q_values(nodes[i], heads)[0]``: the distances,
        the transcendental cost ``y`` (the radio's ``d**4``) and the
        residual normalisations are computed by the same shared numpy
        code as the scalar path, and the backend's ``expected_q``
        combine preserves the reference's per-element expression tree
        exactly (see :mod:`repro.kernels.base`).  This dense block is
        the contract every other relay-choice path reproduces.
        """
        st = self.state
        nodes = np.asarray(nodes, dtype=np.intp)
        targets, p, is_bs, x_dst, v_targets = self._action_terms(nodes, heads)
        q, v_new = self._expected_q(
            p,
            self.rewards.y(st.distances_matrix(nodes, targets)),
            self.rewards.x(st.ledger.residual[nodes]),
            x_dst,
            is_bs,
            v_targets,
            self.v.get_many(nodes),
        )
        return q, v_new, targets

    def _prune_grid(self, nodes: np.ndarray, heads: np.ndarray) -> HeadGrid | None:
        """Decide, from what this call can observe, whether to prune.

        Pruning needs the paper's greedy expected backup (argmax plus
        its tie set is all that is used), the bitwise tier (the pruned
        path scores pairs with the exact pair-distance kernel), a cost
        term in both reward branches, and a block large enough to
        repay building the grid.  The grid's cells are at least as wide
        as the distance whose cost outweighs a typical head's deficit in
        the head term ``alpha1 x(h) + gamma V(h)`` (largest minus
        median); when a 3x3x3 block of such cells would cover much of
        the grid the bound cannot prune enough, and the dense block is
        cheaper.
        """
        c = self.rewards.cfg
        if (
            type(self.policy) is not GreedyPolicy
            or self.learning_rate is not None
            or self.kernels.equivalence != "bitwise"
            or min(c.alpha2, c.beta2) <= 0.0
            or nodes.size * (heads.size + 1) < PRUNE_MIN_BLOCK
        ):
            return None
        st = self.state
        head_terms = c.alpha1 * self.rewards.x(st.ledger.residual[heads]) + (
            self.cfg.gamma * self.v.get_many(heads)
        )
        spread = float(head_terms.max() - np.median(head_terms))
        if not np.isfinite(spread):
            return None
        grid = HeadGrid.for_heads(
            st.nodes.positions[heads], self.rewards.reach(spread / c.alpha2)
        )
        return grid if grid.scored_share <= PRUNE_MAX_SHARE else None

    def _q_block_pruned(
        self, nodes: np.ndarray, heads: np.ndarray, grid: HeadGrid
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_q_block` with provably losing entries left unscored.

        Returns ``(q, v_new, targets)`` like the dense block, except
        that an entry this path did not score holds ``-inf``.  Every
        scored entry is bitwise the dense value, each row's maximum and
        tied set are the dense row's, and so are ``v_new`` and whatever
        the greedy policy picks from ``q``.

        Each sender is scored against the BS and the heads in the 3x3x3
        grid block around it.  Any other head ``j`` lies at least
        ``gap`` away, and its Q is linear in ``p`` in ``[0, 1]``, so

            Q <= max(-g + alpha1 (x_i + x_j) - alpha2 y + gamma V_j,
                     -g + beta1 x_i - beta2 y + gamma V_i)

        with ``y >= y(gap)`` (y grows with distance) and ``alpha1 x_j +
        gamma V_j`` at most its largest value over the heads.  A row
        whose bound, plus a rounding margin, falls strictly below its
        best scored Q is certified; every other row is scored on the
        dense block.
        """
        st = self.state
        c = self.rewards.cfg
        gamma = self.cfg.gamma
        nodes = np.asarray(nodes, dtype=np.intp)
        targets, p, is_bs, x_dst, v_targets = self._action_terms(nodes, heads)
        n, k = nodes.size, heads.size
        x_src = self.rewards.x(st.ledger.residual[nodes])
        v_src = self.v.get_many(nodes)
        src = st.nodes.positions[nodes]

        rows, cols, gap = grid.neighbours(src)
        d = np.concatenate([
            self.kernels.distance_pairs(src[rows], st.nodes.positions[heads[cols]]),
            st.topology.d_to_bs[nodes],
        ])
        rows = np.concatenate([rows, np.arange(n)])
        cols = np.concatenate([cols, np.full(n, k)])
        q_pairs, _ = self._expected_q(
            p[rows, cols][:, None],
            self.rewards.y(d)[:, None],
            x_src[rows],
            x_dst[cols][:, None],
            is_bs[cols][:, None],
            v_targets[cols][:, None],
            v_src[rows],
        )
        q = np.full((n, k + 1), -np.inf)
        q[rows, cols] = q_pairs[:, 0]
        v_new = q.max(axis=1)

        head_terms = c.alpha1 * x_dst[:k] + gamma * v_targets[:k]
        bounded = np.isfinite(gap)
        y_lb = self.rewards.y(np.where(bounded, gap, 0.0))
        bound = np.maximum(
            -c.g + c.alpha1 * x_src + head_terms.max() - c.alpha2 * y_lb,
            -c.g + c.beta1 * x_src - c.beta2 * y_lb + gamma * v_src,
        )
        magnitude = (
            abs(c.g)
            + (c.alpha1 + c.beta1) * np.abs(x_src)
            + c.alpha1 * np.abs(x_dst[:k]).max()
            + (c.alpha2 + c.beta2) * y_lb
            + gamma * (np.abs(v_targets[:k]).max() + np.abs(v_src))
            + np.abs(v_new)
        )
        bound = np.where(bounded, bound + PRUNE_MARGIN * magnitude, -np.inf)
        # A zero maximum is left to the dense block: max() may return
        # either sign of zero depending on which entries it compares.
        dense = np.flatnonzero(~(bound < v_new) | (v_new == 0.0))
        if dense.size:
            q[dense], v_new[dense], _ = self._q_block(nodes[dense], heads)
        return q, v_new, targets

    def choose_many(
        self,
        nodes: np.ndarray,
        heads: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Batched Algorithm 4 over one slot's senders.

        Valid because senders are non-heads whose backups only write
        their *own* V entry: within a slot the updates are independent,
        so the batch equals the sequential sorted-order loop (the
        engine's canonical order) exactly — including the policy's
        tie-break draws, consumed in row order.

        Large calls under the greedy policy score only the heads that
        can still win each row (:meth:`_q_block_pruned`); picks, V
        values and tie-break draws are bitwise those of the dense
        block.  ``q_evaluations`` counts the logical action set,
        ``len(nodes) * (k+1)``, on every path (Lemma 3's accounting);
        the work actually scored shows up as ``expected_q`` elements
        under kernel profiling.
        """
        nodes = np.asarray(nodes, dtype=np.intp)
        heads = np.asarray(heads, dtype=np.intp)
        if heads.size == 0:
            return np.full(nodes.size, self.state.bs_index, dtype=np.intp)
        grid = self._prune_grid(nodes, heads)
        if grid is None:
            q, v_new, targets = self._q_block(nodes, heads)
        else:
            q, v_new, targets = self._q_block_pruned(nodes, heads, grid)
        self.q_evaluations += q.size
        if self.learning_rate is None:
            self.v.set_many(nodes, v_new)
        else:
            old = self.v.get_many(nodes)
            self.v.set_many(nodes, old + self.learning_rate * (v_new - old))
        return targets[self.policy.select_batch(q, rng)]

    def ch_backup(self, head: int) -> None:
        """Algorithm 1, line 15: a head refreshes its V from the BS
        uplink action.

        No BS penalty applies (the uplink is the head's designated
        job), and the cost term prices the *compressed* per-packet
        share of the aggregate — the "processed data" the head actually
        transmits after fusion.
        """
        st = self.state
        d = st.distance(head, st.bs_index)
        p = st.link_estimator.get(head, st.bs_index)
        compressed = st.config.compression_ratio * st.config.traffic.packet_bits
        r_t = float(
            self.rewards.expected_reward(
                p, float(st.ledger.residual[head]), 0.0, d,
                is_bs=None, bits=compressed,
            )
        )
        q = r_t + self.cfg.gamma * (p * self.v[st.bs_index] + (1.0 - p) * self.v[head])
        self.v[head] = q
        self.q_evaluations += 1

    def ch_backup_many(self, heads: np.ndarray) -> None:
        """Batched :meth:`ch_backup` over one round's live heads.

        Heads write only their own V entries and read only the BS's
        (never another head's), so the batch equals the sequential loop
        exactly — every term is the same elementwise arithmetic.
        """
        heads = np.asarray(heads, dtype=np.intp)
        if heads.size == 0:
            return
        st = self.state
        d = st.topology.d_to_bs[heads]
        p = st.link_estimator.estimates[heads, st.bs_index]
        compressed = st.config.compression_ratio * st.config.traffic.packet_bits
        r_t = self.rewards.expected_reward(
            p, st.ledger.residual[heads], 0.0, d, is_bs=None, bits=compressed
        )
        q = r_t + self.cfg.gamma * (
            p * self.v[st.bs_index] + (1.0 - p) * self.v.get_many(heads)
        )
        self.v.set_many(heads, q)
        self.q_evaluations += heads.size

    # ------------------------------------------------------------------
    def relax(self, node_indices: np.ndarray, heads: np.ndarray) -> int:
        """Iterate expected backups over ``node_indices`` until the V
        table converges (paper §3.3: "update V values ... so that V can
        converge very fast").

        Returns the number of full sweeps used.  The total single-entry
        update count is available via ``self.v.update_count`` — the X of
        Lemma 3's O(kX) bound.
        """
        node_indices = np.asarray(node_indices, dtype=np.intp)
        heads = np.asarray(heads, dtype=np.intp)
        if node_indices.size == 0 or heads.size == 0:
            return 0
        for sweep in range(1, self.cfg.max_backups + 1):
            delta = 0.0
            for node in node_indices:
                q, _ = self.q_values(int(node), heads)
                v_new = float(q.max())
                delta = max(delta, abs(v_new - self.v[int(node)]))
                self.v[int(node)] = v_new
            if delta < self.cfg.tol:
                return sweep
        return self.cfg.max_backups
