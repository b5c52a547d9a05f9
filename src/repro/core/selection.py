"""Improved-DEEC cluster-head selection (paper §3.1, Algorithms 2-3).

Classic DEEC selects heads with probability proportional to residual
energy (Eq. 1) through the rotation threshold T(b_i) (Eq. 3).  The
paper adds two improvements, both implemented here behind flags so the
ablation benchmarks can switch them independently:

1. an *energy threshold* ``E_th(r) = [1 - (r/R)^2] * E_init`` (Eq. 4) a
   node must exceed to stand as a head, keeping nearly-drained nodes
   out of the rotation, and
2. *redundancy reduction* (Algorithm 3): a freshly-selected head
   broadcasts a HELLO carrying its residual energy over the cluster
   coverage radius d_c (Eq. 5); of two heads within d_c of each other,
   the lower-energy one quits.

The paper also specifies a replacement rule ("if a node possesses less
energy than needed, the improved DEEC algorithm will choose another
node up to the demand"), reproduced here as the fallback that promotes
the highest-residual-energy eligible nodes whenever the random draw
produces no head at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..simulation.state import NetworkState
from .theory import cluster_radius

__all__ = ["SelectionConfig", "SelectionResult", "ImprovedDEECSelector",
           "energy_threshold", "rotation_threshold", "spaced_greedy"]

#: Candidates tested per vectorized block in :func:`spaced_greedy`.
GREEDY_CHUNK = 128


def energy_threshold(
    round_index: int, total_rounds: int, initial_energy: np.ndarray
) -> np.ndarray:
    """Eq. (4): per-node minimum energy to stand for head election."""
    if total_rounds < 1:
        raise ValueError("total_rounds must be >= 1")
    if round_index < 0:
        raise ValueError("round_index must be >= 0")
    frac = min(round_index / total_rounds, 1.0)
    return (1.0 - frac * frac) * np.asarray(initial_energy, dtype=np.float64)


def rotation_threshold(p: np.ndarray, round_index: int) -> np.ndarray:
    """Eq. (3): the DEEC election threshold T(b_i) for candidate nodes.

    ``T = p / (1 - p * (r mod (1/p)))``; the caller is responsible for
    zeroing non-candidates.  Output is clipped to [0, 1] (the raw
    expression exceeds 1 late in a rotation window, where selection
    should be certain).
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any((p <= 0.0) | (p > 1.0)):
        raise ValueError("probabilities must lie in (0, 1]")
    epoch = 1.0 / p
    phase = np.mod(round_index, epoch)
    denom = 1.0 - p * phase
    with np.errstate(divide="ignore"):
        t = np.where(denom > 1e-12, p / denom, 1.0)
    return np.clip(t, 0.0, 1.0)


def spaced_greedy(
    positions: np.ndarray,
    order: np.ndarray,
    kept: np.ndarray | list[int],
    d_c: float | None,
    limit: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The d_c-spaced greedy behind Algorithm 3 and the replacement rule.

    Walks ``order`` once: a candidate joins ``kept`` unless a head
    already kept lies within ``d_c`` of it (``d_c=None`` tests no
    spacing), and the walk stops as soon as ``kept`` holds ``limit``
    heads.  Returns ``(kept, rejected)``: the given heads followed by
    the accepted candidates in walk order, and the candidates refused
    for spacing, in walk order.

    This is the per-candidate loop computed in blocks.  Each chunk of
    :data:`GREEDY_CHUNK` candidates is tested against the heads kept
    before it in one ``(chunk x kept)`` block; inside the chunk only
    the unblocked candidates are visited, and each acceptance blocks
    its later neighbors with one vector op.  Every distance is
    ``np.linalg.norm`` of ``kept - candidate``, so each ``d <= d_c``
    decision is the one the loop makes.
    """
    order = np.asarray(order, dtype=np.intp)
    kept = [int(h) for h in kept]
    if limit is None:
        limit = len(kept) + order.size
    if d_c is None:
        room = max(limit - len(kept), 0)
        return (np.asarray(kept + order[:room].tolist(), dtype=np.intp),
                np.empty(0, dtype=np.intp))
    rejected = [np.empty(0, dtype=np.intp)]
    for start in range(0, order.size, GREEDY_CHUNK):
        if len(kept) >= limit:
            break
        chunk = order[start:start + GREEDY_CHUNK]
        pos = positions[chunk]
        d = np.linalg.norm(positions[kept][None, :, :] - pos[:, None, :], axis=-1)
        blocked = (d <= d_c).any(axis=1)
        i = 0  # candidates chunk[:i] are decided
        while len(kept) < limit:
            free = np.flatnonzero(~blocked[i:])
            if free.size == 0:
                i = chunk.size
                break
            i += int(free[0]) + 1
            kept.append(int(chunk[i - 1]))
            d = np.linalg.norm(positions[chunk[i - 1]] - pos[i:], axis=1)
            blocked[i:] |= d <= d_c
        rejected.append(chunk[:i][blocked[:i]])
    return np.asarray(kept, dtype=np.intp), np.concatenate(rejected)


@dataclass(frozen=True)
class SelectionConfig:
    """Feature switches for the selector (ablation knobs)."""

    use_energy_threshold: bool = True
    use_redundancy_reduction: bool = True
    use_rotation: bool = True
    #: Promote top-energy nodes when the random draw elects nobody.
    fallback_promotion: bool = True
    #: Bits in a HELLO control message (charged only when
    #: ``charge_control_traffic`` is set).
    hello_bits: int = 200
    charge_control_traffic: bool = False
    #: How the network-average energy E_bar(r) of Eq. (1) is obtained.
    #: "linear" is Eq. (2) verbatim — valid when the network depletes
    #: by round R; "measured" (default) uses the true average residual,
    #: which keeps the expected head count at exactly k_opt (the
    #: telescoping-sum property below Eq. (2)) in regimes where the
    #: linear-decay assumption does not hold.  See EXPERIMENTS.md.
    energy_estimate: str = "measured"

    def __post_init__(self) -> None:
        if self.energy_estimate not in ("measured", "linear"):
            raise ValueError("energy_estimate must be 'measured' or 'linear'")
        if self.hello_bits < 1:
            raise ValueError("hello_bits must be >= 1")


@dataclass
class SelectionResult:
    """Outcome of one selection round, with diagnostics."""

    heads: np.ndarray
    candidates: np.ndarray
    elected: np.ndarray
    suppressed: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    promoted: bool = False

    @property
    def k(self) -> int:
        return self.heads.size


class ImprovedDEECSelector:
    """Stateful selector implementing Algorithms 2 and 3.

    Parameters
    ----------
    k_target:
        The cluster count k the election is tuned to (p_opt = k/N);
        the paper derives it from Theorem 1.
    config:
        Feature switches.
    """

    def __init__(self, k_target: int, config: SelectionConfig | None = None) -> None:
        if k_target < 1:
            raise ValueError("k_target must be >= 1")
        self.k_target = k_target
        self.config = config if config is not None else SelectionConfig()

    # ------------------------------------------------------------------
    def _probabilities(self, state: NetworkState) -> np.ndarray:
        """Eq. (1): ``p_i = p_opt * E_i(r) / E_bar(r)``, clipped to a
        valid probability."""
        p_opt = self.k_target / state.n
        if self.config.energy_estimate == "linear":
            e_bar = state.average_energy_estimate()
        else:
            e_bar = state.ledger.average_energy()
        if e_bar <= 0.0:
            # Past the planned lifetime R the linear estimate hits
            # zero; fall back to the measured average.
            e_bar = max(state.ledger.average_energy(), 1e-30)
        p = p_opt * state.ledger.residual / e_bar
        return np.clip(p, 1e-9, 0.999)

    def _eligibility(self, state: NetworkState, p: np.ndarray) -> np.ndarray:
        """Candidate-set membership: alive, rotation window elapsed,
        and (optionally) above the Eq. (4) energy threshold."""
        eligible = state.ledger.alive.copy()
        if self.config.use_rotation:
            epoch = 1.0 / p
            since = state.round_index - state.last_ch_round
            eligible &= since >= epoch
        if self.config.use_energy_threshold:
            e_th = energy_threshold(
                state.round_index, state.total_rounds, state.ledger.initial
            )
            eligible &= state.ledger.residual >= e_th
        return eligible

    def _reduce_redundancy(
        self, state: NetworkState, elected: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 3: greedy energy-ordered suppression within d_c.

        Each retained head implicitly "broadcasts a HELLO"; any elected
        node within d_c holding *less* energy quits.  Processing heads
        in descending residual energy reproduces the pairwise rule's
        fixed point deterministically.
        """
        if elected.size <= 1:
            return elected, np.empty(0, dtype=np.intp)
        d_c = cluster_radius(self.k_target, state.config.deployment.side)
        energy = state.ledger.residual[elected]
        order = elected[np.argsort(-energy, kind="stable")]
        return spaced_greedy(state.nodes.positions, order, [], d_c)

    def _promote(
        self, state: NetworkState, heads: np.ndarray, pools
    ) -> np.ndarray:
        """Top up ``heads`` to ``k_target`` by descending residual
        energy, honouring the d_c spacing when redundancy reduction is
        active."""
        d_c = (
            cluster_radius(self.k_target, state.config.deployment.side)
            if self.config.use_redundancy_reduction
            else None
        )
        kept = np.asarray(heads, dtype=np.intp)
        # A candidate refused for spacing stays refused (kept only
        # grows), so a later pool skips it instead of testing it again.
        refused = np.empty(0, dtype=np.intp)
        for pool in pools:
            if kept.size >= self.k_target:
                break
            pool = np.asarray(pool, dtype=np.intp)
            pool = pool[~np.isin(pool, np.concatenate([kept, refused]))]
            if pool.size == 0:
                continue
            order = pool[np.argsort(-state.ledger.residual[pool], kind="stable")]
            kept, newly_refused = spaced_greedy(
                state.nodes.positions, order, kept, d_c, limit=self.k_target
            )
            refused = np.concatenate([refused, newly_refused])
        return kept

    def _charge_hello(self, state: NetworkState, heads: np.ndarray) -> None:
        """Optional control-plane energy: heads broadcast over d_c,
        in-range nodes receive."""
        if not self.config.charge_control_traffic or heads.size == 0:
            return
        d_c = cluster_radius(self.k_target, state.config.deployment.side)
        bits = self.config.hello_bits
        for h in heads:
            state.ledger.discharge(int(h), state.radio.tx(bits, d_c), "tx")
            listeners = state.topology.within_radius(int(h), d_c)
            if listeners.size:
                state.ledger.discharge(listeners, state.radio.rx(bits), "rx")

    # ------------------------------------------------------------------
    def select(self, state: NetworkState) -> SelectionResult:
        """Run one round of Algorithm 2 (+ Algorithm 3)."""
        p = self._probabilities(state)
        eligible = self._eligibility(state, p)
        candidates = np.flatnonzero(eligible)

        t = np.zeros(state.n)
        if candidates.size:
            t[candidates] = rotation_threshold(p[candidates], state.round_index)
        z = state.protocol_rng.random(state.n)
        elected = np.flatnonzero(eligible & (z < t))

        if self.config.use_redundancy_reduction:
            heads, suppressed = self._reduce_redundancy(state, elected)
        else:
            heads, suppressed = elected, np.empty(0, dtype=np.intp)

        promoted = False
        if heads.size < self.k_target and self.config.fallback_promotion:
            # Replacement rule ("choose another node up to the demand to
            # replace it") combined with the paper's stated goal of "a
            # certain cluster number for each round with specific
            # cluster coverage area": top up to k with the highest-
            # residual-energy nodes that keep d_c spacing.  Rotation-
            # eligible candidates are preferred; when they cannot fill
            # the demand, any alive node may serve.
            pools = (candidates, state.alive_indices())
            heads = self._promote(state, heads, pools)
            promoted = True

        self._charge_hello(state, heads)
        return SelectionResult(
            heads=np.asarray(heads, dtype=np.intp),
            candidates=candidates,
            elected=np.asarray(elected, dtype=np.intp),
            suppressed=suppressed,
            promoted=promoted,
        )
