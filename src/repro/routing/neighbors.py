"""Neighbor discovery over the cluster-head overlay.

Multi-hop routing needs each cluster head to know which other heads it
can actually reach.  :func:`discover` runs the deterministic two-phase
discovery the routing substrates share:

1. **HELLO** — every live head broadcasts one beacon at full radio
   range; every head inside that range hears it and records the sender
   in its neighbor table.
2. **Table sharing** — every head broadcasts its freshly built table
   (neighbors plus its member list), so each head also learns the
   *member-networks* of its overlay neighbors — the information a
   cluster-tree parent needs to aggregate for its subtree.

Both phases are billed to the :class:`~repro.energy.battery.EnergyLedger`
as ordinary radio traffic (``tx`` for each broadcast, ``rx`` per frame
heard), so multi-hop runs pay for their control plane instead of
getting topology knowledge for free.  Discovery is completely
deterministic: no RNG stream is touched, charges are issued in
ascending head order, and the resulting tables depend only on geometry
and liveness.

The radio range is derived from the channel model's crossover distance
``d0`` (the same convention as the QELAR baseline): two heads are
overlay neighbors when their distance is within ``range_factor * d0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..simulation.state import NetworkState

__all__ = ["NeighborTable", "discover"]


@dataclass
class NeighborTable:
    """One round's discovered cluster-head overlay.

    Attributes
    ----------
    heads:
        Live heads that participated in discovery, ascending.
    radio_range:
        The reach used for the adjacency test (``range_factor * d0``).
    neighbors:
        ``head -> sorted array of overlay-neighbor head indices``.
    bs_reachable:
        ``head -> True`` when the base station is inside radio range
        (the head can terminate a route locally).
    members:
        ``head -> member node indices`` — the alive non-head nodes in
        radio range whose nearest live head is this head (the per-CH
        *member table* shared during phase 2).
    member_networks:
        ``head -> member indices of all overlay neighbors`` (the
        *member-networks* view a cluster-tree parent aggregates).
    dist:
        Dense ``(len(heads), len(heads))`` head-to-head distances.
    d_bs:
        Per-head distance to the base station, aligned with ``heads``.
    broadcasts:
        Control frames transmitted during discovery (both phases).
    """

    heads: np.ndarray
    radio_range: float
    neighbors: dict[int, np.ndarray] = field(default_factory=dict)
    bs_reachable: dict[int, bool] = field(default_factory=dict)
    members: dict[int, np.ndarray] = field(default_factory=dict)
    member_networks: dict[int, np.ndarray] = field(default_factory=dict)
    dist: np.ndarray | None = None
    d_bs: np.ndarray | None = None
    broadcasts: int = 0

    def index_of(self, head: int) -> int:
        """Position of ``head`` in :attr:`heads` (raises if absent)."""
        pos = int(np.searchsorted(self.heads, head))
        if pos >= self.heads.size or self.heads[pos] != head:
            raise KeyError(f"node {head} is not in this round's overlay")
        return pos


def discover(
    state: NetworkState,
    heads: np.ndarray,
    range_factor: float,
    hello_bits: int,
) -> NeighborTable:
    """Run the energy-charged discovery phase and build the tables.

    Deterministic by construction — geometry and liveness in, tables
    out; every charge lands on the ledger in ascending head order.
    """
    heads = np.sort(np.asarray(heads, dtype=np.intp))
    live = heads[state.ledger.alive[heads]]
    radio_range = range_factor * state.radio.d0
    table = NeighborTable(heads=live, radio_range=radio_range)
    if live.size == 0:
        return table
    ledger = state.ledger
    radio = state.radio

    d = state.distances_matrix(live, live)
    adj = (d <= radio_range) & ~np.eye(live.size, dtype=bool)
    d_bs = state.topology.d_to_bs[live]
    table.dist = d
    table.d_bs = d_bs

    # Member tables: alive non-head nodes in range whose nearest live
    # head is this head (the hard assignment members actually use).
    # ``owned`` lists them ascending, ``owner`` their head's position.
    others = np.flatnonzero(state.ledger.alive)
    others = others[~np.isin(others, heads)]
    owned, owner = others, np.empty(0, dtype=np.intp)
    if others.size:
        md = state.distances_matrix(others, live)
        nearest = md.argmin(axis=1)
        in_range = md[np.arange(others.size), nearest] <= radio_range
        owned, owner = others[in_range], nearest[in_range]
    for j, h in enumerate(live):
        table.members[int(h)] = owned[owner == j]

    # Phase 1: HELLO beacons.  Broadcasts are priced at full radio
    # range (the beacon must reach the range edge); every head inside
    # hears every beacon and pays rx per frame heard.
    tx_hello = radio.tx(float(hello_bits), radio_range)
    ledger.discharge_many(live, np.full(live.size, tx_hello), "tx")
    deg = adj.sum(axis=1)
    heard = np.flatnonzero(deg > 0)
    if heard.size:
        ledger.discharge_many(
            live[heard], deg[heard] * radio.rx(float(hello_bits)), "rx"
        )

    # Phase 2: table sharing.  Each head broadcasts its table — one
    # entry per neighbor plus its member list — so frame size grows
    # with what was discovered.
    entries = 1 + deg + np.fromiter(
        (table.members[int(h)].size for h in live),
        dtype=np.int64,
        count=live.size,
    )
    share_bits = (hello_bits * entries).astype(np.float64)
    ledger.discharge_many(
        live,
        radio.tx(share_bits, np.full(live.size, radio_range)),
        "tx",
    )
    # radio.rx is scalar-only (E_rx = bits * E_elec); fold the linear
    # per-frame cost across heard neighbors with a matvec.
    rx_share = share_bits * radio.rx(1.0)
    rx_cost = adj.astype(np.float64) @ rx_share
    heard = np.flatnonzero(rx_cost > 0.0)
    if heard.size:
        ledger.discharge_many(live[heard], rx_cost[heard], "rx")
    table.broadcasts = 2 * int(live.size)

    for j, h in enumerate(live):
        nbrs = live[adj[j]]
        table.neighbors[int(h)] = nbrs
        table.bs_reachable[int(h)] = bool(d_bs[j] <= radio_range)
        # Every member has one owner, so the union of the neighbors'
        # member tables is the owned nodes whose owner is a neighbor.
        table.member_networks[int(h)] = owned[adj[j, owner]]
    return table
