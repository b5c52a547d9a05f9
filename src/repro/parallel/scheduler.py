"""Work-stealing sweep scheduler with lease-based fault recovery.

Static rank-mod-``K`` sharding (:mod:`repro.parallel.sharding`) wastes
hosts whenever cell costs are skewed: a shard that drew the large-``N``
or chaos cells runs long after its siblings went idle.  This module
replaces the frozen assignment with a *scheduler* — a work-queue over
the same stable cell IDs — while keeping every determinism contract the
static path established: a completed scheduled run merges bit-for-bit
equal to the serial ``sweep_protocols`` run on every deterministic
metric.

Two layers:

* :class:`SweepScheduler` — a **pure state machine** (no I/O, no
  processes, injectable clock).  Cells start in per-worker *home
  queues* dealt by the same :func:`~repro.parallel.sharding.partition_cells`
  rank partition, so locality mirrors static sharding when costs are
  even; an idle worker whose home queue drained **steals** from the
  longest remaining queue.  Every running cell is covered by a
  :class:`Lease` with a deadline; an expired lease — or a dead worker —
  is **reclaimed** and the cell re-queued.  Failure handling rides the
  PR-5 fault taxonomy: a *deterministic* failure
  (:func:`~repro.parallel.sharding.classify_error`) becomes a
  ``cell-error`` row immediately (replaying a pure function cannot
  change the outcome); a *transient* one re-leases up to
  ``max_lease_attempts`` times.  The machine guarantees **exactly-once
  rows**: however leases, steals, reclaims, and duplicate completions
  interleave, each cell contributes exactly one ``cell`` or
  ``cell-error`` record (the hypothesis property suite drives random
  interleavings against this invariant).

* :func:`_run_grid` — the **sweep driver**, the one body behind
  :func:`run_scheduled` (whole grid, ``shard 0/0`` marker) and
  :func:`~repro.parallel.sharding.run_shard` (one static shard,
  ``k/K``): resume mining, the atomic rewrite, streamed rows, the event
  log, drain.  Cells run in-process for a serial or one-worker static
  shard; otherwise each worker is a separate ``multiprocessing``
  process fed over a pipe.  A worker death (SIGKILL, OOM) surfaces as
  pipe EOF: the coordinator reclaims its lease, counts a worker death,
  and respawns a replacement, so a chaos-killed fleet heals itself.

Every invocation of the driver appends one **event log**,
``<artifact>.events.jsonl``: a ``start`` record, the state machine's
events (lease grants, steals, completions, errors, reclaims, requeues,
worker deaths, duplicate drops), a ``drain`` record if one was
requested, and a terminal ``finish``.  The log is per-run ephemera — it
never merges, fingerprints or feeds a resume — but ``repro status`` is
a fold over it (:func:`fold_events`), and the chaos tests assert
re-lease decisions from it.  :data:`EVENT_FIELDS` is its schema.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from ..telemetry.jsonl import JsonlWriter
from ..telemetry.registry import merge_snapshots
from .pool import default_workers, fold_results
from .sharding import (
    CELL_KIND,
    SHARD_TELEMETRY_KIND,
    ShardRunResult,
    SweepCell,
    SweepSpec,
    _cell_record,
    _dump,
    _error_record,
    _guarded_cell,
    _write_artifact,
    artifact_compression,
    load_artifact,
    partition_cells,
)

__all__ = [
    "EVENT_FIELDS",
    "EVENT_KEYS",
    "EVENT_LOG_SCHEMA",
    "SWEEP_EVENT_KIND",
    "Lease",
    "SweepScheduler",
    "event_log_path",
    "find_event_logs",
    "fold_events",
    "run_scheduled",
]

#: Record discriminator of every event-log line.
SWEEP_EVENT_KIND = "sweep-event"
#: Schema version of the event log, stamped on its ``start`` record.
EVENT_LOG_SCHEMA = 1
#: Smoothing factor of the per-cell latency EWMA in :func:`fold_events`.
EWMA_ALPHA = 0.3

_NUM = (int, float)
#: Keys -> type(s) every event-log record carries: ``seq`` counts the
#: log's records from 1, ``t`` is monotonic seconds since its start.
EVENT_KEYS = {"kind": str, "seq": int, "event": str, "t": _NUM}
_CELL = {"cell_id": str, "worker": str}
_TERMINAL = {**_CELL, "attempts": int, "compute_s": _NUM}
#: Required payload keys -> type(s) of each ``event`` verb.  ``grant``
#: counts lease grants of the cell; ``attempts`` is the artifact row's
#: in-worker attempt count; ``compute_s`` the wall time the cell's
#: runner spent on it (0 for a ``LeaseExhausted`` row: no runner
#: reported).
EVENT_FIELDS = {
    "start": {
        "schema": int,
        "spec_fingerprint": str,
        "shard": int,
        "num_shards": int,
        "cells_total": int,
        "resumed": int,
        "started_unix": _NUM,
    },
    "lease": {**_CELL, "grant": int},
    "steal": {**_CELL, "grant": int},
    "reclaim": {**_CELL, "grant": int, "reason": str},
    "requeue": {"cell_id": str, "grant": int, "reason": str},
    "worker-dead": {
        "worker": str, "cell_id": (str, type(None)), "reason": str,
    },
    "complete": _TERMINAL,
    "error": {
        **_TERMINAL, "grant": int, "error_class": str, "error_type": str,
    },
    "duplicate": _CELL,
    "stale-failure": _CELL,
    "drain": {},
    "finish": {"state": str},
}

#: Default lease duration; generous because workers cannot heartbeat
#: mid-cell (they run the simulation synchronously) — expiry is the
#: straggler backstop, pipe EOF is the fast death path.
DEFAULT_LEASE_SECONDS = 300.0

#: Default bound on lease attempts per cell: a cell that keeps taking
#: its worker down with it must eventually become an error row, not an
#: infinite respawn loop.
DEFAULT_MAX_LEASE_ATTEMPTS = 3


def event_log_path(artifact_path) -> Path:
    """The event log of an artifact (``<name>.events.jsonl``)."""
    p = Path(artifact_path)
    return p.with_name(p.name + ".events.jsonl")


def find_event_logs(paths) -> list[Path]:
    """Resolve ``repro status`` operands to existing event logs.

    A directory contributes every ``*.events.jsonl`` beneath it
    (sorted), a log contributes itself, and any other path its own log;
    duplicates are dropped, first mention kept.
    """
    found: dict[Path, Path] = {}
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = sorted(p.glob("**/*.events.jsonl"))
        elif p.name.endswith(".events.jsonl"):
            candidates = [p]
        else:
            candidates = [event_log_path(p)]
        for log in candidates:
            if log.exists():
                found.setdefault(log.resolve(), log)
    return list(found.values())


def fold_events(records) -> dict:
    """Fold one event log into a status row; a pure function.

    ``records`` are the log's lines in order; the first ``sweep-event``
    must be the ``start`` record, else ``ValueError``.  ``done`` counts
    resumed plus finished cells, ``failed`` error rows, ``retried`` rows
    that took more than one in-worker attempt.  The per-cell latency
    EWMA runs over the gaps between successive terminal events; the ETA
    is that EWMA times the cells remaining — ``None`` before the first
    cell or once the run stopped, ``0.0`` when nothing remains.
    ``compute_s`` sums the terminal events' compute time; on an
    in-process run ``elapsed_seconds - compute_s`` is the driver's
    overhead.
    """
    events = [r for r in records if r.get("kind") == SWEEP_EVENT_KIND]
    if not events or events[0].get("event") != "start":
        raise ValueError("no 'start' record")
    start, last = events[0], events[-1]
    verbs = Counter(e["event"] for e in events)
    terminal = [e for e in events if e["event"] in ("complete", "error")]
    ewma: float | None = None
    t_last = start["t"]
    for e in terminal:
        dt, t_last = e["t"] - t_last, e["t"]
        ewma = dt if ewma is None else ewma + EWMA_ALPHA * (dt - ewma)
    done = start["resumed"] + len(terminal)
    if last["event"] == "finish":
        state = last["state"]
    else:
        state = "draining" if verbs["drain"] else "running"
    remaining = max(0, start["cells_total"] - done)
    if state == "stopped":
        eta = None
    elif state == "complete" or remaining == 0:
        eta = 0.0
    else:
        eta = None if ewma is None else ewma * remaining
    return {
        **{k: start[k] for k in (
            "spec_fingerprint", "shard", "num_shards", "cells_total",
            "resumed",
        )},
        "done": done,
        "failed": verbs["error"],
        "retried": sum(e["attempts"] > 1 for e in terminal),
        "steals": verbs["steal"],
        "reclaimed": verbs["reclaim"],
        "compute_s": sum((e["compute_s"] for e in terminal), 0.0),
        "ewma_cell_seconds": ewma,
        "eta_seconds": eta,
        "elapsed_seconds": last["t"],
        "updated_unix": start["started_unix"] + last["t"],
        "state": state,
    }


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one cell, bounded by a deadline."""

    cell_id: str
    worker: str
    attempt: int  # 1-based count of lease grants for this cell
    deadline: float
    stolen: bool = False


class SweepScheduler:
    """The pure work-stealing lease state machine.

    Parameters
    ----------
    cells:
        The cells still to run (canonical enumeration order; resumed
        cells are simply not handed in).
    num_queues:
        Home-queue count — normally the worker-fleet size.  Queue
        assignment is the rank partition of
        :func:`~repro.parallel.sharding.partition_cells`, so a
        never-stealing run visits cells exactly as static shards would.
    lease_seconds / max_lease_attempts:
        Lease duration and the per-cell bound on grants; exceeding the
        bound synthesises a transient ``LeaseExhausted`` error row.

    Every cell is, at any instant, in exactly one of four places:
    queued, leased, finished-as-row, or finished-as-error
    (:meth:`check_invariants` asserts the partition; the property
    suite calls it after every operation).  All mutating methods take
    ``now`` explicitly — the machine never reads a clock.
    """

    def __init__(
        self,
        cells: list[SweepCell],
        num_queues: int,
        *,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_lease_attempts: int = DEFAULT_MAX_LEASE_ATTEMPTS,
    ) -> None:
        if num_queues < 1:
            raise ValueError("num_queues must be >= 1")
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if max_lease_attempts < 1:
            raise ValueError("max_lease_attempts must be >= 1")
        self.cells = {c.cell_id: c for c in cells}
        if len(self.cells) != len(cells):
            raise ValueError("duplicate cell IDs")
        self._order = {c.cell_id: i for i, c in enumerate(cells)}
        # Home-queue rank: same sorted-cell-ID ranking partition_cells
        # uses, so a requeued cell returns to the queue it started in.
        self._rank = {
            cid: i for i, cid in enumerate(sorted(self.cells))
        }
        self.num_queues = num_queues
        self.lease_seconds = float(lease_seconds)
        self.max_lease_attempts = int(max_lease_attempts)
        self.queues: list[deque[str]] = [
            deque(c.cell_id for c in q)
            for q in partition_cells(cells, num_queues)
        ]
        #: cell_id -> live lease (at most one per cell *and* per worker).
        self.leases: dict[str, Lease] = {}
        #: cell_id -> total lease grants so far.
        self.attempts: dict[str, int] = {}
        #: Finished cells: exactly-once rows, keyed by cell ID.
        self.rows: dict[str, dict] = {}
        self.errors: dict[str, dict] = {}
        self.events: list[dict] = []
        self.steals = 0
        self.reclaims = 0
        self.duplicates = 0
        self._seq = 0

    # -- queries -------------------------------------------------------
    @property
    def finished(self) -> bool:
        return len(self.rows) + len(self.errors) == len(self.cells)

    def lease_of(self, worker: str) -> Lease | None:
        for lease in self.leases.values():
            if lease.worker == worker:
                return lease
        return None

    # -- events --------------------------------------------------------
    def _event(self, event: str, **payload) -> dict:
        self._seq += 1
        record = {
            "kind": SWEEP_EVENT_KIND,
            "seq": self._seq,
            "event": event,
            **payload,
        }
        self.events.append(record)
        return record

    # -- acquire / steal ----------------------------------------------
    def acquire(
        self, worker: str, worker_index: int, now: float
    ) -> SweepCell | None:
        """Grant ``worker`` a lease on its next cell, stealing if idle.

        Pops from the worker's home queue (``worker_index mod
        num_queues``) first; an empty home queue steals from the back
        of the *longest* other queue (ties break to the lowest index —
        victim selection is deterministic, a pure function of queue
        lengths).  Returns ``None`` when no cell is runnable right now
        (all queued work finished or leased elsewhere).
        """
        if self.lease_of(worker) is not None:
            raise ValueError(f"worker {worker!r} already holds a lease")
        home = worker_index % self.num_queues
        cell_id = self._pop(home)
        stolen = False
        if cell_id is None:
            victim = self._victim(home)
            if victim is not None:
                cell_id = self._pop(victim, steal=True)
                stolen = cell_id is not None
        if cell_id is None:
            return None
        attempt = self.attempts.get(cell_id, 0) + 1
        self.attempts[cell_id] = attempt
        lease = Lease(
            cell_id=cell_id,
            worker=worker,
            attempt=attempt,
            deadline=now + self.lease_seconds,
            stolen=stolen,
        )
        self.leases[cell_id] = lease
        if stolen:
            self.steals += 1
        self._event(
            "steal" if stolen else "lease",
            cell_id=cell_id,
            worker=worker,
            grant=attempt,
        )
        return self.cells[cell_id]

    def _pop(self, queue_index: int, steal: bool = False) -> str | None:
        q = self.queues[queue_index]
        while q:
            # A thief takes from the back (the victim's coldest work);
            # the owner drains from the front — the classic deque split.
            cell_id = q.pop() if steal else q.popleft()
            if cell_id not in self.rows and cell_id not in self.errors:
                return cell_id
        return None

    def _victim(self, home: int) -> int | None:
        best, best_len = None, 0
        for i, q in enumerate(self.queues):
            if i != home and len(q) > best_len:
                best, best_len = i, len(q)
        return best

    # -- heartbeat / expiry -------------------------------------------
    def heartbeat(self, worker: str, now: float) -> None:
        """Extend the deadline of ``worker``'s lease (liveness signal)."""
        lease = self.lease_of(worker)
        if lease is not None:
            self.leases[lease.cell_id] = replace(
                lease, deadline=now + self.lease_seconds
            )

    def reclaim_expired(self, now: float) -> list[str]:
        """Reclaim every lease whose deadline passed; requeue the cells.

        Expiry is indistinguishable from a wedged-or-dead worker, so it
        is treated as a transient failure: the cell re-leases (home
        queue of its next claimant) unless its attempt budget is
        exhausted, in which case a synthetic ``LeaseExhausted``
        transient error row records the casualty.  If the original
        worker was merely slow and completes later, the late result is
        still accepted (first result wins; the re-leased twin becomes a
        counted duplicate).
        """
        expired = [
            lease for lease in self.leases.values() if lease.deadline <= now
        ]
        for lease in expired:
            self._reclaim(lease, reason="lease-expired")
        return [lease.cell_id for lease in expired]

    def worker_lost(self, worker: str, now: float, reason: str = "died") -> None:
        """Reclaim the lease of a worker that will never report back.

        A process death is environmental by definition — transient —
        so the in-flight cell re-queues for another worker, bounded by
        the attempt budget.
        """
        lease = self.lease_of(worker)
        self._event(
            "worker-dead",
            worker=worker,
            cell_id=None if lease is None else lease.cell_id,
            reason=reason,
        )
        if lease is not None:
            self._reclaim(lease, reason=reason)

    def _reclaim(self, lease: Lease, reason: str) -> None:
        self.reclaims += 1
        self._event(
            "reclaim",
            cell_id=lease.cell_id,
            worker=lease.worker,
            grant=lease.attempt,
            reason=reason,
        )
        del self.leases[lease.cell_id]
        if lease.attempt >= self.max_lease_attempts:
            error = {
                "type": "LeaseExhausted",
                "message": (
                    f"{lease.attempt} lease(s) lost "
                    f"(last: {reason}) without a result"
                ),
                "class": "transient",
            }
            self._error(
                lease.cell_id, lease.worker, error, lease.attempt,
                lease.attempt, compute_s=0.0,
            )
        else:
            self._requeue(lease.cell_id, lease.attempt, reason)

    def _requeue(self, cell_id: str, attempt: int, reason: str) -> None:
        # Back of the cell's home-rank queue: the next claimant is
        # whoever drains (or steals from) that queue first.
        self.queues[self._rank[cell_id] % self.num_queues].append(cell_id)
        self._event("requeue", cell_id=cell_id, grant=attempt, reason=reason)

    def _error(
        self,
        cell_id: str,
        worker: str,
        error: dict,
        attempts: int,
        grants: int,
        compute_s: float,
    ) -> dict:
        self._purge(cell_id)
        record = _error_record(self.cells[cell_id], error, attempts)
        self.errors[cell_id] = record
        self._event(
            "error",
            cell_id=cell_id,
            worker=worker,
            attempts=attempts,
            grant=grants,
            compute_s=compute_s,
            error_class=error.get("class", "transient"),
            error_type=error.get("type", "Exception"),
        )
        return record

    # -- completion / failure -----------------------------------------
    def _duplicate(self, cell_id: str, worker: str) -> bool:
        """Whether a report concerns an already-finished cell (counted
        and dropped); unknown cells raise."""
        if cell_id not in self.cells:
            raise ValueError(f"unknown cell {cell_id}")
        if cell_id in self.rows or cell_id in self.errors:
            self.duplicates += 1
            self._event("duplicate", cell_id=cell_id, worker=worker)
            return True
        return False

    def complete(
        self,
        worker: str,
        cell_id: str,
        summary: dict,
        attempts: int,
        now: float,
        compute_s: float,
    ) -> dict | None:
        """Accept one cell result; returns the artifact record, or
        ``None`` for a duplicate.

        First result wins: a result for an already-finished cell (the
        re-leased twin of a slow-but-alive worker, or a worker whose
        lease was reclaimed) is dropped and counted — cells are
        deterministic, so the dropped copy carried the same values.  A
        result from a worker that lost its lease but whose cell is
        still unfinished is *accepted*: the computation is valid
        regardless of who holds the paper.  ``compute_s``, the runner's
        wall time on the cell, rides on the ``complete`` event.
        """
        if self._duplicate(cell_id, worker):
            return None
        self.leases.pop(cell_id, None)
        self._purge(cell_id)
        record = _cell_record(self.cells[cell_id], summary, attempts)
        self.rows[cell_id] = record
        self._event(
            "complete",
            cell_id=cell_id,
            worker=worker,
            attempts=attempts,
            compute_s=compute_s,
        )
        return record

    def fail(
        self,
        worker: str,
        cell_id: str,
        error: dict,
        attempts: int,
        now: float,
        compute_s: float,
    ) -> dict | None:
        """Record one cell failure; returns an error record iff the
        cell is now finished (deterministic failure or exhausted
        budget), ``None`` if it re-leased or the report was stale.

        ``error`` is the payload :func:`_guarded_cell` ships home
        (``type``/``message``/``class``).  The ``class`` decides:
        deterministic → ``cell-error`` row *immediately*, no re-lease;
        transient → requeue until ``max_lease_attempts`` grants are
        spent, then an error row.
        """
        if self._duplicate(cell_id, worker):
            return None
        lease = self.leases.get(cell_id)
        if lease is None or lease.worker != worker:
            # A reporter whose lease was reclaimed (cell re-queued, or
            # re-granted to another worker): its failure says nothing
            # the reclaim didn't already — acting on it would queue the
            # cell twice.  Late *successes* are different: complete()
            # accepts them whoever reports, first result wins.
            self._event(
                "stale-failure", cell_id=cell_id, worker=worker
            )
            return None
        del self.leases[cell_id]
        grants = self.attempts.get(cell_id, 1)
        if error.get("class") == "deterministic" or grants >= self.max_lease_attempts:
            return self._error(
                cell_id, worker, error, attempts, grants, compute_s
            )
        self._requeue(
            cell_id, grants, reason=f"transient-{error.get('type', 'error')}"
        )
        return None

    def _purge(self, cell_id: str) -> None:
        """Drop a now-finished cell from any queue it still sits in."""
        for q in self.queues:
            try:
                q.remove(cell_id)
            except ValueError:
                pass

    # -- streaming merge ----------------------------------------------
    def partial_sweep(self) -> tuple[list[dict], list[dict], list[str]]:
        """The merge-so-far: ``(rows, errors, missing)``.

        Rows come back in canonical grid order — the same order a
        completed merge (and the serial sweep) would produce — so a
        coordinator can serve a monotonically-filling
        :class:`~repro.analysis.sweep.SweepResult` while the grid is
        still running.
        """
        ordered = sorted(self._order, key=self._order.__getitem__)
        rows = [
            dict(self.rows[cid]["summary"]) for cid in ordered if cid in self.rows
        ]
        errors = [self.errors[cid] for cid in ordered if cid in self.errors]
        missing = [
            cid
            for cid in ordered
            if cid not in self.rows and cid not in self.errors
        ]
        return rows, errors, missing

    # -- invariants (the property-test surface) -----------------------
    def check_invariants(self) -> None:
        """Assert the exactly-once partition; raises ``AssertionError``.

        Every cell is in exactly one of {queued, leased, row, error};
        no cell is both row and error; queues hold no finished or
        leased cells; every lease's attempt count is within budget.
        """
        queued = [cid for q in self.queues for cid in q]
        assert len(queued) == len(set(queued)), "cell queued twice"
        finished = set(self.rows) | set(self.errors)
        assert not (set(self.rows) & set(self.errors)), "cell is row AND error"
        assert not (set(queued) & finished), "finished cell still queued"
        assert not (set(self.leases) & finished), "finished cell still leased"
        assert not (set(queued) & set(self.leases)), "leased cell still queued"
        everywhere = set(queued) | set(self.leases) | finished
        assert everywhere == set(self.cells), (
            "cells lost or invented: "
            f"{set(self.cells) ^ everywhere}"
        )
        for cell_id, lease in self.leases.items():
            assert lease.cell_id == cell_id
            assert 1 <= lease.attempt <= self.max_lease_attempts


# ---------------------------------------------------------------------------
# The sweep driver
# ---------------------------------------------------------------------------


def _timed_cell(cell_fn, args: tuple, retries: int, kwargs: dict) -> tuple:
    """:func:`_guarded_cell`'s ``(status, payload, attempts)`` plus
    ``compute_s``, its wall time over all attempts — measured where the
    cell runs, so it excludes spawn, queue wait and artifact writes."""
    t0 = time.perf_counter()
    status, payload, attempts = _guarded_cell(cell_fn, args, retries, kwargs)
    return status, payload, attempts, time.perf_counter() - t0


def _worker_main(conn, cell_fn, kwargs: dict, retries: int) -> None:
    """Worker-process loop: recv a cell, run it guarded, send the result."""
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                return
            _, cell_id, args = msg
            conn.send((cell_id, *_timed_cell(cell_fn, args, retries, kwargs)))
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        return


class _EventLog(JsonlWriter):
    """One invocation's event log: truncated on open, then every record
    is stamped with the next ``seq`` and ``t`` and flushed as written."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self._t0 = time.monotonic()
        self._seq = 0
        self._pumped = 0

    def write(self, event: str, **payload) -> None:
        self._append({"event": event, **payload})

    def pump(self, scheduler: SweepScheduler) -> None:
        """Append the machine's events since the previous pump."""
        for record in scheduler.events[self._pumped:]:
            self._append(record)
        self._pumped = len(scheduler.events)

    def _append(self, record: dict) -> None:
        self._seq += 1
        self.write_record({
            **record,
            "kind": SWEEP_EVENT_KIND,
            "seq": self._seq,
            "t": time.monotonic() - self._t0,
        })
        self.flush()


@dataclass
class _Worker:
    name: str
    index: int
    process: object
    conn: object

    @classmethod
    def spawn(
        cls, ctx, name: str, index: int, cell_fn, kwargs: dict, retries: int
    ) -> "_Worker":
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(child, cell_fn, kwargs, retries),
            daemon=True,
        )
        proc.start()
        child.close()  # the parent keeps only its own end
        return cls(name=name, index=index, process=proc, conn=parent)

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=5)
        self.conn.close()


def _mine_resume(
    spec: SweepSpec,
    out_path: Path,
    cells: list[SweepCell],
    marker: tuple[int, int],
    resume: bool,
) -> tuple[dict[str, dict], bool]:
    """Mine an existing artifact for reusable rows: ``(retained, stale)``.

    A row is reused iff it is a ``cell`` row with the exact ID of one
    of ``cells`` (the ID embeds the config fingerprint) and, for an
    instrumented spec, its telemetry snapshot — by ID alone, so growing
    a grid recomputes only the new cells.  ``stale`` says a canonical
    rewrite would differ from the file.  A torn final line (dropped by
    the tolerant reader) just loses that one record.  A file that is
    not an artifact raises ``ValueError`` naming the path — even with
    ``resume=False`` — so a sweep never overwrites a file it did
    not write.
    """
    if not out_path.exists():
        return {}, False
    artifact = load_artifact(out_path)
    if not resume:
        return {}, True
    wanted = {c.cell_id for c in cells}
    records = artifact.records
    trailer = bool(records) and records[-1].get("kind") == SHARD_TELEMETRY_KIND
    body = records[:-1] if trailer else records
    retained: dict[str, dict] = {}
    for record in body:
        if (
            record.get("kind") == CELL_KIND
            and record.get("cell_id") in wanted
            # An instrumented resume can't reuse a row recorded
            # without its telemetry snapshot.
            and (not spec.telemetry or "telemetry" in record)
        ):
            retained.setdefault(record["cell_id"], record)
    manifest = artifact.manifest
    stale = (
        manifest.get("spec_fingerprint") != spec.fingerprint
        or (manifest.get("shard"), manifest.get("num_shards")) != marker
        # Canonical: the retained rows and nothing else, then one
        # telemetry trailer iff the spec is instrumented.
        or len(body) != len(retained)
        or trailer != spec.telemetry
    )
    return retained, stale


def _run_grid(
    spec: SweepSpec,
    cells: list[SweepCell],
    out_path,
    *,
    marker: tuple[int, int],
    workers: int | None,
    serial: bool,
    scheduled: bool,
    resume: bool,
    retries: int,
    cell_fn: Callable | None,
    compression: str | None,
    lease_seconds: float,
    max_lease_attempts: int,
    checkpoint_every: int | None,
    checkpoint_dir,
    checkpoint_keep_last: int,
    stop_requested: Callable[[], bool] | None,
    poll_seconds: float = 0.1,
    mp_context: str | None = None,
) -> ShardRunResult:
    """Run ``cells`` of ``spec`` into one artifact: the shared body of
    :func:`~repro.parallel.sharding.run_shard` and :func:`run_scheduled`.

    Mine the existing artifact (:func:`_mine_resume`), leave a complete
    one byte-untouched, else rewrite it atomically and append rows as
    the :class:`SweepScheduler` accepts them — in-process for a serial
    or one-worker static shard (no fork, canonical row order), else on
    the pipe-fed worker fleet (completion order).  A ``scheduled`` run
    keeps its fleet even at one worker — a separate process is what
    survives a worker death — and adds the manifest's ``scheduler``
    block.  Every invocation writes the event log
    (:func:`event_log_path`), the machine's events appended right after
    each machine call.

    Drain: ``stop_requested`` is polled after every accepted row and
    while the coordinator waits; once true, no new lease is granted,
    in-flight rows are accepted, and an unfinished grid ends
    ``stopped`` without a trailer, so the next resume computes exactly
    the missing cells.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    out_path = Path(out_path)
    codec = artifact_compression(out_path, compression)
    retained, stale = _mine_resume(spec, out_path, cells, marker, resume)
    pending = [c for c in cells if c.cell_id not in retained]
    workers_n = default_workers(workers, n_tasks=len(pending) or None)
    inline = not scheduled and (serial or workers_n == 1)
    result = ShardRunResult(
        spec=spec,
        shard=marker[0],
        num_shards=marker[1],
        path=out_path,
        cells=cells,
        skipped=sorted(retained),
        events_path=event_log_path(out_path),
    )
    fleet: dict[str, _Worker] = {}
    draining = False
    fh = None
    final_state = None

    def _check_drain() -> bool:
        # Latch at most once, so a worker is never handed a new lease
        # after the drain request.
        nonlocal draining
        if not draining and stop_requested is not None and stop_requested():
            draining = True
            log.write("drain")
        return draining

    def _accept(record: dict, *, error: bool) -> None:
        records.append(record)
        if error:
            result.errors.append(record)
        else:
            result.executed.append(record["cell_id"])
        fh.write_line(_dump(record))
        fh.flush()
        _check_drain()

    def _report(worker: str, cell_id, status, payload, attempts, compute_s):
        now = time.monotonic()
        report = scheduler.complete if status == "ok" else scheduler.fail
        record = report(worker, cell_id, payload, attempts, now, compute_s)
        log.pump(scheduler)
        if record is not None:
            _accept(record, error=status != "ok")

    def _flush_synthetic_errors() -> None:
        """Error rows minted *inside* the state machine (LeaseExhausted
        on reclaim) have no worker report to accept; sweep any error
        the artifact hasn't recorded yet into it."""
        recorded = {r["cell_id"] for r in result.errors}
        for cell_id, record in scheduler.errors.items():
            if cell_id not in recorded:
                _accept(record, error=True)

    def _assign(worker: _Worker) -> None:
        cell = scheduler.acquire(worker.name, worker.index, time.monotonic())
        log.pump(scheduler)
        if cell is None:
            return
        try:
            worker.conn.send(
                ("run", cell.cell_id, (cell.protocol, cell.lam, cell.seed))
            )
        except (BrokenPipeError, OSError):
            _bury(worker, reason="send-failed")  # the cell is reclaimed

    def _bury(worker: _Worker, reason: str) -> None:
        result.worker_deaths += 1
        scheduler.worker_lost(worker.name, time.monotonic(), reason=reason)
        log.pump(scheduler)
        _flush_synthetic_errors()
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        worker.process.join(timeout=1)
        fleet.pop(worker.name, None)
        if not scheduler.finished and not draining:
            # Same slot, fresh process: the replacement inherits the
            # home queue, so locality survives the respawn.
            name = f"{worker.name.split('+')[0]}+{result.worker_deaths}"
            fleet[name] = _Worker.spawn(
                ctx, name, worker.index, cell_fn, kwargs, retries
            )
            _assign(fleet[name])

    log = _EventLog(result.events_path)
    try:
        log.write(
            "start",
            schema=EVENT_LOG_SCHEMA,
            spec_fingerprint=spec.fingerprint,
            shard=marker[0],
            num_shards=marker[1],
            cells_total=len(cells),
            resumed=len(retained),
            started_unix=time.time(),
        )
        if not pending and not stale:
            # Complete artifact: recompute nothing and leave it
            # byte-untouched; the log still records this invocation.
            final_state = "complete"
            return result
        extra = None
        if scheduled:
            extra = {
                "scheduler": {
                    "workers": workers_n,
                    "lease_seconds": float(lease_seconds),
                    "max_lease_attempts": int(max_lease_attempts),
                    "compression": codec,
                }
            }
        records: list[dict] = [
            retained[c.cell_id] for c in cells if c.cell_id in retained
        ]
        # Newly computed rows append to the rewritten file, keeping the
        # stream-checkpoint property (on a compressed artifact the
        # append session is a fresh member/frame, which the
        # concatenation-aware tolerant reader handles).
        _write_artifact(out_path, codec, spec, marker, records, extra)
        # One home queue in-process, so rows land in canonical order.
        scheduler = SweepScheduler(
            pending,
            1 if inline else workers_n,
            lease_seconds=lease_seconds,
            max_lease_attempts=max_lease_attempts,
        )
        # Checkpoint knobs are execution detail, never identity: they
        # hash into no fingerprint and no cell ID.
        checkpointing = checkpoint_dir is not None and bool(checkpoint_every)
        kwargs = dict(
            spec.cell_kwargs(),
            checkpoint_every=checkpoint_every if checkpointing else None,
            checkpoint_dir=str(checkpoint_dir) if checkpointing else None,
            checkpoint_keep_last=checkpoint_keep_last,
        )
        fh = JsonlWriter(out_path, compression=codec, append=True)
        if inline:
            while not scheduler.finished and not draining:
                cell = scheduler.acquire("w0", 0, time.monotonic())
                log.pump(scheduler)
                _report(
                    "w0",
                    cell.cell_id,
                    *_timed_cell(
                        cell_fn, (cell.protocol, cell.lam, cell.seed),
                        retries, kwargs,
                    ),
                )
        elif pending:
            import multiprocessing as mp
            from multiprocessing import connection as mp_conn

            ctx = mp.get_context(mp_context)
            for i in range(workers_n):
                fleet[f"w{i}"] = _Worker.spawn(
                    ctx, f"w{i}", i, cell_fn, kwargs, retries
                )
            for worker in list(fleet.values()):
                _assign(worker)
            while not scheduler.finished:
                if _check_drain() and not scheduler.leases:
                    break
                conns = {w.conn: w for w in fleet.values()}
                ready = mp_conn.wait(list(conns), timeout=poll_seconds)
                for conn in ready:
                    worker = conns[conn]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        _bury(worker, reason="worker-died")
                        continue
                    _report(worker.name, *message)
                    if not draining:
                        _assign(worker)
                scheduler.reclaim_expired(time.monotonic())
                log.pump(scheduler)
                _flush_synthetic_errors()
                # Reclaimed / requeued cells may have idled workers waiting.
                if not draining:
                    for worker in list(fleet.values()):
                        if scheduler.lease_of(worker.name) is None:
                            _assign(worker)
        # A drained run skips the trailer on purpose: the artifact is
        # left non-canonical, so the next resume rewrites it and
        # computes exactly the missing cells.
        if spec.telemetry and scheduler.finished:
            snaps = [
                r["telemetry"] for r in records
                if r["kind"] == CELL_KIND and "telemetry" in r
            ]
            merged = fold_results(snaps, merge_snapshots) if snaps else {}
            fh.write_line(
                _dump({"kind": SHARD_TELEMETRY_KIND, "snapshot": merged})
            )
        final_state = "complete" if scheduler.finished else "stopped"
    finally:
        if fh is not None:
            fh.close()
        for worker in list(fleet.values()):
            worker.stop()
        if final_state is not None:
            log.write("finish", state=final_state)
        log.close()

    result.steals = scheduler.steals
    result.reclaims = scheduler.reclaims
    result.duplicates = scheduler.duplicates
    return result


def run_scheduled(
    spec: SweepSpec,
    out_path,
    *,
    num_workers: int | None = None,
    resume: bool = True,
    retries: int = 0,
    cell_fn: Callable | None = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    max_lease_attempts: int = DEFAULT_MAX_LEASE_ATTEMPTS,
    compression: str | None = None,
    poll_seconds: float = 0.1,
    mp_context: str | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir=None,
    checkpoint_keep_last: int = 3,
    stop_requested: Callable[[], bool] | None = None,
) -> ShardRunResult:
    """Run a whole sweep grid under the work-stealing scheduler.

    Same sweep driver, artifact schema, resume, drain, event log,
    ``cell_fn``, ``compression`` and checkpointing as
    :func:`~repro.parallel.sharding.run_shard`, under the reserved
    whole-grid ``shard 0/0`` marker plus a ``scheduler`` provenance
    block, so ``merge_artifacts`` / ``repro merge`` / ``repro fig3
    --from-artifacts`` consume it unchanged.

    Cells always run on a worker fleet, even with one worker.  Worker
    deaths (pipe EOF) reclaim the dead worker's lease and respawn a
    replacement; lease expiry (``lease_seconds``) is the backstop for
    wedged-but-alive workers.  Deterministic cell failures become
    ``cell-error`` rows immediately; transient ones re-lease up to
    ``max_lease_attempts`` grants (with checkpointing on, from the lost
    attempt's newest valid snapshot — bit-identical either way).
    """
    return _run_grid(
        spec,
        spec.cells(),
        out_path,
        marker=(0, 0),
        workers=num_workers,
        serial=False,
        scheduled=True,
        resume=resume,
        retries=retries,
        cell_fn=cell_fn,
        compression=compression,
        lease_seconds=lease_seconds,
        max_lease_attempts=max_lease_attempts,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        checkpoint_keep_last=checkpoint_keep_last,
        stop_requested=stop_requested,
        poll_seconds=poll_seconds,
        mp_context=mp_context,
    )
