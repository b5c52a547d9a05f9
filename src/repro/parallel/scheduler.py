"""The sweep driver and its FIFO work queue.

Two layers:

* :class:`WorkQueue` — a **pure state machine** (no I/O, no processes,
  no clock): a first-in-first-out queue over the cells still to run,
  in canonical grid order.  :meth:`~WorkQueue.acquire` grants an idle
  worker the next cell; :meth:`~WorkQueue.complete` and
  :meth:`~WorkQueue.fail` each record exactly one row (a failure has
  already spent its in-worker retries in :func:`_guarded_cell`);
  :meth:`~WorkQueue.worker_lost` — pipe EOF, the only liveness signal
  one host needs — requeues the dead worker's cell until it has had
  ``retries + 1`` grants, then records a synthetic transient
  ``WorkerLost`` error row.  A cell is granted again only after the
  worker holding it is lost, so no report can arrive late or twice:
  each cell contributes exactly one ``cell`` or ``cell-error`` record
  (the hypothesis property suite drives random interleavings against
  this invariant).

* :func:`_run_grid` — the **sweep driver** behind
  :func:`~repro.parallel.sharding.run_shard`: resume mining, the atomic
  rewrite, streamed rows, the event log, drain.  Cells run in-process
  for a serial or one-worker run; otherwise each worker is a separate
  ``multiprocessing`` process fed over a pipe.  A worker death
  (SIGKILL, OOM) surfaces as pipe EOF: the queue takes the cell back
  and a replacement process takes the slot, so a chaos-killed fleet
  heals itself.

Every invocation of the driver appends one **event log**,
``<artifact>.events.jsonl``: a ``start`` record, the queue's events
(grants, completions, errors, worker deaths, reclaims, requeues), a
``drain`` record if one was requested, and a terminal ``finish``.  The
log is per-run ephemera — it never merges, fingerprints or feeds a
resume — but ``repro status`` is a fold over it (:func:`fold_events`),
and the chaos tests assert requeue decisions from it.
:data:`EVENT_FIELDS` is its schema.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass
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
)

__all__ = [
    "EVENT_FIELDS",
    "EVENT_KEYS",
    "EVENT_LOG_SCHEMA",
    "SWEEP_EVENT_KIND",
    "WorkQueue",
    "event_log_path",
    "find_event_logs",
    "fold_events",
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
#: counts grants of the cell; ``attempts`` is the artifact row's
#: in-worker attempt count; ``compute_s`` the wall time the cell's
#: runner spent on it (0 for a ``WorkerLost`` row: no runner reported).
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
    "reclaim": {**_CELL, "grant": int, "reason": str},
    "requeue": {"cell_id": str, "grant": int, "reason": str},
    "worker-dead": {
        "worker": str, "cell_id": (str, type(None)), "reason": str,
    },
    "complete": _TERMINAL,
    "error": {
        **_TERMINAL, "grant": int, "error_class": str, "error_type": str,
    },
    "drain": {},
    "finish": {"state": str},
}

#: How often a waiting fleet coordinator polls the drain predicate, so
#: a drain request shows in the event log while cells are in flight.
DRAIN_POLL_SECONDS = 0.1


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
        "reclaimed": verbs["reclaim"],
        "compute_s": sum((e["compute_s"] for e in terminal), 0.0),
        "ewma_cell_seconds": ewma,
        "eta_seconds": eta,
        "elapsed_seconds": last["t"],
        "updated_unix": start["started_unix"] + last["t"],
        "state": state,
    }


class WorkQueue:
    """The pure FIFO work queue of one sweep invocation.

    Parameters
    ----------
    cells:
        The cells still to run, in canonical enumeration order
        (resumed cells are simply not handed in); they are granted in
        that order.
    retries:
        The run's retry budget.  Transient exceptions spend it inside
        the worker (:func:`_guarded_cell`); lost workers spend it here:
        a cell whose worker dies is requeued until it has had
        ``retries + 1`` grants, then becomes a transient ``WorkerLost``
        error row.

    Every cell is, at any instant, in exactly one of four places:
    queued, held by one worker, finished-as-row, or finished-as-error
    (:meth:`check_invariants` asserts the partition; the property
    suite calls it after every operation).
    """

    def __init__(self, cells: list[SweepCell], retries: int = 0) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.cells = {c.cell_id: c for c in cells}
        if len(self.cells) != len(cells):
            raise ValueError("duplicate cell IDs")
        self.retries = int(retries)
        self.queue: deque[str] = deque(c.cell_id for c in cells)
        #: worker -> the cell it holds (at most one each).
        self.held: dict[str, str] = {}
        #: cell_id -> grants so far.
        self.grants: dict[str, int] = {}
        #: Finished cells: exactly-once rows, keyed by cell ID.
        self.rows: dict[str, dict] = {}
        self.errors: dict[str, dict] = {}
        self.events: list[dict] = []
        self.reclaims = 0

    @property
    def finished(self) -> bool:
        return len(self.rows) + len(self.errors) == len(self.cells)

    def _event(self, event: str, **payload) -> None:
        self.events.append({"event": event, **payload})

    def acquire(self, worker: str) -> SweepCell | None:
        """Grant idle ``worker`` the next queued cell; ``None`` when the
        queue is empty (every cell is finished or held elsewhere)."""
        if worker in self.held:
            raise ValueError(f"worker {worker!r} already holds a cell")
        if not self.queue:
            return None
        cell_id = self.queue.popleft()
        grant = self.grants.get(cell_id, 0) + 1
        self.grants[cell_id] = grant
        self.held[worker] = cell_id
        self._event("lease", cell_id=cell_id, worker=worker, grant=grant)
        return self.cells[cell_id]

    def _release(self, worker: str, cell_id: str) -> None:
        if cell_id not in self.cells:
            raise ValueError(f"unknown cell {cell_id}")
        if self.held.get(worker) != cell_id:
            raise ValueError(f"worker {worker!r} does not hold cell {cell_id}")
        del self.held[worker]

    def complete(
        self,
        worker: str,
        cell_id: str,
        summary: dict,
        attempts: int,
        compute_s: float,
    ) -> dict:
        """Record the result of the cell ``worker`` holds; returns the
        artifact row.  ``compute_s``, the runner's wall time on the
        cell, rides on the ``complete`` event."""
        self._release(worker, cell_id)
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
        compute_s: float,
    ) -> dict:
        """Record the failure of the cell ``worker`` holds; returns the
        ``cell-error`` row.  ``error`` is the payload
        :func:`_guarded_cell` ships home (``type``/``message``/``class``)
        after the in-worker retries its class allows."""
        self._release(worker, cell_id)
        return self._error(cell_id, worker, error, attempts, compute_s)

    def worker_lost(self, worker: str, reason: str = "worker-died") -> dict | None:
        """Take back the cell of a worker that will never report.

        A process death is environmental — transient — so the cell is
        requeued while it has had at most ``retries`` grants; after
        ``retries + 1`` it becomes a ``WorkerLost`` error row, which is
        returned (``None`` otherwise).
        """
        cell_id = self.held.pop(worker, None)
        self._event("worker-dead", worker=worker, cell_id=cell_id, reason=reason)
        if cell_id is None:
            return None
        grant = self.grants[cell_id]
        self.reclaims += 1
        self._event(
            "reclaim", cell_id=cell_id, worker=worker, grant=grant, reason=reason
        )
        if grant > self.retries:
            error = {
                "type": "WorkerLost",
                "message": (
                    f"{grant} worker(s) lost (last: {reason}) without a result"
                ),
                "class": "transient",
            }
            return self._error(cell_id, worker, error, grant, compute_s=0.0)
        self.queue.append(cell_id)
        self._event("requeue", cell_id=cell_id, grant=grant, reason=reason)
        return None

    def _error(
        self,
        cell_id: str,
        worker: str,
        error: dict,
        attempts: int,
        compute_s: float,
    ) -> dict:
        record = _error_record(self.cells[cell_id], error, attempts)
        self.errors[cell_id] = record
        self._event(
            "error",
            cell_id=cell_id,
            worker=worker,
            attempts=attempts,
            grant=self.grants[cell_id],
            compute_s=compute_s,
            error_class=error.get("class", "transient"),
            error_type=error.get("type", "Exception"),
        )
        return record

    def check_invariants(self) -> None:
        """Assert the exactly-once partition; raises ``AssertionError``.

        Every cell is in exactly one of {queued, held, row, error}; no
        worker holds two cells and no cell has two holders; every held
        cell's grant count is within the budget.
        """
        queued = list(self.queue)
        held = list(self.held.values())
        assert len(queued) == len(set(queued)), "cell queued twice"
        assert len(held) == len(set(held)), "cell held twice"
        finished = set(self.rows) | set(self.errors)
        assert not (set(self.rows) & set(self.errors)), "cell is row AND error"
        assert not (set(queued) & finished), "finished cell still queued"
        assert not (set(held) & finished), "finished cell still held"
        assert not (set(queued) & set(held)), "held cell still queued"
        everywhere = set(queued) | set(held) | finished
        assert everywhere == set(self.cells), (
            f"cells lost or invented: {set(self.cells) ^ everywhere}"
        )
        for cell_id in held:
            assert 1 <= self.grants[cell_id] <= self.retries + 1


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

    def pump(self, queue: WorkQueue) -> None:
        """Append the queue's events since the previous pump."""
        for record in queue.events[self._pumped:]:
            self._append(record)
        self._pumped = len(queue.events)

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
    process: object
    conn: object

    @classmethod
    def spawn(
        cls, ctx, name: str, cell_fn, kwargs: dict, retries: int
    ) -> "_Worker":
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(child, cell_fn, kwargs, retries),
            daemon=True,
        )
        proc.start()
        child.close()  # the parent keeps only its own end
        return cls(name=name, process=proc, conn=parent)

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
    resume: bool,
    retries: int,
    cell_fn: Callable | None,
    compression: str | None,
    checkpoint_every: int | None,
    checkpoint_dir,
    checkpoint_keep_last: int,
    stop_requested: Callable[[], bool] | None,
) -> ShardRunResult:
    """Run ``cells`` of ``spec`` into one artifact: the body of
    :func:`~repro.parallel.sharding.run_shard`.

    Mine the existing artifact (:func:`_mine_resume`), leave a complete
    one byte-untouched, else rewrite it atomically and append rows as
    the :class:`WorkQueue` records them — in-process for a serial or
    one-worker run (no fork, canonical row order), else on the
    pipe-fed worker fleet (completion order).  A worker lost to pipe
    EOF hands its cell back to the queue (requeued within the
    ``retries`` budget) and a replacement process takes its slot while
    cells are queued.  Every invocation writes the event log
    (:func:`event_log_path`), the queue's events appended right after
    each queue call.

    Drain: ``stop_requested`` is polled after every accepted row and
    while the coordinator waits; once true, no new cell is granted,
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
        # Latch at most once, so a worker is never granted a new cell
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
        report = queue.complete if status == "ok" else queue.fail
        record = report(worker, cell_id, payload, attempts, compute_s)
        log.pump(queue)
        _accept(record, error=status != "ok")

    def _spawn(name: str) -> None:
        fleet[name] = _Worker.spawn(ctx, name, cell_fn, kwargs, retries)
        _assign(fleet[name])

    def _assign(worker: _Worker) -> None:
        cell = queue.acquire(worker.name)
        log.pump(queue)
        if cell is None:
            return
        try:
            worker.conn.send(
                ("run", cell.cell_id, (cell.protocol, cell.lam, cell.seed))
            )
        except (BrokenPipeError, OSError):
            _bury(worker, reason="send-failed")  # the cell is taken back

    def _bury(worker: _Worker, reason: str) -> None:
        result.worker_deaths += 1
        record = queue.worker_lost(worker.name, reason=reason)
        log.pump(queue)
        if record is not None:
            _accept(record, error=True)
        worker.conn.close()
        worker.process.join(timeout=1)
        del fleet[worker.name]
        if queue.queue and not draining:
            _spawn(f"{worker.name.split('+')[0]}+{result.worker_deaths}")

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
        records: list[dict] = [
            retained[c.cell_id] for c in cells if c.cell_id in retained
        ]
        # Newly computed rows append to the rewritten file, keeping the
        # stream-checkpoint property (on a compressed artifact the
        # append session is a fresh member/frame, which the
        # concatenation-aware tolerant reader handles).
        _write_artifact(out_path, codec, spec, marker, records)
        queue = WorkQueue(pending, retries)
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
        if serial or workers_n == 1:
            while not queue.finished and not draining:
                cell = queue.acquire("w0")
                log.pump(queue)
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

            ctx = mp.get_context()
            for i in range(workers_n):
                _spawn(f"w{i}")
            while not queue.finished:
                if _check_drain() and not queue.held:
                    break
                conns = {w.conn: w for w in fleet.values()}
                ready = mp_conn.wait(list(conns), timeout=DRAIN_POLL_SECONDS)
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
        # A drained run skips the trailer on purpose: the artifact is
        # left non-canonical, so the next resume rewrites it and
        # computes exactly the missing cells.
        if spec.telemetry and queue.finished:
            snaps = [
                r["telemetry"] for r in records
                if r["kind"] == CELL_KIND and "telemetry" in r
            ]
            merged = fold_results(snaps, merge_snapshots) if snaps else {}
            fh.write_line(
                _dump({"kind": SHARD_TELEMETRY_KIND, "snapshot": merged})
            )
        final_state = "complete" if queue.finished else "stopped"
    finally:
        if fh is not None:
            fh.close()
        for worker in list(fleet.values()):
            worker.stop()
        if final_state is not None:
            log.write("finish", state=final_state)
        log.close()

    result.reclaims = queue.reclaims
    return result
