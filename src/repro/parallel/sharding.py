"""Sweep-level sharding: partition a grid, run shards anywhere, merge.

The slot kernel batches *within* one simulation and the telemetry layer
made per-worker results mergeable; this module is the third scale axis:
it lets one sweep grid (protocol × λ × seed) run as ``K`` independent
*shards* — separate process pools, separate invocations, separate
hosts — and folds the shard artifacts back into a
:class:`~repro.analysis.sweep.SweepResult` that is equal to the serial
run on every deterministic metric.

Identity scheme
---------------
Every grid cell gets a **stable cell ID**: a 16-hex digest of
``(protocol, lambda, seed, config_fingerprint, stop_on_death, backend,
equivalence)``.  The config fingerprint covers the complete
:class:`~repro.config.SimulationConfig` the cell will run (one
derivation, :func:`cell_config`, serves identity and execution);
``stop_on_death`` is the one run knob that shapes the result without
living in the config; ``backend`` is the *resolved* kernel-backend
name (never ``"auto"``) and ``equivalence`` the numeric tier, so
artifacts carry their numeric provenance.  IDs therefore survive
re-enumeration, grid extension, and host boundaries — and change
exactly when the scenario a cell would simulate changes.

Shard assignment ranks cells by their ID and deals them round-robin:
``shard(cell) = rank(cell_id) mod K``.  That keeps shards balanced
(sizes differ by at most one), makes ``K = N`` produce singleton
shards, and depends only on the *set* of cell IDs, never on
enumeration order.

Artifact format
---------------
A shard writes one JSONL artifact: a ``shard-manifest`` header
(shard ``k/K``, the full sweep spec, and the spec fingerprint), then
one ``cell`` row (summary, plus the telemetry snapshot when
instrumented) or ``cell-error`` row per cell, and a
``shard-telemetry`` trailer with the merged snapshot.  :func:`run_shard`
runs on the sweep driver (:mod:`repro.parallel.scheduler`): rows are
appended as they are recorded, so a crash loses at most the in-flight
cells, and a resume reuses every row whose cell ID is still in the
grid.

Merging (:func:`merge_artifacts`) accepts any subset of artifacts in
any order, dedupes by cell ID (value-conflicts raise — that would mean
nondeterminism), reports error rows and missing cells instead of
silently dropping them, and reassembles rows in canonical grid order.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..config import EQUIVALENCE_CHOICES, ROUTING_CHOICES, RoutingConfig, paper_config
from ..kernels import resolve_backend_name
from ..telemetry.jsonl import (
    JsonlWriter,
    detect_compression,
    read_jsonl_tolerant,
    resolve_compression,
)
from ..telemetry.manifest import (
    SHARD_MANIFEST_KIND,
    config_fingerprint,
    shard_manifest,
    stable_fingerprint,
)
from ..telemetry.registry import deterministic_view, merge_snapshots
from .pool import fold_results

__all__ = [
    "CELL_KIND",
    "CELL_ERROR_KIND",
    "SHARD_TELEMETRY_KIND",
    "MergedSweep",
    "ShardArtifact",
    "ShardRunResult",
    "SweepCell",
    "SweepSpec",
    "cell_config",
    "classify_error",
    "load_artifact",
    "merge_artifacts",
    "parse_shard_arg",
    "partition_cells",
    "run_shard",
    "write_merged_artifact",
]

#: Record discriminators inside a shard artifact (after the manifest).
CELL_KIND = "cell"
CELL_ERROR_KIND = "cell-error"
SHARD_TELEMETRY_KIND = "shard-telemetry"


# ---------------------------------------------------------------------------
# Grid specification and cell identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """The complete, serialisable description of one sweep grid.

    This is the unit that crosses host boundaries: a spec fully
    determines the cell set, every cell's scenario config, the
    canonical row order, and (via :attr:`fingerprint`) whether two
    artifacts belong to the same sweep.
    """

    protocols: tuple[str, ...]
    lambdas: tuple[float, ...]
    seeds: tuple[int, ...]
    initial_energy: float = 0.25
    rounds: int = 20
    stop_on_death: bool = False
    telemetry: bool = False
    #: Kernel-backend selector for every cell.  The payload (and hence
    #: the spec fingerprint) keeps the selector as written — the user's
    #: intent — while cell identity uses the *resolved* name (see
    #: :meth:`cells`), so ``"auto"`` specs resumed on hosts that resolve
    #: differently recompute rather than reuse foreign-backend rows.
    backend: str = "auto"
    #: Optional chaos overlay: the name of a fault scenario from
    #: :data:`repro.faults.FAULT_SCENARIOS`, materialised against each
    #: cell's config by :func:`repro.analysis.sweep.run_cell`.  The
    #: resulting plan is a config field, so it flows into the config
    #: fingerprint and hence the cell ID — fault sweeps shard, resume,
    #: and merge exactly like fault-free ones, and never mix with them.
    faults: str | None = None
    #: Numeric equivalence tier every cell runs under
    #: (:data:`repro.kernels.EQUIVALENCE_CHOICES`).  A config field,
    #: so it flows into the config fingerprint — and it additionally
    #: hashes into the cell ID explicitly: bitwise and statistical
    #: artifacts never resume into or merge with each other
    #: (:func:`merge_artifacts` raises ``EquivalenceError``).
    equivalence: str = "bitwise"
    #: Optional distance-block memory budget (MiB) for large-N cells;
    #: a config field, hence fingerprinted.  Bit-neutral in the bitwise
    #: tier (the blocked kernel is bit-identical per row) but still run
    #: identity: it shapes peak memory, which is provenance worth
    #: pinning for a resumed large-N sweep.
    max_block_mb: float | None = None
    #: Routing substrate every cell runs under
    #: (:data:`repro.config.ROUTING_CHOICES`).  A config field
    #: (``SimulationConfig.routing``), so it flows into the config
    #: fingerprint and hence the cell ID — direct, tree, and qspt
    #: artifacts never resume into or merge with each other.
    routing: str = "direct"

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocols", tuple(self.protocols))
        object.__setattr__(
            self, "lambdas", tuple(float(v) for v in self.lambdas)
        )
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not (self.protocols and self.lambdas and self.seeds):
            raise ValueError("sweep spec needs >= 1 protocol, lambda, and seed")
        # Deferred: repro.analysis imports this package at module scope.
        from ..analysis.sweep import PROTOCOLS

        unknown = sorted(set(self.protocols) - set(PROTOCOLS))
        if unknown:
            raise ValueError(
                f"unknown protocol(s) {unknown}; known: {sorted(PROTOCOLS)}"
            )
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError("backend must be a non-empty selector string")
        if self.equivalence not in EQUIVALENCE_CHOICES:
            raise ValueError(
                f"equivalence must be one of {EQUIVALENCE_CHOICES}, "
                f"got {self.equivalence!r}"
            )
        if self.max_block_mb is not None and self.max_block_mb <= 0.0:
            raise ValueError("max_block_mb must be positive when given")
        if self.routing not in ROUTING_CHOICES:
            raise ValueError(
                f"routing must be one of {ROUTING_CHOICES}, "
                f"got {self.routing!r}"
            )

    # -- serialisation -------------------------------------------------
    def to_payload(self) -> dict:
        """Plain JSON-able dict (the manifest's ``spec`` value)."""
        payload = dataclasses.asdict(self)
        payload["protocols"] = list(self.protocols)
        payload["lambdas"] = list(self.lambdas)
        payload["seeds"] = list(self.seeds)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepSpec":
        return cls(**payload)

    @property
    def fingerprint(self) -> str:
        """Stable digest of the whole grid description."""
        return stable_fingerprint(self.to_payload())

    # -- enumeration ---------------------------------------------------
    def cell_kwargs(self) -> dict:
        """The keyword arguments of every cell: workers call
        ``cell_fn(protocol, lam, seed, **spec.cell_kwargs())``.  The
        backend is the *resolved* name, so the worker runs exactly the
        config whose fingerprint the cell ID pinned."""
        return {
            "initial_energy": self.initial_energy,
            "rounds": self.rounds,
            "backend": resolve_backend_name(self.backend),
            "faults": self.faults,
            "equivalence": self.equivalence,
            "max_block_mb": self.max_block_mb,
            "routing": self.routing,
            "stop_on_death": self.stop_on_death,
            "telemetry": self.telemetry,
        }

    def cells(self) -> list["SweepCell"]:
        """Enumerate the grid with stable identities, in canonical order.

        Each cell's config comes from :func:`cell_config` with the
        worker's own kwargs, so the fingerprint the ID pins is the
        config the cell runs — including the *resolved* backend, so
        rows computed under one backend are never reused or merged as
        another's.
        """
        kwargs = self.cell_kwargs()
        stop_on_death = kwargs.pop("stop_on_death")
        del kwargs["telemetry"]  # execution detail: rows, not results
        out = []
        for p in self.protocols:
            for lam in self.lambdas:
                for seed in self.seeds:
                    fp = config_fingerprint(cell_config(lam, seed, **kwargs))
                    out.append(
                        SweepCell.build(
                            p, lam, seed, fp, stop_on_death,
                            kwargs["backend"], self.equivalence,
                        )
                    )
        return out

    def __len__(self) -> int:
        return len(self.protocols) * len(self.lambdas) * len(self.seeds)


def cell_config(
    mean_interarrival: float,
    seed: int,
    *,
    initial_energy: float = 0.25,
    rounds: int = 20,
    backend: str = "auto",
    faults: str | None = None,
    equivalence: str = "bitwise",
    max_block_mb: float | None = None,
    routing: str = "direct",
):
    """The :class:`~repro.config.SimulationConfig` of one sweep cell.

    The one derivation behind both cell identity (:meth:`SweepSpec.cells`
    fingerprints it) and execution (:func:`repro.analysis.sweep.run_cell`
    runs it): Table 2 at ``(mean_interarrival, seed)``, the backend
    resolved, and a ``faults`` scenario materialised against the config
    so the chaos scales with it.
    """
    config = dataclasses.replace(
        paper_config(
            mean_interarrival=mean_interarrival,
            seed=seed,
            rounds=rounds,
            initial_energy=initial_energy,
        ),
        backend=resolve_backend_name(backend),
        equivalence=equivalence,
        max_block_mb=max_block_mb,
        routing=RoutingConfig(kind=routing),
    )
    if faults:
        from ..faults import build_fault_plan

        config = config.replace(faults=build_fault_plan(faults, config))
    return config


@dataclass(frozen=True)
class SweepCell:
    """One grid point plus its stable identity."""

    protocol: str
    lam: float
    seed: int
    config_fingerprint: str
    cell_id: str
    backend: str = "numpy"
    equivalence: str = "bitwise"

    @classmethod
    def build(
        cls,
        protocol: str,
        lam: float,
        seed: int,
        config_fingerprint: str,
        stop_on_death: bool = False,
        backend: str = "numpy",
        equivalence: str = "bitwise",
    ) -> "SweepCell":
        # The ID must cover everything that determines the cell's
        # result: stop_on_death changes run_simulation's outcome but is
        # not a SimulationConfig field, so it hashes in explicitly —
        # otherwise a resume after flipping it would reuse stale rows.
        # The resolved backend and the equivalence tier also hash in
        # explicitly (besides living in the config fingerprint):
        # provenance must survive even for callers fingerprinting
        # configs without those fields, and a statistical row must
        # never satisfy a bitwise resume.
        cell_id = stable_fingerprint(
            {
                "protocol": protocol,
                "lambda": float(lam),
                "seed": int(seed),
                "config_fingerprint": config_fingerprint,
                "stop_on_death": bool(stop_on_death),
                "backend": str(backend),
                "equivalence": str(equivalence),
            }
        )
        return cls(
            protocol, float(lam), int(seed), config_fingerprint, cell_id,
            str(backend), str(equivalence),
        )


def partition_cells(
    cells: Sequence[SweepCell], num_shards: int
) -> list[list[SweepCell]]:
    """Deal cells into ``num_shards`` balanced, deterministic shards.

    Cells are ranked by cell ID (a stable hash) and assigned
    ``rank mod num_shards``; within each shard the canonical
    enumeration order of ``cells`` is preserved.  Shard sizes differ by
    at most one, and the assignment is a pure function of the cell-ID
    set — independent of enumeration order, process, and host.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    rank = {
        cell_id: i
        for i, cell_id in enumerate(sorted(c.cell_id for c in cells))
    }
    if len(rank) != len(cells):
        raise ValueError("duplicate cell IDs in grid")
    shards: list[list[SweepCell]] = [[] for _ in range(num_shards)]
    for cell in cells:
        shards[rank[cell.cell_id] % num_shards].append(cell)
    return shards


def parse_shard_arg(text: str) -> tuple[int, int]:
    """Parse the CLI's ``k/K`` shard selector (1-based)."""
    try:
        k_str, total_str = text.split("/")
        k, total = int(k_str), int(total_str)
    except ValueError:
        raise ValueError(
            f"shard selector {text!r} is not of the form k/K"
        ) from None
    if not 1 <= k <= total:
        raise ValueError(f"shard selector {text!r}: need 1 <= k <= K")
    return k, total


# ---------------------------------------------------------------------------
# Shard execution (retry policy, artifact records)
# ---------------------------------------------------------------------------


#: Exception classes whose failures are a pure function of the cell's
#: inputs — a bad value, a missing attribute, a broken invariant, an
#: unpicklable payload.  Re-running the identical deterministic
#: computation cannot change the outcome, so retrying them only burns
#: worker time.  Everything else (OSError, MemoryError, RuntimeError,
#: ...) is treated as transient: environmental causes — a flaky
#: filesystem, memory pressure, a worker wedged mid-import — can heal
#: between attempts.  The full taxonomy is pinned by
#: ``tests/parallel/test_classify_errors.py``, which is the spec the
#: in-worker retry decisions run on.
_DETERMINISTIC_ERRORS = (
    ValueError,
    TypeError,
    LookupError,
    AttributeError,
    AssertionError,
    ArithmeticError,
    NotImplementedError,
    # Serialising the same result object fails the same way every
    # time: a pickling casualty retried would just fail again.
    pickle.PicklingError,
    pickle.UnpicklingError,
    # RecursionError subclasses RuntimeError, but unbounded
    # recursion is a property of the computation, not the host.
    RecursionError,
)


def classify_error(exc: BaseException) -> str:
    """Classify a cell failure as ``"deterministic"`` or ``"transient"``.

    Deterministic failures will reproduce on every retry of the same
    cell (same config, same seed, same code); transient ones might not.
    The class drives the retry policy in :func:`_guarded_cell`
    (deterministic failures become ``cell-error`` rows immediately;
    transient ones spend the ``retries`` budget), and is recorded on
    ``cell-error`` artifact rows so a merge report can tell "rerun
    these shards" casualties from "fix the code" ones.
    ``KeyboardInterrupt`` / ``SystemExit`` classify transient — an
    interrupted worker says nothing about the cell — though
    :func:`_guarded_cell` never absorbs them (BaseException rips
    through; a fleet coordinator sees a lost worker instead, which the
    work queue requeues within the same budget).
    """
    return (
        "deterministic"
        if isinstance(exc, _DETERMINISTIC_ERRORS)
        else "transient"
    )


def _guarded_cell(
    cell_fn: Callable | None, args: tuple, retries: int, kwargs: dict | None = None
) -> tuple:
    """Run ``cell_fn(*args, **kwargs)`` without ever raising.

    A raised exception would take the executor down with it; instead
    the cell is retried up to ``retries`` extra times in place — only
    for *transient* failures (:func:`classify_error`): replaying a
    deterministic one cannot change its outcome.  Either way an error
    payload comes home, so the run completes and records the casualty.

    ``cell_fn=None`` runs :func:`repro.analysis.sweep.run_cell`, looked
    up as a module attribute at call time so a wrapper installed on the
    module (an instrumenting profiler) sees every cell.
    """
    if cell_fn is None:
        # Deferred: repro.analysis imports this package at module scope.
        from ..analysis import sweep

        cell_fn = sweep.run_cell
    last: Exception | None = None
    attempts = 0
    for attempts in range(1, retries + 2):
        try:
            return ("ok", cell_fn(*args, **(kwargs or {})), attempts)
        except Exception as exc:  # noqa: BLE001 - worker boundary
            last = exc
            if classify_error(exc) == "deterministic":
                break
    return (
        "error",
        {
            "type": type(last).__name__,
            "message": str(last),
            "class": classify_error(last),
        },
        attempts,
    )


@dataclass
class ShardRunResult:
    """Outcome of one :func:`run_shard` invocation."""

    spec: SweepSpec
    shard: int
    num_shards: int
    path: Path
    cells: list[SweepCell]
    #: Cell IDs actually simulated in this invocation.
    executed: list[str] = field(default_factory=list)
    #: Cell IDs reused from the existing artifact (resume hits).
    skipped: list[str] = field(default_factory=list)
    #: Error records (post-retry) produced by this invocation.
    errors: list[dict] = field(default_factory=list)
    #: Fleet counters: cells taken back from lost workers, and worker
    #: processes lost.
    reclaims: int = 0
    worker_deaths: int = 0
    #: This invocation's event log (``<artifact>.events.jsonl``).
    events_path: Path | None = None

    @property
    def ok(self) -> bool:
        return not self.errors


def _jsonable(value):
    """Coerce numpy scalars so artifact rows serialise anywhere."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    return value


def _record(kind: str, cell: SweepCell, attempts: int, **payload) -> dict:
    return {
        "kind": kind,
        "cell_id": cell.cell_id,
        "protocol": cell.protocol,
        "lambda": cell.lam,
        "seed": cell.seed,
        "config_fingerprint": cell.config_fingerprint,
        "backend": cell.backend,
        "equivalence": cell.equivalence,
        "attempts": attempts,
        **payload,
    }


def _cell_record(cell: SweepCell, summary: dict, attempts: int) -> dict:
    summary = dict(summary)
    snapshot = summary.pop("telemetry", None)
    record = _record(CELL_KIND, cell, attempts, summary=_jsonable(summary))
    if snapshot is not None:
        record["telemetry"] = _jsonable(snapshot)
    return record


def _error_record(cell: SweepCell, error: dict, attempts: int) -> dict:
    return _record(CELL_ERROR_KIND, cell, attempts, error=dict(error))


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def _write_artifact(
    path: Path,
    codec: str,
    spec: SweepSpec,
    marker: tuple[int, int],
    records: list[dict],
) -> None:
    """Atomically (re)write an artifact: its manifest, then ``records``.

    Via a sibling temp file + ``os.replace``, so a crash mid-rewrite
    never truncates away already-computed rows: the old artifact
    survives intact until the manifest and every record are durably
    on disk.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(path.name + ".tmp")
    with JsonlWriter(tmp_path, compression=codec) as fh:
        fh.write_line(
            _dump(shard_manifest(spec.to_payload(), spec.fingerprint, *marker))
        )
        for record in records:
            fh.write_line(_dump(record))
        fh.flush(fsync=True)
    os.replace(tmp_path, path)


def artifact_compression(out_path, compression: str | None) -> str:
    """Resolve the codec one artifact (re)write should use.

    An explicit selector wins (``"auto"`` resolved by availability);
    ``None`` keeps whatever an existing artifact already uses — sniffed
    from its magic bytes, or from the path suffix for a fresh file —
    so a resumed compressed artifact stays compressed without the
    caller restating the choice.
    """
    if compression is not None:
        return resolve_compression(compression)
    return detect_compression(out_path)


def run_shard(
    spec: SweepSpec,
    shard: int,
    num_shards: int,
    out_path,
    *,
    resume: bool = True,
    max_workers: int | None = None,
    serial: bool = False,
    retries: int = 1,
    cell_fn: Callable | None = None,
    compression: str | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir=None,
    checkpoint_keep_last: int = 3,
    stop_requested: Callable[[], bool] | None = None,
) -> ShardRunResult:
    """Execute shard ``shard/num_shards`` of ``spec`` into a JSONL artifact.

    Parameters
    ----------
    spec:
        The full grid; this invocation runs only the cells the rank
        partition assigns to ``shard`` (1-based, as in ``--shard k/K``).
    out_path:
        Artifact path.  With ``resume=True`` an existing artifact is
        mined for reusable rows: a cell is skipped iff a ``cell`` row
        with its exact cell ID (which embeds the config fingerprint)
        is present; everything else is dropped and recomputed.  A
        complete artifact is left byte-untouched; a file that is not
        an artifact raises ``ValueError`` and is left alone.
    max_workers, serial:
        Cells run in-process (no fork) when ``serial`` or when the
        resolved worker count is 1, with rows in canonical order;
        otherwise on a fleet of worker processes fed from one FIFO
        queue, with rows in completion order (:func:`merge_artifacts`
        reorders them).
    retries:
        The per-cell retry budget: extra in-worker attempts after a
        transient exception, and extra grants after the cell's worker
        process died (SIGKILL, OOM), before an error row is recorded
        in place of the summary.
    cell_fn:
        The cell executor, called as ``cell_fn(protocol, lam, seed,
        **kwargs)`` with :meth:`SweepSpec.cell_kwargs` plus the
        checkpoint knobs; ``None`` runs
        :func:`repro.analysis.sweep.run_cell`.  A module-level
        (picklable) override is the fault-injection seam of the tests.
    compression:
        Artifact codec selector (``auto``/``none``/``gz``/``zst``);
        ``None`` keeps an existing artifact's codec (sniffed) or picks
        by path suffix for a fresh one.  Compression is transport, not
        identity — it never enters fingerprints or cell IDs.
    checkpoint_every, checkpoint_dir, checkpoint_keep_last:
        Round-boundary engine checkpointing for every cell (see
        :mod:`repro.checkpoint`): a killed or retried cell resumes from
        its newest valid snapshot instead of recomputing from round 0.
        Execution detail, never identity.
    stop_requested:
        Zero-argument drain predicate polled at every cell boundary
        (wire a :class:`repro.parallel.signals.DrainFlag` latched by
        SIGTERM/SIGINT).  Once it returns True no further cell starts,
        the event log records ``drain`` and ends ``stopped``, and the
        telemetry trailer is skipped, so a later resume picks up the
        missing cells.
    """
    if not 1 <= shard <= num_shards:
        raise ValueError(f"shard {shard}/{num_shards} out of range")
    # Deferred: the sweep driver imports this module.
    from .scheduler import _run_grid

    return _run_grid(
        spec,
        partition_cells(spec.cells(), num_shards)[shard - 1],
        out_path,
        marker=(shard, num_shards),
        workers=max_workers,
        serial=serial,
        resume=resume,
        retries=retries,
        cell_fn=cell_fn,
        compression=compression,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        checkpoint_keep_last=checkpoint_keep_last,
        stop_requested=stop_requested,
    )

# ---------------------------------------------------------------------------
# Artifact loading and merging
# ---------------------------------------------------------------------------


@dataclass
class ShardArtifact:
    """A parsed shard (or merged) artifact."""

    manifest: dict
    records: list[dict]
    path: Path | None = None

    @property
    def spec(self) -> SweepSpec:
        return SweepSpec.from_payload(self.manifest["spec"])

    @property
    def cell_rows(self) -> list[dict]:
        return [r for r in self.records if r.get("kind") == CELL_KIND]

    @property
    def error_rows(self) -> list[dict]:
        return [r for r in self.records if r.get("kind") == CELL_ERROR_KIND]



def load_artifact(path) -> ShardArtifact:
    """Parse a shard artifact, tolerating a torn final line.

    Goes through the shared tolerant reader
    (:func:`repro.telemetry.jsonl.read_jsonl_tolerant`), so plain,
    gzip-, and zstd-compressed artifacts all load transparently (codec
    sniffed from magic bytes) and a crash mid-append — a partial
    trailing line, or a truncated compressed tail — costs at most the
    final record: the cell it would have recorded is simply recomputed
    on resume.  Any other malformed line is an error.
    """
    path = Path(path)
    parsed = read_jsonl_tolerant(path)
    if not parsed or parsed[0].get("kind") != SHARD_MANIFEST_KIND:
        raise ValueError(f"{path}: missing {SHARD_MANIFEST_KIND!r} header")
    return ShardArtifact(manifest=parsed[0], records=parsed[1:], path=path)


def _load_all(artifacts) -> list[ShardArtifact]:
    return [
        a if isinstance(a, ShardArtifact) else load_artifact(a)
        for a in artifacts
    ]


@dataclass
class MergedSweep:
    """The fold of shard artifacts back into one sweep.

    ``sweep.rows`` holds every recovered cell summary in canonical grid
    order; cells that only produced error rows surface in ``errors``
    and cells no artifact covered in ``missing`` — merge never drops a
    cell silently.
    """

    spec: SweepSpec
    sweep: "SweepResult"  # noqa: F821 - runtime import below
    errors: list[dict] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.errors and not self.missing

    def require_complete(self) -> "MergedSweep":
        if not self.complete:
            raise ValueError(
                f"merge incomplete: {len(self.errors)} error cell(s) "
                f"{[e['cell_id'] for e in self.errors]}, "
                f"{len(self.missing)} missing cell(s) {self.missing}"
            )
        return self


def merge_artifacts(
    artifacts: Iterable[ShardArtifact | str | Path],
) -> MergedSweep:
    """Fold shard artifacts (any subset, any order) into a sweep.

    All artifacts must carry the same spec fingerprint.  Duplicate
    coverage of a cell is fine when the rows agree (they are the same
    deterministic computation); a value conflict raises, because that
    is exactly the nondeterminism this layer exists to rule out.
    """
    from ..analysis.sweep import SweepResult

    loaded = _load_all(artifacts)
    if not loaded:
        raise ValueError("no artifacts to merge")
    spec = loaded[0].spec
    first_tier = loaded[0].manifest.get("spec", {}).get("equivalence", "bitwise")
    for art in loaded[1:]:
        if art.manifest["spec_fingerprint"] != loaded[0].manifest["spec_fingerprint"]:
            tier = art.manifest.get("spec", {}).get("equivalence", "bitwise")
            if tier != first_tier:
                # Name the actual crime when the specs differ by tier:
                # a generic fingerprint mismatch would hide that the
                # caller is mixing numeric regimes.
                from ..kernels.base import EquivalenceError

                raise EquivalenceError(
                    f"{art.path or '<memory>'}: cannot merge a {tier!r}-tier "
                    f"artifact into a {first_tier!r}-tier sweep — the tiers "
                    "follow different numeric contracts and their rows are "
                    "not comparable; re-run the sweep under one tier"
                )
            raise ValueError(
                f"{art.path or '<memory>'}: spec fingerprint "
                f"{art.manifest['spec_fingerprint']} does not match "
                f"{loaded[0].manifest['spec_fingerprint']}"
            )

    cells = spec.cells()
    known = {c.cell_id for c in cells}
    rows_by_id: dict[str, dict] = {}
    errors_by_id: dict[str, dict] = {}
    for art in loaded:
        for record in art.cell_rows:
            cid = record["cell_id"]
            if cid not in known:
                raise ValueError(
                    f"{art.path or '<memory>'}: cell {cid} is not in the grid"
                )
            seen = rows_by_id.get(cid)
            if seen is None:
                rows_by_id[cid] = record
            # Duplicate coverage must agree only on the deterministic
            # surface: telemetry snapshots carry wall-clock ``time/``
            # metrics that legitimately differ between two runs of the
            # same cell, so they are compared through
            # deterministic_view.  Either row's snapshot serves the
            # merge (first seen wins).
            elif seen["summary"] != record["summary"] or deterministic_view(
                seen.get("telemetry") or {}
            ) != deterministic_view(record.get("telemetry") or {}):
                raise ValueError(
                    f"cell {cid} has conflicting rows across artifacts "
                    f"(nondeterministic cell?)"
                )
        for record in art.error_rows:
            errors_by_id.setdefault(record["cell_id"], record)

    rows: list[dict] = []
    snaps: list[dict] = []
    errors: list[dict] = []
    missing: list[str] = []
    for cell in cells:
        record = rows_by_id.get(cell.cell_id)
        if record is not None:
            rows.append(dict(record["summary"]))
            if "telemetry" in record:
                snaps.append(record["telemetry"])
        elif cell.cell_id in errors_by_id:
            errors.append(errors_by_id[cell.cell_id])
        else:
            missing.append(cell.cell_id)
    merged_snapshot = (
        fold_results(snaps, merge_snapshots) if snaps else None
    )
    return MergedSweep(
        spec=spec,
        sweep=SweepResult(rows=rows, telemetry=merged_snapshot),
        errors=errors,
        missing=missing,
    )


def write_merged_artifact(
    merged: MergedSweep, artifacts, path, *, compression: str | None = None
) -> Path:
    """Persist a merge as an artifact of its own (hierarchical merges).

    The output uses the reserved ``shard 0/0`` marker and the union of
    the inputs' cell and unresolved-error records, so two hosts'
    artifacts can be pre-merged locally and the halves merged again
    later: merge is subset-associative by construction.
    """
    loaded = _load_all(artifacts)
    path = Path(path)
    codec = artifact_compression(path, compression)
    resolved = set()
    records: dict[str, dict] = {}
    for art in loaded:
        for record in art.cell_rows:
            records.setdefault(record["cell_id"], record)
            resolved.add(record["cell_id"])
    for art in loaded:
        for record in art.error_rows:
            if record["cell_id"] not in resolved:
                records.setdefault(record["cell_id"], record)
    order = {c.cell_id: i for i, c in enumerate(merged.spec.cells())}
    body = sorted(records.values(), key=lambda r: order[r["cell_id"]])
    if merged.sweep.telemetry is not None:
        body.append(
            {"kind": SHARD_TELEMETRY_KIND, "snapshot": merged.sweep.telemetry}
        )
    _write_artifact(path, codec, merged.spec, (0, 0), body)
    return path
