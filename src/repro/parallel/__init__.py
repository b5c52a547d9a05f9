"""Parallel sweep machinery: process pools, seeds, and sweep sharding."""

from .pool import default_workers, fold_results, run_tasks
from .rng import SeedFactory, spawn_generators
from .scheduler import (
    SCHED_EVENT_KIND,
    Lease,
    SweepScheduler,
    run_scheduled,
    scheduler_events_path,
)
from .sharding import (
    MergedSweep,
    ShardArtifact,
    ShardRunResult,
    SweepCell,
    SweepSpec,
    artifact_compression,
    classify_error,
    load_artifact,
    merge_artifacts,
    parse_shard_arg,
    partition_cells,
    run_shard,
    write_merged_artifact,
)
from .signals import DrainFlag, drain_on_signals
from .status import (
    STATUS_KIND,
    STATUS_SCHEMA,
    ShardStatusWriter,
    find_status_files,
    load_status,
    shard_status_path,
)

__all__ = [
    "DrainFlag",
    "Lease",
    "MergedSweep",
    "SCHED_EVENT_KIND",
    "STATUS_KIND",
    "STATUS_SCHEMA",
    "SeedFactory",
    "ShardArtifact",
    "ShardRunResult",
    "ShardStatusWriter",
    "SweepCell",
    "SweepScheduler",
    "SweepSpec",
    "artifact_compression",
    "classify_error",
    "default_workers",
    "drain_on_signals",
    "find_status_files",
    "fold_results",
    "load_artifact",
    "load_status",
    "merge_artifacts",
    "parse_shard_arg",
    "partition_cells",
    "run_scheduled",
    "run_shard",
    "run_tasks",
    "scheduler_events_path",
    "shard_status_path",
    "spawn_generators",
    "write_merged_artifact",
]
