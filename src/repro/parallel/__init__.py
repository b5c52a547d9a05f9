"""Parallel sweep machinery: process pools, seeds, and sweep sharding."""

from .pool import default_workers, fold_results, run_tasks
from .rng import SeedFactory, spawn_generators
from .scheduler import (
    SWEEP_EVENT_KIND,
    WorkQueue,
    event_log_path,
    find_event_logs,
    fold_events,
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

__all__ = [
    "DrainFlag",
    "MergedSweep",
    "SWEEP_EVENT_KIND",
    "SeedFactory",
    "ShardArtifact",
    "ShardRunResult",
    "SweepCell",
    "SweepSpec",
    "WorkQueue",
    "artifact_compression",
    "classify_error",
    "default_workers",
    "drain_on_signals",
    "event_log_path",
    "find_event_logs",
    "fold_events",
    "fold_results",
    "load_artifact",
    "merge_artifacts",
    "parse_shard_arg",
    "partition_cells",
    "run_shard",
    "run_tasks",
    "spawn_generators",
    "write_merged_artifact",
]
