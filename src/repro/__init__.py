"""Eirene — combining-based synchronization for concurrent GPU B+trees.

A full Python reproduction of Zhang et al., *"Boosting Performance and QoS
for Concurrent GPU B+trees by Combining-based Synchronization"* (PPoPP'23),
built on a SIMT execution simulator (:mod:`repro.simt`) instead of a
physical GPU. See DESIGN.md for the system inventory and EXPERIMENTS.md for
per-figure reproduction results.

Quickstart::

    import numpy as np
    from repro import make_system, YcsbWorkload, build_key_pool

    rng = np.random.default_rng(0)
    keys, values = build_key_pool(2**14, rng)
    eirene = make_system("eirene", keys, values)
    batch = YcsbWorkload(pool=keys).generate(4096, rng)
    outcome = eirene.process_batch(batch)
    print(outcome.throughput.describe())
"""

from ._types import EMPTY_KEY, MAX_KEY, NO_NODE, NULL_VALUE, OpKind
from .baselines import (
    BatchOutcome,
    LockGBTree,
    NoCCGBTree,
    StmGBTree,
    System,
    merge_outcomes,
)
from .btree import BPlusTree
from .config import COMBINING_ONLY, FULL_EIRENE, DeviceConfig, EireneConfig, TreeConfig
from .core import EireneTree
from .device import DeviceContext, DeviceSnapshot
from .errors import (
    ConfigError,
    LinearizabilityViolation,
    ReproError,
    TransactionAborted,
    TreeError,
    WorkloadError,
)
from .factory import build_device_tree, make_system
from .lincheck import SequentialReference, check_linearizable
from .memory import MemoryArena
from .metrics import ResponseTimeStats, ShardQoS, ThroughputResult, response_time_stats
from .sharding import ParallelShardedSystem, ShardPlan, ShardRouter
from .workloads import (
    PAPER_DEFAULT,
    RANGE_4,
    RANGE_8,
    BatchResults,
    RequestBatch,
    YcsbMix,
    YcsbWorkload,
    build_key_pool,
)

__version__ = "1.0.0"

__all__ = [
    "BPlusTree",
    "BatchOutcome",
    "BatchResults",
    "COMBINING_ONLY",
    "ConfigError",
    "DeviceConfig",
    "DeviceContext",
    "DeviceSnapshot",
    "EMPTY_KEY",
    "EireneConfig",
    "EireneTree",
    "FULL_EIRENE",
    "LinearizabilityViolation",
    "LockGBTree",
    "MAX_KEY",
    "MemoryArena",
    "NO_NODE",
    "NULL_VALUE",
    "NoCCGBTree",
    "OpKind",
    "PAPER_DEFAULT",
    "ParallelShardedSystem",
    "RANGE_4",
    "RANGE_8",
    "ReproError",
    "RequestBatch",
    "ResponseTimeStats",
    "SequentialReference",
    "ShardPlan",
    "ShardQoS",
    "ShardRouter",
    "StmGBTree",
    "System",
    "ThroughputResult",
    "TransactionAborted",
    "TreeConfig",
    "TreeError",
    "WorkloadError",
    "YcsbMix",
    "YcsbWorkload",
    "build_device_tree",
    "build_key_pool",
    "check_linearizable",
    "make_system",
    "merge_outcomes",
    "response_time_stats",
]
