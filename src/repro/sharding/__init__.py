"""Key-range sharding: route one request batch across N device contexts.

The serving-layer extension of the single-GPU reproduction (ROADMAP
north-star): a :class:`ShardPlan` cuts the key space at fence keys, a
:class:`ShardRouter` splits each buffered batch (clipping cross-shard range
queries at the fences), and a :class:`ParallelShardedSystem` runs every
shard's ordinary pass pipeline on its own
:class:`~repro.device.DeviceContext` — in-process or on worker processes —
before :func:`merge_shard_outcomes` stitches results, response times, and
per-shard traces back into one :class:`~repro.baselines.base.BatchOutcome`.
"""

from .merge import merge_shard_outcomes
from .parallel import ParallelShardedSystem
from .router import RoutedSubBatch, ShardPlan, ShardRouter

__all__ = [
    "ParallelShardedSystem",
    "RoutedSubBatch",
    "ShardPlan",
    "ShardRouter",
    "merge_shard_outcomes",
]
