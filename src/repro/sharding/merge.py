"""Stitch per-shard batch outcomes back into one :class:`BatchOutcome`.

Shards are modeled as *separate devices running concurrently*, so the
merged batch time is the straggler's time (``max`` over shard seconds) and
the merged phase breakdown is the straggler's phase breakdown — whereas
device *work* (instructions, transactions, conflicts) sums across shards,
exactly like multi-GPU accounting. Per-shard :class:`PipelineTrace`s are
both merged into one trace (pass records summed by name) and kept
individually in ``outcome.extras["shards"]`` next to each shard's QoS
summary, so the harness can show where the straggler spent its time.

Result stitching:

* a point request appears on exactly one shard — its value and response
  time scatter straight back to its original batch index;
* a split range query appears on every shard it overlaps — the per-shard
  pieces concatenate in shard order (ascending key order, since shards are
  contiguous key ranges), and its response time is the worst piece's (the
  request is only answered when its last shard finishes).
"""

from __future__ import annotations

import numpy as np

from .._types import OpKind
from ..baselines.base import BatchOutcome
from ..errors import SimulationError
from ..metrics.qos import ShardQoS, response_time_stats
from ..metrics.trace import merge_traces
from ..workloads.requests import BatchResults, RequestBatch
from .router import RoutedSubBatch


def merge_shard_outcomes(
    batch: RequestBatch,
    routed: list[RoutedSubBatch],
    outcomes: list[BatchOutcome | None],
    system: str,
) -> BatchOutcome:
    """Combine per-shard outcomes of one routed batch (None = empty shard)."""
    live = [(r, o) for r, o in zip(routed, outcomes) if o is not None]
    if not live:
        raise SimulationError("no shard produced an outcome (empty batch?)")
    if any(r.n != o.n_requests for r, o in live):
        raise SimulationError("shard outcome size disagrees with its sub-batch")

    results = BatchResults.empty(batch.n)
    response = np.zeros(batch.n, dtype=np.float64)
    ranges: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
    is_range = batch.kinds == OpKind.RANGE
    for r, o in live:
        # point results scatter 1:1; a split range visits several shards, so
        # response time keeps the worst piece and pieces accumulate below
        results.values[r.origin] = o.results.values
        np.maximum.at(response, r.origin, o.response_time_s)
        offs = o.results.range_offsets
        for j in np.flatnonzero((offs[1:] > offs[:-1]) | is_range[r.origin]).tolist():
            lo, hi = int(offs[j]), int(offs[j + 1])
            ks, vs = ranges.setdefault(int(r.origin[j]), ([], []))
            ks.append(o.results.range_keys[lo:hi])
            vs.append(o.results.range_values[lo:hi])
    results.set_range_results(
        {
            i: (np.concatenate(ks), np.concatenate(vs))
            for i, (ks, vs) in ranges.items()
        }
    )

    straggler = max((o for _, o in live), key=lambda o: o.seconds)
    merged_trace = merge_traces([o.trace for _, o in live])
    shard_qos = [
        ShardQoS(
            shard=r.shard,
            n_requests=o.n_requests,
            seconds=o.seconds,
            stats=response_time_stats(o.response_time_s),
        )
        for r, o in live
    ]
    out = BatchOutcome(
        system=system,
        results=results,
        n_requests=batch.n,
        seconds=straggler.seconds,
        phase=straggler.phase,
        response_time_s=response,
        mem_inst=sum(o.mem_inst for _, o in live),
        control_inst=sum(o.control_inst for _, o in live),
        alu_inst=sum(o.alu_inst for _, o in live),
        atomic_inst=sum(o.atomic_inst for _, o in live),
        transactions=sum(o.transactions for _, o in live),
        conflicts=sum(o.conflicts for _, o in live),
        traversal_steps=float(
            np.average(
                [o.traversal_steps for _, o in live],
                weights=[max(o.n_requests, 1) for _, o in live],
            )
        ),
        trace=merged_trace,
        extras={
            "shards": shard_qos,
            "shard_traces": {r.shard: o.trace for r, o in live if o.trace is not None},
            "straggler_shard": max(live, key=lambda ro: ro[1].seconds)[0].shard,
        },
    )
    return out
