"""Vector-engine state evolution: one batch against the host tree.

Every system's vector engine ends with the tree holding what a sequential
execution of the batch in timestamp order would leave, and with that
execution's results. :func:`apply_batch` produces both without one host
call per query:

* **Results.** Each point request's result depends only on its key's value
  at the start of the batch and the update-class requests before it on that
  key, so one :func:`~repro.core.combining.combine_point_requests` pass,
  one level-synchronous lookup per distinct key and
  :func:`~repro.core.combining.propagate_results` give every point result —
  Eirene's RESULT_CAL, linearizable by §6.
* **Writes and ranges.** Every non-query request runs on the tree, one host
  call each, in timestamp order. Queries never change the tree, so the
  tree ends exactly as the per-request execution leaves it, and each range
  scan sees every write before it.
"""

from __future__ import annotations

import numpy as np

from .._types import NULL_VALUE, OpKind
from ..btree import batch_find_leaf, batch_leaf_lookup
from ..btree.tree import BPlusTree
from ..workloads.requests import BatchResults, RequestBatch
from .combining import combine_point_requests, propagate_results


def apply_batch(tree: BPlusTree, batch: RequestBatch) -> BatchResults:
    """Execute ``batch`` against ``tree`` as if in timestamp order; returns
    the results of that sequential execution."""
    results = BatchResults.empty(batch.n)
    plan = combine_point_requests(batch)
    leaves, _ = batch_find_leaf(tree, plan.issued_keys)
    old, _ = batch_leaf_lookup(tree, leaves, plan.issued_keys)
    propagate_results(plan, old, results)
    _, ranges = apply_in_order(tree, batch, np.flatnonzero(batch.kinds != OpKind.QUERY))
    results.set_range_results(ranges)
    return results


def apply_in_order(
    tree: BPlusTree, batch: RequestBatch, idx: np.ndarray
) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Run the update-class and range requests at batch positions ``idx``
    on ``tree``, one host call each, in the order given.

    Returns each request's old value (``NULL_VALUE`` for ranges) and the
    range results keyed by batch position. Point keys are checked by
    :meth:`~repro.workloads.requests.RequestBatch.check_point_keys` before
    a batch reaches an engine.
    """
    old = np.full(idx.size, NULL_VALUE, dtype=np.int64)
    ranges: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    kinds = batch.kinds[idx].tolist()
    keys = batch.keys[idx].tolist()
    values = batch.values[idx].tolist()
    ends = batch.range_ends[idx].tolist()
    for j, (i, kind, key) in enumerate(zip(idx.tolist(), kinds, keys)):
        if kind == OpKind.DELETE:
            old[j] = tree.delete(key)
        elif kind == OpKind.RANGE:
            ranges[i] = tree.range_scan(key, ends[j])
        else:
            old[j] = tree.upsert(key, values[j])
    return old, ranges
