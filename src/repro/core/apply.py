"""Vector-engine state evolution: one batch against the host tree.

Every system's vector engine ends with the tree holding what a sequential
execution of the batch in timestamp order would leave, and with that
execution's results. :func:`apply_batch` produces both without one host
call per query, and :func:`apply_in_order` without one per overwrite:

* **Results.** Each point request's result depends only on its key's value
  at the start of the batch and the update-class requests before it on that
  key, so one :func:`~repro.core.combining.combine_point_requests` pass,
  one level-synchronous lookup per distinct key and
  :func:`~repro.core.combining.propagate_results` give every point result —
  Eirene's RESULT_CAL, linearizable by §6.
* **Overwrites.** An UPDATE or INSERT whose key is present at batch start,
  is deleted by no request and is covered by no range only rewrites that
  key's payload word. All of them are answered by one slot lookup in the
  leaves the caller's own batch traversal found and one scatter of each
  key's last value, before anything else runs.
* **Everything else** (inserts of absent keys, deletes, ranges and every
  write on a key one of those touches) runs on the tree, one host call
  each, in the order given. None of these reads or writes an overwrite
  key, and splits, slot shifts and deletes move a key's payload word
  together with the key, so the tree ends exactly as the per-request
  execution leaves it and each range scan sees every write before it.
  A batch that raises mid-way (``TreeFullError``) has already landed all
  its overwrites, also those ordered after the request that raised.
"""

from __future__ import annotations

import numpy as np

from .._types import NULL_VALUE, OpKind
from ..btree import batch_find_leaf, batch_leaf_lookup, batch_leaf_slots
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
    idx = np.flatnonzero(batch.kinds != OpKind.QUERY)
    _, ranges = apply_in_order(tree, batch, idx, plan.issued_keys, leaves)
    results.set_range_results(ranges)
    return results


def apply_in_order(
    tree: BPlusTree,
    batch: RequestBatch,
    idx: np.ndarray,
    start_keys: np.ndarray,
    start_leaves: np.ndarray,
) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Run the update-class and range requests at batch positions ``idx``
    on ``tree`` as if one at a time, in the order given: overwrites in one
    scatter, the rest one host call each.

    ``start_keys`` are sorted and distinct, with every point key at ``idx``
    among them, and ``start_leaves`` are their leaves in ``tree`` as it
    stands: the callers' own batch traversal, not repeated here.

    Returns each request's old value (``NULL_VALUE`` for ranges) and the
    range results keyed by batch position. Point keys are checked by
    :meth:`~repro.workloads.requests.RequestBatch.check_point_keys` before
    a batch reaches an engine.
    """
    old = np.full(idx.size, NULL_VALUE, dtype=np.int64)
    ranges: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    kinds = batch.kinds[idx]
    keys = batch.keys[idx]
    values = batch.values[idx]
    ends = batch.range_ends[idx]
    start = (start_keys, start_leaves)
    rest = np.flatnonzero(~_apply_overwrites(tree, start, kinds, keys, values, ends, old))
    for j, i, kind, key, value, end in zip(
        rest.tolist(),
        idx[rest].tolist(),
        kinds[rest].tolist(),
        keys[rest].tolist(),
        values[rest].tolist(),
        ends[rest].tolist(),
    ):
        if kind == OpKind.DELETE:
            old[j] = tree.delete(key)
        elif kind == OpKind.RANGE:
            ranges[i] = tree.range_scan(key, end)
        else:
            old[j] = tree.upsert(key, value)
    return old, ranges


def _apply_overwrites(
    tree: BPlusTree,
    start: tuple[np.ndarray, np.ndarray],
    kinds: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    ends: np.ndarray,
    old: np.ndarray,
) -> np.ndarray:
    """Apply every overwrite among the requests, fill in its old value and
    return the mask of the requests applied.

    A key's first overwrite sees its value at batch start, each later one
    the value of the write before it; the key's payload word ends holding
    its last write.
    """
    write = (kinds == OpKind.UPDATE) | (kinds == OpKind.INSERT)
    done = np.zeros(kinds.size, dtype=bool)
    if not write.any():
        return done
    w_keys, w_key = np.unique(keys[write], return_inverse=True)
    start_keys, start_leaves = start
    leaves = start_leaves[np.searchsorted(start_keys, w_keys)]
    addrs, hit = batch_leaf_slots(tree, leaves, w_keys)
    hit &= ~np.isin(w_keys, keys[kinds == OpKind.DELETE])
    # a range [lo, hi] covers w_keys[searchsorted(lo) : searchsorted(hi, right)];
    # +1 at each start and -1 at each stop, summed, counts the ranges over a key
    scans = (kinds == OpKind.RANGE) & (keys <= ends)
    n = w_keys.size + 1
    covered = np.cumsum(
        np.bincount(np.searchsorted(w_keys, keys[scans]), minlength=n)
        - np.bincount(np.searchsorted(w_keys, ends[scans], side="right"), minlength=n)
    )[:-1]
    hit &= covered == 0
    over = hit[w_key]
    req = np.flatnonzero(write)[over]
    key = w_key[over]
    by_key = np.argsort(key, kind="stable")
    req, key = req[by_key], key[by_key]  # grouped by key, in order within a key
    first = np.ones(req.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    last = np.ones(req.size, dtype=bool)
    last[:-1] = first[1:]
    data = tree.arena.data
    chained = np.empty(req.size, dtype=values.dtype)
    chained[1:] = values[req[:-1]]
    old[req] = np.where(first, data[addrs[key]], chained)
    data[addrs[key[last]]] = values[req[last]]
    done[req] = True
    return done
