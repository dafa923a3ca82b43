"""The per-request host apply: the test oracle for the vector engine's
state evolution (:func:`repro.core.apply.apply_batch`).

This is the vector engine's original apply loop, behaviour unchanged: one
host :class:`~repro.btree.BPlusTree` call per request, in timestamp order.
``apply_batch`` must match it bit for bit in results, range results, every
arena word, ``split_events``, root and height.

:func:`apply_issued_updates` is Eirene's original per-run write loop, the
oracle for ``EireneTree._apply_issued_updates``; install it for one test
with::

    monkeypatch.setattr(EireneTree, "_apply_issued_updates", apply_issued_updates)
"""

from __future__ import annotations

import numpy as np

from repro._types import NULL_VALUE, OpKind
from repro.workloads.requests import BatchResults


def apply_in_timestamp_order(tree, batch) -> BatchResults:
    """Functionally execute the batch against the tree in arrival order."""
    results = BatchResults.empty(batch.n)
    ranges: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i in range(batch.n):
        kind = batch.kinds[i]
        key = int(batch.keys[i])
        if kind == OpKind.QUERY:
            results.values[i] = tree.search(key)
        elif kind in (OpKind.UPDATE, OpKind.INSERT):
            results.values[i] = tree.upsert(key, int(batch.values[i]))
        elif kind == OpKind.DELETE:
            results.values[i] = tree.delete(key)
        elif kind == OpKind.RANGE:
            ranges[i] = tree.range_scan(key, int(batch.range_ends[i]))
        else:  # pragma: no cover
            results.values[i] = NULL_VALUE
    results.set_range_results(ranges)
    return results


def apply_issued_updates(system, batch, plan, u_runs, u_leaves) -> np.ndarray:
    """Apply issued update-class requests (unique keys) host-side in run
    order, one host call each (``u_leaves`` unused); returns their old
    values."""
    old = np.full(u_runs.size, NULL_VALUE, dtype=np.int64)
    tree = system.tree
    for j, r in enumerate(u_runs):
        kind = int(plan.issued_kinds[r])
        key = int(plan.issued_keys[r])
        if kind == OpKind.DELETE:
            old[j] = tree.delete(key)
        else:
            old[j] = tree.upsert(key, int(plan.issued_values[r]))
    return old
