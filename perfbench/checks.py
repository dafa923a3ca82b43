"""Output checks. A wrong result is counted as one failed operation, never
raised, so a run always reports how many operations failed.

Two rules, chosen by what the system guarantees on its engine:

* :class:`ReferenceCheck` — linearizable systems (Eirene on both engines,
  every system on the vector engine). Every result must equal the
  :class:`~repro.SequentialReference` run in timestamp order, and at the
  end of the run the system's ``items()`` must equal the reference's.
* :class:`RelaxedCheck` — NoCC, STM and Lock on the SIMT engine, which
  interleave requests for real. A point result must be the key's value
  before the batch or a value written to that key within the batch. A range
  result may hold only such pairs, must stay within its bounds, and must
  include every key that was in range before the batch.
"""

from __future__ import annotations

import numpy as np

from repro import NULL_VALUE, OpKind, SequentialReference


def mismatches(batch, got, want) -> int:
    """Requests whose result in ``got`` differs from ``want``."""
    point = batch.kinds != OpKind.RANGE
    bad = int(np.count_nonzero((got.values != want.values) & point))
    for i in np.flatnonzero(~point):
        gk, gv = got.range_result(int(i))
        wk, wv = want.range_result(int(i))
        if not (np.array_equal(gk, wk) and np.array_equal(gv, wv)):
            bad += 1
    return bad


def state_mismatches(got_keys, got_values, want_keys, want_values) -> int:
    """Keys whose final value differs, is missing or is extra."""
    got = dict(zip(got_keys.tolist(), got_values.tolist()))
    want = dict(zip(want_keys.tolist(), want_values.tolist()))
    return sum(1 for k in got.keys() | want.keys() if got.get(k) != want.get(k))


class Reference:
    """The sequential reference of one run, shared by every linearizable
    system: they all start from the same pool and see the same batches, so
    each batch is executed once."""

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        self._reference = SequentialReference(keys, values)
        self._batch = None
        self._results = None
        self._items = None

    def results(self, batch):
        if batch is not self._batch:
            self._results = self._reference.execute(batch)
            self._batch = batch
            self._items = None
        return self._results

    def items(self):
        if self._items is None:
            self._items = self._reference.items()
        return self._items


class ReferenceCheck:
    """Results and final state must equal the sequential reference."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self._want = None

    def before(self, batch, items) -> None:
        self._want = self.reference.results(batch)

    def after(self, batch, results) -> int:
        return mismatches(batch, results, self._want)

    def final(self, items) -> int:
        return state_mismatches(*items(), *self.reference.items())


class RelaxedCheck:
    """Results must be values the key held before or was given within the
    batch; ranges must be in bounds and miss no pre-existing key."""

    def __init__(self) -> None:
        self._pre_keys = np.zeros(0, dtype=np.int64)
        self._pre: dict[int, int] = {}

    def before(self, batch, items) -> None:
        self._pre_keys, pre_values = items()
        self._pre = dict(zip(self._pre_keys.tolist(), pre_values.tolist()))

    def after(self, batch, results) -> int:
        written: dict[int, set[int]] = {}
        deleted: set[int] = set()
        for kind, key, value in zip(
            batch.kinds.tolist(), batch.keys.tolist(), batch.values.tolist()
        ):
            if kind in (OpKind.UPDATE, OpKind.INSERT):
                written.setdefault(key, set()).add(value)
            elif kind == OpKind.DELETE:
                deleted.add(key)
        pre = self._pre

        def allowed(key: int, value: int) -> bool:
            if value == pre.get(key, NULL_VALUE) or value in written.get(key, ()):
                return True
            return value == NULL_VALUE and key in deleted

        bad = 0
        for i, (kind, key, value) in enumerate(
            zip(batch.kinds.tolist(), batch.keys.tolist(), results.values.tolist())
        ):
            if kind != OpKind.RANGE:
                bad += not allowed(key, value)
                continue
            hi = int(batch.range_ends[i])
            rk, rv = results.range_result(i)
            ok = all(key <= k <= hi and allowed(k, v) for k, v in zip(rk.tolist(), rv.tolist()))
            lo_i = np.searchsorted(self._pre_keys, key, side="left")
            hi_i = np.searchsorted(self._pre_keys, hi, side="right")
            required = set(self._pre_keys[lo_i:hi_i].tolist()) - deleted
            ok = ok and required.issubset(rk.tolist())
            bad += not ok
        return bad

    def final(self, items) -> int:
        return 0


def make_check(system: str, engine: str, reference: Reference):
    """The check that matches what ``system`` guarantees on ``engine``."""
    if engine == "simt" and system != "eirene":
        return RelaxedCheck()
    return ReferenceCheck(reference)
