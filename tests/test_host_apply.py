"""The vector engine's batched apply against the per-request oracle.

:func:`repro.core.apply.apply_batch` computes point results from the
combining plan, answers value-only overwrites of keys present at batch
start with one scatter, and calls the host tree once for every other
non-query request, in timestamp order. It must leave exactly what the
per-request loop (``tests/apply_oracle.py``) leaves: results, range
results, every arena word, ``split_events``, root and height.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    MAX_KEY,
    NULL_VALUE,
    PAPER_DEFAULT,
    OpKind,
    TreeConfig,
    YcsbWorkload,
    build_key_pool,
    make_system,
)
from repro.btree import BPlusTree, batch_find_leaf
from repro.core.apply import apply_batch, apply_in_order
from repro.core.eirene import EireneTree
from repro.errors import TreeError, TreeFullError
from repro.sharding import ParallelShardedSystem
from repro.workloads.requests import RequestBatch
from tests.apply_oracle import apply_in_timestamp_order, apply_issued_updates

KEY_SPACE = 240
KIND_P = {
    OpKind.QUERY: 0.3,
    OpKind.UPDATE: 0.2,
    OpKind.INSERT: 0.2,
    OpKind.DELETE: 0.2,
    OpKind.RANGE: 0.1,
}


def _batch(kinds, keys, values=None, ends=None) -> RequestBatch:
    n = len(kinds)
    zeros = np.zeros(n, dtype=np.int64)
    return RequestBatch(
        kinds=np.asarray(kinds),
        keys=np.asarray(keys, dtype=np.int64),
        values=zeros if values is None else np.asarray(values, dtype=np.int64),
        range_ends=zeros if ends is None else np.asarray(ends, dtype=np.int64),
    )


def random_batch(rng: np.random.Generator, n: int) -> RequestBatch:
    """Mixed batch over a small key space: duplicate keys, deletes of absent
    keys, ranges between writes, stored value -1, and one forced
    insert -> delete -> insert chain on a single key."""
    kinds = rng.choice(list(KIND_P), size=n, p=list(KIND_P.values())).astype(np.int8)
    keys = rng.integers(0, KEY_SPACE, size=n)
    values = np.where(rng.random(n) < 0.2, NULL_VALUE, rng.integers(0, 1000, size=n))
    ends = np.where(kinds == OpKind.RANGE, keys + rng.integers(0, 40, size=n), 0)
    values = np.where((kinds == OpKind.UPDATE) | (kinds == OpKind.INSERT), values, 0)
    chain = np.sort(rng.choice(n, size=3, replace=False))
    kinds[chain] = (OpKind.INSERT, OpKind.DELETE, OpKind.INSERT)
    keys[chain] = rng.integers(0, KEY_SPACE)
    values[chain] = (NULL_VALUE, 0, 7)
    ends[chain] = 0
    return _batch(kinds, keys, values, ends)


def _tree(fanout: int) -> BPlusTree:
    keys = np.arange(0, KEY_SPACE, 4, dtype=np.int64)
    values = np.where(keys % 12 == 0, NULL_VALUE, keys * 10)
    return BPlusTree.build(keys, values, TreeConfig(fanout=fanout, arena_headroom=8.0))


def assert_same_outcome(tree, oracle_tree, got, want) -> None:
    np.testing.assert_array_equal(got.values, want.values)
    np.testing.assert_array_equal(got.range_offsets, want.range_offsets)
    np.testing.assert_array_equal(got.range_keys, want.range_keys)
    np.testing.assert_array_equal(got.range_values, want.range_values)
    np.testing.assert_array_equal(tree.arena.data, oracle_tree.arena.data)
    assert tree.split_events == oracle_tree.split_events
    assert (tree.root, tree.height, tree.node_count) == (
        oracle_tree.root, oracle_tree.height, oracle_tree.node_count
    )


@pytest.mark.parametrize("fanout", [4, 8, 32])
@pytest.mark.parametrize("seed", range(6))
def test_apply_batch_matches_oracle(fanout, seed):
    rng = np.random.default_rng(seed)
    tree, oracle_tree = _tree(fanout), _tree(fanout)
    height0 = tree.height
    for _ in range(6):
        batch = random_batch(rng, int(rng.integers(3, 120)))
        got = apply_batch(tree, batch)
        want = apply_in_timestamp_order(oracle_tree, batch)
        assert_same_outcome(tree, oracle_tree, got, want)
    tree.validate()
    if fanout == 4:
        assert tree.height > height0  # splits reached the root


def test_range_sees_writes_before_it_only():
    tree, oracle_tree = _tree(8), _tree(8)
    batch = _batch(
        [OpKind.UPDATE, OpKind.UPDATE, OpKind.RANGE, OpKind.UPDATE, OpKind.INSERT, OpKind.RANGE],
        [8, 8, 0, 8, 9, 0],
        values=[1, 2, 0, 3, 4, 0],
        ends=[0, 0, 20, 0, 0, 20],
    )
    got = apply_batch(tree, batch)
    assert_same_outcome(tree, oracle_tree, got, apply_in_timestamp_order(oracle_tree, batch))
    ks, vs = got.range_result(2)
    assert dict(zip(ks.tolist(), vs.tolist()))[8] == 2
    ks, vs = got.range_result(5)
    assert dict(zip(ks.tolist(), vs.tolist()))[9] == 4


def _record_tree_calls(monkeypatch) -> list[str]:
    """Name every host point/range call on any BPlusTree from now on."""
    calls: list[str] = []
    for op in ("search", "upsert", "delete", "range_scan"):
        orig = getattr(BPlusTree, op)
        monkeypatch.setattr(
            BPlusTree, op, lambda self, *a, _op=op, _f=orig: calls.append(_op) or _f(self, *a)
        )
    return calls


def test_queries_make_no_tree_call(monkeypatch):
    """Point results come from the combining plan; the writes here sit
    under a later range, so each of them makes one host tree call."""
    tree = _tree(8)
    calls = _record_tree_calls(monkeypatch)
    batch = _batch(
        [OpKind.QUERY, OpKind.UPDATE, OpKind.UPDATE, OpKind.QUERY, OpKind.DELETE, OpKind.RANGE],
        [8, 8, 8, 16, 9, 0],
        values=[0, 1, 2, 0, 0, 0],
        ends=[0, 0, 0, 0, 0, 20],
    )
    apply_batch(tree, batch)
    assert calls == ["upsert", "upsert", "delete", "range_scan"]


def _apply_three_ways(monkeypatch, batch, make_tree=lambda: _tree(8)):
    """Apply ``batch`` to three equal trees: by ``apply_batch``, by
    ``apply_in_order`` over its non-query requests (Eirene's write path) and
    by the oracle. All three must agree, old values included. Returns the
    tree ``apply_batch`` evolved, the oracle's results and the upsert calls
    made by ``apply_batch`` and by the oracle."""
    tree, in_order_tree, oracle_tree = make_tree(), make_tree(), make_tree()
    calls = _record_tree_calls(monkeypatch)
    got = apply_batch(tree, batch)
    upserts = calls.count("upsert")
    idx = np.flatnonzero(batch.kinds != OpKind.QUERY)
    point = batch.kinds[idx] != OpKind.RANGE
    start_keys = np.unique(batch.keys[idx[point]])
    start_leaves, _ = batch_find_leaf(in_order_tree, start_keys)
    old, _ = apply_in_order(in_order_tree, batch, idx, start_keys, start_leaves)
    calls.clear()
    want = apply_in_timestamp_order(oracle_tree, batch)
    assert_same_outcome(tree, oracle_tree, got, want)
    np.testing.assert_array_equal(in_order_tree.arena.data, oracle_tree.arena.data)
    np.testing.assert_array_equal(old[point], want.values[idx[point]])
    tree.validate()
    return tree, want, upserts, calls.count("upsert")


def test_overwrite_before_its_leaf_splits(monkeypatch):
    # fanout 4 packs leaves of 3 keys: [0, 4, 8] fills with 5 and splits on 6
    batch = _batch(
        [OpKind.UPDATE, OpKind.INSERT, OpKind.INSERT, OpKind.UPDATE, OpKind.INSERT],
        [4, 5, 6, 4, 8],
        values=[1, 2, 3, 4, 5],
    )
    tree, want, upserts, oracle_upserts = _apply_three_ways(
        monkeypatch, batch, lambda: _tree(4)
    )
    assert tree.split_events
    assert (upserts, oracle_upserts) == (2, 5)
    assert want.values[[0, 3, 4]].tolist() == [40, 1, 80]


def test_overwrite_among_inserts_and_deletes_in_its_leaf(monkeypatch):
    # fanout 8 packs leaves of 6 keys: 8 shares [0 .. 20] with the others here
    batch = _batch(
        [OpKind.INSERT, OpKind.DELETE, OpKind.UPDATE, OpKind.INSERT,
         OpKind.DELETE, OpKind.UPDATE, OpKind.INSERT],
        [2, 0, 8, 9, 16, 8, 1],
        values=[1, 0, 2, 3, 0, 4, 5],
    )
    tree, want, upserts, oracle_upserts = _apply_three_ways(monkeypatch, batch)
    assert (upserts, oracle_upserts) == (3, 5)
    assert tree.search(8) == 4


def test_repeated_overwrites_chain_old_values(monkeypatch):
    batch = _batch(
        [OpKind.UPDATE, OpKind.QUERY, OpKind.INSERT, OpKind.UPDATE, OpKind.UPDATE],
        [8, 8, 8, 8, 20],
        values=[1, 0, 2, 3, 4],
    )
    tree, want, upserts, _ = _apply_three_ways(monkeypatch, batch)
    assert upserts == 0
    assert want.values.tolist() == [80, 1, 1, 2, 200]
    assert (tree.search(8), tree.search(20)) == (3, 4)


def test_overwrite_of_stored_null_value(monkeypatch):
    # keys 0 and 12 store NULL_VALUE: present by key, not by value
    batch = _batch([OpKind.UPDATE, OpKind.UPDATE, OpKind.INSERT], [12, 12, 0], values=[5, 6, 7])
    tree, want, upserts, _ = _apply_three_ways(monkeypatch, batch)
    assert upserts == 0
    assert want.values.tolist() == [NULL_VALUE, 5, NULL_VALUE]
    assert (tree.search(12), tree.search(0)) == (6, 7)


def test_keys_under_a_range_stay_scalar(monkeypatch):
    """8 lies under an earlier range and 24 under a later one; 100 and 56
    (under an empty range) are overwritten in place."""
    batch = _batch(
        [OpKind.RANGE, OpKind.UPDATE, OpKind.UPDATE, OpKind.RANGE,
         OpKind.UPDATE, OpKind.RANGE, OpKind.UPDATE],
        [0, 8, 24, 20, 100, 60, 56],
        values=[0, 1, 2, 0, 3, 0, 4],
        ends=[10, 0, 0, 30, 0, 50, 0],
    )
    _, want, upserts, oracle_upserts = _apply_three_ways(monkeypatch, batch)
    assert (upserts, oracle_upserts) == (2, 4)
    ks, vs = want.range_result(0)
    assert dict(zip(ks.tolist(), vs.tolist()))[8] == 80
    ks, vs = want.range_result(3)
    assert dict(zip(ks.tolist(), vs.tolist()))[24] == 2


def test_updated_and_deleted_key_stays_scalar(monkeypatch):
    batch = _batch(
        [OpKind.UPDATE, OpKind.DELETE, OpKind.UPDATE, OpKind.DELETE, OpKind.INSERT, OpKind.UPDATE],
        [8, 8, 8, 8, 8, 40],
        values=[1, 0, 2, 0, 3, 4],
    )
    tree, want, upserts, _ = _apply_three_ways(monkeypatch, batch)
    assert upserts == 3
    assert want.values.tolist() == [80, 1, NULL_VALUE, 2, NULL_VALUE, 400]
    assert tree.search(8) == 3


def test_paper_default_batch_makes_no_scalar_upsert(monkeypatch):
    rng = np.random.default_rng(0)
    keys, values = build_key_pool(2**12, rng)
    batch = YcsbWorkload(pool=keys, mix=PAPER_DEFAULT).generate(2048, rng)
    n_updates = int(np.count_nonzero(batch.kinds == OpKind.UPDATE))
    assert n_updates > 50
    _, _, upserts, oracle_upserts = _apply_three_ways(
        monkeypatch, batch, lambda: BPlusTree.build(keys, values, TreeConfig(fanout=32))
    )
    assert (upserts, oracle_upserts) == (0, n_updates)


def test_absent_key_inserts_call_upsert_like_oracle(monkeypatch):
    batch = _batch([OpKind.INSERT] * 5, [1, 3, 1, 5, 3], values=[1, 2, 3, 4, 5])
    _, want, upserts, oracle_upserts = _apply_three_ways(monkeypatch, batch)
    assert upserts == oracle_upserts == 5
    assert want.values.tolist() == [NULL_VALUE, NULL_VALUE, 1, NULL_VALUE, 2]


def test_full_arena_leaves_oracle_prefix_plus_every_overwrite():
    """Pins the partial state a batch that raises ``TreeFullError`` leaves
    until batches are all-or-nothing: the scalar requests before the one
    that raised, as the oracle runs them, plus every overwrite of the batch,
    also the one ordered after the failing insert."""
    keys = np.arange(0, 200, 2, dtype=np.int64)
    cfg = TreeConfig(fanout=4, arena_headroom=1.0)
    tree, oracle_tree = (BPlusTree.build(keys, keys * 10, cfg) for _ in range(2))
    inserts = np.arange(1, 200, 2)
    n = inserts.size + 2
    batch = _batch(
        [OpKind.UPDATE] + [OpKind.INSERT] * inserts.size + [OpKind.UPDATE],
        np.concatenate([[2], inserts, [0]]),
        values=np.arange(n) + 1000,
    )
    with pytest.raises(TreeFullError):
        apply_in_timestamp_order(oracle_tree, batch)
    with pytest.raises(TreeFullError):
        apply_batch(tree, batch)
    tree.validate()
    got_keys, got_values = tree.items()
    want_keys, want_values = oracle_tree.items()
    np.testing.assert_array_equal(got_keys, want_keys)
    assert 0 < np.isin(inserts, got_keys).sum() < inserts.size
    assert (tree.search(2), oracle_tree.search(2)) == (1000, 1000)
    assert (tree.search(0), oracle_tree.search(0)) == (1000 + n - 1, 0)
    rest = got_keys != 0
    np.testing.assert_array_equal(got_values[rest], want_values[rest])


@pytest.mark.parametrize("variant", ["eirene", "eirene-no-partition"])
@pytest.mark.parametrize("fanout", [4, 32])
def test_eirene_issued_updates_match_oracle(monkeypatch, variant, fanout):
    keys = np.arange(0, KEY_SPACE, 4, dtype=np.int64)
    values = keys * 10
    cfg = TreeConfig(fanout=fanout, arena_headroom=8.0)
    system = make_system(variant, keys, values, tree_config=cfg)
    oracle = make_system(variant, keys, values, tree_config=cfg)
    rng = np.random.default_rng(fanout)
    batches = [random_batch(rng, int(rng.integers(3, 120))) for _ in range(6)]
    got = [system.process_batch(b).results for b in batches]
    monkeypatch.setattr(EireneTree, "_apply_issued_updates", apply_issued_updates)
    for b, res in zip(batches, got):
        want = oracle.process_batch(b).results
        np.testing.assert_array_equal(res.values, want.values)
        np.testing.assert_array_equal(res.range_keys, want.range_keys)
        np.testing.assert_array_equal(res.range_values, want.range_values)
    assert_same_outcome(system.tree, oracle.tree, got[-1], want)


BAD_KEY_BATCHES = {
    # the bad insert comes after two writes that would land first
    "last": ([OpKind.UPDATE, OpKind.INSERT, OpKind.INSERT], [8, 15, MAX_KEY + 1], [777, 1, 2]),
    # the bad insert is superseded by a delete of the same key
    "superseded": ([OpKind.INSERT, OpKind.DELETE], [MAX_KEY + 1, MAX_KEY + 1], [5, 0]),
    # MAX_KEY + 1 is the empty-slot sentinel: a leaf search would match it
    "lone-delete": ([OpKind.DELETE], [MAX_KEY + 1], [0]),
    "query": ([OpKind.QUERY], [MAX_KEY + 1], [0]),
}


def _assert_bad_key_rejected(system, items, case: str, engine: str) -> None:
    """The batch raises TreeError and leaves ``items()`` as it was."""
    before = items()
    kinds, bad_keys, values = BAD_KEY_BATCHES[case]
    with pytest.raises(TreeError, match="out of range"):
        system.process_batch(_batch(kinds, bad_keys, values), engine=engine)
    after = items()
    np.testing.assert_array_equal(after[0], before[0])
    np.testing.assert_array_equal(after[1], before[1])


def _assert_system_rejects_bad_key(name: str, case: str, engine: str) -> None:
    keys = np.arange(0, KEY_SPACE, 4, dtype=np.int64)
    system = make_system(name, keys, keys * 10, tree_config=TreeConfig(fanout=8))
    _assert_bad_key_rejected(system, system.tree.items, case, engine)


@pytest.mark.parametrize("case", list(BAD_KEY_BATCHES))
@pytest.mark.parametrize("name", ["nocc", "stm", "lock", "eirene"])
def test_bad_key_leaves_no_half_applied_batch(name, case):
    _assert_system_rejects_bad_key(name, case, "vector")


@pytest.mark.parametrize("case", list(BAD_KEY_BATCHES))
@pytest.mark.parametrize("name", ["nocc", "stm", "lock", "eirene"])
def test_bad_key_leaves_no_half_applied_batch_simt(name, case):
    _assert_system_rejects_bad_key(name, case, "simt")


@pytest.mark.parametrize("case", list(BAD_KEY_BATCHES))
def test_bad_key_rejected_before_fleet_routing(case):
    keys = np.arange(0, KEY_SPACE, 4, dtype=np.int64)
    fleet = ParallelShardedSystem(
        "eirene", keys, keys * 10, 2, n_workers=0, tree_config=TreeConfig(fanout=8)
    )
    try:
        _assert_bad_key_rejected(fleet, fleet.items, case, "vector")
    finally:
        fleet.close()
