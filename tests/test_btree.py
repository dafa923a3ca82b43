"""Unit + property tests for the B+tree substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import EMPTY_KEY, NO_NODE, NULL_VALUE
from repro.btree import (
    BPlusTree,
    NodeLayout,
    batch_find_leaf,
    batch_horizontal_find_leaf,
    batch_leaf_lookup,
    leaf_max_keys,
    leaf_rf_values,
)
from repro.btree.layout import HEADER_WORDS, OFF_KEYS
from repro.config import TreeConfig
from repro.errors import TreeError
from repro.memory import MemoryArena


def build(n=500, fanout=8, fill=0.7, seed=0):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(n * 10, size=n, replace=False)).astype(np.int64)
    values = keys * 2 + 1
    tree = BPlusTree.build(keys, values, TreeConfig(fanout=fanout), fill_factor=fill)
    return tree, keys, values


class TestLayout:
    def test_node_words(self):
        lay = NodeLayout(fanout=16)
        assert lay.node_words == HEADER_WORDS + 16 + 17

    def test_stride_is_segment_multiple(self):
        lay = NodeLayout(fanout=16)
        assert lay.stride % lay.words_per_segment == 0
        assert lay.stride >= lay.node_words

    def test_addresses_do_not_overlap(self):
        lay = NodeLayout(fanout=8)
        assert lay.node_base(1) >= lay.node_base(0) + lay.node_words
        assert lay.key_addr(0, 0) == lay.node_base(0) + OFF_KEYS

    def test_base_offset_applies(self):
        lay = NodeLayout(fanout=8, base=100)
        assert lay.node_base(0) == 100


class TestBulkBuild:
    def test_contents_roundtrip(self):
        tree, keys, values = build()
        ks, vs = tree.items()
        assert np.array_equal(ks, keys)
        assert np.array_equal(vs, values)

    def test_validates(self):
        tree, _, _ = build()
        tree.validate()

    def test_len(self):
        tree, keys, _ = build(n=321)
        assert len(tree) == 321

    def test_unsorted_input_is_sorted(self):
        keys = np.array([5, 1, 9, 3], dtype=np.int64)
        vals = np.array([50, 10, 90, 30], dtype=np.int64)
        tree = BPlusTree.build(keys, vals, TreeConfig(fanout=4))
        ks, vs = tree.items()
        assert np.array_equal(ks, [1, 3, 5, 9])
        assert np.array_equal(vs, [10, 30, 50, 90])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(TreeError):
            BPlusTree.build(np.array([1, 1]), np.array([2, 3]))

    def test_empty_rejected(self):
        with pytest.raises(TreeError):
            BPlusTree.build(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def test_single_key_tree(self):
        tree = BPlusTree.build(np.array([42]), np.array([1]))
        assert tree.height == 1
        assert tree.search(42) == 1
        tree.validate()

    def test_leaf_chain_is_complete(self):
        tree, keys, _ = build(n=300, fanout=8)
        leaves = tree.leaf_ids()
        total = sum(
            int(tree.arena.data[tree.layout.addr(leaf, 0)]) for leaf in leaves
        )
        assert total == 300

    def test_height_grows_with_size(self):
        small, _, _ = build(n=20, fanout=8)
        large, _, _ = build(n=5000, fanout=8)
        assert large.height > small.height

    def test_fill_factor_controls_leaf_count(self):
        packed, _, _ = build(n=1000, fill=1.0)
        loose, _, _ = build(n=1000, fill=0.5)
        assert len(loose.leaf_ids()) > len(packed.leaf_ids())

    def test_external_arena_placement(self):
        arena = MemoryArena(200_000)
        arena.alloc(100)
        keys = np.arange(100, dtype=np.int64)
        tree = BPlusTree.build(keys, keys, TreeConfig(fanout=8), arena=arena)
        assert tree.layout.base >= 100
        tree.validate()

    def test_plan_max_nodes_bounds_build(self):
        cfg = TreeConfig(fanout=8)
        for n in (1, 7, 64, 999):
            planned = BPlusTree.plan_max_nodes(n, cfg)
            keys = np.arange(n, dtype=np.int64)
            tree = BPlusTree.build(keys, keys, cfg)
            assert tree.node_count <= planned


class TestSearch:
    def test_hits(self):
        tree, keys, values = build()
        for k, v in zip(keys[::37], values[::37], strict=True):
            assert tree.search(int(k)) == int(v)

    def test_misses(self):
        tree, keys, _ = build()
        present = set(int(k) for k in keys)
        miss = next(k for k in range(10_000) if k not in present)
        assert tree.search(miss) == NULL_VALUE

    def test_find_leaf_steps_equal_height(self):
        tree, keys, _ = build()
        _, steps = tree.find_leaf(int(keys[0]))
        assert steps == tree.height


class TestUpsert:
    def test_overwrite_returns_old(self):
        tree, keys, values = build()
        k = int(keys[10])
        assert tree.upsert(k, 777) == int(values[10])
        assert tree.search(k) == 777

    def test_fresh_insert_returns_null(self):
        tree, keys, _ = build()
        assert tree.upsert(4_999_999, 5) == NULL_VALUE
        assert tree.search(4_999_999) == 5

    def test_many_inserts_split_and_stay_valid(self):
        rng = np.random.default_rng(3)
        base = np.sort(rng.choice(2000, size=200, replace=False)).astype(np.int64)
        tree = BPlusTree.build(
            base, base * 2 + 1,
            TreeConfig(fanout=8, arena_headroom=6.0), fill_factor=1.0,
        )
        fresh = rng.choice(100_000, size=500, replace=False)
        for k in fresh:
            tree.upsert(int(k) + 10_000_000, int(k))
        tree.validate()
        for k in fresh[:50]:
            assert tree.search(int(k) + 10_000_000) == int(k)
        assert len(tree.split_events) > 0

    def test_root_split_grows_height(self):
        keys = np.arange(4, dtype=np.int64)
        tree = BPlusTree.build(keys, keys, TreeConfig(fanout=4, arena_headroom=40.0), fill_factor=1.0)
        h0 = tree.height
        for k in range(100, 160):
            tree.upsert(k, k)
        tree.validate()
        assert tree.height > h0

    def test_ascending_and_descending_insert_orders(self):
        for order in (1, -1):
            tree = BPlusTree.build(np.array([500_000]), np.array([0]), TreeConfig(fanout=4, arena_headroom=2500.0))
            for k in range(1000)[::order]:
                tree.upsert(k, k + 1)
            tree.validate()
            ks, vs = tree.items()
            assert np.array_equal(ks[:-1], np.arange(1000))

    def test_out_of_range_key_rejected(self):
        tree, _, _ = build()
        with pytest.raises(TreeError):
            tree.upsert(-5, 1)


class TestDelete:
    def test_delete_returns_old_value(self):
        tree, keys, values = build()
        k = int(keys[5])
        assert tree.delete(k) == int(values[5])
        assert tree.search(k) == NULL_VALUE

    def test_delete_missing_returns_null(self):
        tree, _, _ = build()
        assert tree.delete(99_999_999) == NULL_VALUE

    def test_delete_all_keys_of_a_leaf(self):
        tree, keys, _ = build(n=64, fanout=8)
        for k in keys[:10]:
            tree.delete(int(k))
        tree.validate()
        ks, _ = tree.items()
        assert ks.size == 54

    def test_delete_then_reinsert(self):
        tree, keys, _ = build()
        k = int(keys[7])
        tree.delete(k)
        tree.upsert(k, 123)
        assert tree.search(k) == 123
        tree.validate()


class TestRangeScan:
    def test_matches_reference(self):
        tree, keys, values = build()
        lo, hi = int(keys[50]), int(keys[80])
        ks, vs = tree.range_scan(lo, hi)
        ref = (keys >= lo) & (keys <= hi)
        assert np.array_equal(ks, keys[ref])
        assert np.array_equal(vs, values[ref])

    def test_empty_range(self):
        tree, _, _ = build()
        ks, _ = tree.range_scan(10, 5)
        assert ks.size == 0

    def test_range_beyond_max_key(self):
        tree, keys, _ = build()
        ks, _ = tree.range_scan(int(keys[-1]) + 1, int(keys[-1]) + 100)
        assert ks.size == 0

    def test_full_range(self):
        tree, keys, _ = build(n=100)
        ks, _ = tree.range_scan(0, int(keys[-1]))
        assert np.array_equal(ks, keys)


class TestRF:
    def test_rf_initialized_to_hop_leaf_min_key(self):
        tree, _, _ = build(n=400, fanout=8)
        leaves = tree.leaf_ids()
        hop = tree.height + 1
        rf = leaf_rf_values(tree, np.array(leaves))
        for i, leaf in enumerate(leaves):
            if i + hop < len(leaves):
                expected = int(tree.views.host(leaves[i + hop]).keys[0])
                assert rf[i] == expected
            else:
                assert rf[i] == EMPTY_KEY

    def test_update_rf_noop_for_short_walk(self):
        tree, _, _ = build(n=400, fanout=8)
        leaf = tree.leaf_ids()[0]
        before = int(leaf_rf_values(tree, np.array([leaf]))[0])
        tree.update_rf(leaf, tree.height)  # not longer than height
        assert int(leaf_rf_values(tree, np.array([leaf]))[0]) == before


class TestBatchTraversal:
    def test_batch_find_leaf_matches_scalar(self):
        tree, keys, _ = build(n=600)
        probe = keys[::7]
        leaves, ev = batch_find_leaf(tree, probe)
        for k, leaf in zip(probe, leaves, strict=True):
            assert tree.find_leaf(int(k))[0] == int(leaf)
        assert ev.vertical_steps == probe.size * tree.height

    def test_batch_leaf_lookup_matches_search(self):
        tree, keys, _ = build(n=600)
        rng = np.random.default_rng(9)
        probe = rng.integers(0, 6000, size=300)
        leaves, _ = batch_find_leaf(tree, probe)
        vals, _ = batch_leaf_lookup(tree, leaves, probe)
        ref = np.array([tree.search(int(k)) for k in probe])
        assert np.array_equal(vals, ref)

    def test_horizontal_walk_finds_same_leaves(self):
        tree, keys, _ = build(n=600)
        targets = np.sort(keys[::5])
        start = np.full(targets.size, tree.leaf_ids()[0], dtype=np.int64)
        leaves, steps, _ = batch_horizontal_find_leaf(tree, start, targets)
        ref, _ = batch_find_leaf(tree, targets)
        assert np.array_equal(leaves, ref)
        assert np.all(steps >= 1)

    def test_horizontal_walk_falls_back_when_key_precedes_start(self):
        tree, keys, _ = build(n=600)
        last_leaf = tree.leaf_ids()[-1]
        targets = keys[:4]
        start = np.full(4, last_leaf, dtype=np.int64)
        leaves, steps, _ = batch_horizontal_find_leaf(tree, start, targets)
        ref, _ = batch_find_leaf(tree, targets)
        assert np.array_equal(leaves, ref)
        assert np.all(steps == tree.height)

    def test_leaf_max_keys(self):
        tree, keys, _ = build(n=100, fanout=8)
        leaves = np.array(tree.leaf_ids())
        maxes = leaf_max_keys(tree, leaves)
        assert int(maxes[-1]) == int(keys.max())
        assert np.all(np.diff(maxes) > 0)

    def test_empty_batch(self):
        tree, _, _ = build(n=50)
        leaves, ev = batch_find_leaf(tree, np.zeros(0, dtype=np.int64))
        assert leaves.size == 0
        assert ev.requests == 0


class TestValidateDetectsCorruption:
    def test_unsorted_keys_detected(self):
        tree, _, _ = build(n=100)
        leaf = tree.leaf_ids()[0]
        hk = tree.views.host(leaf).keys
        hk[0], hk[1] = hk[1].copy(), hk[0].copy()
        with pytest.raises(TreeError):
            tree.validate()

    def test_bad_count_detected(self):
        tree, _, _ = build(n=100)
        leaf = tree.leaf_ids()[0]
        tree.arena.data[tree.layout.addr(leaf, 0)] = tree.layout.fanout + 5
        with pytest.raises(TreeError):
            tree.validate()


@st.composite
def op_sequences(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["upsert", "delete", "search"]),
                st.integers(0, 60),
                st.integers(1, 100),
            ),
            min_size=1,
            max_size=120,
        )
    )
    return ops


class TestTreeModelProperty:
    @given(op_sequences())
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_model(self, ops):
        keys = np.arange(0, 60, 7, dtype=np.int64)
        tree = BPlusTree.build(keys, keys * 3, TreeConfig(fanout=4))
        model = {int(k): int(k) * 3 for k in keys}
        for op, key, val in ops:
            if op == "upsert":
                got = tree.upsert(key, val)
                assert got == model.get(key, NULL_VALUE)
                model[key] = val
            elif op == "delete":
                got = tree.delete(key)
                assert got == model.pop(key, NULL_VALUE)
            else:
                assert tree.search(key) == model.get(key, NULL_VALUE)
        tree.validate()
        ks, vs = tree.items()
        assert np.array_equal(ks, np.array(sorted(model), dtype=np.int64))
        assert [int(v) for v in vs] == [model[int(k)] for k in ks]
