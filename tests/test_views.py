"""Typed node views: address arithmetic, planes, vector helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import EMPTY_KEY, TreeConfig
from repro.btree import BPlusTree
from repro.btree.layout import (
    HEADER_WORDS,
    OFF_COUNT,
    OFF_FENCE,
    OFF_KEYS,
    OFF_LEAF,
    OFF_LOCK,
    OFF_NEXT,
    OFF_RF,
    OFF_VERSION,
    NodeLayout,
)
from repro.btree.views import FIELD_BY_NAME, FIELDS, StructView
from repro.config import DeviceConfig
from repro.memory import MemoryArena
from repro.simt import AtomicAdd, KernelLaunch, Load, Store
from repro.simt.warp import run_subroutine


def _one(op):
    """A lane program issuing ``op`` once and returning its result."""
    return (yield op)


@pytest.fixture
def layout() -> NodeLayout:
    # non-zero base: views must honor the node region's offset in the arena
    return NodeLayout(fanout=8, base=64)


@pytest.fixture
def view(layout) -> StructView:
    arena = MemoryArena(layout.arena_words(16) + layout.base)
    arena.alloc(arena.capacity)
    return StructView(arena, layout)


class TestFieldTable:
    def test_one_field_per_header_word(self):
        assert len(FIELDS) == HEADER_WORDS
        assert sorted(f.offset for f in FIELDS) == list(range(HEADER_WORDS))

    def test_offsets_match_layout_constants(self):
        expect = {
            "count": OFF_COUNT,
            "leaf": OFF_LEAF,
            "version": OFF_VERSION,
            "rf": OFF_RF,
            "next_leaf": OFF_NEXT,
            "lock": OFF_LOCK,
            "fence": OFF_FENCE,
        }
        for name, off in expect.items():
            assert FIELD_BY_NAME[name].offset == off


class TestAddressPlane:
    @pytest.mark.parametrize("node", [0, 1, 7, 15])
    def test_header_addrs_match_layout(self, layout, view, node):
        a = view.addrs(node)
        assert a.count == layout.addr(node, OFF_COUNT)
        assert a.version == layout.addr(node, OFF_VERSION)
        assert a.rf == layout.addr(node, OFF_RF)
        assert a.next_leaf == layout.addr(node, OFF_NEXT)
        assert a.lock == layout.addr(node, OFF_LOCK)
        assert a.fence == layout.addr(node, OFF_FENCE)

    def test_key_and_payload_addrs(self, layout, view):
        a = view.addrs(3)
        for slot in range(layout.fanout):
            assert a.keys[slot] == layout.key_addr(3, slot)
        for slot in range(layout.fanout + 1):
            assert a.payload[slot] == layout.payload_addr(3, slot)
        np.testing.assert_array_equal(
            a.keys[:], layout.node_base(3) + OFF_KEYS + np.arange(layout.fanout)
        )
        assert a.children is a.payload or a.children[0] == a.payload[0]

    def test_words_cover_the_node(self, layout, view):
        w = view.addrs(2).words()
        assert w[0] == layout.node_base(2)
        assert len(w) == layout.node_words


class TestCountedPlane:
    """Device access: ops on address-plane words, run by the interpreter."""

    def test_counted_write_and_row_read(self, layout, view):
        a = view.addrs(1)

        def prog():
            yield Store(a.count, 5)
            yield Store(a.keys[2], 42)
            count = yield Load(a.count)
            key = yield Load(a.keys[2])
            return count, key

        assert run_subroutine(prog(), view.arena) == (5, 42)
        launch = KernelLaunch(DeviceConfig(num_sms=1), view.arena, layout.fanout)
        warp = launch.add_warp([_one(Load(int(addr))) for addr in a.keys.row()])
        counters = launch.run()
        row = warp.results()
        assert row[2] == 42 and len(row) == len(a.keys)
        assert counters.issued_slots == 1  # one warp-wide row load

    def test_bump_version_is_atomic_increment(self, view):
        a = view.addrs(1)
        before = view.host(1).version
        assert run_subroutine(_one(AtomicAdd(a.version, 1)), view.arena) == before
        assert view.host(1).version == before + 1


class TestHostPlane:
    def test_host_views_bypass_counting(self, view):
        h = view.host(0)
        h.count = 3
        h.fence = 17
        h.keys[:] = 9
        a = view.addrs(0)
        data = view.arena.data
        assert data[a.count] == 3 and data[a.fence] == 17
        assert np.all(data[a.keys.row()] == 9)
        assert view.arena.stats.accesses == 0

    def test_host_and_counted_planes_alias_the_same_words(self, view):
        h = view.host(2)
        h.next_leaf = 123
        assert run_subroutine(_one(Load(view.addrs(2).next_leaf)), view.arena) == 123


class TestVectorHelpers:
    def test_host_field(self, layout, view):
        nodes = np.array([0, 3, 5], dtype=np.int64)
        for node in nodes:
            view.host(int(node)).fence = 100 + int(node)
        np.testing.assert_array_equal(view.host_field(nodes, "fence"), [100, 103, 105])

    def test_key_rows_matches_per_node_reads(self, layout, view):
        nodes = np.array([1, 4], dtype=np.int64)
        for node in nodes:
            view.host(int(node)).keys[:] = np.arange(layout.fanout) + int(node) * 10
        rows = view.key_rows(nodes)
        assert rows.shape == (2, layout.fanout)
        for i, node in enumerate(nodes):
            np.testing.assert_array_equal(rows[i], view.host(int(node)).keys)

    def test_host_keys_gathers_one_slot_per_node(self, layout, view):
        nodes = np.array([5, 2, 5], dtype=np.int64)
        for node in (2, 5):
            view.host(node).keys[:] = np.arange(layout.fanout) + node * 10
        np.testing.assert_array_equal(view.host_keys(nodes, np.array([0, 7, 3])), [50, 27, 53])

    def test_gathers_follow_a_replaced_backing_array(self, layout, view):
        view.arena.alloc_system(layout.stride + 5)  # reallocates the array
        view.host(3).keys[:] = 7
        view.host(3).count = 2
        np.testing.assert_array_equal(view.key_rows(np.array([3])), [[7] * layout.fanout])
        np.testing.assert_array_equal(view.host_field(np.array([3]), "count"), [2])

    def test_payload_addrs(self, layout, view):
        nodes = np.array([2, 6], dtype=np.int64)
        slots = np.array([0, 3], dtype=np.int64)
        np.testing.assert_array_equal(
            view.payload_addrs(nodes, slots),
            [layout.payload_addr(2, 0), layout.payload_addr(6, 3)],
        )


class TestTreeIntegration:
    def test_views_track_arena_rebinding(self):
        """Transplanting a tree into a bigger arena must not leave views
        pointing at the old storage (regression: stale StructView after
        ``tree.arena = bigger``)."""
        keys = np.arange(0, 200, 2, dtype=np.int64)
        tree = BPlusTree.build(keys, keys, TreeConfig(fanout=8))
        old_data = tree.arena.data
        bigger = MemoryArena(tree.arena.capacity * 2)
        bigger.data[: old_data.size] = old_data
        bigger.alloc(old_data.size)
        tree.arena = bigger
        assert tree.views.arena is bigger
        tree.upsert(1, 7)  # mutations land in the new arena
        assert tree.search(1) == 7
        got = np.array_equal(old_data, bigger.data[: old_data.size])
        assert not got, "write went to the transplanted-away arena"

    def test_clear_node_initializes_empty_leaf(self):
        lay = NodeLayout(fanout=8)
        arena = MemoryArena(lay.arena_words(4))
        arena.alloc(arena.capacity)
        view = StructView(arena, lay)
        arena.data[:] = -7  # garbage
        tree = BPlusTree(arena, lay, TreeConfig(fanout=8), max_nodes=4)
        tree.clear_node(1, leaf=True)
        h = view.host(1)
        assert h.leaf == 1 and h.count == 0
        assert h.next_leaf == -1 and h.rf == EMPTY_KEY
        assert np.all(h.keys == EMPTY_KEY)
