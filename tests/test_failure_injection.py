"""Failure injection: forced aborts, mid-flight splits, arena exhaustion.

The optimistic update path (§4.2, Algorithm 1) claims correctness under
arbitrary conflict patterns because every leaf operation validates inside a
transaction and retries. These tests force the failure modes
deterministically and check the claims.
"""

import numpy as np
import pytest

from repro import (
    DeviceConfig,
    NULL_VALUE,
    OpKind,
    TreeConfig,
    build_key_pool,
    check_linearizable,
    make_system,
)
from repro.btree.layout import OFF_VERSION
from repro.errors import TreeFullError
from repro.lincheck import SequentialReference
from repro.simt import Alu, KernelLaunch, Mark
from repro.workloads import RequestBatch, YcsbMix, YcsbWorkload


def eirene_system(rng, tree_size=512):
    keys, values = build_key_pool(tree_size, rng)
    sys_ = make_system(
        "eirene", keys, values,
        tree_config=TreeConfig(fanout=8, arena_headroom=4.0),
        device=DeviceConfig(num_sms=2),
    )
    return sys_, keys, values


class TestInjectedAborts:
    def test_eirene_recovers_from_periodic_aborts(self, rng):
        sys_, keys, values = eirene_system(rng)
        ref = SequentialReference(keys, values)
        counter = {"n": 0}

        def injector():
            counter["n"] += 1
            return counter["n"] % 171 == 0  # fail ~0.6% of transactional reads

        sys_.stm.abort_injector = injector
        wl = YcsbWorkload(pool=keys, mix=YcsbMix(query=0.5, update=0.5))
        batch = wl.generate(256, rng)
        expected = ref.execute(batch)
        out = sys_.process_batch(batch, engine="simt")
        rep = check_linearizable(batch, out.results, expected)
        assert rep.ok, rep.describe(batch)
        sys_.tree.validate()
        assert out.extras["stm"].aborts > 0  # the injection really fired

    def test_heavy_aborts_push_past_retry_threshold(self, rng):
        """Past the threshold the inner traversal runs STM-protected
        (Algorithm 1 lines 30–34); results must stay correct."""
        sys_, keys, values = eirene_system(rng)
        assert sys_.config.stm_retry_threshold == 3
        ref = SequentialReference(keys, values)
        counter = {"n": 0}

        def injector():
            counter["n"] += 1
            # fail hard early, then relent so requests can finish
            return counter["n"] < 400 and counter["n"] % 5 == 0

        sys_.stm.abort_injector = injector
        batch = RequestBatch.from_ops(
            [(OpKind.UPDATE, int(keys[i]), 1000 + i) for i in range(32)]
        )
        expected = ref.execute(batch)
        out = sys_.process_batch(batch, engine="simt")
        rep = check_linearizable(batch, out.results, expected)
        assert rep.ok, rep.describe(batch)
        assert out.extras["stm"].aborts > 0  # the injection forced retries


class TestMidFlightSplit:
    def test_split_between_traversal_and_leaf_op_is_detected(self, rng):
        """A chaos lane splits the target leaf while an update lane sits
        between its traversal and its leaf transaction; leaf-version
        validation must force a retry and the update must still land."""
        from repro.core.kernels import d_update

        sys_, keys, values = eirene_system(rng)
        tree = sys_.tree
        key = int(keys[100])
        leaf, _ = tree.find_leaf(key)

        retried = {}

        def update_lane():
            res = yield from d_update(
                tree, sys_.stm, sys_.smo_lock_addr,
                sys_.config.stm_retry_threshold, 0, int(OpKind.UPDATE), key, 4242,
            )
            retried["retries"] = res.retries
            yield Mark(0)

        def chaos_lane():
            # wait long enough for the update lane to pass its traversal
            # but not commit (traversal at fanout 8, height >= 2 takes
            # >> 8 slots), then split the leaf host-side like an SMO would
            for _ in range(12):
                yield Alu()
            before = int(tree.arena.data[tree.layout.addr(leaf, OFF_VERSION)])
            new_leaf = tree._split_leaf(leaf)
            # propagate the separator so the tree stays consistent
            sep = int(tree.views.host(new_leaf).keys[0])
            tree._insert_separator(tree._descend_path(sep)[:-1], sep, new_leaf)
            sys_.stm.host_invalidate(
                list(range(tree.layout.node_base(leaf),
                           tree.layout.node_base(leaf) + tree.layout.node_words))
            )
            assert tree.arena.data[tree.layout.addr(leaf, OFF_VERSION)] > before
            yield Mark(1)

        launch = KernelLaunch(DeviceConfig(num_sms=1), tree.arena, 2)
        launch.add_warp([update_lane(), chaos_lane()])
        launch.run()
        tree.validate()
        assert tree.search(key) == 4242  # the update still landed correctly


class TestResourceExhaustion:
    def test_arena_exhaustion_surfaces_cleanly(self, rng):
        keys = np.arange(64, dtype=np.int64) * 3
        sys_ = make_system(
            "eirene", keys, keys,
            tree_config=TreeConfig(fanout=4, arena_headroom=1.0),
        )
        wl_keys = np.arange(10_000, 20_000, dtype=np.int64)
        batch = RequestBatch.from_ops(
            [(OpKind.INSERT, int(k), 1) for k in wl_keys[:2000]]
        )
        with pytest.raises(TreeFullError):
            sys_.process_batch(batch, engine="vector")


class TestCorruptionDetection:
    def test_validate_catches_fence_corruption(self, rng):
        sys_, keys, _ = eirene_system(rng)
        tree = sys_.tree
        leaf = tree.leaf_ids()[3]
        from repro.btree.layout import OFF_FENCE

        tree.arena.data[tree.layout.addr(leaf, OFF_FENCE)] += 1
        with pytest.raises(Exception):
            tree.validate()
