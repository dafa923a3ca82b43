"""Tests for the factory helpers and the public package surface."""

import numpy as np
import pytest

import repro
from repro import (
    DeviceConfig,
    EireneTree,
    LockGBTree,
    NoCCGBTree,
    StmGBTree,
    TreeConfig,
    build_device_tree,
    build_key_pool,
    make_system,
)


class TestBuildTree:
    def test_with_stm_tables(self, rng):
        keys, values = build_key_pool(256, rng)
        _, tree, region, smo = build_device_tree(keys, values)
        assert region is not None
        tree.validate()
        # metadata tables cover every node word
        assert region.nwords == tree.layout.arena_words(tree.max_nodes)
        assert smo > 0

    def test_without_stm_tables(self, rng):
        keys, values = build_key_pool(256, rng)
        _, tree, region, smo = build_device_tree(keys, values, with_stm_tables=False)
        assert region is None
        tree.validate()


class TestMakeSystem:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("nocc", NoCCGBTree),
            ("stm", StmGBTree),
            ("lock", LockGBTree),
            ("eirene", EireneTree),
        ],
    )
    def test_builds_correct_class(self, name, cls, rng):
        keys, values = build_key_pool(128, rng)
        sys_ = make_system(name, keys, values, tree_config=TreeConfig(fanout=8))
        assert isinstance(sys_, cls)
        sys_.tree.validate()

    def test_unknown_name_rejected(self, rng):
        keys, values = build_key_pool(64, rng)
        with pytest.raises(ValueError):
            make_system("btrfs", keys, values)

    def test_device_config_propagates(self, rng):
        keys, values = build_key_pool(64, rng)
        dev = DeviceConfig(num_sms=2)
        sys_ = make_system("eirene", keys, values, device=dev)
        assert sys_.device.num_sms == 2

    def test_case_insensitive(self, rng):
        keys, values = build_key_pool(64, rng)
        assert isinstance(make_system("EIRENE", keys, values), EireneTree)


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_quickstart_docstring_flow(self, rng):
        """The README/docstring quickstart must actually run."""
        keys, values = build_key_pool(2**10, rng)
        eirene = make_system("eirene", keys, values, tree_config=TreeConfig(fanout=8))
        batch = repro.YcsbWorkload(pool=keys).generate(512, rng)
        outcome = eirene.process_batch(batch)
        assert outcome.throughput.per_second > 0
        assert "Mreq/s" in outcome.throughput.describe()
