"""Unit tests for locality-aware warp reorganization (§5)."""

import sys

import numpy as np
import pytest

from repro import DeviceConfig, EireneConfig, TreeConfig, YcsbWorkload, build_key_pool, make_system
from repro.btree import (
    BPlusTree,
    batch_find_leaf,
    batch_horizontal_find_leaf,
    leaf_chain_index,
)
from repro.config import TreeConfig
from repro.core.locality import (
    build_iteration_plan,
    vector_locality_steps,
)


@pytest.fixture
def dense_setup():
    """A tree + key-sorted issued stream dense enough for horizontal wins."""
    rng = np.random.default_rng(11)
    keys = np.sort(rng.choice(40_000, size=4096, replace=False)).astype(np.int64)
    tree = BPlusTree.build(keys, keys, TreeConfig(fanout=16))
    issued = np.sort(rng.choice(keys, size=2048, replace=False))
    return tree, issued


def locality_steps(tree, plan, issued, **kwargs):
    """vector_locality_steps over the caller-side traversal it expects."""
    leaves, _ = batch_find_leaf(tree, issued)
    return vector_locality_steps(tree, plan, issued, leaves, leaf_chain_index(tree), **kwargs)


class TestIterationPlan:
    def test_rg_partition_covers_all(self):
        plan = build_iteration_plan(100, warp_size=32, rgs_per_warp=4)
        assert plan.n_rgs == 4
        assert plan.rg_start[0] == 0
        assert plan.rg_end[-1] == 100  # ragged last RG

    def test_warp_grouping(self):
        plan = build_iteration_plan(32 * 8, warp_size=32, rgs_per_warp=4)
        assert plan.n_warps == 2
        assert np.array_equal(plan.rgs_of_warp(0), [0, 1, 2, 3])
        assert np.array_equal(plan.rgs_of_warp(1), [4, 5, 6, 7])

    def test_empty(self):
        plan = build_iteration_plan(0, 32, 4)
        assert plan.n_rgs == 0
        assert plan.n_warps == 0


class TestVectorLocalitySteps:
    def test_leaves_match_vertical_traversal(self, dense_setup):
        # a horizontal lane's steps are those of a real leaf-chain walk from
        # the buffered leaf (the previous RG's last lane), ending at the
        # leaf the vertical traversal finds
        tree, issued = dense_setup
        plan = build_iteration_plan(issued.size, 32, 4)
        ls = locality_steps(tree, plan, issued, enable_rf=False)
        leaves, _ = batch_find_leaf(tree, issued)
        walked = 0
        for w in range(plan.n_warps):
            rgs = plan.rgs_of_warp(w)
            for prev, r in zip(rgs[:-1], rgs[1:]):
                lo, hi = int(plan.rg_start[r]), int(plan.rg_end[r])
                start = np.full(hi - lo, leaves[int(plan.rg_end[prev]) - 1])
                end, steps, _ = batch_horizontal_find_leaf(tree, start, issued[lo:hi])
                assert np.array_equal(end, leaves[lo:hi])
                assert np.array_equal(steps, ls.steps[lo:hi])
                walked += hi - lo
        assert walked == int(ls.horizontal.sum()) > 0

    def test_first_rg_of_each_warp_is_vertical(self, dense_setup):
        tree, issued = dense_setup
        plan = build_iteration_plan(issued.size, 32, 4)
        ls = locality_steps(tree, plan, issued)
        for w in range(plan.n_warps):
            first_rg = plan.rgs_of_warp(w)[0]
            lo, hi = int(plan.rg_start[first_rg]), int(plan.rg_end[first_rg])
            assert not ls.horizontal[lo:hi].any()
            assert np.all(ls.steps[lo:hi] == tree.height)

    def test_horizontal_reduces_average_steps_when_dense(self, dense_setup):
        tree, issued = dense_setup
        plan = build_iteration_plan(issued.size, 32, 4)
        ls = locality_steps(tree, plan, issued)
        assert ls.horizontal.any()
        assert ls.steps.mean() < tree.height

    def test_rf_disabled_forces_horizontal(self, dense_setup):
        tree, issued = dense_setup
        plan = build_iteration_plan(issued.size, 32, 4)
        ls = locality_steps(tree, plan, issued, enable_rf=False)
        # every non-first RG goes horizontal regardless of distance
        for w in range(plan.n_warps):
            for r in plan.rgs_of_warp(w)[1:]:
                lo, hi = int(plan.rg_start[r]), int(plan.rg_end[r])
                assert ls.horizontal[lo:hi].all()

    def test_rf_decision_prevents_long_walks(self):
        # sparse stream: RGs are far apart, RF must choose vertical
        rng = np.random.default_rng(3)
        keys = np.sort(rng.choice(200_000, size=8192, replace=False)).astype(np.int64)
        tree = BPlusTree.build(keys, keys, TreeConfig(fanout=8))
        issued = np.sort(rng.choice(keys, size=256, replace=False))
        plan = build_iteration_plan(issued.size, 32, 4)
        ls = locality_steps(tree, plan, issued, enable_rf=True)
        # with RF on, the average can never exceed vertical cost by more
        # than the first probe step
        assert ls.steps.mean() <= tree.height + 1
        ls_off = locality_steps(tree, plan, issued, enable_rf=False)
        assert ls_off.steps.mean() >= ls.steps.mean()

    def test_lockstep_cost_is_rg_max(self, dense_setup):
        tree, issued = dense_setup
        plan = build_iteration_plan(issued.size, 32, 4)
        ls = locality_steps(tree, plan, issued)
        for r in range(plan.n_rgs):
            lo, hi = int(plan.rg_start[r]), int(plan.rg_end[r])
            assert ls.rg_lockstep_steps[r] == ls.steps[lo:hi].max()


def count_calls(monkeypatch, fn):
    """Wrap ``fn`` in every ``repro`` module that imported it; returns the
    list the wrapper appends one entry to per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and getattr(
            mod, fn.__name__, None
        ) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


class TestOneTraversalPerBatch:
    @pytest.mark.parametrize("locality", [True, False])
    def test_vector_batch_traverses_once(self, monkeypatch, locality):
        rng = np.random.default_rng(5)
        keys, values = build_key_pool(2**12, rng)
        system = make_system(
            "eirene", keys, values, tree_config=TreeConfig(fanout=16),
            device=DeviceConfig(num_sms=4), config=EireneConfig(enable_locality=locality),
        )
        batch = YcsbWorkload(pool=keys).generate(2048, rng)
        finds = count_calls(monkeypatch, batch_find_leaf)
        chains = count_calls(monkeypatch, leaf_chain_index)
        system.process_batch(batch, engine="vector")
        assert len(finds) == 1
        assert len(chains) == (1 if locality else 0)
