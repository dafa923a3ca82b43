"""Tests of the benchmark itself: tracing observes without changing what it
observes, wrappers never outlive the traced run, the checks count one
failure per wrong result, and the seed only changes the generated inputs.

Workloads are shrunk (small trees and batches, one set-up) so the
suite runs in seconds.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro import BPlusTree, OpKind, make_system
from repro.core import combining
from repro.core.eirene import EireneTree
from repro.sharding import ShardRouter, parallel
from repro.simt import KernelLaunch, Warp

from perfbench import bench
from perfbench.checks import Reference, ReferenceCheck, RelaxedCheck
from perfbench.tracing import PatchSet, Recorder
from perfbench.workloads import DEVICE_SEED, WORKLOADS, make_inputs

ROOT = pathlib.Path(__file__).resolve().parents[2]
SIMT_SMALL = dict(tree_log2=9, batch_size=128, batch_s=1.0, setup_repeats=1)
VECTOR_SMALL = dict(tree_log2=11, batch_size=512, batch_s=1.0, setup_repeats=1)
SMALL = {
    name: dataclasses.replace(w, **(SIMT_SMALL if w.engine == "simt" else VECTOR_SMALL))
    for name, w in WORKLOADS.items()
}
SECONDS = 2.0  # a two-batch stream at batch_s=1.0


def spec_names(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def traced_run(workload):
    recorder = Recorder()
    with PatchSet(recorder) as patches:
        data = bench.run(workload, 3, SECONDS, recorder, patches)
    return data, recorder, patches


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_leaves_modeled_and_device_metrics_identical(name):
    workload = SMALL[name]
    plain = bench.run(workload, 3, SECONDS)
    traced, recorder, _ = traced_run(workload)
    assert bench.observed_identically(plain, traced) == []
    layer = bench.per_layer(traced, recorder, 1.0)
    assert set(layer) == spec_names("per_layer")
    assert set(bench.end_to_end(plain)) == spec_names("end_to_end")
    if workload.engine == "simt":
        assert layer["simt.stm.launches"] >= 1 and layer["simt.stm.step_s"] > 0
        assert layer["stm.stm.commit_frac"] > 0
    if workload.shards:
        assert layer["shard.eirene.route_s"] > 0 and layer["shard.eirene.merge_s"] > 0
        assert layer["shard.eirene.worker_s"] > 0 and layer["shard.eirene.imbalance"] >= 1
    elif workload.engine == "vector":
        assert layer["btree.nocc.host_ops_s"] > 0 and layer["gpuprims.eirene.s"] > 0


def test_no_wrapper_left_after_traced_run():
    originals = {
        (KernelLaunch, "run"): KernelLaunch.__dict__["run"],
        (Warp, "step"): Warp.__dict__["step"],
        (BPlusTree, "build"): BPlusTree.__dict__["build"],
        (BPlusTree, "search"): BPlusTree.__dict__["search"],
        (ShardRouter, "route"): ShardRouter.__dict__["route"],
        (combining, "radix_argsort"): combining.radix_argsort,
        (parallel, "merge_shard_outcomes"): parallel.merge_shard_outcomes,
    }
    _, _, patches = traced_run(SMALL["fleet-vector-default"])
    assert not patches.any_installed
    with pytest.raises(RuntimeError):
        with PatchSet(Recorder()) as raising:
            assert raising.any_installed and Warp.__dict__["step"] is not originals[Warp, "step"]
            raise RuntimeError("abort the traced run")
    assert not raising.any_installed
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original


def _flip_first_point(outcome, batch) -> None:
    i = int(np.flatnonzero(batch.kinds != OpKind.RANGE)[0])
    outcome.results.values[i] += 1


def test_flipping_one_result_adds_exactly_one_failure(monkeypatch):
    workload = SMALL["simt-ycsb-a"]
    base = bench.run(workload, 3, SECONDS)
    assert sum(base.failed.values()) == 0
    original = EireneTree.process_batch
    flipped = []

    def corrupt_once(self, batch, engine="vector"):
        outcome = original(self, batch, engine=engine)
        if not flipped:
            _flip_first_point(outcome, batch)
            flipped.append(True)
        return outcome

    monkeypatch.setattr(EireneTree, "process_batch", corrupt_once)
    data = bench.run(workload, 3, SECONDS)
    assert data.failed == {**base.failed, "eirene": base.failed["eirene"] + 1}


@pytest.mark.parametrize("system", ["stm", "lock"])
def test_relaxed_check_counts_each_bad_value_and_range(system):
    workload = SMALL["simt-scan-insert"]
    inputs = make_inputs(workload, 5, 1)
    batch = inputs.batches[0]
    sut = make_system(system, inputs.keys, inputs.values, tree_config=workload.tree_config,
                      device=workload.device, fill_factor=workload.fill_factor)
    check = RelaxedCheck()
    check.before(batch, sut.tree.items)
    outcome = sut.process_batch(batch, engine="simt")
    clean = check.after(batch, outcome.results)
    _flip_first_point(outcome, batch)
    assert check.after(batch, outcome.results) == clean + 1
    # one range that lost a pre-existing key is one more failure
    ranges = np.flatnonzero(np.diff(outcome.results.range_offsets) > 0)
    lo = int(outcome.results.range_offsets[ranges[0]])
    outcome.results.range_keys[lo] = -5
    assert check.after(batch, outcome.results) == clean + 2


def test_reference_check_counts_range_and_final_state():
    workload = SMALL["simt-scan-insert"]
    inputs = make_inputs(workload, 5, 1)
    batch = inputs.batches[0]
    sut = make_system("eirene", inputs.keys, inputs.values,
                      tree_config=workload.tree_config, device=workload.device,
                      fill_factor=workload.fill_factor)
    check = ReferenceCheck(Reference(inputs.keys, inputs.values))
    check.before(batch, sut.tree.items)
    outcome = sut.process_batch(batch, engine="simt")
    assert check.after(batch, outcome.results) == 0
    assert check.final(sut.tree.items) == 0
    i = int(np.flatnonzero(np.diff(outcome.results.range_offsets) > 0)[0])
    outcome.results.range_values[int(outcome.results.range_offsets[i])] += 1
    assert check.after(batch, outcome.results) == 1
    key = int(batch.keys[batch.kinds == OpKind.QUERY][0])
    sut.tree.upsert(key, 12345)
    assert check.final(sut.tree.items) == 1


def test_seed_changes_only_the_generated_inputs(monkeypatch):
    workload = SMALL["vector-paper-default"]
    a, again, b = (make_inputs(workload, s, 3) for s in (1, 1, 2))
    for x, y in ((a.keys, again.keys), (a.values, again.values)):
        assert np.array_equal(x, y)
    for p, q in zip(a.batches, again.batches):
        assert all(np.array_equal(getattr(p, f), getattr(q, f))
                   for f in ("kinds", "keys", "values", "range_ends"))
    assert not np.array_equal(a.keys, b.keys)
    assert not np.array_equal(a.batches[0].keys, b.batches[0].keys)
    assert [x.n for x in a.batches] == [x.n for x in b.batches]

    seeds = []
    original = bench.make_system

    def spy(*args, seed, **kwargs):
        seeds.append(seed)
        return original(*args, seed=seed, **kwargs)

    monkeypatch.setattr(bench, "make_system", spy)
    runs = [bench.run(workload, s, SECONDS) for s in (1, 2)]
    assert set(seeds) == {DEVICE_SEED}
    assert [len(r.samples) for r in runs] == [len(runs[0].samples)] * 2
    assert runs[0].attempted == runs[1].attempted


def test_cli_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simt-ycsb-a", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
