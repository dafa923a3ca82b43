"""Equivalence regression for the pass-pipeline refactor.

Two guarantees:

1. **Semantics** — every valid :class:`~repro.config.EireneConfig` flag
   combination still matches the sequential reference on a fixed-seed
   mixed batch (queries, updates, inserts, deletes, ranges).
2. **Model** — the event totals of the pre-refactor boolean-branching
   implementation are reproduced *bit-for-bit* by the pipeline on the
   same fixed-seed batch, for all four systems and the paper's ablation
   variants, on both engines.  The goldens below were captured from the
   tree at the commit immediately before the refactor.

``enable_kernel_partition=False`` was dead pre-refactor (both branches ran
the partitioned kernels); it became a real ablation (the unified kernel of
``EireneTree.build_pipeline``) afterwards. Its ``eirene-no-partition``
goldens pin the unified-kernel totals as they stood before the SIMT launch
passes were folded into one launch path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro import (
    DeviceConfig,
    EireneConfig,
    TreeConfig,
    YcsbMix,
    YcsbWorkload,
    build_key_pool,
    check_linearizable,
    make_system,
)

SEED = 20260806
MIX = YcsbMix(query=0.6, update=0.2, insert=0.1, delete=0.05, range_=0.05)

# label -> factory name (variant names resolve configs via EIRENE_VARIANTS)
GOLDEN_SYSTEMS = {
    "nocc": "nocc",
    "stm": "stm",
    "lock": "lock",
    "eirene-full": "eirene",
    "eirene-combining-only": "eirene+combining",
    "eirene-no-rf": "eirene-no-rf",
    "eirene-no-ntg": "eirene-no-ntg",
    "eirene-no-partition": "eirene-no-partition",
}

# Captured from the pre-refactor implementation (fixed recipe below).
GOLDENS = {
    "nocc/vector": {
        "mem_inst": 14793.6,
        "control_inst": 12533.6,
        "alu_inst": 9777.6,
        "atomic_inst": 46.0,
        "transactions": 7442.8,
        "conflicts": 0.0,
        "seconds": 6.126549196141479e-07,
        "traversal_steps": 4.0,
        "values_sum": 465347231355,
    },
    "nocc/simt": {
        "mem_inst": 10998,
        "control_inst": 8224,
        "alu_inst": 0,
        "atomic_inst": 0,
        "transactions": 5694,
        "conflicts": 0.0,
        "seconds": 8.557446808510639e-06,
        "traversal_steps": 4.048828125,
        "values_sum": 458073779490,
    },
    "stm/vector": {
        "mem_inst": 55145.15,
        "control_inst": 36941.575,
        "alu_inst": 17886.53125,
        "atomic_inst": 993.6,
        "transactions": 28566.175000000003,
        "conflicts": 138.3125,
        "seconds": 2.351427909967846e-06,
        "traversal_steps": 4.0,
        "values_sum": 465347231355,
    },
    "stm/simt": {
        "mem_inst": 60874,
        "control_inst": 41605,
        "alu_inst": 0,
        "atomic_inst": 2089,
        "transactions": 44276,
        "conflicts": 213.0,
        "seconds": 7.366595744680852e-05,
        "traversal_steps": 4.0,
        "values_sum": 468172781803,
    },
    "lock/vector": {
        "mem_inst": 21293.8,
        "control_inst": 20878.699999999997,
        "alu_inst": 10575.45,
        "atomic_inst": 2260.7,
        "transactions": 12907.599999999999,
        "conflicts": 1289.75,
        "seconds": 1.062490546623794e-06,
        "traversal_steps": 4.0,
        "values_sum": 465347231355,
    },
    "lock/simt": {
        "mem_inst": 29161,
        "control_inst": 26135,
        "alu_inst": 2,
        "atomic_inst": 864,
        "transactions": 19734,
        "conflicts": 667.0,
        "seconds": 3.5833333333333335e-05,
        "traversal_steps": 4.015625,
        "values_sum": 466695108390,
    },
    "eirene-full/vector": {
        "mem_inst": 16257.0,
        "control_inst": 13405.000000000002,
        "alu_inst": 8966.0,
        "atomic_inst": 1032.0,
        "transactions": 5096.25,
        "conflicts": 49.0,
        "seconds": 6.783991015028163e-07,
        "traversal_steps": 4.0,
        "values_sum": 465347231355,
    },
    "eirene-full/simt": {
        "mem_inst": 26136.0,
        "control_inst": 19330.0,
        "alu_inst": 0.0,
        "atomic_inst": 1985.0,
        "transactions": 18599.0,
        "conflicts": 177.0,
        "seconds": 4.2779468085106386e-05,
        "traversal_steps": 5.714285714285714,
        "values_sum": 465347231355,
    },
    "eirene-combining-only/vector": {
        "mem_inst": 16257.0,
        "control_inst": 13405.000000000002,
        "alu_inst": 8966.0,
        "atomic_inst": 1032.0,
        "transactions": 5096.25,
        "conflicts": 49.0,
        "seconds": 6.783991015028163e-07,
        "traversal_steps": 4.0,
        "values_sum": 465347231355,
    },
    "eirene-combining-only/simt": {
        "mem_inst": 26238.0,
        "control_inst": 19433.0,
        "alu_inst": 0.0,
        "atomic_inst": 2003.0,
        "transactions": 18607.0,
        "conflicts": 180.0,
        "seconds": 4.094117021276596e-05,
        "traversal_steps": 5.743341404358354,
        "values_sum": 465347231355,
    },
    "eirene-no-rf/vector": {
        "mem_inst": 23019.2,
        "control_inst": 20092.2,
        "alu_inst": 14140.2,
        "atomic_inst": 1032.0,
        "transactions": 6786.799999999999,
        "conflicts": 49.0,
        "seconds": 8.175569150076395e-07,
        "traversal_steps": 7.663438256658596,
        "values_sum": 465347231355,
    },
    "eirene-no-rf/simt": {
        "mem_inst": 27766.0,
        "control_inst": 21449.0,
        "alu_inst": 0.0,
        "atomic_inst": 1985.0,
        "transactions": 18697.0,
        "conflicts": 177.0,
        "seconds": 4.333833333333334e-05,
        "traversal_steps": 9.37772397094431,
        "values_sum": 465347231355,
    },
    "eirene-no-ntg/vector": {
        "mem_inst": 18799.4,
        "control_inst": 14131.400000000001,
        "alu_inst": 9692.400000000001,
        "atomic_inst": 1032.0,
        "transactions": 5731.85,
        "conflicts": 49.0,
        "seconds": 7.30718587033363e-07,
        "traversal_steps": 4.0,
        "values_sum": 465347231355,
    },
    "eirene-no-ntg/simt": {
        "mem_inst": 26136.0,
        "control_inst": 19330.0,
        "alu_inst": 0.0,
        "atomic_inst": 1985.0,
        "transactions": 18599.0,
        "conflicts": 177.0,
        "seconds": 4.2779468085106386e-05,
        "traversal_steps": 5.714285714285714,
        "values_sum": 465347231355,
    },
    "eirene-no-partition/vector": {
        "mem_inst": 22371.899999999998,
        "control_inst": 16487.7,
        "alu_inst": 10299.375,
        "atomic_inst": 1032.0,
        "transactions": 6624.974999999999,
        "conflicts": 75.375,
        "seconds": 8.042362719208227e-07,
        "traversal_steps": 4.0,
        "values_sum": 465347231355,
    },
    "eirene-no-partition/simt": {
        "mem_inst": 29479.0,
        "control_inst": 21993.0,
        "alu_inst": 0.0,
        "atomic_inst": 1964.0,
        "transactions": 20850.0,
        "conflicts": 166.0,
        "seconds": 4.150570921985816e-05,
        "traversal_steps": 5.60774818401937,
        "values_sum": 465347231355,
    },
}

GOLDEN_FIELDS = (
    "mem_inst",
    "control_inst",
    "alu_inst",
    "atomic_inst",
    "transactions",
    "conflicts",
    "seconds",
    "traversal_steps",
)


def _run_fixed_batch(name: str, engine: str, **kwargs):
    """The exact golden-capture recipe: one mixed 512-request batch over a
    2^10-key tree (fanout 8, 4 SMs), everything seeded from SEED."""
    rng = np.random.default_rng(SEED)
    keys, values = build_key_pool(2**10, rng)
    sys_ = make_system(
        name,
        keys,
        values,
        tree_config=TreeConfig(fanout=8),
        device=DeviceConfig(num_sms=4),
        **kwargs,
    )
    wl = YcsbWorkload(pool=keys, mix=MIX)
    batch = wl.generate(512, rng)
    ref = sys_.reference_for_tree()
    out = sys_.process_batch(batch, engine=engine)
    return sys_, batch, ref, out


@pytest.mark.parametrize("engine", ["vector", "simt"])
@pytest.mark.parametrize("label", sorted(GOLDEN_SYSTEMS))
def test_pipeline_reproduces_pre_refactor_totals(label, engine):
    _, _, _, out = _run_fixed_batch(GOLDEN_SYSTEMS[label], engine)
    golden = GOLDENS[f"{label}/{engine}"]
    for field in GOLDEN_FIELDS:
        got = float(getattr(out, field))
        want = float(golden[field])
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (
            f"{label}/{engine}.{field}: got {got!r}, golden {want!r}"
        )
    assert int(np.int64(out.results.values).sum()) == golden["values_sum"]


# all valid flag combinations (combining is structural; locality requires
# combining, so the no-combining bar is the STM baseline, as in the paper)
FLAG_COMBOS = [
    EireneConfig(
        enable_locality=loc,
        enable_kernel_partition=part,
        enable_rf_decision=rf,
        enable_narrowed_thread_groups=ntg,
    )
    for loc, part, rf, ntg in itertools.product([True, False], repeat=4)
]


# (engine, locality, partition) -> the pass names the pipeline runs
PASS_NAMES = {
    ("vector", True, True): (
        "combine", "partition", "locality", "query_kernel", "range_scan",
        "update_kernel", "result_cal", "finalize",
    ),
    ("vector", False, True): (
        "combine", "partition", "traversal", "query_kernel", "range_scan",
        "update_kernel", "result_cal", "finalize",
    ),
    ("vector", True, False): (
        "combine", "partition", "locality", "range_scan", "unified_kernel",
        "result_cal", "finalize",
    ),
    ("vector", False, False): (
        "combine", "partition", "traversal", "range_scan", "unified_kernel",
        "result_cal", "finalize",
    ),
    ("simt", True, True): (
        "combine", "partition", "query_kernel", "update_kernel", "result_cal", "finalize",
    ),
    ("simt", False, True): (
        "combine", "partition", "query_kernel", "update_kernel", "result_cal", "finalize",
    ),
    ("simt", True, False): (
        "combine", "partition", "range_scan", "unified_kernel", "result_cal", "finalize",
    ),
    ("simt", False, False): (
        "combine", "partition", "range_scan", "unified_kernel", "result_cal", "finalize",
    ),
}


def _combo_id(cfg: EireneConfig) -> str:
    return "".join(
        flag[0] if on else "-"
        for flag, on in (
            ("locality", cfg.enable_locality),
            ("partition", cfg.enable_kernel_partition),
            ("rf", cfg.enable_rf_decision),
            ("ntg", cfg.enable_narrowed_thread_groups),
        )
    )


@pytest.mark.parametrize("engine", ["vector", "simt"])
@pytest.mark.parametrize("cfg", FLAG_COMBOS, ids=_combo_id)
def test_all_flag_combos_match_reference(cfg, engine):
    sys_, batch, ref, out = _run_fixed_batch("eirene", engine, config=cfg)
    expected = ref.execute(batch)
    rep = check_linearizable(batch, out.results, expected)
    assert rep.ok, rep.describe(batch)
    sys_.tree.validate()
    got_k, got_v = sys_.tree.items()
    exp_k, exp_v = ref.items()
    assert np.array_equal(got_k, exp_k)
    assert np.array_equal(got_v, exp_v)
    # the pipeline the system actually ran is the one its flags select
    assert out.trace is not None
    key = (engine, cfg.enable_locality, cfg.enable_kernel_partition)
    assert tuple(out.trace.pass_names) == PASS_NAMES[key]
