"""Ablation studies beyond the paper's Fig. 11/12: the design knobs
DESIGN.md §6 calls out, swept individually over identical workloads.

These are *extension* experiments — the paper fixes these knobs (retry
threshold, iteration depth, RF decision, kernel partition); the sweeps show
why its choices are sensible.
"""

from __future__ import annotations

from ..config import EireneConfig
from .experiment import ExperimentConfig, run_system
from .report import FigureResult


def ablate_retry_threshold(
    cfg: ExperimentConfig | None = None,
    thresholds: tuple[int, ...] = (0, 1, 3, 8),
) -> FigureResult:
    """§4.2 knob: retries of unprotected inner traversal before STM kicks in.

    Threshold 0 means every traversal is STM-protected (pessimistic);
    large thresholds keep traversal optimistic under churn.
    """
    cfg = cfg or ExperimentConfig(engine="simt", batch_size=2**11, tree_size=2**13)
    fig = FigureResult(
        figure="Ablation A",
        title="Eirene: stm_retry_threshold sweep (Mreq/s, conflicts/req)",
        columns=["Mreq/s", "conflicts_per_req", "mem_per_req"],
    )
    for t in thresholds:
        run = run_system(
            "eirene", cfg, eirene_config=EireneConfig(stm_retry_threshold=t)
        )
        fig.add_row(
            f"threshold={t}",
            run.outcome.throughput.mops,
            run.outcome.conflicts_per_request,
            run.outcome.mem_inst_per_request,
        )
    fig.paper_notes = [
        "paper fixes the threshold (Algorithm 1); the sweep shows the "
        "optimistic inner traversal is essentially free at low contention",
    ]
    return fig


def ablate_iteration_depth(
    cfg: ExperimentConfig | None = None,
    depths: tuple[int, ...] = (1, 2, 4, 8),
) -> FigureResult:
    """§5 knob: request groups per iteration warp (locality vs parallelism)."""
    cfg = cfg or ExperimentConfig(batch_size=2**13, tree_size=2**14)
    fig = FigureResult(
        figure="Ablation B",
        title="Eirene: rgs_per_iteration_warp sweep",
        columns=["Mreq/s", "traversal_steps"],
    )
    for d in depths:
        run = run_system(
            "eirene", cfg, eirene_config=EireneConfig(rgs_per_iteration_warp=d)
        )
        fig.add_row(
            f"depth={d}", run.outcome.throughput.mops, run.outcome.traversal_steps
        )
    fig.paper_notes = [
        "paper §5: larger iteration depth increases locality but sacrifices "
        "parallelism; RGs are distributed over SMs before grouping, so the "
        "depth only matters once every SM is busy",
    ]
    return fig


def ablate_rf_decision(cfg: ExperimentConfig | None = None) -> FigureResult:
    """§5 knob: RF-guided vertical/horizontal choice vs always-horizontal.

    Run on a *sparse* batch, where blind horizontal walking is the
    pathological case the RF field exists to prevent.
    """
    cfg = cfg or ExperimentConfig(batch_size=2**10, tree_size=2**15)
    fig = FigureResult(
        figure="Ablation C",
        title="Eirene: RF decision on/off (sparse batch: walks are long)",
        columns=["Mreq/s", "traversal_steps"],
    )
    for label, rf in (("RF decision on", True), ("always horizontal", False)):
        run = run_system(
            "eirene", cfg, eirene_config=EireneConfig(enable_rf_decision=rf)
        )
        fig.add_row(label, run.outcome.throughput.mops, run.outcome.traversal_steps)
    fig.paper_notes = [
        "paper §5: the RF field bounds horizontal traversal to walks no "
        "longer than the tree height; without it, sparse batches walk the "
        "leaf chain across RG gaps far wider than the height",
    ]
    return fig


def ablate_kernel_partition(cfg: ExperimentConfig | None = None) -> FigureResult:
    """§4.2 knob: split query/update kernels vs one unified kernel.

    ``enable_kernel_partition=False`` selects the ``unified_kernel`` pass
    (see :meth:`repro.core.eirene.EireneTree.build_pipeline`): queries share the
    launch with writers, so they lose the NTG search and must read their
    leaf under STM protection, exposed to writer aborts. The sweep shows
    why the paper runs queries in their own unsynchronized kernel.
    """
    cfg = cfg or ExperimentConfig()
    fig = FigureResult(
        figure="Ablation E",
        title="Eirene: kernel partition on/off (unified queries pay STM reads)",
        columns=["Mreq/s", "conflicts_per_req", "mem_per_req"],
    )
    for label, name in (
        ("partitioned kernels", "eirene"),
        ("unified kernel", "eirene-no-partition"),
    ):
        run = run_system(name, cfg)
        fig.add_row(
            label,
            run.outcome.throughput.mops,
            run.outcome.conflicts_per_request,
            run.outcome.mem_inst_per_request,
        )
    fig.paper_notes = [
        "paper §4.2: partition exists so the query kernel runs with no "
        "synchronization at all; merging the kernels forces protection "
        "(and reader aborts) back onto the read path",
    ]
    return fig


def ablate_skew(
    cfg: ExperimentConfig | None = None,
    thetas: tuple[float, ...] = (0.0, 0.5, 0.9, 0.99),
) -> FigureResult:
    """Extension: sensitivity to key skew (YCSB zipfian theta).

    Combining's win grows with skew: hot keys collapse into single issued
    requests, while the baselines' same-key conflicts explode.
    """
    cfg = cfg or ExperimentConfig(engine="simt", batch_size=2**11, tree_size=2**13)
    fig = FigureResult(
        figure="Ablation D",
        title="skew sweep: conflicts/request and combined share vs zipfian theta",
        columns=["eirene_conf", "stm_conf", "combined_frac"],
    )
    for theta in thetas:
        eirene = _run_with_theta("eirene", cfg, theta)
        stm = _run_with_theta("stm", cfg, theta)
        combined = eirene.outcome.extras.get("n_combined", 0) / max(
            eirene.outcome.n_requests, 1
        )
        fig.add_row(
            f"theta={theta}",
            eirene.outcome.conflicts_per_request,
            stm.outcome.conflicts_per_request,
            combined,
        )
    fig.paper_notes = [
        "extension experiment (the paper evaluates uniform keys only): "
        "combining eliminates the same-key conflicts that grow with skew",
    ]
    return fig


def _run_with_theta(system: str, cfg: ExperimentConfig, theta: float):
    """run_system with a zipfian theta override."""
    import numpy as np

    from ..config import DeviceConfig, TreeConfig
    from ..factory import make_system
    from ..baselines.base import merge_outcomes
    from ..workloads import YcsbWorkload, build_key_pool
    from .experiment import SYSTEM_LABELS, SystemRun

    rng = np.random.default_rng(cfg.seed)
    keys, values = build_key_pool(cfg.tree_size, rng)
    sys_ = make_system(
        system, keys, values,
        tree_config=TreeConfig(fanout=cfg.fanout),
        device=DeviceConfig(num_sms=cfg.num_sms),
    )
    if theta > 0.0:
        wl = YcsbWorkload(pool=keys, mix=cfg.mix, distribution="zipfian", theta=theta)
    else:
        wl = YcsbWorkload(pool=keys, mix=cfg.mix, distribution="uniform")
    outcomes = []
    avgs = []
    for _ in range(cfg.n_batches):
        batch = wl.generate(cfg.batch_size, rng)
        out = sys_.process_batch(batch, engine=cfg.engine)
        outcomes.append(out)
        avgs.append(out.seconds / batch.n)
    merged = merge_outcomes(outcomes)
    merged.extras = outcomes[-1].extras
    return SystemRun(
        system=system,
        label=SYSTEM_LABELS.get(system, system),
        outcome=merged,
        batch_avg_response_s=avgs,
    )
