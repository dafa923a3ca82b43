"""One reproduction function per figure of the paper's evaluation (§8).

Each function runs the systems it needs and returns a
:class:`~repro.harness.report.FigureResult` whose rows mirror the bars /
series of the original figure, with the paper's numbers attached as
reference notes. The benchmarks under ``benchmarks/`` call these and assert
the qualitative shape (who wins, roughly by how much, where trends point).
"""

from __future__ import annotations

import numpy as np

from ..factory import EIRENE_VARIANTS
from ..workloads import RANGE_4, RANGE_8
from . import paper
from .experiment import ExperimentConfig, SystemRun, run_all, run_system
from .report import FigureResult

#: locality off, combining on — the "+ Combining" bar of Fig. 11/12.
#: Kept as an alias of the factory's variant table; the figure runners
#: below select the variant *by name*, which picks the pass list via
#: :meth:`repro.core.eirene.EireneTree.build_pipeline`.
COMBINING_ONLY_CFG = EIRENE_VARIANTS["eirene+combining"]


def default_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig().with_(**overrides)


def _profile_config(cfg: ExperimentConfig | None) -> ExperimentConfig:
    """Profiling figures use the SIMT engine at a size it handles well."""
    base = cfg or default_config()
    return base.with_(engine="simt", batch_size=min(base.batch_size, 2**11))


# --------------------------------------------------------------------- #
# Fig. 1 — motivation profiling of the baselines
# --------------------------------------------------------------------- #
def fig01_profiling(cfg: ExperimentConfig | None = None) -> FigureResult:
    cfg = _profile_config(cfg)
    runs = run_all(("nocc", "stm", "lock"), cfg)
    fig = FigureResult(
        figure="Fig. 1",
        title="memory / control-flow instructions per request (baselines)",
        columns=["memory_inst", "control_inst", "mem_ratio", "ctrl_ratio"],
    )
    base = runs["nocc"].outcome
    for name in ("nocc", "stm", "lock"):
        o = runs[name].outcome
        fig.add_row(
            runs[name].label,
            o.mem_inst_per_request,
            o.control_inst_per_request,
            o.mem_inst_per_request / base.mem_inst_per_request,
            o.control_inst_per_request / base.control_inst_per_request,
        )
    fig.paper_notes = [
        f"paper: mem/request noCC={paper.FIG1_MEM_INST['nocc']}, "
        f"STM={paper.FIG1_MEM_INST['stm']} ({paper.FIG1_MEM_RATIO['stm']}x), "
        f"Lock={paper.FIG1_MEM_INST['lock']} ({paper.FIG1_MEM_RATIO['lock']}x)",
        f"paper: control/request ratios STM={paper.FIG1_CONTROL_RATIO['stm']}x, "
        f"Lock={paper.FIG1_CONTROL_RATIO['lock']}x",
    ]
    return fig


# --------------------------------------------------------------------- #
# Fig. 2 — normalized time per request with variance whiskers
# --------------------------------------------------------------------- #
def fig02_normalized_time(cfg: ExperimentConfig | None = None) -> FigureResult:
    cfg = (cfg or default_config()).with_(engine="simt", batch_size=2**11, n_batches=5)
    runs = run_all(("stm", "lock", "eirene"), cfg)
    fig = FigureResult(
        figure="Fig. 2",
        title="normalized time per request (vs STM GB-tree) + QoS variance",
        columns=["norm_avg", "variance_pct"],
    )
    stm_avg = float(np.mean(runs["stm"].batch_avg_response_s))
    for name in ("stm", "lock", "eirene"):
        r = runs[name]
        fig.add_row(
            r.label,
            float(np.mean(r.batch_avg_response_s)) / stm_avg,
            r.qos_variance * 100,
        )
    fig.paper_notes = [
        "paper: variance STM=40%, Lock=36%, Eirene=5%",
        "paper: Eirene avg response is ~7.5% of STM's, ~13% of Lock's",
    ]
    return fig


# --------------------------------------------------------------------- #
# Fig. 7 — overall throughput vs tree size
# --------------------------------------------------------------------- #
def fig07_throughput(
    cfg: ExperimentConfig | None = None,
    tree_sizes_log2: tuple[int, ...] = (13, 14, 15, 16),
) -> FigureResult:
    cfg = cfg or default_config()
    fig = FigureResult(
        figure="Fig. 7",
        title="throughput (Mreq/s) vs tree size, 95%/5% query/update",
        columns=[f"2^{k}" for k in tree_sizes_log2],
    )
    per_system: dict[str, list[float]] = {}
    for name in ("stm", "lock", "eirene"):
        vals = []
        for k in tree_sizes_log2:
            run = run_system(name, cfg.with_(tree_size=2**k))
            vals.append(run.outcome.throughput.mops)
        per_system[name] = vals
        label = run.label
        fig.add_row(label, *vals)
    sp_stm = np.mean(np.array(per_system["eirene"]) / np.array(per_system["stm"]))
    sp_lock = np.mean(np.array(per_system["eirene"]) / np.array(per_system["lock"]))
    fig.notes = [
        f"measured speedup: {sp_stm:.2f}x vs STM, {sp_lock:.2f}x vs Lock",
    ]
    fig.paper_notes = [
        f"paper (2^23..2^26, A100): Eirene 2400 Mreq/s, "
        f"{paper.SPEEDUP_VS_STM}x vs STM, {paper.SPEEDUP_VS_LOCK}x vs Lock; "
        "throughput decreases with tree size",
    ]
    return fig


# --------------------------------------------------------------------- #
# Fig. 8 — time per request (avg / min / max)
# --------------------------------------------------------------------- #
def fig08_response_time(cfg: ExperimentConfig | None = None) -> FigureResult:
    cfg = (cfg or default_config()).with_(engine="simt", batch_size=2**11, n_batches=5)
    runs = run_all(("stm", "lock", "eirene"), cfg)
    fig = FigureResult(
        figure="Fig. 8",
        title="time per request (ns) and QoS variance",
        columns=["avg_ns", "min_ns", "max_ns", "variance_pct"],
    )
    for name in ("stm", "lock", "eirene"):
        r = runs[name]
        a = np.asarray(r.batch_avg_response_s) * 1e9
        fig.add_row(r.label, float(a.mean()), float(a.min()), float(a.max()),
                    r.qos_variance * 100)
    fig.paper_notes = [
        "paper (A100, 1M batches): STM 5.5 ns (40%), Lock 3.1 ns (36%), "
        "Eirene 0.41 ns [0.40, 0.42] (5%)",
        "absolute ns scale with device/batch scaling; ordering + variance are the targets",
    ]
    return fig


# --------------------------------------------------------------------- #
# Fig. 9 — Eirene's instruction profile, normalized to the baselines
# --------------------------------------------------------------------- #
def fig09_instruction_profile(cfg: ExperimentConfig | None = None) -> FigureResult:
    cfg = _profile_config(cfg)
    runs = run_all(("stm", "lock", "eirene"), cfg)
    fig = FigureResult(
        figure="Fig. 9",
        title="normalized instructions per request (1.0 = that baseline)",
        columns=["mem_vs_stm", "ctrl_vs_stm", "mem_vs_lock", "ctrl_vs_lock"],
    )
    e = runs["eirene"].outcome
    s = runs["stm"].outcome
    l = runs["lock"].outcome
    fig.add_row(
        "Eirene",
        e.mem_inst_per_request / s.mem_inst_per_request,
        e.control_inst_per_request / s.control_inst_per_request,
        e.mem_inst_per_request / l.mem_inst_per_request,
        e.control_inst_per_request / l.control_inst_per_request,
    )
    # conflicts/request: measured under key contention (hot keys), where
    # same-key collisions — the conflicts combining eliminates — actually
    # occur; the uniform default at this scale leaves both systems' conflict
    # counts in the statistical noise
    hot = cfg.with_(distribution="zipfian")
    hot_runs = run_all(("stm", "eirene"), hot)
    hs = hot_runs["stm"].outcome.conflicts_per_request
    he = hot_runs["eirene"].outcome.conflicts_per_request
    conflicts_ratio = he / hs if hs else 0.0
    fig.add_row("conflicts vs STM", conflicts_ratio, "", "", "")
    fig.notes.append(
        f"conflict ratio measured under zipfian keys: Eirene {he:.4f} vs "
        f"STM {hs:.4f} per request"
    )
    fig.paper_notes = [
        f"paper: mem {paper.EIRENE_MEM_VS_STM:.3f} of STM / "
        f"{paper.EIRENE_MEM_VS_LOCK:.3f} of Lock; control "
        f"{paper.EIRENE_CONTROL_VS_STM:.3f} of STM / {paper.EIRENE_CONTROL_VS_LOCK:.3f} of Lock",
        f"paper: conflicts per request = {paper.EIRENE_CONFLICTS_VS_STM:.3f} of STM",
    ]
    return fig


# --------------------------------------------------------------------- #
# Fig. 10 — normalized average traversal steps vs tree size
# --------------------------------------------------------------------- #
def fig10_traversal_steps(
    cfg: ExperimentConfig | None = None,
    tree_sizes_log2: tuple[int, ...] = (13, 14, 15, 16),
) -> FigureResult:
    cfg = cfg or default_config()
    fig = FigureResult(
        figure="Fig. 10",
        title="average traversal steps, normalized to STM GB-tree",
        columns=[f"2^{k}" for k in tree_sizes_log2],
    )
    rows: dict[str, list[float]] = {name: [] for name in ("stm", "lock", "eirene")}
    labels = {}
    for k in tree_sizes_log2:
        # keep the batch dense relative to the leaves so locality has the
        # same requests-per-leaf regime as the paper
        c = cfg.with_(tree_size=2**k, batch_size=max(cfg.batch_size, 2 ** (k - 1)))
        for name in rows:
            run = run_system(name, c)
            rows[name].append(run.outcome.traversal_steps)
            labels[name] = run.label
    base = np.array(rows["stm"])
    for name in ("stm", "lock", "eirene"):
        fig.add_row(labels[name], *(np.array(rows[name]) / base))
    fig.paper_notes = [
        "paper: STM and Lock coincide (height-bound); Eirene ~67% fewer "
        "steps at 2^23, gap narrowing as the tree grows "
        "(horizontal steps 1.5 @2^23 -> 3.4 @2^26)",
    ]
    return fig


# --------------------------------------------------------------------- #
# Fig. 11 — design-choice ablation
# --------------------------------------------------------------------- #
def fig11_design_choices(
    cfg: ExperimentConfig | None = None,
    tree_sizes_log2: tuple[int, ...] = (13, 14, 15, 16),
) -> FigureResult:
    cfg = cfg or default_config()
    fig = FigureResult(
        figure="Fig. 11",
        title="throughput (Mreq/s): STM baseline vs +Combining vs Eirene",
        columns=[f"2^{k}" for k in tree_sizes_log2],
    )
    # each series is a system / pass-selection variant name (EIRENE_VARIANTS)
    series = {
        "STM GB-tree": "stm",
        "Lock GB-tree": "lock",
        "+ Combining": "eirene+combining",
        "Eirene": "eirene",
    }
    values: dict[str, list[float]] = {}
    for label, name in series.items():
        vals = []
        for k in tree_sizes_log2:
            run = run_system(name, cfg.with_(tree_size=2**k))
            vals.append(run.outcome.throughput.mops)
        values[label] = vals
        fig.add_row(label, *vals)
    comb = np.mean(np.array(values["+ Combining"]) / np.array(values["STM GB-tree"]))
    full = np.mean(np.array(values["Eirene"]) / np.array(values["STM GB-tree"]))
    fig.notes = [f"measured: +Combining {comb:.2f}x vs STM; Eirene {full:.2f}x vs STM"]
    fig.paper_notes = [
        f"paper: +Combining {paper.COMBINING_SPEEDUP_VS_STM}x, "
        f"Eirene {paper.FULL_EIRENE_SPEEDUP_VS_STM}x over STM GB-tree",
    ]
    return fig


# --------------------------------------------------------------------- #
# Fig. 12 — contribution of each optimization
# --------------------------------------------------------------------- #
def fig12_optimization_contributions(cfg: ExperimentConfig | None = None) -> FigureResult:
    # two measurement regimes, each matching where the paper's numbers come
    # from: instruction contributions under a *dense uniform* batch (≥ half
    # the tree, so the locality optimization operates in the paper's
    # requests-per-leaf regime), conflict contributions under *hot keys*
    # (key conflicts — the population combining eliminates — need
    # duplicates to exist)
    dense = (cfg or default_config()).with_(
        engine="simt", tree_size=2**13, batch_size=2**12, distribution="uniform"
    )
    hot = dense.with_(distribution="zipfian")
    fig = FigureResult(
        figure="Fig. 12",
        title="reduction vs STM GB-tree attributed to each optimization (%)",
        columns=["conflicts", "memory_inst", "control_inst"],
    )

    def reductions(runs, metric: str) -> tuple[float, float]:
        b = getattr(runs["stm"].outcome, metric)
        c = getattr(runs["comb"].outcome, metric)
        e = getattr(runs["full"].outcome, metric)
        if b <= 0:
            return 0.0, 0.0
        return 100.0 * (b - c) / b, 100.0 * max(c - e, 0.0) / b

    dense_runs = {
        "stm": run_system("stm", dense),
        "comb": run_system("eirene+combining", dense),
        "full": run_system("eirene", dense),
    }
    hot_runs = {
        "stm": run_system("stm", hot),
        "comb": run_system("eirene+combining", hot),
        "full": run_system("eirene", hot),
    }
    conf_comb, conf_loc = reductions(hot_runs, "conflicts")
    mem_comb, mem_loc = reductions(dense_runs, "mem_inst")
    ctrl_comb, ctrl_loc = reductions(dense_runs, "control_inst")
    fig.add_row("combining", conf_comb, mem_comb, ctrl_comb)
    fig.add_row("locality", conf_loc, mem_loc, ctrl_loc)
    fig.notes = [
        "conflict columns measured under zipfian keys (key conflicts need "
        "duplicates); instruction columns under a dense uniform batch "
        "(locality's requests-per-leaf regime)",
    ]
    fig.paper_notes = [
        "paper: combining removes ~57% of conflicts, 96.5% of memory "
        "accesses, 98.4% of control instructions; locality removes ~43% of "
        "structure conflicts, 3.5% mem, 1.6% control",
    ]
    return fig


# --------------------------------------------------------------------- #
# Fig. 13 — pure range-query throughput
# --------------------------------------------------------------------- #
def fig13_range_query(
    cfg: ExperimentConfig | None = None,
    tree_sizes_log2: tuple[int, ...] = (13, 14, 15, 16),
) -> FigureResult:
    cfg = cfg or default_config()
    fig = FigureResult(
        figure="Fig. 13",
        title="pure range-query throughput (Mreq/s), lengths 4 and 8",
        columns=[f"len{ln}@2^{k}" for ln in (4, 8) for k in tree_sizes_log2],
    )
    values: dict[str, list[float]] = {}
    labels = {}
    for name in ("stm", "lock", "eirene"):
        vals = []
        for mix in (RANGE_4, RANGE_8):
            for k in tree_sizes_log2:
                run = run_system(
                    name,
                    cfg.with_(tree_size=2**k, mix=mix, batch_size=min(cfg.batch_size, 2**12)),
                )
                vals.append(run.outcome.throughput.mops)
                labels[name] = run.label
        values[name] = vals
        fig.add_row(labels[name], *vals)
    sp = np.mean(np.array(values["eirene"]) / np.array(values["lock"]))
    fig.notes = [f"measured: Eirene {sp:.2f}x vs Lock GB-tree overall"]
    fig.paper_notes = [
        "paper: Eirene 1181 (len4) / 1034 (len8) Mreq/s vs Lock 235 / 175; "
        f"overall {paper.RANGE_SPEEDUP_VS_LOCK}x vs Lock GB-tree",
    ]
    return fig


# --------------------------------------------------------------------- #
# §6 — linearizability demonstration (extension experiment)
# --------------------------------------------------------------------- #
def linearizability_demo(cfg: ExperimentConfig | None = None) -> FigureResult:
    """Run every system under the SIMT engine with the checker on: Eirene
    must match the timestamp-order reference; the baselines are *expected*
    to diverge under same-key races (they don't guarantee linearizability).
    A hot key space amplifies the races."""
    cfg = (cfg or default_config()).with_(
        engine="simt",
        batch_size=2**10,
        n_batches=2,
        tree_size=2**10,
        check_linearizability=True,
    )
    runs = run_all(("nocc", "stm", "lock", "eirene"), cfg)
    fig = FigureResult(
        figure="§6",
        title="linearizability vs the sequential timestamp-order reference",
        columns=["linearizable"],
    )
    for name, r in runs.items():
        fig.add_row(r.label, "yes" if r.linearizable else "NO")
    fig.paper_notes = [
        "paper §6: Eirene is linearizable by construction; neither baseline "
        "guarantees it (they exploit GPU parallelism without timestamp order)",
    ]
    return fig
