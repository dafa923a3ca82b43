"""Interpreter speed — host wall-time of the SIMT slot loop, not a figure.

Times ``process_batch`` for YCSB-A/B/C across all four systems in three
modes and writes ``benchmarks/results/BENCH_interp.json``:

``sequential``
    the test oracle (``tests/reference_interp.py``) installed as
    ``Warp.step`` — the original loop that resumes every lane each slot;
``vectorized``
    the interpreter, :meth:`~repro.simt.Warp.step` (batched counter
    flushes, parked barrier waits, retired lanes dropped);
``vect+shards``
    the interpreter with the batch split across a
    :class:`~repro.sharding.ParallelShardedSystem` fleet (worker
    processes). Per-shard trees are smaller, so its counters differ from
    the unsharded rows by design; only its wall time is comparable.

The oracle and the interpreter compute bit-identical counters, so this file
measures only how fast the simulator itself runs. Its numbers are
machine-dependent and the golden-drift gate never looks at them.

Timing protocol: tree build and workload generation are excluded (only
``process_batch`` is timed), every (system, mix, mode) cell rebuilds its
system from scratch so repeats see identical state, and the best of
``REPEATS`` runs is kept — host noise only ever inflates a run, so min is
the honest estimator.

Assertions are the CI ``perf-smoke`` floor: the interpreter must beat the
oracle by >= 1.5x on the headline Eirene YCSB-A row and must not fall
below 0.8x on any row (scheduler noise on ~0.1 s rows).
"""

import time

import numpy as np
import pytest

from repro import make_system
from repro.harness import SYSTEMS, ExperimentConfig, FigureResult
from repro.sharding import ParallelShardedSystem
from repro.simt import Warp
from repro.workloads import YCSB_A, YCSB_B, YCSB_C, YcsbWorkload, build_key_pool
from tests.reference_interp import reference_step

MIXES = {"YCSB-A": YCSB_A, "YCSB-B": YCSB_B, "YCSB-C": YCSB_C}
REPEATS = 3
N_SHARDS = 4
SHARD_WORKERS = 2


def _timed(make_fn, batches) -> float:
    """Best-of-``REPEATS`` wall seconds over the ``process_batch`` loop."""
    best = float("inf")
    for _ in range(REPEATS):
        sys_ = make_fn()
        t0 = time.perf_counter()
        for batch in batches:
            sys_.process_batch(batch, engine="simt")
        best = min(best, time.perf_counter() - t0)
        close = getattr(sys_, "close", None)
        if close is not None:
            close()
    return best


def interp_speed(cfg: ExperimentConfig) -> FigureResult:
    """Wall time of the SIMT interpreter per system x mix x mode."""
    fig = FigureResult(
        figure="BENCH_interp",
        title="SIMT interpreter wall-time: sequential vs vectorized vs +shards",
        columns=[
            "sequential s",
            "vectorized s",
            "vect+shards s",
            "ops/s (vect)",
            "speedup",
            "speedup(+shards)",
        ],
    )
    n_ops = cfg.batch_size * cfg.n_batches
    make_kwargs = dict(
        tree_config=cfg.tree_config, device=cfg.device, fill_factor=cfg.fill_factor
    )
    for mix_name, mix in MIXES.items():
        rng = np.random.default_rng(cfg.seed)
        keys, values = build_key_pool(cfg.tree_size, rng)
        wl = YcsbWorkload(pool=keys, mix=mix, distribution=cfg.distribution)
        batches = [wl.generate(cfg.batch_size, rng) for _ in range(cfg.n_batches)]
        for system in SYSTEMS:

            def make_plain():
                return make_system(system, keys, values, seed=cfg.seed, **make_kwargs)

            def make_fleet():
                return ParallelShardedSystem(
                    system, keys, values, N_SHARDS,
                    n_workers=SHARD_WORKERS, seed=cfg.seed, **make_kwargs,
                )

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Warp, "step", reference_step)
                seq_s = _timed(make_plain, batches)
            vec_s = _timed(make_plain, batches)
            par_s = _timed(make_fleet, batches)
            fig.add_row(
                f"{system} {mix_name}",
                seq_s,
                vec_s,
                par_s,
                n_ops / vec_s,
                seq_s / vec_s,
                seq_s / par_s,
            )
    fig.notes.append(
        f"process_batch wall-time only (build + workload gen excluded); "
        f"best of {REPEATS}; tree=2^{cfg.tree_size.bit_length() - 1}, "
        f"batch=2^{cfg.batch_size.bit_length() - 1} x{cfg.n_batches}, engine=simt"
    )
    fig.notes.append(
        f"vect+shards = Warp.step + ParallelShardedSystem({N_SHARDS} shards, "
        f"{SHARD_WORKERS} workers); counters differ from unsharded rows by "
        "design (smaller per-shard trees) — wall-time column only"
    )
    fig.notes.append(
        "sequential = the test oracle tests/reference_interp.py installed as "
        "Warp.step; it computes bit-identical counters/results per system"
    )
    return fig


def test_interp_speed(benchmark, results_dir):
    cfg = ExperimentConfig(
        engine="simt", tree_size=2**12, batch_size=2**10, n_batches=2
    )
    fig = benchmark.pedantic(lambda: interp_speed(cfg), rounds=1, iterations=1)
    text = fig.render()
    print("\n" + text)
    # written under the documented name (emit() would lowercase it)
    (results_dir / "BENCH_interp.txt").write_text(text + "\n")
    (results_dir / "BENCH_interp.json").write_text(fig.to_json(indent=2) + "\n")

    for system in SYSTEMS:
        for mix in MIXES:
            speedup = fig.value(f"{system} {mix}", "speedup")
            # fast rows at this scale finish in ~0.1 s; allow scheduler noise
            # but never a real regression
            assert speedup >= 0.8, (
                f"{system} {mix}: vectorized path slower than sequential "
                f"({speedup:.2f}x)"
            )
    headline = fig.value("eirene YCSB-A", "speedup")
    assert headline >= 1.5, (
        f"eirene YCSB-A vectorized speedup {headline:.2f}x below the 1.5x floor"
    )
