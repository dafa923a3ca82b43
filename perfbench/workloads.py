"""Workload definitions and seeded input generation.

Every workload runs the four systems on identical inputs: one key pool and
one batch sequence per seed, generated in the benchmark process before any
system is built. The systems never see the seed; they receive only the
generated keys and batches (their device seed is the fixed
:data:`DEVICE_SEED`).

A run builds every system, repeating the set-up ``setup_repeats`` times
(all but the last build are discarded) so ``setup_s`` is a median of
several samples, then streams one seeded batch sequence through every
system. The stream length is sized from ``--seconds`` by a fixed nominal
host cost per batch, so the work done, and with it every modeled metric,
depends only on the seed and the run length, never on how fast the host
happens to be.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import DeviceConfig, TreeConfig, YcsbMix, YcsbWorkload, build_key_pool
from repro.workloads import PAPER_DEFAULT, YCSB_A

SYSTEMS = ("nocc", "stm", "lock", "eirene")
FANOUT = 32
NUM_SMS = 8
#: device-context seed handed to every system; the benchmark seed only
#: drives input generation
DEVICE_SEED = 0

SCAN_INSERT = YcsbMix(query=0.45, update=0.0, insert=0.10, range_=0.45, range_length=8)


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str  # "simt" or "vector"
    tree_log2: int
    fill_factor: float
    batch_size: int
    mix: YcsbMix
    #: nominal host seconds one batch takes through all four systems,
    #: checks included; sizes the stream from ``--seconds``
    batch_s: float
    setup_repeats: int
    #: longest stream a run may have (the tree's node arena bounds how many
    #: inserts it absorbs)
    max_batches: int | None = None
    #: 0 runs one tree per system; otherwise a ParallelShardedSystem with
    #: this many key-range shards on ``workers`` processes
    shards: int = 0
    workers: int = 0

    @property
    def tree_config(self) -> TreeConfig:
        return TreeConfig(fanout=FANOUT)

    @property
    def device(self) -> DeviceConfig:
        return DeviceConfig(num_sms=NUM_SMS)

    def n_batches(self, seconds: float) -> int:
        """Stream length of a run of nominal length ``seconds``."""
        n = max(1, int(round(seconds / self.batch_s)))
        return n if self.max_batches is None else min(n, self.max_batches)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="simt-ycsb-a",
            engine="simt",
            tree_log2=12,
            fill_factor=0.7,
            batch_size=1024,
            mix=YCSB_A,
            batch_s=1.25,
            setup_repeats=10,
        ),
        # runnable by name but not listed in BENCHMARK.json: bursts of leaf
        # splits make its modeled metrics vary across seeds by more than
        # any allowed bound; it is where NoCC and Lock fail lookups
        Workload(
            name="simt-scan-insert",
            engine="simt",
            tree_log2=12,
            fill_factor=0.9,
            batch_size=1024,
            mix=SCAN_INSERT,
            batch_s=1.8,
            setup_repeats=10,
            # a 2^12-key tree at fill 0.9 with 10% inserts exhausts its
            # node arena after about 34 batches of 1024
            max_batches=30,
        ),
        Workload(
            name="vector-paper-default",
            engine="vector",
            tree_log2=16,
            fill_factor=0.7,
            batch_size=8192,
            mix=PAPER_DEFAULT,
            batch_s=1.2,
            setup_repeats=5,
        ),
        Workload(
            name="fleet-vector-default",
            engine="vector",
            tree_log2=16,
            fill_factor=0.7,
            batch_size=8192,
            mix=PAPER_DEFAULT,
            batch_s=1.1,
            setup_repeats=5,
            shards=4,
            workers=2,
        ),
    )
}


@dataclass
class Inputs:
    """Everything a run feeds the systems: the key pool and the batch
    stream every system receives."""

    keys: np.ndarray
    values: np.ndarray
    batches: list


def make_inputs(workload: Workload, seed: int, n_batches: int) -> Inputs:
    """Key pool and batch stream from ``seed``: the same seed gives the same
    inputs."""
    rng = np.random.default_rng(seed)
    keys, values = build_key_pool(2**workload.tree_log2, rng)
    gen = YcsbWorkload(pool=keys, mix=workload.mix)
    batches = [gen.generate(workload.batch_size, rng) for _ in range(n_batches)]
    return Inputs(keys=keys, values=values, batches=batches)
