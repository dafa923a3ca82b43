"""Equivalence tests for the SIMT interpreter and its satellites.

:meth:`~repro.simt.Warp.step` is the one interpreter. The test oracle
``tests/reference_interp.py`` is the original slot loop, which resumes every
lane each slot; each test installs it with ``monkeypatch``. Counters, lane
results, arena contents, QoS arrays and probe output must be bit-for-bit
identical under both, on

* seeded random warp programs (loads/stores/atomics/ALU/branches/marks,
  divergent lengths, early retirees),
* iteration-warp style ``WaitGE`` barriers with uneven arrival (the only
  construct the interpreter *parks* on),
* whole-system batches for every system kind, including host mutation
  mid-kernel (Eirene splits),
* the race sanitizer and hotspot profiler on every system (attaching a
  probe must not change what is observed).

Also covered: the barrier-deadlock watchdog, the
:class:`~repro.sharding.ParallelShardedSystem` worker-count invariance and
failure handling, and the arena's lazy label accounting.

Random programs respect the ``WaitGE`` contract: the condition sequence is
only ever advanced by same-warp lanes, and each waiting program keeps its
own ``while`` re-check around the yield.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import DeviceConfig
from repro.memory import MemoryArena
from repro.errors import SimulationError
from repro.sharding import ParallelShardedSystem
from repro.simt import (
    Alu,
    AtomicAdd,
    AtomicCAS,
    Branch,
    KernelLaunch,
    Load,
    Mark,
    Noop,
    Store,
    WaitGE,
    Warp,
)
from repro.simt.warp import run_subroutine
from tests.reference_interp import reference_step


def deep_eq(a, b) -> bool:
    """Field-wise equality that tolerates numpy members; skips host
    wall-clock stamps (``wall_s``), the only legitimately run-varying field."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            f.name == "wall_s" or deep_eq(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=(a.dtype.kind == "f"))
    if isinstance(a, dict):
        return set(a) == set(b) and all(deep_eq(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(deep_eq(x, y) for x, y in zip(a, b))
    return bool(a == b)


# --------------------------------------------------------------------- #
# random warp programs
# --------------------------------------------------------------------- #
DATA_WORDS = 192
HOT_WORDS = 4  # tiny shared region so atomics actually conflict


def random_program(rng: np.random.Generator, lane: int, n_lanes: int):
    """One seeded lane program over a mixed op stream.

    Lane length varies (divergence + early retirement); values derived
    from loads feed later stores so every load result is observable.
    """
    n_ops = int(rng.integers(4, 40))
    kinds = rng.integers(0, 8, size=n_ops)
    addrs = rng.integers(0, DATA_WORDS, size=n_ops)

    def prog():
        acc = lane
        for k, a in zip(kinds.tolist(), addrs.tolist()):
            if k == 0 or k == 1:
                acc ^= (yield Load(a))
            elif k == 2:
                yield Store(a, (acc + lane) % 1000)
            elif k == 3:
                yield Alu(1 + (a % 3))
            elif k == 4:
                yield Branch()
            elif k == 5:
                acc += yield AtomicAdd(DATA_WORDS + (a % HOT_WORDS), 1)
            elif k == 6:
                acc ^= (yield AtomicCAS(DATA_WORDS + (a % HOT_WORDS), acc % 7, lane))
            else:
                yield Noop()
        yield Mark(lane)
        return acc

    return prog()


def run_warp(programs_fn, n_lanes: int = 8, probe=None):
    """Run one warp of fresh programs; return (counters, results, memory)."""
    arena = MemoryArena(DATA_WORDS + HOT_WORDS + 16)
    arena.data[:DATA_WORDS] = np.arange(DATA_WORDS)
    device = DeviceConfig(num_sms=2)
    launch = KernelLaunch(device, arena, n_lanes, probe=probe)
    launch.add_warp(programs_fn(n_lanes))
    counters = launch.run()
    return counters, launch.lane_results(), arena.data.copy()


def assert_equivalent(programs_fn, monkeypatch, n_lanes: int = 8):
    opt = run_warp(programs_fn, n_lanes)
    monkeypatch.setattr(Warp, "step", reference_step)
    ref = run_warp(programs_fn, n_lanes)
    assert deep_eq(ref[0], opt[0]), "KernelCounters diverged"
    assert ref[1] == opt[1], "lane results diverged"
    assert np.array_equal(ref[2], opt[2]), "arena contents diverged"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_programs_equivalent(seed, monkeypatch):
    def make(n_lanes):
        rng = np.random.default_rng((777, seed))
        return [random_program(rng, i, n_lanes) for i in range(n_lanes)]

    assert_equivalent(make, monkeypatch)


# --------------------------------------------------------------------- #
# WaitGE barriers (the parked-lane machinery)
# --------------------------------------------------------------------- #
def barrier_programs(n_lanes: int, n_iters: int = 4):
    """Iteration-warp idiom: uneven per-iteration work, then a barrier.

    Work skew makes different lanes arrive last in different iterations;
    a lane doing zero work goes barrier-to-barrier in a single resumption,
    and every lane passes its final barrier right before retiring — the
    two historical fast-path wake-ordering bugs.
    """
    arrived = [0] * n_iters

    def prog(lane):
        acc = 0
        for it in range(n_iters):
            for _ in range((lane + it) % 3):
                yield Alu(1)
                acc += yield Load((lane * n_iters + it) % DATA_WORDS)
            arrived[it] += 1
            while arrived[it] < n_lanes:
                yield WaitGE(arrived, it, n_lanes)
        yield Mark(lane)
        return acc

    return [prog(i) for i in range(n_lanes)]


def test_barrier_programs_equivalent(monkeypatch):
    assert_equivalent(barrier_programs, monkeypatch)


def run_warps(warps, probe=None):
    """Launch one warp per program list; return the lane results."""
    launch = KernelLaunch(DeviceConfig(num_sms=1), MemoryArena(16), 2, probe=probe)
    for programs in warps:
        launch.add_warp(programs)
    launch.run()
    return launch.lane_results()


def never_opening_barrier(n_lanes: int):
    """Every lane arrives, then waits for more arrivals than there are lanes."""
    seq = [0]

    def prog():
        seq[0] += 1
        while seq[0] < 5:
            yield WaitGE(seq, 0, 5)

    return [prog() for _ in range(n_lanes)]


def test_barrier_deadlock_raises():
    with pytest.raises(SimulationError) as exc:
        run_warps([never_opening_barrier(2)])
    msg = str(exc.value)
    assert "barrier deadlock" in msg
    assert "warp 0: lanes [0, 1] wait on WaitGE(idx=0, target=5) with seq[0]=2" in msg
    with pytest.raises(SimulationError, match="barrier deadlock: warp 0: lanes"):
        run_subroutine(never_opening_barrier(1)[0], MemoryArena(16))


def cross_warp_barrier():
    """Two one-lane warps: the first parks until the second opens its
    barrier a few slots later, so warp 0 spends whole slots fully parked."""
    seq = [0]

    def waiter():
        while seq[0] < 1:
            yield WaitGE(seq, 0, 1)
        return "woken"

    def opener():
        for _ in range(3):
            yield Alu()
        seq[0] += 1
        yield Alu()
        return "opened"

    return [[waiter()], [opener()]]


def test_barrier_opened_by_another_warp_is_not_a_deadlock():
    """A fully parked warp is fine while another warp can still open it."""
    assert run_warps(cross_warp_barrier()) == ["woken", "opened"]


# --------------------------------------------------------------------- #
# whole-system equivalence (host mutation mid-kernel included)
# --------------------------------------------------------------------- #
def _run_system_batches(system: str):
    from repro import YcsbWorkload, build_key_pool, make_system
    from repro.workloads import YCSB_A

    rng = np.random.default_rng(42)
    keys, values = build_key_pool(2**10, rng)
    sys_ = make_system(system, keys, values, seed=5)
    wl = YcsbWorkload(pool=keys, mix=YCSB_A)
    outs = [
        sys_.process_batch(wl.generate(2**9, rng), engine="simt")
        for _ in range(2)
    ]
    return outs, sys_.tree.items()


@pytest.mark.parametrize("system", ["nocc", "stm", "lock", "eirene"])
def test_system_batches_equivalent(system, monkeypatch):
    fast_outs, fast_items = _run_system_batches(system)
    monkeypatch.setattr(Warp, "step", reference_step)
    ref_outs, ref_items = _run_system_batches(system)
    assert deep_eq(ref_outs, fast_outs)
    assert np.array_equal(ref_items[0], fast_items[0])
    assert np.array_equal(ref_items[1], fast_items[1])


# --------------------------------------------------------------------- #
# probes: observing must not change what is observed
# --------------------------------------------------------------------- #
def _probe_reports(system: str):
    """Race reports (as strings) and hotspot report of one system under the
    ``sanitize`` target's config."""
    from repro import YcsbWorkload, build_key_pool, make_system
    from repro.analysis import attach_hotspots, attach_sanitizer
    from repro.harness.sanitize import default_sanitize_config

    cfg = default_sanitize_config()
    rng = np.random.default_rng(cfg.seed)
    keys, values = build_key_pool(cfg.tree_size, rng)
    sys_ = make_system(
        system, keys, values,
        tree_config=cfg.tree_config,
        device=cfg.device,
        fill_factor=cfg.fill_factor,
    )
    san = attach_sanitizer(sys_)
    hot = attach_hotspots(sys_)
    wl = YcsbWorkload(pool=keys, mix=cfg.mix, distribution=cfg.distribution)
    for _ in range(cfg.n_batches):
        sys_.process_batch(wl.generate(cfg.batch_size, rng), engine="simt")
    return [str(r) for r in san.reports], hot.report().to_dict()


@pytest.mark.parametrize("system", ["nocc", "stm", "lock", "eirene"])
def test_probe_reports_match_oracle(system, monkeypatch):
    races, hotspots = _probe_reports(system)
    monkeypatch.setattr(Warp, "step", reference_step)
    ref_races, ref_hotspots = _probe_reports(system)
    assert races == ref_races
    assert hotspots == ref_hotspots
    assert hotspots["slots"] > 0
    if system == "nocc":
        assert races, "NoCC must race under YCSB-A"


class RecordingProbe:
    """Records every hook call: the full stream a probe observes."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def begin_launch(self) -> None:
        pass

    def end_launch(self, counters) -> None:
        pass

    def begin_slot(self, warp_id) -> None:
        self.events.append(("slot", warp_id))

    def observe(self, warp_id, lane, op, value, gen) -> None:
        self.events.append((warp_id, lane, type(op).__name__, value))


@pytest.mark.parametrize("seed", [0, 1])
def test_probe_stream_matches_oracle(seed, monkeypatch):
    def make(n_lanes):
        rng = np.random.default_rng((999, seed))
        return [random_program(rng, i, n_lanes) for i in range(n_lanes)]

    probe = RecordingProbe()
    run_warp(make, probe=probe)
    monkeypatch.setattr(Warp, "step", reference_step)
    ref = RecordingProbe()
    run_warp(make, probe=ref)
    assert len(probe.events) > 100
    assert probe.events == ref.events


def test_probe_slots_of_parked_warps_match_oracle(monkeypatch):
    """``begin_slot`` fires for every step, fully parked warps included.

    Only the slot stream is compared: the oracle re-yields a parked
    lane's ``WaitGE`` every slot, while the interpreter skips the lane.
    """

    def slots(probe):
        run_warps(cross_warp_barrier(), probe)
        return [e for e in probe.events if e[0] == "slot"]

    got = slots(RecordingProbe())
    monkeypatch.setattr(Warp, "step", reference_step)
    assert got == slots(RecordingProbe())
    assert got.count(("slot", 0)) >= 4


# --------------------------------------------------------------------- #
# parallel sharded execution
# --------------------------------------------------------------------- #
def _run_fleet(n_workers: int, keys, values, batches, engine: str = "simt"):
    """Outcomes, final items and name of a 4-shard Eirene fleet."""
    with ParallelShardedSystem(
        "eirene", keys, values, 4, n_workers=n_workers, seed=11
    ) as fleet:
        outs = [fleet.process_batch(b, engine=engine) for b in batches]
        fleet.validate()
        return outs, fleet.items(), fleet.name


def test_parallel_sharded_identity_across_worker_counts():
    from repro import YcsbWorkload, build_key_pool
    from repro.workloads import YCSB_A

    rng = np.random.default_rng(9)
    keys, values = build_key_pool(2**10, rng)
    wl = YcsbWorkload(pool=keys, mix=YCSB_A)
    batches = [wl.generate(256, rng) for _ in range(2)]

    ref, ref_items, ref_name = _run_fleet(0, keys, values, batches)  # in-process
    for n_workers in (1, 2, 4):
        outs, items, name = _run_fleet(n_workers, keys, values, batches)
        assert name == ref_name
        assert deep_eq(ref, outs), f"outcome diverged at n_workers={n_workers}"
        assert np.array_equal(items[0], ref_items[0])
        assert np.array_equal(items[1], ref_items[1])


def test_fleet_runs_in_process_when_fork_is_refused(monkeypatch):
    import multiprocessing.context

    from repro import YcsbWorkload, build_key_pool

    rng = np.random.default_rng(5)
    keys, values = build_key_pool(2**9, rng)
    batches = [YcsbWorkload(pool=keys).generate(128, rng) for _ in range(2)]
    ref = _run_fleet(0, keys, values, batches, engine="vector")

    def refuse(self):
        raise OSError("fork refused")

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", refuse)
    with ParallelShardedSystem(
        "eirene", keys, values, 4, n_workers=2, seed=11
    ) as fleet:
        assert fleet.n_workers == 0
    assert deep_eq(ref, _run_fleet(2, keys, values, batches, engine="vector"))


def test_fleet_replies_stay_in_step_after_a_shard_failure(monkeypatch):
    """A shard that fails mid-batch must not leave other workers' replies
    in the pipes: the next ``items()`` and ``process_batch`` read their own
    replies, and the fleet state matches the in-process fleet's."""
    from repro import EireneTree, OpKind, RequestBatch, build_key_pool

    rng = np.random.default_rng(3)
    keys, values = build_key_pool(2**9, rng)
    fail_key = int(keys.min())  # owned by shard 0
    original = EireneTree.process_batch

    def flaky(self, batch, engine="vector"):
        if np.any(batch.keys == fail_key):
            raise RuntimeError("injected shard failure")
        return original(self, batch, engine=engine)

    # patched before the fleets fork, so workers inherit the failure
    monkeypatch.setattr(EireneTree, "process_batch", flaky)

    def updates(n, extra=()):
        ks = rng.choice(keys[keys != fail_key], n, replace=False)
        ops = [(OpKind.UPDATE, int(k), int(k) + 1) for k in ks]
        return RequestBatch.from_ops(ops + list(extra))

    batches = [updates(64), updates(64, [(OpKind.QUERY, fail_key)]), updates(64)]
    runs = {}
    for n_workers in (0, 2):
        with ParallelShardedSystem(
            "eirene", keys, values, 4, n_workers=n_workers, seed=11
        ) as fleet:
            fleet.process_batch(batches[0])
            with pytest.raises(SimulationError, match=r"shard 0 failed"):
                fleet.process_batch(batches[1])
            items = fleet.items()
            assert items[0].size == keys.size
            out = fleet.process_batch(batches[2])
            assert out.results.values.size == batches[2].n
            fleet.validate()
        runs[n_workers] = (items, out)
    assert deep_eq(runs[0], runs[2])


def test_fleet_names_the_shards_of_a_dead_worker():
    from repro import YcsbWorkload, build_key_pool

    rng = np.random.default_rng(4)
    keys, values = build_key_pool(2**9, rng)
    batch = YcsbWorkload(pool=keys).generate(128, rng)
    with ParallelShardedSystem("nocc", keys, values, 4, n_workers=2) as fleet:
        proc, _ = fleet._workers[1]  # owns shards 1 and 3
        proc.kill()
        proc.join(timeout=5)
        assert not proc.is_alive()
        with pytest.raises(SimulationError, match=r"shard 1, 3 failed"):
            fleet.process_batch(batch)


def test_parallel_sharded_worker_error_propagates():
    from repro import build_key_pool

    rng = np.random.default_rng(9)
    keys, values = build_key_pool(2**9, rng)
    with pytest.raises(Exception, match="unknown system"):
        ParallelShardedSystem("no-such-system", keys, values, 2, n_workers=2)


# --------------------------------------------------------------------- #
# arena: lazy label flush
# --------------------------------------------------------------------- #
def test_lazy_label_accounting_flushes_on_observation():
    a = MemoryArena(64)
    for _ in range(5):
        a.read(1, label="hot")
    a.write(2, 9, label="cold")
    assert a._pending_labels == {"hot": 5, "cold": 1}
    stats = a.stats  # observation folds the pending dict in
    assert a._pending_labels == {}
    assert stats.by_label == {"hot": 5, "cold": 1}
    # repeated observation does not double-count
    assert a.stats.by_label == {"hot": 5, "cold": 1}
