"""Unit tests for the simulated global memory: allocation, reset, the host
plane, and device memory ops executed on the arena's one plane."""

import numpy as np
import pytest

from repro.config import DeviceConfig
from repro.errors import MemoryError_, SimulationError
from repro.memory import MemoryArena
from repro.simt import AtomicAdd, AtomicCAS, AtomicExch, Branch, KernelLaunch, Load, Store
from repro.simt.warp import run_subroutine


def _one(op):
    """A lane program issuing ``op`` once and returning its result."""
    return (yield op)


def run_warp(arena, programs):
    """Run ``programs`` as the lanes of one warp; returns (results, counters)."""
    launch = KernelLaunch(DeviceConfig(num_sms=1), arena, n_requests=len(programs))
    warp = launch.add_warp(programs)
    counters = launch.run()
    return warp.results(), counters


class TestAllocation:
    def test_bump_allocation_is_contiguous(self, arena):
        a = arena.alloc(10)
        b = arena.alloc(5)
        assert b == a + 10

    def test_alignment_rounds_up(self):
        arena = MemoryArena(256)
        arena.alloc(3)
        base = arena.alloc(16, align=16)
        assert base % 16 == 0

    def test_exhaustion_raises(self):
        arena = MemoryArena(16)
        arena.alloc(10)
        with pytest.raises(MemoryError_):
            arena.alloc(10)

    def test_exhaustion_reports_allocated_and_capacity(self):
        arena = MemoryArena(16)
        arena.alloc(10)
        with pytest.raises(MemoryError_, match=r"10 of 16 words"):
            arena.alloc(10)

    def test_negative_alloc_raises(self, arena):
        with pytest.raises(MemoryError_):
            arena.alloc(-1)

    @pytest.mark.parametrize("align", [0, -1, -16])
    def test_invalid_align_rejected(self, arena, align):
        with pytest.raises(MemoryError_, match="align"):
            arena.alloc(4, align=align)

    def test_zero_capacity_rejected(self):
        with pytest.raises(MemoryError_):
            MemoryArena(0)


class TestReset:
    def test_reset_rewinds_brk_and_zeroes_data(self):
        arena = MemoryArena(64)
        base = arena.alloc(8)
        arena.data[base] = 42
        arena.reset()
        assert arena.allocated == 0
        assert arena.data[base] == 0
        # the freed region is allocatable again, from the start
        assert arena.alloc(8) == 0

    def test_reset_preserves_identity_and_capacity(self):
        arena = MemoryArena(64)
        data = arena.data
        arena.reset()
        assert arena.data is data
        assert arena.capacity == 64


class TestScalarAccess:
    """One lane's loads and stores, executed by the interpreter."""

    def test_write_then_read_roundtrip(self, arena):
        def prog():
            yield Store(7, 12345)
            return (yield Load(7))

        assert run_subroutine(prog(), arena) == 12345
        assert arena.data[7] == 12345

    def test_counters_track_reads_and_writes(self, arena):
        def prog():
            yield Store(0, 1)
            yield Load(0)
            yield Branch()
            return (yield Load(0))

        _, c = run_warp(arena, [prog()])
        assert c.store_inst == 1
        assert c.load_inst == 2
        assert c.mem_inst == 3

    def test_out_of_bounds_read_raises(self, arena):
        with pytest.raises(SimulationError, match="out of bounds"):
            run_subroutine(_one(Load(arena.capacity)), arena)
        with pytest.raises(SimulationError, match="out of bounds"):
            run_subroutine(_one(Load(-1)), arena)


class TestAtomics:
    def test_cas_success_swaps_and_returns_old(self, arena):
        arena.data[3] = 10
        assert run_subroutine(_one(AtomicCAS(3, 10, 99)), arena) == 10
        assert arena.data[3] == 99

    def test_cas_failure_leaves_value_and_counts_conflict(self, arena):
        arena.data[3] = 10
        (old,), c = run_warp(arena, [_one(AtomicCAS(3, 11, 99))])
        assert old == 10
        assert arena.data[3] == 10
        assert c.atomic_conflicts == 1

    def test_atomic_add_returns_old(self, arena):
        arena.data[4] = 7
        assert run_subroutine(_one(AtomicAdd(4, 3)), arena) == 7
        assert arena.data[4] == 10

    def test_atomic_exch(self, arena):
        arena.data[5] = 1
        assert run_subroutine(_one(AtomicExch(5, 2)), arena) == 1
        assert arena.data[5] == 2

    def test_atomics_count_as_transactions(self, arena):
        def prog():
            yield AtomicAdd(0, 1)
            return (yield AtomicCAS(1, 0, 1))

        _, c = run_warp(arena, [prog()])
        assert c.atomic_inst == 2
        assert c.transactions == 2


class TestVectorAccess:
    """A warp's lanes issuing one load (or store) each: one warp access."""

    def test_gather_returns_values(self, arena):
        arena.data[:8] = np.arange(8) * 10
        results, _ = run_warp(arena, [_one(Load(i)) for i in range(8)])
        assert results == [i * 10 for i in range(8)]

    def test_gather_counts_one_instruction(self, arena):
        _, c = run_warp(arena, [_one(Load(i)) for i in range(32)])
        assert c.issued_slots == 1
        assert c.load_inst == 32

    def test_gather_coalescing_contiguous(self, arena):
        _, c = run_warp(arena, [_one(Load(i)) for i in range(16)])  # one segment
        assert c.transactions == 1

    def test_gather_coalescing_scattered(self, arena):
        addrs = range(0, 16 * 8, 16)  # 8 distinct segments
        _, c = run_warp(arena, [_one(Load(a)) for a in addrs])
        assert c.transactions == 8

    def test_scatter_roundtrip(self, arena):
        stores = [Store(1, 10), Store(3, 30), Store(5, 50)]
        run_warp(arena, [_one(op) for op in stores])
        np.testing.assert_array_equal(arena.data[[1, 3, 5]], [10, 30, 50])

    def test_gather_bounds_check(self, arena):
        with pytest.raises(SimulationError, match="out of bounds"):
            run_warp(arena, [_one(Load(0)), _one(Load(arena.capacity))])


class TestHostPlane:
    def test_host_view_is_mutable_and_uncounted(self, arena):
        view = arena.host_view(0, 4)
        view[:] = 9
        np.testing.assert_array_equal(arena.data[:4], 9)
        assert arena.stats.accesses == 0

    def test_host_view_bounds(self, arena):
        with pytest.raises(MemoryError_):
            arena.host_view(arena.capacity - 1, 2)


class TestStats:
    def test_arena_counts_no_accesses(self, arena):
        """Device ops are charged to the launch's counters, never the arena."""
        _, c = run_warp(arena, [_one(Load(0)), _one(AtomicAdd(1, 1))])
        assert c.load_inst == 1 and c.atomic_inst == 1
        assert arena.stats.accesses == 0


class TestCoalescing:
    """The 128-byte segment model: one transaction per distinct segment a
    slot's loads touch (16 words per segment)."""

    def test_single_segment(self, arena):
        _, c = run_warp(arena, [_one(Load(a)) for a in (0, 1, 15)])
        assert c.transactions == 1

    def test_two_segments(self, arena):
        _, c = run_warp(arena, [_one(Load(a)) for a in (0, 16)])
        assert c.transactions == 2

    def test_empty(self, arena):
        _, c = run_warp(arena, [_one(Branch()) for _ in range(4)])
        assert c.transactions == 0
