"""Unit tests for the latch table (device latch ops and stats)."""

import pytest

from repro.config import DeviceConfig
from repro.locks import FREE, LatchTable, LockStats
from repro.memory import MemoryArena
from repro.simt import KernelLaunch
from repro.simt import KernelCounters
from repro.simt.warp import Warp, run_subroutine


@pytest.fixture
def table():
    arena = MemoryArena(64)
    arena.alloc(8)
    return LatchTable(), arena


class TestHostPlane:
    """Latch calls driven from the host, one subroutine at a time."""

    def test_acquire_release(self, table):
        latches, arena = table
        assert run_subroutine(latches.d_acquire(0, owner=5), arena) == 0
        assert arena.data[0] == 6  # owner + 1
        run_subroutine(latches.d_release(0), arena)
        assert arena.data[0] == FREE
        assert (latches.stats.acquires, latches.stats.releases) == (1, 1)

    def test_contended_acquire_fails_and_counts_spin(self, table):
        latches, arena = table
        run_subroutine(latches.d_acquire(0, owner=1), arena)
        warp = Warp([latches.d_acquire(0, owner=2)], arena)
        counters = KernelCounters(n_requests=0)
        for _ in range(4):  # CAS, branch, CAS, branch
            warp.step(counters, 0.0)
        assert warp.active
        assert arena.data[0] == 2  # still owner 1's
        assert counters.atomic_conflicts == 2
        # a failed spin is counted when the lane resumes after its branch
        assert latches.stats.spins == 1


class TestDevicePlane:
    def test_d_acquire_on_free_latch(self, table):
        latches, arena = table
        spins = run_subroutine(latches.d_acquire(0, owner=7), arena)
        assert spins == 0
        assert arena.data[0] == 8

    def test_d_release(self, table):
        latches, arena = table
        run_subroutine(latches.d_acquire(0, owner=7), arena)
        run_subroutine(latches.d_release(0), arena)
        assert arena.data[0] == FREE

    def test_d_is_locked(self, table):
        latches, arena = table
        assert not run_subroutine(latches.d_is_locked(0), arena)
        run_subroutine(latches.d_acquire(0, owner=1), arena)
        assert run_subroutine(latches.d_is_locked(0), arena)

    def test_two_lanes_contend_and_both_eventually_acquire(self, table):
        latches, arena = table
        order = []

        def prog(lane):
            def p():
                spins = yield from latches.d_acquire(0, owner=lane)
                # hold for a few slots to force the other lane to spin
                from repro.simt import Alu

                for _ in range(5):
                    yield Alu()
                yield from latches.d_release(0)
                order.append((lane, spins))
                return None

            return p()

        launch = KernelLaunch(DeviceConfig(num_sms=1), arena, 2)
        launch.add_warp([prog(0), prog(1)])
        launch.run()
        assert len(order) == 2
        assert arena.data[0] == FREE
        assert latches.stats.spins >= 1  # the loser really spun


class TestStats:
    def test_contention_rate(self):
        s = LockStats(acquires=10, spins=5)
        assert s.contention_rate == 0.5

    def test_delta_since(self):
        s = LockStats(acquires=4, releases=4, spins=2)
        snap = s.snapshot()
        s.acquires = 7
        s.spins = 5
        d = s.delta_since(snap)
        assert d.acquires == 3
        assert d.spins == 3

    def test_reset(self):
        s = LockStats(acquires=1, releases=1, spins=1)
        s.reset()
        assert s.acquires == s.releases == s.spins == 0
