"""Unit + property tests for the device STM (protocol cases and launches)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransactionAborted, TransactionError
from repro.memory import MemoryArena
from repro.simt import KernelLaunch
from repro.simt.warp import run_subroutine
from repro.stm import FREE, DeviceStm, StmRegion
from repro.config import DeviceConfig


@pytest.fixture
def tm():
    arena = MemoryArena(1024)
    data_base = arena.alloc(64)
    region = StmRegion(arena, data_base, 64)
    return DeviceStm(arena, region), arena, data_base


def call(stm, gen):
    """Run one STM device call to completion as a one-lane subroutine."""
    return run_subroutine(gen, stm.arena)


class TestHostStm:
    """The STM protocol cases on :class:`DeviceStm`, each step driven from
    the host as its own subroutine so transactions interleave by hand."""

    def test_read_write_commit(self, tm):
        stm, arena, base = tm
        tx = stm.begin()
        call(stm, stm.d_write(tx, base, 42))
        call(stm, stm.d_commit(tx))
        assert arena.data[base] == 42
        assert stm.stats.commits == 1

    def test_abort_rolls_back(self, tm):
        stm, arena, base = tm
        arena.data[base] = 7
        tx = stm.begin()
        call(stm, stm.d_write(tx, base, 99))
        assert arena.data[base] == 99  # eager in-place write
        call(stm, stm.d_abort(tx))
        assert arena.data[base] == 7

    def test_ww_conflict_aborts_second_writer(self, tm):
        stm, arena, base = tm
        t1 = stm.begin()
        t2 = stm.begin()
        call(stm, stm.d_write(t1, base, 1))
        with pytest.raises(TransactionAborted):
            call(stm, stm.d_write(t2, base, 2))
        assert stm.stats.conflicts_ww == 1
        assert not t2.active
        call(stm, stm.d_commit(t1))
        assert arena.data[base] == 1

    def test_read_of_owned_word_aborts_reader(self, tm):
        stm, arena, base = tm
        t1 = stm.begin()
        call(stm, stm.d_write(t1, base, 1))
        t2 = stm.begin()
        with pytest.raises(TransactionAborted):
            call(stm, stm.d_read(t2, base))
        assert stm.stats.conflicts_rw == 1

    def test_commit_validation_catches_stale_read(self, tm):
        stm, arena, base = tm
        t1 = stm.begin()
        assert call(stm, stm.d_read(t1, base)) == 0
        # another tx writes and commits in between
        t2 = stm.begin()
        call(stm, stm.d_write(t2, base, 5))
        call(stm, stm.d_commit(t2))
        with pytest.raises(TransactionAborted):
            call(stm, stm.d_commit(t1))
        assert stm.stats.conflicts_validation == 1

    def test_read_own_write(self, tm):
        stm, _, base = tm
        tx = stm.begin()
        call(stm, stm.d_write(tx, base, 11))
        assert call(stm, stm.d_read(tx, base)) == 11
        call(stm, stm.d_commit(tx))

    def test_ownership_released_after_commit(self, tm):
        stm, arena, base = tm
        tx = stm.begin()
        call(stm, stm.d_write(tx, base, 1))
        call(stm, stm.d_commit(tx))
        assert arena.data[stm.region.owner_addr(base)] == FREE

    def test_address_outside_region_rejected(self, tm):
        stm, _, base = tm
        tx = stm.begin()
        with pytest.raises(TransactionError):
            call(stm, stm.d_read(tx, base + 1000))

    def test_metadata_traffic_is_counted(self, tm):
        stm, arena, base = tm

        def prog():
            tx = stm.begin()
            yield from stm.d_read(tx, base)
            yield from stm.d_commit(tx)

        launch = KernelLaunch(DeviceConfig(num_sms=1), arena, 1)
        launch.add_warp([prog()])
        c = launch.run()
        # owner + version + data on the read, the version again at commit
        assert c.load_inst == 4


class TestSerializabilityProperty:
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 50)), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_sequential_transactions_apply_all_writes(self, writes):
        arena = MemoryArena(256)
        base = arena.alloc(8)
        stm = DeviceStm(arena, StmRegion(arena, base, 8))
        model = [0] * 8
        for off, val in writes:
            tx = stm.begin()
            call(stm, stm.d_write(tx, base + off, val))
            call(stm, stm.d_commit(tx))
            model[off] = val
        assert [int(arena.data[base + i]) for i in range(8)] == model
        assert stm.stats.aborts == 0


class TestDeviceStm:
    def _setup(self):
        arena = MemoryArena(2048)
        base = arena.alloc(64)
        region = StmRegion(arena, base, 64)
        return arena, base, DeviceStm(arena, region)

    def test_single_tx_commit(self):
        arena, base, stm = self._setup()

        def prog():
            tx = stm.begin()
            yield from stm.d_write(tx, base, 33)
            yield from stm.d_commit(tx)
            return None

        run_subroutine(prog(), arena)
        assert arena.data[base] == 33
        assert stm.stats.commits == 1

    def test_two_lanes_same_word_serialize(self):
        arena, base, stm = self._setup()
        device = DeviceConfig(num_sms=1)
        outcomes = []

        def prog(lane):
            def p():
                retries = 0
                while True:
                    tx = stm.begin()
                    try:
                        v = yield from stm.d_read(tx, base)
                        yield from stm.d_write(tx, base, v + 1)
                        yield from stm.d_commit(tx)
                        outcomes.append(lane)
                        return None
                    except TransactionAborted:
                        retries += 1
                        if retries > 100:
                            raise
            return p()

        launch = KernelLaunch(device, arena, 2)
        launch.add_warp([prog(0), prog(1)])
        launch.run()
        # both increments landed exactly once
        assert arena.data[base] == 2
        assert len(outcomes) == 2
        assert stm.stats.commits == 2
        assert stm.stats.aborts >= 1  # they genuinely conflicted

    def test_device_abort_rolls_back(self):
        arena, base, stm = self._setup()
        arena.data[base] = 5

        def prog():
            tx = stm.begin()
            yield from stm.d_write(tx, base, 9)
            yield from stm.d_abort(tx)
            return None

        run_subroutine(prog(), arena)
        assert arena.data[base] == 5
        assert stm.stats.aborts == 1

    def test_host_invalidate_fails_concurrent_validation(self):
        arena, base, stm = self._setup()

        def prog():
            tx = stm.begin()
            yield from stm.d_read(tx, base)
            stm.host_invalidate([base])  # concurrent SMO bumps the version
            try:
                yield from stm.d_commit(tx)
            except TransactionAborted:
                return "aborted"
            return "committed"

        assert run_subroutine(prog(), arena) == "aborted"
        assert stm.stats.conflicts_validation == 1
