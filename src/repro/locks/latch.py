"""Per-node spin latches (the Lock GB-tree concurrency substrate).

Each B+tree node reserves one lock word (``OFF_LOCK``); a latch is acquired
by CAS-ing it from 0 to the owner's id + 1 and released by storing 0. The
latch operations are device code only: they spin one CAS per lockstep
slot — a thread that loses the CAS burns a control instruction and an
atomic conflict, which is precisely the contention signature Awad et al.'s
design pays under write-heavy load.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simt.instructions import BRANCH, AtomicCAS, Load, Store

FREE = 0


@dataclass
class LockStats:
    acquires: int = 0
    releases: int = 0
    spins: int = 0

    @property
    def contention_rate(self) -> float:
        return self.spins / self.acquires if self.acquires else 0.0

    def reset(self) -> None:
        self.acquires = 0
        self.releases = 0
        self.spins = 0

    def snapshot(self) -> "LockStats":
        return LockStats(self.acquires, self.releases, self.spins)

    def delta_since(self, earlier: "LockStats") -> "LockStats":
        return LockStats(
            self.acquires - earlier.acquires,
            self.releases - earlier.releases,
            self.spins - earlier.spins,
        )


class LatchTable:
    """Shared latch state + counters for one tree's node lock words."""

    def __init__(self) -> None:
        self.stats = LockStats()

    def d_acquire(self, lock_addr: int, owner: int):
        """Spin until the latch is ours; returns the number of failed spins."""
        spins = 0
        while True:
            old = yield AtomicCAS(lock_addr, FREE, owner + 1)
            yield BRANCH
            if old == FREE:
                self.stats.acquires += 1
                return spins
            spins += 1
            self.stats.spins += 1

    def d_release(self, lock_addr: int):
        yield Store(lock_addr, FREE)
        self.stats.releases += 1

    def d_is_locked(self, lock_addr: int):
        """Read the lock word (lock-free readers check this per node)."""
        val = yield Load(lock_addr)
        yield BRANCH
        return val != FREE
