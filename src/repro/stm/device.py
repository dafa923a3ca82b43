"""Word-granularity eager software transactional memory, as device code.

Models the lightweight GPU STM of Holey & Zhai (ICPP'14) that both the STM
GB-tree baseline and Eirene's update kernel build on:

* **eager write acquisition** — a transactional write CAS-acquires the
  word's entry in an *ownership table*; failure to acquire is a write-write
  conflict that aborts the requester immediately (eager conflict detection);
* **in-place update with undo log** — acquired words are written directly;
  an abort rolls the old values back;
* **invisible readers with commit-time validation** — a transactional read
  aborts if the word is owned by another transaction (eager read-write
  detection) and records the word's version; commit re-validates all read
  versions, then bumps versions of written words and releases ownership.

The ownership and version tables live *inside the simulated global memory*
(one word each per protected word), and every metadata and data access is a
yielded instruction, so ownership checks, version reads and CAS acquires
are counted by the same machinery as data traffic and genuinely interleave
with other warps — this is exactly where the paper's "2.98× memory
accesses" for STM GB-tree comes from.

Usage inside a thread program::

    tx = stm.begin()
    try:
        val = yield from stm.d_read(tx, addr)
        yield from stm.d_write(tx, addr, val + 1)
        yield from stm.d_commit(tx)
    except TransactionAborted:
        ...retry...
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TransactionAborted, TransactionError
from ..memory import MemoryArena
from ..simt.instructions import BRANCH, AtomicAdd, AtomicCAS, Load, Store
from .stats import StmStats

#: ownership-table encoding: 0 = free, otherwise tx id + 1.
FREE = 0


@dataclass
class Tx:
    """Per-transaction bookkeeping (lives in registers/local memory, i.e.
    uncounted; the counted traffic is the table and data accesses)."""

    tid: int
    read_versions: dict[int, int] = field(default_factory=dict)
    undo_log: dict[int, int] = field(default_factory=dict)
    writes: set[int] = field(default_factory=set)
    active: bool = True


class StmRegion:
    """Address arithmetic for the STM metadata tables of a protected range.

    Protects ``[data_base, data_base + nwords)``. ``owner_addr(a)`` and
    ``version_addr(a)`` give the metadata words for data word ``a``.
    """

    def __init__(self, arena: MemoryArena, data_base: int, nwords: int) -> None:
        if nwords <= 0:
            raise TransactionError("STM region must cover at least one word")
        self.data_base = data_base
        self.nwords = nwords
        self.owner_base = arena.alloc(nwords)
        self.version_base = arena.alloc(nwords)

    def _index(self, addr: int) -> int:
        idx = addr - self.data_base
        if idx < 0 or idx >= self.nwords:
            raise TransactionError(
                f"address {addr} outside STM-protected region "
                f"[{self.data_base}, {self.data_base + self.nwords})"
            )
        return idx

    def owner_addr(self, addr: int) -> int:
        return self.owner_base + self._index(addr)

    def version_addr(self, addr: int) -> int:
        return self.version_base + self._index(addr)


class DeviceStm:
    """Shared-state STM instance used by all lanes of a kernel."""

    def __init__(self, arena: MemoryArena, region: StmRegion) -> None:
        self.arena = arena
        self.region = region
        self.stats = StmStats()
        self._next_tid = 1
        #: failure-injection hook: a callable evaluated on every
        #: transactional read; returning True forces an abort (tests use
        #: this to exercise retry paths deterministically).
        self.abort_injector = None

    def begin(self) -> Tx:
        tx = Tx(tid=self._next_tid)
        self._next_tid += 1
        self.stats.begins += 1
        return tx

    # ------------------------------------------------------------------ #
    def d_read(self, tx: Tx, addr: int):
        """Transactional load (generator). Aborts on observing ownership."""
        if self.abort_injector is not None and self.abort_injector():
            self.stats.conflicts_rw += 1
            yield from self.d_abort(tx, counted=False)
            raise TransactionAborted("injected failure")
        region = self.region
        idx = region._index(addr)
        owner = yield Load(region.owner_base + idx)
        yield BRANCH
        if owner not in (FREE, tx.tid + 1):
            self.stats.conflicts_rw += 1
            yield from self.d_abort(tx, counted=False)
            raise TransactionAborted("read of word owned by another tx")
        if addr not in tx.writes and addr not in tx.read_versions:
            ver = yield Load(region.version_base + idx)
            tx.read_versions[addr] = ver
        value = yield Load(addr)
        return value

    def d_write(self, tx: Tx, addr: int, value: int):
        """Transactional store (generator): eager CAS acquire + undo log."""
        yield BRANCH
        if addr not in tx.writes:
            old_owner = yield AtomicCAS(self.region.owner_addr(addr), FREE, tx.tid + 1)
            yield BRANCH
            if old_owner not in (FREE, tx.tid + 1):
                self.stats.conflicts_ww += 1
                yield from self.d_abort(tx, counted=False)
                raise TransactionAborted("write-write conflict")
            tx.writes.add(addr)
            old = yield Load(addr)
            tx.undo_log[addr] = old
        yield Store(addr, value)

    def d_commit(self, tx: Tx):
        """Validate read versions, publish, release (generator)."""
        region = self.region
        for addr, ver in tx.read_versions.items():
            cur = yield Load(region.version_addr(addr))
            yield BRANCH
            if cur != ver:
                self.stats.conflicts_validation += 1
                yield from self.d_abort(tx, counted=False)
                raise TransactionAborted("read validation failed")
        for addr in tx.writes:
            idx = region._index(addr)
            yield AtomicAdd(region.version_base + idx, 1)
            yield Store(region.owner_base + idx, FREE)
        tx.active = False
        self.stats.commits += 1

    def d_abort(self, tx: Tx, counted: bool = True):
        """Roll back and release (generator). ``counted`` aborts come from
        the program (e.g. a failed leaf-version validation); internal aborts
        triggered by a detected conflict pass ``counted=False`` because the
        conflict counters were already charged."""
        for addr, old in tx.undo_log.items():
            yield Store(addr, old)
        for addr in tx.writes:
            yield Store(self.region.owner_addr(addr), FREE)
        tx.active = False
        self.stats.aborts += 1
        if counted:
            self.stats.conflicts_version += 1

    # ------------------------------------------------------------------ #
    def host_invalidate(self, addrs) -> None:
        """Bump the STM version of every address in ``addrs`` (host plane).

        Used after an instantaneous host-side structure modification (leaf
        split executed under ownership of the leaf's count word): concurrent
        transactions that read any of the modified words will fail commit
        validation, exactly as if the split's stores had been transactional.
        """
        data = self.arena.data
        for addr in addrs:
            data[self.region.version_addr(addr)] += 1
