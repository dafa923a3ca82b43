"""Shadow-memory data-race detector for the SIMT interpreter.

The pure-Python interpreter executes every device instruction one at a
time, which makes precise dynamic race detection cheap: a
:class:`Sanitizer` attached to a :class:`~repro.device.DeviceContext`
observes every executed :class:`~repro.simt.instructions.Op` (via the
probe hooks in :class:`~repro.simt.warp.Warp` /
:class:`~repro.simt.launcher.KernelLaunch`) and keeps, per arena word, a
shadow record of the last write and the reads since — who accessed it
(warp, lane), when (global slot sequence), and how (load / store /
atomic).

**Locksets.** Synchronization in this codebase is word-based, so the
detector derives each thread's lockset directly from the instruction
stream, with no annotations:

* a successful ``AtomicCAS(lock_word, FREE, ...)`` acquires
  ``("lock", lock_word)``; ``Store(lock_word, FREE)`` releases it — this
  covers both the per-node latches (:mod:`repro.locks.latch`) and the SMO
  latch;
* a successful ``AtomicCAS(owner_addr(w), FREEʼ, ...)`` on an STM
  ownership entry acquires ``("own", w)`` for the *data* word ``w``;
  ``Store(owner_addr(w), FREE)`` releases it.

An access to data word ``w`` carries a **guard set**: every ``("lock",
L)`` token currently held (Eraser-style — whichever latch the protocol
associates with ``w``, two conflicting accesses must share it) plus
``("own", w)`` when the thread owns exactly that word. A write is
*guarded* when its guard set is non-empty.

**Race rules** (within one kernel launch — launches are global barriers,
so cross-launch accesses are ordered and never race):

* **W/W** — two plain stores to the same data word from different threads
  whose guard sets are disjoint; a data-word atomic vs. an *unguarded*
  plain store is also W/W (the atomic is itself synchronized, so it only
  conflicts with writers that have no ordering at all).
* **R/W** — a read and a plain store to the same data word from different
  threads where the *write side* is unguarded. Guarded writes racing
  unguarded reads are *not* flagged: both the Lock GB-tree's validated
  readers and STM's invisible readers deliberately read racily and detect
  interference through version words — the seqlock exemption. A write
  with no synchronization at all has no such protocol, so reads against
  it are real races.

Synchronization words themselves (latch words, version words, STM
owner/version tables) are exempt from the data rules — racing on them is
their job.

Intra-warp conflicts — two lanes of the same warp touching one word in
the same lockstep slot — are flagged by the same rules and marked
``same_slot`` (the classic "lockstep threads still race through shared
memory" CUDA bug class).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .addrmap import AddressMap

#: lock/owner words encode "free" as 0 everywhere in this codebase
FREE = 0

READ = "R"
WRITE = "W"
ATOMIC = "A"


class DeviceProbe:
    """Base class for instruction-stream observers; all hooks are no-ops."""

    def begin_launch(self) -> None:  # pragma: no cover - trivial
        """A kernel launch starts (a global synchronization barrier)."""

    def end_launch(self, counters) -> None:  # pragma: no cover - trivial
        """The launch retired; ``counters`` is its KernelCounters."""

    def begin_slot(self, warp_id: int) -> None:  # pragma: no cover - trivial
        """A warp begins one lockstep slot."""

    def observe(self, warp_id, lane, op, result, gen) -> None:  # pragma: no cover
        """One lane executed ``op``; ``result`` is the value sent back to
        the program (loads/atomics), ``gen`` its generator (for naming)."""


class CompositeProbe(DeviceProbe):
    """Fan one probe slot out to several observers (sanitizer + profiler)."""

    def __init__(self, probes) -> None:
        self.probes = list(probes)

    def begin_launch(self) -> None:
        for p in self.probes:
            p.begin_launch()

    def end_launch(self, counters) -> None:
        for p in self.probes:
            p.end_launch(counters)

    def begin_slot(self, warp_id: int) -> None:
        for p in self.probes:
            p.begin_slot(warp_id)

    def observe(self, warp_id, lane, op, result, gen) -> None:
        for p in self.probes:
            p.observe(warp_id, lane, op, result, gen)


def _program_name(gen) -> str:
    """Thread-program name from its generator (qualname, trimmed)."""
    try:
        name = gen.gi_code.co_qualname
    except AttributeError:  # pragma: no cover - older interpreters
        name = gen.gi_code.co_name
    return name.replace(".<locals>.", ".")


@dataclass(frozen=True)
class AccessRecord:
    """One observed memory access to one word."""

    warp: int
    lane: int
    slot: int  # global slot sequence number (same slot = same lockstep step)
    kind: str  # READ / WRITE / ATOMIC
    op: str  # Op class name
    addr: int
    program: str
    guards: frozenset = frozenset()


@dataclass(frozen=True)
class RaceReport:
    """One detected unsynchronized conflicting pair."""

    kind: str  # "W/W" or "R/W"
    addr: int
    location: str  # AddressMap.describe(addr)
    first: AccessRecord
    second: AccessRecord

    @property
    def same_slot(self) -> bool:
        """Both accesses in one lockstep slot of one warp (intra-warp)."""
        return (
            self.first.warp == self.second.warp
            and self.first.slot == self.second.slot
        )

    def __str__(self) -> str:
        where = "same warp slot" if self.same_slot else "cross-warp"
        return (
            f"{self.kind} race on {self.location} (word {self.addr}, {where}): "
            f"{self.first.program} w{self.first.warp}/l{self.first.lane} "
            f"{self.first.op}@{self.first.slot} vs "
            f"{self.second.program} w{self.second.warp}/l{self.second.lane} "
            f"{self.second.op}@{self.second.slot}"
        )


@dataclass
class _WordState:
    """Shadow state of one data word within the current launch epoch."""

    last_write: AccessRecord | None = None
    reads: list = field(default_factory=list)


#: cap on reads retained per word per epoch (enough to pair every racing
#: writer with *a* reader without letting read-mostly words hoard records)
_MAX_READS_PER_WORD = 16


class Sanitizer(DeviceProbe):
    """Dynamic race detector; attach via :func:`attach_sanitizer` or
    ``devctx.attach_probe(Sanitizer(devctx.arena))``.

    When built with an arena, one shadow word per device word is reserved
    via :meth:`~repro.memory.MemoryArena.alloc_system` (outside the device
    heap, never addressed by device code) holding the launch epoch
    that last touched the word — giving O(1) lazy invalidation of shadow
    records at launch boundaries instead of clearing the record table on
    every launch.
    """

    def __init__(self, arena=None, max_reports: int = 100) -> None:
        self.map = AddressMap()
        self.reports: list[RaceReport] = []
        self.max_reports = max_reports
        self._arena = arena
        self._shadow_base = arena.alloc_system(arena.capacity) if arena else None
        self._shadow = None
        self._words: dict[int, _WordState] = {}
        self._locks: dict[tuple[int, int], set] = {}
        self._epoch = 0
        self._seq = 0
        self._seen: set = set()

    # -- registration (delegates) --------------------------------------- #
    def watch_tree(self, tree) -> None:
        self.map.watch_tree(tree)

    def watch_stm_region(self, region) -> None:
        self.map.watch_stm_region(region)

    def add_lock_word(self, addr: int, name: str = "latch") -> None:
        self.map.add_lock_word(addr, name)

    def describe(self, addr: int) -> str:
        return self.map.describe(addr)

    # -- probe hooks ----------------------------------------------------- #
    def begin_launch(self) -> None:
        self._epoch += 1
        self._locks.clear()
        if self._shadow_base is not None:
            # re-slice: a later alloc_system call reallocates the backing
            # array, which would leave a cached view stale
            base = self._shadow_base
            self._shadow = self._arena.data[base : base + self._arena.capacity]
        else:
            self._words.clear()

    def begin_slot(self, warp_id: int) -> None:
        self._seq += 1

    def observe(self, warp_id, lane, op, result, gen) -> None:
        opname = type(op).__name__
        if opname == "Load":
            kind = READ
        elif opname == "Store":
            kind = WRITE
        elif opname in ("AtomicCAS", "AtomicAdd", "AtomicExch"):
            kind = ATOMIC
        else:
            return
        addr = op.addr
        cls, aux = self.map.classify(addr)
        tid = (warp_id, lane)
        if cls == "lock":
            self._sync_event(tid, ("lock", addr), opname, op, result)
            return
        if cls == "stm_owner":
            self._sync_event(tid, ("own", aux), opname, op, result)
            return
        if cls == "version":
            return
        self._check_data(tid, kind, opname, addr, gen)

    # -- lockset maintenance --------------------------------------------- #
    def _sync_event(self, tid, token, opname, op, result) -> None:
        held = self._locks.get(tid)
        if opname == "AtomicCAS":
            if op.expected == FREE and result == FREE:
                if held is None:
                    held = self._locks[tid] = set()
                held.add(token)
        elif opname == "Store":
            if op.value == FREE and held:
                held.discard(token)
        elif opname == "AtomicExch":
            if op.value == FREE:
                if held:
                    held.discard(token)
            elif result == FREE:
                if held is None:
                    held = self._locks[tid] = set()
                held.add(token)
        # plain loads of sync words (d_is_locked, owner peeks) are protocol
        # traffic, not data accesses — nothing to do

    def _guards(self, tid, addr) -> frozenset:
        held = self._locks.get(tid)
        if not held:
            return frozenset()
        own = ("own", addr)
        return frozenset(
            t for t in held if t[0] == "lock" or t == own
        )

    # -- the data-race engine -------------------------------------------- #
    def _check_data(self, tid, kind, opname, addr, gen) -> None:
        shadow = self._shadow
        state = self._words.get(addr)
        if shadow is not None:
            if int(shadow[addr]) != self._epoch:
                shadow[addr] = self._epoch
                state = None
        if state is None:
            state = self._words[addr] = _WordState()
        rec = AccessRecord(
            warp=tid[0],
            lane=tid[1],
            slot=self._seq,
            kind=kind,
            op=opname,
            addr=addr,
            program=_program_name(gen),
            guards=self._guards(tid, addr),
        )
        w = state.last_write
        if kind == READ:
            if (
                w is not None
                and (w.warp, w.lane) != tid
                and w.kind == WRITE
                and not w.guards
            ):
                self._report("R/W", w, rec)
            if len(state.reads) < _MAX_READS_PER_WORD:
                state.reads.append(rec)
            return
        # WRITE or ATOMIC
        if w is not None and (w.warp, w.lane) != tid:
            if kind == WRITE and w.kind == WRITE:
                if not (rec.guards & w.guards):
                    self._report("W/W", w, rec)
            elif WRITE in (kind, w.kind):  # one plain store, one atomic
                plain = rec if kind == WRITE else w
                if not plain.guards:
                    self._report("W/W", w, rec)
        if kind == WRITE and not rec.guards:
            for r in state.reads:
                if (r.warp, r.lane) != tid:
                    self._report("R/W", rec, r)
                    break
        state.last_write = rec
        state.reads.clear()

    def _report(self, kind, first, second) -> None:
        if len(self.reports) >= self.max_reports:
            return
        key = (kind, first.addr, first.program, second.program)
        if key in self._seen:
            return
        self._seen.add(key)
        self.reports.append(
            RaceReport(
                kind=kind,
                addr=first.addr,
                location=self.map.describe(first.addr),
                first=first,
                second=second,
            )
        )

    # -- reporting -------------------------------------------------------- #
    @property
    def race_count(self) -> int:
        return len(self.reports)

    def render(self) -> str:
        if not self.reports:
            return "no races detected"
        lines = [f"{len(self.reports)} race(s) detected:"]
        lines += [f"  {r}" for r in self.reports]
        return "\n".join(lines)


def attach_sanitizer(system, max_reports: int = 100) -> Sanitizer:
    """Build a :class:`Sanitizer` for a constructed system and attach it.

    Registers whatever synchronization structure the system has — the
    tree's node block always; STM metadata tables and the SMO latch when
    present (``system.stm`` / ``system.smo_lock_addr``) — and installs the
    probe on the system's :class:`~repro.device.DeviceContext` so every
    subsequent SIMT launch is observed.
    """
    san = Sanitizer(system.devctx.arena, max_reports=max_reports)
    san.watch_tree(system.tree)
    stm = getattr(system, "stm", None)
    if stm is not None:
        san.watch_stm_region(stm.region)
    smo = getattr(system, "smo_lock_addr", None)
    if smo is not None:
        san.add_lock_word(smo, "smo latch")
    system.devctx.attach_probe(san)
    return san
