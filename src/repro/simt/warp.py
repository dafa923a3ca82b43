"""Lockstep warp executor.

A :class:`Warp` holds up to ``warp_size`` lanes, each an independent thread
program (generator). :meth:`Warp.step` advances every active lane by one
instruction slot, performs the memory/atomic operations against the arena,
and charges counters:

* per-lane executed instructions (memory / control / ALU / atomic) — the
  paper's per-thread Nsight metrics;
* warp-level *issue slots*: lanes executing the same op kind in a slot issue
  together; distinct kinds serialize (the divergence model);
* memory *transactions* via the 128-byte coalescing model — one warp load
  costs as many transactions as distinct segments its lanes touch.

Atomics execute immediately in lane order (the sequential interpreter makes
them trivially atomic); a CAS that observes a value different from
``expected`` counts as an atomic conflict, which the timing model surcharges
— that is where lock contention and STM ownership churn show up in time.

One interpreter implements these semantics (see DESIGN.md §9). It parks
lanes blocked on a :class:`WaitGE` barrier (skipping their generators until
the condition holds), batches counter updates into one flush per slot, and
drops retired lanes from the iteration list. Loads are scalar fetches in
lane order, so a load always observes every earlier store and host-plane
write. Analysis probes (race sanitizer, hotspot profiler) run inside the
same loop: ``begin_slot`` once per :meth:`Warp.step` call and ``observe``
after every op a lane executes, so observing never changes the schedule.

A straightforward loop that resumes every active lane each slot and
charges counters per op is kept in ``tests/reference_interp.py`` as the
test oracle; the equivalence suite requires bit-identical counters, memory,
lane results and probe output from both.
"""

from __future__ import annotations

from collections.abc import Generator
from operator import attrgetter

from ..errors import SimulationError
from ..memory import MemoryArena
from .counters import KernelCounters
from .instructions import (
    Alu,
    AtomicAdd,
    AtomicCAS,
    AtomicExch,
    Branch,
    Load,
    Mark,
    Noop,
    Store,
    WaitGE,
)

#: popcount of the 6-bit op-kind bitmask (fast ``bin(kinds).count("1")``)
_POPCOUNT = tuple(bin(i).count("1") for i in range(64))

#: sort key re-establishing lane order when woken lanes rejoin the iteration
_lane_pos = attrgetter("pos")


def _out_of_bounds(warp_id: int, pos: int, op, size: int) -> SimulationError:
    """The error a memory op (load, store, atomic) raises for an address
    outside the arena, naming the warp, lane and address."""
    return SimulationError(
        f"warp {warp_id} lane {pos}: {type(op).__name__} address {op.addr} "
        f"out of bounds [0, {size})"
    )


class Lane:
    """One thread: a program generator plus its in-flight state."""

    __slots__ = (
        "gen", "send", "active", "send_value", "result", "steps",
        "mark_base", "pos", "wait",
    )

    def __init__(self, gen: Generator, pos: int = 0) -> None:
        self.gen = gen
        #: bound ``gen.send`` (resumed once per slot; avoids the per-slot
        #: method lookup on the hot path)
        self.send = gen.send
        self.active = True
        self.send_value: int | None = None
        self.result: object = None
        #: lockstep slots this lane has executed (service-time accounting)
        self.steps = 0
        #: slot count at the lane's previous Mark (per-request service delta)
        self.mark_base = 0
        #: fixed index within the warp; orders lanes when :meth:`Warp.step`
        #: re-inserts woken lanes into the iteration
        self.pos = pos
        #: the barrier group this lane is parked on (see
        #: :meth:`Warp.step`), else None. Parked lanes are not resumed
        #: until ``seq[idx] >= target`` holds at their turn in lane order.
        self.wait: list | None = None


class Warp:
    """A cohort of lanes executing in lockstep."""

    __slots__ = (
        "lanes", "arena", "words_per_segment", "active", "shared", "probe",
        "warp_id", "_awake", "_groups", "_hot",
    )

    def __init__(
        self,
        programs: list[Generator],
        arena: MemoryArena,
        warp_size: int = 32,
    ):
        if not programs:
            raise SimulationError("a warp needs at least one lane")
        if len(programs) > warp_size:
            raise SimulationError(f"warp overfull: {len(programs)} > {warp_size}")
        self.lanes = [Lane(g, i) for i, g in enumerate(programs)]
        self.arena = arena
        self.words_per_segment = arena.words_per_segment
        self.active = True
        #: warp-shared scratch (models shared memory, e.g. the §5 iteration
        #: warp buffer); populated by the kernel code that built this warp.
        self.shared: dict = {}
        #: analysis probe (race detector / hotspot profiler); set by the
        #: launcher when the owning DeviceContext has one attached. ``None``
        #: skips every probe hook.
        self.probe = None
        #: grid-unique warp id assigned by the launcher (0 when standalone)
        self.warp_id = 0
        #: lanes that are runnable (active and not parked), in lane order;
        #: :meth:`step` iterates only these, so retired lanes and lanes
        #: parked at a barrier cost nothing per slot.
        self._awake = list(self.lanes)
        #: parked barrier groups ``[seq, idx, target, lanes]`` — one entry
        #: per distinct WaitGE condition with at least one parked lane.
        self._groups: list[list] = []
        #: groups one arrival away from opening (``parked >= target - 1``);
        #: only these can open mid-slot, so only these are re-checked after
        #: each lane resumption (see the WaitGE contract in instructions.py).
        self._hot: list[list] = []

    def step(self, counters: KernelCounters, cycle: float) -> tuple[int, int, int]:
        """Advance every runnable lane one slot.

        Returns ``(issue_slots, transactions, atomic_conflicts)`` for the
        timing model. Marks the warp inactive when all lanes finished. An
        attached probe gets ``begin_slot`` on every call, fully parked warps
        included, and ``observe`` after each op a lane executes.
        """
        data = self.arena.data
        item = data.item
        size = data.size
        wps = self.words_per_segment
        groups = self._groups
        probe = self.probe
        if probe is not None:
            probe.begin_slot(self.warp_id)
        awake = self._awake
        wake_next: list[Lane] = []
        if groups:
            # barriers satisfied between slots (host code or another warp
            # advanced the sequence): wake at slot start, in lane order
            for g in groups:
                if g[0][g[1]] >= g[2]:
                    self._open_groups(awake, 0, -1, wake_next)
                    break
        if not awake:
            if not groups:
                self.active = False
            return 0, 0, 0
        hot = self._hot
        compact = False
        load_segs: set[int] = set()
        store_segs: set[int] = set()
        lseg_add = load_segs.add
        sseg_add = store_segs.add
        kinds = 0
        n_load = n_store = n_branch = n_alu = 0
        n_atomic = transactions = atomic_conflicts = 0

        i = 0
        n = len(awake)
        while i < n:
            lane = awake[i]
            i += 1
            try:
                op = lane.send(lane.send_value)
            except StopIteration as stop:
                lane.active = False
                lane.result = stop.value
                compact = True
                if hot:
                    # a lane may pass its last barrier and retire in one
                    # resumption; its followers still wake this slot
                    for g in hot:
                        if g[0][g[1]] >= g[2]:
                            self._open_groups(awake, i, lane.pos, wake_next)
                            hot = self._hot
                            n = len(awake)
                            break
                continue
            lane.steps += 1
            t = type(op)
            if t is Load:
                addr = op.addr
                if not 0 <= addr < size:
                    raise _out_of_bounds(self.warp_id, lane.pos, op, size)
                n_load += 1
                kinds |= 1
                lseg_add(addr // wps)
                lane.send_value = item(addr)
            elif t is Branch:
                lane.send_value = None
                n_branch += 1
                kinds |= 16
            elif t is Alu:
                lane.send_value = None
                n_alu += op.count
                kinds |= 8
            elif t is Store:
                addr = op.addr
                if not 0 <= addr < size:
                    raise _out_of_bounds(self.warp_id, lane.pos, op, size)
                data[addr] = op.value
                sseg_add(addr // wps)
                lane.send_value = None
                n_store += 1
                kinds |= 2
            elif t is AtomicCAS:
                addr = op.addr
                if not 0 <= addr < size:
                    raise _out_of_bounds(self.warp_id, lane.pos, op, size)
                old = item(addr)
                if old == op.expected:
                    data[addr] = op.desired
                else:
                    atomic_conflicts += 1
                lane.send_value = old
                n_atomic += 1
                transactions += 1
                kinds |= 4
            elif t is AtomicAdd:
                addr = op.addr
                if not 0 <= addr < size:
                    raise _out_of_bounds(self.warp_id, lane.pos, op, size)
                old = item(addr)
                data[addr] = old + op.delta
                lane.send_value = old
                n_atomic += 1
                transactions += 1
                kinds |= 4
            elif t is AtomicExch:
                addr = op.addr
                if not 0 <= addr < size:
                    raise _out_of_bounds(self.warp_id, lane.pos, op, size)
                old = item(addr)
                data[addr] = op.value
                lane.send_value = old
                n_atomic += 1
                transactions += 1
                kinds |= 4
            elif t is Mark:
                lane.send_value = None
                counters.finish_cycle[op.request_id] = cycle
                counters.service_steps[op.request_id] = lane.steps - lane.mark_base
                lane.mark_base = lane.steps
                kinds |= 32
            elif t is WaitGE or t is Noop:
                lane.send_value = None
                lane.steps -= 1
                if t is WaitGE:
                    seq = op.seq
                    idx = op.idx
                    tgt = op.target
                    for g in groups:
                        if g[0] is seq and g[1] == idx and g[2] == tgt:
                            g[3].append(lane)
                            break
                    else:
                        g = [seq, idx, tgt, [lane]]
                        groups.append(g)
                    lane.wait = g
                    compact = True
                    if len(g[3]) >= tgt - 1:
                        hot = self._hot = [
                            gg for gg in groups if len(gg[3]) >= gg[2] - 1
                        ]
            else:
                raise SimulationError(f"unknown op {op!r}")
            if probe is not None:
                probe.observe(self.warp_id, lane.pos, op, lane.send_value, lane.gen)
            if hot:
                # a barrier one arrival away may have been opened by the
                # lane we just ran: wake its followers at their turn
                for g in hot:
                    if g[0][g[1]] >= g[2]:
                        self._open_groups(awake, i, lane.pos, wake_next)
                        hot = self._hot
                        n = len(awake)
                        break

        if n_load:
            counters.load_inst += n_load
            transactions += len(load_segs)
        if n_store:
            counters.store_inst += n_store
            transactions += len(store_segs)
        if n_load or n_store:
            counters.mem_inst += n_load + n_store
        if n_branch:
            counters.control_inst += n_branch
        if n_alu:
            counters.alu_inst += n_alu
        if n_atomic:
            counters.atomic_inst += n_atomic
            counters.atomic_transactions += n_atomic
        issue_slots = _POPCOUNT[kinds]
        if issue_slots:
            if issue_slots > 1:
                counters.divergent_slots += issue_slots - 1
            counters.issued_slots += issue_slots
        if transactions:
            counters.transactions += transactions
        if atomic_conflicts:
            counters.atomic_conflicts += atomic_conflicts
        if compact or wake_next:
            alive = [ln for ln in awake if ln.active and ln.wait is None]
            if wake_next:
                alive.extend(wake_next)
                alive.sort(key=_lane_pos)
            self._awake = alive
            if not alive and not groups:
                self.active = False
        return issue_slots, transactions, atomic_conflicts

    def _open_groups(self, awake: list, i: int, pos: int, wake_next: list) -> None:
        """Wake every parked group whose barrier condition now holds.

        Lanes positioned after ``pos`` rejoin *this* slot — spliced into the
        remaining iteration in lane order — because a lockstep slot visits
        them after the opener, when the condition already holds. Lanes at or
        before ``pos`` were already passed over this slot and rejoin at the
        next one, exactly as a loop resuming every lane each slot would.
        """
        groups = self._groups
        still: list[list] = []
        late: list[Lane] = []
        for g in groups:
            if g[0][g[1]] >= g[2]:
                for ln in g[3]:
                    ln.wait = None
                    if ln.pos > pos:
                        late.append(ln)
                    elif ln not in awake:
                        # parked in an earlier slot: rejoins next slot. A
                        # lane that parked *this* slot is still in ``awake``
                        # and survives compaction by its cleared wait alone.
                        wake_next.append(ln)
            else:
                still.append(g)
        groups[:] = still
        self._hot = [g for g in still if len(g[3]) >= g[2] - 1]
        if late:
            tail = awake[i:] + late
            tail.sort(key=_lane_pos)
            awake[i:] = tail

    def stalled(self) -> bool:
        """No lane can run: every live lane is parked on a closed barrier.

        Only a running lane can advance a barrier sequence, so a stalled
        warp stays stalled unless a lane of another warp opens its barrier.
        """
        return not self._awake and not any(g[0][g[1]] >= g[2] for g in self._groups)

    def describe_parked(self) -> str:
        """The parked lanes and barrier conditions of this warp, for errors."""
        waits = [
            f"lanes {[ln.pos for ln in g[3]]} wait on WaitGE(idx={g[1]}, "
            f"target={g[2]}) with seq[{g[1]}]={g[0][g[1]]}"
            for g in self._groups
        ]
        return f"warp {self.warp_id}: " + ", ".join(waits)

    def results(self) -> list[object]:
        """Return values of all lane programs (after the warp retired)."""
        return [lane.result for lane in self.lanes]


def run_subroutine(gen: Generator, arena: MemoryArena) -> object:
    """Drive a single thread program to completion as a one-lane warp.

    Debug/teaching helper (and unit-test harness): returns the program's
    return value; its memory ops act on ``arena`` exactly as in a launch.
    The counters it charges are discarded.
    """
    warp = Warp([gen], arena)
    counters = KernelCounters(n_requests=0)
    # no request space to index: Mark records land in throwaway dicts
    counters.finish_cycle = {}
    counters.service_steps = {}
    while warp.active:
        warp.step(counters, 0.0)
        if warp.active and warp.stalled():
            raise SimulationError(f"barrier deadlock: {warp.describe_parked()}")
    return warp.lanes[0].result
