"""The reference SIMT interpreter: the test oracle for :meth:`Warp.step`.

This is the simulator's original slot loop, behaviour unchanged. Each slot it
resumes every active lane, charges :class:`~repro.simt.KernelCounters` per
op, and reports every op to an attached probe. It never parks a lane: a
lane waiting on ``WaitGE`` re-yields it every slot, charged nothing, exactly
like ``Noop``. The one interpreter under ``src/`` must match it bit for bit
in counters, arena words, lane results and probe reports.

Nothing under ``src/`` can select it. Install it for one test with::

    monkeypatch.setattr(Warp, "step", reference_step)

:meth:`KernelLaunch.run` looks up ``warp.step`` when it starts, so every
warp of a launch started afterwards runs on the oracle.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.simt import (
    Alu,
    AtomicAdd,
    AtomicCAS,
    AtomicExch,
    Branch,
    KernelCounters,
    Load,
    Mark,
    Noop,
    Op,
    Store,
    WaitGE,
)
from repro.simt.warp import Warp


def _segments(addrs: list[int], wps: int) -> int:
    return len({a // wps for a in addrs})


def reference_step(
    warp: Warp, counters: KernelCounters, cycle: float
) -> tuple[int, int, int]:
    """Advance every active lane of ``warp`` one slot (the oracle)."""
    data = warp.arena.data
    size = data.size
    load_addrs: list[int] = []
    store_addrs: list[int] = []
    kinds = 0  # bitmask of op kinds present in this slot
    transactions = 0
    atomic_conflicts = 0
    any_active = False
    probe = warp.probe
    if probe is not None:
        probe.begin_slot(warp.warp_id)

    for lane_idx, lane in enumerate(warp.lanes):
        if not lane.active:
            continue
        try:
            op: Op = lane.gen.send(lane.send_value)
        except StopIteration as stop:
            lane.active = False
            lane.result = stop.value
            continue
        any_active = True
        lane.send_value = None
        lane.steps += 1
        t = type(op)
        if t is Load:
            addr = op.addr
            if not 0 <= addr < size:
                raise SimulationError(f"load address {addr} out of bounds")
            lane.send_value = int(data[addr])
            load_addrs.append(addr)
            counters.mem_inst += 1
            counters.load_inst += 1
            kinds |= 1
        elif t is Branch:
            counters.control_inst += 1
            kinds |= 16
        elif t is Alu:
            counters.alu_inst += op.count
            kinds |= 8
        elif t is Store:
            addr = op.addr
            if not 0 <= addr < size:
                raise SimulationError(f"store address {addr} out of bounds")
            data[addr] = op.value
            store_addrs.append(addr)
            counters.mem_inst += 1
            counters.store_inst += 1
            kinds |= 2
        elif t is AtomicCAS:
            old = int(data[op.addr])
            if old == op.expected:
                data[op.addr] = op.desired
            else:
                atomic_conflicts += 1
            lane.send_value = old
            counters.atomic_inst += 1
            counters.atomic_transactions += 1
            transactions += 1
            kinds |= 4
        elif t is AtomicAdd:
            old = int(data[op.addr])
            data[op.addr] = old + op.delta
            lane.send_value = old
            counters.atomic_inst += 1
            counters.atomic_transactions += 1
            transactions += 1
            kinds |= 4
        elif t is AtomicExch:
            old = int(data[op.addr])
            data[op.addr] = op.value
            lane.send_value = old
            counters.atomic_inst += 1
            counters.atomic_transactions += 1
            transactions += 1
            kinds |= 4
        elif t is Mark:
            counters.finish_cycle[op.request_id] = cycle
            counters.service_steps[op.request_id] = lane.steps - lane.mark_base
            lane.mark_base = lane.steps
            kinds |= 32
        elif t is Noop or t is WaitGE:
            # barrier wait: costs nothing (predicated-off lane) and does
            # not count toward the lane's per-request service time
            lane.steps -= 1
        else:
            raise SimulationError(f"unknown op {op!r}")
        if probe is not None:
            probe.observe(
                warp.warp_id, lane_idx, op, lane.send_value, lane.gen
            )

    if load_addrs:
        transactions += _segments(load_addrs, warp.words_per_segment)
    if store_addrs:
        transactions += _segments(store_addrs, warp.words_per_segment)
    issue_slots = bin(kinds).count("1")
    if issue_slots > 1:
        counters.divergent_slots += issue_slots - 1
    counters.issued_slots += issue_slots
    counters.transactions += transactions
    counters.atomic_conflicts += atomic_conflicts
    if not any_active:
        warp.active = False
    return issue_slots, transactions, atomic_conflicts

