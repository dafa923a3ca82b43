"""Instruction protocol between thread programs and the warp executor.

A *thread program* is a Python generator: it ``yield``s one :class:`Op` per
simulated instruction and receives the result (for loads/atomics) from the
executor via ``send``. Sub-routines compose with ``yield from`` and return
values through ``StopIteration``, so device code reads like straight-line
CUDA with explicit memory operations:

.. code-block:: python

    def d_search_leaf(tree, leaf, key):
        cnt = yield Load(tree.layout.addr(leaf, OFF_COUNT))
        for slot in range(cnt):
            k = yield Load(tree.layout.key_addr(leaf, slot))
            yield Branch()
            if k == key:
                return (yield Load(tree.layout.payload_addr(leaf, slot)))
        return NULL_VALUE

Ops are plain ``__slots__`` classes (they are instantiated millions of times
per kernel).
"""

from __future__ import annotations


class Op:
    """Base class for all simulated instructions."""

    __slots__ = ()


class Load(Op):
    """Global-memory load of one word; executor sends back the value."""

    __slots__ = ("addr",)

    def __init__(self, addr: int) -> None:
        self.addr = addr


class Store(Op):
    """Global-memory store of one word."""

    __slots__ = ("addr", "value")

    def __init__(self, addr: int, value: int) -> None:
        self.addr = addr
        self.value = value


class AtomicCAS(Op):
    """``atomicCAS``; executor sends back the *old* value."""

    __slots__ = ("addr", "expected", "desired")

    def __init__(self, addr: int, expected: int, desired: int) -> None:
        self.addr = addr
        self.expected = expected
        self.desired = desired


class AtomicAdd(Op):
    """``atomicAdd``; executor sends back the old value."""

    __slots__ = ("addr", "delta")

    def __init__(self, addr: int, delta: int) -> None:
        self.addr = addr
        self.delta = delta


class AtomicExch(Op):
    """``atomicExch``; executor sends back the old value."""

    __slots__ = ("addr", "value")

    def __init__(self, addr: int, value: int) -> None:
        self.addr = addr
        self.value = value


class Alu(Op):
    """``count`` arithmetic instructions (comparisons folded into Branch)."""

    __slots__ = ("count",)

    def __init__(self, count: int = 1) -> None:
        self.count = count


class Branch(Op):
    """One control-flow instruction (conditional branch / loop latch).

    ``taken`` is informational; divergence is detected by the executor from
    lanes issuing different op kinds in the same lockstep slot.
    """

    __slots__ = ("taken",)

    def __init__(self, taken: bool = True) -> None:
        self.taken = taken


#: shared default-branch instance. Ops are immutable once yielded and the
#: interpreter (and all probes) dispatch on ``type(op)`` alone, so device code
#: on a hot path may ``yield BRANCH`` instead of allocating ``Branch()``
#: per control-flow slot.
BRANCH = Branch()


class Noop(Op):
    """Zero-cost wait slot (models a lane parked at a warp-level barrier).

    Charges nothing: a lane spinning on ``Noop`` while its warp mates catch
    up mirrors SIMT predication-off lanes, which retire no instructions.
    """

    __slots__ = ()


class WaitGE(Op):
    """Barrier wait slot: park until ``seq[idx] >= target``.

    Semantically identical to :class:`Noop` — a zero-cost predicated-off
    slot charged nothing — but it *names the wake condition*, so the
    interpreter can park the lane and skip resuming its generator until the
    condition holds instead of re-entering the spin loop every slot. The
    test oracle (``tests/reference_interp.py``) treats it exactly like
    ``Noop``. Programs keep their own ``while`` re-check around the yield
    (lint rule R5), so the condition here is a scheduling hint, never a
    source of truth.

    ``seq`` is any indexable shared object (e.g. the iteration warp's
    ``shared["arrived"]`` list) whose ``seq[idx]`` is monotonically
    non-decreasing while any lane waits on it.

    Contract (what parking relies on): *mid-slot* wakes are
    only guaranteed when ``seq[idx]`` is advanced by a lane of the **same
    warp** during the current lockstep slot — the executor re-checks parked
    groups after each same-warp resumption and at every slot boundary.
    Advancement from outside the warp (host code, another warp) is
    observed at the next slot boundary, one slot later at most. Warp-local
    barriers (the only current use) arrive strictly through same-warp
    lanes, so the interpreter and the oracle wake waiters in the identical
    slot. A barrier that can never open (every live lane of every active
    warp parked on a closed condition) makes the launch raise
    :class:`~repro.errors.SimulationError`.
    """

    __slots__ = ("seq", "idx", "target")

    def __init__(self, seq, idx: int, target: int) -> None:
        self.seq = seq
        self.idx = idx
        self.target = target


class Mark(Op):
    """Retire a request: records its completion cycle (response time).

    Programs yield ``Mark(request_id)`` once per logical request — for
    one-request-per-thread kernels right before returning; iteration-warp
    programs yield one per request group element they finish.
    """

    __slots__ = ("request_id",)

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id


#: op-kind tags used by the divergence model (distinct kinds in one lockstep
#: slot serialize into separate issue cycles).
_KIND = {
    Load: 0,
    Store: 1,
    AtomicCAS: 2,
    AtomicAdd: 2,
    AtomicExch: 2,
    Alu: 3,
    Branch: 4,
    Mark: 5,
    Noop: 6,
    WaitGE: 6,
}


def op_kind(op: Op) -> int:
    return _KIND[type(op)]
