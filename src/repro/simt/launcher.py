"""Kernel launch and SM scheduling.

A :class:`KernelLaunch` collects thread programs, packs them into warps,
distributes warps round-robin over the device's SMs, and interleaves all
warps globally (one slot per warp per round). Global interleaving is what
makes transactions genuinely concurrent: STM conflicts, lock contention and
split/validation races arise from real overlap, not from a probability
model.

Warp *order* within each round is randomized when an ``rng`` is supplied —
GPU warp schedulers are not deterministic round-robin, and this
nondeterminism is what turns conflict retries into run-to-run response-time
variance (the paper's QoS argument: "it is unpredictable where the conflict
occurs and how many retries are required"). Systems seed the rng from the
batch contents, so runs stay reproducible while varying across batches.

Progress: a round that ends with every still-active warp fully parked on
closed ``WaitGE`` barriers raises :class:`~repro.errors.SimulationError`
naming the warps, their parked lanes and the barrier conditions — once no
lane can run, nothing can open a barrier, so the grid would spin forever.

Timing: each SM accumulates the issue and memory cycles of its own warps'
steps; the kernel's device time is the maximum over SMs (the straggler SM),
matching how a real grid retires.
"""

from __future__ import annotations

from collections.abc import Generator

from ..config import DeviceConfig
from ..errors import SimulationError
from ..memory import MemoryArena
from .counters import KernelCounters
from .warp import Warp


class KernelLaunch:
    """One simulated kernel grid."""

    def __init__(
        self,
        device: DeviceConfig,
        arena: MemoryArena,
        n_requests: int,
        rng=None,
        probe=None,
    ) -> None:
        self.device = device
        self.arena = arena
        self.counters = KernelCounters(n_requests=n_requests)
        self.rng = rng
        #: analysis probe (race detector / hotspot profiler) observing every
        #: executed op; ``None`` leaves execution bit-for-bit unchanged.
        self.probe = probe
        self._warps: list[Warp] = []
        self._launched = False

    # ------------------------------------------------------------------ #
    def add_warp(self, programs: list[Generator]) -> Warp:
        """Create a warp from explicit lane programs (iteration warps build
        their shared buffer around the returned object)."""
        if self._launched:
            raise SimulationError("cannot add warps after launch")
        warp = Warp(programs, self.arena, self.device.warp_size)
        warp.warp_id = len(self._warps)
        warp.probe = self.probe
        self._warps.append(warp)
        return warp

    def add_programs(self, programs: list[Generator]) -> None:
        """Pack one-thread-per-request programs into warps of ``warp_size``."""
        ws = self.device.warp_size
        for start in range(0, len(programs), ws):
            self.add_warp(programs[start : start + ws])

    @property
    def n_warps(self) -> int:
        return len(self._warps)

    # ------------------------------------------------------------------ #
    def run(self) -> KernelCounters:
        """Execute the grid to completion; returns the filled counters."""
        if self._launched:
            raise SimulationError("kernel already launched")
        self._launched = True
        if self.probe is not None:
            # kernel launches are global barriers: accesses in different
            # launches are ordered and can never race
            self.probe.begin_launch()
        dev = self.device
        n_sms = dev.num_sms
        sm_of = [i % n_sms for i in range(len(self._warps))]
        sm_cycles = [0.0] * n_sms
        counters = self.counters
        cpi = dev.cycles_per_inst
        cpm = dev.cycles_per_mem_transaction
        cpa = dev.cycles_per_atomic_conflict

        warps = self._warps
        steps = [w.step for w in warps]
        rng = self.rng
        active = list(range(len(warps)))
        while active:
            still = []
            append = still.append
            if rng is not None and len(active) > 1:
                order = [active[i] for i in rng.permutation(len(active)).tolist()]
            else:
                order = active
            for wi in order:
                sm = sm_of[wi]
                issue, trans, conflicts = steps[wi](counters, sm_cycles[sm])
                sm_cycles[sm] += issue * cpi + trans * cpm + conflicts * cpa
                if warps[wi].active:
                    append(wi)
            active = still
            if still and all(warps[wi].stalled() for wi in still):
                # nothing can run, so nothing can ever open a barrier
                raise SimulationError(
                    "barrier deadlock: every active warp is parked on a "
                    "barrier that cannot open; "
                    + "; ".join(warps[wi].describe_parked() for wi in still)
                )
        counters.cycles = max(sm_cycles) if sm_cycles else 0.0
        if self.probe is not None:
            self.probe.end_launch(counters)
        return counters

    def lane_results(self) -> list[object]:
        """Flat list of lane return values in warp/lane order."""
        out: list[object] = []
        for warp in self._warps:
            out.extend(warp.results())
        return out
