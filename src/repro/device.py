"""Device contexts: one object per simulated GPU.

Historically the reproduction treated "the device" as ambient state — one
:class:`~repro.memory.MemoryArena` created wherever convenient, a
:class:`~repro.config.DeviceConfig` passed alongside, cost models and warp
rngs constructed ad hoc. A :class:`DeviceContext` makes ownership explicit:
it bundles the arena (global memory), the device
configuration, the calibrated cost model, and the scheduling RNG seed, and
it is the unit the sharding layer replicates — one context per shard, so
"which device owns which memory" is always answerable.

Three lifecycle operations support cheap reuse:

* :meth:`snapshot` / :meth:`restore` — capture and rewind the full device
  memory state (words, bump pointer) in place, so code holding references
  to the arena (trees, STM regions) stays valid;
* :meth:`fork` — an independent deep copy (new arena, same config), for
  building per-test or per-shard replicas without re-running setup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DeviceConfig
from .errors import ConfigError
from .memory import MemoryArena

#: default arena capacity (words) when a context is created bare
DEFAULT_CAPACITY_WORDS = 1 << 16


@dataclass
class DeviceSnapshot:
    """Frozen copy of a context's mutable device state."""

    data: np.ndarray
    brk: int


class DeviceContext:
    """One simulated GPU: arena + config + cost model + scheduling seed."""

    def __init__(
        self,
        capacity_words: int | None = None,
        *,
        arena: MemoryArena | None = None,
        device: DeviceConfig | None = None,
        cost: "object | None" = None,
        seed: int = 0,
    ) -> None:
        self.device = device or DeviceConfig()
        if arena is not None:
            if capacity_words is not None and arena.capacity != capacity_words:
                raise ValueError(
                    f"capacity_words {capacity_words} disagrees with the "
                    f"adopted arena's capacity {arena.capacity}"
                )
            self.arena = arena
        else:
            self.arena = MemoryArena(
                capacity_words or DEFAULT_CAPACITY_WORDS,
                words_per_segment=self.device.words_per_segment,
            )
        if cost is None:
            from .simt import CostModel

            cost = CostModel(device=self.device)
        self.cost = cost
        self.seed = seed
        #: opt-in analysis probe (e.g. :class:`repro.analysis.Sanitizer`);
        #: every SIMT launch created by this context routes its executed ops
        #: through it. ``None`` (the default) is the zero-overhead path.
        self.sanitizer = None

    # ------------------------------------------------------------------ #
    # ownership views
    # ------------------------------------------------------------------ #
    def make_rng(self, salt: int = 0) -> np.random.Generator:
        """Deterministic per-purpose rng derived from the context seed."""
        return np.random.default_rng((self.seed, salt))

    def launch(self, n_requests: int, rng: np.random.Generator | None = None):
        """A :class:`~repro.simt.KernelLaunch` grid on this device."""
        from .simt import KernelLaunch

        return KernelLaunch(
            self.device, self.arena, n_requests, rng=rng, probe=self.sanitizer
        )

    def attach_probe(self, probe) -> None:
        """Attach an analysis probe; composes with any already attached."""
        if self.sanitizer is None:
            self.sanitizer = probe
        else:
            from .analysis.races import CompositeProbe

            if isinstance(self.sanitizer, CompositeProbe):
                self.sanitizer.probes.append(probe)
            else:
                self.sanitizer = CompositeProbe([self.sanitizer, probe])

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def snapshot(self) -> DeviceSnapshot:
        """Capture arena words and bump pointer.

        Only the device-visible heap is captured — sanitizer shadow words
        (``alloc_system``) are analysis state, not device state.
        """
        return DeviceSnapshot(
            data=self.arena.data[: self.arena.capacity].copy(),
            brk=self.arena.allocated,
        )

    def restore(self, snap: DeviceSnapshot) -> None:
        """Rewind to ``snap`` *in place*: objects holding the arena (trees,
        STM regions built before the snapshot) remain valid."""
        if snap.data.size != self.arena.capacity:
            raise ConfigError(
                f"snapshot capacity {snap.data.size} != arena {self.arena.capacity}"
            )
        np.copyto(self.arena.data[: self.arena.capacity], snap.data)
        self.arena._brk = snap.brk

    def fork(self, seed: int | None = None) -> "DeviceContext":
        """Independent copy: new arena with the same words and bump pointer,
        config shared (configs are frozen)."""
        twin = DeviceContext(
            arena=MemoryArena(
                self.arena.capacity,
                words_per_segment=self.arena.words_per_segment,
            ),
            device=self.device,
            cost=self.cost,
            seed=self.seed if seed is None else seed,
        )
        np.copyto(twin.arena.data, self.arena.data[: self.arena.capacity])
        twin.arena._brk = self.arena.allocated
        return twin

    @classmethod
    def adopt(
        cls,
        arena: MemoryArena,
        device: DeviceConfig | None = None,
        seed: int = 0,
    ) -> "DeviceContext":
        """Wrap an existing arena (``build_device_tree`` sizes the arena
        first, then wraps it)."""
        return cls(arena=arena, device=device, seed=seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceContext(capacity={self.arena.capacity}, "
            f"sms={self.device.num_sms}, seed={self.seed})"
        )
