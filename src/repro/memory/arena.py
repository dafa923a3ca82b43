"""Simulated GPU global memory.

A :class:`MemoryArena` is a flat array of 64-bit words with a bump
allocator. Everything the simulated device can see — B+tree nodes, the STM
ownership table, latch words, request buffers — lives in one arena so that
word addresses are globally meaningful: the STM locks *addresses*, latches
are *words*, and the coalescing model groups *addresses* into segments.

There is one memory plane, :attr:`MemoryArena.data`. Device code reaches it
only through yielded ops, which :meth:`repro.simt.Warp.step` executes and
charges to :class:`~repro.simt.KernelCounters` (the vector engine charges
:class:`~repro.baselines.model.EventTotals` instead). Host code — the bulk
build, splits, the sequential reference — reads and writes :attr:`data`,
:meth:`host_view` and the node views of :mod:`repro.btree.views` directly
and is free, exactly as the paper excludes tree-construction cost from its
measurements.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .._types import WORD_DTYPE
from ..errors import MemoryError_


class MemoryArena:
    """Flat word-addressable memory with a bump allocator."""

    def __init__(self, capacity_words: int, words_per_segment: int = 16) -> None:
        if capacity_words <= 0:
            raise MemoryError_(f"arena capacity must be positive, got {capacity_words}")
        self._data = np.zeros(capacity_words, dtype=WORD_DTYPE)
        self._brk = 0
        #: words visible to device code; system allocations live above this
        self._user_capacity = capacity_words
        self.words_per_segment = words_per_segment

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        """Device-visible capacity; system (sanitizer) words are excluded."""
        return self._user_capacity

    @property
    def total_words(self) -> int:
        """Backing-array size including system allocations."""
        return int(self._data.size)

    @property
    def system_words(self) -> int:
        """Words reserved by :meth:`alloc_system` (shadow memory etc.)."""
        return int(self._data.size) - self._user_capacity

    @property
    def allocated(self) -> int:
        return self._brk

    def alloc(self, nwords: int, align: int = 1) -> int:
        """Reserve ``nwords`` words; return the base address.

        ``align`` rounds the base up to a multiple (e.g. segment-align node
        blocks so a node never straddles more segments than necessary).
        """
        if nwords < 0:
            raise MemoryError_(f"cannot allocate {nwords} words")
        if align < 1:
            raise MemoryError_(f"alloc align must be >= 1, got {align}")
        base = self._brk
        if align > 1:
            base = (base + align - 1) // align * align
        if base + nwords > self._user_capacity:
            raise MemoryError_(
                f"arena exhausted: need {nwords} words at {base} "
                f"({self.allocated} of {self.capacity} words already allocated)"
            )
        self._brk = base + nwords
        return base

    def alloc_system(self, nwords: int) -> int:
        """Reserve ``nwords`` *system* words above the device heap.

        System allocations (sanitizer shadow memory) grow the backing array
        instead of consuming device capacity, so enabling analysis tooling
        never changes :meth:`alloc` exhaustion behaviour. Device code never
        addresses system words, so golden figures are identical with and
        without a sanitizer attached.

        Growing reallocates the backing array: long-lived views obtained via
        :meth:`host_view` before the call go stale (``self.data`` stays
        correct — it re-reads the current array). Attach sanitizers right
        after construction, before handing out views.
        """
        if nwords < 0:
            raise MemoryError_(f"cannot allocate {nwords} system words")
        base = int(self._data.size)
        self._data = np.concatenate(
            [self._data, np.zeros(nwords, dtype=WORD_DTYPE)]
        )
        return base

    def reset(self) -> None:
        """Return the arena to its freshly-constructed state.

        Rewinds the bump pointer, zeroes the backing words and drops any
        system (sanitizer) allocations — cheaper than reallocating a new
        arena when a caller (tests, shard re-use) wants a pristine device
        memory of the same capacity.
        """
        if self._data.size != self._user_capacity:
            self._data = np.zeros(self._user_capacity, dtype=WORD_DTYPE)
        else:
            self._data[:] = 0
        self._brk = 0

    @property
    def stats(self) -> SimpleNamespace:
        """Always ``accesses == 0``: device accesses are counted by the
        engine that executes them, never by the arena.

        Kept read-only for its one reader, ``perfbench/bench.py``, whose
        traced runs report ``memory.<system>.accesses_per_req`` from it;
        it goes when perfbench reads in-library telemetry instead.
        """
        return SimpleNamespace(accesses=0)

    # ------------------------------------------------------------------ #
    # the memory plane
    # ------------------------------------------------------------------ #
    @property
    def data(self) -> np.ndarray:
        """Raw backing array: what device ops execute on and host code
        reads and writes."""
        return self._data

    def host_view(self, base: int, nwords: int) -> np.ndarray:
        """Mutable view of ``[base, base + nwords)`` (bounds-checked)."""
        if base < 0 or base + nwords > self._data.size:
            raise MemoryError_(f"host view [{base}, {base + nwords}) out of bounds")
        return self._data[base : base + nwords]
