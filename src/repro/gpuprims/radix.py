"""LSD radix sort over 64-bit keys (the CUB ``DeviceRadixSort`` substitute).

Eirene sorts each request batch by (key, logical timestamp) before the
combining scan (§4.1.1, §7). Because a batch arrives in timestamp order, a
*stable* sort by key alone yields exactly the (key, ts) lexicographic order;
this module therefore implements a stable LSD radix sort and returns the
permutation.

Each digit pass is a genuine counting sort: histogram → exclusive scan →
stable scatter, the same three phases as a GPU onesweep pass, executed as
vectorized numpy steps. :class:`RadixWork` records passes and element moves
for the device cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scan import ScanWork, exclusive_scan

#: digit width in bits; 8 gives 8 passes over int64 keys, matching CUB's
#: default configuration.
DIGIT_BITS = 8
RADIX = 1 << DIGIT_BITS
DIGIT_MASK = RADIX - 1
#: smallest unsigned dtype holding a digit; ranking digits of this width
#: lets numpy's stable sort take its own radix path
DIGIT_DTYPE = np.min_scalar_type(DIGIT_MASK)


@dataclass
class RadixWork:
    """Work accounting for one radix-sort launch."""

    n: int = 0
    passes: int = 0
    element_moves: int = 0
    scan_work: ScanWork | None = None

    def merge(self, other: "RadixWork") -> None:
        self.n += other.n
        self.passes += other.passes
        self.element_moves += other.element_moves


def _stable_rank(digits: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Stable scatter position for each element of a digit pass.

    position(i) = starts[digit_i] + |{j < i : digit_j == digit_i}|.
    The within-bucket rank is computed via a stable ordering of the digit
    array — the per-warp match/ballot ranking a GPU pass performs, expressed
    as one vectorized step.
    """
    n = digits.size
    order = np.argsort(digits, kind="stable")
    sorted_digits = digits[order]
    run_head = np.empty(n, dtype=bool)
    run_head[0] = True
    np.not_equal(sorted_digits[1:], sorted_digits[:-1], out=run_head[1:])
    head_pos = np.flatnonzero(run_head)
    run_id = np.cumsum(run_head) - 1
    within = np.arange(n) - head_pos[run_id]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = within
    return starts[digits] + rank


def significant_passes(keys: np.ndarray) -> int:
    """Number of digit passes needed to cover the largest key.

    CUB skips passes whose digits are uniformly zero; we do the same so the
    charged cost tracks the key range actually in use.
    """
    if keys.size == 0:
        return 0
    hi = int(keys.max())
    if hi < 0:
        raise ValueError("radix sort requires non-negative keys")
    p = 1
    while hi >> (p * DIGIT_BITS):
        p += 1
    return p


def radix_argsort(keys: np.ndarray, work: RadixWork | None = None) -> np.ndarray:
    """Stable ascending argsort of non-negative int64 ``keys``.

    Returns the permutation such that ``keys[perm]`` is sorted, ties in
    input order (stability).
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    n = int(keys.size)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if keys.min() < 0:
        raise ValueError("radix sort requires non-negative keys")
    perm = np.arange(n, dtype=np.int64)
    cur = keys.copy()
    npasses = significant_passes(keys)
    scan_work = ScanWork()
    for p in range(npasses):
        digits = ((cur >> (p * DIGIT_BITS)) & DIGIT_MASK).astype(DIGIT_DTYPE)
        hist = np.bincount(digits, minlength=RADIX).astype(np.int64)
        starts = exclusive_scan(hist, scan_work)
        pos = _stable_rank(digits, starts)
        out_perm = np.empty_like(perm)
        out_cur = np.empty_like(cur)
        out_perm[pos] = perm
        out_cur[pos] = cur
        perm, cur = out_perm, out_cur
    if work is not None:
        work.merge(RadixWork(n=n, passes=npasses, element_moves=npasses * n))
        work.scan_work = scan_work
    return perm


def radix_sort_pairs(
    keys: np.ndarray, values: np.ndarray, work: RadixWork | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sort (key, value) pairs by key, stable. Returns sorted copies."""
    perm = radix_argsort(keys, work)
    return keys[perm], values[perm]
