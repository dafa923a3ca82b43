"""Locality-aware warp reorganization (§5).

After sorting/combining, adjacent issued requests target the same or
adjacent leaves. Requests are chunked into request groups (RGs) of one warp
width; ``rgs_per_iteration_warp`` *consecutive* RGs form one iteration
warp, executed by a single warp one RG at a time. A warp-shared buffer
carries the previous RG's last leaf (and its RF value); the next RG walks
the leaf chain from there (*horizontal traversal*) instead of descending
from the root, unless its maximal key exceeds the buffered RF value — the
range field that marks where horizontal traversal stops being profitable.

This module holds the grouping structure (shared by both engines) and the
vector engine's exact step computation; the SIMT iteration-warp programs
live in :mod:`repro.core.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import EMPTY_KEY
from ..btree import leaf_rf_values
from ..btree.tree import BPlusTree


@dataclass
class IterationPlan:
    """Grouping of ``n`` key-sorted issued requests into RGs and warps."""

    n: int
    warp_size: int
    rgs_per_warp: int
    rg_start: np.ndarray  # per RG: first request index
    rg_end: np.ndarray  # per RG: one past last
    warp_of_rg: np.ndarray

    @property
    def n_rgs(self) -> int:
        return int(self.rg_start.size)

    @property
    def n_warps(self) -> int:
        return int(self.warp_of_rg.max()) + 1 if self.n_rgs else 0

    def rgs_of_warp(self, w: int) -> np.ndarray:
        return np.flatnonzero(self.warp_of_rg == w)


def build_iteration_plan(
    n: int, warp_size: int, rgs_per_warp: int, num_sms: int | None = None
) -> IterationPlan:
    """Chunk ``n`` issued requests into RGs and group consecutive RGs.

    §5: "to fully use the computing resources, the RGs are evenly
    distributed to different SMs; then they are organized into iteration
    warps executed on each SM" — grouping must never drop the warp count
    below one per SM, so when ``num_sms`` is given the effective iteration
    depth shrinks for small kernels instead of starving SMs.
    """
    n_rgs = (n + warp_size - 1) // warp_size
    rg_start = np.arange(n_rgs, dtype=np.int64) * warp_size
    rg_end = np.minimum(rg_start + warp_size, n)
    n_warps = (n_rgs + max(rgs_per_warp, 1) - 1) // max(rgs_per_warp, 1)
    if num_sms is not None and n_rgs:
        n_warps = max(n_warps, min(n_rgs, num_sms))
    if n_rgs:
        # contiguous, even partition: consecutive RGs share a warp
        warp_of_rg = (np.arange(n_rgs, dtype=np.int64) * n_warps) // n_rgs
    else:
        warp_of_rg = np.zeros(0, dtype=np.int64)
    return IterationPlan(
        n=n,
        warp_size=warp_size,
        rgs_per_warp=rgs_per_warp,
        rg_start=rg_start,
        rg_end=rg_end,
        warp_of_rg=warp_of_rg,
    )


@dataclass
class LocalitySteps:
    """Per-request traversal steps under the locality optimization."""

    steps: np.ndarray  # per request: nodes traversed (own lane)
    horizontal: np.ndarray  # per request: took the leaf-chain path
    #: per RG: lockstep cost (max steps over its lanes — SIMT executes the
    #: longest lane's walk)
    rg_lockstep_steps: np.ndarray
    rf_updates: int = 0

    @property
    def vertical_fraction(self) -> float:
        return 1.0 - float(self.horizontal.mean()) if self.steps.size else 0.0


def vector_locality_steps(
    tree: BPlusTree,
    plan: IterationPlan,
    keys: np.ndarray,
    leaves: np.ndarray,
    chain_index: tuple[np.ndarray, np.ndarray],
    enable_rf: bool = True,
    update_rf: bool = True,
) -> LocalitySteps:
    """Exact traversal-step computation for the vector engine.

    ``keys`` are the key-sorted issued requests, ``leaves`` their leaves
    (:func:`~repro.btree.batch_find_leaf`) and ``chain_index`` the tree's
    :func:`~repro.btree.leaf_chain_index`; the caller traverses once and
    shares both across kernel classes. A horizontal walk from leaf at chain
    position ``a`` to position ``b`` takes ``b - a + 1`` node visits
    (reading the buffered leaf included), versus ``height`` for a vertical
    descent.
    """
    n = int(keys.size)
    chain, index_of = chain_index
    leaf_idx = index_of[leaves]
    height = tree.height

    steps = np.full(n, height, dtype=np.int64)
    horizontal = np.zeros(n, dtype=bool)
    rg_lockstep = np.zeros(plan.n_rgs, dtype=np.int64)
    rf_updates = 0

    rf_of_leaf = leaf_rf_values(tree, chain)
    for w in range(plan.n_warps):
        buffered_idx = -1
        buffered_rf = -1
        for r in plan.rgs_of_warp(w):
            lo, hi = int(plan.rg_start[r]), int(plan.rg_end[r])
            rg_max_key = int(keys[hi - 1])  # key-sorted: last lane holds max
            go_horizontal = buffered_idx >= 0 and (
                not enable_rf or rg_max_key <= buffered_rf
            )
            if go_horizontal:
                s = leaf_idx[lo:hi] - buffered_idx + 1
                steps[lo:hi] = s
                horizontal[lo:hi] = True
                rg_lockstep[r] = int(s.max())
                if update_rf and int(s.max()) > height:
                    # §5: record the RF so later iterations go vertical;
                    # update_rf writes the buffered leaf's RF word only
                    start = int(chain[buffered_idx])
                    tree.update_rf(start, int(s.max()))
                    rf_of_leaf[buffered_idx] = tree.views.host(start).rf
                    rf_updates += 1
            else:
                rg_lockstep[r] = height
            buffered_idx = int(leaf_idx[hi - 1])
            buffered_rf = int(rf_of_leaf[buffered_idx])
            if buffered_rf == EMPTY_KEY:
                buffered_rf = np.iinfo(np.int64).max
    return LocalitySteps(
        steps=steps,
        horizontal=horizontal,
        rg_lockstep_steps=rg_lockstep,
        rf_updates=rf_updates,
    )
