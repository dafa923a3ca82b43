"""Vectorized batch traversal over the B+tree.

The vector engine processes whole request batches level-synchronously: all
requests descend one tree level per step, mirroring how a GPU kernel's warps
advance through the tree together. Every function returns both results and a
:class:`TraversalEvents` record — the event counts the device cost model
converts to instructions/transactions.

Each level is a *merge*, not a per-request row scan. With the keys sorted,
the nodes one level's requests visit come in key order, and the real keys of
those nodes, laid end to end, form one sorted array; a single
``searchsorted`` then ranks every request key inside its own node (see
:func:`_rank_in_nodes`). This is the §5 observation — after sorting and
combining, adjacent requests target the same or adjacent nodes — used on
the host side. The event counts stay those of the device's full-row scan.

Horizontal (leaf-chain) traversal implements the §5 locality path: starting
from a buffered leaf, walk ``next_leaf`` pointers until the target key is
covered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._types import NO_NODE, NULL_VALUE
from .tree import BPlusTree


@dataclass
class TraversalEvents:
    """Counts of tree-access events for one batch phase."""

    requests: int = 0
    node_visits: int = 0
    key_words_read: int = 0
    vertical_steps: int = 0
    horizontal_steps: int = 0
    leaf_lookups: int = 0
    #: per-request traversal step counts (for Fig. 10)
    steps_per_request: np.ndarray | None = None
    extra: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "TraversalEvents") -> None:
        self.requests += other.requests
        self.node_visits += other.node_visits
        self.key_words_read += other.key_words_read
        self.vertical_steps += other.vertical_steps
        self.horizontal_steps += other.horizontal_steps
        self.leaf_lookups += other.leaf_lookups
        for k, v in other.extra.items():
            self.extra[k] = self.extra.get(k, 0) + v
        if other.steps_per_request is not None:
            if self.steps_per_request is None:
                self.steps_per_request = other.steps_per_request.copy()
            else:
                self.steps_per_request = np.concatenate(
                    [self.steps_per_request, other.steps_per_request]
                )

    @property
    def total_steps(self) -> int:
        return self.vertical_steps + self.horizontal_steps


def _rank_in_nodes(
    tree: BPlusTree, nodes: np.ndarray, keys: np.ndarray, side: str
) -> np.ndarray:
    """Rank of each key among the real keys of its node: the number of them
    ``<= keys[i]`` (``side="right"``) or ``< keys[i]`` (``side="left"``).

    ``keys`` must be sorted and ``nodes[i]`` must be the node of one level
    whose routing range ``[lo, hi)`` holds ``keys[i]``. Then each node's
    requests form one run, and the runs' nodes are in key order. The
    invariants :meth:`BPlusTree.validate` checks — keys strictly increase
    within a node, lie in the node's ``[lo, hi)``, and unused slots lie
    beyond ``count`` — make the nodes' real keys, laid end to end, one sorted
    array in which every key of an earlier node is ``< keys[i]`` and every
    key of a later node is ``> keys[i]``. One ``searchsorted`` over it, less
    the start of the node's keys, is the rank.
    """
    n = int(keys.size)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(nodes[1:], nodes[:-1], out=head[1:])
    run = np.cumsum(head) - 1
    distinct = nodes[head]
    views = tree.views
    counts = views.host_field(distinct, "count")
    rows = views.key_rows(distinct)
    merged = rows[np.arange(tree.layout.fanout) < counts[:, None]]
    starts = np.cumsum(counts) - counts
    return np.searchsorted(merged, keys, side=side) - starts[run]


def batch_find_leaf(tree: BPlusTree, keys: np.ndarray) -> tuple[np.ndarray, TraversalEvents]:
    """Vertical traversal for every key; returns leaf ids and event counts.

    All leaves sit at depth ``tree.height``, so the descent is a fixed
    number of level-synchronous steps. The keys are sorted once, on entry
    (cheap when they arrive sorted, as issued requests do); each level is
    one merge rank (:func:`_rank_in_nodes`) and one child gather, and the
    leaves are returned in input order. The events charge every request a
    full key row per inner level, as the device programs scan it.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = int(keys.size)
    ev = TraversalEvents(requests=n)
    nodes = np.full(n, tree.root, dtype=np.int64)
    if n == 0:
        ev.steps_per_request = np.zeros(0, dtype=np.int64)
        return nodes, ev
    lay = tree.layout
    views = tree.views
    data = tree.arena.data
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    for _ in range(tree.height - 1):
        slots = _rank_in_nodes(tree, nodes, sorted_keys, "right")
        nodes = data[views.payload_addrs(nodes, slots)]
        ev.node_visits += n
        ev.key_words_read += n * lay.fanout
        ev.vertical_steps += n
    # the leaf itself counts as a visited node (paper counts nodes traversed)
    ev.node_visits += n
    ev.vertical_steps += n
    ev.steps_per_request = np.full(n, tree.height, dtype=np.int64)
    leaves = np.empty_like(nodes)
    leaves[order] = nodes
    return leaves, ev


def batch_leaf_slots(
    tree: BPlusTree, leaves: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Locate each key in its leaf; returns (payload word address, hit).

    ``leaves[i]`` must be the leaf covering ``keys[i]`` in the tree as it
    stands (what :func:`batch_find_leaf` returns). Where ``hit`` is False
    the address is that of the slot the key would sort into — clipped to
    the last slot of a full leaf — not of a stored value.
    """
    keys = np.asarray(keys, dtype=np.int64)
    leaves = np.asarray(leaves, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    rank = np.empty(keys.size, dtype=np.int64)
    rank[order] = _rank_in_nodes(tree, leaves[order], keys[order], "left")
    pos = np.minimum(rank, tree.layout.fanout - 1)
    hit = tree.views.host_keys(leaves, pos) == keys
    return tree.views.payload_addrs(leaves, pos), hit


def batch_leaf_lookup(
    tree: BPlusTree, leaves: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, TraversalEvents]:
    """Find each key in its leaf; returns values (NULL_VALUE when absent)."""
    keys = np.asarray(keys, dtype=np.int64)
    leaves = np.asarray(leaves, dtype=np.int64)
    n = int(keys.size)
    ev = TraversalEvents(requests=n, leaf_lookups=n)
    if n == 0:
        return np.zeros(0, dtype=np.int64), ev
    ev.key_words_read += n * tree.layout.fanout
    addrs, hit = batch_leaf_slots(tree, leaves, keys)
    vals = np.where(hit, tree.arena.data[addrs], NULL_VALUE)
    return vals.astype(np.int64), ev


def batch_horizontal_find_leaf(
    tree: BPlusTree, start_leaves: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, TraversalEvents]:
    """Leaf-chain walk from ``start_leaves`` toward each key (§5).

    Returns (leaf ids, per-request steps, events). A request whose key lies
    *before* its start leaf (possible only after concurrent splits) falls
    back to vertical traversal; its steps then count as vertical.
    """
    keys = np.asarray(keys, dtype=np.int64)
    leaves = np.asarray(start_leaves, dtype=np.int64).copy()
    n = int(keys.size)
    ev = TraversalEvents(requests=n)
    steps = np.ones(n, dtype=np.int64)  # reading the buffered leaf is a step
    if n == 0:
        return leaves, steps, ev
    views = tree.views

    # fallback: key precedes the buffered leaf's fence (left of its range)
    fences = views.host_field(leaves, "fence")
    ev.key_words_read += n
    fallback = keys < fences
    if np.any(fallback):
        fb_leaves, fb_ev = batch_find_leaf(tree, keys[fallback])
        leaves[fallback] = fb_leaves
        steps[fallback] = tree.height
        ev.merge(fb_ev)

    active = ~fallback
    while np.any(active):
        idx = np.flatnonzero(active)
        cur = leaves[idx]
        ev.key_words_read += int(idx.size)
        ev.node_visits += int(idx.size)
        nxt = views.host_field(cur, "next_leaf")
        has_next = nxt != NO_NODE
        nxt_fence = np.where(
            has_next, views.host_field(np.maximum(nxt, 0), "fence"), 0
        )
        advance = has_next & (nxt_fence <= keys[idx])
        move = idx[advance]
        leaves[move] = nxt[advance]
        steps[move] += 1
        ev.horizontal_steps += int(move.size)
        active[idx[~advance]] = False
    ev.steps_per_request = steps.copy()
    return leaves, steps, ev


def leaf_chain_index(tree: BPlusTree) -> tuple[np.ndarray, np.ndarray]:
    """Leaf ids in chain order, and each node's position on the chain
    (indexed by node id; -1 for inner and unused nodes)."""
    chain = np.asarray(tree.leaf_ids(), dtype=np.int64)
    index_of = np.full(tree.max_nodes, -1, dtype=np.int64)
    index_of[chain] = np.arange(chain.size)
    return chain, index_of


def leaf_max_keys(tree: BPlusTree, leaves: np.ndarray) -> np.ndarray:
    """Largest real key per leaf (-1 for an empty leaf). Host plane."""
    leaves = np.asarray(leaves, dtype=np.int64)
    counts = tree.views.host_field(leaves, "count")
    return np.where(counts > 0, tree.views.host_keys(leaves, np.maximum(counts - 1, 0)), -1)


def leaf_rf_values(tree: BPlusTree, leaves: np.ndarray) -> np.ndarray:
    """RF field per leaf (host plane)."""
    return tree.views.host_field(np.asarray(leaves, dtype=np.int64), "rf")
