"""Divergence and coalescing hotspot attribution.

The simulator already *charges* divergence (extra issue slots when lanes
of a warp execute different op kinds) and uncoalesced memory traffic
(one transaction per 128-byte segment touched) — but only as launch-wide
totals in :class:`~repro.simt.counters.KernelCounters`. A
:class:`HotspotProfiler` is a :class:`~repro.analysis.races.DeviceProbe`
that re-derives both penalties per lockstep slot and attributes them to
*address classes* (leaf keys, inner children, latch words, STM metadata —
the buckets of :meth:`~repro.analysis.addrmap.AddressMap.bucket`), plus a
per-node heat count, answering "*where* does the divergence/transaction
budget go" rather than "how big is it".

Attribution model, per warp slot:

* every memory address observed in the slot counts one **access** for its
  bucket;
* the slot's loads (and separately stores) are grouped by 128-byte
  segment; each bucket is charged ``touched - ideal`` segments as
  **waste** transactions, where ``ideal`` is the fewest segments that
  could hold the bucket's distinct addresses — i.e. the coalescing
  shortfall attributable to that bucket's placement;
* a slot issuing ``k > 1`` distinct op kinds charges ``k - 1``
  **divergent slots** to every bucket it touched (divergence serializes
  the whole warp, so every participant pays it; overlaps across buckets
  are intended and documented).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .addrmap import AddressMap
from .races import DeviceProbe

#: op-kind tags for divergence grouping (mirrors Warp.step's bitmask)
_KIND_TAG = {
    "Load": "mem",
    "Store": "st",
    "AtomicCAS": "atomic",
    "AtomicAdd": "atomic",
    "AtomicExch": "atomic",
    "Alu": "alu",
    "Branch": "ctrl",
    "Mark": "mark",
}


@dataclass
class BucketStats:
    """Aggregated penalties for one address class."""

    accesses: int = 0
    transactions: int = 0
    waste: int = 0
    divergent_slots: int = 0

    @property
    def score(self) -> int:
        return self.waste + self.divergent_slots


@dataclass
class HotspotReport:
    """Ranked per-bucket penalties plus the hottest individual nodes."""

    buckets: dict[str, BucketStats]
    hot_nodes: list[tuple[int, int, str]]  # (node_id, accesses, name)
    slots: int

    def ranked(self) -> list[tuple[str, BucketStats]]:
        return sorted(
            self.buckets.items(), key=lambda kv: kv[1].score, reverse=True
        )

    def render(self) -> str:
        lines = [
            f"hotspots over {self.slots} warp slots "
            "(waste = uncoalesced transactions, div = serialized slots)",
            f"{'bucket':<16}{'accesses':>10}{'trans':>8}{'waste':>8}{'div':>8}",
        ]
        for name, b in self.ranked():
            lines.append(
                f"{name:<16}{b.accesses:>10}{b.transactions:>8}"
                f"{b.waste:>8}{b.divergent_slots:>8}"
            )
        if self.hot_nodes:
            lines.append("hottest nodes:")
            for node, count, name in self.hot_nodes:
                lines.append(f"  {name}: {count} accesses")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "slots": self.slots,
            "buckets": {
                name: {
                    "accesses": b.accesses,
                    "transactions": b.transactions,
                    "waste": b.waste,
                    "divergent_slots": b.divergent_slots,
                }
                for name, b in self.ranked()
            },
            "hot_nodes": [
                {"node": node, "accesses": count, "name": name}
                for node, count, name in self.hot_nodes
            ],
        }


class HotspotProfiler(DeviceProbe):
    """Per-slot divergence/coalescing attributor (attach like a Sanitizer)."""

    def __init__(self, words_per_segment: int = 16, top_nodes: int = 5) -> None:
        self.map = AddressMap()
        self.words_per_segment = words_per_segment
        self.top_nodes = top_nodes
        self._buckets: dict[str, BucketStats] = {}
        self._node_heat: dict[int, int] = {}
        self._slots = 0
        # in-flight slot: op-kind tags seen + (kind is load?, addr) accesses
        self._tags: set = set()
        self._accs: list[tuple[bool, int]] = []
        self._pending = False

    def watch_tree(self, tree) -> None:
        self.map.watch_tree(tree)

    def watch_stm_region(self, region) -> None:
        self.map.watch_stm_region(region)

    def add_lock_word(self, addr: int, name: str = "latch") -> None:
        self.map.add_lock_word(addr, name)

    # -- probe hooks ----------------------------------------------------- #
    def begin_slot(self, warp_id: int) -> None:
        self._flush()
        self._pending = True
        self._slots += 1

    def end_launch(self, counters) -> None:
        self._flush()

    def observe(self, warp_id, lane, op, result, gen) -> None:
        tag = _KIND_TAG.get(type(op).__name__)
        if tag is None:  # Noop: predicated-off lane, free
            return
        self._tags.add(tag)
        if tag in ("mem", "st", "atomic"):
            self._accs.append((tag == "mem", op.addr))

    # -- aggregation ------------------------------------------------------ #
    def _bucket(self, name: str) -> BucketStats:
        b = self._buckets.get(name)
        if b is None:
            b = self._buckets[name] = BucketStats()
        return b

    def _flush(self) -> None:
        if not self._pending:
            return
        self._pending = False
        tags, accs = self._tags, self._accs
        self._tags = set()
        self._accs = []
        if not tags:
            return
        extra = len(tags) - 1
        touched: set[str] = set()
        # group addresses by (is_load, bucket) for coalescing attribution
        by_bucket: dict[tuple[bool, str], set[int]] = {}
        wps = self.words_per_segment
        for is_load, addr in accs:
            name = self.map.bucket(addr)
            touched.add(name)
            self._bucket(name).accesses += 1
            by_bucket.setdefault((is_load, name), set()).add(addr)
            node = self.map.node_of(addr)
            if node is not None:
                self._node_heat[node] = self._node_heat.get(node, 0) + 1
        for (_, name), addrs in by_bucket.items():
            segs = len({a // wps for a in addrs})
            ideal = (len(addrs) + wps - 1) // wps
            b = self._bucket(name)
            b.transactions += segs
            b.waste += segs - ideal
        if extra > 0:
            for name in touched or {"control"}:
                self._bucket(name).divergent_slots += extra

    def report(self) -> HotspotReport:
        self._flush()
        hot = sorted(
            self._node_heat.items(), key=lambda kv: kv[1], reverse=True
        )[: self.top_nodes]
        return HotspotReport(
            buckets=dict(self._buckets),
            hot_nodes=[
                (node, count, f"node {node}") for node, count in hot
            ],
            slots=self._slots,
        )


def attach_hotspots(system, top_nodes: int = 5) -> HotspotProfiler:
    """Attach a :class:`HotspotProfiler` to a constructed system (same
    registration rules as :func:`~repro.analysis.races.attach_sanitizer`)."""
    prof = HotspotProfiler(
        words_per_segment=system.devctx.arena.words_per_segment,
        top_nodes=top_nodes,
    )
    prof.watch_tree(system.tree)
    stm = getattr(system, "stm", None)
    if stm is not None:
        prof.watch_stm_region(stm.region)
    smo = getattr(system, "smo_lock_addr", None)
    if smo is not None:
        prof.add_lock_word(smo, "smo latch")
    system.devctx.attach_probe(prof)
    return prof
