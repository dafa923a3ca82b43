"""Request batches and result containers.

Requests are stored structure-of-arrays (numpy), matching how the real
system buffers them in host memory before transfer (§7). A request's
*logical timestamp* is its index in the batch — its arrival order in the
buffer — which is exactly what the paper's linearizability argument keys on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._types import KIND_DTYPE, MAX_KEY, NULL_VALUE, OpKind
from ..errors import TreeError, WorkloadError


@dataclass
class RequestBatch:
    """One buffered batch of concurrent requests (SoA)."""

    kinds: np.ndarray  # int8 OpKind per request
    keys: np.ndarray  # int64 target key (lower bound for RANGE)
    values: np.ndarray  # int64 payload for UPDATE/INSERT; 0 otherwise
    range_ends: np.ndarray  # int64 inclusive upper bound for RANGE; 0 otherwise

    def __post_init__(self) -> None:
        n = self.kinds.size
        if not (self.keys.size == self.values.size == self.range_ends.size == n):
            raise WorkloadError("request batch arrays must have equal length")
        self.kinds = np.ascontiguousarray(self.kinds, dtype=KIND_DTYPE)
        self.keys = np.ascontiguousarray(self.keys, dtype=np.int64)
        self.values = np.ascontiguousarray(self.values, dtype=np.int64)
        self.range_ends = np.ascontiguousarray(self.range_ends, dtype=np.int64)

    @property
    def n(self) -> int:
        return int(self.kinds.size)

    def __len__(self) -> int:
        return self.n

    @property
    def timestamps(self) -> np.ndarray:
        """Logical timestamps = arrival order in the buffer."""
        return np.arange(self.n, dtype=np.int64)

    def check_point_keys(self) -> None:
        """Raise :class:`~repro.errors.TreeError` unless every non-RANGE
        request's key lies in ``[0, MAX_KEY]`` — ``MAX_KEY + 1`` is the
        empty-slot sentinel, which a leaf search would match. Systems call
        this before any engine or shard touches the batch."""
        keys = self.keys
        bad = keys[(self.kinds != OpKind.RANGE) & ((keys < 0) | (keys > MAX_KEY))]
        if bad.size:
            raise TreeError(f"key {int(bad[0])} out of range")

    def kind_counts(self) -> dict[OpKind, int]:
        return {k: int((self.kinds == k).sum()) for k in OpKind}

    def subset(self, idx: np.ndarray) -> "RequestBatch":
        return RequestBatch(
            kinds=self.kinds[idx],
            keys=self.keys[idx],
            values=self.values[idx],
            range_ends=self.range_ends[idx],
        )

    @classmethod
    def from_ops(cls, ops: list[tuple]) -> "RequestBatch":
        """Build from a list of op tuples — test/example convenience.

        Accepted forms: ``(OpKind.QUERY, key)``, ``(OpKind.UPDATE, key, value)``,
        ``(OpKind.INSERT, key, value)``, ``(OpKind.DELETE, key)``,
        ``(OpKind.RANGE, lo, hi)``.
        """
        n = len(ops)
        kinds = np.zeros(n, dtype=KIND_DTYPE)
        keys = np.zeros(n, dtype=np.int64)
        values = np.zeros(n, dtype=np.int64)
        ends = np.zeros(n, dtype=np.int64)
        for i, op in enumerate(ops):
            kind = OpKind(op[0])
            kinds[i] = kind
            keys[i] = op[1]
            if kind in (OpKind.UPDATE, OpKind.INSERT):
                if len(op) != 3:
                    raise WorkloadError(f"{kind.name} needs (kind, key, value): {op}")
                values[i] = op[2]
            elif kind == OpKind.RANGE:
                if len(op) != 3:
                    raise WorkloadError(f"RANGE needs (kind, lo, hi): {op}")
                ends[i] = op[2]
                if op[2] < op[1]:
                    raise WorkloadError(f"empty range {op}")
            elif len(op) != 2:
                raise WorkloadError(f"{kind.name} needs (kind, key): {op}")
        return cls(kinds=kinds, keys=keys, values=values, range_ends=ends)


@dataclass
class BatchResults:
    """Results for one batch, indexed by request position (timestamp).

    Point requests put their answer in ``values`` (queries: the value or
    ``NULL_VALUE``; update-class: the *old* value at their linearization
    point, i.e. the value an atomic swap would have returned). Range
    queries store their pairs in the flat ``range_keys``/``range_values``
    arrays, delimited by ``range_offsets``.
    """

    values: np.ndarray
    range_offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    range_keys: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    range_values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @classmethod
    def empty(cls, n: int) -> "BatchResults":
        return cls(
            values=np.full(n, NULL_VALUE, dtype=np.int64),
            range_offsets=np.zeros(n + 1, dtype=np.int64),
        )

    @property
    def n(self) -> int:
        return int(self.values.size)

    def range_result(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = int(self.range_offsets[i]), int(self.range_offsets[i + 1])
        return self.range_keys[lo:hi], self.range_values[lo:hi]

    def set_range_results(self, per_request: dict[int, tuple[np.ndarray, np.ndarray]]) -> None:
        """Install ragged range results from a {request index: (keys, values)} map."""
        counts = np.zeros(self.n, dtype=np.int64)
        for i, (ks, _vs) in per_request.items():
            counts[i] = len(ks)
        self.range_offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.range_offsets[1:])
        total = int(self.range_offsets[-1])
        self.range_keys = np.zeros(total, dtype=np.int64)
        self.range_values = np.zeros(total, dtype=np.int64)
        for i, (ks, vs) in per_request.items():
            lo = int(self.range_offsets[i])
            self.range_keys[lo : lo + len(ks)] = ks
            self.range_values[lo : lo + len(vs)] = vs
