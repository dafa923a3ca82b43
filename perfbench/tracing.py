"""Traced-run recorder: spans around the library's public layer functions,
installed from outside by patching.

A :class:`Span` records name, start, end, parent span and batch id; spans
stay in memory and are written out when the run ends. Functions called tens
of thousands of times per batch (``Warp.step``, the B+tree host ops) are
*leaf timers* instead: each keeps a call count and total seconds on the
innermost open span, which bounds memory and overhead. A span's self time is
its duration minus the time its child spans and its outermost leaf calls
cover.

Each wrapper is installed at the name its caller looks up — a class
attribute for methods, the importing module's global for functions bound by
``from ... import`` (``repro.core.combining.radix_argsort``,
``repro.sharding.parallel.merge_shard_outcomes``). :class:`PatchSet`
restores every original on exit, and :meth:`PatchSet.suspended` lifts the
wrappers while worker processes are forked, so workers run unpatched code.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import BPlusTree
from repro.core import combining
from repro.sharding import ShardRouter, parallel
from repro.simt import KernelLaunch, Warp


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int  # index into Recorder.spans, -1 for a root span
    batch: int  # Recorder.batch when the span opened, -1 outside batches
    end: float = 0.0
    #: leaf timer name -> [calls, seconds]
    leaves: dict = field(default_factory=dict)
    #: seconds of outermost leaf calls (subtracted for self time)
    covered: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.batch = -1
        self._stack: list[int] = []
        self._leaf_depth = 0

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block as one span under the open span."""
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, time.perf_counter(), parent, self.batch, attrs=attrs)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap_span(self, name: str, fn, on_exit=None):
        """``fn`` recorded as a span; ``on_exit(span, args, result)`` may
        attach counts measured at the same boundary."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if on_exit is not None:
                    on_exit(sp, args, result)
            return result

        return wrapper

    def wrap_leaf(self, name: str, fn):
        """``fn`` timed into the innermost open span's leaf table."""
        spans = self.spans
        open_spans = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not open_spans:
                return fn(*args, **kwargs)
            self._leaf_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._leaf_depth -= 1
                sp = spans[open_spans[-1]]
                entry = sp.leaves.get(name)
                if entry is None:
                    sp.leaves[name] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt
                if self._leaf_depth == 0:
                    sp.covered += dt

        return wrapper

    # ------------------------------------------------------------------ #
    def self_times(self) -> list[float]:
        """Per span: duration minus child spans and outermost leaf calls."""
        out = [sp.duration - sp.covered for sp in self.spans]
        for sp in self.spans:
            if sp.parent >= 0:
                out[sp.parent] -= sp.duration
        return out

    def to_dict(self) -> dict:
        selfs = self.self_times()
        return {
            "spans": [
                {
                    "name": sp.name,
                    "start": sp.start,
                    "end": sp.end,
                    "parent": sp.parent,
                    "batch": sp.batch,
                    "self_s": s,
                    "leaves": sp.leaves,
                    "attrs": sp.attrs,
                }
                for sp, s in zip(self.spans, selfs)
            ]
        }


def _launch_counts(span: Span, args, counters) -> None:
    span.attrs["slots"] = counters.issued_slots
    span.attrs["divergent"] = counters.divergent_slots


class Patch:
    """One attribute replaced by a wrapper of its current value."""

    def __init__(self, owner, attr: str, make_wrapper) -> None:
        self.owner = owner
        self.attr = attr
        self.make_wrapper = make_wrapper
        self.original = owner.__dict__[attr]

    def install(self) -> None:
        raw = self.original
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.make_wrapper(raw.__func__))
        else:
            wrapped = self.make_wrapper(raw)
        setattr(self.owner, self.attr, wrapped)

    def uninstall(self) -> None:
        setattr(self.owner, self.attr, self.original)

    @property
    def installed(self) -> bool:
        return self.owner.__dict__[self.attr] is not self.original


class PatchSet:
    """The benchmark's wrappers over every traced layer, installed as a
    context manager and always removed on exit."""

    def __init__(self, recorder: Recorder) -> None:
        rec = recorder
        self.patches = [
            Patch(KernelLaunch, "run", lambda f: rec.wrap_span("simt.launch", f, _launch_counts)),
            Patch(Warp, "step", lambda f: rec.wrap_leaf("simt.step", f)),
            Patch(BPlusTree, "build", lambda f: rec.wrap_span("btree.build", f)),
            *(
                Patch(BPlusTree, op, lambda f: rec.wrap_leaf("btree.op", f))
                for op in ("search", "upsert", "delete", "range_scan")
            ),
            *(
                Patch(combining, fn, lambda f: rec.wrap_leaf("gpuprims", f))
                for fn in ("radix_argsort", "run_heads", "run_lengths")
            ),
            Patch(ShardRouter, "route", lambda f: rec.wrap_span("shard.route", f)),
            Patch(parallel, "merge_shard_outcomes", lambda f: rec.wrap_span("shard.merge", f)),
        ]

    def __enter__(self) -> "PatchSet":
        try:
            for p in self.patches:
                p.install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        for p in self.patches:
            p.uninstall()

    @contextmanager
    def suspended(self):
        """Originals back in place for the enclosed block (worker forks)."""
        self._uninstall()
        try:
            yield
        finally:
            for p in self.patches:
                p.install()

    @property
    def any_installed(self) -> bool:
        return any(p.installed for p in self.patches)
