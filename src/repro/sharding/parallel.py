"""The shard fleet: N key-range shards of one system, in-process or on workers.

:class:`ParallelShardedSystem` owns one fully independent system per shard
— each with its own :class:`~repro.device.DeviceContext` (arena, cost
model, RNG seed), tree and synchronization machinery — plus the
:class:`~repro.sharding.router.ShardRouter` that splits every incoming
batch at the plan's fence keys. Processing a batch routes it, pushes each
non-empty sub-batch through that shard's ordinary pass pipeline, and
merges the per-shard outcomes with
:func:`~repro.sharding.merge.merge_shard_outcomes`. The merged ``seconds``
is the straggler shard's time: shards model *separate GPUs running
concurrently*.

With ``n_workers > 0`` the shard systems live in persistent *worker
processes*: worker ``w`` owns shards ``s`` with ``s % n_workers == w`` and
builds them itself, so shard state never crosses a process boundary — only
routed sub-batches go down the pipe and
:class:`~repro.baselines.base.BatchOutcome` objects come back. With
``n_workers=0`` (or when ``fork`` is refused) the caller's process owns
every shard. Both modes build shards with the same call and serve every
request through the same handler, :func:`_serve`.

Determinism is by construction, not by luck:

* a shard's system evolves only through its own sub-batch sequence, which
  is independent of how shards are packed onto workers — so every counter,
  tree word and QoS sample per shard is identical for 0, 1, 2 or 4 workers;
* :func:`_serve` handles each owned shard independently, so a shard that
  fails does not stop the others, whatever the packing;
* the parent always reassembles outcomes **in shard order** before calling
  :func:`~repro.sharding.merge.merge_shard_outcomes`, so the merged outcome
  never depends on which worker answered first (the parent does not even
  select on readiness — it drains pipes in worker order after broadcasting
  all jobs).
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from functools import partial

import numpy as np

from ..errors import ConfigError, SimulationError
from ..lincheck import SequentialReference
from ..workloads.requests import RequestBatch
from .merge import merge_shard_outcomes
from .router import ShardPlan, ShardRouter


def _serve(shards: dict, msg: tuple) -> tuple:
    """Serve one fleet request against the shard systems this process owns.

    The request handler of both fleet modes: workers call it for every
    message off their pipe, the in-process fleet calls it directly. Each
    owned shard is served on its own, so a failing shard neither stops the
    others nor makes the outcome depend on the shard-to-worker packing.
    Returns ``("ok", [(shard, payload), ...])`` or
    ``("error", [(shard, traceback_text), ...])``.
    """
    kind = msg[0]
    if kind == "build":
        _, system, seed, make_kwargs, loads = msg
        from ..factory import make_system

        def build(s: int, ks: np.ndarray, vs: np.ndarray) -> str:
            shards[s] = make_system(system, ks, vs, seed=seed + s, **make_kwargs)
            return shards[s].name

        work = [(s, partial(build, s, ks, vs)) for s, ks, vs in loads]
    elif kind == "batch":
        _, jobs, engine = msg
        work = [
            (s, partial(shards[s].process_batch, b, engine=engine)) for s, b in jobs
        ]
    elif kind == "items":
        work = [(s, shards[s].tree.items) for s in sorted(shards)]
    elif kind == "validate":
        work = [(s, shards[s].tree.validate) for s in sorted(shards)]
    else:
        raise ValueError(f"unknown fleet message {kind!r}")
    done, failed = [], []
    for s, fn in work:
        try:
            done.append((s, fn()))
        except Exception:
            failed.append((s, traceback.format_exc()))
    return ("error", failed) if failed else ("ok", done)


def _worker_lost(owned: list[int]) -> tuple:
    """The error reply standing in for a worker process that died."""
    return "error", [(s, "shard worker exited") for s in owned]


def _worker_main(conn) -> None:
    """Worker loop: serve requests until ``close`` or the parent goes away."""
    shards: dict = {}
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg[0] == "close":
            conn.send(("ok", []))
            return
        conn.send(_serve(shards, msg))


class ParallelShardedSystem:
    """N key-range shards of one system kind behind one router.

    ``n_workers=0`` keeps every shard in the caller's process; ``n_workers
    > 0`` spreads them over that many worker processes (at most one per
    shard). Shard ``s`` gets device seed ``seed + s``; ``make_kwargs`` go
    to :func:`repro.factory.make_system`. Use as a context manager, or call
    :meth:`close` when done, to reap the workers.
    """

    def __init__(
        self,
        system: str,
        keys: np.ndarray,
        values: np.ndarray,
        n_shards: int,
        n_workers: int = 0,
        seed: int = 0,
        **make_kwargs,
    ) -> None:
        if n_workers < 0:
            raise ConfigError(f"n_workers must be >= 0, got {n_workers}")
        self.plan = ShardPlan.from_pool(keys, n_shards)
        self.router = ShardRouter(self.plan)
        self.n_workers = min(n_workers, n_shards)
        #: shard systems when the caller's process owns them, else None
        self._shards: dict | None = None
        self._workers: list[tuple[object, object]] = []  # (Process, Connection)
        if self.n_workers:
            try:
                self._start_workers()
            except OSError:  # fork refused (sandbox, rlimit): run in-process
                self.close()
                self.n_workers = 0
        if not self.n_workers:
            self._shards = {}
        #: shard ids served by each worker (one entry in-process)
        self._owned = [
            list(range(w, n_shards, self.n_workers)) for w in range(self.n_workers)
        ] or [list(range(n_shards))]
        parts = self.plan.partition_pool(keys, values)
        try:
            names = self._exchange([
                ("build", system, seed, make_kwargs, [(s, *parts[s]) for s in owned])
                for owned in self._owned
            ])
        except BaseException:
            self.close()
            raise
        self.name = f"{names[0]}x{n_shards}"

    def _start_workers(self) -> None:
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix platform
            ctx = mp.get_context()
        for _ in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
            proc.start()
            child_conn.close()
            self._workers.append((proc, parent_conn))

    # ------------------------------------------------------------------ #
    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    def _exchange(self, msgs: list) -> dict:
        """Send ``msgs[w]`` to worker ``w`` (``None``: nothing for it) and
        return ``{shard: payload}`` over all replies.

        Every pending reply is drained before a failure is raised, so the
        next request never reads a stale reply. The raised
        :class:`~repro.errors.SimulationError` names the failing shards.
        """
        if self._shards is not None:
            replies = [_serve(self._shards, m) for m in msgs if m is not None]
        else:
            replies, sent = [], []
            for (_, conn), owned, msg in zip(self._workers, self._owned, msgs):
                if msg is None:
                    continue
                try:
                    conn.send(msg)
                    sent.append((conn, owned))
                except OSError:  # the worker is gone
                    replies.append(_worker_lost(owned))
            for conn, owned in sent:  # drain in worker order: no readiness races
                try:
                    replies.append(conn.recv())
                except (EOFError, OSError):
                    replies.append(_worker_lost(owned))
        failed = sorted(f for status, pairs in replies if status != "ok" for f in pairs)
        if failed:
            ids = ", ".join(str(s) for s, _ in failed)
            raise SimulationError(
                f"shard {ids} failed:\n" + "\n".join(text for _, text in failed)
            )
        return {s: payload for _, pairs in replies for s, payload in pairs}

    # ------------------------------------------------------------------ #
    def process_batch(self, batch: RequestBatch, engine: str = "vector"):
        """Route, hand each owner its non-empty sub-batches, merge in shard order."""
        batch.check_point_keys()
        routed = self.router.route(batch)
        msgs = []
        for owned in self._owned:
            jobs = [(s, routed[s].batch) for s in owned if routed[s].n]
            msgs.append(("batch", jobs, engine) if jobs else None)
        done = self._exchange(msgs)
        outcomes = [done.get(s) for s in range(self.n_shards)]
        return merge_shard_outcomes(batch, routed, outcomes, self.name)

    # ------------------------------------------------------------------ #
    def _shard_items(self) -> list[tuple[np.ndarray, np.ndarray]]:
        per_shard = self._exchange([("items",)] * len(self._owned))
        return [per_shard[s] for s in range(self.n_shards)]

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All (key, value) pairs across shards, in global key order."""
        ks, vs = zip(*self._shard_items())
        return np.concatenate(ks), np.concatenate(vs)

    def validate(self) -> None:
        """Every shard tree is valid and respects its fence bounds."""
        self._exchange([("validate",)] * len(self._owned))
        for s, (keys, _) in enumerate(self._shard_items()):
            if keys.size == 0:
                continue
            lo, hi = self.plan.bounds(s)
            if int(keys[0]) < lo or int(keys[-1]) > hi:
                raise ConfigError(
                    f"shard {s} holds keys outside its range "
                    f"[{lo}, {hi}]: [{keys[0]}, {keys[-1]}]"
                )

    def reference(self) -> SequentialReference:
        """Sequential reference seeded with the fleet's current contents."""
        keys, values = self.items()
        return SequentialReference(keys, values)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the workers down; safe to call more than once."""
        if not self._workers:
            return
        for _, conn in self._workers:
            try:
                conn.send(("close",))
            except OSError:
                pass
        for proc, conn in self._workers:
            try:
                conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
        self._workers = []

    def __enter__(self) -> "ParallelShardedSystem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = f"{self.n_workers}w" if self.n_workers else "in-process"
        return f"ParallelShardedSystem({self.name}, shards={self.n_shards}, {mode})"
