"""Run one workload and turn what it measured into the benchmark's metrics.

The library is driven from outside only: systems come from
:func:`repro.make_system` or :class:`repro.sharding.ParallelShardedSystem`,
batches go through ``process_batch``. The run builds every system, then
feeds each batch of the stream to the four systems in turn, so host noise
lands on all of them alike. Every result is checked
(:mod:`perfbench.checks`); a wrong result or a batch that raises counts as
failed operations.

Host times are normalized to a reference host speed
(:mod:`perfbench.calibration`); modeled times come from the outcomes.
"""

from __future__ import annotations

import gc
import resource
import statistics
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro import make_system
from repro.sharding import ParallelShardedSystem

from .calibration import HostSpeed
from .checks import Reference, make_check
from .tracing import PatchSet, Recorder
from .workloads import DEVICE_SEED, SYSTEMS, Inputs, Workload, make_inputs

#: pipeline passes whose host time the per-layer metrics name, per system
NAMED_PASSES = {
    "nocc": ("kernel", "apply"),
    "stm": ("kernel", "apply"),
    "lock": ("kernel", "apply"),
    "eirene": ("combine", "locality", "query_kernel", "update_kernel", "range_scan", "result_cal"),
}


class Handle:
    """One system under test, single tree or fleet, behind one surface."""

    def __init__(self, workload: Workload, name: str, inputs: Inputs) -> None:
        kwargs = dict(
            tree_config=workload.tree_config,
            device=workload.device,
            fill_factor=workload.fill_factor,
        )
        if workload.shards:
            self.system = ParallelShardedSystem(
                name, inputs.keys, inputs.values, workload.shards,
                n_workers=workload.workers, seed=DEVICE_SEED, **kwargs,
            )
            self.arena = None  # shard arenas live in the workers
        else:
            self.system = make_system(
                name, inputs.keys, inputs.values, seed=DEVICE_SEED, **kwargs
            )
            self.arena = self.system.tree.arena

    def items(self):
        if self.arena is None:
            return self.system.items()
        return self.system.tree.items()

    def validate(self) -> None:
        if self.arena is None:
            self.system.validate()
        else:
            self.system.tree.validate()

    def close(self) -> None:
        if self.arena is None:
            self.system.close()


@dataclass
class Sample:
    """What one ``process_batch`` call measured."""

    system: str
    n: int
    wall_s: float
    #: index of the host-speed calibration sample taken before the batch
    cal: int
    modeled_s: float
    mem_inst: float
    ctrl_inst: float
    transactions: float
    conflicts: float
    traversal_steps: float
    #: host seconds per pipeline pass (summed over shards on a fleet)
    pass_wall: dict
    stm_begins: int = 0
    stm_commits: int = 0
    lock_acquires: int = 0
    lock_spins: int = 0
    n_combined: int = 0
    #: arena accesses during the batch (None on a fleet)
    mem_accesses: int | None = None
    #: per-shard (trace wall, unnamed-pass wall) on a fleet
    shard_walls: dict | None = None
    response_s: np.ndarray | None = None


@dataclass
class RunData:
    workload: Workload
    samples: list[Sample] = field(default_factory=list)
    #: (host seconds, calibration index) of every set-up of the four systems
    setups: list[tuple[float, int]] = field(default_factory=list)
    speeds: HostSpeed = field(default_factory=HostSpeed)
    attempted: int = 0
    failed: dict = field(default_factory=lambda: {s: 0 for s in SYSTEMS})
    errors: list[str] = field(default_factory=list)

    def of(self, system: str) -> list[Sample]:
        return [x for x in self.samples if x.system == system]

    def normalized_wall(self, x: Sample) -> float:
        return self.speeds.normalized(x.wall_s, x.cal)


def _sample(system: str, batch, outcome, timing, accesses) -> Sample:
    pass_wall: dict[str, float] = {}
    for r in outcome.trace.records:
        pass_wall[r.name] = pass_wall.get(r.name, 0.0) + r.wall_s
    x = outcome.extras
    shard_walls = None
    if "shard_traces" in x:
        named = NAMED_PASSES[system]
        shard_walls = {
            s: (t.wall_total_s, sum(r.wall_s for r in t.records if r.name not in named))
            for s, t in x["shard_traces"].items()
        }
    stm, locks = x.get("stm"), x.get("locks")
    return Sample(
        system=system,
        n=batch.n,
        wall_s=timing.wall_s,
        cal=timing.cal,
        modeled_s=outcome.seconds,
        mem_inst=outcome.mem_inst,
        ctrl_inst=outcome.control_inst,
        transactions=outcome.transactions,
        conflicts=outcome.conflicts,
        traversal_steps=outcome.traversal_steps,
        pass_wall=pass_wall,
        stm_begins=stm.begins if stm else 0,
        stm_commits=stm.commits if stm else 0,
        lock_acquires=locks.acquires if locks else 0,
        lock_spins=locks.spins if locks else 0,
        n_combined=int(x.get("n_combined", 0)),
        mem_accesses=accesses,
        shard_walls=shard_walls,
        response_s=outcome.response_time_s if system == "eirene" else None,
    )


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    recorder: Recorder | None = None,
    patches: PatchSet | None = None,
) -> RunData:
    """Run ``workload`` for a run of nominal length ``seconds``.

    With a ``recorder`` (and its installed ``patches``), set-up and every
    ``process_batch`` call are recorded as spans; fleets are forked with the
    patches lifted, so their workers run unpatched code.
    """
    inputs = make_inputs(workload, seed, workload.n_batches(seconds))
    data = RunData(workload=workload)
    handles: dict[str, Handle] = {}
    try:
        for _ in range(workload.setup_repeats):
            for h in handles.values():
                h.close()
            handles = {}
            gc.collect()
            with data.speeds.timed() as timing:
                for name in SYSTEMS:
                    if recorder is None:
                        handles[name] = Handle(workload, name, inputs)
                    elif workload.shards:
                        with recorder.span("setup", system=name), patches.suspended():
                            handles[name] = Handle(workload, name, inputs)
                    else:
                        with recorder.span("setup", system=name):
                            handles[name] = Handle(workload, name, inputs)
            data.setups.append((timing.wall_s, timing.cal))
        reference = Reference(inputs.keys, inputs.values)
        checks = {name: make_check(name, workload.engine, reference) for name in SYSTEMS}
        for batch in inputs.batches:
            for name in SYSTEMS:
                _run_batch(data, name, handles[name], checks[name], batch, recorder)
        for name in SYSTEMS:
            data.failed[name] += _end_of_run(data, handles[name], checks[name])
    finally:
        for h in handles.values():
            h.close()
    return data


def _run_batch(data: RunData, name: str, handle: Handle, check, batch, recorder) -> None:
    data.attempted += batch.n
    check.before(batch, handle.items)
    before = handle.arena.stats.accesses if recorder and handle.arena else None
    # every timed call starts from a collected heap, so the collections
    # inside it do not depend on the garbage earlier calls left behind
    gc.collect()
    try:
        with data.speeds.timed() as timing:
            if recorder is None:
                outcome = handle.system.process_batch(batch, engine=data.workload.engine)
            else:
                recorder.batch = len(data.samples)
                try:
                    with recorder.span("batch", system=name):
                        outcome = handle.system.process_batch(batch, engine=data.workload.engine)
                finally:
                    recorder.batch = -1
    except Exception:  # the run goes on; the whole batch counts as failed
        data.errors.append(traceback.format_exc())
        data.failed[name] += batch.n
        return
    accesses = handle.arena.stats.accesses - before if before is not None else None
    data.samples.append(_sample(name, batch, outcome, timing, accesses))
    data.failed[name] += check.after(batch, outcome.results)


def _end_of_run(data: RunData, handle: Handle, check) -> int:
    """Final-state check and tree validation; each broken key or failed
    validation is one failed operation."""
    try:
        bad = check.final(handle.items)
        handle.validate()
    except Exception:
        data.errors.append(traceback.format_exc())
        return 1
    return bad


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def modeled_metrics(data: RunData) -> dict[str, float]:
    """Simulated A100 quantities: deterministic for a seed and run length."""
    rate = {
        s: _ratio(sum(x.n for x in data.of(s)), sum(x.modeled_s for x in data.of(s)))
        for s in SYSTEMS
    }
    resp = np.concatenate([x.response_s for x in data.of("eirene")])
    return {
        "modeled_req_per_s.eirene": rate["eirene"],
        "modeled_speedup_vs_stm": _ratio(rate["eirene"], rate["stm"]),
        "modeled_speedup_vs_lock": _ratio(rate["eirene"], rate["lock"]),
        "modeled_resp_p50_ns.eirene": float(np.percentile(resp, 50)) * 1e9,
        "modeled_resp_p99_ns.eirene": float(np.percentile(resp, 99)) * 1e9,
    }


def qos_variance(data: RunData) -> float:
    """The paper's Fig. 2/8 statistic, as ``SystemRun.qos_variance``: the
    largest deviation of one batch's average response time from the mean
    over batches, as a fraction of that mean."""
    batch_avg = np.array([x.response_s.mean() for x in data.of("eirene")])
    m = batch_avg.mean()
    return float(max(batch_avg.max() - m, m - batch_avg.min()) / m)


def device_metrics(data: RunData) -> dict[str, float]:
    """Device counters per request, read from the batch outcomes."""
    out = {}
    for s in SYSTEMS:
        xs = data.of(s)
        n = sum(x.n for x in xs)
        out[f"device.{s}.mem_inst_per_req"] = _ratio(sum(x.mem_inst for x in xs), n)
        out[f"device.{s}.ctrl_inst_per_req"] = _ratio(sum(x.ctrl_inst for x in xs), n)
        out[f"device.{s}.transactions_per_req"] = _ratio(sum(x.transactions for x in xs), n)
        out[f"device.{s}.conflicts_per_req"] = _ratio(sum(x.conflicts for x in xs), n)
        out[f"device.{s}.traversal_steps"] = _ratio(
            sum(x.traversal_steps * x.n for x in xs), n
        )
    return out


def end_to_end(data: RunData) -> dict[str, float]:
    out = {"setup_s": statistics.median(data.speeds.normalized(*t) for t in data.setups)}
    for s in SYSTEMS:
        out[f"host_req_per_s.{s}"] = statistics.median(
            x.n / data.normalized_wall(x) for x in data.of(s)
        )
    out["peak_rss_mb"] = _peak_rss_mb()
    out.update(modeled_metrics(data))
    return out


def per_layer(data: RunData, recorder: Recorder, overhead_ratio: float) -> dict[str, float]:
    """Layer metrics of a traced run, host times as raw seconds per batch; a
    layer that does not run on the workload (or runs only inside fleet
    workers) reports 0."""
    acc = {
        s: dict.fromkeys(("launch", "step", "launches", "slots", "divergent", "btree", "ops",
                          "gpuprims", "route", "merge"), 0.0)
        for s in SYSTEMS
    }
    build_s = 0.0
    for sp in recorder.spans:
        if sp.name == "btree.build":
            build_s += sp.duration
        if sp.batch < 0:
            continue
        a = acc[data.samples[sp.batch].system]
        if sp.name == "simt.launch":
            a["launch"] += sp.duration
            a["launches"] += 1
            a["slots"] += sp.attrs["slots"]
            a["divergent"] += sp.attrs["divergent"]
            a["step"] += sp.leaves.get("simt.step", (0, 0.0))[1]
        elif sp.name == "shard.route":
            a["route"] += sp.duration
        elif sp.name == "shard.merge":
            a["merge"] += sp.duration
        calls, secs = sp.leaves.get("btree.op", (0, 0.0))
        a["btree"] += secs
        a["ops"] += calls
        a["gpuprims"] += sp.leaves.get("gpuprims", (0, 0.0))[1]

    out: dict[str, float] = {}
    fleet = data.workload.shards > 0
    for s in SYSTEMS:
        xs = data.of(s)
        nb = max(len(xs), 1)
        n = sum(x.n for x in xs)
        named = NAMED_PASSES[s]
        for p in named:
            out[f"pipeline.{s}.{p}_s"] = sum(x.pass_wall.get(p, 0.0) for x in xs) / nb
        if fleet:
            other = sum(u for x in xs for _, u in x.shard_walls.values())
        else:
            other = sum(x.wall_s - sum(x.pass_wall.get(p, 0.0) for p in named) for x in xs)
        out[f"pipeline.{s}.other_s"] = other / nb

        a = acc[s]
        out[f"simt.{s}.launch_s"] = a["launch"] / nb
        out[f"simt.{s}.step_s"] = a["step"] / nb
        out[f"simt.{s}.sched_s"] = (a["launch"] - a["step"]) / nb
        out[f"simt.{s}.ns_per_slot"] = _ratio(a["launch"], a["slots"]) * 1e9
        out[f"simt.{s}.launches"] = a["launches"] / nb
        out[f"simt.{s}.slots_per_req"] = _ratio(a["slots"], n)
        out[f"simt.{s}.divergent_frac"] = _ratio(a["divergent"], a["slots"])

        out[f"btree.{s}.host_ops_s"] = a["btree"] / nb
        out[f"btree.{s}.host_us_per_op"] = _ratio(a["btree"], a["ops"]) * 1e6
        out[f"memory.{s}.accesses_per_req"] = _ratio(sum(x.mem_accesses or 0 for x in xs), n)

        route, merge = a["route"] / nb, a["merge"] / nb
        worker = wait = imbalance = 0.0
        if fleet:
            w = data.workload.workers
            for x in xs:
                load = [0.0] * w
                for shard, (wall, _) in x.shard_walls.items():
                    load[shard % w] += wall  # worker w owns shards s with s % w
                worker += max(load) / nb
                wait += (x.wall_s - max(load)) / nb
                imbalance += _ratio(max(load), sum(load) / w) / nb
            wait -= route + merge
        out[f"shard.{s}.route_s"] = route
        out[f"shard.{s}.merge_s"] = merge
        out[f"shard.{s}.worker_s"] = worker
        out[f"shard.{s}.wait_s"] = wait
        out[f"shard.{s}.imbalance"] = imbalance

    out.update(device_metrics(data))
    out["qos_variance.eirene"] = qos_variance(data)
    for s in ("stm", "eirene"):
        xs = data.of(s)
        out[f"stm.{s}.commit_frac"] = _ratio(
            sum(x.stm_commits for x in xs), sum(x.stm_begins for x in xs)
        )
    xs = data.of("lock")
    acquires = sum(x.lock_acquires for x in xs)
    out["locks.lock.acquire_frac"] = _ratio(acquires, acquires + sum(x.lock_spins for x in xs))
    xs = data.of("eirene")
    out["combining.eirene.combined_frac"] = _ratio(
        sum(x.n_combined for x in xs), sum(x.n for x in xs)
    )
    out["btree.build_s"] = build_s / max(len(data.setups), 1)
    out["gpuprims.eirene.s"] = acc["eirene"]["gpuprims"] / max(len(xs), 1)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def simulated(data: RunData) -> dict[str, float]:
    """Every modeled metric and device count: what tracing must not change."""
    return {**modeled_metrics(data), "qos_variance.eirene": qos_variance(data),
            **device_metrics(data)}


def observed_identically(plain: RunData, traced: RunData) -> list[str]:
    """Names of modeled or device metrics that differ between the runs."""
    a, b = simulated(plain), simulated(traced)
    return sorted(k for k in a if a[k] != b[k])


def process_wall(data: RunData) -> float:
    """Speed-normalized host seconds spent inside ``process_batch``."""
    return sum(data.normalized_wall(x) for x in data.samples)
