"""Benchmark entry point.

    python3 perfbench/run.py --workload simt-ycsb-a --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
``--trace 0`` reports the end-to-end metrics, measured with no wrapper
installed. ``--trace 1`` runs the same inputs twice, untraced and then with
every layer wrapped, and reports the per-layer metrics plus the traced over
untraced wall ratio; the spans are written to
``.bench_out/trace-<workload>-seed<seed>.json``.

Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout holding src/repro and BENCHMARK.json ({ROOT})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench import bench
    from perfbench.tracing import PatchSet, Recorder
    from perfbench.workloads import SYSTEMS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; use one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]

    runs = [bench.run(workload, args.seed, args.seconds)]
    problems: list[str] = []
    if args.trace:
        recorder = Recorder()
        with PatchSet(recorder) as patches:
            runs.append(bench.run(workload, args.seed, args.seconds, recorder, patches))
        if patches.any_installed:
            problems.append("a wrapper is still installed after the traced run")
        problems += [
            f"tracing changed {name}" for name in bench.observed_identically(*runs)
        ]
        overhead = bench.process_wall(runs[1]) / bench.process_wall(runs[0])
        metrics = bench.per_layer(runs[1], recorder, overhead)
        declared = spec["per_layer"]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(recorder.to_dict()))
    else:
        metrics = bench.end_to_end(runs[0])
        declared = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(set(metrics) ^ set(units))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 3

    attempted = sum(r.attempted for r in runs)
    failed = {s: sum(r.failed[s] for r in runs) for s in SYSTEMS}
    errors = [e for r in runs for e in r.errors]
    for e in errors:
        print(e, file=sys.stderr)
    # NoCC, STM and Lock promise no linearizability on the SIMT engine: their
    # wrong results are counted as failed but do not make the run incorrect
    guaranteed = [s for s in SYSTEMS if workload.engine == "vector" or s == "eirene"]
    problems += [f"{s} failed {failed[s]} checks" for s in guaranteed if failed[s]]
    problems += [f"{len(errors)} batch or validation errors"] if errors else []

    n_resp = sum(x.n for r in runs[:1] for x in r.of("eirene"))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  "
          f"batches {len(runs[0].of('eirene'))}  set-ups {len(runs[0].setups)}")
    for name in units:
        print(f"  {name:<40} {metrics[name]:>16.6g} {units[name]}")
    print(f"  response-time percentiles pooled over {n_resp} Eirene requests")
    print(f"  attempted {attempted}  failed {sum(failed.values())}  "
          + "  ".join(f"{s}={failed[s]}" for s in SYSTEMS))
    for p in problems:
        print(f"  problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(failed.values()),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
