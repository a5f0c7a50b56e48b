"""The repository's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0

One run repeats *episodes* of its workload until ``--seconds`` have
passed (at least three).  An episode sets the workload up from the seed,
runs a fixed amount of work (the timed region), then checks the outputs
outside the timed region.  Every episode of a run uses the same seed, so
their simulated results must be bit-identical; a run where they differ,
or where any output check fails, reports ``"correct": false``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced episodes and reports the per-layer metrics: the traced
episodes give the layer breakdown, the plain ones the tracing overhead.
The last line of standard output is one JSON object; the lines before it
are a human-readable table.  See ``perfbench/README.md`` for what each
metric means and which clock it reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_EPISODES = 3


def _load_program() -> None:
    """Put the repository's ``src`` on the path, or stop without a result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


#: Process-CPU seconds the reference kernel takes on a quiet machine.
REFERENCE_S = 0.014


class _Row:
    __slots__ = ("key", "values")


def _reference_kernel(n: int = 30_000) -> int:
    """Fixed interpreter work, independent of the program under test:
    object allocation, dict inserts and lookups, attribute access.

    The live set stays under 1024 rows, so allocations recycle freed
    blocks: the kernel's time reflects the machine, not the state of the
    heap the program left behind.
    """
    index = {}
    total = 0
    for i in range(n):
        row = _Row()
        row.key = i
        row.values = {"a": i, "b": str(i)}
        index[i & 1023] = row
        total += index[(i >> 1) & 1023].values["a"]
    return total


def _kernel_s() -> tuple:
    """(process-CPU, wall) seconds of one reference kernel run."""
    # Without the collector: a collection would scan the workload's heap
    # and make the kernel's time depend on the program's memory.
    gc.disable()
    try:
        cpu, wall = time.process_time_ns(), time.perf_counter_ns()
        _reference_kernel()
        return ((time.process_time_ns() - cpu) / 1e9,
                (time.perf_counter_ns() - wall) / 1e9)
    finally:
        gc.enable()


def _run_episode(workload, seed: int, tracer=None) -> dict:
    """One episode, plus how much slower than reference the machine ran.

    The reference kernel runs before set-up, before the timed region and
    after it.  Its mean time over :data:`REFERENCE_S` is the slowdown, on
    the CPU clock for CPU figures and on the wall clock for wall figures.
    Real-clock figures are divided by it (throughput multiplied), which
    removes most of the drift other tenants of a shared host cause.
    """
    from perfbench.tracer import percentiles

    kernel = [_kernel_s()]
    gc.collect()
    start = time.process_time_ns()
    state = workload.setup(seed)
    setup_s = (time.process_time_ns() - start) / 1e9
    kernel.append(_kernel_s())
    gc.collect()
    if tracer is not None:
        layer_us, region_ns = tracer.self_us(), tracer.region_ns
        tracer.start()
    start = time.process_time_ns()
    episode = workload.run(state)
    cpu_s = (time.process_time_ns() - start) / 1e9
    if tracer is not None:
        tracer.stop()
    kernel.append(_kernel_s())
    slowdown = statistics.mean(cpu for cpu, _wall in kernel) / REFERENCE_S
    wall_slowdown = statistics.mean(wall for _cpu, wall in kernel) \
        / REFERENCE_S
    result = {"setup_s": setup_s / slowdown,
              "ops_per_s": episode.completed / cpu_s * slowdown,
              "op_us": percentiles([ns / 1000.0 / wall_slowdown
                                    for ns in episode.op_ns]),
              "slowdown": slowdown, "episode": episode,
              "problems": workload.check(state, episode), "stats": {}}
    if tracer is not None:
        result["layer_us"] = {
            layer: (us - layer_us[layer]) / wall_slowdown
            for layer, us in tracer.self_us().items()}
        result["region_us"] = (tracer.region_ns - region_ns) / 1000.0 \
            / wall_slowdown
        result["stats"] = workload.stats(state, episode)
    return result


def _median(runs, key: str) -> float:
    return statistics.median(r[key] for r in runs)


def _end_to_end(plain) -> dict:
    sim = plain[0]["episode"].sim
    return {
        "setup_s": (_median(plain, "setup_s"), "s"),
        "ops_per_s": (_median(plain, "ops_per_s"), "1/s"),
        "op_us_p50": (statistics.median(r["op_us"]["p50"] for r in plain),
                      "us"),
        "op_us_p95": (statistics.median(r["op_us"]["p95"] for r in plain),
                      "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "sim_op_us_mean": (sim["sim_op_us_mean"], "us"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(plain, traced, tracer) -> dict:
    from perfbench.boundaries import LAYERS

    episodes = [r["episode"] for r in traced]
    ops = sum(e.completed for e in episodes)
    txns = sum(e.txns for e in episodes)
    queries = sum(e.queries for e in episodes)
    stats = {}
    for r in traced:
        for name, value in r["stats"].items():
            stats[name] = stats.get(name, 0.0) + value
    calls, probes = tracer.calls, tracer.probes
    spans = tracer.span_counts()
    scans = stats.get("htap.scans_frozen", 0) + stats.get(
        "htap.scans_composed", 0)
    n = len(traced)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = (
            sum(r["layer_us"][layer] for r in traced) / ops, "us")
        metrics[f"{layer}.calls_per_op"] = (spans[layer] / ops, "count")
    metrics.update({
        "trace.region_us_per_op": (
            sum(r["region_us"] for r in traced) / ops, "us"),
        "trace.overhead_ratio": (
            _median(plain, "ops_per_s") / _median(traced, "ops_per_s"),
            "ratio"),
        "trace.ops": (ops, "count"),
        "storage.coerce_rows_per_op": (
            calls["repro.storage.table:TableSchema.coerce_row"] / ops,
            "count"),
        "storage.max_version_chain": (
            max(r["stats"].get("storage.max_version_chain", 0)
                for r in traced), "count"),
        "storage.colstore_rows_encoded_per_scan": (
            _ratio(probes.get("storage.colstore_rows_encoded", 0), scans),
            "count"),
        "core.gtm_requests_per_txn": (
            _ratio(stats.get("core.gtm_requests", 0), txns), "count"),
        "exec.rows_scanned_per_row_out": (
            _ratio(stats.get("exec.operator_rows", 0),
                   stats.get("exec.output_rows", 0)), "ratio"),
        "net.rows_per_query": (_ratio(stats.get("net.rows", 0), queries),
                               "count"),
        "wlm.ticks_per_query": (
            _ratio(calls["repro.wlm.governor:WlmQueryContext.tick"]
                   + calls["repro.wlm.governor:WlmQueryContext.tick_batch"],
                   queries), "count"),
        "sql.plan_cache_hit_ratio": (
            _ratio(stats.get("sql.plan_cache_hits", 0),
                   stats.get("sql.plan_cache_probes", 0)), "ratio"),
        "optimizer.plans": (
            calls["repro.optimizer.planner:PhysicalPlanner.plan"] / n,
            "count"),
        "learnopt.captures": (stats.get("learnopt.captures", 0) / n,
                              "count"),
        "htap.frozen_scan_ratio": (
            _ratio(stats.get("htap.scans_frozen", 0), scans), "ratio"),
        "htap.delta_rows_composed_per_scan": (
            _ratio(probes.get("htap.delta_rows_composed", 0), scans),
            "count"),
        "htap.merges": (stats.get("htap.merges", 0) / n, "count"),
        "htap.freshness_lag_us_max": (
            episodes[0].sim.get("freshness_lag_us_max", 0.0), "us"),
        "sim.ops_per_s": (episodes[0].sim["sim_ops_per_s"], "1/s"),
        "sim.op_us_p95": (episodes[0].sim["sim_op_us_p95"], "us"),
        "geo.wan_messages_per_txn": (
            _ratio(stats.get("geo.wan_messages", 0), txns), "count"),
        "geo.certify_abort_ratio": (
            _ratio(stats.get("geo.certify_aborts", 0),
                   txns + stats.get("geo.certify_aborts", 0)), "ratio"),
        "geo.epochs_certified": (stats.get("geo.epochs_certified", 0) / n,
                                 "count"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()

    from perfbench.boundaries import LAYERS, boundaries
    from perfbench.tracer import LayerTracer, Patch
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = LayerTracer(LAYERS) if args.trace else None
    cut = boundaries() if args.trace else []

    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while (len(plain) + len(traced) < MIN_EPISODES
           or time.perf_counter() < deadline):
        if tracer is not None and len(plain) > len(traced):
            patch = Patch("repro")
            patch.install(tracer, cut)
            try:
                traced.append(_run_episode(workload, args.seed, tracer))
            finally:
                patch.restore()
            if patch.unresolved:
                print("perfbench: boundaries not found: "
                      + ", ".join(patch.unresolved), file=sys.stderr)
        else:
            plain.append(_run_episode(workload, args.seed))

    runs = plain + traced
    problems = [p for r in runs for p in r["problems"]]
    fingerprints = {r["episode"].fingerprint for r in runs}
    if len(fingerprints) != 1:
        problems.append("simulated results differ between episodes "
                        "of one seed")
    if tracer is not None:
        layer_sum = sum(tracer.self_ns)
        if layer_sum != tracer.region_ns:
            problems.append(f"layer self times sum to {layer_sum} ns, "
                            f"traced region is {tracer.region_ns} ns")
        metrics = _per_layer(plain, traced, tracer)
    else:
        metrics = _end_to_end(plain)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    episodes = [r["episode"] for r in runs]
    slowdowns = sorted(r["slowdown"] for r in runs)
    print(f"workload {workload.name}  seed {args.seed}  "
          f"episodes {len(plain)} plain + {len(traced)} traced  "
          f"operations per episode {min(e.completed for e in episodes)}")
    print(f"simulated-results digest {runs[0]['episode'].fingerprint[:16]} "
          f"(equal for every run of this seed and workload)")
    print(f"machine slowdown against the reference kernel: median "
          f"{statistics.median(slowdowns):.3f}, range {slowdowns[0]:.3f}"
          f"-{slowdowns[-1]:.3f} (real-clock figures are divided by it)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:16.4f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(e.attempted for e in episodes),
        "failed": sum(e.failed for e in episodes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
