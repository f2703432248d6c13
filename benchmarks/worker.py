"""One pass of one workload in a fresh interpreter.

Usage: python3 benchmarks/worker.py WORKLOAD SEED MODE SIZE

MODE is ``setup`` (import and generate inputs, then stop), ``pass`` (one
untraced pass) or ``traced`` (one pass with layer spans).  SIZE is ``full`` or
``tiny``.  The last line of stdout is one JSON object with the pass's numbers.
Set-up time runs from before ``import braidarr`` to the first timed call.
"""
from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from braidarr import arrangements, cli, numbers, partitions, paths, poset, sketches  # noqa: E402

import workloads  # noqa: E402
from reference import SETUP_PROBES, Probe  # noqa: E402
from tracer import SpanSummary, Tracer  # noqa: E402

# (owner, attribute, span name).  Every library function the CLI handlers call
# is wrapped, so ``cli.run`` self time is parsing, formatting and printing.
TRACED = [
    (arrangements, "charpoly_ff", "arrangements.charpoly_ff"),
    (arrangements, "plan_moduli", "arrangements.plan_moduli"),
    (arrangements, "count_complement_points", "arrangements.count_complement_points"),
    (arrangements, "_lagrange_interpolate", "arrangements.interpolate"),
    (numbers, "zaslavsky", "numbers.zaslavsky"),
    (numbers, "charpoly_A_closed", "numbers.charpoly_A_closed"),
    (poset, "build_poset", "poset.build_poset"),
    (poset, "intersect_flat", "poset.intersect_flat"),
    (poset, "flat_contains", "poset.flat_contains"),
    (poset, "charpoly_from_poset", "poset.charpoly_from_poset"),
    (poset.IntersectionPoset, "hasse_edges", "poset.hasse_edges"),
    (sketches, "enumerate_sketches", "sketches.enumerate_sketches"),
    (sketches, "witness_point", "sketches.witness_point"),
    (sketches, "point_to_sketch", "sketches.point_to_sketch"),
    (sketches.Sketch, "parse", "sketches.Sketch.parse"),
    (paths, "enumerate_decorated_paths", "paths.enumerate_decorated_paths"),
    (paths, "compartment_distribution", "paths.compartment_distribution"),
    (paths, "compartments", "paths.compartments"),
    (paths, "sketch_to_path", "paths.sketch_to_path"),
    (paths, "path_to_sketch", "paths.path_to_sketch"),
    (paths.DecoratedDyckPath, "parse", "paths.DecoratedDyckPath.parse"),
    (partitions, "sketch_to_partition", "partitions.sketch_to_partition"),
    (partitions, "partition_to_sketch", "partitions.partition_to_sketch"),
    (partitions.DecoratedNonNestingPartition, "parse", "partitions.DecoratedNonNestingPartition.parse"),
]


def install_tracer() -> tuple[Tracer, list[str]]:
    """Wrap every function of ``TRACED``; also returns the names of those the
    library no longer has, whose metrics then read 0."""
    tracer = Tracer()
    counters = tracer.counters

    def points(args, result):
        spec, q = args
        counters["points"] += q**spec.n

    def contains(args, result):
        counters["contains_true"] += result

    def objects(key):
        def observe(args, result):
            counters[key] += len(result)

        return observe

    observers = {
        "arrangements.count_complement_points": points,
        "poset.flat_contains": contains,
        "poset.build_poset": objects("flats"),
        "sketches.enumerate_sketches": objects("sketches"),
        "paths.enumerate_decorated_paths": objects("paths"),
    }
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "braidarr"]
    missing = [
        name
        for owner, attr, name in TRACED
        if not tracer.install(modules, owner, attr, name, observers.get(name))
    ]
    return tracer, missing


def layer_metrics(s: SpanSummary) -> dict[str, float]:
    """Per-layer numbers of one traced pass; 0 for layers the pass never ran."""
    c = s.counters
    ccp = "arrangements.count_complement_points"
    contains = s.calls("poset.flat_contains")
    intersects = s.calls("poset.intersect_flat")
    return {
        f"{ccp}.s": s.inclusive_s(ccp),
        f"{ccp}.calls": s.calls(ccp),
        # seconds per point of (Z_q)^n, computed as s / sum of q^n
        f"{ccp}.us_per_point": s.inclusive_s(ccp) * 1e6 / c["points"] if c.get("points") else 0.0,
        "arrangements.interpolate.s": s.inclusive_s("arrangements.interpolate"),
        "arrangements.plan_moduli.s": s.inclusive_s("arrangements.plan_moduli"),
        "arrangements.charpoly_ff.self_s": s.self_s("arrangements.charpoly_ff"),
        "poset.flat_contains.s": s.inclusive_s("poset.flat_contains"),
        "poset.flat_contains.calls": contains,
        "poset.contains_true_frac": c.get("contains_true", 0) / contains if contains else 0.0,
        # build_poset after its last child span: the Moebius recursion and
        # node construction
        "poset.mobius_self_s": s.tail_s("poset.build_poset"),
        "poset.hasse_edges.s": s.inclusive_s("poset.hasse_edges"),
        "poset.intersect_flat.s": s.inclusive_s("poset.intersect_flat"),
        "poset.intersect_flat.calls": intersects,
        "poset.closure_yield": c.get("flats", 0) / intersects if intersects else 0.0,
        "poset.flats": c.get("flats", 0),
        "sketches.enumerate_sketches.s": s.inclusive_s("sketches.enumerate_sketches"),
        "sketches.enumerate_sketches.objects": c.get("sketches", 0),
        "paths.enumerate_decorated_paths.s": s.inclusive_s("paths.enumerate_decorated_paths"),
        "paths.enumerate_decorated_paths.objects": c.get("paths", 0),
        "paths.compartments.s": s.inclusive_s("paths.compartments"),
        "paths.compartments.calls": s.calls("paths.compartments"),
        "sketches.witness_point.s": s.inclusive_s("sketches.witness_point"),
        "sketches.witness_point.calls": s.calls("sketches.witness_point"),
        "sketches.Sketch.parse.s": s.inclusive_s("sketches.Sketch.parse"),
        "paths.sketch_to_path.s": s.inclusive_s("paths.sketch_to_path"),
        "paths.path_to_sketch.s": s.inclusive_s("paths.path_to_sketch"),
        "partitions.sketch_to_partition.s": s.inclusive_s("partitions.sketch_to_partition"),
        "partitions.partition_to_sketch.s": s.inclusive_s("partitions.partition_to_sketch"),
        "cli.self_s": s.self_s("cli.run"),
    }


def main(argv: list[str]) -> dict:
    workload, seed, mode, size = argv[0], int(argv[1]), argv[2], argv[3]
    calls = workloads.build(workload, seed, size)
    result = {
        "setup_s": time.perf_counter() - SETUP_START,
        "inputs_sha256": workloads.inputs_digest(calls),
        "numpy": numpy.__version__,
    }
    probe = Probe()
    if mode == "setup":
        for _ in range(SETUP_PROBES):
            probe.sample()
        result.update(reference_s=probe.samples, scale=probe.scale())
        return result
    run = cli.run
    tracer = None
    if mode == "traced":
        tracer, result["untraced"] = install_tracer()
        run = tracer.wrap(cli.run, "cli.run", root=True)
    # The program sees only the generated argv: not this process's arguments,
    # which carry the seed, and no stdin.
    saved = sys.argv, sys.stdin
    sys.argv, sys.stdin = ["braidarr"], io.StringIO()
    try:
        outcomes = workloads.run_pass(calls, run, probe.maybe_sample)
    finally:
        sys.argv, sys.stdin = saved
    probe.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally = workloads.check_pass(outcomes)
    result.update(
        call_s=[o.seconds for _, o in outcomes],
        call_cpu_s=[o.cpu_seconds for _, o in outcomes],
        peak_rss_mb=peak_rss_mb,
        attempted=tally.attempted,
        failed=tally.failed,
        failed_wellformed=tally.failed_wellformed,
        reasons=tally.reasons,
        reference_s=probe.samples,
        scale=probe.scale(),
    )
    if tracer is not None:
        summary = tracer.summary()
        result["layers"] = layer_metrics(summary)
        summary.write(ROOT / ".bench_out" / f"spans-{workload}.npz")
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
