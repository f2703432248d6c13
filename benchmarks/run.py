"""Benchmark of the braidarr CLI: end-to-end numbers per workload, or a
separate traced run for per-layer numbers.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload ff_count --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Every pass runs in a fresh interpreter (``benchmarks/worker.py``), one at a
time, single-threaded, so no cache outlives a pass.

With ``--trace 0`` a fixed number of passes run: ``--seconds`` divided by the
workload's nominal pass length, and at least ``MIN_PASSES``.  The count
depends on the arguments alone, so two runs with the same arguments attempt
the same calls.  Call times are the process's CPU time: the program is
single-threaded and does no I/O, so that is its wall-clock time on an
unloaded core, while on a shared machine wall-clock time also holds
preemptions of tens of ms and time taken by the host.

Times are reported at the reference speed.  The CPU time of the same call
drifts by up to 2x between minutes on a shared machine, so every worker also
times the fixed kernel of ``benchmarks/reference.py`` between calls and
multiplies its times by ``NOMINAL_S`` / the kernel's median time (``scale``
in the table).  The program cannot move the kernel, so a faster program still
reads faster; on the machine the benchmark was written on this halved the
spread between runs.  Every pass makes the same calls, and each call's time
is its median over the passes.

* ``pass_s`` is the sum of the call times, one pass over the workload;
* ``slowest_call_s``, ``call_p50_ms`` and ``call_p99_ms`` are the largest
  call time and percentiles over the call times;
* ``peak_rss_mb`` is the median over passes of the worker's ``ru_maxrss``;
* ``setup_s`` is the median of ``SETUP_SAMPLES`` set-ups, topped up by
  set-up-only interpreters;
* ``ok_frac`` is 1 - failed / attempted.

With ``--trace 1`` one untraced and one traced pass run; the per-layer
metrics come from the traced one and ``trace.overhead_s`` is the difference
of their CPU time in calls.  Per-layer times are CPU seconds as measured,
not scaled.  Metric names and units are those of ``BENCHMARK.json``.

A call fails when it exits with the wrong code, raises, or fails its oracle;
``failed`` counts all of them.  ``correct`` is false when a call on a
well-formed input fails, or when the inputs differ between the passes of one
seed.  Calls on malformed inputs that the program mishandles count as failed
but leave ``correct`` true: they measure robustness, not correctness of the
results.

The last line of stdout is one JSON object; the lines before it are a table
of the same numbers and the wall-clock pass time.  The run's numbers, the
per-pass samples and the environment go to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
MIN_PASSES = 2
# Wall-clock seconds of one pass, its interpreter included, on a 2-vCPU
# x86-64 machine at its slower times; a run makes --seconds / this many passes.
NOMINAL_PASS_S = {"ff_count": 12.0, "poset_dump": 16.0, "combinatorics": 12.0}
# Every run must end within this many seconds, builds aside.
RUN_DEADLINE_S = 170.0
# Keep numpy's thread pools to one thread: the benchmark is single-threaded.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        spec = _load_spec()
        names = [w["name"] for w in spec["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if not set(chosen) <= set(names):
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        env = _environment()
        runs = {}
        for workload in chosen:
            budget = args.seconds if len(chosen) == 1 else args.seconds / len(chosen)
            runs[workload] = _run_workload(
                workload, args.seed, budget, args.trace, "tiny" if args.tiny else "full", start
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, run in runs.items():
        prefix = "" if len(chosen) == 1 else f"{workload}."
        metrics = {
            prefix + m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted
        }
        _print_table(workload, args, run, env, metrics)
        _save(workload, args, run, env, metrics)
        result["correct"] &= run["correct"]
        result["attempted"] += run["attempted"]
        result["failed"] += run["failed"]
        result["metrics"].update(metrics)
    print(json.dumps(result))
    return 0


def _load_spec() -> dict:
    if not (ROOT / "src" / "braidarr" / "cli.py").is_file():
        raise BenchError(f"no braidarr sources under {ROOT / 'src'}; run from a checkout")
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker(workload: str, seed: int, mode: str, size: str, start: float) -> dict:
    remaining = RUN_DEADLINE_S - (time.perf_counter() - start)
    if remaining <= 0:
        raise BenchError("run deadline passed")
    began = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(seed), mode, size],
            cwd=ROOT,
            env={**os.environ, **WORKER_ENV},
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker passed the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(proc.stdout.splitlines()[-1])
    data["process_s"] = time.perf_counter() - began
    return data


def _run_workload(workload: str, seed: int, seconds: float, trace: int, size: str, start: float) -> dict:
    if trace:
        untraced = _worker(workload, seed, "pass", size, start)
        traced = _worker(workload, seed, "traced", size, start)
        passes = [untraced, traced]
        overhead = sum(traced["call_cpu_s"]) - sum(untraced["call_cpu_s"])
        metrics = {**traced["layers"], "trace.overhead_s": overhead}
        wall_clock = sum(untraced["call_s"])
    else:
        count = max(MIN_PASSES, int(seconds / NOMINAL_PASS_S[workload]))
        passes = [_worker(workload, seed, "pass", size, start) for _ in range(count)]
        workers = passes + [
            _worker(workload, seed, "setup", size, start) for _ in range(SETUP_SAMPLES - count)
        ]
        # Every pass makes the same calls, so each call's time is its median
        # over the passes, each pass scaled to the reference speed.
        per_call = [
            statistics.median(ts)
            for ts in zip(*([t * p["scale"] for t in p["call_cpu_s"]] for p in passes))
        ]
        calls_ms = [t * 1e3 for t in per_call]
        wall_clock = sum(statistics.median(ts) for ts in zip(*(p["call_s"] for p in passes)))
        metrics = {
            "setup_s": statistics.median(w["setup_s"] * w["scale"] for w in workers),
            "pass_s": sum(per_call),
            "slowest_call_s": max(per_call),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "call_p50_ms": statistics.median(calls_ms),
            "call_p99_ms": _percentile(calls_ms, 99),
            "ok_frac": 1 - sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes),
        }
    digests = {p["inputs_sha256"] for p in passes}
    same_calls = len({len(p["call_s"]) for p in passes}) == 1
    return {
        "metrics": metrics,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "correct": len(digests) == 1 and same_calls and not any(p["failed_wellformed"] for p in passes),
        "passes": len(passes),
        "latency_samples": len(passes[0]["call_s"]),
        "wall_clock_pass_s": wall_clock,
        "scale": statistics.median(p["scale"] for p in passes),
        "inputs_sha256": sorted(digests),
        "numpy": passes[0]["numpy"],
        "untraced": traced["untraced"] if trace else [],
        "reasons": sorted({r for p in passes for r in p["reasons"]}),
        "samples": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _environment() -> dict:
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _print_table(workload: str, args, run: dict, env: dict, metrics: dict) -> None:
    print(
        f"# {workload} seed={args.seed} trace={args.trace} passes={run['passes']} "
        f"latency_samples={run['latency_samples']} failed={run['failed']}/{run['attempted']} "
        f"fail_frac={run['failed'] / run['attempted']:.6f} correct={run['correct']} "
        f"wall_clock_pass_s={run['wall_clock_pass_s']:.3f} scale={run['scale']:.4f}"
    )
    print(
        f"# commit={env['commit']} src_sha256={env['src_sha256'][:16]} src_lines={env['src_lines']} "
        f"python={env['python']} numpy={run['numpy']} nproc={env['nproc']}"
    )
    for name, m in metrics.items():
        print(f"{name:60s} {m['value']:>16.6f} {m['unit']}")
    if run.get("untraced"):
        print(f"# not in the library, so not traced: {', '.join(run['untraced'])}")
    for reason in run["reasons"][:5]:
        print(f"# failed: {reason}")


def _save(workload: str, args, run: dict, env: dict, metrics: dict) -> None:
    OUT.mkdir(exist_ok=True)
    tiny = "-tiny" if args.tiny else ""
    path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}{tiny}.json"
    record = {"workload": workload, "seed": args.seed, "trace": args.trace, "environment": env,
              "metrics": metrics, **{k: v for k, v in run.items() if k != "metrics"}}
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
