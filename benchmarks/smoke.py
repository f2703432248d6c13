"""Smoke test of the benchmark itself, at tiny sizes (about 20 s).

Usage, from the root of a checkout: python3 benchmarks/smoke.py

Checks that every workload emits every metric of BENCHMARK.json in both
modes, that an oracle given a wrong expected value and a call that raises
each count as one failure without stopping the pass, that inputs depend on
the seed alone, and that the benchmark refuses to run without the sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--tiny")
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
            expect(result["correct"] is True, f"{label}: not correct")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{label}: metrics {sorted(got)} differ from {key}")


def check_failures_are_counted() -> None:
    wrong = workloads._checked(["regions", "A:2,1"], workloads._equals("11"))
    right = workloads._checked(["regions", "A:2,1"], workloads._equals("10"))
    from braidarr import cli

    tally = workloads.check_pass(workloads.run_pass([wrong, right], cli.run))
    expect((tally.attempted, tally.failed) == (2, 1), f"wrong expected value: {tally}")

    def raising(argv):
        raise RuntimeError("boom")

    tally = workloads.check_pass(workloads.run_pass([right, right], raising))
    expect((tally.attempted, tally.failed) == (2, 2), f"raising call: {tally}")


def check_seeded_inputs() -> None:
    def digest(seed: int) -> str:
        return workloads.inputs_digest(workloads.build("combinatorics", seed, "tiny"))

    expect(digest(5) == digest(5), "same seed gave different inputs")
    expect(digest(5) != digest(6), "different seeds gave the same inputs")
    malformed = [c for c in workloads.build("combinatorics", 5, "full") if c.malformed]
    expect(malformed, "the full stream has no malformed items")


def check_refuses_without_sources() -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(Path(bare), "--workload", "ff_count", "--seed", "1", "--seconds", "1", "--trace", "0")
        expect(proc.returncode != 0, "ran without the sources")
        expect(not proc.stdout.strip(), f"printed a result without the sources: {proc.stdout[-200:]!r}")


if __name__ == "__main__":
    check_failures_are_counted()
    check_seeded_inputs()
    check_refuses_without_sources()
    check_metrics()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    sys.exit(1 if problems else 0)
