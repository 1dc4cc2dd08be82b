#!/usr/bin/env python3
"""Smoke test of the benchmark itself; exits 1 on the first failure.

    python3 bench/smoke.py

Checks that ``BENCHMARK.json`` agrees with the workloads and metrics the
code defines, runs every workload on tiny inputs with tracing off and on
(all checks must pass and every metric name must be present, with its
unit), and checks that the benchmark refuses to run, without printing a
result, in a directory that holds only ``BENCHMARK.json`` and ``bench/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from harness import BENCH, ROOT, WORK
from replicas import LAYER_METRICS
from workloads import WORKLOADS


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        raise SystemExit(1)


def run_bench(cwd, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    check(all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"]), "workload reasons")
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(layer == LAYER_METRICS, "BENCHMARK.json per_layer differs from replicas.LAYER_METRICS")
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {name: unit for name, (unit, _) in LAYER_METRICS.items()},
    }
    for name in WORKLOADS:
        for trace in (0, 1):
            out = run_bench(ROOT, "--workload", name, "--seed", "0", "--seconds", "1",
                            "--trace", str(trace), "--tiny")
            label = f"{name} --trace {trace}"
            check(out.returncode == 0, f"{label}: exit {out.returncode}\n{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: checks failed\n{out.stdout[-3000:]}")
            units = {key: metric["unit"] for key, metric in result["metrics"].items()}
            check(units == expected[trace], f"{label}: metric names or units differ")
            check("output reference: golden" in out.stdout or trace == 1, f"{label}: no golden digests used")
            print(f"ok {label}: {result['attempted']} operations")

    bare = WORK / f"smoke-bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = run_bench(bare, "--workload", "wsj-chain", "--seed", "0", "--seconds", "1", "--trace", "0")
        check(out.returncode != 0 and not out.stdout.strip(), "bare directory: expected a refusal")
        print("ok refuses to run without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
