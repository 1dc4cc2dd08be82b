#!/usr/bin/env python3
"""treelab benchmark: drive the ``treelab`` CLI on seeded, generated corpora.

    python3 bench/run.py --workload wsj-chain --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

With ``--trace 0`` a run measures the end-to-end metrics: until
``--seconds`` have passed it alternates the workload's CLI invocations on a
one-item input (``setup_s``) with the whole pipeline on the full corpus,
and reports medians and the peak RSS of any CLI process. With
``--trace 1`` it reports per-layer metrics from in-process replicas instead
(see ``replicas.py``). Every CLI invocation is one operation; it fails on a
non-zero exit, a missing or wrong provenance sidecar, output bytes that
differ from the reference digest, or a failed oracle check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The machine, the
checks and every pass are also written to ``.bench_work/results/``.
See ``bench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from harness import ALL_CPUS, ROOT, SRC, WORK, Ledger, PassResult, Runner, SpeedProbes, machine
from workloads import WORKLOADS, Workload

MIN_PASSES = 3
RUN_LIMIT_S = 165.0  # stop starting new passes so the run ends inside 180 s
END_TO_END_UNITS = {"items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    workload = WORKLOADS[name]
    info = machine()
    scratch = WORK / f"run-{os.getpid()}-{name}"
    try:
        if trace:
            from replicas import traced_run

            metrics, ledger, detail = traced_run(workload, seed, seconds, size_name, scratch, deadline)
        else:
            metrics, ledger, detail = untraced_run(workload, seed, seconds, size_name, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = {key: {"value": value, "unit": unit_of(key)} for key, value in metrics.items()}
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size_name,
        "machine": info, "elapsed_s": time.perf_counter() - started,
        "correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed,
        "problems": ledger.problems, "metrics": metrics, **detail,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results / f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    result["result_file"] = str(path.relative_to(ROOT))
    return result


def untraced_run(workload: Workload, seed: int, seconds: float, size_name: str, scratch: Path,
                 deadline: float) -> tuple[dict, Ledger, dict]:
    """Alternate a one-item pass and a full pass until ``seconds`` have passed.

    Interleaving spreads the set-up samples over the same stretch of time
    as the full passes. Times are taken at the reference speed (see
    ``harness.SpeedProbes``); the raw wall times are kept in the detail.
    """
    with SpeedProbes(ALL_CPUS) as probes:
        runner = Runner(workload, seed, size_name, deadline, probes)
        one = Runner(workload, seed, "one", deadline, probes)
        one.ledger = runner.ledger
        setups: list[PassResult] = []
        passes: list[PassResult] = []
        measure_until = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < measure_until:
            setups.append(one.run_pass(scratch / "setup"))
            passes.append(runner.run_pass(scratch / "pass"))
            if runner.ledger.failed or runner.out_of_time(setups[-1].wall_s + passes[-1].wall_s):
                break
    metrics = {
        "items_per_s": statistics.median(runner.items / p.ref_s for p in passes),
        "peak_rss_mb": max(run.maxrss_mb for p in passes for run in p.launches),
        "setup_s": statistics.median(p.ref_s for p in setups),
    }
    detail = {
        "items": runner.items,
        "reference": runner.reference_kind,
        "output_digests": passes[0].digests,
        "raw_items_per_s": statistics.median(runner.items / p.wall_s for p in passes),
        "raw_setup_s": statistics.median(p.wall_s for p in setups),
        "passes": [
            {"wall_s": p.wall_s, "ref_s": p.ref_s, "launches": [vars(run) for run in p.launches]}
            for p in passes
        ],
        "setup_passes": [{"wall_s": p.wall_s, "ref_s": p.ref_s} for p in setups],
    }
    return metrics, runner.ledger, detail


# ---------------------------------------------------------------------------


def print_result(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  size {result['size']}  "
          f"trace {result['trace']}")
    print("machine " + json.dumps(result["machine"]))
    if "passes" in result:
        print(f"items {result['items']} per pass, {len(result['passes'])} pass(es); "
              f"output reference: {result['reference']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  operations attempted {result['attempted']}  failed {result['failed']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print(f"checks {'passed' if result['correct'] else 'FAILED'}; details in {result['result_file']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "treelab" / "cli.py").is_file():
        print(f"error: no treelab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), "tiny" if args.tiny else "full")
        print_result(result)
        results.append(result)
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{key}" if prefix else key): metric
            for r in results for key, metric in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    from replicas import LAYER_UNITS

    return LAYER_UNITS[metric]


if __name__ == "__main__":
    raise SystemExit(main())
