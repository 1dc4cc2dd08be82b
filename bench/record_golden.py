#!/usr/bin/env python3
"""Record the reference output digests in ``bench/golden.json``.

    python3 bench/record_golden.py --seeds 0-39 --tiny-seeds 0-2

Runs one pass of every workload per seed and stores the digest of each
data output and standard output. Record them at a commit whose outputs are
known good; a later commit that changes any of these bytes then fails the
benchmark's output check. Re-record only when a change of output is
intended, and say so in the change that does it. Passes whose oracle
checks fail are not recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

from harness import GOLDEN, WORK, Runner, machine
from inputs import GENERATOR_DIGEST
from workloads import WORKLOADS


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-39"))
    parser.add_argument("--tiny-seeds", type=seed_range, default=seed_range("0-2"))
    args = parser.parse_args()

    digests: dict[str, dict[str, str]] = {}
    scratch = WORK / f"golden-{os.getpid()}"
    try:
        for size_name, seeds in (("tiny", args.tiny_seeds), ("full", args.seeds)):
            for name, workload in WORKLOADS.items():
                for seed in seeds:
                    runner = Runner(workload, seed, size_name, time.perf_counter() + 600)
                    runner.reference, runner.reference_kind = None, "recording"
                    result = runner.run_pass(scratch / "pass")
                    if runner.ledger.failed:
                        print(f"{name} {size_name} {seed}: not recorded: {runner.ledger.problems}", file=sys.stderr)
                        return 1
                    digests[f"{name} {size_name} {seed}"] = result.digests
                    print(f"{name} {size_name} seed {seed}: {result.wall_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    document = {
        "generator": GENERATOR_DIGEST,
        "src_sha256": machine()["src_sha256"],
        "digests": digests,
    }
    GOLDEN.write_text(json.dumps(document, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
