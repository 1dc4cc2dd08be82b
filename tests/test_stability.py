"""Pins that catch drift a refactor could cause without any other test failing.

* The benchmark modules import names from ``treelab``; importing them here
  makes a renamed or deleted name fail the test suite, not only
  ``bench/smoke.py``.
* ``transform`` output bytes on the fixture treebank are pinned by SHA-256
  for every randomized chain step, at one and two workers.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treelab.cli import SEED_ENV, WORKERS_ENV, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "english_like.trees"

# SHA-256 of (sentence output, tree output) of
# ``transform english_like.trees --seed 5 --chain CHAIN``; the tree output
# is None for word_shuffle, which leaves no tree.
PINNED = {
    "constituent_shuffle": (
        "1bc87ce915ecef4ee846b3a9d06a0da5a53055708dc03480e44b589c0f3f5077",
        "4d9f55d7170c52bd00fd6cdb8e54706e5ddb358dd0721bd933fe40958925385a",
    ),
    "ablate:0.3": (
        "8449f0103b01fd22e26832ea9cce16def3f79e0016321c91b0dd6a63b6533bc6",
        "84c45cb124048793ca6c512d4004767b18b8f27ea6546f95a0fe8f3169309fbc",
    ),
    "ablate:1:shuffle": (
        "1d0abbb7708e5352d1afc5ec459c6e36e931450d40c58cb227d05f9dd6dde4c0",
        "40f1a51fef8e8574aba309872d9f216e956e2ecb453ee0f618116a301876263c",
    ),
    "word_shuffle": (
        "69fc21796d7f5a795a7bcb0662f83513f30f4d1101475802694093f640bf21e3",
        None,
    ),
}


def test_benchmark_modules_import_against_src():
    probe = (
        "import sys; sys.path[:0] = [sys.argv[1]]; "
        "import replicas, workloads; "
        "assert replicas.LAYER_METRICS and workloads.WORKLOADS"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe, str(ROOT / "bench")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("chain", sorted(PINNED))
def test_transform_bytes_are_pinned(tmp_path, capsys, monkeypatch, chain, workers):
    monkeypatch.delenv(SEED_ENV, raising=False)
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    sentences, trees = tmp_path / "out.txt", tmp_path / "out.trees"
    argv = ["transform", str(FIXTURE), "--seed", "5", "--workers", workers, "--chain", chain,
            "-o", str(sentences)]
    want_sentences, want_trees = PINNED[chain]
    if want_trees is not None:
        argv += ["--emit", "both", "--tree-output", str(trees)]
    assert main(argv) == 0, capsys.readouterr().err
    assert sha256(sentences) == want_sentences
    if want_trees is not None:
        assert sha256(trees) == want_trees
