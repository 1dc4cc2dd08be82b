"""Pins that catch drift a refactor could cause without any other test failing.

* The benchmark modules import names from ``treelab``; importing them here
  makes a renamed or deleted name fail the test suite, not only
  ``bench/smoke.py``. Running every workload's replica once on tiny inputs
  does the same for a renamed keyword or attribute the replicas use.
* No ``treelab`` module imports an underscore name from another, so a
  module's private helpers stay its own.
* ``transform`` output bytes on the fixture treebank are pinned by SHA-256
  for every randomized chain step, at one and two workers.
* The stats bytes are pinned too: ``stats`` stdout and ``--report`` JSON on
  the fixture against a transformed copy, ``transform --stats --report`` at
  one and two workers, and the exact lines ``stats`` prints for malformed
  trees. A change to the tree scanner or to the alignment that moves a
  float, a token or an error message fails here.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import shutil
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


def test_no_module_imports_a_private_name_of_another():
    """A name that starts with ``_`` stays in its module: no ``treelab`` module
    imports one from another, so each module's private helpers can change alone."""
    imports = []
    for path in sorted((ROOT / "src" / "treelab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "treelab"
            ):
                imports += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert imports == []


def test_every_benchmark_replica_runs_once(tmp_path):
    """``bench/run.py --trace 1`` on tiny inputs, in a copy that holds only the
    benchmark and the sources, so its inputs and results stay out of the tree."""
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--tiny", "--trace", "1", "--seconds", "1"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["failed"] == 0 and summary["attempted"] > 0, done.stdout


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


BENCH_CHAIN = "reorder:83A,ablate:0.5:shuffle"
# SHA-256 of (stdout, --report JSON) of ``stats fixture.trees MODIFIED``,
# MODIFIED being ``transform fixture.trees --seed 5 --chain CHAIN`` output.
STATS_PINNED = {
    ("trees", BENCH_CHAIN): (
        "fa3e3eaae7f1ee50b14d2083f3ac7fb3566d84cd3da99904a6ecef4d2ac0ad1e",
        "d60e60fb30461746257d3de4e3203a0202135f568262f5cdd9697b62d1917d17",
    ),
    ("sentences", "word_shuffle"): (
        "0985dffac49665cff183c20a08d744189ba622b5ba7baca9840b38642b627d05",
        "851aa3cc9eddad78850009966e2a67209aaf1884e6e27110d50aa468fd1d3d85",
    ),
}
# SHA-256 of (stdout, --report JSON) of
# ``transform fixture.trees --seed 5 --chain CHAIN --stats --report``.
TRANSFORM_STATS_PINNED = {
    BENCH_CHAIN: (
        "29ca7fa0818bdfcb9c390e88fe0a75ea32f4d993b4f4dc1643aae4c937af4f34",
        "db8b27592416c7cdc8f34b90332a7b9d909ded6d836349136d4ef49ac91da2e0",
    ),
    "word_shuffle": (
        "885dfcce2f083e7656af9aaa41279ad35b4a1bcf56662b46472619bfb74ec12a",
        "e3bc3540e478afd117484b57e587b87b30b7f2445f3a56efcb1d37cc4bba24b1",
    ),
}
MALFORMED = [
    "(S (NP (DT the) (NN cat)) (VP (VBD sat))",  # unbalanced
    "(S (NP (DT the) (NN cat)) (VP (VBD sat))) x",  # trailing junk
    "(S (NP (DT the) (NN cat (X y))) (VP (VBD sat)))",  # a leaf with children
]
MALFORMED_STDERR = (
    "bad.trees:2: unbalanced brackets: unexpected end of input (byte offset 40)\n"
    "bad.trees:3: trailing content after tree (byte offset 42)\n"
    "bad.trees:4: leaf cannot have children (byte offset 24)\n"
)


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("emit, chain", sorted(STATS_PINNED))
def test_stats_bytes_are_pinned(tmp_path, capsys, monkeypatch, emit, chain):
    monkeypatch.chdir(tmp_path)
    shutil.copy(FIXTURE, "fixture.trees")
    assert main(["transform", "fixture.trees", "--seed", "5", "--chain", chain,
                 "--emit", emit, "-o", "modified"]) == 0
    capsys.readouterr()
    assert main(["stats", "fixture.trees", "modified", "--report", "s.json"]) == 0
    out = capsys.readouterr().out
    assert (digest_text(out), sha256(tmp_path / "s.json")) == STATS_PINNED[emit, chain]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("chain", sorted(TRANSFORM_STATS_PINNED))
def test_transform_stats_bytes_are_pinned(tmp_path, capsys, monkeypatch, chain, workers):
    monkeypatch.delenv(SEED_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["transform", str(FIXTURE), "--seed", "5", "--workers", workers, "--chain", chain,
                 "-o", "out.txt", "--stats", "--report", "r.json"]) == 0
    out = capsys.readouterr().out
    assert (digest_text(out), sha256(tmp_path / "r.json")) == TRANSFORM_STATS_PINNED[chain]


def test_stats_malformed_lines_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    good = FIXTURE.read_text(encoding="utf-8").splitlines()[:2]
    Path("bad.trees").write_text("\n".join([good[0], *MALFORMED, good[1]]) + "\n", encoding="utf-8")
    assert main(["stats", "bad.trees", "bad.trees"]) == 1
    assert capsys.readouterr().err == MALFORMED_STDERR
