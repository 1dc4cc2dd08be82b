"""Pins that catch drift a refactor could cause without any other test failing.

* The benchmark modules import names from ``treelab``; importing them here
  makes a renamed or deleted name fail the test suite, not only
  ``bench/smoke.py``. Running every workload's replica once on tiny inputs
  does the same for a renamed keyword or attribute the replicas use.
* No ``treelab`` module imports an underscore name from another, so a
  module's private helpers stay its own.
* Only ``cli.main`` says where a setting came from: no other function in
  ``cli.py`` reads ``.origins``, and only ``cli._set_defaults`` builds the
  text ``config key``.
* Every defaulted parameter or dataclass field that the program calls is
  passed by some call in ``src/treelab`` or ``bench``, so no library knob
  exists that only tests set; and every public function or class is named
  outside the tests, so no code path exists that only tests reach.
* ``transform`` output bytes on the fixture treebank are pinned by SHA-256
  for every randomized chain step, at one and two workers.
* The stats bytes are pinned too: ``stats`` stdout and ``--report`` JSON on
  the fixture against a transformed copy, ``transform --stats --report`` at
  one and two workers, and the exact lines ``stats`` prints for malformed
  trees. A change to the tree scanner or to the alignment that moves a
  float, a token or an error message fails here.
* ``mask`` output and labels bytes on a fixed ids file are pinned by
  SHA-256, with the number of stream draws it makes.
* ``retrieval`` stdout and ``--report`` bytes are pinned on a seeded token
  file pair that spans several similarity blocks, from a regular file and
  from a FIFO, and so is its sidecar, whose input digests come from the
  bytes the reader consumed.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from helpers import CountingRng, fifo_holding, write_pooled_embeddings, write_token_embeddings
from treelab import files
from treelab.cli import SEED_ENV, WORKERS_ENV, main
from treelab.retrieval import EmbeddingMatrix
from treelab.rng import run_streams

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


def test_only_main_says_where_a_setting_came_from():
    """An error records the settings it is about, and ``cli.main`` alone says where
    they came from: no other function in ``cli.py`` reads ``.origins``, and no
    string outside ``cli._set_defaults``, docstrings aside, holds ``config key``."""
    readers, builders = set(), set()
    for path in sorted((ROOT / "src" / "treelab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and ast.get_docstring(node, clean=False) is not None}
        scopes = [(tree, path.stem)]
        while scopes:
            node, owner = scopes.pop()
            scopes += [(child, f"{path.stem}.{child.name}"
                        if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else owner)
                       for child in ast.iter_child_nodes(node)]
            if isinstance(node, ast.Attribute) and node.attr == "origins" and path.stem == "cli":
                readers.add(owner)
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "config key" in node.value and id(node) not in docstrings):
                builders.add(owner)
    assert readers <= {"cli.main"}, readers
    assert builders == {"cli._set_defaults"}, builders


#: Defaulted parameters and fields that no call in ``src/treelab`` or ``bench``
#: passes, each kept for the reason given.
UNPASSED_DEFAULTS_ALLOWED = {
    "main.argv": "the console entry point, which reads sys.argv",
    **{f"StatsAccumulator.{name}": "a running sum: state, not a setting"
       for name in ("sum_ir", "sum_wmd", "sentences", "tokens", "short")},
    "ConstituentShuffleStep.include_root": "bench/replicas.py reads it",
}


def _signatures(tree: ast.Module) -> dict[str, tuple[list[str], list[str]]]:
    """Each public module-level function and dataclass of ``tree``: the
    parameters or ``__init__`` fields that can be passed by position, in
    order, and those that have a default."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            found[node.name] = positional, defaulted
        elif (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
              and any("dataclass" in ast.unparse(d) for d in node.decorator_list)):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                      and not (item.value and "init=False" in ast.unparse(item.value))]
            found[node.name] = ([f.target.id for f in fields],
                                [f.target.id for f in fields if f.value is not None])
    return found


def _passed(tree: ast.Module, names: set[str]) -> dict[str, set]:
    """For each of ``names`` that some call in ``tree`` makes (``f(...)``,
    ``mod.f(...)``, or ``cls(...)`` inside class ``f``): the keywords passed
    and the counts of positional arguments, or ``"*"`` for a call that
    unpacks ``*args`` or ``**kwargs``."""
    passed: dict[str, set] = {}
    scopes = [(tree, None)]
    while scopes:
        node, owner = scopes.pop()
        scopes += [(child, child.name if isinstance(child, ast.ClassDef) else owner)
                   for child in ast.iter_child_nodes(node)]
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        name = owner if name == "cls" else name
        if name in names:
            seen = passed.setdefault(name, set())
            seen.add(len(node.args))
            seen.update(k.arg or "*" for k in node.keywords)
            if any(isinstance(a, ast.Starred) for a in node.args):
                seen.add("*")
    return passed


def test_every_default_is_passed_by_some_caller():
    """Each defaulted parameter or field of a public function or dataclass in
    ``src/treelab`` that the program calls is passed, by keyword or by
    position, by some call in ``src/treelab`` or ``bench``. One that no call
    passes is a setting that only tests set; the allowlist names the others."""
    sources = [*(ROOT / "src" / "treelab").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    signatures = {}
    for path, tree in trees.items():
        if path.parent.name == "treelab":
            signatures.update(_signatures(tree))
    passed: dict[str, set] = {}
    for tree in trees.values():
        for name, seen in _passed(tree, set(signatures)).items():
            passed.setdefault(name, set()).update(seen)
    unpassed = set()
    for name, seen in passed.items():
        positional, defaulted = signatures[name]
        reach = max(n for n in seen if isinstance(n, int))
        unpassed.update(f"{name}.{param}" for param in defaulted
                        if not {"*", param} & seen and param not in positional[:reach])
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS_ALLOWED)


#: Public functions and classes of ``src/treelab`` that nothing outside the
#: tests names, each kept for the reason given.
UNNAMED_PUBLIC_ALLOWED = {
    "apply_chain": "the per-line reference of the corpus driver's tests",
    "translate_tree": "a criterion-1 oracle: the lexicon applied to a tree",
    "delta_rules": "a criterion-1 oracle: the reorder rules between two languages",
    "internal": "the tree builder that pairs with leaf",
}


def _references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The public functions and classes that ``tree`` defines at module level, and
    every name it uses (a name, an attribute or an import) outside the definition
    of the same name."""
    defined, used = set(), set()
    for statement in tree.body:
        own = getattr(statement, "name", None)
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
            defined.add(own)
        for node in ast.walk(statement):
            name = (node.id if isinstance(node, ast.Name) else node.attr
                    if isinstance(node, ast.Attribute) else node.name
                    if isinstance(node, ast.alias) else None)
            if name is not None and name != own:
                used.add(name)
    return defined, used


def test_every_public_name_is_used_outside_the_tests():
    """Each public module-level function or class in ``src/treelab`` is named
    outside its own definition: by code in ``src/treelab`` or ``bench``, or in
    ``README.md`` or ``docs/``. One that only tests name is a code path that only
    tests reach; the allowlist names the others."""
    defined, used = set(), set()
    for path in [*(ROOT / "src" / "treelab").glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        names, references = _references(ast.parse(path.read_text(encoding="utf-8")))
        used |= references
        if path.parent.name == "treelab":
            defined |= names
    for path in [ROOT / "README.md", *(ROOT / "docs").glob("*.md")]:
        used.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    assert sorted(defined - used) == sorted(UNNAMED_PUBLIC_ALLOWED)


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


# SHA-256 of (ids output, labels output) of ``mask ids.txt --vocab-size 120
# --seed 7`` on MASK_IDS, and the stream draws it makes, counted from each stream's state.
MASK_PINNED = (
    "413ba206a440b52f11adad2d8aa62a08feb7d851a88a44ca0b0c6e4551ea09a9",
    "a615b7dd945b06fb2b470036a388dd4f92c9d26acdac539e9715fc6a08c4fdab",
    6331,
)
# 300 lines of 0 to 39 ids, special ids (0..4) among them; every 40th line is blank.
MASK_IDS = "".join(
    " ".join(str((7 * i + 13 * j) % 120) for j in range(i % 40)) + "\n" for i in range(300)
)


def test_mask_bytes_and_draws_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    Path("ids.txt").write_text(MASK_IDS, encoding="utf-8")
    streams: list[CountingRng] = []

    def counted(global_seed: int) -> Callable[[int], CountingRng]:
        seeds = run_streams(global_seed)

        def stream(sentence_index: int) -> CountingRng:
            streams.append(CountingRng(seeds(sentence_index)._state))
            return streams[-1]
        return stream

    monkeypatch.setattr("treelab.rng.run_streams", counted)
    assert main(["mask", "ids.txt", "--vocab-size", "120", "--seed", "7", "-o", "masked.txt"]) == 0, \
        capsys.readouterr().err
    draws = sum(stream.draws for stream in streams)
    assert (sha256(tmp_path / "masked.txt"), sha256(tmp_path / "masked.txt.labels"), draws) == MASK_PINNED


def test_stats_malformed_lines_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    good = FIXTURE.read_text(encoding="utf-8").splitlines()[:2]
    Path("bad.trees").write_text("\n".join([good[0], *MALFORMED, good[1]]) + "\n", encoding="utf-8")
    assert main(["stats", "bad.trees", "bad.trees"]) == 1
    assert capsys.readouterr().err == MALFORMED_STDERR


def write_retrieval_pair(directory: Path) -> None:
    """``source.emb`` and ``target.emb``: seeded EMBTOK01 files of 600 sentences
    of dimension 5 with 1 to 12 tokens each. Every ninth sentence has all but
    one token flagged special, and every seventh target is unrelated to its
    source. 600 rows span several similarity blocks at any block size from 2
    to 256 rows."""
    rng = np.random.default_rng(22)
    source, target = [], []
    for i in range(600):
        count = int(rng.integers(1, 13))
        special = np.zeros(count, dtype=bool)
        if i % 9 == 0:
            special[:] = True
            special[rng.integers(count)] = False
        elif count > 2:
            special[[0, -1]] = True
        vectors = rng.integers(-8, 9, size=(count, 5)) / 4
        noise = rng.integers(-2, 3, size=(count, 5)) / 8
        other = rng.integers(-8, 9, size=(count, 5)) / 4
        source.append((vectors.astype(np.float32), special))
        target.append(((other if i % 7 == 3 else vectors + noise).astype(np.float32), special))
    write_token_embeddings(str(directory / "source.emb"), EmbeddingMatrix(tuple(source), dim=5, layer=6))
    write_token_embeddings(str(directory / "target.emb"), EmbeddingMatrix(tuple(target), dim=5, layer=6))


# SHA-256 of (stdout, --report JSON) of ``retrieval --source source.emb
# --target target.emb --report r.json`` on the files write_retrieval_pair writes.
RETRIEVAL_PINNED = (
    "66aed8f4747afe7290793feced00911942c5550bff32ab99f373b19eeec02f34",
    "35ad5d5e0b3372238952b30ad918f463010863bb5d2f589e652fdbe3cda47083",
)
# SHA-256 of that run's r.json.provenance.json.
RETRIEVAL_SIDECAR_PINNED = "136ba8c78bedb895f141c2b4e71423ff9ee5a088464728cf0036d2414aa33825"


def test_retrieval_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_retrieval_pair(tmp_path)
    assert main(["retrieval", "--source", "source.emb", "--target", "target.emb",
                 "--report", "r.json"]) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    assert (digest_text(out), sha256(tmp_path / "r.json")) == RETRIEVAL_PINNED


def test_retrieval_reads_a_fifo_source_like_a_file(tmp_path, capsys, monkeypatch):
    """The source is read once, front to back, with no seek: from a FIFO it
    gives the report bytes it gives from the regular file."""
    (tmp_path / "files").mkdir()
    write_retrieval_pair(tmp_path / "files")
    monkeypatch.chdir(tmp_path)
    shutil.copy("files/target.emb", "target.emb")
    with fifo_holding(tmp_path / "source.emb", Path("files/source.emb").read_bytes()):
        assert main(["retrieval", "--source", "source.emb", "--target", "target.emb",
                     "--report", "r.json"]) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    assert (digest_text(out), sha256(tmp_path / "r.json")) == RETRIEVAL_PINNED


@pytest.mark.parametrize("target", ["target.emb", "source.emb", "pooled.emb"])
def test_retrieval_reads_each_input_once(tmp_path, capsys, monkeypatch, target):
    """The sidecar's input digests are those of the bytes the reader consumed: no
    input is read again, also when source and target are one file or the target is
    a pooled file, and the sidecar is the one a second read gives."""
    monkeypatch.chdir(tmp_path)
    write_retrieval_pair(tmp_path)
    write_pooled_embeddings("pooled.emb", np.random.default_rng(3).normal(size=(600, 5)))
    monkeypatch.setattr(files, "sha256_file", lambda path: pytest.fail(f"{path} read again"))
    assert main(["retrieval", "--source", "source.emb", "--target", target,
                 "--report", "r.json"]) == 0, capsys.readouterr().err
    sidecar = tmp_path / "r.json.provenance.json"
    assert json.loads(sidecar.read_text(encoding="utf-8"))["inputs"] == [
        {"path": path, "sha256": sha256(tmp_path / path)} for path in ("source.emb", target)]
    if target == "target.emb":
        assert sha256(sidecar) == RETRIEVAL_SIDECAR_PINNED


def test_retrieval_records_no_digest_for_a_fifo_source(tmp_path, capsys, monkeypatch):
    (tmp_path / "files").mkdir()
    write_retrieval_pair(tmp_path / "files")
    monkeypatch.chdir(tmp_path)
    shutil.copy("files/target.emb", "target.emb")
    with fifo_holding(tmp_path / "source.emb", Path("files/source.emb").read_bytes()):
        assert main(["retrieval", "--source", "source.emb", "--target", "target.emb",
                     "--report", "r.json"]) == 0, capsys.readouterr().err
    inputs = json.loads((tmp_path / "r.json.provenance.json").read_text(encoding="utf-8"))["inputs"]
    assert inputs == [{"path": "source.emb", "sha256": None},
                      {"path": "target.emb", "sha256": sha256(tmp_path / "target.emb")}]
