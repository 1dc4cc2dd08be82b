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
  exists that only tests set.
* Every function and class of ``src/treelab`` is reached: runs of each
  subcommand, the README's Python blocks and the acceptance oracles call
  each function and make an instance of each class, so no code path exists
  that only tests reach. What they do not reach is listed with its reason.
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
* Memory depends on the chunk, not the corpus: each streaming command's
  ``tracemalloc`` peak at 8k input lines stays within a fixed ratio of its
  peak at k lines.
* Every record whose ``__new__`` checks its fields checks a copy made by
  ``_replace`` or ``_make`` too.
"""

from __future__ import annotations

import ast
import gc
import hashlib
import inspect
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from helpers import (CountingRng, fifo_holding, signalling_fifo, write_pooled_embeddings,
                     write_token_embeddings)
from test_readme import code_blocks
from treelab import files, pipeline
from treelab.cli import SEED_ENV, WORKERS_ENV, main
from treelab.metrics import AlignedPermutation
from treelab.retrieval import EmbeddingMatrix
from treelab.rng import run_streams
from treelab.subword import MaskingConfig
from treelab.synthlang import OrderProfile, Production, demo_grammar
from treelab.transform import BUILTIN_RULES, AblationSpec
from treelab.treebank import Sentence, leaf

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
    "ConstituentShuffleStep.include_root": "bench/replicas.py reads it",
}


def _parameters(args: ast.arguments) -> tuple[list[str], list[str]]:
    """The parameters that can be passed by position, in order, and those that have a default."""
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    return positional, defaulted


def _signatures(tree: ast.Module) -> dict[str, tuple[list[str], list[str]]]:
    """Each public module-level function and class of ``tree``: the parameters
    that can be passed by position, in order, and those that have a default. A
    class's are its ``__new__`` or ``__init__`` parameters after ``cls`` or
    ``self``, else the ``__init__`` fields of a dataclass or the fields of a
    ``NamedTuple``. Errors are left out: a subclass raised by its own name
    passes its base's parameters, which a count by name cannot follow."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found[node.name] = _parameters(node.args)
        elif (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
              and not node.name.endswith("Error")):
            constructor = next((item for item in node.body if isinstance(item, ast.FunctionDef)
                                and item.name in ("__new__", "__init__")), None)
            if constructor is not None:
                positional, defaulted = _parameters(constructor.args)
                found[node.name] = positional[1:], defaulted
            elif (any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                  or any(ast.unparse(base) == "NamedTuple" for base in node.bases)):
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


#: Why something that no reach run calls may stay, with the file that must
#: name it on the cited line: the benchmark calls it, an acceptance criterion
#: calls it, or it keeps trees of any depth safe (the ``treebank`` docstring).
REACH_REASONS = {"bench": "bench/", "criterion": "tests/test_acceptance.py",
                 "deep trees": "tests/test_deep_trees.py"}

#: Functions, methods and classes of ``src/treelab`` that no reach run calls:
#: each one's reason from REACH_REASONS, the ``FILE:LINE`` that needs it, and
#: the text on that line that names it.
UNREACHED_ALLOWED = {
    "files.write_provenance": ("bench", "bench/replicas.py:303", "write_provenance"),
    "retrieval.EmbeddingMatrix": ("bench", "bench/replicas.py:444", "read_token_embeddings"),
    "retrieval.pool_matrix": ("bench", "bench/replicas.py:445", "pool_matrix"),
    "retrieval.read_token_embeddings": ("bench", "bench/replicas.py:444", "read_token_embeddings"),
    "rng.stream_seed": ("bench", "bench/replicas.py:215", "stream_seed"),
    "rng.Rng._state": ("bench", "bench/replicas.py:215", "stream_seed"),
    "rng.Rng.next_u64": ("bench", "bench/replicas.py:198", "Rng.next_u64"),
    "subword.save_model": ("bench", "bench/replicas.py:367", "save_model"),
    "subword.read_ids_file": ("bench", "bench/replicas.py:412", "read_ids_file"),
    "synthlang.ParallelCorpus": ("bench", "bench/replicas.py:349", "ParallelCorpus"),
    "synthlang.sample_pair": ("bench", "bench/replicas.py:345", "sample_pair"),
    "synthlang.write_corpus": ("bench", "bench/replicas.py:349", "write_corpus"),
    "transform.ReorderRule.matches": ("bench", "bench/replicas.py:272", "matches"),
    "transform.word_shuffle": ("criterion", "tests/test_acceptance.py:141", "word_shuffle"),
    "synthlang.corpus_pairs": ("criterion", "tests/test_acceptance.py:108", "corpus_pairs"),
    "synthlang._trees": ("criterion", "tests/test_acceptance.py:108", "corpus_pairs"),
    "treebank.Sentence.origins": ("criterion", "tests/test_acceptance.py:79", "origins"),
    # Criterion 7's fuzzed trees are built by hand, without origins.
    "treebank.Sentence.of_leaves.<locals>.<genexpr>": (
        "criterion", "tests/test_acceptance.py:237", "yield_sentence"),
    "treebank.TreeNode.__eq__": ("deep trees", "tests/test_deep_trees.py:60", "=="),
    "treebank.TreeNode.__hash__": ("deep trees", "tests/test_deep_trees.py:61", "hash("),
    "treebank.TreeNode.__repr__": ("deep trees", "tests/test_deep_trees.py:67", "repr("),
}


def _reach_inputs(tmp: Path) -> None:
    """The files the reach runs read, written before anything is watched."""
    shutil.copytree(ROOT / "tests" / "fixtures", tmp / "tests" / "fixtures")
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()
    Path("bad.trees").write_text("\n".join([lines[0], "", "(())", *MALFORMED, lines[1]]) + "\n",
                                 encoding="utf-8")
    Path("latin1.trees").write_bytes(lines[0].encode("utf-8") + b"\n(S (NN caf\xe9))\n")
    Path("rules.txt").write_text("NPD NP DT NN prefix:NN  # determiner last\n", encoding="utf-8")
    Path("run.conf").write_text("# a transform run\nchain = reorder:83A,reorder:NPD\nseed = 3  # any\n",
                                encoding="utf-8")
    # X and Z recurse with no all-preterminal rule for Z, so some derivations
    # reach the depth cap and are sampled again.
    Path("g.grammar").write_text(
        "language a\nlanguage b 83A=OV\nrule S -> NP VP\nrule S -> X : 2\nrule NP -> NN\n"
        "rule VP -> VB NP\nrule X -> Z NN : 2048\nrule X -> NN\nrule Z -> X IN\n"
        "lex a NN cat dog\nlex a IN on\nlex a VB see\nlex b NN neko inu\nlex b IN ue\n"
        "lex b VB miru\n", encoding="utf-8")
    Path("bad.grammar").write_text("language a\nrule S -> NN\nlex a NN cat\nlex a VB cat\n",
                                   encoding="utf-8")
    Path("text.txt").write_text("the cat sat\nthe cat ran\nthe dog sat\n", encoding="utf-8")
    Path("other.txt").write_text("the cat sat\nthe dog ran\na dog sat\n", encoding="utf-8")
    rng = np.random.default_rng(5)
    sentences = tuple((rng.normal(size=(3, 4)).astype(np.float32), np.array([True, False, False]))
                      for _ in range(6))
    write_token_embeddings("tokens.emb", EmbeddingMatrix(sentences, dim=4))
    write_pooled_embeddings("pooled.emb", rng.normal(size=(6, 4)))
    write_pooled_embeddings("narrow.emb", rng.normal(size=(6, 3)))


#: ``cli.main`` runs in the order given, each with its exit status: each
#: subcommand's happy path and one bad input of each, and a run that SIGTERM
#: stops as it reads ``stop.fifo``.
REACH_RUNS = [
    (["synth", "generate", "-o", "demo", "-n", "60", "--seed", "3"], 0),
    (["synth", "generate", "-o", "g", "--grammar", "g.grammar", "-n", "20", "--languages", "b", "a"], 0),
    (["synth", "generate", "-o", "x", "--grammar", "bad.grammar"], 1),
    (["transform", str(FIXTURE), "-o", "t.txt", "--config", "run.conf", "--rules", "rules.txt",
      "--emit", "both", "--tree-output", "t.trees", "--stats", "--report", "t.json"], 0),
    (["transform", "demo.alpha.trees", "bad.trees", "-o", "s.txt", "--skip-bad", "--stats", "--chain",
      "reorder:83A,constituent_shuffle,ablate:0.5:shuffle,reorder:87A,word_shuffle"], 0),
    (["transform", "tests/fixtures/english_like.trees", "-o", "ablate-0.5.trees", "--emit", "trees",
      "--seed", "2", "--chain", "ablate:0.5:shuffle"], 0),
    (["transform", "demo.alpha.trees", "-o", "w.txt", "--chain", "reorder:83A", "--workers", "2"], 0),
    (["transform", "bad.trees", "-o", "b.txt", "--chain", "ablate:0.3"], 1),
    (["transform", "latin1.trees", "-o", "l.txt", "--chain", "word_shuffle"], 1),
    (["transform", "bad.trees", "-o", "c.txt", "--chain", "reorder:83A,frob"], 2),
    (["stats", str(FIXTURE), "t.trees", "--report", "s.json"], 0),
    (["stats", "text.txt", "other.txt"], 1),
    (["bpe", "learn", "text.txt", "-o", "m.bpe", "--vocab-size", "40", "--language", "toy"], 0),
    (["bpe", "learn", "text.txt", "-o", "tiny.bpe", "--vocab-size", "7"], 1),
    (["bpe", "apply", "text.txt", "-o", "ids.txt", "--model", "m.bpe"], 0),
    (["bpe", "apply", "text.txt", "-o", "x.ids", "--model", "text.txt"], 1),
    (["mask", "ids.txt", "-o", "masked.txt", "--model", "m.bpe", "--seed", "1"], 0),
    (["mask", "ids.txt", "-o", "x.masked", "--vocab-size", "6"], 1),
    (["mask", "stop.fifo", "-o", "stopped.ids", "--vocab-size", "6"], 128 + signal.SIGTERM),
    (["retrieval", "--source", "tokens.emb", "--target", "pooled.emb", "--report", "r.json"], 0),
    (["retrieval", "--source", "tokens.emb", "--target", "narrow.emb"], 1),
]


def _reach_library() -> None:
    """The README's Library and Experiments Python blocks, as written, and each
    acceptance oracle once."""
    from treelab.subword import bpe_apply, bpe_decode, load_model
    from treelab.synthlang import delta_rules, demo_grammar, lexicon_map, translate_tree
    from treelab.transform import BUILTIN_RULES, apply_reorder, inverse_rule
    from treelab.treebank import parse_ptb

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for section in ("Library", "Experiments"):
        text = readme.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
        namespace: dict = {}
        for lang, block in code_blocks(text):
            if lang == "python":
                exec(compile(block, "README.md", "exec"), namespace)
    grammar = demo_grammar()
    tree = parse_ptb("(S (NP (PRP i)) (VP (VB see) (NP (JJ red) (NN bird))))")
    translate_tree(grammar, apply_reorder(tree, delta_rules(grammar, "alpha", "beta")), "alpha", "beta")
    lexicon_map(grammar, "beta", "alpha")
    apply_reorder(tree, inverse_rule(BUILTIN_RULES["83A"]))
    model = load_model("m.bpe")
    bpe_decode(model, bpe_apply(model, "the cat"))


def _defined() -> tuple[dict[tuple, str], dict[type, str]]:
    """Every function and method code object of ``src/treelab``, nested ones
    included, keyed as a running frame's code is, and every class defined at
    module level; each by its dotted name within the package. Each module's
    function caches are emptied, so what earlier tests cached runs again."""
    import importlib
    functions, classes = {}, {}
    for path in sorted((ROOT / "src" / "treelab").glob("*.py")):
        name = "treelab" if path.stem == "__init__" else f"treelab.{path.stem}"
        module = importlib.import_module(name)
        for value in vars(module).values():
            getattr(value, "cache_clear", lambda: None)()
        classes.update({value: f"{path.stem}.{key}" for key, value in vars(module).items()
                        if isinstance(value, type) and value.__module__ == name})
        codes = [(compile(path.read_text(encoding="utf-8"), module.__file__, "exec"), "")]
        while codes:
            code, qualname = codes.pop()
            function = code.co_flags & inspect.CO_NEWLOCALS  # not a module or class body
            inner = f"{qualname}.<locals>." if function else f"{qualname}." if qualname else ""
            codes += [(c, inner + c.co_name) for c in code.co_consts if isinstance(c, type(code))]
            if function:
                functions[code.co_filename, code.co_firstlineno, code.co_name] = (
                    f"{path.stem}.{qualname}")
    return functions, classes


def test_every_function_runs_under_the_cli_or_is_named_api(tmp_path, monkeypatch, capsys):
    """Under ``sys.setprofile``, REACH_RUNS, the README's Python blocks and the
    acceptance oracles call every function and method of ``src/treelab``,
    nested ones included, and make an instance of every class: a class is
    reached when a call's ``self`` (``cls`` for ``__new__``) or an exception
    being handled is one of it. What is not reached stays only on
    UNREACHED_ALLOWED, for one reason of a closed set (REACH_REASONS): a
    ``bench/`` file calls it, an acceptance criterion calls it, or it keeps
    deep trees safe, as ``test_deep_trees.py`` checks; the entry cites the
    line. What only tests call belongs in ``tests/helpers.py``."""
    monkeypatch.delenv(SEED_ENV, raising=False)
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    _reach_inputs(tmp_path)
    functions, classes = _defined()
    called: set = set()
    instances: set = set()

    def watch(frame, event, arg):
        handled = sys.exc_info()[1]
        if handled is not None:
            instances.add(type(handled))
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))
            first = code.co_varnames[:1] if code.co_argcount else ()
            if first == ("self",):
                instances.add(type(frame.f_locals["self"]))
            elif first == ("cls",) and code.co_name == "__new__":
                instances.add(frame.f_locals["cls"])
            elif first == ("_cls",):  # the __new__ that collections.namedtuple makes
                instances.add(frame.f_locals["_cls"])

    statuses = []
    sys.setprofile(watch)
    try:
        with signalling_fifo(tmp_path / "stop.fifo", b"3 4\n", signal.SIGTERM):
            for argv, _ in REACH_RUNS:
                if argv[0] == "transform" and "--workers" not in argv:
                    argv = [*argv, "--workers", "1"]
                statuses.append(main(argv))
        _reach_library()
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert statuses == [status for _, status in REACH_RUNS]
    unreached = {name for key, name in functions.items() if key not in called}
    unreached |= {name for cls, name in classes.items()
                  if not any(issubclass(seen, cls) for seen in instances)}
    allowed = {name for name in unreached
               if any(name == entry or name.startswith(entry + ".") for entry in UNREACHED_ALLOWED)}
    assert not unreached - allowed, "reached by no run:\n" + "\n".join(sorted(unreached - allowed))
    assert not set(UNREACHED_ALLOWED) - unreached, sorted(set(UNREACHED_ALLOWED) - unreached)


@pytest.mark.parametrize("name", sorted(UNREACHED_ALLOWED))
def test_each_unreached_entry_cites_a_line_that_needs_it(name):
    reason, where, shown = UNREACHED_ALLOWED[name]
    path, _, line = where.partition(":")
    assert reason in REACH_REASONS and path.startswith(REACH_REASONS[reason])
    assert shown in (ROOT / path).read_text(encoding="utf-8").splitlines()[int(line) - 1]


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
    monkeypatch.setattr(pipeline, "POOL_MIN_S", 0)  # the pool starts before the first chunk
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
    "error: bad.trees: 3 line(s) failed; outputs written\n"
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
    monkeypatch.setattr(pipeline, "POOL_MIN_S", 0)  # the pool starts before the first chunk
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


# The memory guard runs each streaming command at MEMORY_K and 8 * MEMORY_K
# lines, with CHUNK_LINES cut to MEMORY_K // 8 and MEMO_LINES to MEMORY_K // 4,
# so both sizes run many chunks and both draw-free runs fill the memo and empty
# it. Each run starts after a full collection, so its peak does not depend on
# the garbage of the runs before it. Peaks measured at k = 128 (Python 3.11,
# one 2-core Xeon VM, the same under three hash seeds), in MB from k to 8k
# lines: transform 0.23 -> 0.28 (draws) and 0.23 -> 0.27 (draw-free), stats
# 0.12 -> 0.12, bpe apply 0.21 -> 0.24, mask 0.22 -> 0.26, synth generate
# 0.27 -> 0.37; the largest ratio is 1.38. Reading both of ``stats``' inputs
# into lists gives 4.0x; a memo that is never emptied gives 3.5x.
MEMORY_K = 128
MEMORY_RATIO = 2.0
MEMORY_TRANSFORM = "transform {n}.trees -o {n}.txt --tree-output {n}.out.trees --emit both --stats --chain "
MEMORY_COMMANDS = {
    "transform (draws)": MEMORY_TRANSFORM + "reorder:83A,ablate:0.5:shuffle",
    "transform (draw-free)": MEMORY_TRANSFORM + "reorder:83A,reorder:87A",
    "stats": "stats {n}.trees {n}.txt",
    "bpe apply": "bpe apply {n}.txt -o {n}.ids --model m.bpe",
    "mask": "mask {n}.ids -o {n}.masked --model m.bpe",
    "synth generate": "synth generate -n {n} -o {n}.synth",
}


def memory_tree(i: int) -> str:
    """A distinct tree for each ``i < 16 * 13 * 11``; the first 16 use all 63 words."""
    a, b, c = i % 16, i % 13, i % 11
    return (f"(S (NP (DT the) (JJ a{a}) (NN b{b})) (VP (VBD saw) (NP (NP (JJ c{c}) (NN d{i % 7}))"
            f" (PP (IN on) (NP (DT a) (NN e{i % 5}))))) (PP (IN in) (NP (NN f{i % 3}) (NN g{a}))))")


def test_memory_depends_on_the_chunk_not_the_corpus(tmp_path, monkeypatch, capsys):
    """Each streaming command's tracemalloc peak at 8k input lines is within
    MEMORY_RATIO of its peak at k lines. ``bpe learn`` is left out: it counts
    every distinct word of its input by design, so its peak follows the vocabulary."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV, raising=False)
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.setattr(pipeline, "CHUNK_LINES", MEMORY_K // 8)
    monkeypatch.setattr(pipeline, "MEMO_LINES", MEMORY_K // 4)
    sizes = (MEMORY_K, 8 * MEMORY_K)
    for n in sizes:
        Path(f"{n}.trees").write_text("".join(memory_tree(i) + "\n" for i in range(n)), encoding="utf-8")
    assert main(["transform", f"{MEMORY_K}.trees", "-o", "words.txt", "--chain", "reorder:83A"]) == 0
    assert main(["bpe", "learn", "words.txt", "-o", "m.bpe", "--vocab-size", "200"]) == 0
    peaks: dict[str, list[float]] = {}
    tracemalloc.start()
    try:
        for name, argv in MEMORY_COMMANDS.items():
            for n in sizes:
                gc.collect()  # each run starts from no garbage of the one before
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                assert main(argv.format(n=n).split()) == 0, capsys.readouterr().err
                peaks.setdefault(name, []).append((tracemalloc.get_traced_memory()[1] - before) / 1e6)
    finally:
        tracemalloc.stop()
    grown = {name: f"{k:.2f} -> {big:.2f} MB" for name, (k, big) in peaks.items() if big > MEMORY_RATIO * k}
    assert not grown, grown


# Each record whose __new__ checks its fields: a valid instance and fields that fail a check.
CHECKED_RECORDS = [
    (lambda: leaf("NN", "a"), {"children": (leaf("NN", "b"),)}),  # a token and children
    (lambda: Sentence((("a", 0),)), {"tokens": (("a", 5),)}),
    (lambda: BUILTIN_RULES["83A"], {"first_child": "NP"}),  # equal child patterns
    (lambda: AblationSpec(0.5), {"alpha": 7.0}),
    (lambda: AlignedPermutation((1, 0)), {"pi": (0, 0)}),
    (lambda: OrderProfile(), {"verb_object": "XY"}),
    (lambda: Production("S", ("NP",)), {"weight": math.nan}),
    (demo_grammar, {"start": "ZZZ"}),
    (lambda: MaskingConfig(), {"mask_rate": 7.0}),
]


@pytest.mark.parametrize("make, bad", CHECKED_RECORDS,
                         ids=[make().__class__.__name__ for make, _ in CHECKED_RECORDS])
def test_a_copy_of_a_checked_record_is_checked(make, bad):
    record = make()
    assert record._replace() == record and type(record)._make(record) == record
    with pytest.raises(ValueError):
        record._replace(**bad)
    with pytest.raises(ValueError):
        type(record)._make({**record._asdict(), **bad}.values())
