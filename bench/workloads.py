"""The three benchmark workloads: the CLI invocations of one pass and their checks.

Every invocation runs with the pass directory as its working directory and
names its files relative to it, so the bytes it writes (including paths
echoed into reports) are the same wherever the checkout lives.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Invocation:
    """One ``treelab`` command line. Each file in ``outputs`` is data whose
    digest is checked and which must carry a provenance sidecar.

    A ``parallel`` invocation uses more than one CPU (a process pool, BLAS
    threads), so it runs on every CPU of the benchmark instead of being
    pinned to one; see ``harness.SpeedProbes``."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    parallel: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: tuple[str, ...]  # generated files copied into each pass directory
    sizes: dict[str, dict[str, int]]  # size name -> generator parameters
    plan: Callable[[int, dict[str, int]], list[Invocation]]
    items: Callable[[dict, dict[str, int]], int]
    # invocation name -> oracle check(pass_dir, facts, seed) -> problems
    oracles: dict[str, Callable[[Path, dict, int], list[str]]]


# ---------------------------------------------------------------------------
# wsj-chain

WSJ_CHAIN = "reorder:83A,ablate:0.5:shuffle"


def _wsj_plan(seed: int, size: dict[str, int]) -> list[Invocation]:
    return [
        Invocation(
            "transform",
            ("transform", "input.trees", "-o", "out.sents", "--tree-output", "out.trees",
             "--chain", WSJ_CHAIN, "--emit", "both", "--stats", "--skip-bad",
             "--workers", "1", "--seed", str(seed)),
            ("out.sents", "out.trees"),
        ),
        Invocation("stats", ("stats", "clean.trees", "out.trees"), ()),
    ]


def _wsj_counts(pass_dir: Path, facts: dict, seed: int) -> list[str]:
    """The transform sidecar counts equal what the generator planted."""
    planted = facts["planted"]
    expected = {
        "total": facts["lines"],
        "emitted": facts["lines"] - sum(planted.values()),
        **planted,
    }
    sidecar = json.loads((pass_dir / "out.sents.provenance.json").read_text(encoding="utf-8"))
    counts = sidecar.get("counts", {})
    return [
        f"provenance count {key}={counts.get(key)}, generator planted {value}"
        for key, value in expected.items()
        if counts.get(key) != value
    ]


# ---------------------------------------------------------------------------
# synth-roundtrip

SYNTH_CHAIN = "reorder:83A,reorder:85A,reorder:87A"
_LEAF = re.compile(r"\([^\s()]+ ([^\s()]+)\)")


def _synth_plan(seed: int, size: dict[str, int]) -> list[Invocation]:
    return [
        Invocation(
            "synth-generate",
            ("synth", "generate", "-o", "synth", "-n", str(size["pairs"]), "--seed", str(seed)),
            ("synth.alpha.trees", "synth.beta.trees", "synth.align"),
        ),
        Invocation(
            "transform",
            ("transform", "synth.alpha.trees", "-o", "out.sents", "--tree-output", "out.trees",
             "--chain", SYNTH_CHAIN, "--emit", "both", "--stats", "--workers", "2"),
            ("out.sents", "out.trees"),
            parallel=True,
        ),
    ]


def _synth_lexicon_oracle(pass_dir: Path, facts: dict, seed: int) -> list[str]:
    """Reordered alpha sentences, translated word for word, equal the beta yields.

    The beta leaves are read with a regular expression, not the program's
    parser, so the oracle shares no code with the transform it checks.
    """
    from treelab.synthlang import demo_grammar, lexicon_map

    to_beta = lexicon_map(demo_grammar(), "alpha", "beta")
    sentences = (pass_dir / "out.sents").read_text(encoding="utf-8").splitlines()
    beta = (pass_dir / "synth.beta.trees").read_text(encoding="utf-8").splitlines()
    if len(sentences) != len(beta):
        return [f"{len(sentences)} reordered sentences but {len(beta)} beta trees"]
    for lineno, (sentence, tree) in enumerate(zip(sentences, beta), start=1):
        translated = [to_beta.get(word, f"<{word}?>") for word in sentence.split()]
        if translated != _LEAF.findall(tree):
            return [f"line {lineno}: reordered alpha does not translate to the beta yield"]
    return []


# ---------------------------------------------------------------------------
# subword-probe

BPE_VOCAB = 300
ROUNDTRIP_SAMPLE = 64


def _subword_plan(seed: int, size: dict[str, int]) -> list[Invocation]:
    return [
        Invocation(
            "bpe-learn",
            ("bpe", "learn", "text.txt", "-o", "model.bpe", "--vocab-size", str(BPE_VOCAB)),
            ("model.bpe",),
        ),
        Invocation(
            "bpe-apply",
            ("bpe", "apply", "text.txt", "-o", "ids.txt", "--model", "model.bpe"),
            ("ids.txt",),
        ),
        Invocation(
            "mask",
            ("mask", "ids.txt", "-o", "masked.txt", "--model", "model.bpe", "--seed", str(seed)),
            ("masked.txt", "masked.txt.labels"),
        ),
        Invocation(
            "retrieval",
            ("retrieval", "--source", "source.emb", "--target", "target.emb",
             "--report", "retrieval.json"),
            ("retrieval.json",),
            parallel=True,  # the similarity matrix is a multi-threaded BLAS product
        ),
    ]


def _bpe_roundtrip(pass_dir: Path, facts: dict, seed: int) -> list[str]:
    """``bpe_decode(bpe_apply(line))`` gives the line back on sampled lines."""
    from treelab.subword import bpe_decode, load_model

    model = load_model(str(pass_dir / "model.bpe"))
    text = (pass_dir / "text.txt").read_text(encoding="utf-8").splitlines()
    ids = (pass_dir / "ids.txt").read_text(encoding="utf-8").splitlines()
    if len(text) != len(ids):
        return [f"{len(text)} text lines but {len(ids)} id lines"]
    sample = random.Random(f"roundtrip:{seed}").sample(
        range(len(text)), min(ROUNDTRIP_SAMPLE, len(text))
    )
    for index in sorted(sample):
        decoded = bpe_decode(model, [int(i) for i in ids[index].split()])
        if decoded != " ".join(text[index].split()):
            return [f"line {index + 1}: bpe_decode(bpe_apply(line)) differs from the line"]
    return []


# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="wsj-chain",
            why="long English-like trees through reorder+ablate+shuffle and stats: per-node "
            "tree, transform and metrics work dominates, no process pool",
            inputs=("input.trees", "clean.trees"),
            sizes={"full": {"trees": 5000}, "tiny": {"trees": 60}, "one": {"trees": 1}},
            plan=_wsj_plan,
            items=lambda facts, size: facts["lines"],
            oracles={"transform": _wsj_counts},
        ),
        Workload(
            name="synth-roundtrip",
            why="synthesis plus a 3-reorder chain at workers=2 on ~5-token trees: per-line "
            "driver, pickling, pool and provenance cost dominate, with an exact lexicon oracle",
            inputs=(),
            sizes={"full": {"pairs": 8000}, "tiny": {"pairs": 60}, "one": {"pairs": 1}},
            plan=_synth_plan,
            items=lambda facts, size: size["pairs"],
            oracles={"transform": _synth_lexicon_oracle},
        ),
        Workload(
            name="subword-probe",
            why="Zipfian text through bpe learn/apply and mask, then dense top-1 retrieval: "
            "no tree layer runs; subword and rng dominate time, retrieval dominates memory",
            inputs=("text.txt", "source.emb", "target.emb"),
            sizes={"full": {"lines": 3000}, "tiny": {"lines": 40}, "one": {"lines": 1}},
            plan=_subword_plan,
            items=lambda facts, size: facts["lines"],
            oracles={"bpe-apply": _bpe_roundtrip},
        ),
    )
}
