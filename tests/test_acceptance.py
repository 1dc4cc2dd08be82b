"""End-to-end acceptance checks.

Each test exercises one numbered behavioral guarantee of the toolkit and
prints a single ``criterion N PASS|FAIL`` line (run with ``-s`` to watch
them stream by). These are deliberately heavier than the unit tests:
statistical bands over large samples, brute-force oracles, and full CLI
round trips.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import time

import numpy as np
import pytest
import scipy.stats

import conftest
from conftest import random_tree
from test_subword import reference_merges

from treelab.cli import main
from treelab.metrics import (
    AlignedPermutation,
    alignment,
    inversion_ratio,
    word_move_distance,
)
from treelab.rng import Rng, run_streams
from treelab.subword import (
    SPECIAL_TOKENS,
    IGNORE_LABEL,
    MASK_ID,
    MaskingConfig,
    bpe_apply,
    bpe_decode,
    bpe_learn,
    mask_tokens,
)
from treelab.retrieval import top1_retrieval
from treelab.synthlang import corpus_pairs, delta_rules, demo_grammar, translate_tree
from treelab.transform import (
    BUILTIN_RULES,
    AblationSpec,
    apply_reorder,
    constituent_shuffle,
    inverse_rule,
    intermediate_node_count,
    remove_composition,
    word_shuffle,
)
from treelab.treebank import parse_ptb, read_treebank, serialize, yield_sentence

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@contextlib.contextmanager
def criterion(number: int, title: str):
    def record(verdict: str) -> None:
        line = f"criterion {number:2d} {verdict}  {title}"
        print(line, flush=True)
        conftest.ACCEPTANCE_LINES.append(line)

    try:
        yield
    except BaseException:
        record("FAIL")
        raise
    else:
        record("PASS")


def fingerprint(tree):
    return serialize(tree), yield_sentence(tree).origins()


def leaf_multiset(sentence) -> collections.Counter:
    return collections.Counter(sentence.tokens)


@pytest.fixture(scope="module")
def synth_trees():
    """10k canonical-order synthetic trees (plus their mirror-order twins)."""
    _, pairs = corpus_pairs(demo_grammar(), 10_000, 104729)
    return [a for a, _, _ in pairs]


@pytest.fixture(scope="module")
def long_sentences():
    """10k fuzzed trees with at least 8 leaves."""
    rng = Rng(2024)
    trees = []
    while len(trees) < 10_000:
        tree = random_tree(rng, max_depth=4, max_children=4)
        if len(yield_sentence(tree).tokens) >= 8:
            trees.append(tree)
    return trees


def test_criterion_1_reorder_recovers_mirror_language():
    with criterion(1, "rule chain + lexicon map reproduce the mirror side, 1k pairs, <5s"):
        grammar = demo_grammar()
        languages, pairs = corpus_pairs(grammar, 1_000, 31)
        pairs = list(pairs)  # sampled before the clock starts
        rules = delta_rules(grammar, *languages)
        started = time.perf_counter()
        matches = 0
        for side_a, side_b, _ in pairs:
            carried = translate_tree(grammar, apply_reorder(side_a, rules), *languages)
            matches += fingerprint(carried) == fingerprint(side_b)
        elapsed = time.perf_counter() - started
        assert matches == 1_000
        assert elapsed < 5.0


def test_criterion_2_involution_and_idempotence(synth_trees):
    with criterion(2, "reorder then inverse = identity; reorder twice = reorder once; 10k trees"):
        failures = 0
        for tree in synth_trees:
            reference = fingerprint(tree)
            for rule in BUILTIN_RULES.values():
                once = apply_reorder(tree, rule)
                if fingerprint(apply_reorder(once, inverse_rule(rule))) != reference:
                    failures += 1
                if fingerprint(apply_reorder(once, rule)) != fingerprint(once):
                    failures += 1
        assert failures == 0


def test_criterion_3_shuffle_statistics(long_sentences):
    with criterion(3, "word_shuffle mean IR = 0.50 +/- 0.02; constituent_shuffle in [0.35, 0.55]"):
        word_total = 0.0
        constituent_total = 0.0
        for index, tree in enumerate(long_sentences):
            original = yield_sentence(tree)
            shuffled = word_shuffle(original, rng=run_streams(9)(index))
            word_total += inversion_ratio(alignment(original, shuffled))
            permuted = constituent_shuffle(tree, run_streams(10)(index))
            constituent_total += inversion_ratio(alignment(original, yield_sentence(permuted)))
        n = len(long_sentences)
        assert abs(word_total / n - 0.50) <= 0.02
        assert 0.35 <= constituent_total / n <= 0.55


def test_criterion_4_local_reorders_are_small():
    with criterion(4, "each local reorder IR < 10% on English-like parses, all < shuffle IR"):
        trees = list(read_treebank(os.path.join(FIXTURES, "english_like.trees")))
        assert len(trees) >= 40

        def mean_ir(transform):
            total = 0.0
            for index, tree in enumerate(trees):
                original = yield_sentence(tree)
                modified = transform(tree, index)
                total += inversion_ratio(alignment(original, yield_sentence(modified)))
            return total / len(trees)

        local = {
            feature: mean_ir(lambda t, i, r=rule: apply_reorder(t, r))
            for feature, rule in BUILTIN_RULES.items()
        }
        shuffle = mean_ir(lambda t, i: constituent_shuffle(t, run_streams(0)(i)))
        for value in local.values():
            assert value < 0.10
            assert value < shuffle


def test_criterion_5_ablation_degeneracy(synth_trees):
    with criterion(5, "alpha=0 identity; alpha=1 removes all intermediates; alpha=1+shuffle ~ word_shuffle"):
        identity_spec = AblationSpec(0.0)
        full_spec = AblationSpec(1.0)
        for index, tree in enumerate(synth_trees):
            kept = remove_composition(tree, identity_spec, run_streams(0)(index))
            assert fingerprint(kept) == fingerprint(tree)
            stripped = remove_composition(tree, full_spec, run_streams(0)(index))
            assert intermediate_node_count(stripped) == 0
            assert leaf_multiset(yield_sentence(stripped)) == leaf_multiset(yield_sentence(tree))

        # Order-distribution comparison on a sentence whose post-ablation
        # unary chains are singletons: the flattened root then holds one
        # child per token, so its shuffle should be indistinguishable from
        # shuffling the token sequence directly.
        tree = parse_ptb("(S (NP (JJ red) (NN paper)) (VP (VB see) (NP (NN tree))))")
        sentence = yield_sentence(tree)
        spec = AblationSpec(1.0, shuffle_after=True)
        trials = 24_000
        orders: dict[str, collections.Counter] = {
            "ablate": collections.Counter(),
            "shuffle": collections.Counter(),
        }
        for i in range(trials):
            flattened = remove_composition(tree, spec, run_streams(3)(i))
            orders["ablate"][yield_sentence(flattened).surfaces()] += 1
            shuffled = word_shuffle(sentence, rng=run_streams(4)(i))
            orders["shuffle"][shuffled.surfaces()] += 1
        support = sorted(set(orders["ablate"]) | set(orders["shuffle"]))
        assert len(support) == 24  # all 4! orders reached
        table = np.array(
            [[orders[k][perm] for perm in support] for k in ("ablate", "shuffle")]
        )
        outcome = scipy.stats.chi2_contingency(table)
        assert outcome.pvalue > 0.01


def test_criterion_6_metric_oracles():
    with criterion(6, "IR and WMD equal a brute-force O(n^2) reference on 10k permutations"):
        rng = Rng(61)
        for _ in range(10_000):
            n = 1 + rng.randbelow(60)
            values = list(range(n))
            rng.shuffle(values)
            perm = AlignedPermutation(tuple(values))
            brute_inv = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if values[i] > values[j]
            )
            brute_ir = 0.0 if n < 2 else brute_inv / (n * (n - 1) // 2)
            brute_wmd = sum(abs(p - i) for i, p in enumerate(values)) / (n * n)
            assert inversion_ratio(perm) == brute_ir
            assert word_move_distance(perm) == brute_wmd


def test_criterion_7_multiset_preservation():
    with criterion(7, "every transformation preserves the (surface, origin) multiset; 100k trees"):
        rng = Rng(7001)
        spec = AblationSpec(0.5)
        checked = 0
        for index in range(100_000):
            tree = random_tree(rng)
            reference = leaf_multiset(yield_sentence(tree))
            outputs = [
                *(apply_reorder(tree, rule) for rule in BUILTIN_RULES.values()),
                constituent_shuffle(tree, run_streams(1)(index)),
                remove_composition(tree, spec, run_streams(0)(index)),
            ]
            for out in outputs:
                assert leaf_multiset(yield_sentence(out)) == reference
                checked += 1
            shuffled = word_shuffle(
                yield_sentence(tree), rng=run_streams(2)(index)
            )
            assert leaf_multiset(shuffled) == reference
            checked += 1
        assert checked == 600_000


def test_criterion_8_bpe_against_oracle():
    with criterion(8, "BPE merges equal the brute-force oracle on 1k corpora; decode inverts apply"):
        rng = Rng(88)
        alphabet = "abcdef"
        for _ in range(1_000):
            letters = alphabet[: 2 + rng.randbelow(4)]
            corpus = [
                " ".join(
                    "".join(letters[rng.randbelow(len(letters))] for _ in range(1 + rng.randbelow(5)))
                    for _ in range(2 + rng.randbelow(9))
                )
                for _ in range(1 + rng.randbelow(4))
            ]
            used = {c for line in corpus for c in line.replace(" ", "")}
            vocab_size = len(SPECIAL_TOKENS) + 1 + len(used) + rng.randbelow(13)
            model = bpe_learn(corpus, vocab_size)
            assert list(model.merges) == reference_merges(corpus, vocab_size)
            for line in corpus:
                assert bpe_decode(model, bpe_apply(model, line)) == " ".join(line.split())


def test_criterion_9_masking_statistics():
    with criterion(9, "masking: 15% +/- 0.5% selected, 80/10/10 +/- 1.5%, specials untouched"):
        vocab_size = 30_000
        n_special = len(SPECIAL_TOKENS)
        ids = [
            i % n_special if i % 21 == 0 else n_special + (i % (vocab_size - n_special))
            for i in range(1_050_000)
        ]
        masked, labels = mask_tokens(ids, MaskingConfig(seed=90), vocab_size)
        content = selected = 0
        buckets = collections.Counter()
        for original, out, label in zip(ids, masked, labels):
            if original < n_special:
                assert out == original and label == IGNORE_LABEL
                continue
            content += 1
            if label == IGNORE_LABEL:
                assert out == original
                continue
            selected += 1
            if out == MASK_ID:
                buckets["mask"] += 1
            elif out == original:
                buckets["keep"] += 1
            else:
                buckets["random"] += 1
        assert content >= 1_000_000
        assert abs(selected / content - 0.15) <= 0.005
        assert abs(buckets["mask"] / selected - 0.80) <= 0.015
        assert abs(buckets["keep"] / selected - 0.10) <= 0.015
        assert abs(buckets["random"] / selected - 0.10) <= 0.015


def test_criterion_10_retrieval_sanity():
    with criterion(10, "self-retrieval = 1.0; random pairs <= 1%; scaling flips no decisions"):
        rng = np.random.default_rng(4242)
        x = rng.normal(size=(100, 32))
        assert top1_retrieval(x, x).top1_accuracy == 1.0

        source = rng.normal(size=(1_000, 32))
        target = rng.normal(size=(1_000, 32))
        source /= np.linalg.norm(source, axis=1, keepdims=True)
        target /= np.linalg.norm(target, axis=1, keepdims=True)
        assert top1_retrieval(source, target).top1_accuracy <= 0.01

        flips = 0
        for _ in range(1_000):
            a = rng.normal(size=(50, 8))
            b = rng.normal(size=(50, 8))
            base = top1_retrieval(a, b).per_query_nearest
            scaled = top1_retrieval(
                a * rng.uniform(0.01, 100.0, size=(50, 1)),
                b * rng.uniform(0.01, 100.0, size=(50, 1)),
            ).per_query_nearest
            flips += sum(x != y for x, y in zip(base, scaled))
        assert flips == 0


def test_criterion_11_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.setattr("treelab.pipeline.POOL_MIN_S", 0)  # the pool starts before the first chunk
    with criterion(11, "same seed -> byte-identical outputs and digests; workers 1 vs 8 agree"):
        prefix = tmp_path / "pair"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["synth", "generate", "-o", str(prefix), "-n", "150", "--seed", "6"])
        assert code == 0
        source = f"{prefix}.alpha.trees"

        def transform(output: str, workers: str) -> tuple[bytes, dict]:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([
                    "transform", source, "-o", output,
                    "--chain", "constituent_shuffle,word_shuffle",
                    "--seed", "5", "--workers", workers,
                ])
            assert code == 0
            with open(output + ".provenance.json", encoding="utf-8") as fh:
                sidecar = json.load(fh)
            with open(output, "rb") as fh:
                return fh.read(), sidecar

        bytes_a, doc_a = transform(str(tmp_path / "run_a.txt"), "1")
        bytes_b, doc_b = transform(str(tmp_path / "run_b.txt"), "1")
        bytes_c, doc_c = transform(str(tmp_path / "run_c.txt"), "8")
        assert bytes_a == bytes_b == bytes_c
        digests = [doc["output"]["sha256"] for doc in (doc_a, doc_b, doc_c)]
        assert digests[0] == digests[1] == digests[2]
        assert doc_a["inputs"] == doc_b["inputs"] == doc_c["inputs"]
        # Whole sidecars agree whenever the recorded settings agree.
        doc_b["output"]["path"] = doc_a["output"]["path"]
        doc_b["config"]["output"] = doc_a["config"]["output"]
        assert doc_a == doc_b
