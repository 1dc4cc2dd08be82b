"""Trees nested far deeper than Python's recursion limit.

Every tree walk must run on an explicit stack: parsing, each chain step,
yield, serialization, equality, hashing, repr, translation, and the CLI
around them.
"""

from __future__ import annotations

import collections

import pytest

from helpers import apply_chain
from treelab.cli import main
from treelab.pipeline import parse_chain
from treelab.rng import run_streams
from treelab.synthlang import demo_grammar, translate_tree
from treelab.transform import BUILTIN_RULES, apply_reorder
from treelab.treebank import parse_ptb, serialize, yield_sentence

DEPTH = 10_000


def deep_tree_text(depth: int) -> str:
    """Right-branching ``(VP (VB see) (NP (NN paper) (VP ...)))``, ``depth``
    levels deep, ending in ``(NN bird)``; words are from the demo grammar."""
    pairs = depth // 2
    return "(VP (VB see) (NP (NN paper) " * pairs + "(NN bird)" + "))" * pairs


def reordered_origins(depth: int) -> list[int]:
    """Origins after ``reorder:83A``: every VP puts its NP before its verb."""
    pairs = depth // 2
    nouns = [2 * i + 1 for i in range(pairs)]
    verbs = [2 * i for i in reversed(range(pairs))]
    return nouns + [2 * pairs] + verbs


@pytest.fixture(scope="module")
def text() -> str:
    return deep_tree_text(DEPTH)


@pytest.fixture(scope="module")
def tree(text):
    return parse_ptb(text)


def test_parse_serialize_round_trip(text, tree):
    assert serialize(tree) == text
    sentence = yield_sentence(tree)
    assert len(sentence) == DEPTH + 1
    assert sentence.origins() == tuple(range(DEPTH + 1))


def test_equality_and_hash(text, tree):
    again = parse_ptb(text)
    assert again is not tree
    assert again == tree and not again != tree
    assert hash(again) == hash(tree)
    assert parse_ptb(text.replace("bird", "stone")) != tree


def test_repr(text, tree):
    assert repr(parse_ptb("(S (NN a) (VB b))")) == "TreeNode('(S (NN a) (VB b))', origins=(0, 1))"
    assert repr(tree) == f"TreeNode({text!r}, origins={tuple(range(DEPTH + 1))})"


def test_reorder(tree):
    result = apply_reorder(tree, BUILTIN_RULES["83A"])
    assert list(yield_sentence(result).origins()) == reordered_origins(DEPTH)
    assert apply_reorder(result, BUILTIN_RULES["83A"]) == result  # nothing left to match


@pytest.mark.parametrize(
    "chain", ["reorder:83A", "constituent_shuffle", "ablate:0.5:shuffle", "word_shuffle"]
)
def test_chain_steps_keep_tokens(tree, chain):
    out_tree, sentence = apply_chain(tree, parse_chain(chain), run_streams(3)(0))
    before = yield_sentence(tree).tokens
    assert collections.Counter(sentence.tokens) == collections.Counter(before)
    if out_tree is not None:
        assert yield_sentence(parse_ptb(serialize(out_tree))).surfaces() == sentence.surfaces()


def test_translate_tree(tree):
    translated = translate_tree(demo_grammar(), tree, "alpha", "beta")
    assert set(yield_sentence(translated).surfaces()) == {"kan", "zhi", "niao"}
    assert yield_sentence(translated).origins() == yield_sentence(tree).origins()


def test_cli_transform_and_stats(tmp_path, capsys, text):
    src = tmp_path / "deep.trees"
    src.write_text("(S (NP (PRP I)) (VP (VBD saw) (NP (NN it))))\n" + text + "\n(S (NP\n")
    out, trees = tmp_path / "out.txt", tmp_path / "out.trees"
    code = main([
        "transform", str(src), "-o", str(out), "--tree-output", str(trees),
        "--emit", "both", "--chain", "reorder:83A", "--skip-bad",
    ])
    err = capsys.readouterr().err
    assert code == 0, err
    assert "Traceback" not in err and "skipped 1 malformed line(s)" in err
    first, deep = out.read_text().splitlines()
    assert first == "I it saw"
    words = ["see", "paper"] * (DEPTH // 2) + ["bird"]
    assert deep.split() == [words[i] for i in reordered_origins(DEPTH)]

    clean = tmp_path / "clean.trees"
    clean.write_text("\n".join(src.read_text().splitlines()[:2]) + "\n")
    code = main(["stats", str(clean), str(trees)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "Traceback" not in captured.err
    assert f"{2:>8d} {3 + DEPTH + 1:>9d}" in captured.out  # sentences, tokens
