#!/usr/bin/env python3
"""Compare word-order displacement across transformations of one corpus.

Applies each built-in reorder rule, the constituent shuffle, and the flat
word shuffle to the same trees, then prints one stats row per transform
(mean inversion ratio and word-move distance against the originals).

With no input file, trees are sampled from the built-in two-language demo
grammar, so the script runs self-contained:

    python3 scripts/shuffle_metrics_experiment.py -n 2000
    python3 scripts/shuffle_metrics_experiment.py wsj.trees --seed 7 --min-length 8
"""

from __future__ import annotations

import argparse
import sys

from treelab.metrics import StatsAccumulator, alignment, format_stats_table
from treelab.rng import SeedScheme
from treelab.synthlang import demo_grammar, generate_corpus
from treelab.transform import BUILTIN_RULES, apply_reorder, constituent_shuffle, word_shuffle
from treelab.treebank import read_treebank, yield_sentence


def load_trees(args: argparse.Namespace):
    if args.treebank:
        trees = read_treebank(args.treebank)
    else:
        corpus = generate_corpus(demo_grammar(), args.count, seed=args.seed)
        trees = [a for a, _, _ in corpus.pairs]
    return [t for t in trees if len(yield_sentence(t)) >= args.min_length]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("treebank", nargs="?", default=None, help="bracketed trees, one per line")
    parser.add_argument("-n", "--count", type=int, default=2000,
                        help="synthetic sentences when no treebank is given")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-length", type=int, default=1,
                        help="drop sentences shorter than this many tokens")
    args = parser.parse_args(argv)

    trees = load_trees(args)
    if not trees:
        print("no sentences left after filtering", file=sys.stderr)
        return 1

    transforms = [
        *(
            (f"reorder:{feature}", lambda t, i, r=rule: apply_reorder(t, r))
            for feature, rule in BUILTIN_RULES.items()
        ),
        ("constituent_shuffle", lambda t, i: constituent_shuffle(t, SeedScheme(args.seed, i).stream())),
    ]
    rows = []
    for label, transform in transforms:
        acc = StatsAccumulator()
        for index, tree in enumerate(trees):
            original = yield_sentence(tree)
            acc.add(alignment(original, yield_sentence(transform(tree, index))))
        rows.append((label, acc.finalize()))

    acc = StatsAccumulator()
    for index, tree in enumerate(trees):
        original = yield_sentence(tree)
        acc.add(alignment(original, word_shuffle(original, SeedScheme(args.seed, index).stream())))
    rows.append(("word_shuffle", acc.finalize()))

    print(format_stats_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
