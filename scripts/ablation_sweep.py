#!/usr/bin/env python3
"""Sweep the composition-removal rate and measure the damage.

For each removal rate alpha, strips that fraction of intermediate nodes
from every tree (optionally re-shuffling the flattened constituents) and
reports how far the surface order moved plus how much bracketing survived.
At alpha=0 with no shuffle every row should read zero; at alpha=1 no
intermediate structure remains and, with --shuffle, order statistics
approach the flat word shuffle.

    python3 scripts/ablation_sweep.py -n 2000 --shuffle
    python3 scripts/ablation_sweep.py wsj.trees --alphas 0,0.1,0.2,0.5,1
"""

from __future__ import annotations

import argparse
import sys

from treelab.metrics import StatsAccumulator, alignment, format_stats_table
from treelab.rng import SeedScheme
from treelab.synthlang import demo_grammar, generate_corpus
from treelab.transform import AblationSpec, intermediate_node_count, remove_composition
from treelab.treebank import read_treebank, yield_sentence


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("treebank", nargs="?", default=None, help="bracketed trees, one per line")
    parser.add_argument("-n", "--count", type=int, default=2000,
                        help="synthetic sentences when no treebank is given")
    parser.add_argument("--alphas", default="0,0.25,0.5,0.75,1",
                        help="comma-separated removal rates")
    parser.add_argument("--shuffle", action="store_true",
                        help="shuffle constituents after each removal pass")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    except ValueError:
        print(f"cannot parse --alphas {args.alphas!r}", file=sys.stderr)
        return 2

    if args.treebank:
        trees = read_treebank(args.treebank)
    else:
        corpus = generate_corpus(demo_grammar(), args.count, seed=args.seed)
        trees = [a for a, _, _ in corpus.pairs]
    if not trees:
        print("empty corpus", file=sys.stderr)
        return 1
    total_intermediates = sum(intermediate_node_count(t) for t in trees)

    rows = []
    kept = []
    for alpha in alphas:
        spec = AblationSpec(alpha, shuffle_after=args.shuffle)
        acc = StatsAccumulator()
        remaining = 0
        for index, tree in enumerate(trees):
            stripped = remove_composition(tree, spec, SeedScheme(args.seed, index).stream())
            remaining += intermediate_node_count(stripped)
            acc.add(alignment(yield_sentence(tree), yield_sentence(stripped)))
        rows.append((f"alpha={alpha:g}", acc.finalize()))
        kept.append((alpha, remaining))

    print(format_stats_table(rows))
    print()
    for alpha, remaining in kept:
        share = remaining / total_intermediates if total_intermediates else 0.0
        print(f"alpha={alpha:<5g} intermediate nodes kept {remaining:>7d} / "
              f"{total_intermediates} ({100 * share:.1f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
