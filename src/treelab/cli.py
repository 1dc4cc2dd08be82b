"""Command-line front end.

Subcommands: ``transform``, ``stats``, ``bpe learn``, ``bpe apply``,
``mask``, ``retrieval``, ``synth generate``. Every subcommand accepts
``--config FILE``, and every one but ``stats`` (which draws no random
numbers and runs in one process) also ``--seed`` and ``--workers``. Option
values resolve in a fixed precedence: explicit flag, then environment
(``TREELAB_SEED``, ``TREELAB_WORKERS``), then the config file, then the
built-in default.

A config file holds ``key = value`` lines (``#`` comments allowed); keys
mirror the long option names of the subcommand being run. Input and
output paths are always given on the command line — a manifest that
silently redirects file writes is a footgun, not a convenience.

Every file a subcommand writes, reports included, gets a provenance sidecar
that hashes every file the command read (``pipeline.recorded``).

Exit status: 0 on success, 1 on hard errors (unreadable input, a failed
write, malformed trees without ``--skip-bad``, alignment failures), 2 on
usage errors (an aliased output among them).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO, Sequence

from .pipeline import (
    PipelineConfig,
    PipelineError,
    UsageError,
    read_lines,
    recorded,
    replace_on_success,
    run_stats,
    run_transform,
    write_json,
)
from .subword import (
    MaskingConfig,
    bpe_apply,
    bpe_learn,
    iter_ids_file,
    load_model,
    mask_tokens,
    save_model,
)
from .synthlang import corpus_pairs, demo_grammar, load_grammar, write_pairs
from .version import TOOL_VERSION

SEED_ENV = "TREELAB_SEED"
WORKERS_ENV = "TREELAB_WORKERS"

_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}

_CONFIG_KEYS = {
    "transform": frozenset({"seed", "workers", "chain", "emit", "skip-bad", "stats", "report", "rules"}),
    "stats": frozenset({"report"}),
    "bpe learn": frozenset({"seed", "workers", "vocab-size", "language"}),
    "bpe apply": frozenset({"seed", "workers"}),
    "mask": frozenset({"seed", "workers", "rate", "vocab-size"}),
    "retrieval": frozenset({"seed", "workers", "report"}),
    "synth generate": frozenset({"seed", "workers", "count", "grammar"}),
}


def _convert(raw: str, kind: type, origin: str):
    try:
        if kind is bool:
            return _BOOL_WORDS[raw.strip().lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise UsageError(f"{origin}: cannot read {raw!r} as {kind.__name__}") from None


def load_config_file(path: str, allowed: frozenset[str]) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        if key not in allowed:
            raise UsageError(
                f"{path}:{lineno}: unknown key {key!r}; this subcommand accepts "
                + ", ".join(sorted(allowed))
            )
        entries[key] = value.strip()
    return entries


def _resolve(
    flag_value,
    *,
    config: dict[str, str],
    key: str | None = None,
    env: str | None = None,
    default=None,
    kind: type = str,
):
    """flag > environment > config file > default."""
    if flag_value is not None:
        return flag_value
    if env is not None and os.environ.get(env, "") != "":
        return _convert(os.environ[env], kind, f"environment variable {env}")
    if key is not None and key in config:
        return _convert(config[key], kind, f"config key {key!r}")
    return default


def _load_config(args: argparse.Namespace, command_key: str) -> dict[str, str]:
    if getattr(args, "config", None) is None:
        return {}
    return load_config_file(args.config, _CONFIG_KEYS[command_key])


def _seed_and_workers(args: argparse.Namespace, config: dict[str, str]) -> tuple[int, int]:
    seed = _resolve(args.seed, config=config, key="seed", env=SEED_ENV, default=0, kind=int)
    workers = _resolve(
        args.workers, config=config, key="workers", env=WORKERS_ENV, default=1, kind=int
    )
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    return seed, workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treelab",
        description="Transform constituency treebanks, measure the damage, "
        "and prepare subword/retrieval artifacts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    config_only = argparse.ArgumentParser(add_help=False)
    config_only.add_argument(
        "--config", metavar="FILE", default=None,
        help="'key = value' defaults file; explicit flags win",
    )
    common = argparse.ArgumentParser(add_help=False, parents=[config_only])
    common.add_argument(
        "--seed", type=int, default=None,
        help=f"global random seed (env {SEED_ENV}; default 0)",
    )
    common.add_argument(
        "--workers", type=int, default=None,
        help=f"worker processes (env {WORKERS_ENV}; default 1)",
    )

    p = sub.add_parser(
        "transform", parents=[common],
        help="apply a transformation chain to treebank files",
    )
    p.set_defaults(run=_cmd_transform)
    p.add_argument("inputs", nargs="+", metavar="TREEBANK", help="input treebank file(s)")
    p.add_argument("-o", "--output", required=True, help="output corpus path")
    p.add_argument(
        "--chain", default=None,
        help="comma-separated steps: reorder:FEATURE, constituent_shuffle, "
        "ablate:ALPHA[:shuffle], word_shuffle (final only)",
    )
    p.add_argument(
        "--emit", choices=("sentences", "trees", "both"), default=None,
        help="write token lines, tree lines, or both (default sentences)",
    )
    p.add_argument("--tree-output", default=None, help="tree output path for --emit both")
    p.add_argument(
        "--stats", action="store_true", default=None,
        help="report inversion ratio and word-move distance vs. the input",
    )
    p.add_argument("--report", default=None, help="also write the stats as JSON (needs --stats)")
    p.add_argument(
        "--skip-bad", action="store_true", default=None,
        help="count and drop malformed lines instead of failing",
    )
    p.add_argument("--rules", default=None, help="file of extra reorder rules")

    p = sub.add_parser(
        "stats", parents=[config_only],
        help="compare two line-aligned corpora (token lines or treebanks)",
    )
    p.set_defaults(run=_cmd_stats)
    p.add_argument("original", help="original corpus")
    p.add_argument("modified", help="modified corpus")
    p.add_argument("--report", default=None, help="also write the report as JSON")

    p = sub.add_parser("bpe", help="learn or apply subword vocabularies")
    bpe_sub = p.add_subparsers(dest="bpe_command", required=True, metavar="ACTION")
    p = bpe_sub.add_parser("learn", parents=[common], help="learn merges from text")
    p.set_defaults(run=_cmd_bpe_learn)
    p.add_argument("inputs", nargs="+", metavar="TEXT", help="training text file(s)")
    p.add_argument("-o", "--output", required=True, help="model file to write")
    p.add_argument(
        "--vocab-size", type=int, default=None, help="vocabulary budget (default 32000)"
    )
    p.add_argument("--language", default=None, help="language tag recorded in the model")
    p = bpe_sub.add_parser("apply", parents=[common], help="encode text to subword ids")
    p.set_defaults(run=_cmd_bpe_apply)
    p.add_argument("inputs", nargs="+", metavar="TEXT", help="text file(s) to encode")
    p.add_argument("-o", "--output", required=True, help="ids file to write")
    p.add_argument("--model", required=True, help="model file from 'bpe learn'")

    p = sub.add_parser(
        "mask", parents=[common],
        help="make masked-token training pairs from an ids file",
    )
    p.set_defaults(run=_cmd_mask)
    p.add_argument("input", metavar="IDS", help="ids file from 'bpe apply'")
    p.add_argument("-o", "--output", required=True, help="masked ids file to write")
    p.add_argument("--labels-output", default=None, help="labels path (default OUTPUT.labels)")
    p.add_argument("--model", default=None, help="model file; supplies the vocabulary size")
    p.add_argument("--vocab-size", type=int, default=None, help="vocabulary size if no model")
    p.add_argument("--rate", type=float, default=None, help="selection rate (default 0.15)")

    p = sub.add_parser(
        "retrieval", parents=[common],
        help="cosine top-1 accuracy between aligned embedding files",
    )
    p.set_defaults(run=_cmd_retrieval)
    p.add_argument("--source", required=True, help="source embedding file")
    p.add_argument("--target", required=True, help="target embedding file")
    p.add_argument("--report", default=None, help="also write the result as JSON")

    p = sub.add_parser("synth", help="synthetic parallel-language corpora")
    synth_sub = p.add_subparsers(dest="synth_command", required=True, metavar="ACTION")
    p = synth_sub.add_parser(
        "generate", parents=[common], help="sample an aligned two-language corpus"
    )
    p.set_defaults(run=_cmd_synth_generate)
    p.add_argument("-o", "--prefix", required=True, help="output path prefix")
    p.add_argument("-n", "--count", type=int, default=None, help="sentence pairs (default 100)")
    p.add_argument("--grammar", default=None, help="grammar file (default: built-in demo)")
    p.add_argument(
        "--languages", nargs=2, metavar=("A", "B"), default=None,
        help="which two languages to emit (default: first two in the grammar)",
    )

    return parser


def _cmd_transform(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    config = _load_config(args, "transform")
    seed, workers = _seed_and_workers(args, config)
    chain = _resolve(args.chain, config=config, key="chain")
    if chain is None:
        raise UsageError("transform needs a chain: --chain or a config-file 'chain' entry")
    pipeline_config = PipelineConfig(
        inputs=tuple(args.inputs),
        output=args.output,
        chain=chain,
        global_seed=seed,
        workers=workers,
        emit=_resolve(args.emit, config=config, key="emit", default="sentences"),
        tree_output=args.tree_output,
        stats=_resolve(args.stats, config=config, key="stats", default=False, kind=bool),
        report=_resolve(args.report, config=config, key="report"),
        skip_bad=_resolve(args.skip_bad, config=config, key="skip-bad", default=False, kind=bool),
        rules_file=_resolve(args.rules, config=config, key="rules"),
    )
    return run_transform(pipeline_config, stdout=stdout, stderr=stderr)


def _cmd_stats(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    config = _load_config(args, "stats")
    report = _resolve(args.report, config=config, key="report")
    return run_stats(args.original, args.modified, report=report, stdout=stdout, stderr=stderr)


def _cmd_bpe_learn(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    config = _load_config(args, "bpe learn")
    seed, workers = _seed_and_workers(args, config)
    vocab_size = _resolve(args.vocab_size, config=config, key="vocab-size", default=32000, kind=int)
    language = _resolve(args.language, config=config, key="language", default="und")
    with recorded(
        "bpe learn", [args.output], args.inputs,
        config={"vocab_size": vocab_size, "language": language, "inputs": list(args.inputs)},
        seed=seed, workers=workers,
    ) as counts:
        model = bpe_learn((text for _, _, text in read_lines(args.inputs)), vocab_size, language)
        save_model(model, args.output)
        counts.update(merges=len(model.merges), vocabulary=len(model.vocab))
    print(f"learned {len(model.merges)} merges; vocabulary has {len(model.vocab)} entries",
          file=stdout)
    return 0


def _cmd_bpe_apply(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    config = _load_config(args, "bpe apply")
    seed, workers = _seed_and_workers(args, config)
    with recorded(
        "bpe apply", [args.output], [*args.inputs, args.model],
        config={"model": args.model, "inputs": list(args.inputs)}, seed=seed, workers=workers,
    ) as counts:
        model = load_model(args.model)
        numbered = read_lines(args.inputs)  # opens the inputs before the output
        lines = 0
        with replace_on_success(args.output) as fh:
            for _, _, text in numbered:
                fh.write(" ".join(str(i) for i in bpe_apply(model, text)))
                fh.write("\n")
                lines += 1
        counts["lines"] = lines
    print(f"encoded {lines} line(s) with {model.language} model", file=stdout)
    return 0


def _cmd_mask(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    config = _load_config(args, "mask")
    seed, workers = _seed_and_workers(args, config)
    if args.model is not None and args.vocab_size is not None:
        raise UsageError("give either --model or --vocab-size, not both")
    if args.model is not None:
        vocab_size = len(load_model(args.model).vocab)
    else:
        vocab_size = _resolve(args.vocab_size, config=config, key="vocab-size", kind=int)
        if vocab_size is None:
            raise UsageError("mask needs --model or --vocab-size")
    rate = _resolve(args.rate, config=config, key="rate", default=0.15, kind=float)
    masking = MaskingConfig(mask_rate=rate, seed=seed)
    labels_path = args.labels_output or args.output + ".labels"
    with recorded(
        "mask", [args.output, labels_path], [args.input, args.model],
        config={"input": args.input, "vocab_size": vocab_size, "rate": rate, "labels": labels_path},
        seed=seed, workers=workers,
    ) as counts:
        sequences = iter_ids_file(args.input)  # opens the input before the outputs
        sentences = tokens = 0
        with (replace_on_success(args.output) as fh_ids,
              replace_on_success(labels_path) as fh_labels):
            for seq in sequences:
                masked, labels = mask_tokens(seq, masking, vocab_size, sentence_index=sentences)
                fh_ids.write(" ".join(str(i) for i in masked) + "\n")
                fh_labels.write(" ".join(str(i) for i in labels) + "\n")
                sentences += 1
                tokens += len(seq)
        counts.update(sentences=sentences, tokens=tokens)
    print(f"masked {sentences} sentence(s), {tokens} token(s)", file=stdout)
    return 0


def _cmd_retrieval(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    from .retrieval import read_embeddings, top1_retrieval  # numpy loads for this command only

    config = _load_config(args, "retrieval")
    seed, workers = _seed_and_workers(args, config)
    report = _resolve(args.report, config=config, key="report")
    with recorded(
        "retrieval", [report], [args.source, args.target],
        config={"source": args.source, "target": args.target}, seed=seed, workers=workers,
    ):
        source, _ = read_embeddings(args.source)
        target, _ = read_embeddings(args.target)
        result = top1_retrieval(source, target)
        print(f"queries {source.shape[0]}  top-1 accuracy {result.top1_accuracy:.4f}  "
              f"margin {result.margin:.4f}", file=stdout)
        if report:
            write_json(report, {
                "source": args.source, "target": args.target, "queries": source.shape[0],
                "top1_accuracy": result.top1_accuracy, "margin": result.margin,
                "per_query_nearest": list(result.per_query_nearest),
            })
    return 0


def _cmd_synth_generate(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    config = _load_config(args, "synth generate")
    seed, workers = _seed_and_workers(args, config)
    count = _resolve(args.count, config=config, key="count", default=100, kind=int)
    grammar_path = _resolve(args.grammar, config=config, key="grammar")
    grammar = load_grammar(grammar_path) if grammar_path else demo_grammar()
    # Checks the count and the languages before any output is opened.
    (lang_a, lang_b), pairs = corpus_pairs(
        grammar, count, seed, tuple(args.languages) if args.languages else None
    )
    outputs = [f"{args.prefix}.{name}" for name in (f"{lang_a}.trees", f"{lang_b}.trees", "align")]
    with recorded(
        "synth generate", outputs, [grammar_path],
        config={"grammar": grammar_path or "<built-in demo>", "count": count,
                "languages": [lang_a, lang_b]},
        seed=seed, workers=workers,
    ) as counts:
        write_pairs(pairs, *outputs)
        counts["pairs"] = count
    print(f"wrote {count} aligned pairs: {', '.join(outputs)}", file=stdout)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stdout, stderr = sys.stdout, sys.stderr
    try:
        return args.run(args, stdout, stderr)
    except UsageError as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    except (PipelineError, OSError, ValueError) as exc:  # every domain error is a ValueError
        print(f"error: {exc}", file=stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
