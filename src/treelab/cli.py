"""Command-line front end.

Subcommands: ``transform``, ``stats``, ``bpe learn``, ``bpe apply``,
``mask``, ``retrieval``, ``synth generate``. :func:`build_parser` is the one
option table: it declares each option once, with its type and default.

A subcommand's settings are its options other than inputs and outputs; each
is also a config key, named by its long option. Only the subcommands that
draw random numbers (``transform``, ``mask``, ``synth generate``) have
``--seed``, and only ``transform``, the one with a process pool, has
``--workers``. ``--config FILE`` (on every subcommand but ``bpe apply``,
which has no settings) holds ``key = value`` lines; ``#`` starts a comment
anywhere on a line, so a value cannot contain ``#``. ``TREELAB_SEED`` and
``TREELAB_WORKERS`` override it, each read only where its setting exists.
Those values become the settings' defaults, so the precedence is explicit
flag, then environment, then config file, then built-in default; one that
cannot be read or is out of range, or an unknown key, is a usage error even
when a flag wins. An error records the settings
it is about, and :func:`main` alone says where they came from: the first of
them that a config file or the environment gave prefixes the message with
``PATH:LINE: config key 'KEY': `` or ``environment variable VAR: ``, and an
error about a setting that nothing gave names the config file, ``PATH: ``.
Input and output paths are always given on the command line — a manifest
that silently redirects file writes is a footgun, not a convenience.

Every file a subcommand writes, reports included, gets a provenance sidecar
that hashes every file the command read (``files.recorded``). Each
``_cmd_*`` imports the layers it runs beyond ``files``, so a subcommand
loads only its own modules: ``pipeline``, ``transform`` and ``metrics`` only for
``transform`` and ``stats``, ``treebank`` for those and ``synth generate``,
``subword`` only for ``bpe`` and ``mask``, numpy only for ``retrieval``, and
the standard ``dataclasses``, with the ``inspect`` and ``ast`` it loads, only
where ``pipeline`` is, for ``pipeline.PipelineConfig``.

Exit status: 0 on success, 1 on hard errors (unreadable input, a failed
write, a dead worker, malformed trees without ``--skip-bad``, alignment
failures, a limit that depends on the data), 2 on usage errors (an aliased
output, or an option value that no input could make valid, which the
option's ``type`` rejects from a flag, a key or the environment alike), 130
on SIGINT.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from typing import IO, Collection, Sequence

from .files import PipelineError, UsageError, read_lines, recorded
from .version import TOOL_VERSION

SEED_ENV = "TREELAB_SEED"
WORKERS_ENV = "TREELAB_WORKERS"

_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _ranged(kind: type, low: float, high: float | None = None):
    """An option's ``type``: ``kind`` of its text, which must lie in ``[low, high]``."""
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"

    def read(text: str):
        value = kind(text)
        if not (low <= value and (high is None or value <= high)):  # NaN is out of range
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    read.__name__ = kind.__name__  # what argparse and _convert call the type in "cannot read"
    return read


def _convert(raw: str, action: argparse.Action, origin: str):
    """``raw`` read as ``action`` reads its flag's value (a bool word for a switch)."""
    kind = bool if action.nargs == 0 else action.type or str
    try:
        value = _BOOL_WORDS[raw.strip().lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise UsageError(f"{origin}: cannot read {raw!r} as {kind.__name__}") from None
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{origin}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"{origin}: invalid choice: {raw!r} (choose from "
                         + ", ".join(map(repr, action.choices)) + ")")
    return value


def load_config_file(path: str, allowed: Collection[str]) -> dict[str, tuple[str, int]]:
    """Each key's value and the line it is on; the last line that sets a key wins."""
    entries: dict[str, tuple[str, int]] = {}
    try:
        lines = list(read_lines([path]))
    except PipelineError as exc:  # the config file is part of the invocation: exit 2
        raise UsageError(str(exc)) from exc
    for _, lineno, raw in lines:
        line = raw.split("#", 1)[0].strip()  # as transform.load_rules reads a rules file
        if not line:
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
        entries[key] = (value.strip(), lineno)
    return entries


def _set_defaults(args: argparse.Namespace) -> dict[str, str]:
    """Make each config-file value, then each environment value, its setting's
    default; return, by key, the origin of each that no flag overrides. A flag
    is seen by ``args``, the parse with built-in defaults, moving its setting
    off the default: exact for defaults that no flag can give, such as None."""
    settings = {action.dest.replace("_", "-"): action for action in args.settings}
    path = getattr(args, "config", None)  # ``bpe apply`` has no settings and no --config
    config = load_config_file(path, settings) if path is not None else {}
    values = [
        (key, raw, f"{path}:{lineno}: config key {key!r}") for key, (raw, lineno) in config.items()
    ] + [
        (key, os.environ[env], f"environment variable {env}")
        for key, env in (("seed", SEED_ENV), ("workers", WORKERS_ENV))
        if key in settings and os.environ.get(env)
    ]
    origins = {}
    for key, raw, origin in values:
        action = settings[key]
        if getattr(args, action.dest) == action.default:
            origins[key] = origin
        action.default = _convert(raw, action, origin)
    return origins


def build_parser() -> argparse.ArgumentParser:
    """The option table. Each subcommand's ``settings`` are the options a config
    file may set; inputs and outputs are flags only."""
    parser = argparse.ArgumentParser(
        prog="treelab",
        description="Transform constituency treebanks, measure the damage, "
        "and prepare subword/retrieval artifacts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    config_only = argparse.ArgumentParser(add_help=False)
    config_only.add_argument(
        "--config", metavar="FILE", help="'key = value' defaults file; explicit flags win"
    )
    seeded = argparse.ArgumentParser(add_help=False, parents=[config_only])
    # The action ``parents=[seeded]`` gives each subcommand that draws random numbers.
    seed = seeded.add_argument(
        "--seed", type=int, default=0,
        help=f"global random seed (env {SEED_ENV}; default %(default)s)",
    )
    # bench/replicas.py is the only reader of ``seed`` and ``workers`` on a
    # subcommand that lacks the option, so there they are None, never settable.
    unset = {"seed": None, "workers": None}

    p = sub.add_parser("transform", parents=[seeded],
                       help="apply a transformation chain to treebank files")
    p.add_argument("inputs", nargs="+", metavar="TREEBANK", help="input treebank file(s)")
    p.add_argument("-o", "--output", required=True, help="output corpus path")
    p.add_argument("--tree-output", help="tree output path for --emit both")
    p.set_defaults(parser=p, run=_cmd_transform, settings=(
        seed,
        p.add_argument(
            "--workers", type=_ranged(int, 1), default=1,
            help=f"worker processes (env {WORKERS_ENV}; default %(default)s)",
        ),
        p.add_argument(
            "--chain",
            help="comma-separated steps: reorder:FEATURE, constituent_shuffle, "
            "ablate:ALPHA[:shuffle], word_shuffle (final only)",
        ),
        p.add_argument(
            "--emit", choices=("sentences", "trees", "both"), default="sentences",
            help="write token lines, tree lines, or both (default %(default)s)",
        ),
        p.add_argument(
            "--stats", action="store_true",
            help="report inversion ratio and word-move distance vs. the input",
        ),
        p.add_argument("--report", help="also write the stats as JSON (needs --stats)"),
        p.add_argument(
            "--skip-bad", action="store_true",
            help="count and drop malformed lines instead of failing",
        ),
        p.add_argument("--rules", help="file of extra reorder rules"),
    ))

    p = sub.add_parser("stats", parents=[config_only],
                       help="compare two line-aligned corpora (token lines or treebanks)")
    p.add_argument("original", help="original corpus")
    p.add_argument("modified", help="modified corpus")
    p.set_defaults(parser=p, run=_cmd_stats,
                   settings=(p.add_argument("--report", help="also write the report as JSON"),))

    p = sub.add_parser("bpe", help="learn or apply subword vocabularies")
    bpe_sub = p.add_subparsers(dest="bpe_command", required=True, metavar="ACTION")
    p = bpe_sub.add_parser("learn", parents=[config_only], help="learn merges from text")
    p.add_argument("inputs", nargs="+", metavar="TEXT", help="training text file(s)")
    p.add_argument("-o", "--output", required=True, help="model file to write")
    p.set_defaults(parser=p, **unset, run=_cmd_bpe_learn, settings=(
        # At least the 5 special tokens, end-of-word and one character.
        p.add_argument("--vocab-size", type=_ranged(int, 7), default=32000,
                       help="vocabulary budget (default %(default)s)"),
        p.add_argument("--language", default="und",
                       help="language tag recorded in the model (default %(default)s)"),
    ))
    p = bpe_sub.add_parser("apply", help="encode text to subword ids")
    p.set_defaults(parser=p, **unset, run=_cmd_bpe_apply, settings=())
    p.add_argument("inputs", nargs="+", metavar="TEXT", help="text file(s) to encode")
    p.add_argument("-o", "--output", required=True, help="ids file to write")
    p.add_argument("--model", required=True, help="model file from 'bpe learn'")

    p = sub.add_parser("mask", parents=[seeded],
                       help="make masked-token training pairs from an ids file")
    p.add_argument("input", metavar="IDS", help="ids file from 'bpe apply'")
    p.add_argument("-o", "--output", required=True, help="masked ids file to write")
    p.add_argument("--labels-output", help="labels path (default OUTPUT.labels)")
    p.add_argument("--model", help="model file; supplies the vocabulary size")
    p.set_defaults(parser=p, workers=None, run=_cmd_mask, settings=(
        seed,
        # More than the 5 special tokens, which are never masked.
        p.add_argument("--vocab-size", type=_ranged(int, 6), help="vocabulary size if no model"),
        p.add_argument("--rate", type=_ranged(float, 0, 1), default=0.15,
                       help="selection rate (default %(default)s)"),
    ))

    p = sub.add_parser("retrieval", parents=[config_only],
                       help="cosine top-1 accuracy between aligned embedding files")
    p.add_argument("--source", required=True, help="source embedding file")
    p.add_argument("--target", required=True, help="target embedding file")
    p.set_defaults(parser=p, **unset, run=_cmd_retrieval,
                   settings=(p.add_argument("--report", help="also write the result as JSON"),))

    p = sub.add_parser("synth", help="synthetic parallel-language corpora")
    synth_sub = p.add_subparsers(dest="synth_command", required=True, metavar="ACTION")
    p = synth_sub.add_parser(
        "generate", parents=[seeded], help="sample an aligned two-language corpus"
    )
    p.add_argument("-o", "--prefix", required=True, help="output path prefix")
    p.add_argument(
        "--languages", nargs=2, metavar=("A", "B"),
        help="which two languages to emit (default: first two in the grammar)",
    )
    p.set_defaults(parser=p, workers=None, run=_cmd_synth_generate, settings=(
        seed,
        p.add_argument("-n", "--count", type=_ranged(int, 1), default=100,
                       help="sentence pairs (default %(default)s)"),
        p.add_argument("--grammar", help="grammar file (default: built-in demo)"),
    ))

    return parser


def _cmd_transform(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    from .pipeline import PipelineConfig, run_transform
    if args.chain is None:
        raise UsageError("transform needs a chain: --chain or a config-file 'chain' entry",
                         ("chain",), missing=True)
    pipeline_config = PipelineConfig(
        inputs=tuple(args.inputs), output=args.output, chain=args.chain, global_seed=args.seed,
        workers=args.workers, emit=args.emit, tree_output=args.tree_output, stats=args.stats,
        report=args.report, skip_bad=args.skip_bad, rules_file=args.rules,
    )
    return run_transform(pipeline_config, stdout=stdout, stderr=stderr)


def _cmd_stats(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    from .pipeline import run_stats
    return run_stats(args.original, args.modified, report=args.report, stdout=stdout, stderr=stderr)


def _cmd_bpe_learn(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    from .subword import bpe_learn, dump_model
    with recorded(
        "bpe learn", [args.output], args.inputs,
        config={"vocab_size": args.vocab_size, "language": args.language,
                "inputs": list(args.inputs)},
    ) as (counts, (fh,)):
        model = bpe_learn((text for _, _, text in read_lines(args.inputs)), args.vocab_size,
                          args.language)
        dump_model(model, fh)
        counts.update(merges=len(model.merges), vocabulary=len(model.vocab))
    print(f"learned {len(model.merges)} merges; vocabulary has {len(model.vocab)} entries",
          file=stdout)
    return 0


def _cmd_bpe_apply(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    from .subword import bpe_apply_line, load_model
    with recorded("bpe apply", [args.output], [*args.inputs, args.model],
                  config={"model": args.model, "inputs": list(args.inputs)}) as (counts, (fh,)):
        model = load_model(args.model)
        lines = 0
        for _, _, text in read_lines(args.inputs):
            fh.write(bpe_apply_line(model, text) + "\n")
            lines += 1
        counts["lines"] = lines
    print(f"encoded {lines} line(s) with {model.language} model", file=stdout)
    return 0


def _cmd_mask(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    from .rng import run_streams
    from .subword import IdText, MaskingConfig, load_model, mask_tokens
    if args.model is not None and args.vocab_size is not None:
        raise UsageError("give either --model or --vocab-size, not both", ("vocab-size",))
    if args.model is None and args.vocab_size is None:
        raise UsageError("mask needs --model or --vocab-size", ("vocab-size",), missing=True)
    vocab_size = args.vocab_size if args.model is None else len(load_model(args.model).vocab)
    masking = MaskingConfig(mask_rate=args.rate)
    labels_path = args.labels_output or args.output + ".labels"
    with recorded(
        "mask", [args.output, labels_path], [args.input, args.model],
        config={"input": args.input, "vocab_size": vocab_size, "rate": args.rate,
                "labels": labels_path}, seed=args.seed,
    ) as (counts, (fh_ids, fh_labels)):
        sentences = tokens = 0
        stream = run_streams(args.seed)
        line = IdText().line  # canonical decimal, whatever form the input gave
        for path, lineno, text in read_lines([args.input]):
            try:
                seq = list(map(int, text.split()))
            except ValueError as exc:
                raise PipelineError(f"{path}:{lineno}: {exc}") from exc
            if seq and (min(seq) < 0 or max(seq) >= vocab_size):
                bad = next(i for i in seq if not 0 <= i < vocab_size)
                raise PipelineError(f"{path}:{lineno}: id {bad} is outside the vocabulary "
                                    f"(0..{vocab_size - 1})", ("vocab-size",))
            masked, labels = mask_tokens(seq, masking, vocab_size, rng=stream(sentences))
            fh_ids.write(line(masked) + "\n")
            fh_labels.write(line(labels) + "\n")
            sentences += 1
            tokens += len(seq)
        counts.update(sentences=sentences, tokens=tokens)
    print(f"masked {sentences} sentence(s), {tokens} token(s)", file=stdout)
    return 0


def _cmd_retrieval(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    from .retrieval import RetrievalError, read_embeddings, top1_retrieval
    # With a report to record, each input is hashed as it is read, not read again.
    digests = [hashlib.sha256() if args.report else None for _ in range(2)]
    with recorded("retrieval", [args.report], [args.source, args.target], digests=digests,
                  config={"source": args.source, "target": args.target}) as (_, (report_fh,)):
        source, _ = read_embeddings(args.source, digests[0])
        target, _ = read_embeddings(args.target, digests[1])
        try:
            result = top1_retrieval(source, target)
        except RetrievalError as exc:  # the message names a role: name its file instead
            named = re.sub(r"\b(source|target)\b", lambda m: getattr(args, m[1]), str(exc))
            raise RetrievalError(named) from exc
        print(f"queries {source.shape[0]}  top-1 accuracy {result.top1_accuracy:.4f}  "
              f"margin {result.margin:.4f}", file=stdout)
        if report_fh is not None:
            report_fh.write(json.dumps({
                "source": args.source, "target": args.target, "queries": source.shape[0],
                "top1_accuracy": result.top1_accuracy, "margin": result.margin,
                "per_query_nearest": list(result.per_query_nearest),
            }, indent=2) + "\n")
    return 0


def _cmd_synth_generate(args: argparse.Namespace, stdout: IO[str], stderr: IO[str]) -> int:
    from .synthlang import corpus_lines, demo_grammar, load_grammar, write_lines
    count, grammar_path = args.count, args.grammar
    grammar = load_grammar(grammar_path) if grammar_path else demo_grammar()
    # Checks the count and the languages before any output is opened.
    (lang_a, lang_b), lines = corpus_lines(
        grammar, count, args.seed, tuple(args.languages) if args.languages else None
    )
    outputs = [f"{args.prefix}.{name}" for name in (f"{lang_a}.trees", f"{lang_b}.trees", "align")]
    with recorded(
        "synth generate", outputs, [grammar_path],
        config={"grammar": grammar_path or "<built-in demo>", "count": count,
                "languages": [lang_a, lang_b]}, seed=args.seed,
    ) as (counts, handles):
        write_lines(lines, *handles)
        counts["pairs"] = count
    print(f"wrote {count} aligned pairs: {', '.join(outputs)}", file=stdout)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:  # reported by the subcommand's parser, whose usage lists its options
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    stdout, stderr = sys.stdout, sys.stderr
    origins: dict[str, str] = {}
    try:
        origins = _set_defaults(args)
        if origins:
            args = parser.parse_args(argv)
        return args.run(args, stdout, stderr)
    except KeyboardInterrupt:
        print("error: interrupted", file=stderr)
        return 130
    except (PipelineError, OSError, ValueError) as exc:  # every domain error is a ValueError
        # The one door to origins: the first of the error's settings that a file or
        # the environment gave, else, for a setting nothing gave, the config file.
        settings = getattr(exc, "settings", ())
        where = next((origins[key] for key in settings if key in origins), None)
        if where is None and getattr(exc, "missing", False):
            where = getattr(args, "config", None)
        print(f"error: {where}: {exc}" if where else f"error: {exc}", file=stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
