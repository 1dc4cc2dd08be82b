"""End-to-end corpus runs: chain parsing, parallel execution, provenance.

A transformation chain is a comma-separated list of steps applied to each
tree in input order:

* ``reorder:FEATURE`` — built-in or rules-file reorder rule (no randomness)
* ``constituent_shuffle`` — permute children everywhere
* ``ablate:ALPHA`` / ``ablate:ALPHA:shuffle`` — remove intermediate nodes
* ``word_shuffle`` — permute the yield; only valid as the final step,
  because afterwards there is no tree left to transform

Every sentence gets its own deterministic random stream keyed by the
global seed and its 0-based position in the concatenated inputs; steps
consume that one stream in chain order. Workers therefore cannot perturb
results: the pool only changes where lines are processed, never which
draws they see, and output is written strictly in input order.

Each written artifact gets a ``<path>.provenance.json`` sidecar recording
the tool version, the effective configuration, the seed, and SHA-256
digests of inputs and output. Sidecars contain no timestamps, so a rerun
with the same inputs and seed reproduces them byte for byte (except for
the recorded worker count, which is part of the configuration).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import zip_longest
from typing import IO, Iterable, Iterator, Mapping, Sequence, Union

from .metrics import (
    AlignedPermutation,
    AlignmentError,
    StatsAccumulator,
    align_by_surface,
    alignment,
    format_stats_table,
)
from .rng import SeedScheme
from .transform import (
    BUILTIN_RULES,
    AblationSpec,
    ReorderRule,
    apply_reorder,
    constituent_shuffle,
    load_rules_file,
    remove_composition,
    word_shuffle,
)
from .treebank import (
    _NON_TREE_LINE,
    Sentence,
    TreeNode,
    TreeParseError,
    parse_ptb,
    serialize,
    yield_sentence,
)
from .version import TOOL_NAME, TOOL_VERSION


class PipelineError(Exception):
    """Hard runtime failure; maps to exit status 1."""


class UsageError(PipelineError):
    """Invalid invocation; maps to exit status 2."""


class ChainError(UsageError):
    pass


@dataclass(frozen=True)
class ReorderStep:
    rule: ReorderRule


@dataclass(frozen=True)
class ConstituentShuffleStep:
    include_root: bool = True


@dataclass(frozen=True)
class WordShuffleStep:
    pass


@dataclass(frozen=True)
class AblateStep:
    alpha: float
    shuffle_after: bool = False


ChainStep = Union[ReorderStep, ConstituentShuffleStep, WordShuffleStep, AblateStep]


def parse_chain(
    spec: str, rules: Mapping[str, ReorderRule] | None = None
) -> tuple[ChainStep, ...]:
    """Parse a comma-separated chain; extra rules extend the built-ins."""
    known_rules = dict(BUILTIN_RULES) | dict(rules or {})
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise ChainError("empty transformation chain")
    steps: list[ChainStep] = []
    for token in tokens:
        head, _, rest = token.partition(":")
        if head == "reorder":
            if rest not in known_rules:
                raise ChainError(
                    f"unknown reorder feature {rest!r}; known: {', '.join(sorted(known_rules))}"
                )
            steps.append(ReorderStep(known_rules[rest]))
        elif token == "constituent_shuffle":
            steps.append(ConstituentShuffleStep())
        elif token == "word_shuffle":
            steps.append(WordShuffleStep())
        elif head == "ablate":
            alpha_text, _, suffix = rest.partition(":")
            if suffix not in ("", "shuffle"):
                raise ChainError(f"bad ablate step {token!r}; use ablate:ALPHA[:shuffle]")
            try:
                alpha = float(alpha_text)
            except ValueError:
                raise ChainError(f"bad ablate step {token!r}: {alpha_text!r} is not a number") from None
            if not 0.0 <= alpha <= 1.0:
                raise ChainError(f"ablate fraction must be in [0, 1], got {alpha}")
            steps.append(AblateStep(alpha, shuffle_after=bool(suffix)))
        else:
            raise ChainError(
                f"unknown chain step {token!r}; expected reorder:FEATURE, "
                f"constituent_shuffle, word_shuffle, or ablate:ALPHA[:shuffle]"
            )
    if any(isinstance(s, WordShuffleStep) for s in steps[:-1]):
        raise ChainError("word_shuffle must be the final chain step")
    return tuple(steps)


def apply_chain(
    tree: TreeNode, steps: Sequence[ChainStep], rng
) -> tuple[TreeNode | None, Sentence]:
    """Run one tree through the chain, consuming one random stream.

    Returns the transformed tree (None once word_shuffle has destroyed
    the structure) and the resulting sentence.
    """
    for step in steps:
        if isinstance(step, ReorderStep):
            tree = apply_reorder(tree, step.rule)
        elif isinstance(step, ConstituentShuffleStep):
            tree = constituent_shuffle(tree, rng=rng, include_root=step.include_root)
        elif isinstance(step, AblateStep):
            spec = AblationSpec(step.alpha, shuffle_after=step.shuffle_after)
            tree = remove_composition(tree, spec, rng=rng)
        elif isinstance(step, WordShuffleStep):
            return None, word_shuffle(yield_sentence(tree), rng=rng)
        else:  # pragma: no cover - parse_chain constructs only the above
            raise TypeError(f"unknown chain step {step!r}")
    return tree, yield_sentence(tree)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one ``transform`` run needs, resolved and validated."""

    inputs: tuple[str, ...]
    output: str
    chain: str
    global_seed: int = 0
    workers: int = 1
    emit: str = "sentences"  # sentences | trees | both
    tree_output: str | None = None
    stats: bool = False
    report: str | None = None
    skip_bad: bool = False
    rules_file: str | None = None

    def __post_init__(self) -> None:
        if not self.inputs:
            raise UsageError("no input files given")
        if self.emit not in ("sentences", "trees", "both"):
            raise UsageError(f"emit must be sentences, trees, or both, got {self.emit!r}")
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class LineOutcome:
    index: int
    status: str  # ok | blank | placeholder | error
    message: str = ""
    sentence: str | None = None
    tree: str | None = None
    pi: tuple[int, ...] | None = None


def _transform_line(
    item: tuple[int, str, int, str],
    *,
    steps: tuple[ChainStep, ...],
    global_seed: int,
    want_stats: bool,
) -> LineOutcome:
    index, label, lineno, text = item
    if not text.strip():
        return LineOutcome(index, "blank")
    if _NON_TREE_LINE.match(text):
        return LineOutcome(index, "placeholder", f"{label}:{lineno}: no tree on line")
    try:
        tree = parse_ptb(text)
    except TreeParseError as exc:
        return LineOutcome(index, "error", f"{label}:{lineno}: {exc}")
    original = yield_sentence(tree)
    out_tree, sentence = apply_chain(tree, steps, SeedScheme(global_seed, index).stream())
    pi = alignment(original, sentence).pi if want_stats else None
    return LineOutcome(
        index,
        "ok",
        sentence=sentence.text(),
        tree=serialize(out_tree) if out_tree is not None else None,
        pi=pi,
    )


def _read_input_lines(paths: Sequence[str]) -> list[tuple[int, str, int, str]]:
    """Concatenate inputs; the global index is the per-sentence seed key."""
    items: list[tuple[int, str, int, str]] = []
    index = 0
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    items.append((index, path, lineno, line.rstrip("\n")))
                    index += 1
        except OSError as exc:
            raise PipelineError(f"cannot read {path}: {exc}") from exc
    return items


def _map_outcomes(
    worker, items: Sequence[tuple[int, str, int, str]], workers: int
) -> Iterator[LineOutcome]:
    if workers <= 1 or len(items) < 2:
        yield from map(worker, items)
        return
    chunk = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(worker, items, chunksize=chunk)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_provenance(
    output_path: str,
    *,
    command: str,
    config: Mapping[str, object],
    seed: int | None,
    workers: int | None,
    inputs: Sequence[str],
    counts: Mapping[str, int] | None = None,
) -> str:
    """Write ``<output>.provenance.json`` and return its path.

    Deliberately timestamp-free: identical runs must produce identical
    sidecars, so audits can diff them directly.
    """
    document = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "command": command,
        "config": dict(config),
        "seed": seed,
        "workers": workers,
        "inputs": [{"path": p, "sha256": sha256_file(p)} for p in inputs],
        "output": {"path": output_path, "sha256": sha256_file(output_path)},
        "counts": dict(counts or {}),
    }
    sidecar = output_path + ".provenance.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    return sidecar


def run_transform(
    config: PipelineConfig,
    stdout: IO[str] = sys.stdout,
    stderr: IO[str] = sys.stderr,
) -> int:
    extra_rules = (
        {rule.feature_id: rule for rule in load_rules_file(config.rules_file)}
        if config.rules_file
        else {}
    )
    steps = parse_chain(config.chain, extra_rules)
    if config.emit in ("trees", "both") and any(isinstance(s, WordShuffleStep) for s in steps):
        raise UsageError("cannot emit trees: the chain ends in word_shuffle")
    if config.emit == "both" and not config.tree_output:
        raise UsageError("--emit both needs a separate tree output path")

    items = _read_input_lines(config.inputs)
    worker = functools.partial(
        _transform_line,
        steps=steps,
        global_seed=config.global_seed,
        want_stats=config.stats,
    )

    sentence_path = config.output if config.emit in ("sentences", "both") else None
    tree_path = (
        config.tree_output
        if config.emit == "both"
        else config.output if config.emit == "trees" else None
    )

    acc = StatsAccumulator()
    errors: list[str] = []
    counts = {"total": len(items), "emitted": 0, "blank": 0, "placeholder": 0, "bad": 0}
    sentence_fh = open(sentence_path, "w", encoding="utf-8") if sentence_path else None
    tree_fh = open(tree_path, "w", encoding="utf-8") if tree_path else None
    try:
        for outcome in _map_outcomes(worker, items, config.workers):
            if outcome.status == "blank":
                counts["blank"] += 1
            elif outcome.status == "placeholder":
                counts["placeholder"] += 1
            elif outcome.status == "error":
                counts["bad"] += 1
                if not config.skip_bad:
                    errors.append(outcome.message)
            else:
                counts["emitted"] += 1
                if sentence_fh is not None:
                    sentence_fh.write(outcome.sentence + "\n")
                if tree_fh is not None:
                    tree_fh.write(outcome.tree + "\n")
                if outcome.pi is not None:
                    acc.add(AlignedPermutation(outcome.pi))
    finally:
        if sentence_fh is not None:
            sentence_fh.close()
        if tree_fh is not None:
            tree_fh.close()

    config_dict = dataclasses.asdict(config)
    for path in filter(None, (sentence_path, tree_path)):
        write_provenance(
            path,
            command="transform",
            config=config_dict,
            seed=config.global_seed,
            workers=config.workers,
            inputs=config.inputs,
            counts=counts,
        )

    if config.stats:
        stats = acc.finalize()
        print(format_stats_table([(config.chain, stats)]), file=stdout)
        if config.report:
            with open(config.report, "w", encoding="utf-8") as fh:
                json.dump({"chain": config.chain, **dataclasses.asdict(stats)}, fh, indent=2)
                fh.write("\n")

    if counts["placeholder"]:
        print(f"skipped {counts['placeholder']} line(s) with no tree", file=stderr)
    if config.skip_bad and counts["bad"]:
        print(f"skipped {counts['bad']} malformed line(s)", file=stderr)
    for message in errors:
        print(message, file=stderr)
    return 1 if errors else 0


def _line_tokens(line: str, label: str, lineno: int) -> list[str]:
    """Tokens of a corpus line; bracketed lines are read as trees.

    Sentences produced by this tool never start with a literal ``(`` —
    bracket tokens are stored escaped — so the dispatch is unambiguous.
    """
    stripped = line.strip()
    if _NON_TREE_LINE.match(stripped):
        return []
    if stripped.startswith("("):
        try:
            return list(yield_sentence(parse_ptb(stripped)).surfaces())
        except TreeParseError as exc:
            raise AlignmentError(f"{label}:{lineno}: {exc}") from exc
    return stripped.split()


def run_stats(
    original_path: str,
    modified_path: str,
    *,
    report: str | None = None,
    stdout: IO[str] = sys.stdout,
    stderr: IO[str] = sys.stderr,
) -> int:
    """Compare two line-aligned corpora (token lines or treebank lines)."""
    acc = StatsAccumulator()
    errors: list[str] = []
    try:
        with open(original_path, encoding="utf-8") as fh_a, open(
            modified_path, encoding="utf-8"
        ) as fh_b:
            for lineno, (line_a, line_b) in enumerate(zip_longest(fh_a, fh_b), start=1):
                if line_a is None or line_b is None:
                    short = original_path if line_a is None else modified_path
                    errors.append(f"line {lineno}: {short} has fewer lines")
                    break
                try:
                    tokens_a = _line_tokens(line_a, original_path, lineno)
                    tokens_b = _line_tokens(line_b, modified_path, lineno)
                except AlignmentError as exc:
                    errors.append(str(exc))
                    continue
                if not tokens_a and not tokens_b:
                    continue
                try:
                    acc.add(align_by_surface(tokens_a, tokens_b))
                except AlignmentError as exc:
                    errors.append(f"line {lineno}: {exc}")
    except OSError as exc:
        raise PipelineError(f"cannot read input: {exc}") from exc

    stats = acc.finalize()
    print(format_stats_table([(modified_path, stats)]), file=stdout)
    if report:
        with open(report, "w", encoding="utf-8") as fh:
            json.dump(
                {"original": original_path, "modified": modified_path,
                 **dataclasses.asdict(stats)},
                fh,
                indent=2,
            )
            fh.write("\n")
    for message in errors:
        print(message, file=stderr)
    return 1 if errors else 0
