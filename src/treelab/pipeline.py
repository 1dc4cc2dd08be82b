"""End-to-end corpus runs of ``transform`` and ``stats``: chain parsing, parallel execution.

A transformation chain is a comma-separated list of steps applied to each
tree in input order:

* ``reorder:FEATURE`` — built-in or rules-file reorder rule (no randomness)
* ``constituent_shuffle`` — permute children everywhere
* ``ablate:ALPHA`` / ``ablate:ALPHA:shuffle`` — remove intermediate nodes
* ``word_shuffle`` — permute the yield; only valid as the final step,
  because afterwards there is no tree left to transform

Every sentence gets its own deterministic random stream keyed by the
global seed and its 0-based position in the concatenated inputs; steps
consume that one stream in chain order.

The corpus driver streams the numbered lines of the inputs in chunks of
``CHUNK_LINES``, and one function transforms a chunk. It runs in the driver
when ``workers`` is 1 or the input has fewer than two lines, else in a pool
with at most ``CHUNKS_PER_WORKER`` chunks per worker in flight. Results are
taken in input order: each chunk's blocks are written and its per-sentence
stats added one by one, so bytes and float sums do not depend on the worker
count, and memory depends on the chunk size, not on the corpus size.

One scanner and one writer: ``treebank.scan_line`` scans each line once, with
the chain's leading reorder steps, looked up by label, run as each bracket
closes, and one walk of ``treebank.write_tree`` gives each emitted tree's line
and ``(surface, origin)`` leaves. One loop checks that the leaves' origins are a
permutation and gives the sentence and ``pi``; ``--stats`` checks the surfaces
against the scanned tokens and takes IR/WMD from ``pi``. ``stats`` scans tokens
without building nodes, through the same function.

A chain of leading reorder steps alone draws nothing, so a line's output
depends on its text alone: for such a chain each process keeps, per distinct
tree line, its sentence, tree line and stats row, and a repeated line skips the
scan, the writer walk and the row. The memo holds at most ``MEMO_LINES`` lines
(about 700 B each on WSJ-length lines with ``--emit both --stats``, so under
3 MB) and is emptied when full. Blank, placeholder and malformed lines are never
kept. It lives for one run: the driver empties it when ``run_transform`` ends,
and pool workers exit with the pool. Hits depend on how chunks fall to workers;
the bytes do not.

Every subcommand writes through :func:`treelab.files.recorded`; of the names
that moved to ``files``, only ``write_provenance`` is still importable from
this module, for the benchmark replicas.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from collections import Counter, deque
from contextlib import closing
from dataclasses import dataclass
from itertools import chain, groupby, islice, zip_longest
from typing import IO, Iterator, Mapping, Sequence, Union

from .files import PipelineError, UsageError, read_lines, recorded
from .files import write_provenance  # for bench/replicas.py
from .metrics import StatsAccumulator, align_by_surface, format_stats_table, permutation_row
from .rng import Rng, run_streams
from .transform import (
    BUILTIN_RULES,
    AblationSpec,
    ReorderRule,
    apply_reorder,
    constituent_shuffle,
    load_rules,
    remove_composition,
    reorder_kids,
    reorder_table,
    word_shuffle,
)
from .treebank import (AlignmentError, Sentence, TreeNode, TreeParseError, scan_line, write_tree,
                       yield_sentence)

CHUNK_LINES = 256  # lines per unit of work: one worker call, one block write
CHUNKS_PER_WORKER = 2  # chunks queued or running per pool worker
MEMO_LINES = 4096  # a draw-free chain's per-process line memo is emptied at this many lines


class ChainError(UsageError):
    """A chain that cannot be parsed: an error about the ``chain`` setting."""

    def __init__(self, message: str):
        super().__init__(message, ("chain",))


@dataclass(frozen=True)
class ReorderStep:
    rule: ReorderRule


@dataclass(frozen=True)
class ConstituentShuffleStep:
    include_root: bool = True


@dataclass(frozen=True)
class WordShuffleStep:
    pass


AblateStep = AblationSpec  # ``ablate:ALPHA[:shuffle]`` is its spec; the name stays for importers

ChainStep = Union[ReorderStep, ConstituentShuffleStep, WordShuffleStep, AblationSpec]


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
            steps.append(AblationSpec(alpha, shuffle_after=bool(suffix)))
        else:
            raise ChainError(
                f"unknown chain step {token!r}; expected reorder:FEATURE, "
                f"constituent_shuffle, word_shuffle, or ablate:ALPHA[:shuffle]"
            )
    if any(isinstance(s, WordShuffleStep) for s in steps[:-1]):
        raise ChainError("word_shuffle must be the final chain step")
    return tuple(steps)


def _tree_steps(tree: TreeNode, steps: Sequence[ChainStep], rng: Rng | None) -> TreeNode:
    """The tree after the chain's steps up to a final word_shuffle, which is left to
    the caller. Each run of reorder steps is one walk."""
    for kind, run in groupby(steps, type):
        if kind is ReorderStep:
            tree = apply_reorder(tree, [step.rule for step in run])
            continue
        for step in run:
            if isinstance(step, ConstituentShuffleStep):
                tree = constituent_shuffle(tree, rng, include_root=step.include_root)
            elif isinstance(step, AblationSpec):
                tree = remove_composition(tree, step, rng)
            elif not isinstance(step, WordShuffleStep):  # pragma: no cover
                raise TypeError(f"unknown chain step {step!r}")  # parse_chain makes no other
    return tree


def apply_chain(tree: TreeNode, steps: Sequence[ChainStep], rng: Rng) -> tuple[TreeNode | None, Sentence]:
    """Run one tree through the chain, consuming one random stream.

    Returns the transformed tree (None once word_shuffle has destroyed the
    structure) and the resulting sentence.
    """
    tree = _tree_steps(tree, steps, rng)
    if steps and isinstance(steps[-1], WordShuffleStep):
        return None, word_shuffle(yield_sentence(tree), rng)
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
        if self.report and not self.stats:
            raise UsageError("--report needs --stats", ("report", "stats"))


@functools.lru_cache(maxsize=1)
def _line_memo(steps: tuple[ChainStep, ...], trees: bool, stats: bool) -> dict:
    """The memo of a draw-free chain: tree line text -> ``(sentence, tree line, row)``.
    One setting at a time; ``run_transform`` empties it when it ends."""
    return {}


def _run_chunk(chunk: list[tuple[int, tuple[str, int, str]]], steps: tuple[ChainStep, ...],
               config: PipelineConfig) -> tuple[str, str, list, Counter, list[str]]:
    """Transform a chunk of ``(global index, (path, lineno, text))`` lines.

    Returns, in input order, the chunk's block of sentence lines and of
    tree lines (each empty unless ``config.emit`` asks for it), one
    ``(IR, WMD, tokens)`` row per emitted sentence if ``config.stats``, its
    counts and its malformed-line messages.
    """
    sentences, trees, rows, errors = [], [], [], []
    counts = Counter(total=len(chunk))
    lead = next((k for k, step in enumerate(steps) if not isinstance(step, ReorderStep)), len(steps))
    table = reorder_table(step.rule for step in steps[:lead])
    close = functools.partial(reorder_kids, table) if table else None
    rest, shuffle_words = steps[lead:], isinstance(steps[-1], WordShuffleStep)
    stream = run_streams(config.global_seed)
    # Only the steps after the leading reorders can draw; without them a line's
    # output depends on its text alone.
    memo = None if rest else _line_memo(steps, config.emit != "sentences", config.stats)
    for index, (path, lineno, text) in chunk:
        out = memo.get(text) if memo is not None else None
        if out is None:
            try:
                skipped, tokens, tree = scan_line(text, close=close)
            except TreeParseError as exc:
                counts["bad"] += 1
                errors.append(f"{path}:{lineno}: {exc}")
                continue
            if skipped:
                counts[skipped] += 1
                continue
            rng = stream(index) if rest else None
            line, leaves = write_tree(_tree_steps(tree, rest, rng), config.emit != "sentences")
            if shuffle_words:  # word_shuffle's draws; the scanned leaves all carry origins
                rng.shuffle(leaves)
            out = (*_sentence_row(tokens, leaves, config.stats), line)
            if memo is not None:
                if len(memo) >= MEMO_LINES:
                    memo.clear()
                memo[text] = out
        sentence, row, line = out
        counts["emitted"] += 1
        if config.emit != "trees":
            sentences.append(sentence + "\n")
        if config.emit != "sentences":
            trees.append(line + "\n")
        if row is not None:
            rows.append(row)
    return "".join(sentences), "".join(trees), rows, counts, errors


def _sentence_row(tokens: list[str], leaves: list[tuple[str, int]],
                  stats: bool) -> tuple[str, tuple[float, float, int] | None]:
    """The text of an emitted sentence's ``(surface, origin)`` leaves and, if ``stats``,
    its ``(IR, WMD, n)`` against the scanned ``tokens``. One loop checks that the origins
    are a permutation of 0..n-1 and builds ``pi``; with ``stats``, one comparison then
    checks that the leaf of origin i has surface ``tokens[i]``. A failed check is an
    :class:`AlignmentError`; ``scan_line`` numbers every leaf and every step keeps its
    ``(surface, origin)`` pairs, so only a fault in a step can fail it."""
    pi = [-1] * len(leaves)
    surfaces: list[str] = []
    keep = surfaces.append
    try:
        for position, (surface, origin) in enumerate(leaves):
            if origin < 0 or pi[origin] >= 0:
                break
            pi[origin] = position
            keep(surface)
        else:
            if not stats:
                return " ".join(surfaces), None
            if list(map(surfaces.__getitem__, pi)) == tokens:
                return " ".join(surfaces), permutation_row(pi)
    except (TypeError, IndexError):  # an origin that is not an int below n
        pass
    raise AlignmentError("the emitted leaves are not a permutation of the scanned tokens")


def _map_chunks(work, lines: Iterator, workers: int) -> Iterator:
    """``work`` over ``lines`` cut into chunks of ``CHUNK_LINES``, results in
    input order; in a pool when ``workers`` > 1 and there are at least two
    lines, with at most ``CHUNKS_PER_WORKER`` chunks per worker in flight."""
    chunks = iter(lambda: list(islice(lines, CHUNK_LINES)), [])
    first = next(chunks, [])
    chunks = chain([first], chunks)
    if workers == 1 or len(first) < 2:  # CHUNK_LINES >= 2, so this means < 2 lines
        yield from map(work, chunks)
        return
    from concurrent.futures import ProcessPoolExecutor  # multiprocessing loads only for a pool
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending: deque = deque()
            for chunk in chunks:
                if len(pending) == workers * CHUNKS_PER_WORKER:
                    yield pending.popleft().result()
                pending.append(pool.submit(work, chunk))
            while pending:
                yield pending.popleft().result()
    except BrokenProcessPool as exc:
        raise PipelineError(f"a worker process died ({exc})") from exc


def run_transform(
    config: PipelineConfig,
    stdout: IO[str] = sys.stdout,
    stderr: IO[str] = sys.stderr,
) -> int:
    rules = load_rules((text for _, _, text in read_lines([config.rules_file])),
                       config.rules_file) if config.rules_file else []
    steps = parse_chain(config.chain, {rule.feature_id: rule for rule in rules})
    if config.emit in ("trees", "both") and any(isinstance(s, WordShuffleStep) for s in steps):
        raise UsageError("cannot emit trees: the chain ends in word_shuffle", ("emit", "chain"))
    if config.emit == "both" and not config.tree_output:
        raise UsageError("--emit both needs a separate tree output path", ("emit",))

    sentence_path = config.output if config.emit != "trees" else None
    tree_path = {"trees": config.output, "both": config.tree_output}.get(config.emit)
    work = functools.partial(_run_chunk, steps=steps, config=config)
    acc = StatsAccumulator()
    errors: list[str] = []
    with recorded(
        "transform", [sentence_path, tree_path, config.report], [*config.inputs, config.rules_file],
        config=dataclasses.asdict(config), seed=config.global_seed, workers=config.workers,
    ) as (counts, (sentence_fh, tree_fh, report_fh)):
        counts.update(total=0, emitted=0, blank=0, placeholder=0, bad=0)  # sidecar key order
        # Closed here: a failed pool result can keep the reader alive after the run.
        try:
            with closing(read_lines(config.inputs)) as lines:
                results = _map_chunks(work, enumerate(lines), config.workers)
                for sentence_block, tree_block, rows, chunk_counts, chunk_errors in results:
                    if sentence_fh is not None:
                        sentence_fh.write(sentence_block)
                    if tree_fh is not None:
                        tree_fh.write(tree_block)
                    for row in rows:
                        acc.add_row(*row)
                    counts.update(chunk_counts)
                    if not config.skip_bad:
                        errors.extend(chunk_errors)
        finally:
            _line_memo.cache_clear()  # the memo lives for one run; pool workers exit with the pool
        if config.stats:
            stats = acc.finalize()
            print(format_stats_table([(config.chain, stats)]), file=stdout)
        if report_fh is not None:
            report = {"chain": config.chain, **dataclasses.asdict(stats)}
            report_fh.write(json.dumps(report, indent=2) + "\n")

    if counts["placeholder"]:
        print(f"skipped {counts['placeholder']} line(s) with no tree", file=stderr)
    if config.skip_bad and counts["bad"]:
        print(f"skipped {counts['bad']} malformed line(s)", file=stderr)
    for message in errors:
        print(message, file=stderr)
    return 1 if errors else 0


def _line_tokens(line: str) -> list[str]:
    """Tokens of a corpus line; bracketed lines are scanned as trees (no nodes).

    Sentences produced by this tool never start with a literal bracket —
    bracket tokens are stored escaped — so the dispatch is unambiguous.
    """
    if line.lstrip()[:1] in ("(", ")"):
        return scan_line(line, build=False)[1]
    return line.split()


def run_stats(
    original_path: str,
    modified_path: str,
    *,
    report: str | None = None,
    stdout: IO[str] = sys.stdout,
    stderr: IO[str] = sys.stderr,
) -> int:
    """Compare two line-aligned corpora (token lines or treebank lines). A bad line is
    ``PATH:LINE: reason``, naming the modified file for an alignment failure."""
    acc = StatsAccumulator()
    errors: list[str] = []
    with recorded(
        "stats", [report], [original_path, modified_path],
        config={"original": original_path, "modified": modified_path},
    ) as (_, (report_fh,)):
        for line_a, line_b in zip_longest(read_lines([original_path]), read_lines([modified_path])):
            if line_a is None or line_b is None:
                path, lineno, _ = line_a or line_b
                short = original_path if line_a is None else modified_path
                errors.append(f"{path}:{lineno}: {short} has fewer lines")
                break
            (path, lineno, text_a), (path_b, _, text_b) = line_a, line_b
            try:
                tokens_a = _line_tokens(text_a)
                path = path_b
                tokens_b = _line_tokens(text_b)
                if tokens_a or tokens_b:
                    acc.add(align_by_surface(tokens_a, tokens_b))
            except ValueError as exc:  # a malformed tree or an alignment failure
                errors.append(f"{path}:{lineno}: {exc}")

        stats = acc.finalize()
        print(format_stats_table([(modified_path, stats)]), file=stdout)
        if report_fh is not None:
            report_fh.write(json.dumps({"original": original_path, "modified": modified_path,
                                        **dataclasses.asdict(stats)}, indent=2) + "\n")
    for message in errors:
        print(message, file=stderr)
    return 1 if errors else 0
