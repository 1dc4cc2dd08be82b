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
``CHUNK_LINES``, and one function transforms a chunk. ``workers`` is a
maximum: the driver runs chunks itself, and with ``workers`` > 1 and at least
two lines it starts a pool for the rest once the driver CPU time it projects
for them reaches ``POOL_MIN_S``, with at most ``CHUNKS_PER_WORKER`` chunks per
worker in flight. Results are taken in input order: each chunk's blocks are
written and its per-sentence stats added one by one, so bytes and float sums
do not depend on the worker count or on when the pool starts, and memory
depends on the chunk size, not on the corpus size.

One scanner and one writer: ``treebank.scan_line`` scans each line once, and one
walk of ``treebank.write_tree`` gives each emitted tree's line and its
``(surface, origin)`` leaves. A reorder step runs as nodes close, in the scan or
in the splice loop of the drawing step before it. One loop checks that the leaves'
origins are a permutation and gives the sentence and ``pi``; ``--stats`` checks
the surfaces against the scanned tokens and takes IR/WMD from ``pi``. ``stats``
scans tokens without building nodes, through the same function.

A chain of leading reorder steps alone draws nothing, so a line's output
depends on its text alone: for such a chain each process keeps, per distinct
tree line, its sentence, tree line and stats row, and a repeated line skips the
scan, the writer walk and the row. The memo holds at most ``MEMO_LINES`` lines
(about 700 B each on WSJ-length lines with ``--emit both --stats``, so under
3 MB) and is emptied when full. Blank, placeholder and malformed lines are never
kept. It lives for one run: the driver empties it when ``run_transform`` ends,
and pool workers exit with the pool. A forked worker starts with what the
driver's inline chunks put in it, so hits depend on when the pool starts and
how chunks fall to workers; the bytes do not.

Every subcommand writes through :func:`treelab.files.recorded`; of the names
that moved to ``files``, only ``write_provenance`` is still importable from
this module, for the benchmark replicas.
"""

from __future__ import annotations

import functools
import json
import math
import os
import stat
import sys
from collections import Counter, deque
from contextlib import closing
from dataclasses import asdict, dataclass
from itertools import chain, islice, zip_longest
from signal import SIG_BLOCK, SIG_SETMASK, SIGHUP, SIGINT, SIGTERM, pthread_sigmask
from time import process_time
from typing import IO, Iterator, Mapping, NamedTuple, Sequence, Union

from .files import PipelineError, UsageError, read_float, read_lines, recorded
from .files import write_provenance  # for bench/replicas.py
from .metrics import StatsAccumulator, align_by_surface, format_stats_table, permutation_row
from .rng import run_streams
from .transform import (
    BUILTIN_RULES,
    AblationSpec,
    ReorderRule,
    constituent_shuffle,
    load_rules,
    remove_composition,
    reorder_hook,
)
from .treebank import AlignmentError, TreeParseError, scan_line, write_tree

CHUNK_LINES = 256  # lines per unit of work: one worker call, one block write
CHUNKS_PER_WORKER = 2  # chunks queued or running per pool worker
POOL_MIN_S = 0.3  # projected driver CPU seconds left at which --workers N starts its pool
MEMO_LINES = 4096  # a draw-free chain's per-process line memo is emptied at this many lines


class ChainError(UsageError):
    """A chain that cannot be parsed: an error about the ``chain`` setting."""

    def __init__(self, message: str):
        super().__init__(message, ("chain",))


# Chain steps meet one another in a chain, so each, as AblationSpec does, equals only
# a step of its own type with equal fields, never a plain tuple.
_STEP_EQUALITY = AblationSpec.__eq__, AblationSpec.__ne__, AblationSpec.__hash__


class ReorderStep(NamedTuple):
    rule: ReorderRule
    __eq__, __ne__, __hash__ = _STEP_EQUALITY


class ConstituentShuffleStep(NamedTuple):
    include_root: bool = True
    __eq__, __ne__, __hash__ = _STEP_EQUALITY


class WordShuffleStep(NamedTuple):
    __eq__, __ne__, __hash__ = _STEP_EQUALITY


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
                alpha = read_float(alpha_text)
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
    if WordShuffleStep() in steps[:-1]:
        raise ChainError("word_shuffle must be the final chain step")
    return tuple(steps)


@dataclass(frozen=True)  # bench/replicas.py calls dataclasses.asdict and .replace on it
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
        if self.tree_output and self.emit != "both":
            raise UsageError("--tree-output needs --emit both", ("emit",))


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
    counts and, per malformed line, its path and message.
    """
    sentences, trees, rows, errors = [], [], [], []
    counts = Counter(total=len(chunk))
    # Each run of reorder steps runs in the scan or in the loop of the drawing step
    # before it. With no drawing step, a line's output depends on its text alone.
    cuts = [k for k, step in enumerate(steps) if not isinstance(step, ReorderStep)] + [len(steps)]
    close = reorder_hook(step.rule for step in steps[:cuts[0]])
    tree_steps = [(steps[k], reorder_hook(step.rule for step in steps[k + 1:end]))
                  for k, end in zip(cuts, cuts[1:])
                  if not isinstance(steps[k], WordShuffleStep)]
    stream, shuffle_words = run_streams(config.global_seed), isinstance(steps[-1], WordShuffleStep)
    memo = None if len(cuts) > 1 else _line_memo(steps, config.emit != "sentences", config.stats)
    for index, (path, lineno, text) in chunk:
        out = memo.get(text) if memo is not None else None
        if out is None:
            try:
                skipped, tokens, tree = scan_line(text, close=close)
            except TreeParseError as exc:
                counts["bad"] += 1
                errors.append((path, f"{path}:{lineno}: {exc}"))
                continue
            if skipped:
                counts[skipped] += 1
                continue
            rng = stream(index) if memo is None else None
            for step, hook in tree_steps:
                tree = (remove_composition(tree, step, rng, close=hook) if isinstance(step, AblationSpec)
                        else constituent_shuffle(tree, rng, include_root=step.include_root, close=hook))
            line, leaves = write_tree(tree, config.emit != "sentences")
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


def _report_bad_lines(errors: list[tuple[str, str]], stderr: IO[str]) -> int:
    """Print each bad line's ``PATH:LINE: reason``, then one ``error:`` line that
    names the files they are in; 1 if there was any, else 0."""
    for _, message in errors:
        print(message, file=stderr)
    if not errors:
        return 0
    paths = ", ".join(dict.fromkeys(path for path, _ in errors))
    print(f"error: {paths}: {len(errors)} line(s) failed; outputs written", file=stderr)
    return 1


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


def _input_bytes(paths: Sequence[str]) -> float:
    """The summed size of ``paths``, or infinity if one is not a regular file or
    cannot be examined; ``read_lines`` reports a file it cannot read."""
    total = 0
    for path in paths:
        try:
            info = os.stat(path)
        except OSError:
            return math.inf
        total += info.st_size if stat.S_ISREG(info.st_mode) else math.inf
    return total


def _map_chunks(work, lines: Iterator, workers: int, paths: Sequence[str]) -> Iterator:
    """``work`` over ``lines``, read from ``paths``, cut into chunks of
    ``CHUNK_LINES``, results in input order.

    With ``workers`` > 1 and at least two lines, the driver runs chunks
    itself until the work it projects is left reaches ``POOL_MIN_S``
    seconds, then runs the rest in a pool of ``workers`` with at most
    ``CHUNKS_PER_WORKER`` chunks per worker in flight. After each chunk the
    projection is the driver's CPU time so far × bytes left ÷ bytes done, the
    bytes left coming from the sizes of the inputs. CPU time, not wall time,
    because time spent waiting for a CPU is not work a pool would take over.
    Before the first chunk the projection is 0, or unbounded if an input's
    size is unknown (a pipe), which starts the pool at once."""
    chunks = iter(lambda: list(islice(lines, CHUNK_LINES)), [])
    first = next(chunks, [])
    chunks = chain([first], chunks)
    if workers == 1 or len(first) < 2:  # CHUNK_LINES >= 2, so this means < 2 lines
        yield from map(work, chunks)
        return
    size = _input_bytes(paths)
    projected = 0.0 if size < math.inf else math.inf
    done, start = 0, process_time()
    for chunk in chunks:
        if projected >= POOL_MIN_S:
            break
        yield work(chunk)
        done += sum(len(text) + 1 for _, (_, _, text) in chunk)  # characters, about the bytes
        projected = (process_time() - start) * (size - done) / done
    else:
        return
    from concurrent.futures import ProcessPoolExecutor  # multiprocessing loads only for a pool
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Workers forked at the first submit inherit this mask: group signals reach the driver only.
            mask = pthread_sigmask(SIG_BLOCK, (SIGINT, SIGTERM, SIGHUP))
            try:
                pending: deque = deque([pool.submit(work, chunk)])
            finally:
                pthread_sigmask(SIG_SETMASK, mask)
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
    errors: list[tuple[str, str]] = []
    with recorded(
        "transform", [sentence_path, tree_path, config.report], [*config.inputs, config.rules_file],
        config=asdict(config), seed=config.global_seed, workers=config.workers,
    ) as (counts, (sentence_fh, tree_fh, report_fh)):
        counts.update(total=0, emitted=0, blank=0, placeholder=0, bad=0)  # sidecar key order
        # Closed here: a failed pool result can keep the reader alive after the run.
        try:
            with closing(read_lines(config.inputs)) as lines:
                results = _map_chunks(work, enumerate(lines), config.workers, config.inputs)
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
        if config.stats:  # which --report needs
            _write_stats(acc, config.chain, report_fh, stdout, chain=config.chain)

    if counts["placeholder"]:
        print(f"skipped {counts['placeholder']} line(s) with no tree", file=stderr)
    if config.skip_bad and counts["bad"]:
        print(f"skipped {counts['bad']} malformed line(s)", file=stderr)
    return _report_bad_lines(errors, stderr)


def _write_stats(acc: StatsAccumulator, label: str, report_fh: IO[str] | None, stdout: IO[str],
                 **head: str) -> None:
    """Print the stats table's one row, ``label``; write the report, ``head``'s keys first."""
    stats = acc.finalize()
    print(format_stats_table([(label, stats)]), file=stdout)
    if report_fh is not None:
        report_fh.write(json.dumps({**head, **stats._asdict()}, indent=2) + "\n")


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
    ``PATH:LINE: reason``, naming the modified file for an alignment failure, and one
    ``error:`` line after them names their files."""
    acc = StatsAccumulator()
    errors: list[tuple[str, str]] = []
    with recorded(
        "stats", [report], [original_path, modified_path],
        config={"original": original_path, "modified": modified_path},
    ) as (_, (report_fh,)):
        for line_a, line_b in zip_longest(read_lines([original_path]), read_lines([modified_path])):
            if line_a is None or line_b is None:
                path, lineno, _ = line_a or line_b
                short = original_path if line_a is None else modified_path
                errors.append((path, f"{path}:{lineno}: {short} has fewer lines"))
                break
            (path, lineno, text_a), (path_b, _, text_b) = line_a, line_b
            try:
                tokens_a = _line_tokens(text_a)
                path = path_b
                tokens_b = _line_tokens(text_b)
                if tokens_a or tokens_b:
                    acc.add(align_by_surface(tokens_a, tokens_b))
            except ValueError as exc:  # a malformed tree or an alignment failure
                errors.append((path, f"{path}:{lineno}: {exc}"))

        _write_stats(acc, modified_path, report_fh, stdout,
                     original=original_path, modified=modified_path)
    return _report_bad_lines(errors, stderr)
