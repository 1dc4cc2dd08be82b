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
consume that one stream in chain order.

The corpus driver streams the numbered lines of the inputs in chunks of
``CHUNK_LINES``, and one function transforms a chunk. It runs in the driver
when ``workers`` is 1 or the input has fewer than two lines, else in a pool
with at most ``CHUNKS_PER_WORKER`` chunks per worker in flight. Results are
taken in input order: each chunk's blocks are written and its per-sentence
stats added one by one, so bytes and float sums do not depend on the worker
count, and memory depends on the chunk size, not on the corpus size.

Each line is scanned once; ``--stats`` aligns by origin, with one check of the
(surface, origin) multiset. ``stats`` scans tokens without building nodes.

Every subcommand writes through :func:`recorded`. No output may be another
output, a sidecar or an input. Each output, reports included, gets a
``<path>.provenance.json`` sidecar recording the tool version, the effective
configuration, the seed, and SHA-256 digests of every file the command read
and of the bytes written to the output (null for a pipe or device). A run
stages all its outputs and sidecars and replaces their files together at the
end, or none of them: a failed read, write, worker or interrupt before then
leaves every earlier file as it was. Sidecars contain no timestamps, so a
rerun with the same inputs and seed reproduces them byte for byte (except
for the recorded worker count, which is part of the configuration).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass
from itertools import chain, groupby, islice, zip_longest
from typing import IO, Iterable, Iterator, Mapping, Sequence, Union

from .metrics import (
    AlignmentError,
    StatsAccumulator,
    align_by_origin,
    align_by_surface,
    format_stats_table,
    inversion_ratio,
    word_move_distance,
)
from .rng import Rng, SeedScheme
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
    scan_ptb,
    serialize,
    yield_sentence,
)
from .version import TOOL_NAME, TOOL_VERSION

CHUNK_LINES = 256  # lines per unit of work: one worker call, one block write
CHUNKS_PER_WORKER = 2  # chunks queued or running per pool worker
SIDECAR_SUFFIX = ".provenance.json"


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


def apply_chain(
    tree: TreeNode, steps: Sequence[ChainStep], rng: Rng
) -> tuple[TreeNode | None, Sentence]:
    """Run one tree through the chain, consuming one random stream.

    Returns the transformed tree (None once word_shuffle has destroyed
    the structure) and the resulting sentence. Each run of consecutive
    reorder steps is applied in one walk.
    """
    for kind, run in groupby(steps, type):
        if kind is ReorderStep:
            tree = apply_reorder(tree, [step.rule for step in run])
            continue
        for step in run:
            if isinstance(step, ConstituentShuffleStep):
                tree = constituent_shuffle(tree, rng, include_root=step.include_root)
            elif isinstance(step, AblationSpec):
                tree = remove_composition(tree, step, rng)
            elif isinstance(step, WordShuffleStep):
                return None, word_shuffle(yield_sentence(tree), rng)
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
        if self.report and not self.stats:
            raise UsageError("--report (or config key 'report') needs --stats")


def read_lines(paths: Sequence[str]) -> Iterator[tuple[str, int, str]]:
    """``(path, lineno, text)`` over the concatenated UTF-8 files, newlines
    stripped, each file opened when the one before it is done. A file that
    cannot be opened or read, or is not UTF-8, raises :class:`PipelineError`
    naming it."""
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    yield path, lineno, line.rstrip("\n")
        except (OSError, UnicodeDecodeError) as exc:
            raise PipelineError(f"cannot read {path}: {exc}") from exc


class _Output(io.FileIO):
    """A raw output file that adds what it writes to ``sha256`` (None for a
    pipe or device), and whose failed write or close raises ``cannot write NAME``."""

    def write(self, data):
        written = _named(self.name, super().write, data)
        if self.sha256 is not None:
            self.sha256.update(data[:written])
        return written

    def close(self) -> None:
        _named(self.name, super().close)


def _named(path: str, call, *args):
    """``call(*args)``, with an ``OSError`` raised as ``cannot write PATH: REASON``."""
    try:
        return call(*args)
    except OSError as exc:
        raise PipelineError(f"cannot write {path}: {exc.strerror}") from exc


@contextmanager
def replace_on_success(*paths: str) -> Iterator[tuple[IO[str], ...]]:
    """One text handle per path; the files become ``paths`` only if the ``with`` block succeeds.

    Each is written as a temporary file in the directory of the file its path
    names (through any symlinks). On exit every handle is closed, and then
    every temporary file is renamed over its file in one loop, so an error
    before that loop leaves every existing file as it was and no temporary file
    behind. A device or pipe is written directly: it keeps no earlier output.
    A failed open, write, flush, close or rename raises ``cannot write PATH``.
    """
    handles: list[IO[str]] = []
    staged: list[tuple[str, str, str]] = []  # (temporary, target, path)
    try:
        for path in paths:
            target = os.path.realpath(path)
            tmp = None
            if not os.path.exists(target) or os.path.isfile(target):
                tmp = f"{os.path.dirname(target)}/.{os.path.basename(target)}.{os.urandom(6).hex()}.tmp"
            raw = _named(path, _Output, tmp or path, "x" if tmp else "w")  # "x": a new file
            raw.name, raw.sha256 = path, hashlib.sha256() if tmp else None
            if tmp:
                staged.append((tmp, target, path))
            handles.append(io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8"))
        yield tuple(handles)
        for fh in handles:
            fh.close()
        for tmp, target, path in staged:
            _named(path, os.replace, tmp, target)
    except BaseException:
        for fh in handles:
            with suppress(PipelineError):  # what _Output raises for a failed write or close
                fh.close()
        for tmp, _, _ in staged:
            with suppress(OSError):
                os.unlink(tmp)
        raise


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
    for index, (path, lineno, text) in chunk:
        if not text.strip():
            counts["blank"] += 1
            continue
        if _NON_TREE_LINE.match(text):
            counts["placeholder"] += 1
            continue
        try:
            tokens, tree = scan_ptb(text)
        except TreeParseError as exc:
            counts["bad"] += 1
            errors.append(f"{path}:{lineno}: {exc}")
            continue
        rng = SeedScheme(config.global_seed, index).stream()
        out_tree, sentence = apply_chain(tree, steps, rng)
        counts["emitted"] += 1
        if config.emit != "trees":
            sentences.append(sentence.text() + "\n")
        if config.emit != "sentences":
            trees.append(serialize(out_tree) + "\n")
        if config.stats:
            perm = align_by_origin(tokens, sentence)
            rows.append((inversion_ratio(perm), word_move_distance(perm), perm.n))
    return "".join(sentences), "".join(trees), rows, counts, errors


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


def sha256_file(path: str) -> str | None:
    """The file's SHA-256, or None if it is not a regular file: a pipe or a
    device cannot be read back, and reading a pipe would block."""
    if not os.path.isfile(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _provenance(output: str, sha256: str | None, inputs: list[dict], *, command: str,
                config: Mapping[str, object], seed: int | None, workers: int | None,
                counts: Mapping[str, int] | None) -> str:
    """The text of ``output``'s sidecar, given the digest of its bytes and the
    ``{"path", "sha256"}`` of each input. Deliberately timestamp-free: identical
    runs must produce identical sidecars, so audits can diff them directly."""
    document = {"tool": TOOL_NAME, "version": TOOL_VERSION, "command": command,
                "config": dict(config), "seed": seed, "workers": workers, "inputs": inputs,
                "output": {"path": output, "sha256": sha256}, "counts": dict(counts or {})}
    return json.dumps(document, indent=2) + "\n"


def write_provenance(output_path: str, *, command: str, config: Mapping[str, object],
                     seed: int | None, workers: int | None, inputs: Sequence[str],
                     counts: Mapping[str, int] | None = None) -> str:
    """Write ``<output>.provenance.json`` for a file already written, and
    return its path. A path that is not a regular file, such as a pipe,
    records ``"sha256": null``."""
    sidecar = output_path + SIDECAR_SUFFIX
    read = [{"path": path, "sha256": sha256_file(path)} for path in inputs]
    with replace_on_success(sidecar) as (fh,):
        fh.write(_provenance(output_path, sha256_file(output_path), read, command=command,
                             config=config, seed=seed, workers=workers, counts=counts))
    return sidecar


def check_paths_distinct(outputs: Iterable[str], inputs: Iterable[str]) -> None:
    """Raise :class:`UsageError` if two outputs, or an output and an input, are one file."""
    read = {os.path.realpath(path): path for path in inputs}
    written: dict[str, str] = {}
    for path in outputs:
        real = os.path.realpath(path)
        if real in read:
            raise UsageError(f"output {path} is also the input {read[real]}")
        if real in written:
            raise UsageError(f"outputs {written[real]} and {path} are the same file")
        written[real] = path


@contextmanager
def recorded(command: str, outputs: Sequence[str | None], inputs: Iterable[str | None], *,
             config: Mapping[str, object], seed: int | None = None,
             workers: int | None = None) -> Iterator[tuple[Counter, list[IO[str] | None]]]:
    """The one write protocol of every subcommand (see the module docstring): refuse an
    output or sidecar that is another output or an input (empty entries are not paths),
    yield a ``Counter`` for the run's counts and a handle per output (None for an empty
    entry), then stage each output's sidecar, all through one :func:`replace_on_success`."""
    written = [path for path in outputs if path]
    inputs = [path for path in inputs if path]
    sidecars = [path + SIDECAR_SUFFIX for path in written]
    check_paths_distinct([*written, *sidecars], inputs)
    counts: Counter = Counter()
    with replace_on_success(*written, *sidecars) as handles:
        by_path = dict(zip(written, handles))
        yield counts, [by_path.get(path) for path in outputs]
        if written:  # each input is hashed once, for every sidecar
            read = [{"path": path, "sha256": sha256_file(path)} for path in inputs]
        for path, fh, sidecar in zip(written, handles, handles[len(written):]):
            fh.flush()  # every byte has passed through the output's digest
            digest = fh.buffer.raw.sha256
            sidecar.write(_provenance(path, digest and digest.hexdigest(), read, command=command,
                                      config=config, seed=seed, workers=workers, counts=counts))


def run_transform(
    config: PipelineConfig,
    stdout: IO[str] = sys.stdout,
    stderr: IO[str] = sys.stderr,
) -> int:
    rules = load_rules_file(config.rules_file) if config.rules_file else []
    steps = parse_chain(config.chain, {rule.feature_id: rule for rule in rules})
    if config.emit in ("trees", "both") and any(isinstance(s, WordShuffleStep) for s in steps):
        raise UsageError("cannot emit trees: the chain ends in word_shuffle")
    if config.emit == "both" and not config.tree_output:
        raise UsageError("--emit both needs a separate tree output path")

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


def _line_tokens(line: str, label: str, lineno: int) -> list[str]:
    """Tokens of a corpus line; bracketed lines are scanned as trees (no nodes).

    Sentences produced by this tool never start with a literal ``(`` —
    bracket tokens are stored escaped — so the dispatch is unambiguous.
    """
    stripped = line.strip()
    if _NON_TREE_LINE.match(stripped):
        return []
    if stripped.startswith("("):
        try:
            return scan_ptb(stripped, build=False)[0]
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
    with recorded(
        "stats", [report], [original_path, modified_path],
        config={"original": original_path, "modified": modified_path},
    ) as (_, (report_fh,)):
        for line_a, line_b in zip_longest(read_lines([original_path]), read_lines([modified_path])):
            if line_a is None or line_b is None:
                short = original_path if line_a is None else modified_path
                errors.append(f"line {(line_a or line_b)[1]}: {short} has fewer lines")
                break
            (_, lineno, text_a), (_, _, text_b) = line_a, line_b
            try:
                tokens_a = _line_tokens(text_a, original_path, lineno)
                tokens_b = _line_tokens(text_b, modified_path, lineno)
            except AlignmentError as exc:
                errors.append(str(exc))
                continue
            if not tokens_a and not tokens_b:
                continue
            try:
                acc.add(align_by_surface(tokens_a, tokens_b))
            except AlignmentError as exc:
                errors.append(f"line {lineno}: {exc}")

        stats = acc.finalize()
        print(format_stats_table([(modified_path, stats)]), file=stdout)
        if report_fh is not None:
            report_fh.write(json.dumps({"original": original_path, "modified": modified_path,
                                        **dataclasses.asdict(stats)}, indent=2) + "\n")
    for message in errors:
        print(message, file=stderr)
    return 1 if errors else 0
