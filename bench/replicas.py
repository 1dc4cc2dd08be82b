"""Traced run: in-process replicas of the CLI that time each layer from outside.

A replica parses an invocation's argv with the CLI's own parser and then
calls the public functions of ``treelab`` in the order the CLI calls them,
wrapping each call in a span. Spans (name, start, end, parent) stay in
memory and are written to ``.bench_work/traces/`` when the run ends. A
span's self time is its duration minus the time covered by its child
spans.

Each replica writes the same files and standard output as the CLI did, in
its own directory, and its digests must equal the CLI's: that proves the
trace timed the same work. One chain step is split so that its layers can
be told apart: ``ablate:A:shuffle`` runs as ``remove_composition`` without
the shuffle followed by ``constituent_shuffle`` on the same stream, which
gives the same bytes.

Each round runs the replicas three times: untraced, traced (spans only),
and counted (the counts, the ``rng`` draw counter and ``tracemalloc``, not
timed), so that neither the counting work nor the garbage it makes lands
in a layer's self time. Untraced against traced gives
``trace.overhead_ratio``. ``pipeline.*`` wall times come from calling
``run_transform`` / ``run_stats`` in-process on the CLI's inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import Counter, defaultdict
from itertools import zip_longest
from pathlib import Path

from treelab.cli import build_parser
from treelab.metrics import (
    AlignedPermutation,
    StatsAccumulator,
    align_by_surface,
    alignment,
    format_stats_table,
)
from treelab.pipeline import (
    AblateStep,
    ConstituentShuffleStep,
    PipelineConfig,
    ReorderStep,
    parse_chain,
    run_stats,
    run_transform,
    write_provenance,
)
from treelab.retrieval import pool_matrix, read_token_embeddings, top1_retrieval
from treelab.rng import Rng, stream_seed
from treelab.subword import (
    IGNORE_LABEL,
    MaskingConfig,
    bpe_apply,
    bpe_learn,
    load_model,
    mask_tokens,
    read_ids_file,
    save_model,
)
from treelab.synthlang import ParallelCorpus, demo_grammar, sample_pair, write_corpus
from treelab.transform import AblationSpec, apply_reorder, constituent_shuffle, remove_composition
from treelab.treebank import TreeParseError, iter_nodes, parse_ptb, serialize, yield_sentence

from harness import ROOT, WORK, Ledger, Runner, cli_env, output_digests, prepare_dir
from workloads import Invocation, Workload

# Per-layer metrics in BENCHMARK.json order: name -> (unit, better).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "treebank.parse_ptb.self_s": ("s", "lower"),
    "treebank.parse_ptb.calls": ("count", "lower"),
    "treebank.serialize.self_s": ("s", "lower"),
    "treebank.yield_sentence.self_s": ("s", "lower"),
    "transform.apply_reorder.self_s": ("s", "lower"),
    "transform.apply_reorder.swaps": ("count", "lower"),
    "transform.remove_composition.self_s": ("s", "lower"),
    "transform.nodes_removed": ("count", "lower"),
    "transform.constituent_shuffle.self_s": ("s", "lower"),
    "metrics.alignment.self_s": ("s", "lower"),
    "metrics.ir_wmd.self_s": ("s", "lower"),
    "metrics.align_by_surface.self_s": ("s", "lower"),
    "pipeline.run_transform.wall_s": ("s", "lower"),
    "pipeline.driver_overhead_s": ("s", "lower"),
    "pipeline.worker_scaling": ("ratio", "higher"),
    "pipeline.write_provenance.self_s": ("s", "lower"),
    "pipeline.run_stats.wall_s": ("s", "lower"),
    "synthlang.generate_corpus.self_s": ("s", "lower"),
    "synthlang.write_corpus.self_s": ("s", "lower"),
    "synthlang.tokens": ("count", "lower"),
    "subword.bpe_learn.self_s": ("s", "lower"),
    "subword.bpe_learn.merges": ("count", "lower"),
    "subword.bpe_learn.distinct_words": ("count", "lower"),
    "subword.bpe_apply.self_s": ("s", "lower"),
    "subword.bpe_apply.ids": ("count", "lower"),
    "subword.mask_tokens.self_s": ("s", "lower"),
    "subword.mask_tokens.selected": ("count", "lower"),
    "retrieval.read_embeddings.self_s": ("s", "lower"),
    "retrieval.read_embeddings.bytes": ("bytes", "lower"),
    "retrieval.pool_matrix.self_s": ("s", "lower"),
    "retrieval.top1_retrieval.self_s": ("s", "lower"),
    "retrieval.top1_retrieval.peak_alloc_mb": ("MB", "lower"),
    "rng.draws": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.transform.wall_s": ("s", "lower"),
    "cli.stats.wall_s": ("s", "lower"),
    "cli.synth-generate.wall_s": ("s", "lower"),
    "cli.bpe-learn.wall_s": ("s", "lower"),
    "cli.bpe-apply.wall_s": ("s", "lower"),
    "cli.mask.wall_s": ("s", "lower"),
    "cli.retrieval.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
LAYER_UNITS = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
_LAYER_PREFIXES = ("treebank.", "transform.", "metrics.")
_NON_TREE = re.compile(r"^[\s()]*$")  # blank and placeholder lines, as the CLI classifies them
IMPORT_REPEATS = 5


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]; a disabled
    tracer calls straight through and records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span; written out longhand, not
        through ``span``, because it runs once per layer call and its own
        cost lands in the layer's self time."""
        if not self.enabled:
            return fn(*args, **kwargs)
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            record[1] = start
            self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index][1:3] = (start, end)

    def self_times(self) -> tuple[dict[str, float], Counter]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
            calls[name] += 1
        return totals, calls


class CountingRng(Rng):
    """An ``Rng`` that counts ``next_u64`` calls into a shared tally."""

    __slots__ = ("tally",)

    def __init__(self, seed: int, tally: list[int]) -> None:
        super().__init__(seed)
        self.tally = tally

    def next_u64(self) -> int:
        self.tally[0] += 1
        return Rng.next_u64(self)


class Context:
    """What a replica needs: the tracer, the stream factory and the counters.

    ``spans`` turns the tracer on; ``counts`` turns on the bookkeeping that
    fills ``counters`` and ``draws``.
    """

    def __init__(self, spans: bool, counts: bool) -> None:
        self.tracer = Tracer(spans)
        self.counts = counts
        self.counters: Counter = Counter()
        self.draws = [0]

    def stream(self, global_seed: int, index: int) -> Rng:
        seed = stream_seed(global_seed, index)
        return CountingRng(seed, self.draws) if self.counts else Rng(seed)


def _read_lines(paths) -> list[str]:
    lines = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines.extend(line.rstrip("\n") for line in fh)
    return lines


def _transform_config(args) -> PipelineConfig:
    """The ``PipelineConfig`` that ``treelab transform`` builds from these args."""
    return PipelineConfig(
        inputs=tuple(args.inputs), output=args.output, chain=args.chain,
        global_seed=args.seed or 0, workers=args.workers or 1, emit=args.emit or "sentences",
        tree_output=args.tree_output, stats=bool(args.stats), report=args.report,
        skip_bad=bool(args.skip_bad), rules_file=args.rules,
    )


# ---------------------------------------------------------------------------
# Replicas, one per subcommand; each returns the text the CLI prints.


def _transform(ctx: Context, args) -> str:
    config = _transform_config(args)
    if config.emit != "both" or config.report or config.rules_file:
        raise ValueError("the transform replica covers --emit both without --report/--rules")
    tr = ctx.tracer
    steps = parse_chain(config.chain)
    acc = StatsAccumulator()
    counts = {"total": 0, "emitted": 0, "blank": 0, "placeholder": 0, "bad": 0}
    with tr.span("pipeline.transform"), open(config.output, "w", encoding="utf-8") as sent_fh, open(
        config.tree_output, "w", encoding="utf-8"
    ) as tree_fh:
        lines = _read_lines(config.inputs)
        counts["total"] = len(lines)
        for index, text in enumerate(lines):
            if not text.strip():
                counts["blank"] += 1
                continue
            if _NON_TREE.match(text):
                counts["placeholder"] += 1
                continue
            try:
                tree = tr.call("treebank.parse_ptb", parse_ptb, text)
            except TreeParseError:
                counts["bad"] += 1
                continue
            original = tr.call("treebank.yield_sentence", yield_sentence, tree)
            rng = ctx.stream(config.global_seed, index)
            for step in steps:
                if isinstance(step, ReorderStep):
                    if ctx.counts:
                        ctx.counters["transform.apply_reorder.swaps"] += sum(
                            1 for node in iter_nodes(tree) if step.rule.matches(node)
                        )
                    tree = tr.call("transform.apply_reorder", apply_reorder, tree, step.rule)
                elif isinstance(step, AblateStep):
                    before = tree
                    tree = tr.call(
                        "transform.remove_composition", remove_composition,
                        tree, AblationSpec(step.alpha), rng=rng,
                    )
                    if ctx.counts:
                        ctx.counters["transform.nodes_removed"] += sum(1 for _ in iter_nodes(before)) - sum(
                            1 for _ in iter_nodes(tree)
                        )
                    if step.shuffle_after:
                        tree = tr.call("transform.constituent_shuffle", constituent_shuffle, tree, rng=rng)
                elif isinstance(step, ConstituentShuffleStep):
                    tree = tr.call(
                        "transform.constituent_shuffle", constituent_shuffle,
                        tree, rng=rng, include_root=step.include_root,
                    )
                else:
                    raise ValueError(f"the transform replica does not cover {step!r}")
            sentence = tr.call("treebank.yield_sentence", yield_sentence, tree)
            pi = tr.call("metrics.alignment", alignment, original, sentence).pi if config.stats else None
            sent_fh.write(sentence.text() + "\n")
            tree_fh.write(tr.call("treebank.serialize", serialize, tree) + "\n")
            counts["emitted"] += 1
            if pi is not None:
                tr.call("metrics.ir_wmd", acc.add, AlignedPermutation(pi))
    for path in (config.output, config.tree_output):
        tr.call(
            "pipeline.write_provenance", write_provenance, path, command="transform",
            config=dataclasses.asdict(config), seed=config.global_seed, workers=config.workers,
            inputs=config.inputs, counts=counts,
        )
    return format_stats_table([(config.chain, acc.finalize())]) + "\n" if config.stats else ""


def _line_tokens(tr: Tracer, line: str) -> list[str]:
    stripped = line.strip()
    if _NON_TREE.match(stripped):
        return []
    if stripped.startswith("("):
        tree = tr.call("treebank.parse_ptb", parse_ptb, stripped)
        return list(tr.call("treebank.yield_sentence", yield_sentence, tree).surfaces())
    return stripped.split()


def _stats(ctx: Context, args) -> str:
    tr = ctx.tracer
    acc = StatsAccumulator()
    with tr.span("pipeline.stats"), open(args.original, encoding="utf-8") as fh_a, open(
        args.modified, encoding="utf-8"
    ) as fh_b:
        for line_a, line_b in zip_longest(fh_a, fh_b):
            if line_a is None or line_b is None:
                raise ValueError("the stats replica needs line-aligned inputs")
            tokens_a, tokens_b = _line_tokens(tr, line_a), _line_tokens(tr, line_b)
            if tokens_a or tokens_b:
                tr.call("metrics.ir_wmd", acc.add, tr.call("metrics.align_by_surface", align_by_surface, tokens_a, tokens_b))
    return format_stats_table([(args.modified, acc.finalize())]) + "\n"


def _synth_generate(ctx: Context, args) -> str:
    if args.grammar or args.languages:
        raise ValueError("the synth replica covers the built-in demo grammar only")
    tr = ctx.tracer
    count, seed = args.count or 100, args.seed or 0
    with tr.span("pipeline.synth_generate"):
        grammar = demo_grammar()
        languages = (grammar.languages[0], grammar.languages[1])
        with tr.span("synthlang.generate_corpus"):
            pairs = tuple(
                sample_pair(grammar, rng=ctx.stream(seed, i), languages=languages) for i in range(count)
            )
        lang_a, lang_b = languages
        paths = (f"{args.prefix}.{lang_a}.trees", f"{args.prefix}.{lang_b}.trees", f"{args.prefix}.align")
        tr.call("synthlang.write_corpus", write_corpus, ParallelCorpus(pairs, seed, languages), *paths)
        for path in paths:
            tr.call(
                "pipeline.write_provenance", write_provenance, path, command="synth generate",
                config={"grammar": "<built-in demo>", "count": count, "languages": [lang_a, lang_b]},
                seed=seed, workers=args.workers or 1, inputs=[], counts={"pairs": count},
            )
    if ctx.counts:
        ctx.counters["synthlang.tokens"] += sum(len(align) for _, _, align in pairs)
    return f"wrote {count} aligned pairs: {', '.join(paths)}\n"


def _bpe_learn(ctx: Context, args) -> str:
    tr = ctx.tracer
    vocab_size, language = args.vocab_size or 32000, args.language or "und"
    with tr.span("pipeline.bpe_learn"):
        lines = _read_lines(args.inputs)
        model = tr.call("subword.bpe_learn", bpe_learn, iter(lines), vocab_size, language)
        save_model(model, args.output)
        tr.call(
            "pipeline.write_provenance", write_provenance, args.output, command="bpe learn",
            config={"vocab_size": vocab_size, "language": language, "inputs": list(args.inputs)},
            seed=args.seed or 0, workers=args.workers or 1, inputs=args.inputs,
            counts={"merges": len(model.merges), "vocabulary": len(model.vocab)},
        )
    if ctx.counts:
        ctx.counters["subword.bpe_learn.merges"] += len(model.merges)
        ctx.counters["subword.bpe_learn.distinct_words"] += len({w for line in lines for w in line.split()})
    return f"learned {len(model.merges)} merges; vocabulary has {len(model.vocab)} entries\n"


def _bpe_apply(ctx: Context, args) -> str:
    tr = ctx.tracer
    ids_total = 0
    with tr.span("pipeline.bpe_apply"):
        model = load_model(args.model)
        lines = _read_lines(args.inputs)
        with open(args.output, "w", encoding="utf-8") as fh:
            for line in lines:
                ids = tr.call("subword.bpe_apply", bpe_apply, model, line)
                fh.write(" ".join(str(i) for i in ids))
                fh.write("\n")
                ids_total += len(ids)
        tr.call(
            "pipeline.write_provenance", write_provenance, args.output, command="bpe apply",
            config={"model": args.model, "inputs": list(args.inputs)}, seed=args.seed or 0,
            workers=args.workers or 1, inputs=[*args.inputs, args.model], counts={"lines": len(lines)},
        )
    ctx.counters["subword.bpe_apply.ids"] += ids_total
    return f"encoded {len(lines)} line(s) with {model.language} model\n"


def _mask(ctx: Context, args) -> str:
    if args.model is None or args.labels_output:
        raise ValueError("the mask replica covers --model without --labels-output")
    tr = ctx.tracer
    seed = args.seed or 0
    rate = 0.15 if args.rate is None else args.rate
    labels_path = args.output + ".labels"
    tokens = selected = 0
    with tr.span("pipeline.mask"):
        vocab_size = len(load_model(args.model).vocab)
        masking = MaskingConfig(mask_rate=rate, seed=seed)
        sequences = read_ids_file(args.input)
        with open(args.output, "w", encoding="utf-8") as fh_ids, open(
            labels_path, "w", encoding="utf-8"
        ) as fh_labels:
            for index, seq in enumerate(sequences):
                masked, labels = tr.call(
                    "subword.mask_tokens", mask_tokens, seq, masking, vocab_size,
                    rng=ctx.stream(seed, index),
                )
                fh_ids.write(" ".join(str(i) for i in masked) + "\n")
                fh_labels.write(" ".join(str(i) for i in labels) + "\n")
                tokens += len(seq)
                if ctx.counts:
                    selected += sum(1 for label in labels if label != IGNORE_LABEL)
        for path in (args.output, labels_path):
            tr.call(
                "pipeline.write_provenance", write_provenance, path, command="mask",
                config={"input": args.input, "vocab_size": vocab_size, "rate": rate, "labels": labels_path},
                seed=seed, workers=args.workers or 1, inputs=[args.input, args.model],
                counts={"sentences": len(sequences), "tokens": tokens},
            )
    ctx.counters["subword.mask_tokens.selected"] += selected
    return f"masked {len(sequences)} sentence(s), {tokens} token(s)\n"


def _retrieval(ctx: Context, args) -> str:
    if not args.report:
        raise ValueError("the retrieval replica covers --report")
    tr = ctx.tracer
    with tr.span("pipeline.retrieval"):
        pooled = []
        for path in (args.source, args.target):
            tokens = tr.call("retrieval.read_embeddings", read_token_embeddings, path)
            pooled.append(tr.call("retrieval.pool_matrix", pool_matrix, tokens))
        source, target = pooled
        if ctx.counts:
            tracemalloc.start()
        result = tr.call("retrieval.top1_retrieval", top1_retrieval, source, target)
        if ctx.counts:
            ctx.counters["retrieval.top1_retrieval.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "source": args.source,
                    "target": args.target,
                    "queries": source.shape[0],
                    "top1_accuracy": result.top1_accuracy,
                    "margin": result.margin,
                    "per_query_nearest": list(result.per_query_nearest),
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        tr.call(
            "pipeline.write_provenance", write_provenance, args.report, command="retrieval",
            config={"source": args.source, "target": args.target}, seed=args.seed or 0,
            workers=args.workers or 1, inputs=[args.source, args.target],
        )
    ctx.counters["retrieval.read_embeddings.bytes"] += os.path.getsize(args.source) + os.path.getsize(args.target)
    return (
        f"queries {source.shape[0]}  top-1 accuracy {result.top1_accuracy:.4f}  "
        f"margin {result.margin:.4f}\n"
    )


REPLICAS = {
    "transform": _transform,
    "stats": _stats,
    "synth-generate": _synth_generate,
    "bpe-learn": _bpe_learn,
    "bpe-apply": _bpe_apply,
    "mask": _mask,
    "retrieval": _retrieval,
}


# ---------------------------------------------------------------------------
# The traced run


@contextlib.contextmanager
def _inside(directory: Path):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _compare(ledger: Ledger, label: str, digests: dict[str, str], cli: dict[str, str]) -> None:
    ledger.record([
        f"{label}: {name} digest {digests.get(name)} != CLI {cli[name]}"
        for name in cli if name in digests and digests[name] != cli[name]
    ])


def _replicate(runner: Runner, directory: Path, spans: bool = False,
               counts: bool = False) -> tuple[Context, float, dict[str, str]]:
    prepare_dir(directory, runner.inputs_dir, runner.workload)
    ctx = Context(spans, counts)
    parser = build_parser()
    with _inside(directory):
        start = time.perf_counter()
        for inv in runner.plan:
            text = REPLICAS[inv.name](ctx, parser.parse_args(inv.argv))
            Path(f"{inv.name}.stdout").write_text(text, encoding="utf-8")
        wall = time.perf_counter() - start
    return ctx, wall, output_digests(directory, runner.plan)


def _in_process(cli_dir: Path, directory: Path, inv: Invocation, workers: int) -> tuple[float, dict]:
    """Call ``run_transform`` / ``run_stats`` on copies of the CLI's inputs."""
    args = build_parser().parse_args(inv.argv)
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    reads = args.inputs if inv.name == "transform" else (args.original, args.modified)
    for name in reads:
        shutil.copyfile(cli_dir / name, directory / name)
    out, err = io.StringIO(), io.StringIO()
    with _inside(directory):
        start = time.perf_counter()
        if inv.name == "transform":
            config = dataclasses.replace(_transform_config(args), workers=workers)
            code = run_transform(config, stdout=out, stderr=err)
        else:
            code = run_stats(args.original, args.modified, report=args.report, stdout=out, stderr=err)
        wall = time.perf_counter() - start
    (directory / f"{inv.name}.stdout").write_text(out.getvalue(), encoding="utf-8")
    digests = output_digests(directory, [inv])
    if code != 0:
        digests[f"{inv.name}.stdout"] = f"exit {code}"
    return wall, digests


def import_seconds() -> float:
    """Median time to ``import treelab.cli`` in a fresh interpreter."""
    probe = "import time; t = time.perf_counter(); import treelab.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", probe], env=cli_env(), capture_output=True, text=True, check=True,
            timeout=60,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def _round(runner: Runner, scratch: Path) -> tuple[dict[str, float], list]:
    """One untraced CLI pass, then the replicas and in-process runs on its inputs.

    Order: untraced replica, traced replica, ``run_transform`` at workers 1
    and 2, counted replica, ``run_stats``. Each pair of timings that is
    compared (untraced and traced replica, traced replica and
    ``run_transform``, workers 1 and 2) is taken back to back, so that a
    slow phase of the machine moves both sides alike.
    """
    metrics = {name: 0 if unit in ("count", "bytes") else 0.0 for name, (unit, _) in LAYER_METRICS.items()}
    ledger = runner.ledger
    cli_pass = runner.run_pass(scratch / "cli")
    for run in cli_pass.launches:
        metrics[f"cli.{run.name}.wall_s"] = run.wall_s

    by_name = {inv.name: inv for inv in runner.plan}
    _, null_wall, digests = _replicate(runner, scratch / "untraced")
    _compare(ledger, "untraced replica", digests, cli_pass.digests)
    traced, traced_wall, digests = _replicate(runner, scratch / "traced", spans=True)
    _compare(ledger, "traced replica", digests, cli_pass.digests)
    metrics["trace.overhead_ratio"] = traced_wall / null_wall
    walls = {}
    if "transform" in by_name:
        for workers in (1, 2):
            walls[workers], digests = _in_process(
                scratch / "cli", scratch / f"inproc-w{workers}", by_name["transform"], workers
            )
            _compare(ledger, f"run_transform workers={workers}", digests, cli_pass.digests)
    counted, _, digests = _replicate(runner, scratch / "counted", counts=True)
    _compare(ledger, "counted replica", digests, cli_pass.digests)

    totals, calls = traced.tracer.self_times()
    for name in LAYER_METRICS:
        if name.endswith(".self_s"):
            metrics[name] = totals.get(name[: -len(".self_s")], 0.0)
    metrics["treebank.parse_ptb.calls"] = calls["treebank.parse_ptb"]
    metrics["rng.draws"] = counted.draws[0]
    metrics.update(counted.counters)

    if walls:
        metrics["pipeline.run_transform.wall_s"] = walls[1]
        metrics["pipeline.worker_scaling"] = walls[1] / walls[2]
        # Layer self time inside the transform replica only (the stats replica has its own root).
        spans = traced.tracer.spans
        root = next(i for i, span in enumerate(spans) if span[0] == "pipeline.transform")
        layer = sum(
            end - start for name, start, end, parent in spans
            if parent == root and name.startswith(_LAYER_PREFIXES)
        )
        metrics["pipeline.driver_overhead_s"] = walls[1] - layer
    if "stats" in by_name:
        wall, digests = _in_process(scratch / "cli", scratch / "inproc-stats", by_name["stats"], 1)
        _compare(ledger, "run_stats", digests, cli_pass.digests)
        metrics["pipeline.run_stats.wall_s"] = wall
    return metrics, traced.tracer.spans


def traced_run(workload: Workload, seed: int, seconds: float, size_name: str, scratch: Path,
               deadline: float) -> tuple[dict, Ledger, dict]:
    runner = Runner(workload, seed, size_name, deadline)
    import_s = import_seconds()
    rounds: list[dict[str, float]] = []
    spans: list[list] = []
    measure_until = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        try:
            metrics, spans = _round(runner, scratch)
        except Exception:  # a replica out of step with the program fails the run, it does not crash it
            runner.ledger.record([f"traced round failed: {traceback.format_exc(limit=-4)}"])
            break
        rounds.append(metrics)
        # Start another round only if it should end inside the window.
        round_s = time.perf_counter() - started
        if time.perf_counter() + round_s > measure_until or runner.out_of_time(round_s):
            break
    metrics = {name: statistics.median(r[name] for r in rounds) if rounds else 0 for name in LAYER_METRICS}
    metrics["cli.import_s"] = import_s
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_path = traces / f"{workload.name}-seed{seed}.jsonl"
    with open(trace_path, "w", encoding="utf-8") as fh:
        origin = spans[0][1] if spans else 0.0
        for name, start, end, parent in spans:
            fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent]) + "\n")
    detail = {"rounds": len(rounds), "items": runner.items, "reference": runner.reference_kind,
              "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, runner.ledger, detail
