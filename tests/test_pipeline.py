"""The streaming corpus driver: chunks, file boundaries, worker counts, input errors."""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from helpers import apply_chain, fifo_holding, internal, sentence_of, write_pooled_embeddings, write_token_embeddings
from treelab import metrics, pipeline, transform, treebank
from treelab.cli import SEED_ENV, WORKERS_ENV, main
from treelab.metrics import (
    AlignmentError,
    StatsAccumulator,
    alignment,
    inversion_ratio,
    word_move_distance,
)
from treelab.files import SIDECAR_SUFFIX, PipelineError, read_lines, replace_on_success
from treelab.pipeline import CHUNK_LINES, CHUNKS_PER_WORKER, parse_chain
from treelab.retrieval import EmbeddingMatrix
from treelab.rng import run_streams
from treelab.treebank import Sentence, leaf, parse_ptb, serialize, yield_sentence

CHAIN = "reorder:83A,ablate:0.5:shuffle"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "english_like.trees"
# One chain per step kind, and mixed chains that end in each kind of sentence.
STEP_KINDS = (
    "reorder:83A", "constituent_shuffle", "ablate:0.5", "ablate:1:shuffle", "word_shuffle",
    CHAIN, "reorder:85A,constituent_shuffle,word_shuffle",
)
SEED = 11
TREES = (
    "(S (NP (DT the) (NN cat)) (VP (VBD saw) (NP (DT a) (JJ small) (NN bird))))",
    "(S (NP (PRP I)) (VP (VBD read) (NP (CD two) (NNS papers)) (PP (IN on) (NP (NN Monday)))))",
    "(X (A a) (B b) (C c) (D d) (E e) (F f) (G g))",
)
MALFORMED = "(S (NP (DT the)"
# Around each boundary: blank, placeholder and malformed lines on both sides.
AROUND = {-3: "", -2: "(())", -1: MALFORMED, 0: MALFORMED, 1: "  (( ))", 2: ""}


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    monkeypatch.delenv(WORKERS_ENV, raising=False)


def corpus_lines() -> list[str]:
    """More than two chunks of lines, with odd lines at the chunk boundaries
    and at the two file boundaries of ``write_corpus``."""
    total = 2 * CHUNK_LINES + 20
    lines = [TREES[i % len(TREES)] for i in range(total)]
    for boundary in (CHUNK_LINES, CHUNK_LINES + 7, 2 * CHUNK_LINES):
        for offset, text in AROUND.items():
            lines[boundary + offset] = text
    return lines


def write_corpus(directory) -> list[str]:
    """Three files: the first ends inside the second chunk, the second where
    the second chunk ends, so one chunk spans a file boundary and one file
    boundary is a chunk boundary."""
    lines = corpus_lines()
    cuts = (0, CHUNK_LINES + 7, 2 * CHUNK_LINES, len(lines))
    paths = []
    for n, (start, end) in enumerate(zip(cuts, cuts[1:])):
        path = directory / f"part{n}.trees"
        path.write_text("".join(line + "\n" for line in lines[start:end]), encoding="utf-8")
        paths.append(str(path))
    return paths


def numbered(paths: list[str]) -> list[tuple[int, str, int, str]]:
    """``(global index, path, lineno, text)``, written out independently of the driver."""
    rows = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh.read().splitlines(), start=1):
                rows.append((len(rows), path, lineno, line))
    return rows


def chained(text: str, index: int, chain: str):
    """``apply_chain`` on one line, seeded as the driver must: by its global index."""
    return apply_chain(parse_ptb(text), parse_chain(chain), run_streams(SEED)(index))


def run_in(directory, monkeypatch, capsys, *argv: str) -> tuple[int, str, str]:
    directory.mkdir()
    monkeypatch.chdir(directory)
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sidecar_without_workers(path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["workers"], doc["config"]["workers"]
    return doc


@pytest.mark.parametrize("skip_bad", [False, True], ids=["strict", "skip-bad"])
def test_worker_counts_agree_across_chunk_and_file_boundaries(
    tmp_path, monkeypatch, capsys, skip_bad
):
    monkeypatch.setattr(pipeline, "POOL_MIN_S", 0)  # the pool starts before the first chunk
    paths = write_corpus(tmp_path)
    runs = {}
    for workers in ("1", "2"):
        directory = tmp_path / f"w{workers}"
        argv = ["transform", *paths, "-o", "out.sents", "--tree-output", "out.trees",
                "--emit", "both", "--chain", CHAIN, "--stats", "--seed", str(SEED),
                "--workers", workers] + (["--skip-bad"] if skip_bad else [])
        code, out, err = run_in(directory, monkeypatch, capsys, *argv)
        runs[workers] = (
            code, out, err,
            (directory / "out.sents").read_bytes(),
            (directory / "out.trees").read_bytes(),
            sidecar_without_workers(directory / "out.sents.provenance.json"),
            sidecar_without_workers(directory / "out.trees.provenance.json"),
        )
    assert runs["1"] == runs["2"]

    code, _, err, sentences, trees, sidecar, _ = runs["1"]
    rows = numbered(paths)
    bad = [(path, lineno) for _, path, lineno, text in rows if text == MALFORMED]
    assert len(bad) == 6
    expected_sentences, expected_trees = [], []
    for index, _, _, text in rows:
        if text in TREES:  # seeded by the global line index, across files and chunks
            tree, sentence = chained(text, index, CHAIN)
            expected_sentences.append(sentence.text() + "\n")
            expected_trees.append(serialize(tree) + "\n")
    assert sentences.decode() == "".join(expected_sentences)
    assert trees.decode() == "".join(expected_trees)
    assert sidecar["counts"] == {
        "total": len(rows), "emitted": len(expected_sentences),
        "blank": 6, "placeholder": 6, "bad": 6,
    }
    assert list(sidecar["counts"]) == ["total", "emitted", "blank", "placeholder", "bad"]
    err_lines = err.splitlines()
    assert err_lines[0] == "skipped 6 line(s) with no tree"
    if skip_bad:
        assert code == 0
        assert err_lines[1:] == ["skipped 6 malformed line(s)"]
    else:
        assert code == 1
        assert [line.split(": ", 1)[0] for line in err_lines[1:-1]] == [f"{p}:{n}" for p, n in bad]
        files = ", ".join(dict.fromkeys(p for p, _ in bad))
        assert err_lines[-1] == f"error: {files}: {len(bad)} line(s) failed; outputs written"


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("chain", ["constituent_shuffle,ablate:0.3:shuffle", *STEP_KINDS])
def test_report_floats_equal_sequential_corpus_stats(tmp_path, monkeypatch, capsys, chain, workers):
    monkeypatch.setattr(pipeline, "POOL_MIN_S", 0)  # the pool starts before the first chunk
    paths = write_corpus(tmp_path)
    code, _, _ = run_in(
        tmp_path / "run", monkeypatch, capsys,
        "transform", *paths, "-o", "out.sents", "--chain", chain, "--stats", "--report", "r.json",
        "--skip-bad", "--seed", str(SEED), "--workers", workers,
    )
    assert code == 0
    pairs = [
        (yield_sentence(parse_ptb(text)), chained(text, index, chain)[1])
        for index, _, _, text in numbered(paths)
        if text in TREES
    ]
    acc = StatsAccumulator()
    for original, modified in pairs:
        acc.add(alignment(original, modified))
    expected = acc.finalize()
    report = json.loads((tmp_path / "run" / "r.json").read_text(encoding="utf-8"))
    assert report["mean_inversion_ratio"] == expected.mean_inversion_ratio  # exact, not approx
    assert report["mean_word_move_distance"] == expected.mean_word_move_distance
    assert report["sentence_count"] == expected.sentence_count == len(pairs)
    assert report["token_count"] == expected.token_count
    assert report["short_sentence_count"] == expected.short_sentence_count


class InlinePool:
    """Stands in for ``ProcessPoolExecutor``: runs each chunk at submit and
    records how many submitted chunks were not yet taken back."""

    made: list["InlinePool"] = []

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers
        self.in_flight = self.most_in_flight = 0
        InlinePool.made.append(self)

    def __enter__(self) -> "InlinePool":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def submit(self, fn, *args):
        self.in_flight += 1
        self.most_in_flight = max(self.most_in_flight, self.in_flight)
        value = fn(*args)
        pool = self

        class Done:
            def result(self):
                pool.in_flight -= 1
                return value

        return Done()


@pytest.mark.parametrize(
    ("lines", "workers", "pooled"), [(1, 2, False), (2, 2, True), (2, 1, False)]
)
def test_pool_runs_for_two_or_more_lines_and_several_workers(
    tmp_path, monkeypatch, lines, workers, pooled
):
    InlinePool.made.clear()
    monkeypatch.setattr(pipeline, "POOL_MIN_S", 0)  # the pool starts before the first chunk
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    src = tmp_path / "in.trees"
    src.write_text("".join(TREES[i % 3] + "\n" for i in range(lines)), encoding="utf-8")
    out = tmp_path / "out.txt"
    argv = ["transform", str(src), "-o", str(out), "--chain", CHAIN, "--workers", str(workers)]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == lines
    assert [pool.max_workers for pool in InlinePool.made] == ([workers] if pooled else [])


def test_pool_holds_a_bounded_number_of_chunks(tmp_path, monkeypatch, capsys):
    InlinePool.made.clear()
    monkeypatch.setattr(pipeline, "CHUNK_LINES", 2)
    monkeypatch.setattr(pipeline, "POOL_MIN_S", 0)  # the pool starts before the first chunk
    paths = write_corpus(tmp_path)
    reference = tmp_path / "serial.txt"
    argv = ["transform", *paths, "--chain", CHAIN, "--skip-bad", "-o"]
    assert main([*argv, str(reference)]) == 0
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    out = tmp_path / "pooled.txt"
    assert main([*argv, str(out), "--workers", "3"]) == 0
    capsys.readouterr()
    (pool,) = InlinePool.made
    assert pool.in_flight == 0
    assert pool.most_in_flight == 3 * CHUNKS_PER_WORKER
    assert out.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("source", ["file", "fifo"])
def test_a_small_file_runs_in_the_driver_and_a_pipe_starts_the_pool(tmp_path, monkeypatch, source):
    """At the real POOL_MIN_S, ``--workers 2`` over a few chunks of a regular file
    makes no pool; over a pipe, whose size is unknown, it makes one at once.
    Either way it writes the bytes of ``--workers 1``."""
    InlinePool.made.clear()
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    data = "".join(TREES[i % 3] + "\n" for i in range(2 * CHUNK_LINES + 5)).encode("utf-8")
    src, reference, out = tmp_path / "in.trees", tmp_path / "w1.txt", tmp_path / "w2.txt"
    src.write_bytes(data)
    argv = ["transform", "--seed", str(SEED), "--chain", CHAIN, "-o"]
    assert main([*argv, str(reference), str(src)]) == 0
    if source == "file":
        assert main([*argv, str(out), str(src), "--workers", "2"]) == 0
    else:
        with fifo_holding(tmp_path / "in.fifo", data) as fifo:
            assert main([*argv, str(out), fifo, "--workers", "2"]) == 0
    assert out.read_bytes() == reference.read_bytes()
    assert [pool.max_workers for pool in InlinePool.made] == ([2] if source == "fifo" else [])


def test_read_lines_numbers_each_file_and_opens_all_first(tmp_path):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_text("one\n\ntwo\n", encoding="utf-8")
    second.write_text("three\nfour", encoding="utf-8")
    assert list(read_lines([str(first), str(second)])) == [
        (str(first), 1, "one"), (str(first), 2, ""), (str(first), 3, "two"),
        (str(second), 1, "three"), (str(second), 2, "four"),
    ]
    with pytest.raises(PipelineError, match="cannot read .*missing.txt"):
        list(read_lines([str(first), str(tmp_path / "missing.txt")]))


BAD_BYTE = "'utf-8' codec can't decode byte 0xe9 in position {}: invalid continuation byte"


@pytest.mark.parametrize("data, where", [
    (b"a b\n" * 5000 + b"caf\xe9\n", "5001: " + BAD_BYTE.format(3)),
    (b"x\r\ny\r\nab\xe9\r\n", "3: " + BAD_BYTE.format(2)),
    (b"x\ry\rabc\xe9d\r", "3: " + BAD_BYTE.format(3)),
    (b"x\r\n\ry\n\rq\xe9\n", "5: " + BAD_BYTE.format(1)),
    (b"ok\n\xe2\x82", "2: 'utf-8' codec can't decode bytes in position 0-1: unexpected end of data"),
])
def test_a_byte_that_is_not_utf8_is_named_by_line_and_position(tmp_path, data, where):
    """Lines end at ``\\r\\n``, ``\\r`` or ``\\n``, as ``read_lines`` numbers them; the
    first case's byte lies beyond the text decoder's first chunk."""
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(PipelineError) as caught:
        list(read_lines([str(path)]))
    assert str(caught.value) == f"cannot read {path}:{where}"


@pytest.mark.parametrize("command", ["transform", "bpe apply"])
def test_missing_input_leaves_existing_output_untouched(tmp_path, capsys, command):
    text = tmp_path / "text.txt"
    text.write_text("the cat sat\nthe dog ran\n", encoding="utf-8")
    model = tmp_path / "m.bpe"
    assert main(["bpe", "learn", str(text), "-o", str(model), "--vocab-size", "30"]) == 0
    out = tmp_path / "out.txt"
    out.write_text("earlier output\n", encoding="utf-8")
    missing = tmp_path / "missing.txt"
    extra = ["--chain", CHAIN] if command == "transform" else ["--model", str(model)]
    capsys.readouterr()
    code = main([*command.split(), str(text), str(missing), "-o", str(out), *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert f"cannot read {missing}" in err
    assert out.read_text(encoding="utf-8") == "earlier output\n"


@pytest.mark.parametrize("command", ["transform", "stats", "bpe learn", "bpe apply"])
def test_non_utf8_input_names_the_file(tmp_path, capsys, command):
    good = tmp_path / "good.trees"
    good.write_text(TREES[0] + "\n", encoding="utf-8")
    model = tmp_path / "m.bpe"
    assert main(["bpe", "learn", str(good), "-o", str(model), "--vocab-size", "40"]) == 0
    bad = tmp_path / "latin1.trees"
    bad.write_bytes(TREES[1].replace("papers", "pap\xe9rs").encode("latin-1") + b"\n")
    out = str(tmp_path / "o")
    extra = {
        "transform": ["-o", out, "--chain", CHAIN],
        "stats": [],
        "bpe learn": ["-o", out, "--vocab-size", "40"],
        "bpe apply": ["-o", out, "--model", str(model)],
    }[command]
    capsys.readouterr()
    code = main([*command.split(), str(good), str(bad), *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot read {bad}:1: 'utf-8' codec can't decode byte 0xe9")
    assert "Traceback" not in err


def test_non_utf8_byte_in_a_fifo_ends_the_run_without_reopening_it(tmp_path):
    """A FIFO's writer has closed by the time the bad byte, more than a pipe
    buffer in, is decoded: opening it again would wait for a writer forever, so
    the error names only the file. The child runs under a timeout, so a hang
    fails the test."""
    data = b"(S (NN a))\n" * 10_000 + b"(S (NN caf\xe9))\n"
    with fifo_holding(tmp_path / "in.fifo", data) as fifo:
        result = run_limited(tmp_path, ["transform", fifo, "-o", "out.txt", "--chain", "reorder:83A"],
                             None)
    assert result.returncode == 1
    # The position is the bad byte's offset in whatever chunk the pipe gave the decoder.
    assert re.fullmatch(f"error: cannot read {re.escape(fifo)}: 'utf-8' codec can't decode byte 0xe9 "
                        r"in position \d+: invalid continuation byte\n", result.stderr)


@pytest.mark.parametrize("command", ["transform", "transform --workers 2", "bpe apply"])
def test_late_input_error_leaves_existing_output_untouched(tmp_path, monkeypatch, capsys, command):
    """Several chunks of good lines, then a byte that is not UTF-8: the old
    output stays as it was, and no sidecar or temporary file is left."""
    monkeypatch.setattr(pipeline, "POOL_MIN_S", 0)  # the pool starts before the first chunk
    good = "".join(TREES[i % len(TREES)] + "\n" for i in range(3000))
    late = tmp_path / "late.trees"
    late.write_bytes(good.encode("utf-8") + "(S (NN caf\xe9))\n".encode("latin-1"))
    model = tmp_path / "m.bpe"
    (tmp_path / "good.trees").write_text(good, encoding="utf-8")
    assert main(["bpe", "learn", str(tmp_path / "good.trees"), "-o", str(model), "--vocab-size", "60"]) == 0
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    out = outputs / "out.txt"
    out.write_text("earlier output\n", encoding="utf-8")
    extra = ["--chain", CHAIN] if command.startswith("transform") else ["--model", str(model)]
    capsys.readouterr()
    code = main([*command.split(), str(late), "-o", str(out), *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot read {late}:3001: 'utf-8' codec can't decode byte 0xe9")
    assert "Traceback" not in err
    assert out.read_text(encoding="utf-8") == "earlier output\n"
    assert os.listdir(outputs) == ["out.txt"]


def test_malformed_lines_still_replace_output_and_write_sidecar(tmp_path, capsys):
    src = tmp_path / "in.trees"
    src.write_text(TREES[0] + "\n" + MALFORMED + "\n", encoding="utf-8")
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    out = outputs / "out.txt"
    out.write_text("earlier output\n", encoding="utf-8")
    code = main(["transform", str(src), "-o", str(out), "--chain", "reorder:83A"])
    assert code == 1
    assert f"{src}:2:" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "the cat a small bird saw\n"
    assert sorted(os.listdir(outputs)) == ["out.txt", "out.txt.provenance.json"]
    assert oct(out.stat().st_mode & 0o777) == oct(0o666 & ~current_umask())


def current_umask() -> int:
    umask = os.umask(0)
    os.umask(umask)
    return umask


def test_replace_on_success_writes_through_symlinks_and_pipes(tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("earlier output\n", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    with replace_on_success(str(link)) as (fh,):
        fh.write("new output\n")
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == "new output\n"

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received: list[str] = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    with replace_on_success(str(fifo)) as (fh,):
        fh.write("through the pipe\n")
    reader.join(timeout=10)
    assert received == ["through the pipe\n"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "pipe", "real.txt"]


@pytest.mark.parametrize("command", ["bpe apply", "synth generate"])
def test_pipe_output_gets_no_digest_and_does_not_hang(tmp_path, command):
    """Reading a pipe back to hash it would block for ever: the sidecar
    records no digest for it, and the command exits."""
    text = tmp_path / "in.txt"
    text.write_text("the cat saw a bird\nthe bird saw a cat\n", encoding="utf-8")
    model = tmp_path / "m.bpe"
    assert main(["bpe", "learn", str(text), "-o", str(model), "--vocab-size", "40"]) == 0
    fifo = tmp_path / ("out.ids" if command == "bpe apply" else "demo.align")
    os.mkfifo(fifo)
    argv = {
        "bpe apply": ["bpe", "apply", str(text), "-o", str(fifo), "--model", str(model)],
        "synth generate": ["synth", "generate", "-o", str(tmp_path / "demo"), "-n", "3"],
    }[command]
    received: list[str] = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "treelab.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert result.returncode == 0, result.stderr
    assert len(received[0].splitlines()) in (2, 3)  # lines of text, or pairs
    sidecar = json.loads((tmp_path / f"{fifo.name}.provenance.json").read_text(encoding="utf-8"))
    assert sidecar["output"] == {"path": str(fifo), "sha256": None}
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_mask_late_bad_id_keeps_existing_outputs(tmp_path, capsys):
    ids = tmp_path / "in.ids"
    ids.write_text("7 8 9\n" * 3000 + "7 x 9\n", encoding="utf-8")
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    out, labels = outputs / "m.ids", outputs / "m.ids.labels"
    out.write_text("earlier output\n", encoding="utf-8")
    labels.write_text("earlier labels\n", encoding="utf-8")
    code = main(["mask", str(ids), "-o", str(out), "--vocab-size", "40"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {ids}:3001: invalid literal for int() with base 10: 'x'\n"
    assert out.read_text(encoding="utf-8") == "earlier output\n"
    assert labels.read_text(encoding="utf-8") == "earlier labels\n"
    assert sorted(os.listdir(outputs)) == ["m.ids", "m.ids.labels"]


TOY_GRAMMAR = (
    "language a 83A=VO\nlanguage b 83A=OV\nrule S -> NP VP\nrule VP -> VB NP\nrule NP -> NN\n"
    "lex a NN cat dog\nlex a VB sees\nlex b NN neko inu\nlex b VB miru\n"
)


def snapshot(directory: Path) -> dict[str, bytes | str]:
    """Every file's bytes, a symlink's target, a directory's entries."""
    return {
        path.name: os.readlink(path) if path.is_symlink()
        else sorted(os.listdir(path)) if path.is_dir() else path.read_bytes()
        for path in directory.iterdir()
    }


@pytest.mark.parametrize(
    "argv",
    [
        "transform in.trees -o in.trees --chain reorder:83A",
        "transform in.trees -o ./sub/../in.trees --chain reorder:83A",
        "transform in.trees -o link.trees --chain reorder:83A",
        "transform in.trees other.trees -o other.trees --chain reorder:83A",
        "transform in.trees -o in.trees --emit trees --chain reorder:83A",
        "transform in.trees -o same.out --tree-output same.out --emit both --chain reorder:83A",
        "transform in.trees -o out.txt --tree-output in.trees --emit both --chain reorder:83A",
        "transform in.trees -o out.txt --tree-output out.txt.provenance.json --emit both --chain reorder:83A",
        "transform in.trees -o out.txt --stats --report in.trees --chain reorder:83A",
        "transform in.trees -o out.txt --stats --report out.txt --chain reorder:83A",
        "transform in.trees -o out.txt --stats --report out.txt.provenance.json --chain reorder:83A",
        "transform in.trees -o rules.txt --rules rules.txt --chain reorder:83A",
        "mask in.ids -o in.ids --vocab-size 40",
        "mask in.ids -o m.ids --labels-output m.ids --vocab-size 40",
        "mask in.ids -o m.ids --labels-output in.ids --vocab-size 40",
        "mask in.ids -o m.ids --labels-output m.ids.provenance.json --vocab-size 40",
        "mask in.ids -o m.bpe --model m.bpe",
        "mask in.ids -o m.ids --labels-output m.bpe --model m.bpe",
        "bpe learn words.txt -o words.txt --vocab-size 40",
        "bpe learn m.bpe.provenance.json -o m.bpe --vocab-size 40",
        "bpe apply words.txt -o words.txt --model m.bpe",
        "bpe apply words.txt -o m.bpe --model m.bpe",
        "stats in.trees other.trees --report other.trees",
        "stats in.trees in.trees --report link.trees",
        "retrieval --source in.ids --target other.trees --report in.ids",
        "retrieval --source m.ids.provenance.json --target other.trees --report m.ids",
        "synth generate -o s --languages a a --grammar toy.grammar",
        "synth generate -o toy -n 3 --grammar toy.a.trees",
    ],
)
def test_outputs_that_alias_each_other_or_an_input_are_refused(tmp_path, monkeypatch, capsys, argv):
    """Paths are compared after ``realpath``; nothing is written or replaced."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "in.trees").write_text(TREES[0] + "\n", encoding="utf-8")
    (tmp_path / "other.trees").write_text(TREES[1] + "\n", encoding="utf-8")
    (tmp_path / "link.trees").symlink_to("in.trees")
    (tmp_path / "rules.txt").write_text("83B VP VB NP prefix:VB\n", encoding="utf-8")
    (tmp_path / "in.ids").write_text("7 8 9\n", encoding="utf-8")
    (tmp_path / "words.txt").write_text("the cat sat\n", encoding="utf-8")
    for grammar in ("toy.grammar", "toy.a.trees"):
        (tmp_path / grammar).write_text(TOY_GRAMMAR, encoding="utf-8")
    assert main(["bpe", "learn", "words.txt", "-o", "m.bpe", "--vocab-size", "40"]) == 0
    for name in ("same.out", "out.txt", "out.txt.provenance.json", "m.ids", "m.ids.provenance.json"):
        (tmp_path / name).write_text(f"earlier {name}\n", encoding="utf-8")
    before = snapshot(tmp_path)
    capsys.readouterr()
    code = main(argv.split())
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "are the same file" in err or "is also the input" in err, err
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize(
    "command",
    ["transform", "bpe apply", "bpe learn", "mask", "retrieval --report", "stats --report",
     "transform --report", "synth generate"],
)
def test_output_in_a_missing_directory_names_the_output(tmp_path, capsys, command):
    text = tmp_path / "in.trees"
    text.write_text(TREES[0] + "\n", encoding="utf-8")
    model = tmp_path / "m.bpe"
    assert main(["bpe", "learn", str(text), "-o", str(model), "--vocab-size", "40"]) == 0
    (tmp_path / "in.ids").write_text("7 8 9\n", encoding="utf-8")
    write_pooled_embeddings(str(tmp_path / "in.emb"), np.eye(3, dtype=np.float32))
    out = tmp_path / "missing" / "o.txt"
    argv = {
        "transform": ["transform", text, "-o", out, "--chain", CHAIN],
        "bpe apply": ["bpe", "apply", text, "-o", out, "--model", model],
        "bpe learn": ["bpe", "learn", text, "-o", out, "--vocab-size", "40"],
        "mask": ["mask", tmp_path / "in.ids", "-o", out, "--vocab-size", "40"],
        "retrieval --report": ["retrieval", "--source", tmp_path / "in.emb",
                               "--target", tmp_path / "in.emb", "--report", out],
        "stats --report": ["stats", text, text, "--report", out],
        "transform --report": ["transform", text, "-o", tmp_path / "o.txt", "--chain", CHAIN,
                               "--stats", "--report", out],
        "synth generate": ["synth", "generate", "-o", tmp_path / "missing" / "o", "-n", "3"],
    }[command]
    if command == "synth generate":  # the first of its three outputs
        out = tmp_path / "missing" / "o.alpha.trees"
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    code = main([str(arg) for arg in argv])
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"
    assert sorted(os.listdir(tmp_path)) == before


def side_files(directory: Path) -> None:
    """One of every kind of file a subcommand reads, and a model learned from the text."""
    (directory / "in.trees").write_text("".join(t + "\n" for t in TREES * 20), encoding="utf-8")
    (directory / "bad.trees").write_text(f"{TREES[0]}\n{MALFORMED}\n", encoding="utf-8")
    reversed_lines = (" ".join(yield_sentence(parse_ptb(t)).surfaces()[::-1]) for t in TREES * 20)
    (directory / "other.txt").write_text("".join(line + "\n" for line in reversed_lines))
    (directory / "words.txt").write_text("the cat sat on the mat\n" * 60, encoding="utf-8")
    (directory / "in.ids").write_text("7 8 9 10 11\n" * 60, encoding="utf-8")
    (directory / "rules.txt").write_text("83B VP VB NP prefix:VB\n", encoding="utf-8")
    (directory / "toy.grammar").write_text(TOY_GRAMMAR, encoding="utf-8")
    write_pooled_embeddings(str(directory / "a.emb"), np.eye(3, dtype=np.float32))
    write_pooled_embeddings(str(directory / "b.emb"), np.eye(3, dtype=np.float32)[::-1])
    learn = ["bpe", "learn", str(directory / "words.txt"), "-o", str(directory / "m.bpe"),
             "--vocab-size", "40"]
    assert main(learn) == 0
    os.remove(directory / "m.bpe.provenance.json")


# Every file a subcommand writes, as ``argv`` with OUT in its place and the
# other outputs sent to ``null``, a symlink to /dev/null.
WRITERS = {
    "transform sentences": f"transform in.trees -o OUT --chain {CHAIN}",
    "transform trees": f"transform in.trees -o OUT --emit trees --chain {CHAIN}",
    "transform --report": f"transform in.trees -o null --stats --report OUT --chain {CHAIN}",
    "stats --report": "stats in.trees other.txt --report OUT",
    "bpe learn": "bpe learn words.txt -o OUT --vocab-size 40",
    "bpe apply": "bpe apply words.txt -o OUT --model m.bpe",
    "mask ids": "mask in.ids -o OUT --labels-output null --vocab-size 40",
    "mask labels": "mask in.ids -o null --labels-output OUT --vocab-size 40",
    "retrieval --report": "retrieval --source a.emb --target b.emb --report OUT",
}
FILE_SIZE_LIMIT = 64  # bytes; every output above is longer


@pytest.mark.parametrize("target", ["full", "directory", "limited"])
@pytest.mark.parametrize("writer", list(WRITERS))
def test_a_failed_write_names_its_output(tmp_path, writer, target):
    """Each written file against /dev/full, a directory, and a regular file
    (``limited``) in a child whose RLIMIT_FSIZE is below the output's size:
    one ``error: cannot write PATH`` line, exit 1, and every earlier file kept."""
    side_files(tmp_path)
    (tmp_path / "null").symlink_to(os.devnull)
    (tmp_path / "full").symlink_to("/dev/full")
    (tmp_path / "directory").mkdir()
    (tmp_path / "limited").write_text("earlier output\n", encoding="utf-8")
    argv = [target if arg == "OUT" else arg for arg in WRITERS[writer].split()]
    before = snapshot(tmp_path)
    result = run_limited(tmp_path, argv, FILE_SIZE_LIMIT if target == "limited" else None)
    reason = {"full": "No space left on device", "directory": "Is a directory",
              "limited": "File too large"}[target]
    assert result.stderr == f"error: cannot write {target}: {reason}\n"
    assert result.returncode == 1
    assert snapshot(tmp_path) == before


def run_limited(directory: Path, argv: list[str], limit: int | None) -> subprocess.CompletedProcess:
    """``treelab ARGV`` in a child run in ``directory``, with RLIMIT_FSIZE ``limit`` if given."""
    child = (
        "import resource, sys\n"
        f"if {limit}: resource.setrlimit(resource.RLIMIT_FSIZE, ({limit},) * 2)\n"
        "from treelab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", child, *argv], cwd=directory, env=env,
                          capture_output=True, text=True, timeout=60)


# Commands whose outputs are shorter than SIDECAR_LIMIT and whose sidecars are
# longer, as ``argv`` with SEED in place of the seed that changes the outputs.
SMALL_WRITERS = {
    "transform": "transform wide.trees -o out.txt --chain word_shuffle --seed SEED",
    "mask": "mask wide.ids -o out.ids --vocab-size 40 --rate 0.5 --seed SEED",
    "synth generate": "synth generate -o out -n 1 --grammar toy.grammar --seed SEED",
}
SIDECAR_LIMIT = 200  # bytes


@pytest.mark.parametrize("writer", list(SMALL_WRITERS))
def test_a_failed_sidecar_write_leaves_no_stale_sidecar(tmp_path, writer):
    """A rerun whose first sidecar cannot be written (RLIMIT_FSIZE) fails with
    one ``error: cannot write`` line, and leaves every output and sidecar of the
    earlier run byte-identical and no temporary file."""
    (tmp_path / "wide.trees").write_text(TREES[2] + "\n", encoding="utf-8")
    (tmp_path / "wide.ids").write_text("7 8 9 10 11 12 13 14 15 16 17 18\n", encoding="utf-8")
    (tmp_path / "toy.grammar").write_text(TOY_GRAMMAR, encoding="utf-8")
    runs = [SMALL_WRITERS[writer].replace("SEED", seed).split() for seed in ("1", "2")]
    assert run_limited(tmp_path, runs[0], None).returncode == 0
    before = snapshot(tmp_path)
    result = run_limited(tmp_path, runs[1], SIDECAR_LIMIT)
    assert result.returncode == 1
    assert result.stderr.startswith("error: cannot write out") and result.stderr.endswith(
        ".provenance.json: File too large\n"
    )
    assert snapshot(tmp_path) == before
    for sidecar in tmp_path.glob("*.provenance.json"):
        output = json.loads(sidecar.read_text(encoding="utf-8"))["output"]
        assert output["sha256"] == sha256(tmp_path / output["path"]), sidecar.name


RUN_CHUNK = pipeline._run_chunk
STOP_LINE = 512  # the first line of the chunk that fails


def dying_chunk(chunk, steps, config):
    """``_run_chunk``, except that the process running it dies from STOP_LINE on."""
    if chunk[-1][0] >= STOP_LINE:
        os._exit(3)
    return RUN_CHUNK(chunk, steps, config)


def interrupted_chunk(chunk, steps, config):
    """``_run_chunk``, except that it is interrupted from STOP_LINE on."""
    if chunk[-1][0] >= STOP_LINE:
        raise KeyboardInterrupt
    return RUN_CHUNK(chunk, steps, config)


@pytest.mark.parametrize("chunk_function, workers, message", [
    (dying_chunk, 2, "error: a worker process died ("),
    (interrupted_chunk, 1, "error: interrupted\n"),
    (interrupted_chunk, 2, "error: interrupted\n"),
])
def test_a_dead_worker_or_an_interrupt_ends_in_one_error_line(
    tmp_path, monkeypatch, capsys, chunk_function, workers, message
):
    """The run stops after it has written earlier chunks to its staged files:
    one ``error:`` line, exit 1 (130 when interrupted), every earlier file as
    it was and no temporary file."""
    (tmp_path / "in.trees").write_text((TREES[0] + "\n") * 2000, encoding="utf-8")
    for name in ("out.txt", "out.txt.provenance.json"):
        (tmp_path / name).write_text(f"earlier {name}\n", encoding="utf-8")
    before = snapshot(tmp_path)
    monkeypatch.setattr(pipeline, "POOL_MIN_S", 0)  # the pool starts before the first chunk
    monkeypatch.setattr(pipeline, "_run_chunk", chunk_function)
    argv = ["transform", str(tmp_path / "in.trees"), "-o", str(tmp_path / "out.txt"),
            "--chain", CHAIN, "--workers", str(workers)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == (130 if "interrupted" in message else 1)
    assert err.startswith(message) and err.count("\n") == 1, err
    assert snapshot(tmp_path) == before


# A run held on a FIFO: its argv, with IN for the input, and one line of its input,
# about 1 KiB, so that HELD_LINES of them overfill the FIFO's 64 KiB buffer.
HELD_RUNS = {
    "transform --workers 1": ("transform IN -o out.txt --chain reorder:83A --workers 1",
                              "(S " + "(NN w) " * 140 + ")\n"),
    "transform --workers 2": ("transform IN -o out.txt --chain reorder:83A --workers 2",
                              "(S " + "(NN w) " * 140 + ")\n"),
    "mask": ("mask IN -o out.ids --vocab-size 40", "7 " * 511 + "8\n"),
}
HELD_LINES = CHUNK_LINES + 128


@pytest.mark.parametrize("command, signum", [
    ("transform --workers 1", signal.SIGTERM),
    ("transform --workers 2", signal.SIGTERM),
    ("mask", signal.SIGTERM),
    ("mask", signal.SIGHUP),
])
def test_sigterm_or_sighup_ends_in_one_error_line_and_no_staged_file(tmp_path, command, signum):
    """A run in a child reads a FIFO whose write end the test keeps open. Once the
    test's ``open`` returns, the run has staged its outputs; the test's write returns
    once the run has read all but 64 KiB, past its first chunk, so ``--workers 2``
    has started its pool. The signal then ends the run: one ``error:`` line, no
    traceback, exit 128 + the signal's number, the earlier outputs byte-identical
    and no temporary file."""
    argv, line = HELD_RUNS[command]
    (tmp_path / "in.txt").write_text(line, encoding="utf-8")
    assert run_limited(tmp_path, argv.replace("IN", "in.txt").split(), None).returncode == 0
    (tmp_path / "pipe").mkdir()
    fifo = tmp_path / "pipe" / "in.fifo"
    os.mkfifo(fifo)
    before = snapshot(tmp_path)
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys\nfrom treelab.cli import main\nsys.exit(main(sys.argv[1:]))\n",
         *argv.replace("IN", str(fifo)).split()],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(line * HELD_LINES)
            fh.flush()
            child.send_signal(signum)
            _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert (child.returncode, err) == (128 + signum, f"error: interrupted by {signum.name}\n")
    assert snapshot(tmp_path) == before


# Each subcommand, and the files it reads.
PROTOCOL = {
    "transform": (f"transform in.trees -o out.txt --chain {CHAIN}", ["in.trees"]),
    "transform --rules": ("transform in.trees -o out.txt --rules rules.txt --chain reorder:83B",
                          ["in.trees", "rules.txt"]),
    "transform --stats --report": (
        f"transform in.trees -o out.txt --tree-output out.trees --emit both --stats "
        f"--report report.json --chain {CHAIN}", ["in.trees"]),
    "stats --report": ("stats in.trees other.txt --report report.json", ["in.trees", "other.txt"]),
    "bpe learn": ("bpe learn words.txt -o out.bpe --vocab-size 40", ["words.txt"]),
    "bpe apply": ("bpe apply words.txt -o out.ids --model m.bpe", ["words.txt", "m.bpe"]),
    "mask --vocab-size": ("mask in.ids -o out.ids --vocab-size 40", ["in.ids"]),
    "mask --model": ("mask in.ids -o out.ids --labels-output out.labels --model m.bpe",
                     ["in.ids", "m.bpe"]),
    "retrieval --report": ("retrieval --source a.emb --target b.emb --report report.json",
                           ["a.emb", "b.emb"]),
    "synth generate": ("synth generate -o out -n 3", []),
    "synth generate --grammar": ("synth generate -o out -n 3 --grammar toy.grammar",
                                 ["toy.grammar"]),
}


@pytest.mark.parametrize("command", list(PROTOCOL))
def test_every_written_file_has_a_sidecar_that_hashes_every_input(
    tmp_path, monkeypatch, capsys, command
):
    side_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv, read = PROTOCOL[command]
    before = set(os.listdir(tmp_path))
    assert main(argv.split()) == 0, capsys.readouterr().err
    written = set(os.listdir(tmp_path)) - before
    sidecars = {name for name in written if name.endswith(".provenance.json")}
    assert sidecars and sidecars == {name + ".provenance.json" for name in written - sidecars}
    for name in written - sidecars:
        doc = json.loads((tmp_path / (name + ".provenance.json")).read_text(encoding="utf-8"))
        assert doc["command"] == command.split(" -")[0]
        assert doc["output"] == {"path": name, "sha256": sha256(tmp_path / name)}
        assert doc["inputs"] == [{"path": path, "sha256": sha256(tmp_path / path)} for path in read]
        # Only a subcommand that has --seed or --workers records a value for it.
        assert doc["seed"] == (0 if doc["command"] in ("transform", "mask", "synth generate")
                               else None)
        assert doc["workers"] == (1 if doc["command"] == "transform" else None)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Each subcommand and each side file it reads, as ``argv`` with SIDE in the side
# file's place, and the whole file SIDE stands for.
SIDE_READS = {
    "transform --rules": ("transform in.trees -o out.txt --rules SIDE --chain reorder:83B",
                          "rules.txt"),
    "transform --config": ("transform in.trees -o out.txt --config SIDE", "transform.conf"),
    "stats --config": ("stats in.trees other.txt --config SIDE", "stats.conf"),
    "bpe learn --config": ("bpe learn words.txt -o out.bpe --config SIDE", "learn.conf"),
    "bpe apply --model": ("bpe apply words.txt -o out.ids --model SIDE", "m.bpe"),
    "mask ids": ("mask SIDE -o out.ids --vocab-size 40", "in.ids"),
    "mask --model": ("mask in.ids -o out.ids --model SIDE", "m.bpe"),
    "mask --config": ("mask in.ids -o out.ids --config SIDE", "mask.conf"),
    "retrieval pooled": ("retrieval --source SIDE --target b.emb --report out.json", "a.emb"),
    "retrieval token": ("retrieval --source a.emb --target SIDE --report out.json", "t.emb"),
    "retrieval --config": ("retrieval --source a.emb --target b.emb --config SIDE",
                           "retrieval.conf"),
    "synth generate --grammar": ("synth generate -o out -n 3 --grammar SIDE", "toy.grammar"),
    "synth generate --config": ("synth generate -o out --config SIDE", "synth.conf"),
}
CONFIGS = {
    "transform.conf": "chain = reorder:83A\nseed = 3\nstats = yes\nreport = out.json\n",
    "stats.conf": "# a report\nreport = out.json\n",
    "learn.conf": "vocab-size = 40\nlanguage = toy\n",
    "mask.conf": "vocab-size = 40\nrate = 0.5\nseed = 2\n",
    "retrieval.conf": "report = out.json\n",
    "synth.conf": "count = 3\ngrammar = toy.grammar\nseed = 4\n",
}
DAMAGE = {
    "empty": lambda data: b"",
    "garbage": lambda data: b"garbage = = (( \x00 7\n",
    "halved": lambda data: data[: len(data) // 2],
    # A text file loses its last line, a binary file its last float.
    "truncated": lambda data: data[: data.rstrip(b"\n").rfind(b"\n") + 1]
    if data.endswith(b"\n") else data[:-4],
}
# Formats that record their own length: every damaged version must fail.
COUNTED = {"bpe apply --model", "mask --model", "retrieval pooled", "retrieval token"}


@pytest.mark.parametrize("damage", list(DAMAGE))
@pytest.mark.parametrize("read", list(SIDE_READS))
def test_a_damaged_side_file_ends_in_one_error_line(tmp_path, monkeypatch, capsys, read, damage):
    """An empty, garbage, halved or truncated side file: exit 0, 1 or 2 and no
    traceback; a failure prints one ``error:`` line and leaves every earlier file
    as it was. A model or embedding file never loads damaged."""
    side_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    special = np.array([True, False, False])
    write_token_embeddings("t.emb", EmbeddingMatrix(
        tuple((np.eye(3, dtype=np.float32) * (i + 1), special) for i in range(3)),
        dim=3,
    ))
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for name in ("out.txt", "out.json", "out.bpe", "out.ids", "out.a.trees"):
        (tmp_path / name).write_text(f"earlier {name}\n", encoding="utf-8")
    argv, side = SIDE_READS[read]
    assert main([side if arg == "SIDE" else arg for arg in argv.split()]) == 0
    for name in os.listdir(tmp_path):
        if name.startswith("out"):
            (tmp_path / name).write_text(f"earlier {name}\n", encoding="utf-8")
    path = tmp_path / side
    path.write_bytes(DAMAGE[damage](path.read_bytes()))
    before = snapshot(tmp_path)
    capsys.readouterr()
    code = main([side if arg == "SIDE" else arg for arg in argv.split()])
    err = capsys.readouterr().err
    assert code in ((1, 2) if read in COUNTED else (0, 1, 2)), err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert snapshot(tmp_path) == before


# Each subcommand's settings: ``(argv, key, value)``. The flag run adds
# ``--KEY VALUE`` (``--KEY`` for a switch, whose value is True); the config run
# adds ``--config FILE`` with ``KEY = VALUE``. Each value binds: the run differs
# from one without it.
SETTINGS = [
    ("transform in.trees -o out.txt --chain word_shuffle", "seed", "3"),
    ("transform in.trees -o out.txt --chain word_shuffle", "workers", "2"),
    ("transform in.trees -o out.txt", "chain", "reorder:83A,word_shuffle"),
    ("transform in.trees -o out.txt --chain constituent_shuffle", "emit", "trees"),
    ("transform in.trees -o out.txt --chain constituent_shuffle", "stats", True),
    ("transform in.trees -o out.txt --chain constituent_shuffle --stats", "report", "r.json"),
    ("transform bad.trees -o out.txt --chain reorder:83A", "skip-bad", True),
    ("transform in.trees -o out.txt --chain reorder:83B", "rules", "rules.txt"),
    ("stats in.trees other.txt", "report", "r.json"),
    ("bpe learn words.txt -o out.bpe", "vocab-size", "20"),
    ("bpe learn words.txt -o out.bpe", "language", "toy"),
    ("mask in.ids -o out.ids --vocab-size 40", "seed", "3"),
    ("mask in.ids -o out.ids --vocab-size 40", "rate", "0.5"),
    ("mask in.ids -o out.ids", "vocab-size", "40"),
    ("retrieval --source a.emb --target b.emb", "report", "r.json"),
    ("synth generate -o out -n 3", "seed", "3"),
    ("synth generate -o out", "count", "3"),
    ("synth generate -o out -n 3", "grammar", "toy.grammar"),
]
REQUIRED = {  # the positional and required arguments of each subcommand
    "transform": ["in.trees", "-o", "out.txt"],
    "stats": ["a.txt", "b.txt"],
    "bpe learn": ["words.txt", "-o", "out.bpe"],
    "mask": ["in.ids", "-o", "out.ids"],
    "retrieval": ["--source", "a.emb", "--target", "b.emb"],
    "synth generate": ["-o", "out"],
}
# Options that are inputs or outputs, each with a subcommand that has it.
FLAG_ONLY = {
    "output": "transform", "tree-output": "transform", "labels-output": "mask", "model": "mask",
    "source": "retrieval", "target": "retrieval", "prefix": "synth generate",
    "languages": "synth generate", "config": "transform",
}


def subcommand(argv: str) -> str:
    words = argv.split()
    return " ".join(words[:2]) if words[0] in ("bpe", "synth") else words[0]


@pytest.mark.parametrize("argv, key, value", SETTINGS, ids=lambda x: str(x).split(" -")[0])
def test_a_config_key_acts_as_its_flag(tmp_path, monkeypatch, capsys, argv, key, value):
    """Same outputs, sidecars and stdout whether a setting comes as a flag or a key."""
    config = tmp_path / "run.conf"
    config.write_text(f"{key} = {'yes' if value is True else value}\n", encoding="utf-8")
    flag = [f"--{key}"] if value is True else [f"--{key}", value]
    runs = []
    for name, extra in (("flag", flag), ("config", ["--config", str(config)])):
        (tmp_path / name).mkdir()
        side_files(tmp_path / name)
        monkeypatch.chdir(tmp_path / name)
        capsys.readouterr()
        code = main([*argv.split(), *extra])
        runs.append((code, *capsys.readouterr(), snapshot(tmp_path / name)))
    assert runs[0][0] == 0, runs[0][2]
    assert runs[1] == runs[0]


@pytest.mark.parametrize("argv, key, value", SETTINGS, ids=lambda x: str(x).split(" -")[0])
def test_every_setting_changes_what_the_run_does(tmp_path, monkeypatch, capsys, argv, key, value):
    """A run with the setting and one without it differ in output bytes, stdout or
    exit status, sidecars aside; ``transform --workers`` by contract changes no byte."""
    flag = [f"--{key}"] if value is True else [f"--{key}", value]
    runs = []
    for name, extra in (("with", flag), ("without", [])):
        (tmp_path / name).mkdir()
        side_files(tmp_path / name)
        monkeypatch.chdir(tmp_path / name)
        capsys.readouterr()
        code = main([*argv.split(), *extra])
        files = {path: data for path, data in snapshot(tmp_path / name).items()
                 if not path.endswith(SIDECAR_SUFFIX)}
        runs.append((code, capsys.readouterr().out, files))
    assert runs[0][0] == 0
    assert (runs[0] == runs[1]) == (subcommand(argv) == "transform" and key == "workers")


@pytest.mark.parametrize("command", sorted({subcommand(argv) for argv, _, _ in SETTINGS}))
def test_each_subcommand_accepts_exactly_its_settings_as_keys(tmp_path, capsys, command):
    """The key set of each subcommand is the set of its settings in SETTINGS."""
    config = tmp_path / "run.conf"
    config.write_text("nonsense = 1\n", encoding="utf-8")
    code = main([*command.split(), *REQUIRED[command], "--config", str(config)])
    err = capsys.readouterr().err
    keys = sorted(key for argv, key, _ in SETTINGS if subcommand(argv) == command)
    assert code == 2
    assert err.endswith(f"unknown key 'nonsense'; this subcommand accepts {', '.join(keys)}\n")


@pytest.mark.parametrize("key", list(FLAG_ONLY))
def test_inputs_and_outputs_are_not_config_keys(tmp_path, capsys, key):
    config = tmp_path / "run.conf"
    config.write_text(f"{key} = x\n", encoding="utf-8")
    command = FLAG_ONLY[key]
    code = main([*command.split(), *REQUIRED[command], "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"unknown key {key!r}" in err


@pytest.mark.parametrize("key, env, default", [("seed", SEED_ENV, 0), ("workers", WORKERS_ENV, 1)])
def test_workers_and_seed_resolve_alike(tmp_path, monkeypatch, key, env, default):
    """Flag over environment over config file over built-in default, as the sidecar records."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(f"{key} = 3\n", encoding="utf-8")
    (tmp_path / "in.trees").write_text(TREES[0] + "\n", encoding="utf-8")

    def recorded(*extra: str) -> int:
        assert main(["transform", "in.trees", "-o", "out", "--chain", "word_shuffle", *extra]) == 0
        return json.loads((tmp_path / "out.provenance.json").read_text())[key]

    assert recorded() == default
    assert recorded("--config", "run.conf") == 3
    monkeypatch.setenv(env, "4")
    assert recorded("--config", "run.conf") == 4
    assert recorded("--config", "run.conf", f"--{key}", "5") == 5


# Option values that no input could make valid, as ``(argv, key, value,
# source)``: each as a flag, a config key and, for workers, TREELAB_WORKERS.
OUT_OF_RANGE = [
    (argv, key, value, source)
    for argv, key, value in [
        *[(argv, key, "0") for argv, key, _ in SETTINGS if key == "workers"],
        ("synth generate -o out", "count", "0"),
        ("mask in.ids -o out.ids --vocab-size 40", "rate", "-1"),
        ("mask in.ids -o out.ids --vocab-size 40", "rate", "1.5"),
        ("mask in.ids -o out.ids", "vocab-size", "0"),
        ("bpe learn words.txt -o out.bpe", "vocab-size", "1"),
    ]
    for source in ("flag", "config", "environment")[: 3 if key == "workers" else 2]
]


@pytest.mark.parametrize("argv, key, value, source", OUT_OF_RANGE,
                         ids=lambda x: str(x).split(" -")[0])
def test_an_out_of_range_value_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, key, value,
                                                source):
    """Exit 2 with the option, key or variable named, and no output or sidecar."""
    side_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(f"{key} = {value}\n", encoding="utf-8")
    extra, origin = {
        "flag": ([f"--{key}", value], f"argument {'-n/' if key == 'count' else ''}--{key}"),
        "config": (["--config", "run.conf"], f"run.conf:1: config key {key!r}"),
        "environment": ([], f"environment variable {WORKERS_ENV}"),
    }[source]
    if source == "environment":
        monkeypatch.setenv(WORKERS_ENV, value)
    before = snapshot(tmp_path)
    capsys.readouterr()
    try:
        code = main([*argv.split(), *extra])
    except SystemExit as exc:  # argparse rejects a flag's value itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {origin}: must be " in err and err.count("error:") == 1, err
    assert "Traceback" not in err
    assert snapshot(tmp_path) == before


def test_one_bad_line_gives_one_error_on_every_path(tmp_path, monkeypatch, capsys):
    """transform, stats and read_treebank scan a line as read, without its newline
    and unstripped, so the byte offset counts from the line's first byte."""
    monkeypatch.chdir(tmp_path)
    Path("bad.trees").write_text("(S (NP a))\n  (S (NP b)\n", encoding="utf-8")
    Path("good.trees").write_text("(S (NP a))\n(S (NP b))\n", encoding="utf-8")
    message = "bad.trees:2: unbalanced brackets: unexpected end of input (byte offset 11)"
    summary = "error: bad.trees: 1 line(s) failed; outputs written"
    assert main(["transform", "bad.trees", "-o", "out.txt", "--chain", "reorder:83A"]) == 1
    assert capsys.readouterr().err == message + "\n" + summary + "\n"
    assert main(["stats", "bad.trees", "good.trees"]) == 1
    assert capsys.readouterr().err == message + "\n" + summary + "\n"
    with pytest.raises(treebank.TreeParseError) as caught:
        list(treebank.read_treebank("bad.trees"))
    assert str(caught.value) == message


def reference_row(text: str, index: int, chain: str) -> tuple[float, float, int]:
    """A ``--stats`` row as ``_run_chunk`` computed it before alignment by
    origin: ``alignment`` of the input tree's yield and the chain's sentence."""
    tree = parse_ptb(text)
    _, sentence = apply_chain(tree, parse_chain(chain), run_streams(SEED)(index))
    perm = alignment(yield_sentence(tree), sentence)
    return inversion_ratio(perm), word_move_distance(perm), perm.n


@pytest.mark.parametrize("chain", STEP_KINDS)
def test_stats_rows_equal_the_alignment_reference(chain):
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()
    config = pipeline.PipelineConfig(
        inputs=(str(FIXTURE),), output="unused", chain=chain, global_seed=SEED, stats=True
    )
    chunk = [(index, (str(FIXTURE), index + 1, text)) for index, text in enumerate(lines)]
    _, _, rows, counts, errors = pipeline._run_chunk(chunk, parse_chain(chain), config)
    assert counts["emitted"] == len(lines) and not errors
    assert rows == [reference_row(text, index, chain) for index, text in enumerate(lines)]


# A chain step that breaks the (surface, origin) multiset of
# "(S (NP (DT the) (NN cat)) (VP (VBD sat)))", whose origins are 0, 1, 2.
BROKEN_STEPS = {
    "drops the last leaf": internal(
        "S", [internal("NP", [leaf("DT", "the", 0), leaf("NN", "cat", 1)])]
    ),
    "drops a middle leaf": internal(
        "S", [internal("NP", [leaf("DT", "the", 0)]), internal("VP", [leaf("VBD", "sat", 2)])]
    ),
    "duplicates a leaf": internal(
        "S",
        [internal("NP", [leaf("DT", "the", 0), leaf("NN", "cat", 1), leaf("NN", "cat", 1)]),
         internal("VP", [leaf("VBD", "sat", 2)])],
    ),
    "renames a leaf": internal(
        "S", [internal("NP", [leaf("DT", "the", 0), leaf("NN", "dog", 1)]),
              internal("VP", [leaf("VBD", "sat", 2)])]
    ),
}


@pytest.mark.parametrize("broken", sorted(BROKEN_STEPS))
def test_a_step_that_breaks_the_multiset_raises_alignment_error(monkeypatch, broken):
    """``constituent_shuffle``, whose loop also runs the ``reorder:83A`` after it,
    is replaced by a step that gives a broken tree."""
    monkeypatch.setattr(pipeline, "constituent_shuffle", lambda tree, rng, **_: BROKEN_STEPS[broken])
    chain = "constituent_shuffle,reorder:83A"
    config = pipeline.PipelineConfig(inputs=("in",), output="unused", chain=chain, stats=True)
    chunk = [(0, ("in", 1, "(S (NP (DT the) (NN cat)) (VP (VBD sat)))"))]
    with pytest.raises(AlignmentError):
        pipeline._run_chunk(chunk, parse_chain(chain), config)


# SHA-256 of (sentence output, tree output) of ``transform english_like.trees
# --seed 5 --chain CHAIN --emit both``, as written before leading reorder steps
# ran inside the scan: one chain with such a step, one of nothing else, and one
# whose reorder step is not leading.
FOLDED_PINNED = {
    CHAIN: ("65bcfefb861f23a21e154712f6209c25104fcedd9a9986fd65df9bd05176a6dc",
            "ba258b0d4a01bfc921610dacb2d5ec16be9d74034b2c123f758ebb9ce44541d0"),
    "reorder:83A,reorder:85A,reorder:87A": (
        "499353ca85e61c62674166cd422671db900cd9fa8ea4825dcf842b447b2dc6fc",
        "add7b86d3b38e4a42be357ef2b961be3c87ea0d4be196048df4c58b0126ae57c"),
    "constituent_shuffle,reorder:83A": (
        "2a14b3900b4b396a79d474e065f9be0cec09b8930810dd0296eae229457432da",
        "af873677b66b4ecfdf3e82e782c73196f39e5881405df222f071f8edae5563ef"),
}


@pytest.mark.parametrize("chain", sorted(FOLDED_PINNED))
def test_reorder_steps_in_the_scan_keep_the_bytes(tmp_path, monkeypatch, capsys, chain):
    """The outputs equal their pins and the whole chain run on each parsed tree."""
    code, _, err = run_in(
        tmp_path / "run", monkeypatch, capsys, "transform", str(FIXTURE), "-o", "s.txt",
        "--tree-output", "t.txt", "--emit", "both", "--seed", "5", "--chain", chain,
    )
    assert code == 0, err
    sentences, trees = [], []
    for index, text in enumerate(FIXTURE.read_text(encoding="utf-8").splitlines()):
        tree, sentence = apply_chain(parse_ptb(text), parse_chain(chain), run_streams(5)(index))
        sentences.append(sentence.text() + "\n")
        trees.append(serialize(tree) + "\n")
    written = [tmp_path / "run" / name for name in ("s.txt", "t.txt")]
    assert [path.read_text(encoding="utf-8") for path in written] == ["".join(sentences), "".join(trees)]
    assert tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in written) == FOLDED_PINNED[chain]


@pytest.mark.parametrize("chain", [CHAIN, "constituent_shuffle,reorder:83A",
                                   "ablate:0.5,reorder:87A,constituent_shuffle,reorder:85A"])
def test_one_writer_walk_and_no_reorder_walk_per_emitted_line_on_the_wsj_chain(tmp_path, monkeypatch,
                                                                              capsys, chain):
    """A leading reorder step runs in the scan, each drawing step in its own splice
    loop and every other reorder step, as a close hook, in the loop before it: no
    ``apply_reorder`` walk runs, and one writer walk gives each tree line and sentence."""
    calls = {"apply_reorder": 0, "write_tree": 0}

    def counting(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counting(transform, "apply_reorder")
    for module in (treebank, pipeline):
        counting(module, "write_tree")
    code, _, err = run_in(
        tmp_path / "run", monkeypatch, capsys, "transform", str(FIXTURE), "-o", "out.sents",
        "--tree-output", "out.trees", "--emit", "both", "--chain", chain, "--workers", "1",
    )
    assert code == 0, err
    sidecar = json.loads((tmp_path / "run" / "out.sents.provenance.json").read_text())
    assert sidecar["counts"]["emitted"] == 50 and calls == {"apply_reorder": 0, "write_tree": 50}


def checked_sentence_row(tokens, leaves, stats):
    """An emitted sentence's text and row by way of checked ``Sentence``s."""
    sentence = Sentence.of_leaves(leaves)
    if not stats:
        return sentence.text(), None
    perm = alignment(sentence_of(tokens), sentence)
    return sentence.text(), (inversion_ratio(perm), word_move_distance(perm), perm.n)


@pytest.mark.parametrize("stats", [False, True], ids=["text", "stats"])
@pytest.mark.parametrize("tokens,leaves,good", [
    ("abc", [("c", 2), ("a", 0), ("b", 1)], {False, True}),
    ("ab", [("a", 0), ("b", 0)], set()),
    ("ab", [("a", -1), ("b", 0)], set()),
    ("ab", [("a", 0), ("b", 5)], set()),
    ("ab", [("a", None), ("b", None)], set()),
    ("ab", [("a", 0), ("b", None)], set()),
    ("ab", [("a", 0), ("x", 1)], {False}),
    ("abc", [("a", 0), ("b", 1)], {False}),
    ("ab", [("a", 0), ("b", 1), ("c", 2)], {False}),
    ("ba", [("a", True), ("b", False)], {False, True}),
    ("a", [("a", 0.0)], set()),
    ("", [], {False, True}),
], ids=["moved", "twice", "negative", "too-large", "none", "mixed", "surface", "fewer", "more",
        "bool", "float", "empty"])
def test_the_one_loop_gives_what_the_checked_path_gives(tokens, leaves, stats, good):
    """Leaves whose origins are a permutation of 0..n-1 (and, with ``stats``, whose
    surfaces are the tokens) give what checked ``Sentence``s and ``alignment`` give:
    the same text and row, or the same exception and message. Any others, origins
    missing or not ints included, are an ``AlignmentError``."""
    def outcome(row_of):
        try:
            return row_of(list(tokens), list(leaves), stats)
        except Exception as exc:  # the exception is what is compared
            return type(exc), str(exc)

    if stats in good:
        assert outcome(pipeline._sentence_row) == outcome(checked_sentence_row)
    else:
        with pytest.raises(AlignmentError, match="not a permutation of the scanned tokens"):
            pipeline._sentence_row(list(tokens), list(leaves), stats)


@pytest.mark.parametrize("chain", [CHAIN, "reorder:83A,word_shuffle"])
def test_one_permutation_check_per_emitted_line(tmp_path, monkeypatch, capsys, chain):
    """The emitted sentence's origins are checked once, by the loop of
    ``_sentence_row`` that also builds ``pi``; the input side, read fresh from
    the parse, needs no check, and the alignment none of its own.
    ``word_shuffle`` permutes the leaves before that one check."""
    calls = []
    real, real_row = treebank.is_permutation, pipeline._sentence_row

    def counting(values):
        calls.append(len(values))
        return real(values)

    def counting_rows(tokens, leaves, stats):
        calls.append(len(leaves))
        return real_row(tokens, leaves, stats)

    monkeypatch.setattr(treebank, "is_permutation", counting)
    monkeypatch.setattr(metrics, "is_permutation", counting)
    monkeypatch.setattr(pipeline, "_sentence_row", counting_rows)
    code, _, err = run_in(
        tmp_path / "run", monkeypatch, capsys,
        "transform", str(FIXTURE), "-o", "out.sents", "--chain", chain, "--stats", "--workers", "1",
    )
    assert code == 0, err
    sidecar = json.loads((tmp_path / "run" / "out.sents.provenance.json").read_text())
    emitted = sidecar["counts"]["emitted"]
    assert emitted == 50 and len(calls) == emitted


# A draw-free chain (leading reorders only) and the lines it sees over and over.
MEMO_CHAIN = "reorder:83A,reorder:87A"
REPEATS = (*TREES, MALFORMED, TREES[0], "", "(())", TREES[1], "  (( ))")


def repeated_corpus(directory) -> list[str]:
    """Two files of REPEATS over and over, so lines repeat inside each chunk and
    across chunk and file boundaries, blank, placeholder and malformed ones too."""
    lines = [REPEATS[i % len(REPEATS)] for i in range(2 * CHUNK_LINES + 40)]
    paths = []
    for n, (start, end) in enumerate([(0, CHUNK_LINES + 5), (CHUNK_LINES + 5, len(lines))]):
        path = directory / f"rep{n}.trees"
        path.write_text("".join(line + "\n" for line in lines[start:end]), encoding="utf-8")
        paths.append(str(path))
    return paths


def reordered_reference(paths: list[str], chain: str):
    """What a draw-free ``transform --emit both --stats`` must give, line by line from
    ``parse_ptb``, ``apply_reorder`` and ``write_tree``: its sentence and tree
    outputs, its stats, its counts and its per-line errors."""
    rules = [step.rule for step in parse_chain(chain)]
    sentences, trees, errors, acc = [], [], [], StatsAccumulator()
    counts = dict(total=0, emitted=0, blank=0, placeholder=0, bad=0)
    for _, path, lineno, text in numbered(paths):
        counts["total"] += 1
        if not text.strip() or text.replace(" ", "") == "(())":
            counts["blank" if not text.strip() else "placeholder"] += 1
            continue
        try:
            original = parse_ptb(text)
        except treebank.TreeParseError as exc:
            counts["bad"] += 1
            errors.append(f"{path}:{lineno}: {exc}")
            continue
        tree = transform.apply_reorder(parse_ptb(text), rules)
        line, leaves = treebank.write_tree(tree, True)
        sentences.append(" ".join(token for token, _ in leaves) + "\n")
        trees.append(line + "\n")
        acc.add(alignment(yield_sentence(original), yield_sentence(tree)))
        counts["emitted"] += 1
    return "".join(sentences), "".join(trees), acc.finalize(), counts, errors


def run_draw_free(directory, monkeypatch, capsys, paths, workers: str):
    code, out, err = run_in(
        directory, monkeypatch, capsys, "transform", *paths, "-o", "out.sents",
        "--tree-output", "out.trees", "--emit", "both", "--stats", "--report", "r.json",
        "--chain", MEMO_CHAIN, "--workers", workers,
    )
    sidecar = json.loads((directory / "out.sents.provenance.json").read_text(encoding="utf-8"))
    return (code, out, err, (directory / "out.sents").read_text(encoding="utf-8"),
            (directory / "out.trees").read_text(encoding="utf-8"),
            json.loads((directory / "r.json").read_text(encoding="utf-8")), sidecar["counts"])


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_draw_free_chain_emits_what_each_line_gives_alone(tmp_path, monkeypatch, capsys, workers):
    """Repeated lines, read from the memo, give the bytes, stats table, report floats
    and counts of the line-by-line reference; each repeated malformed line still has
    its own error with its own line number."""
    monkeypatch.setattr(pipeline, "POOL_MIN_S", 0)  # the pool starts before the first chunk
    paths = repeated_corpus(tmp_path)
    code, out, err, sentences, trees, report, counts = run_draw_free(
        tmp_path / "run", monkeypatch, capsys, paths, workers)
    want_sentences, want_trees, stats, want_counts, errors = reordered_reference(paths, MEMO_CHAIN)
    assert (sentences, trees) == (want_sentences, want_trees)
    assert out == metrics.format_stats_table([(MEMO_CHAIN, stats)]) + "\n"
    # Exact floats, in the report's key order.
    assert list(report.items()) == [("chain", MEMO_CHAIN), *stats._asdict().items()]
    assert counts == want_counts and counts["bad"] > 2 and counts["placeholder"] > 2
    assert code == 1
    files = ", ".join(path for path in paths if any(e.startswith(f"{path}:") for e in errors))
    assert err.splitlines() == [f"skipped {counts['placeholder']} line(s) with no tree", *errors,
                                f"error: {files}: {len(errors)} line(s) failed; outputs written"]
    assert len(set(errors)) == len(errors) == counts["bad"]
    assert pipeline._line_memo.cache_info().currsize == 0  # emptied when the run ends


class CountedPool(ProcessPoolExecutor):
    """A real process pool that records the ``max_workers`` of each one made."""

    made: list[int] = []

    def __init__(self, max_workers: int) -> None:
        super().__init__(max_workers=max_workers)
        CountedPool.made.append(max_workers)


@pytest.mark.parametrize("inline", [1, 2])
@pytest.mark.parametrize("chain", [MEMO_CHAIN, "constituent_shuffle,ablate:0.3:shuffle"])
def test_a_pool_started_after_inline_chunks_writes_what_one_worker_writes(
    tmp_path, monkeypatch, capsys, chain, inline
):
    """The driver runs INLINE chunks itself, then a real pool runs the rest: the
    outputs, stats table, report floats, errors and sidecars (``workers`` aside)
    are those of ``--workers 1``, for a chain that keeps a memo and one that draws."""
    readings: list[None] = []

    def clock() -> float:  # 0 s until the INLINE-th chunk is done, then far past POOL_MIN_S
        readings.append(None)
        return 0.0 if len(readings) <= inline else 1e9

    monkeypatch.setattr(pipeline, "CHUNK_LINES", 16)
    monkeypatch.setattr(pipeline, "process_time", clock)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountedPool)
    CountedPool.made.clear()
    paths = repeated_corpus(tmp_path)
    runs = []
    for workers in ("1", "2"):
        directory = tmp_path / f"w{workers}"
        code, out, err = run_in(
            directory, monkeypatch, capsys, "transform", *paths, "-o", "out.sents",
            "--tree-output", "out.trees", "--emit", "both", "--stats", "--report", "r.json",
            "--seed", str(SEED), "--chain", chain, "--workers", workers,
        )
        runs.append((code, out, err,
                     *((directory / name).read_bytes() for name in ("out.sents", "out.trees", "r.json")),
                     sidecar_without_workers(directory / "out.sents.provenance.json"),
                     sidecar_without_workers(directory / "out.trees.provenance.json")))
    assert runs[1] == runs[0]
    assert len(readings) == inline + 1  # the start, then one reading per chunk run inline
    assert CountedPool.made == [2]


# SHA-256 of (sentence output, tree output) of ``transform rep.trees --emit both
# --seed 11 --chain CHAIN`` over DRAWN_LINES, as written before the line memo.
DRAWN_PINNED = {
    "constituent_shuffle": ("8862e2e08f90368086464986b02a450933089f5173ff04bfb0d645a0a2d1e237",
                            "898b278d6b37a2f27f4a8de03f4fa132d071d97997d6b9a676f03b2428e625eb"),
    "ablate:0.5:shuffle": ("2a1ec8b272a477eda1f872dcc7fff3ab50298db8608f125bb72c2cbba72d65c6",
                           "80e5b0a357377a7d41d99c48310b6924b4569dfa0d5fdb8c4da95ba38cddeadd"),
}
DRAWN_LINES = [TREES[1 + i % 2] for i in range(CHUNK_LINES + 30)]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("chain", sorted(DRAWN_PINNED))
def test_identical_lines_keep_their_own_streams_under_a_chain_that_draws(
    tmp_path, monkeypatch, capsys, chain, workers
):
    monkeypatch.setattr(pipeline, "POOL_MIN_S", 0)  # the pool starts before the first chunk
    (tmp_path / "rep.trees").write_text("".join(line + "\n" for line in DRAWN_LINES), encoding="utf-8")
    code, _, err = run_in(
        tmp_path / "run", monkeypatch, capsys, "transform", str(tmp_path / "rep.trees"),
        "-o", "s.txt", "--tree-output", "t.txt", "--emit", "both", "--seed", str(SEED),
        "--chain", chain, "--workers", workers,
    )
    assert code == 0, err
    written = [tmp_path / "run" / name for name in ("s.txt", "t.txt")]
    sentences = written[0].read_text(encoding="utf-8").splitlines()
    assert sentences == [chained(text, index, chain)[1].text() for index, text in enumerate(DRAWN_LINES)]
    assert len(set(sentences[1::2])) > 1  # one input line, shuffled by each line's own stream
    assert tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in written) == DRAWN_PINNED[chain]


def test_more_distinct_lines_than_the_bound_keep_the_bytes_and_the_bound(tmp_path, monkeypatch, capsys):
    """The memo is emptied when it holds MEMO_LINES lines; lines seen before and after
    that still give the reference bytes."""
    lines = [f"(S (NP (NN n{i})) (VP (VB v) (NP (NN o{i % 97}))))" for i in range(pipeline.MEMO_LINES + 300)]
    lines += lines[-400:]  # 100 dropped when the memo was emptied, 300 still in it
    path = tmp_path / "wide.trees"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    sizes, real = [], pipeline.write_tree

    def measuring(tree, text):
        sizes.append(len(pipeline._line_memo(parse_chain(MEMO_CHAIN), True, True)))
        return real(tree, text)
    monkeypatch.setattr(pipeline, "write_tree", measuring)
    _, out, _, sentences, trees, report, counts = run_draw_free(
        tmp_path / "run", monkeypatch, capsys, [str(path)], "1")
    want_sentences, want_trees, stats, want_counts, _ = reordered_reference([str(path)], MEMO_CHAIN)
    assert (sentences, trees, counts) == (want_sentences, want_trees, want_counts)
    assert list(report.items()) == [("chain", MEMO_CHAIN), *stats._asdict().items()]
    assert max(sizes) == pipeline.MEMO_LINES and len(sizes) == len(lines) - 300


def test_a_draw_free_chain_scans_each_distinct_line_once(tmp_path, monkeypatch, capsys):
    """A repeated tree line is read from the memo; blank, placeholder and malformed
    lines are never kept, so each of those is scanned every time."""
    paths = repeated_corpus(tmp_path)
    scanned, real = {}, pipeline.scan_line

    def counting(text, **kwargs):
        scanned[text] = scanned.get(text, 0) + 1
        return real(text, **kwargs)
    monkeypatch.setattr(pipeline, "scan_line", counting)
    assert run_draw_free(tmp_path / "run", monkeypatch, capsys, paths, "1")[0] == 1
    lines = [text for _, _, _, text in numbered(paths)]
    assert scanned == {text: 1 if text in TREES else lines.count(text) for text in set(lines)}
