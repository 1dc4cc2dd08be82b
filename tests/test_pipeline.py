"""The streaming corpus driver: chunks, file boundaries, worker counts, input errors."""

from __future__ import annotations

import json

import pytest

from treelab import pipeline
from treelab.cli import SEED_ENV, WORKERS_ENV, main
from treelab.metrics import corpus_stats
from treelab.pipeline import CHUNK_LINES, CHUNKS_PER_WORKER, apply_chain, parse_chain, read_lines
from treelab.rng import SeedScheme
from treelab.treebank import parse_ptb, serialize, yield_sentence

CHAIN = "reorder:83A,ablate:0.5:shuffle"
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
    return apply_chain(parse_ptb(text), parse_chain(chain), SeedScheme(SEED, index).stream())


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
        assert [line.split(": ", 1)[0] for line in err_lines[1:]] == [f"{p}:{n}" for p, n in bad]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_report_floats_equal_sequential_corpus_stats(tmp_path, monkeypatch, capsys, workers):
    paths = write_corpus(tmp_path)
    chain = "constituent_shuffle,ablate:0.3:shuffle"
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
    expected = corpus_stats(pairs)
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
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InlinePool)
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
    paths = write_corpus(tmp_path)
    reference = tmp_path / "serial.txt"
    argv = ["transform", *paths, "--chain", CHAIN, "--skip-bad", "-o"]
    assert main([*argv, str(reference)]) == 0
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InlinePool)
    out = tmp_path / "pooled.txt"
    assert main([*argv, str(out), "--workers", "3"]) == 0
    capsys.readouterr()
    (pool,) = InlinePool.made
    assert pool.in_flight == 0
    assert pool.most_in_flight == 3 * CHUNKS_PER_WORKER
    assert out.read_bytes() == reference.read_bytes()


def test_read_lines_numbers_each_file_and_opens_all_first(tmp_path):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_text("one\n\ntwo\n", encoding="utf-8")
    second.write_text("three\nfour", encoding="utf-8")
    assert list(read_lines([str(first), str(second)])) == [
        (str(first), 1, "one"), (str(first), 2, ""), (str(first), 3, "two"),
        (str(second), 1, "three"), (str(second), 2, "four"),
    ]
    with pytest.raises(pipeline.PipelineError, match="cannot read .*missing.txt"):
        read_lines([str(first), str(tmp_path / "missing.txt")])  # before any line is read


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
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xe9")
    assert "Traceback" not in err
