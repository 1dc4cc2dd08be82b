from __future__ import annotations

import collections
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import treelab
import treelab.pipeline as pipeline
import treelab.subword
import treelab.synthlang
from helpers import apply_chain, fifo_holding, write_pooled_embeddings, write_token_embeddings
from treelab.cli import SEED_ENV, WORKERS_ENV, main
from treelab.files import UsageError, read_float, read_int
from treelab.retrieval import EmbeddingMatrix
from treelab.pipeline import (
    ChainError,
    PipelineConfig,
    AblateStep,
    ConstituentShuffleStep,
    ReorderStep,
    WordShuffleStep,
    parse_chain,
)
from treelab.rng import Rng, run_streams
from treelab.subword import BpeModel, load_model
from treelab.transform import BUILTIN_RULES, ReorderRule
from treelab.treebank import parse_ptb, yield_sentence

FIXTURE = Path(__file__).parent / "fixtures" / "english_like.trees"
NESTED = "(S (NP (PRP I)) (VP (VBD read) (NP (CD two) (NNS papers))))"
WITH_PP = "(S (NP (DT the) (NN cat)) (VP (VBD sat) (PP (IN on) (NP (DT the) (NN mat)))))"
WIDE = "(X (A a) (B b) (C c) (D d) (E e) (F f) (G g) (H h) (I i) (J j))"


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    monkeypatch.delenv(WORKERS_ENV, raising=False)


@pytest.fixture()
def run(capsys):
    def invoke(*argv: str) -> tuple[int, str, str]:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects a flag, or a flag's value, itself
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture()
def corpus(tmp_path):
    path = tmp_path / "input.trees"
    path.write_text(NESTED + "\n\n(())\n" + WITH_PP + "\n")
    return path


class TestParseChain:
    def test_each_step_kind(self):
        steps = parse_chain("reorder:83A, constituent_shuffle, ablate:0.5:shuffle, word_shuffle")
        assert steps == (
            ReorderStep(BUILTIN_RULES["83A"]),
            ConstituentShuffleStep(),
            AblateStep(0.5, shuffle_after=True),
            WordShuffleStep(),
        )

    def test_a_step_equals_only_a_step_of_its_own_kind(self):
        steps = parse_chain("reorder:83A, constituent_shuffle, ablate:1, word_shuffle")
        again = parse_chain("reorder:83A, constituent_shuffle, ablate:1, word_shuffle")
        assert hash(steps) == hash(again)
        plain = [(BUILTIN_RULES["83A"],), (True,), (1.0, False), ()]  # each step's fields
        for step, same, fields in zip(steps, again, plain):
            assert step == same and not step != same
            assert step != fields and fields != step and not step == fields and not fields == step
            assert [other == step for other in steps] == [other is step for other in steps]
        # Two kinds whose only fields are equal.
        assert ConstituentShuffleStep(1) != ReorderStep(1)
        assert ReorderStep(1) != ConstituentShuffleStep(1)

    def test_plain_ablate(self):
        assert parse_chain("ablate:0.25") == (AblateStep(0.25, shuffle_after=False),)

    def test_word_shuffle_must_be_last(self):
        with pytest.raises(ChainError, match="final chain step"):
            parse_chain("word_shuffle, reorder:83A")

    def test_empty_chain(self):
        with pytest.raises(ChainError, match="empty"):
            parse_chain(" , ")

    def test_unknown_step(self):
        with pytest.raises(ChainError, match="unknown chain step 'frob'"):
            parse_chain("frob")

    def test_unknown_feature_lists_known(self):
        with pytest.raises(ChainError, match="83A, 85A, 87A"):
            parse_chain("reorder:12Z")

    @pytest.mark.parametrize("bad", ["ablate:x", "ablate:0.5:twice", "ablate:1.5"])
    def test_bad_ablate(self, bad):
        with pytest.raises(ChainError):
            parse_chain(bad)

    def test_extra_rules_extend_builtins(self):
        rule = ReorderRule("QQ", "ZP", "A", "B")
        steps = parse_chain("reorder:QQ", {"QQ": rule})
        assert steps == (ReorderStep(rule),)

    def test_apply_chain_word_shuffle_drops_tree(self):
        tree = parse_ptb(NESTED)
        out_tree, sentence = apply_chain(
            tree, parse_chain("word_shuffle"), run_streams(0)(0)
        )
        assert out_tree is None
        assert sorted(sentence.surfaces()) == sorted(yield_sentence(tree).surfaces())

    def test_pipeline_config_validation(self):
        with pytest.raises(UsageError, match="no input"):
            PipelineConfig(inputs=(), output="o", chain="word_shuffle")
        with pytest.raises(UsageError, match="emit"):
            PipelineConfig(inputs=("i",), output="o", chain="x", emit="pdf")
        with pytest.raises(UsageError, match="workers"):
            PipelineConfig(inputs=("i",), output="o", chain="x", workers=0)


class TestTransformCommand:
    def test_reorder_writes_expected_sentences(self, run, corpus, tmp_path):
        out = tmp_path / "out.txt"
        code, _, err = run("transform", str(corpus), "-o", str(out), "--chain", "reorder:83A")
        assert code == 0
        assert out.read_text() == "I two papers read\nthe cat sat on the mat\n"
        assert "skipped 1 line(s) with no tree" in err

    def test_pp_rule_moves_adposition(self, run, corpus, tmp_path):
        out = tmp_path / "out.txt"
        code, _, _ = run("transform", str(corpus), "-o", str(out), "--chain", "reorder:85A")
        assert code == 0
        assert out.read_text().splitlines()[1] == "the cat sat the mat on"

    def test_provenance_sidecar(self, run, corpus, tmp_path):
        out = tmp_path / "out.txt"
        run("transform", str(corpus), "-o", str(out), "--chain", "reorder:83A", "--seed", "9")
        sidecar = tmp_path / "out.txt.provenance.json"
        doc = json.loads(sidecar.read_text())
        assert doc["command"] == "transform"
        assert doc["seed"] == 9
        assert doc["config"]["chain"] == "reorder:83A"
        assert doc["inputs"][0]["path"] == str(corpus)
        assert len(doc["inputs"][0]["sha256"]) == 64
        assert doc["output"]["path"] == str(out)
        assert doc["counts"] == {
            "total": 4, "emitted": 2, "blank": 1, "placeholder": 1, "bad": 0,
        }
        assert "timestamp" not in json.dumps(doc).lower()

    def test_identical_runs_are_byte_identical(self, run, corpus, tmp_path):
        paths = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            code, _, _ = run(
                "transform", str(corpus), "-o", str(out), "--chain", "word_shuffle",
                "--seed", "3",
            )
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        docs = [
            json.loads((p.parent / (p.name + ".provenance.json")).read_text()) for p in paths
        ]
        assert docs[0]["output"]["sha256"] == docs[1]["output"]["sha256"]

    def test_worker_count_does_not_change_output(self, run, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "POOL_MIN_S", 0)  # the pool starts before the first chunk
        src = tmp_path / "many.trees"
        src.write_text("".join(f"{WIDE}\n" for _ in range(12)))
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.txt"
            code, _, _ = run(
                "transform", str(src), "-o", str(out),
                "--chain", "constituent_shuffle,word_shuffle",
                "--seed", "5", "--workers", workers,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        docs = []
        for out in outputs:
            doc = json.loads((out.parent / (out.name + ".provenance.json")).read_text())
            del doc["workers"]
            del doc["config"]["workers"]
            doc["output"]["path"] = doc["config"]["output"] = "<out>"
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_emit_trees(self, run, corpus, tmp_path):
        out = tmp_path / "out.trees"
        code, _, _ = run(
            "transform", str(corpus), "-o", str(out),
            "--chain", "reorder:83A", "--emit", "trees",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "(S (NP (PRP I)) (VP (NP (CD two) (NNS papers)) (VBD read)))"
        assert parse_ptb(lines[1])

    def test_emit_both(self, run, corpus, tmp_path):
        sent_out, tree_out = tmp_path / "s.txt", tmp_path / "t.trees"
        code, _, _ = run(
            "transform", str(corpus), "-o", str(sent_out),
            "--chain", "reorder:83A", "--emit", "both", "--tree-output", str(tree_out),
        )
        assert code == 0
        assert sent_out.read_text().splitlines()[0] == "I two papers read"
        assert tree_out.read_text().splitlines()[0].startswith("(S")
        assert (tmp_path / "s.txt.provenance.json").exists()
        assert (tmp_path / "t.trees.provenance.json").exists()

    def test_emit_both_needs_tree_output(self, run, corpus, tmp_path):
        code, _, err = run(
            "transform", str(corpus), "-o", str(tmp_path / "o"),
            "--chain", "reorder:83A", "--emit", "both",
        )
        assert code == 2
        assert "tree output" in err

    def test_emit_trees_incompatible_with_word_shuffle(self, run, corpus, tmp_path):
        code, _, err = run(
            "transform", str(corpus), "-o", str(tmp_path / "o"),
            "--chain", "word_shuffle", "--emit", "trees",
        )
        assert code == 2
        assert "cannot emit trees" in err

    def test_malformed_line_fails_without_skip_bad(self, run, tmp_path):
        src = tmp_path / "bad.trees"
        src.write_text(NESTED + "\n(S (NP\n")
        out = tmp_path / "out.txt"
        code, _, err = run("transform", str(src), "-o", str(out), "--chain", "reorder:83A")
        assert code == 1
        assert f"{src}:2:" in err
        assert out.read_text() == "I two papers read\n"  # good lines still emitted

    def test_skip_bad_downgrades_to_warning(self, run, tmp_path):
        src = tmp_path / "bad.trees"
        src.write_text(NESTED + "\n(S (NP\n")
        out = tmp_path / "out.txt"
        code, _, err = run(
            "transform", str(src), "-o", str(out), "--chain", "reorder:83A", "--skip-bad"
        )
        assert code == 0
        assert "skipped 1 malformed line(s)" in err
        assert out.read_text() == "I two papers read\n"

    def test_stats_table_and_report(self, run, corpus, tmp_path):
        out = tmp_path / "out.txt"
        report = tmp_path / "report.json"
        code, stdout, _ = run(
            "transform", str(corpus), "-o", str(out),
            "--chain", "reorder:83A", "--stats", "--report", str(report),
        )
        assert code == 0
        assert "source type" in stdout and "IR (%)" in stdout
        doc = json.loads(report.read_text())
        assert doc["chain"] == "reorder:83A"
        assert doc["sentence_count"] == 2
        assert doc["token_count"] == 10
        # First sentence: one adjacent block swap of sizes 1 and 2 -> 2 of 6
        # pairs inverted; second sentence is untouched by 83A.
        assert doc["mean_inversion_ratio"] == pytest.approx((2 / 6) / 2)

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_report_without_stats_is_usage_error(self, run, corpus, tmp_path, via):
        out, report, config = tmp_path / "o.txt", tmp_path / "r.json", tmp_path / "t.conf"
        config.write_text(f"report = {report}\n")
        extra = ["--report", str(report)] if via == "flag" else ["--config", str(config)]
        argv = ["transform", str(corpus), "-o", str(out), "--chain", "reorder:83A", *extra]
        code, _, err = run(*argv)
        assert code == 2
        assert err == ("error: --report needs --stats\n" if via == "flag"
                       else f"error: {config}:1: config key 'report': --report needs --stats\n")
        assert sorted(os.listdir(tmp_path)) == ["input.trees", "t.conf"]

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("emit", ["sentences", "trees"])
    def test_tree_output_without_emit_both_is_usage_error(self, run, corpus, tmp_path, emit, via):
        out, trees, config = tmp_path / "o.txt", tmp_path / "t.trees", tmp_path / "t.conf"
        config.write_text(f"emit = {emit}\n")
        extra = ["--emit", emit] if via == "flag" else ["--config", str(config)]
        argv = ["transform", str(corpus), "-o", str(out), "--tree-output", str(trees),
                "--chain", "reorder:83A", *extra]
        code, _, err = run(*argv)
        assert code == 2
        assert err == ("error: --tree-output needs --emit both\n" if via == "flag"
                       else f"error: {config}:1: config key 'emit': --tree-output needs --emit both\n")
        assert sorted(os.listdir(tmp_path)) == ["input.trees", "t.conf"]

    def test_missing_chain_is_usage_error(self, run, corpus, tmp_path):
        code, _, err = run("transform", str(corpus), "-o", str(tmp_path / "o"))
        assert code == 2
        assert "chain" in err

    def test_unreadable_input_is_hard_error(self, run, tmp_path):
        code, _, err = run(
            "transform", str(tmp_path / "missing.trees"),
            "-o", str(tmp_path / "o"), "--chain", "reorder:83A",
        )
        assert code == 1
        assert "cannot read" in err

    def test_unreadable_second_input_ends_a_pooled_run_in_one_error_line(self, run, tmp_path):
        """The size of a missing input is unknown, so the pool starts at once, and
        the reader still names the file when it gets there."""
        first, missing = tmp_path / "two.trees", tmp_path / "missing.trees"
        first.write_text(f"{NESTED}\n{WITH_PP}\n")
        code, _, err = run("transform", str(first), str(missing), "-o", str(tmp_path / "o"),
                           "--chain", "reorder:83A", "--workers", "2")
        assert code == 1
        assert err.startswith(f"error: cannot read {missing}: ") and err.count("\n") == 1, err


class TestSeedPrecedence:
    def shuffle(self, run, tmp_path, name, *argv):
        src = tmp_path / "wide.trees"
        src.write_text(WIDE + "\n")
        out = tmp_path / name
        code, _, _ = run(
            "transform", str(src), "-o", str(out), "--chain", "word_shuffle", *argv
        )
        assert code == 0
        return out.read_text()

    def test_flag_beats_environment(self, run, tmp_path, monkeypatch):
        reference = self.shuffle(run, tmp_path, "ref.txt", "--seed", "5")
        monkeypatch.setenv(SEED_ENV, "9")
        assert self.shuffle(run, tmp_path, "got.txt", "--seed", "5") == reference

    def test_environment_beats_config(self, run, tmp_path, monkeypatch):
        reference = self.shuffle(run, tmp_path, "ref.txt", "--seed", "5")
        config = tmp_path / "run.conf"
        config.write_text("seed = 9\n")
        monkeypatch.setenv(SEED_ENV, "5")
        assert self.shuffle(run, tmp_path, "got.txt", "--config", str(config)) == reference

    def test_config_beats_default(self, run, tmp_path):
        reference = self.shuffle(run, tmp_path, "ref.txt", "--seed", "5")
        config = tmp_path / "run.conf"
        config.write_text("# comment\nseed = 5\n")
        assert self.shuffle(run, tmp_path, "got.txt", "--config", str(config)) == reference

    def test_a_flag_equal_to_the_built_in_default_beats_config(self, run, tmp_path):
        reference = self.shuffle(run, tmp_path, "ref.txt", "--seed", "0")
        config = tmp_path / "run.conf"
        config.write_text("seed = 9\n")
        assert self.shuffle(run, tmp_path, "got.txt", "--config", str(config), "--seed", "0") == reference

    def test_seeds_actually_differ(self, run, tmp_path):
        assert self.shuffle(run, tmp_path, "a.txt", "--seed", "5") != self.shuffle(
            run, tmp_path, "b.txt", "--seed", "6"
        )

    def test_chain_from_config_file(self, run, tmp_path):
        src = tmp_path / "in.trees"
        src.write_text(NESTED + "\n")
        config = tmp_path / "run.conf"
        config.write_text("chain = reorder:83A\n")
        out = tmp_path / "out.txt"
        code, _, _ = run("transform", str(src), "-o", str(out), "--config", str(config))
        assert code == 0
        assert out.read_text() == "I two papers read\n"

    def test_a_comment_after_a_value_is_not_part_of_it(self, run, tmp_path, monkeypatch):
        """``#`` starts a comment anywhere on a config line, as in a rules file."""
        monkeypatch.chdir(tmp_path)
        Path("in.trees").write_text(NESTED + "\n")
        Path("t.conf").write_text("chain = reorder:83A  # verb last\nseed = 3  # fixed\nstats = yes\n"
                                  "report = r.json  # the JSON report\n")
        code, _, err = run("transform", "in.trees", "-o", "out.txt", "--config", "t.conf")
        assert code == 0, err
        assert json.loads(Path("r.json").read_text())["chain"] == "reorder:83A"
        assert json.loads(Path("out.txt.provenance.json").read_text())["seed"] == 3
        Path("text.txt").write_text("the cat sat\n")
        Path("b.conf").write_text("language = en  # English\nvocab-size = 30\n")
        code, _, err = run("bpe", "learn", "text.txt", "-o", "m.bpe", "--config", "b.conf")
        assert code == 0, err
        assert load_model("m.bpe").language == "en"
        assert sorted(os.listdir()) == [
            "b.conf", "in.trees", "m.bpe", "m.bpe.provenance.json", "out.txt",
            "out.txt.provenance.json", "r.json", "r.json.provenance.json", "t.conf", "text.txt"]

    @pytest.mark.parametrize("flag, message", [
        ([], "CONF:2: config key 'chain': unknown chain step 'r'; expected reorder:FEATURE, "
             "constituent_shuffle, word_shuffle, or ablate:ALPHA[:shuffle]"),
        (["--chain", "reorder:83B"], "unknown reorder feature '83B'; known: 83A, 85A, 87A"),
    ])
    def test_a_bad_chain_names_its_config_line_unless_a_flag_overrides_it(self, run, tmp_path,
                                                                         flag, message):
        src = tmp_path / "in.trees"
        src.write_text(NESTED + "\n")
        config = tmp_path / "run.conf"
        config.write_text("# chain below\nchain = r\n")
        code, _, err = run("transform", str(src), "-o", str(tmp_path / "o"), "--config",
                           str(config), *flag)
        assert code == 2
        assert err == f"error: {message.replace('CONF', str(config))}\n"
        assert sorted(os.listdir(tmp_path)) == ["in.trees", "run.conf"]

    def test_unknown_config_key_rejected(self, run, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("output = sneaky.txt\n")
        code, _, err = run(
            "transform", "x.trees", "-o", "o.txt", "--chain", "reorder:83A",
            "--config", str(config),
        )
        assert code == 2
        assert "unknown key 'output'" in err

    def test_bad_environment_value(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "many")
        src = tmp_path / "in.trees"
        src.write_text(NESTED + "\n")
        code, _, err = run(
            "transform", str(src), "-o", str(tmp_path / "o"), "--chain", "word_shuffle"
        )
        assert code == 2
        assert "cannot read 'many' as int" in err


class TestStatsCommand:
    def test_identity_comparison(self, run, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_text("a b c d\ne f g\n")
        code, stdout, _ = run("stats", str(path), str(path))
        assert code == 0
        assert "0.00" in stdout

    def test_tree_against_token_lines(self, run, corpus, tmp_path):
        out = tmp_path / "shuffled.txt"
        run("transform", str(corpus), "-o", str(out), "--chain", "word_shuffle", "--seed", "1")
        report = tmp_path / "stats.json"
        code, _, _ = run("stats", str(corpus), str(out), "--report", str(report))
        # The blank/placeholder pair in the original lines up with nothing
        # in the shuffled output, so the comparison fails on line counts.
        assert code == 1

    def test_transform_output_against_its_input(self, run, tmp_path):
        src = tmp_path / "clean.trees"
        src.write_text(NESTED + "\n" + WITH_PP + "\n")
        out = tmp_path / "shuffled.txt"
        run("transform", str(src), "-o", str(out), "--chain", "word_shuffle", "--seed", "1")
        report = tmp_path / "stats.json"
        code, stdout, _ = run("stats", str(src), str(out), "--report", str(report))
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["sentence_count"] == 2
        assert doc["token_count"] == 10
        assert 0.0 <= doc["mean_inversion_ratio"] <= 1.0

    def test_token_mismatch_reported_per_line(self, run, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("x y\np q\n")
        b.write_text("y x\np z\n")
        code, _, err = run("stats", str(a), str(b))
        assert code == 1
        assert f"{b}:2: " in err

    def test_line_count_mismatch(self, run, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("x y\n")
        b.write_text("y x\nq p\n")
        code, _, err = run("stats", str(a), str(b))
        assert code == 1
        assert err == f"{b}:2: {a} has fewer lines\nerror: {b}: 1 line(s) failed; outputs written\n"


def mutate(data: bytes, other: bytes, rnd: random.Random) -> bytes:
    """``data`` after one to three byte flips, truncations, insertions of one of
    ``()\\n\\0\\xff``, or splices onto a suffix of ``other``."""
    for _ in range(rnd.randint(1, 3)):
        at, kind = rnd.randrange(len(data) + 1), rnd.randrange(4)
        if kind == 0 and at < len(data):
            data = data[:at] + bytes([data[at] ^ 1 << rnd.randrange(8)]) + data[at + 1:]
        elif kind == 1:
            data = data[:at]
        elif kind == 2:
            data = data[:at] + bytes([rnd.choice(b"()\n\0\xff")]) + data[at:]
        else:
            data = data[:at] + other[rnd.randrange(len(other) + 1):]
    return data


class TestMutatedInputs:
    RULES = b"VPX VP NP VB prefix:VB\n# swaps 83A back\nNPD NP DT NN prefix:NN\n"

    def test_every_mutant_ends_in_an_exit_status_with_a_reason(self, tmp_path, monkeypatch, capsys):
        """Seeded mutants of a small treebank or of a rules file, through ``transform
        --stats`` and through ``stats`` on either side: each run exits 0, 1 or 2, lets
        no exception out of ``main``, and writes an ``error:`` line that names a file
        when it does not exit 0."""
        rnd = random.Random(23)
        clean = b"".join(FIXTURE.read_bytes().splitlines(keepends=True)[:6])
        monkeypatch.chdir(tmp_path)
        Path("clean.trees").write_bytes(clean)
        commands = (["transform", "in.trees", "-o", "out.sents", "--rules", "extra.rules",
                     "--chain", "reorder:83A,ablate:0.5:shuffle", "--stats"],
                    ["stats", "clean.trees", "in.trees"], ["stats", "in.trees", "clean.trees"])
        exits = collections.Counter()
        for k in range(160):  # one input mutated at a time, so that some runs succeed
            trees, rules = (mutate(clean, self.RULES, rnd), self.RULES) if k % 2 else (
                clean, mutate(self.RULES, clean, rnd))
            Path("in.trees").write_bytes(trees)
            Path("extra.rules").write_bytes(rules)
            for argv in commands:
                try:
                    code = main(argv)
                except (Exception, SystemExit) as exc:
                    pytest.fail(f"{argv[0]} raised {exc!r} on mutant {k}: {trees!r} {rules!r}")
                err = capsys.readouterr().err
                assert code in (0, 1, 2) and (code == 0 or re.search(
                    r"^error: .*(in\.trees|clean\.trees|extra\.rules)", err, re.M)), (argv, k, err)
                exits[argv[0], code] += 1
        assert exits["transform", 0] and exits["transform", 1] and exits["stats", 1], exits

    @staticmethod
    def run_mutants(cases, rnd: random.Random, capsys) -> collections.Counter:
        """Run each ``(mutated file, clean file, file spliced in, command)`` case on
        40 seeded mutants; a report, if any, is ``r.json``. Each run exits 0, 1
        or 2 and lets no exception out of ``main``. One that ends in an ``error:`` line
        leaves every file as it was and names the mutated file, also for a config
        value that reads but does not fit (a chain step, a switch that needs another). Any other failure is ``stats``' per-line
        form: one ``PATH:LINE: reason`` line per bad line, each naming the mutated
        file, after the report and its sidecar are written, then one ``error:`` line
        that names the files of those lines. Returns how often each
        ``(command, exit)`` was seen."""
        exits = collections.Counter()
        for k in range(40):
            for name, clean, other, argv in cases:
                mutant = mutate(Path(clean).read_bytes(), Path(other).read_bytes(), rnd)
                Path(name).write_bytes(mutant)
                for path in Path().glob("r.json*"):
                    path.unlink()
                before = {path: path.read_bytes() for path in Path().iterdir()}
                try:
                    code = main(argv)
                except (Exception, SystemExit) as exc:
                    pytest.fail(f"{argv[0]} raised {exc!r} on mutant {k} of {name}: {mutant!r}")
                err = capsys.readouterr().err
                assert code in (0, 1, 2) and (code == 0 or err.strip()), (argv, k, mutant)
                if err.startswith("error: "):
                    assert name in err, (argv, k, mutant, err)
                    assert {path: path.read_bytes() for path in Path().iterdir()} == before
                elif code:
                    assert argv[0] == "stats" and code == 1, (argv, k, mutant, err)
                    *lines, last = err.splitlines()
                    assert all(re.match(r"\S+:\d+: ", line) and name in line
                               for line in lines), (argv, k, err)
                    files = ", ".join(dict.fromkeys(line.split(":", 1)[0] for line in lines))
                    assert last == f"error: {files}: {len(lines)} line(s) failed; outputs written"
                    assert Path("r.json").exists() and Path("r.json.provenance.json").exists()
                exits[argv[0], code] += 1
        return exits

    def test_every_subword_probe_mutant_ends_in_an_exit_status_naming_the_file(
        self, tmp_path, monkeypatch, capsys
    ):
        """Seeded mutants of a text file (``bpe learn``), a model (``bpe apply``, ``mask``),
        an ids file (``mask``) and an ``EMBTOK01`` or ``EMBPOOL1`` file (``retrieval``),
        through :meth:`run_mutants`."""
        rnd = random.Random(29)
        monkeypatch.chdir(tmp_path)
        Path("clean.txt").write_text("the cat sat\nthe cat ran on the mat\na dog sat\n")
        assert main(["bpe", "learn", "clean.txt", "-o", "clean.bpe", "--vocab-size", "30"]) == 0
        assert main(["bpe", "apply", "clean.txt", "-o", "clean.ids", "--model", "clean.bpe"]) == 0
        vectors = np.random.default_rng(29).normal(size=(4, 3, 2)).astype(np.float32)
        special = np.array([True, False, False])
        write_token_embeddings("clean.emb", EmbeddingMatrix(tuple((v, special) for v in vectors), dim=2))
        write_pooled_embeddings("clean.pool", vectors[:, 1:].mean(axis=1))
        capsys.readouterr()
        exits = self.run_mutants((
            ("in.txt", "clean.txt", "clean.ids", ["bpe", "learn", "in.txt", "-o", "out.bpe"]),
            ("in.bpe", "clean.bpe", "clean.txt",
             ["bpe", "apply", "clean.txt", "-o", "out.ids", "--model", "in.bpe"]),
            ("in.bpe", "clean.bpe", "clean.ids", ["mask", "clean.ids", "-o", "m", "--model", "in.bpe"]),
            ("in.ids", "clean.ids", "clean.bpe", ["mask", "in.ids", "-o", "m", "--model", "clean.bpe"]),
            ("in.emb", "clean.emb", "clean.pool",
             ["retrieval", "--source", "in.emb", "--target", "clean.pool", "--report", "r.json"]),
            ("in.pool", "clean.pool", "clean.emb",
             ["retrieval", "--source", "clean.emb", "--target", "in.pool", "--report", "r.json"]),
        ), rnd, capsys)
        assert all(exits[command, code] for command in ("bpe", "mask", "retrieval")
                   for code in (0, 1)), exits

    # Comments, which a mutant may damage harmlessly, give each file runs that exit 0.
    COMMENT = b"# a comment line that any byte can replace, at no risk to the rest of the file\n"
    GRAMMAR = (COMMENT + b"language a 83A=VO\nlanguage b 83A=OV\nrule S -> NP VP\n" + COMMENT
               + b"rule VP -> VB NP\nrule VP -> VB\nrule NP -> NN\nlex a NN cat dog\n"
               + b"lex a VB sees likes\nlex b NN neko inu\nlex b VB miru suki\n" + COMMENT)

    def test_every_grammar_config_and_token_line_mutant_ends_in_an_exit_status_with_a_reason(
        self, tmp_path, monkeypatch, capsys
    ):
        """Seeded mutants of a grammar (``synth generate``), a config file (``transform``,
        ``mask``) and a token-line file (``stats``, against a clean file and against
        itself), through :meth:`run_mutants`."""
        rnd = random.Random(31)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.delenv(SEED_ENV, raising=False)
        Path("clean.trees").write_bytes(b"".join(FIXTURE.read_bytes().splitlines(keepends=True)[:6]))
        Path("clean.grammar").write_bytes(self.GRAMMAR)
        Path("clean.tconf").write_bytes(self.COMMENT + b"chain = reorder:83A,ablate:0.5:shuffle\n"
                                        + self.COMMENT + b"seed = 3\nstats = true\nemit = sentences\n"
                                        + self.COMMENT)
        Path("clean.mconf").write_bytes(self.COMMENT + b"vocab-size = 40\nrate = 0.3\n"
                                        + self.COMMENT + b"seed = 4\n" + self.COMMENT)
        Path("clean.txt").write_text("the cat sat\nthe cat ran on the mat\na dog sat\n")
        Path("clean.ids").write_text("7 8 9 10\n11 12\n")
        exits = self.run_mutants((
            ("in.grammar", "clean.grammar", "clean.tconf",
             ["synth", "generate", "-o", "syn", "-n", "5", "--grammar", "in.grammar"]),
            ("in.tconf", "clean.tconf", "clean.grammar",
             ["transform", "clean.trees", "-o", "out.sents", "--config", "in.tconf"]),
            ("in.mconf", "clean.mconf", "clean.tconf", ["mask", "clean.ids", "-o", "m", "--config", "in.mconf"]),
            ("in.txt", "clean.txt", "clean.trees", ["stats", "clean.txt", "in.txt", "--report", "r.json"]),
            ("in.txt", "clean.txt", "clean.trees", ["stats", "in.txt", "in.txt", "--report", "r.json"]),
        ), rnd, capsys)
        assert all(exits[command, code] for command, code in (
            ("synth", 0), ("synth", 1), ("transform", 0), ("transform", 2), ("mask", 0),
            ("mask", 2), ("stats", 0), ("stats", 1))), exits


def generated_text(lines: int) -> str:
    """``lines`` seeded lines of 2 to 15 words from 900 words of 1 to 9 letters;
    the word of rank r is drawn with odds that fall with r, as in Zipf's law."""
    rng = Rng(35)
    letters = "etaoinshrdlucmfwypvbgk"
    words = ["".join(letters[rng.randbelow(len(letters))] for _ in range(1 + rng.randbelow(9)))
             for _ in range(900)]
    return "".join(
        " ".join(words[rng.randbelow(1 + rng.randbelow(len(words)))]
                 for _ in range(2 + rng.randbelow(14))) + "\n"
        for _ in range(lines)
    )


class TestSubwordCommands:
    @pytest.fixture()
    def text_file(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("the cat sat\nthe cat ran\nthe dog sat\n")
        return path

    def test_learn_apply_mask_round_trip(self, run, text_file, tmp_path):
        model_path = tmp_path / "model.bpe"
        code, stdout, _ = run(
            "bpe", "learn", str(text_file), "-o", str(model_path), "--vocab-size", "30",
            "--language", "toy",
        )
        assert code == 0
        assert "merges" in stdout
        model = load_model(str(model_path))
        assert model.language == "toy"
        assert (tmp_path / "model.bpe.provenance.json").exists()

        ids_path = tmp_path / "corpus.ids"
        code, _, _ = run(
            "bpe", "apply", str(text_file), "-o", str(ids_path), "--model", str(model_path)
        )
        assert code == 0
        assert len(ids_path.read_text().splitlines()) == 3

        masked_path = tmp_path / "corpus.masked"
        code, _, _ = run(
            "mask", str(ids_path), "-o", str(masked_path), "--model", str(model_path),
            "--seed", "4",
        )
        assert code == 0
        masked_lines = masked_path.read_text().splitlines()
        labels_lines = (tmp_path / "corpus.masked.labels").read_text().splitlines()
        assert len(masked_lines) == len(labels_lines) == 3
        for masked, labels in zip(masked_lines, labels_lines):
            assert len(masked.split()) == len(labels.split())

    def test_mask_model_and_vocab_size_conflict(self, run, text_file, tmp_path):
        code, _, err = run(
            "mask", str(text_file), "-o", str(tmp_path / "o"),
            "--model", "m.bpe", "--vocab-size", "30",
        )
        assert code == 2
        assert "not both" in err

    def test_mask_needs_a_vocabulary(self, run, text_file, tmp_path):
        code, _, err = run("mask", str(text_file), "-o", str(tmp_path / "o"))
        assert code == 2
        assert "--model or --vocab-size" in err

    def test_mask_with_explicit_vocab_size(self, run, tmp_path):
        ids = tmp_path / "plain.ids"
        ids.write_text("5 6 7 8 9 10\n")
        out = tmp_path / "masked.ids"
        code, _, _ = run("mask", str(ids), "-o", str(out), "--vocab-size", "20", "--seed", "1")
        assert code == 0
        assert len(out.read_text().splitlines()) == 1

    # SHA-256 of the ids that bpe apply writes and of the masked ids and labels
    # that mask writes at seeds 0 and 7, recorded before either command wrote
    # its lines through a memo of id text.
    SUBWORD_DIGESTS = {
        "ids": "a8062240947c1df96c81faf76dba55adf35dcd65e7a460ed064038613024782f",
        "masked 0": "18d93fb64798839efbb3dda60ce824f44f75c60eb16bfb53ecd3a5c4f2c7e490",
        "labels 0": "4e5c45a9c7c0737b4c4abc567ae42fe1a712d4b7cf7246d543861b2eee26e979",
        "masked 7": "47d5406c527a632227014a91114f98000859054e1ec98f06f568182ecc1ac78c",
        "labels 7": "0247f28f7f57b070b6068990cc13d291ba6ea197049f85498d8aa5baf3a59004",
    }

    def test_subword_output_bytes_are_pinned(self, run, tmp_path):
        text, extra, model, ids = (tmp_path / name for name in ("gen.txt", "extra.txt", "m.bpe", "gen.ids"))
        text.write_text(generated_text(3000), encoding="utf-8")
        extra.write_text("ñandu tea\n\nøre the tea\n", encoding="utf-8")  # unk ids, an empty line
        assert run("bpe", "learn", str(text), "-o", str(model), "--vocab-size", "600")[0] == 0
        assert run("bpe", "apply", str(text), str(extra), "-o", str(ids), "--model", str(model))[0] == 0
        got = {"ids": hashlib.sha256(ids.read_bytes()).hexdigest()}
        for seed in (0, 7):
            out = tmp_path / f"masked{seed}"
            assert run("mask", str(ids), "-o", str(out), "--model", str(model), "--seed", str(seed))[0] == 0
            got[f"masked {seed}"] = hashlib.sha256(out.read_bytes()).hexdigest()
            got[f"labels {seed}"] = hashlib.sha256(Path(f"{out}.labels").read_bytes()).hexdigest()
        assert got == self.SUBWORD_DIGESTS

    def test_mask_writes_canonical_decimal_ids(self, run, tmp_path):
        ids, out = tmp_path / "odd.ids", tmp_path / "m.ids"
        ids.write_text("007 +3\t8\n 10  0012 \n", encoding="utf-8")
        assert run("mask", str(ids), "-o", str(out), "--vocab-size", "20", "--rate", "0")[0] == 0
        assert out.read_text(encoding="utf-8") == "7 3 8\n10 12\n"
        assert Path(f"{out}.labels").read_text(encoding="utf-8") == "0 0 0\n0 0\n"

    @pytest.mark.parametrize("line, token", [("1_0 \u0663 7", "1_0"), ("7\t+\u0663", "+\u0663"),
                                             ("4 5_", "5_")])
    def test_mask_reads_only_ascii_decimal_ids(self, run, tmp_path, line, token):
        """``int`` takes digit-group underscores and non-ASCII digits; ``mask`` does not."""
        ids, out = tmp_path / "odd.ids", tmp_path / "m.ids"
        ids.write_text("3 4\n" + line + "\n", encoding="utf-8")
        code, _, err = run("mask", str(ids), "-o", str(out), "--vocab-size", "20", "--rate", "0")
        assert (code, err) == (1, f"error: {ids}:2: id {token!r} is not an ASCII decimal integer\n")
        assert not out.exists()

    def test_bpe_apply_bytes_hold_across_memo_clears(self, run, tmp_path, monkeypatch):
        text, model = tmp_path / "gen.txt", tmp_path / "m.bpe"
        text.write_text(generated_text(200), encoding="utf-8")
        assert len(set(text.read_text(encoding="utf-8").split())) > 3
        assert run("bpe", "learn", str(text), "-o", str(model), "--vocab-size", "120")[0] == 0
        assert run("bpe", "apply", str(text), "-o", str(tmp_path / "a.ids"), "--model", str(model))[0] == 0
        monkeypatch.setattr(treelab.subword, "MEMO_WORDS", 3)
        assert run("bpe", "apply", str(text), "-o", str(tmp_path / "b.ids"), "--model", str(model))[0] == 0
        assert (tmp_path / "b.ids").read_bytes() == (tmp_path / "a.ids").read_bytes()

    def test_mask_id_text_memo_stays_within_its_cap(self, run, tmp_path, monkeypatch):
        # At rate 1 a tenth of the ids resample from 2**40 ids, nearly all of
        # them new: the memo of id text is emptied at its cap, whatever the
        # vocabulary or the corpus, and the bytes do not change.
        ids = tmp_path / "in.ids"
        ids.write_text("".join(" ".join(str(5 + (7 * i + j) % 90) for j in range(40)) + "\n"
                               for i in range(50)), encoding="utf-8")
        argv = ("--vocab-size", str(2**40), "--rate", "1", "--seed", "3")
        assert run("mask", str(ids), "-o", str(tmp_path / "a.ids"), *argv)[0] == 0
        sizes = []

        class Recorded(treelab.subword.IdText):
            __slots__ = ()

            def __missing__(self, token_id):
                text = super().__missing__(token_id)
                sizes.append(len(self))
                return text

        monkeypatch.setattr(treelab.subword, "IdText", Recorded)
        monkeypatch.setattr(treelab.subword, "MEMO_IDS", 16)
        assert run("mask", str(ids), "-o", str(tmp_path / "b.ids"), *argv)[0] == 0
        assert max(sizes) == 16 and sizes.count(1) > 1  # filled to the cap, and emptied
        for suffix in ("", ".labels"):
            assert (tmp_path / f"a.ids{suffix}").read_bytes() == (tmp_path / f"b.ids{suffix}").read_bytes()

    @pytest.mark.parametrize("line, bad", [("5 6 999", 999), ("-3 7", -3)])
    @pytest.mark.parametrize("vocabulary", ["model", "vocab-size"])
    def test_mask_rejects_ids_outside_the_vocabulary(self, run, text_file, tmp_path, line, bad,
                                                     vocabulary):
        model_path = tmp_path / "model.bpe"
        assert run("bpe", "learn", str(text_file), "-o", str(model_path), "--vocab-size", "30")[0] == 0
        size = len(load_model(str(model_path)).vocab)
        flags = ["--model", str(model_path)] if vocabulary == "model" else ["--vocab-size", str(size)]
        ids = tmp_path / "bad.ids"
        ids.write_text(f"5 6\n{line}\n")
        out = tmp_path / "masked.ids"
        code, _, err = run("mask", str(ids), "-o", str(out), *flags)
        assert (code, err) == (1, f"error: {ids}:2: id {bad} is outside the vocabulary (0..{size - 1})\n")
        assert not out.exists()

    def test_learn_that_fails_part_way_keeps_the_earlier_model(
        self, run, text_file, tmp_path, monkeypatch
    ):
        model_path = tmp_path / "model.bpe"
        code, _, _ = run("bpe", "learn", str(text_file), "-o", str(model_path), "--vocab-size", "30")
        assert code == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        learn = treelab.subword.bpe_learn

        def unencodable_last_merge(*args):  # a lone surrogate has no UTF-8 form
            model = learn(*args)
            return BpeModel((*model.merges, ("\ud800", "t")), model.vocab, model.language)

        monkeypatch.setattr(treelab.subword, "bpe_learn", unencodable_last_merge)
        code, _, err = run("bpe", "learn", str(text_file), "-o", str(model_path), "--vocab-size", "30")
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_learn_rejects_tiny_vocab(self, run, text_file, tmp_path):
        code, _, err = run(
            "bpe", "learn", str(text_file), "-o", str(tmp_path / "m"), "--vocab-size", "7"
        )
        assert code == 1  # 7 is enough for one character; this text has eleven
        assert err == ("error: vocab_size 7 too small: minimum feasible size is 17 "
                       "(5 specials + end-of-word + 11 characters)\n")


class TestRetrievalCommand:
    def test_self_retrieval_report(self, run, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(6, 4)).astype(np.float32)
        src = tmp_path / "x.emb"
        write_pooled_embeddings(str(src), matrix)
        report = tmp_path / "retrieval.json"
        code, stdout, _ = run(
            "retrieval", "--source", str(src), "--target", str(src),
            "--report", str(report),
        )
        assert code == 0
        assert "top-1 accuracy 1.0000" in stdout
        doc = json.loads(report.read_text())
        assert doc["top1_accuracy"] == 1.0
        assert doc["per_query_nearest"] == list(range(6))
        assert (tmp_path / "retrieval.json.provenance.json").exists()

    def test_unreadable_embedding_file(self, run, tmp_path):
        bad = tmp_path / "bad.emb"
        bad.write_bytes(b"garbage!")
        code, _, err = run("retrieval", "--source", str(bad), "--target", str(bad))
        assert code == 1
        assert "unrecognized" in err


# Escaped symbols, damped recursion, and a cycle X -> Z NN(x), Z -> X IN in
# which Z has no all-preterminal option, so a derivation that reaches the
# depth cap is dropped and sampled again (62 times in 300 pairs at seed 4).
ESCAPED_RECURSIVE_GRAMMAR = """\
language a
language b 83A=OV 85A=Post 87A=NA
rule S -> NP VP : 3
rule S -> X : 2
rule NP -> NP PP : 2
rule NP -> JJ NN(x) : 1
rule NP -> NN(x)
rule PP -> IN NP
rule VP -> VB NP : 2
rule VP -> VB
rule X -> Z NN(x) : 2048
rule X -> NN(x) : 1
rule Z -> X IN
lex a NN(x) cat (dog) a)b x:y
lex a JJ big
lex a IN on under
lex a VB see (run)
lex b NN(x) neko inu ab xy
lex b JJ ookii
lex b IN ue shita
lex b VB miru hashiru
"""

# The demo grammar with a third language, which is object-verb and noun-adjective.
THREE_LANGUAGE_GRAMMAR = treelab.synthlang.DEMO_GRAMMAR_TEXT + """\
language gamma 83A=OV 87A=NA
lex gamma PRP ga gi gu
lex gamma VB ve vi vo vu
lex gamma NN na ne ni no nu
lex gamma JJ ja je ji jo
lex gamma IN ia ie io
"""


class TestSynthCommand:
    def test_generate_demo_corpus(self, run, tmp_path):
        prefix = tmp_path / "demo"
        code, stdout, _ = run("synth", "generate", "-o", str(prefix), "-n", "5", "--seed", "2")
        assert code == 0
        assert "wrote 5 aligned pairs" in stdout
        side_a = (tmp_path / "demo.alpha.trees").read_text().splitlines()
        side_b = (tmp_path / "demo.beta.trees").read_text().splitlines()
        aligns = (tmp_path / "demo.align").read_text().splitlines()
        assert len(side_a) == len(side_b) == len(aligns) == 5
        for name in ("demo.alpha.trees", "demo.beta.trees", "demo.align"):
            assert (tmp_path / (name + ".provenance.json")).exists()

    def test_generate_is_reproducible(self, run, tmp_path):
        for prefix in ("one", "two"):
            code, _, _ = run(
                "synth", "generate", "-o", str(tmp_path / prefix), "-n", "4", "--seed", "11"
            )
            assert code == 0
        assert (tmp_path / "one.alpha.trees").read_bytes() == (
            tmp_path / "two.alpha.trees"
        ).read_bytes()
        assert (tmp_path / "one.align").read_bytes() == (tmp_path / "two.align").read_bytes()

    def test_languages_flag_flips_sides(self, run, tmp_path):
        run("synth", "generate", "-o", str(tmp_path / "fwd"), "-n", "3", "--seed", "7")
        run(
            "synth", "generate", "-o", str(tmp_path / "rev"), "-n", "3", "--seed", "7",
            "--languages", "beta", "alpha",
        )
        assert (tmp_path / "rev.beta.trees").exists()
        assert (tmp_path / "fwd.beta.trees").read_text() == (
            tmp_path / "rev.beta.trees"
        ).read_text()

    def test_grammar_file_and_config_count(self, run, tmp_path):
        grammar = tmp_path / "toy.grammar"
        grammar.write_text(
            "language a 83A=VO\nlanguage b 83A=OV\n"
            "rule S -> NP VP\nrule VP -> VB NP\nrule VP -> VB\nrule NP -> NN\n"
            "lex a NN cat dog\nlex a VB sees likes\n"
            "lex b NN neko inu\nlex b VB miru suki\n"
        )
        config = tmp_path / "synth.conf"
        config.write_text("count = 6\ngrammar = %s\n" % grammar)
        code, stdout, _ = run(
            "synth", "generate", "-o", str(tmp_path / "toy"), "--config", str(config)
        )
        assert code == 0
        assert "wrote 6 aligned pairs" in stdout
        assert len((tmp_path / "toy.a.trees").read_text().splitlines()) == 6

    def test_bad_grammar_file(self, run, tmp_path):
        grammar = tmp_path / "broken.grammar"
        grammar.write_text("language a\nrule S ->\n")
        code, _, err = run("synth", "generate", "-o", str(tmp_path / "x"), "--grammar", str(grammar))
        assert code == 1
        assert "broken.grammar:2" in err

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_a_weight_that_is_not_finite_names_its_line(self, run, tmp_path, weight):
        grammar = tmp_path / "w.grammar"
        grammar.write_text("language a\nlanguage b\nrule S -> NN\nrule S -> JJ : %s\n"
                           "lex a NN n\nlex a JJ j\nlex b NN m\nlex b JJ k\n" % weight)
        code, out, err = run("synth", "generate", "-o", str(tmp_path / "x"), "-n", "5",
                             "--grammar", str(grammar))
        assert (code, out) == (1, "")
        assert err == f"error: {grammar}:4: production S -> JJ: weight must be finite and > 0\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["w.grammar"]

    def test_demo_outputs_are_pinned(self, run, tmp_path):
        code, _, _ = run("synth", "generate", "-o", str(tmp_path / "demo"), "-n", "500", "--seed", "3")
        assert code == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("demo.alpha.trees", "demo.beta.trees", "demo.align")
        }
        assert digests == {
            "demo.alpha.trees": "e5581f71eb53763cc71c91fa14d3cd879126e76895b58c391e347f188486390c",
            "demo.beta.trees": "427178afadfd383ccc3799dc2bab071d52efb1b279e91a971cf4c7f98e5ae7fa",
            "demo.align": "e156622b7a813cfe72fa4095d28b7ff84764d2e7ed68f5535c25802cb27996d5",
        }

    @pytest.mark.parametrize(
        "grammar, languages, digests",
        [
            (ESCAPED_RECURSIVE_GRAMMAR, ("a", "b"), (
                "919a10f740ba0616e9e962b0fcca04d757c7f6cadcb0dc81817db2dd1331b773",
                "e2c8aa31a94a1acf228747efff3db636591eba95b2f770d2542882359406c6ff",
                "05989c1ad2495cc7a9d007d646d9c13f8d1ada9fb5bd32e7348e3f559e1accd5",
            )),
            (THREE_LANGUAGE_GRAMMAR, ("gamma", "alpha"), (
                "6293ca0e3a52c02009b72c9537793528f4c6964ad22135ecfdd06b847f839395",
                "1e08cb42e2a719bca79bbcbd2dac0a1e3a91c284bb4e329c8bd571b45d6ca680",
                "3727faf747c9886e3a08bc0c847f0bd34eb60ffe626bcde52247c6114bd7bd56",
            )),
        ],
    )
    def test_grammar_file_outputs_are_pinned(self, run, tmp_path, grammar, languages, digests):
        path = tmp_path / "pinned.grammar"
        path.write_text(grammar)
        code, _, _ = run("synth", "generate", "-o", str(tmp_path / "out"), "-n", "300", "--seed",
                         "4", "--grammar", str(path), "--languages", *languages)
        assert code == 0
        names = (f"out.{languages[0]}.trees", f"out.{languages[1]}.trees", "out.align")
        assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                     for name in names) == digests

    def test_generate_builds_no_tree(self, run, tmp_path, monkeypatch):
        """Each pair's lines come from the sampling walk: no tree is scanned, yielded or serialized."""
        def forbidden(*args, **kwargs):
            raise AssertionError("synth generate went through a tree")

        for name in ("serialize", "yield_sentence", "scan_ptb"):
            monkeypatch.setattr(treelab.synthlang, name, forbidden, raising=False)
        self.test_demo_outputs_are_pinned(run, tmp_path)

    @pytest.mark.parametrize(
        "extra, status, message",
        [
            (["-n", "0"], 2, "argument -n/--count: must be >= 1, got 0"),
            (["--languages", "alpha", "gamma"], 1,
             "unknown language 'gamma'; grammar has ['alpha', 'beta']"),
            (["--grammar", "UNCLOSEABLE"], 1, "no derivation closed within depth 12 after 20 attempts"),
        ],
    )
    def test_errors_leave_no_output(self, run, tmp_path, extra, status, message):
        grammar = tmp_path / "loop.grammar"
        grammar.write_text("language alpha\nlanguage beta\nrule S -> X\nrule X -> X NN\nlex alpha NN n\nlex beta NN m\n")
        outputs = tmp_path / "outputs"
        outputs.mkdir()
        kept = outputs / "demo.alpha.trees"
        kept.write_text("earlier output\n")
        argv = [str(grammar) if arg == "UNCLOSEABLE" else arg for arg in extra]
        code, _, err = run("synth", "generate", "-o", str(outputs / "demo"), *argv)
        assert code == status
        # argparse prints its usage lines before the error line of a usage error
        assert err == f"error: {message}\n" if status == 1 else err.endswith(f": error: {message}\n")
        assert os.listdir(outputs) == ["demo.alpha.trees"]
        assert kept.read_text() == "earlier output\n"

    @pytest.mark.parametrize("extra, status", [(["-n", "0"], 2), (["--languages", "alpha", "gamma"], 1)])
    def test_count_and_languages_are_checked_before_any_output_opens(self, run, tmp_path, extra,
                                                                     status):
        code, _, err = run("synth", "generate", "-o", str(tmp_path / "missing" / "demo"), *extra)
        assert code == status
        assert "No such file" not in err


@pytest.mark.parametrize("reader", ["ids", "model", "rules", "grammar", "embeddings", "config"])
def test_non_utf8_side_inputs_name_the_file(run, tmp_path, reader):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"caf\xe9\n")
    ids = tmp_path / "good.ids"
    ids.write_text("7 8 9\n")
    trees = tmp_path / "good.trees"
    trees.write_text(NESTED + "\n")
    out = str(tmp_path / "o")
    argv = {
        "ids": ["mask", str(bad), "-o", out, "--vocab-size", "40"],
        "model": ["mask", str(ids), "-o", out, "--model", str(bad)],
        "rules": ["transform", str(trees), "-o", out, "--chain", "reorder:83A", "--rules", str(bad)],
        "grammar": ["synth", "generate", "-o", out, "--grammar", str(bad)],
        "embeddings": ["retrieval", "--source", str(bad), "--target", str(bad)],
        "config": ["mask", str(ids), "-o", out, "--vocab-size", "40", "--config", str(bad)],
    }[reader]
    message = ":1: 'utf-8' codec can't decode byte 0xe9 in position 3: invalid continuation byte"
    if reader == "embeddings":  # a binary file is not decoded; a directory cannot be read
        bad.unlink()
        bad.mkdir()
        message = f": [Errno 21] Is a directory: '{bad}'"
    code, _, err = run(*argv)
    assert code == (2 if reader == "config" else 1)  # a config file is part of the invocation
    assert err == f"error: cannot read {bad}{message}\n"


@pytest.mark.parametrize("reader", ["ids", "model", "rules", "grammar", "config"])
def test_missing_side_inputs_name_the_file(run, tmp_path, reader):
    """Every text input is read by ``files.read_lines``, so each names a missing file alike."""
    missing = tmp_path / "missing.txt"
    ids = tmp_path / "good.ids"
    ids.write_text("7 8 9\n")
    trees = tmp_path / "good.trees"
    trees.write_text(NESTED + "\n")
    out = tmp_path / "o"
    argv = {
        "ids": ["mask", str(missing), "-o", str(out), "--vocab-size", "40"],
        "model": ["mask", str(ids), "-o", str(out), "--model", str(missing)],
        "rules": ["transform", str(trees), "-o", str(out), "--chain", "reorder:83A",
                  "--rules", str(missing)],
        "grammar": ["synth", "generate", "-o", str(out), "--grammar", str(missing)],
        "config": ["mask", str(ids), "-o", str(out), "--vocab-size", "40", "--config", str(missing)],
    }[reader]
    code, _, err = run(*argv)
    assert code == (2 if reader == "config" else 1)  # a config file is part of the invocation
    assert err == f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["environment", "config"])
def test_an_unreadable_default_is_an_error_even_under_a_flag(run, tmp_path, monkeypatch, source):
    """A config or environment value is read even when a flag wins."""
    src = tmp_path / "in.trees"
    src.write_text(NESTED + "\n")
    config = tmp_path / "run.conf"
    config.write_text("seed = many\n" if source == "config" else "")
    monkeypatch.setenv(SEED_ENV, "many" if source == "environment" else "")
    code, _, err = run(
        "transform", str(src), "-o", str(tmp_path / "o"), "--chain", "word_shuffle",
        "--config", str(config), "--seed", "3",
    )
    assert code == 2
    origin = (f"environment variable {SEED_ENV}" if source == "environment"
              else f"{config}:1: config key 'seed'")
    assert err == f"error: {origin}: cannot read 'many' as int\n"
    assert not (tmp_path / "o").exists()


# Each subcommand without --seed or --workers (it draws no random numbers, or runs
# in one process): a run that succeeds among the files below, and what it lacks.
WITHOUT = {
    "stats": ("stats a.txt a.txt", ("seed", "workers")),
    "bpe learn": ("bpe learn a.txt -o out.bpe --vocab-size 20", ("seed", "workers")),
    "bpe apply": ("bpe apply a.txt -o a.ids --model m.bpe", ("seed", "workers")),
    "mask": ("mask in.ids -o out.ids --vocab-size 20", ("workers",)),
    "retrieval": ("retrieval --source a.emb --target a.emb", ("seed", "workers")),
    "synth generate": ("synth generate -o out -n 1", ("workers",)),
}


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, keys) in WITHOUT.items() for key in keys
])
def test_a_setting_that_would_take_no_effect_does_not_exist(run, tmp_path, monkeypatch, command,
                                                            key):
    """Its flag and its config key exit 2, and its environment variable is not read."""
    monkeypatch.chdir(tmp_path)
    Path("a.txt").write_text("the cat sat\n")
    Path("in.ids").write_text("7 8 9\n")
    write_pooled_embeddings("a.emb", np.eye(2, dtype=np.float32))
    assert run("bpe", "learn", "a.txt", "-o", "m.bpe", "--vocab-size", "20")[0] == 0
    argv = WITHOUT[command][0].split()
    assert run(*argv, f"--{key}", "1")[0] == 2
    Path("run.conf").write_text(f"{key} = 1\n")
    code, _, err = run(*argv, "--config", "run.conf")
    assert code == 2
    # ``bpe apply`` has no settings, so no --config either.
    assert ("unrecognized arguments: --config" if command == "bpe apply"
            else f"unknown key {key!r}") in err
    monkeypatch.setenv(SEED_ENV if key == "seed" else WORKERS_ENV, "x")
    code, _, err = run(*argv)
    assert code == 0, err


@pytest.mark.parametrize("argv", [
    "transform in.trees -o out --chain word_shuffle",
    *(argv for argv, _ in WITHOUT.values()),
])
def test_an_unknown_option_is_reported_with_the_subcommands_usage(run, tmp_path, monkeypatch,
                                                                  argv):
    """Not the top-level ``usage: treelab [-h] [--version] COMMAND ...``."""
    monkeypatch.chdir(tmp_path)
    command = " ".join(word for word in argv.split()[:2] if word.isalpha())
    code, out, err = run(*argv.split(), "--bogus")
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: treelab {command} "), err
    assert err.endswith(f"treelab {command}: error: unrecognized arguments: --bogus\n"), err
    assert os.listdir() == []


# A setting from a config file that fails with another setting, or one that a
# config file lacks: the error names the file, and the key's line where there is one.
CONFIG_COMBINATIONS = {
    "vocab-size and --model": (
        "vocab-size = 30\n", "mask in.ids -o o --model m.bpe",
        "CONF:1: config key 'vocab-size': give either --model or --vocab-size, not both"),
    "no vocabulary": ("seed = 3\n", "mask in.ids -o o", "CONF: mask needs --model or --vocab-size"),
    "an id outside vocab-size": (
        "vocab-size = 8\n", "mask in.ids -o o",
        "CONF:1: config key 'vocab-size': in.ids:1: id 8 is outside the vocabulary (0..7)"),
    "emit both": ("chain = reorder:83A\nemit = both\n", "transform in.trees -o o",
                  "CONF:2: config key 'emit': --emit both needs a separate tree output path"),
    # Both settings from the file: the error names the first it lists, emit.
    "trees after word_shuffle": (
        "chain = word_shuffle\nemit = trees\n", "transform in.trees -o o",
        "CONF:2: config key 'emit': cannot emit trees: the chain ends in word_shuffle"),
    "trees after a config word_shuffle": (
        "chain = word_shuffle\n", "transform in.trees -o o --emit trees",
        "CONF:1: config key 'chain': cannot emit trees: the chain ends in word_shuffle"),
    "no chain": ("seed = 3\n", "transform in.trees -o o",
                 "CONF: transform needs a chain: --chain or a config-file 'chain' entry"),
    "a choice under its flag": (
        "emit = all\n", "transform in.trees -o o --chain reorder:83A --emit trees",
        "CONF:1: config key 'emit': invalid choice: 'all' (choose from 'sentences', 'trees', 'both')"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_COMBINATIONS))
def test_a_config_setting_that_does_not_fit_names_the_config_file(run, tmp_path, monkeypatch, case):
    config_text, argv, message = CONFIG_COMBINATIONS[case]
    monkeypatch.chdir(tmp_path)
    Path("in.ids").write_text("7 8 9\n")
    Path("in.trees").write_text(NESTED + "\n")
    Path("run.conf").write_text(config_text)
    before = sorted(os.listdir())
    code, out, err = run(*argv.split(), "--config", "run.conf")
    assert (code, out) == (1 if "outside" in message else 2, "")
    assert err == f"error: {message.replace('CONF', 'run.conf')}\n"
    assert sorted(os.listdir()) == before


@pytest.mark.parametrize("argv, message", [
    ("mask in.ids -o o --model m.bpe --vocab-size 30", "give either --model or --vocab-size, not both"),
    ("mask in.ids -o o", "mask needs --model or --vocab-size"),
    ("transform in.trees -o o --chain reorder:83A --emit both",
     "--emit both needs a separate tree output path"),
    ("transform in.trees -o o", "transform needs a chain: --chain or a config-file 'chain' entry"),
    ("transform in.trees -o o --chain word_shuffle --emit trees",
     "cannot emit trees: the chain ends in word_shuffle"),
])
def test_without_a_config_file_the_same_errors_name_none(run, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    Path("in.ids").write_text("7 8 9\n")
    Path("in.trees").write_text(NESTED + "\n")
    assert run(*argv.split()) == (2, "", f"error: {message}\n")


def test_a_config_file_that_did_not_set_the_value_is_not_named(run, tmp_path, monkeypatch):
    """The vocabulary size comes from the model, so the config file, which sets
    only the seed, neither gave it nor lacks it."""
    monkeypatch.chdir(tmp_path)
    Path("a.txt").write_text("the cat sat\n")
    assert run("bpe", "learn", "a.txt", "-o", "m.bpe", "--vocab-size", "20")[0] == 0
    Path("in.ids").write_text("999\n")
    Path("m.conf").write_text("seed = 3\n")
    assert run("mask", "in.ids", "-o", "mo", "--model", "m.bpe", "--config", "m.conf") == (
        1, "", "error: in.ids:1: id 999 is outside the vocabulary (0..12)\n")


def test_a_flag_equal_to_the_built_in_default_is_not_credited_to_the_config_file(
        run, tmp_path, monkeypatch):
    """``--emit sentences`` is both the flag and the built-in default: the error is the flag's."""
    monkeypatch.chdir(tmp_path)
    Path("in.trees").write_text(NESTED + "\n")
    Path("run.conf").write_text("emit = both\n")
    assert run("transform", "in.trees", "-o", "out.txt", "--config", "run.conf", "--emit",
               "sentences", "--tree-output", "t.trees", "--chain", "reorder:83A") == (
        2, "", "error: --tree-output needs --emit both\n")
    assert sorted(os.listdir()) == ["in.trees", "run.conf"]


# Python's grammar of what ``int`` and ``float`` read, less ``_``, over ASCII:
# ``\s`` is the ASCII whitespace they strip.
NUMBER_GRAMMARS = {
    read_int: (int, r"\s*[+-]?[0-9]+\s*"),
    read_float: (float, r"\s*[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?|inf(inity)?|nan)\s*"),
}
# What ``int`` and ``float`` also take: the digit-group underscore, and other scripts'
# digits and blanks.
NOT_ASCII_DECIMAL = "_\u0663\u0660\uff17\u2007\u3000"
# What a number is made of, and may be mistaken for.
NUMBER_CHARS = "0123456789+-.eE \t\ninfatyINF\u00b2x" + NOT_ASCII_DECIMAL


@pytest.mark.parametrize("read", NUMBER_GRAMMARS, ids=["int", "float"])
@given(data=st.data())
def test_a_number_is_exactly_ascii_decimal(read, data):
    """Each reader takes exactly its grammar, and reads it as ``int`` or ``float`` does;
    any other text raises a ``ValueError`` that names it."""
    kind, grammar = NUMBER_GRAMMARS[read]
    pattern = re.compile(grammar, re.ASCII | re.IGNORECASE)
    valid = st.from_regex(pattern, fullmatch=True)
    spoiled = st.tuples(valid, st.sampled_from(NOT_ASCII_DECIMAL), st.integers(0, 9)).map(
        lambda drawn: drawn[0][:drawn[2]] + drawn[1] + drawn[0][drawn[2]:])
    text = data.draw(st.one_of(valid, spoiled, st.text(NUMBER_CHARS, max_size=8)))
    assert read.__name__ == kind.__name__  # argparse's "invalid int value", _convert's "as int"
    if pattern.fullmatch(text):
        assert repr(read(text)) == repr(kind(text))
    else:
        with pytest.raises(ValueError, match=re.escape(f"{text!r} is not an ASCII decimal")):
            read(text)


GRAMMAR_WEIGHT = ("language a\nlanguage b\nrule S -> NN\nrule S -> JJ : 1_0\n"
                  "lex a NN n\nlex a JJ j\nlex b NN m\nlex b JJ k\n")
# Per place a number is read: what it is given, and the error line, with its exit
# status, that names where it came from; USAGE stands for ``treelab SUBCOMMAND``.
NUMBER_SITES = {
    "seed flag": ("synth generate -o x --seed 1_0", {},
                  2, "USAGE: error: argument --seed: invalid int value: '1_0'"),
    "seed flag, other digits": ("synth generate -o x --seed \u0661\u0660", {},
                                2, "USAGE: error: argument --seed: invalid int value: '\u0661\u0660'"),
    "seed variable": ("synth generate -o x", {SEED_ENV: "1_0"},
                      2, f"error: environment variable {SEED_ENV}: cannot read '1_0' as int"),
    "seed key": ("synth generate -o x --config n.conf", {"n.conf": "seed = 1_0\n"},
                 2, "error: n.conf:1: config key 'seed': cannot read '1_0' as int"),
    "vocab-size flag": ("bpe learn a.txt -o x --vocab-size 4_0", {},
                        2, "USAGE: error: argument --vocab-size: invalid int value: '4_0'"),
    "ablate step": ("transform in.trees -o x --chain ablate:0_5", {},
                    2, "error: bad ablate step 'ablate:0_5': '0_5' is not a number"),
    "ablate step, other digits": (
        "transform in.trees -o x --chain ablate:\u0660.\u0665", {},
        2, "error: bad ablate step 'ablate:\u0660.\u0665': '\u0660.\u0665' is not a number"),
    "grammar weight": ("synth generate -o x --grammar g.grammar", {"g.grammar": GRAMMAR_WEIGHT},
                       1, "error: g.grammar:4: bad weight '1_0'"),
    "model header": ("bpe apply a.txt -o x --model m.bpe", {"m.bpe": "alphabet 0_1"},
                     1, "error: malformed model file m.bpe: line 5: '0_1' is not an ASCII "
                        "decimal integer"),
}


@pytest.mark.parametrize("case", NUMBER_SITES)
def test_a_number_that_is_not_ascii_decimal_is_refused_where_it_is_read(run, tmp_path,
                                                                         monkeypatch, case):
    """``1_0`` and other scripts' digits, which ``int`` and ``float`` take, end the run
    with one ``error:`` line naming the flag, variable, key, chain step or file, and write
    nothing."""
    argv, given, code, message = NUMBER_SITES[case]
    monkeypatch.chdir(tmp_path)
    Path("a.txt").write_text("ab\n")
    Path("in.trees").write_text(NESTED + "\n")
    assert run("bpe", "learn", "a.txt", "-o", "m.bpe", "--vocab-size", "20")[0] == 0
    for name, text in given.items():
        if name == SEED_ENV:
            monkeypatch.setenv(name, text)
        elif name == "m.bpe":  # one header line spoiled
            Path(name).write_text(Path(name).read_text().replace("alphabet 2", text))
        else:
            Path(name).write_text(text, encoding="utf-8")
    before = sorted(os.listdir())
    got_code, out, err = run(*argv.split())
    usage = "treelab " + " ".join(argv.split()[:2 if argv.startswith(("synth", "bpe")) else 1])
    assert (got_code, out) == (code, "")
    assert err.endswith(message.replace("USAGE", usage) + "\n") and err.count("error:") == 1
    assert sorted(os.listdir()) == before


def test_a_number_with_a_sign_and_leading_zeros_reads_as_its_value(run, tmp_path, monkeypatch):
    """``--seed +007`` writes every byte, sidecars included, that ``--seed 7`` writes."""
    written = []
    for seed in ("+007", "7"):
        (tmp_path / seed).mkdir()
        monkeypatch.chdir(tmp_path / seed)
        assert run("synth", "generate", "-o", "d", "-n", "20", "--seed", seed)[0] == 0
        written.append({path.name: path.read_bytes() for path in Path().iterdir()})
    assert written[0] == written[1] and len(written[0]) == 6


LOADED_PROBE = """
import json, sys
if sys.argv[1:] == ["import", "treelab.files"]:
    import treelab.files
elif sys.argv[1:]:
    from treelab.cli import main
    assert main(sys.argv[1:]) == 0
else:
    import treelab
print(json.dumps(sorted({m if m.startswith("treelab") else m.partition(".")[0]
                         for m in sys.modules
                         if m.partition(".")[0] in ("treelab", "numpy", "multiprocessing",
                                                    "dataclasses")})))
"""
CLI_MODULES = {"treelab", "treelab.cli", "treelab.files", "treelab.version"}
TREE_MODULES = CLI_MODULES | {"treelab.metrics", "treelab.pipeline", "treelab.rng",
                              "treelab.transform", "treelab.treebank"}


def loaded_modules(*argv: object) -> set[str]:
    """The ``treelab`` modules, numpy, multiprocessing and dataclasses that a fresh interpreter
    holds after ``treelab ARGV``, after ``import treelab`` when ARGV is empty, or
    after ``import treelab.files`` when ARGV is ``import treelab.files``."""
    src = str(Path(treelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", LOADED_PROBE, *map(str, argv)],
                            env=env, capture_output=True, text=True, check=True)
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    # A subcommand pays the import time of the layers it runs and no others: the
    # tree layers only for transform, stats and synth generate, numpy only for
    # retrieval, multiprocessing only for a pool, and dataclasses, with the inspect
    # and ast it loads, only for pipeline.PipelineConfig, on transform and stats.
    trees, one_tree, text = tmp_path / "in.trees", tmp_path / "one.trees", tmp_path / "in.txt"
    trees.write_text(NESTED + "\n" + WITH_PP + "\n", encoding="utf-8")
    one_tree.write_text(NESTED + "\n", encoding="utf-8")
    text.write_text("the cat sat\nthe cat ran\nthe dog sat\n", encoding="utf-8")
    out, model, ids, emb = (tmp_path / name for name in ("out.txt", "m.bpe", "in.ids", "x.emb"))
    write_pooled_embeddings(str(emb), np.eye(3, dtype=np.float32))
    transform = ("transform", "-o", out, "--chain", "reorder:83A,constituent_shuffle")

    assert loaded_modules() == {"treelab", "treelab.version"}
    assert loaded_modules("import", "treelab.files") == {"treelab", "treelab.files", "treelab.version"}
    with_pipeline = TREE_MODULES | {"dataclasses"}
    assert loaded_modules(*transform, trees) == with_pipeline
    assert loaded_modules(*transform, one_tree, "--workers", "2") == with_pipeline
    # Two lines of a regular file run in the driver; a pipe's unknown size starts the pool.
    assert loaded_modules(*transform, trees, "--workers", "2") == with_pipeline
    with fifo_holding(tmp_path / "in.fifo", trees.read_bytes()) as fifo:
        pooled = with_pipeline | {"multiprocessing"}
        assert loaded_modules(*transform, fifo, "--workers", "2") == pooled
    assert loaded_modules("stats", trees, out) == with_pipeline
    with_subword = CLI_MODULES | {"treelab.rng", "treelab.subword"}
    assert loaded_modules("bpe", "learn", text, "-o", model, "--vocab-size", "30") == with_subword
    assert loaded_modules("bpe", "apply", text, "-o", ids, "--model", model) == with_subword
    assert loaded_modules("mask", ids, "-o", tmp_path / "m.ids", "--model", model) == with_subword
    assert loaded_modules("synth", "generate", "-o", tmp_path / "s", "-n", "3") == (
        CLI_MODULES | {"treelab.rng", "treelab.synthlang", "treelab.treebank"}
    )
    assert loaded_modules("retrieval", "--source", emb, "--target", emb) == (
        CLI_MODULES | {"treelab.retrieval", "numpy"}
    )


#: ``tests/fixtures/cli_help.txt``: per invocation, a ``$ treelab ARGS  # exit N, STREAM``
#: line, then the exact text that STREAM gets; the other stream gets nothing.
_HELP_PARTS = re.split(r"^(\$ treelab.*)\n", (FIXTURE.parent / "cli_help.txt").read_text(
    encoding="utf-8"), flags=re.M)[1:]
HELP_TEXTS = list(zip(_HELP_PARTS[::2], _HELP_PARTS[1::2]))


@pytest.mark.parametrize("head, text", HELP_TEXTS, ids=[head for head, _ in HELP_TEXTS])
def test_help_usage_and_parse_errors_are_pinned(run, monkeypatch, head, text):
    """Every ``--help``, the top-level one and the ``bpe`` and ``synth`` groups'
    included, and the usage errors argparse prints, byte for byte."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
    argv, code, stream = re.fullmatch(r"\$ treelab ?(.*)  # exit (\d), (\w+)", head).groups()
    got_code, out, err = run(*argv.split())
    assert (got_code, out, err) == ((int(code), text, "") if stream == "stdout"
                                    else (int(code), "", text))


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as wrapper:
            main(["--version"])
        assert wrapper.value.code == 0
        assert "treelab" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as wrapper:
            main(["warp"])
        assert wrapper.value.code == 2
