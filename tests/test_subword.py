from __future__ import annotations

import collections
import hashlib
import io
import math
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from helpers import seed_drawing, weighted_index
from treelab import subword
from treelab.rng import Rng, run_streams
from treelab.subword import (
    END_OF_WORD,
    IGNORE_LABEL,
    MASK_ID,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    BpeError,
    BpeModel,
    MaskingConfig,
    bpe_apply,
    bpe_apply_line,
    bpe_decode,
    bpe_learn,
    dump_model,
    load_model,
    mask_tokens,
    read_ids_file,
    save_model,
)


def reference_merges(corpus: list[str], vocab_size: int) -> list[tuple[str, str]]:
    """Plain most-frequent-pair BPE, recounting everything each round.

    Slow but obviously correct; the production learner updates counts
    incrementally and must agree with this exactly.
    """
    word_freq = collections.Counter(w for line in corpus for w in line.split())
    sequences = {w: list(w) for w in word_freq}
    vocab = set(SPECIAL_TOKENS) | {END_OF_WORD} | {c for w in word_freq for c in w}
    merges: list[tuple[str, str]] = []
    while len(vocab) < vocab_size:
        counts: collections.Counter = collections.Counter()
        for word, freq in word_freq.items():
            seq = sequences[word]
            for pair in zip(seq, seq[1:]):
                counts[pair] += freq
        if not counts or max(counts.values()) < 2:
            break
        best_count = max(counts.values())
        best = min(p for p, c in counts.items() if c == best_count)
        merges.append(best)
        vocab.add(best[0] + best[1])
        for word, seq in sequences.items():
            sequences[word] = reference_fuse(seq, best)
    return merges


def reference_fuse(seq: list[str], pair: tuple[str, str]) -> list[str]:
    """``seq`` with each occurrence of ``pair`` merged, left to right."""
    out, i = [], 0
    while i < len(seq):
        if i + 1 < len(seq) and (seq[i], seq[i + 1]) == pair:
            out.append(seq[i] + seq[i + 1])
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


# Two letters give long runs and repeats ("abab", "aaaa"), where merge sites touch.
corpora = st.sampled_from(["ab", "abcde"]).flatmap(lambda letters: st.lists(
    st.lists(st.text(letters, min_size=1, max_size=12), min_size=1, max_size=8).map(" ".join),
    min_size=1,
    max_size=6,
))


def zipf_corpus(seed: int, words: int) -> list[str]:
    """``words`` distinct words over 16 skewed letters; the word of rank r
    occurs 1 + 600 // r times."""
    rng = Rng(seed)
    letters = "etaoinshrdlucmfw"
    weights = [1.0 / (i + 1) for i in range(len(letters))]
    vocab = ["".join(letters[weighted_index(rng, weights)] for _ in range(2 + rng.randbelow(9)))
             for _ in range(words)]
    return [" ".join([word] * (1 + 600 // rank)) for rank, word in enumerate(vocab, start=1)]


def pair_counts(syms: list[str]) -> collections.Counter:
    return collections.Counter(zip(syms, syms[1:]))


def check_merge_sites(syms: list[str], pair: tuple[str, str]) -> None:
    """``_merge_sites`` fuses a word listed for ``pair`` as the reference does, and
    its count changes are a recount's, apart from the merged pair's own count."""
    words, where = [list(syms)], collections.defaultdict(set, {pair: {0}})
    delta = subword._merge_sites(pair, words, [3], where)
    fused = reference_fuse(syms, pair)
    assert words == [fused]
    change = pair_counts(fused)
    change.subtract(pair_counts(syms))
    del change[pair]  # the learner sets the merged pair's own count to 0
    delta.pop(pair, None)
    assert {p: c for p, c in delta.items() if c} == {p: 3 * c for p, c in change.items() if c}
    # Each pair the merge adds lists the word (a later site may leave stale entries).
    assert {p for p, c in change.items() if c > 0} <= set(where)
    assert all(listed == {0} for listed in where.values())


class TestLearn:
    def test_two_merge_example(self):
        model = bpe_learn(["ab ab ab cd cd"], vocab_size=13)
        assert model.merges == (("a", "b"), ("c", "d"))

    def test_boundary_marker_never_merged(self):
        model = bpe_learn(["ab ab ab"], vocab_size=100)
        assert model.merges == (("a", "b"),)
        assert all(END_OF_WORD not in pair for pair in model.merges)

    def test_lexicographic_tie_break(self):
        model = bpe_learn(["ba ba dc dc"], vocab_size=100)
        assert model.merges == (("b", "a"), ("d", "c"))

    def test_singleton_pairs_not_merged(self):
        model = bpe_learn(["ab cd ef"], vocab_size=100)
        assert model.merges == ()

    def test_vocab_size_budget(self):
        # 5 specials + end-of-word + {a, b} = 8; one extra slot = one merge.
        assert bpe_learn(["ab ab ab"], vocab_size=8).merges == ()
        assert len(bpe_learn(["ab ab ab"], vocab_size=9).merges) == 1

    def test_too_small_vocab_names_minimum(self):
        with pytest.raises(BpeError, match="minimum feasible size is 8"):
            bpe_learn(["ab ab"], vocab_size=7)

    def test_empty_corpus(self):
        with pytest.raises(BpeError, match="empty"):
            bpe_learn(["   ", ""], vocab_size=100)

    def test_id_layout(self):
        model = bpe_learn(["ab ab ab cd cd"], vocab_size=13)
        assert [model.vocab[t] for t in SPECIAL_TOKENS] == [0, 1, 2, 3, 4]
        assert model.vocab[END_OF_WORD] == 5
        assert [model.vocab[c] for c in "abcd"] == [6, 7, 8, 9]
        assert model.vocab["ab"] == 10 and model.vocab["cd"] == 11
        assert sorted(model.vocab.values()) == list(range(len(model.vocab)))

    def test_line_order_irrelevant(self):
        a = bpe_learn(["ab ab", "ab cd cd"], vocab_size=20)
        b = bpe_learn(["cd ab cd", "ab ab"], vocab_size=20)
        assert a.merges == b.merges and a.vocab == b.vocab

    @pytest.mark.parametrize("corpus", [
        ["abab abab abab"],
        ["ababab ababab", "abab"],
        ["abababab ab ab", "ba ba"],
    ])
    def test_adjacent_sites_make_ab_ab_never_ab_a(self, corpus):
        """In ``a b a b`` the second site's left neighbour is the first site's
        ``ab``: the pair there becomes ``(ab, ab)``; no ``(ab, a)`` is left."""
        model = bpe_learn(corpus, vocab_size=100)
        assert list(model.merges) == reference_merges(corpus, 100)
        assert ("ab", "ab") in model.merges and ("ab", "a") not in model.merges

    @pytest.mark.parametrize("corpus", [
        ["aaa aaa"],
        ["aaaa aaaa"],
        ["aaa aaaa aaaaa aaaaaa"],
        ["baaab baaab aaaa"],
    ])
    def test_runs_under_a_a_merge_left_to_right(self, corpus):
        """A run pairs from its left end: ``aaa`` is ``aa a`` and ``aaaa`` is ``aa aa``."""
        for vocab_size in range(8, 20):
            assert list(bpe_learn(corpus, vocab_size).merges) == reference_merges(corpus,
                                                                                  vocab_size)

    @pytest.mark.parametrize("syms, pair", [
        (["xyz", "x", "yz"], ("x", "yz")),
        (["xyz", "x", "yz", "x", "yz", "q"], ("x", "yz")),
        (["ab", "a", "b", "ab"], ("a", "b")),
        (["a", "b", "a", "b", "a"], ("a", "b")),
        (["a", "a", "a", "a", "a"], ("a", "a")),
        (["c", "a", "b"], ("a", "b")),
        (["a", "c", "b"], ("a", "b")),
    ])
    def test_merge_sites_change_only_the_counts_a_recount_changes(self, syms, pair):
        """A word that already holds ``a+b`` from another split (``xyz`` from
        ``xy z``) before a site: that left ``xyz`` is a neighbour like any
        other, since no site of this merge ended there. No corpus is known that
        leads the learner to such a word, so it is built by hand."""
        check_merge_sites(syms, pair)

    @given(st.lists(st.sampled_from(["a", "b", "ab", "ba", "aba"]), max_size=10),
           st.sampled_from([("a", "b"), ("a", "a"), ("ab", "a"), ("a", "ba"), ("ab", "ab")]))
    def test_merge_sites_on_any_word(self, syms, pair):
        check_merge_sites(syms, pair)

    def test_learner_bytes_at_scale(self):
        """Thousands of Zipf-like words at two budgets: the model files'
        SHA-256 are those of the learner that recounted every visited word."""
        corpus = zipf_corpus(seed=7, words=3000)
        for vocab_size, digest in (
            (300, "c7b3c4900e6aea62d5604d00ed9a5490dbb2dca4c7d3f25e1bbba3aef3da1ee9"),
            (2000, "fa77421427b0f8dd6f0e24b3e54dd1e0064108eea7f5e5177007f4262afe52d6"),
        ):
            fh = io.StringIO()
            dump_model(bpe_learn(corpus, vocab_size), fh)
            assert hashlib.sha256(fh.getvalue().encode("utf-8")).hexdigest() == digest, vocab_size

    @given(corpora, st.integers(0, 12))
    @settings(max_examples=60)
    def test_incremental_counts_match_reference(self, corpus, headroom):
        alphabet = {c for line in corpus for c in line.replace(" ", "")}
        if not alphabet:
            return
        vocab_size = len(SPECIAL_TOKENS) + 1 + len(alphabet) + headroom
        model = bpe_learn(corpus, vocab_size)
        assert list(model.merges) == reference_merges(corpus, vocab_size)


class TestApplyDecode:
    @pytest.fixture()
    def model(self) -> BpeModel:
        return bpe_learn(["ab ab ab cd cd"], vocab_size=13, language="demo")

    def test_apply_known_ids(self, model):
        ids = bpe_apply(model, "ab ab ab cd cd")
        eow = model.eow_id
        assert ids == [10, eow, 10, eow, 10, eow, 11, eow, 11, eow]

    def test_every_word_ends_with_boundary(self, model):
        ids = bpe_apply(model, "ab cd a")
        assert ids.count(model.eow_id) == 3
        assert ids[-1] == model.eow_id

    def test_lower_rank_merges_win(self):
        model = bpe_learn(["ab ab ab bc bc"], vocab_size=100)
        assert model.merges == (("a", "b"), ("b", "c"))
        ids = bpe_apply(model, "abc")
        symbols = model.id_to_symbol()
        assert [symbols[i] for i in ids] == ["ab", "c", END_OF_WORD]

    def test_unknown_characters_become_unk(self, model):
        ids = bpe_apply(model, "ax")
        assert ids == [model.vocab["a"], UNK_ID, model.eow_id]
        assert bpe_decode(model, ids) == "a<unk>"

    def test_decode_inverts_apply(self, model):
        for text in ("ab ab ab cd cd", "ab", "a b c d", "abcd dcba"):
            assert bpe_decode(model, bpe_apply(model, text)) == " ".join(text.split())

    @given(corpora)
    @settings(max_examples=40)
    def test_round_trip_on_training_corpus(self, corpus):
        alphabet = {c for line in corpus for c in line.replace(" ", "")}
        if not alphabet:
            return
        model = bpe_learn(corpus, vocab_size=len(SPECIAL_TOKENS) + 1 + len(alphabet) + 10)
        for line in corpus:
            assert bpe_decode(model, bpe_apply(model, line)) == " ".join(line.split())

    @given(
        st.sampled_from(["ab", "abcde"]).flatmap(
            lambda letters: st.tuples(
                st.lists(
                    st.lists(st.text(letters, min_size=1, max_size=6), min_size=1, max_size=8)
                    .map(" ".join),
                    min_size=1,
                    max_size=6,
                ),
                st.lists(
                    st.lists(st.text(letters + "x", min_size=1, max_size=8), min_size=1, max_size=6),
                    min_size=1,
                    max_size=4,
                ),
            )
        ),
        st.integers(0, 12),
    )
    @settings(max_examples=80)
    def test_memo_equals_cold_segmentation(self, corpus_and_texts, headroom):
        # Repeated words (across and within lines), the unknown character x,
        # and runs like "aaaa" or "abab" where one merge ties at several
        # positions: a word read from the memo encodes as it does on its own
        # through a fresh model.
        corpus, texts = corpus_and_texts
        alphabet = {c for line in corpus for c in line.replace(" ", "")}
        model = bpe_learn(corpus, len(SPECIAL_TOKENS) + 1 + len(alphabet) + headroom)
        for words in [*texts, *texts]:
            text = " ".join(words + words[:2])
            cold = [
                i for word in text.split()
                for i in bpe_apply(BpeModel(model.merges, dict(model.vocab)), word)
            ]
            assert bpe_apply(model, text) == cold

    @given(
        st.lists(st.text("abcx", min_size=1, max_size=6), min_size=1, max_size=30),
        st.integers(2, 3),
    )
    @settings(max_examples=60)
    def test_capped_memo_equals_cold_segmentation(self, words, cap):
        # With room for only two or three words the memo is emptied again and
        # again; ids stay those of a fresh model, and the memo stays capped.
        model = bpe_learn(["abab abc cab aab bca"], vocab_size=14)

        def cold(word):
            return bpe_apply(BpeModel(model.merges, dict(model.vocab)), word)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(subword, "MEMO_WORDS", cap)
            for word in words:
                assert bpe_apply(model, word) == cold(word)
                assert len(model._segments) <= cap
            assert bpe_apply(model, " ".join(words)) == [i for word in words for i in cold(word)]
            assert 1 <= len(model._segments) <= cap

    def test_a_copy_builds_its_own_memo(self):
        model = bpe_learn(["the cat sat on the mat"], vocab_size=40, language="toy")
        text = "the cat sat on the hat"
        expected = bpe_apply(model, text)
        copies = (model._replace(language="x"), BpeModel._make(model), model._replace())
        for copy in copies:
            assert bpe_apply(copy, text) == expected
            assert bpe_apply_line(copy, text) == " ".join(map(str, expected))
        assert copies[0].language == "x" and copies[0]._segments is not model._segments

    def test_memo_is_invisible(self, tmp_path):
        model = bpe_learn(["the cat sat on the mat"], vocab_size=40, language="toy")
        fresh = BpeModel(model.merges, dict(model.vocab), model.language)
        before = repr(model)
        save_model(model, str(tmp_path / "cold.bpe"))
        bpe_apply(model, "the cat sat on the hat")
        assert model._segments  # the memo is in use
        assert model == fresh
        assert repr(model) == before == repr(fresh)
        save_model(model, str(tmp_path / "warm.bpe"))
        assert (tmp_path / "warm.bpe").read_bytes() == (tmp_path / "cold.bpe").read_bytes()

    def test_decode_rejects_unknown_id(self, model):
        with pytest.raises(BpeError, match="not in vocabulary"):
            bpe_decode(model, [len(model.vocab)])


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = bpe_learn(["ab ab ab cd cd"], vocab_size=13, language="alpha")
        path = tmp_path / "model.bpe"
        save_model(model, str(path))
        assert load_model(str(path)) == model

    def test_resave_is_byte_identical(self, tmp_path):
        model = bpe_learn(["the cat sat on the mat"], vocab_size=40)
        first, second = tmp_path / "a.bpe", tmp_path / "b.bpe"
        save_model(model, str(first))
        save_model(load_model(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.bpe"
        path.write_text("not a model\n")
        with pytest.raises(BpeError, match="unsupported model header"):
            load_model(str(path))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.bpe"
        path.write_text("bpe-model v1\nlanguage x\n")
        with pytest.raises(BpeError, match="malformed"):
            load_model(str(path))

    @pytest.mark.parametrize("damage, message", [
        ("cut after line 3", "line 4: expected 'specials'"),
        ("end_of_word and specials swapped", "line 3: expected 'end_of_word'"),
        # The specials and end-of-word have fixed ids, so their lines are fixed.
        ("end_of_word <eow>", "line 3: expected 'end_of_word </w>', got 'end_of_word <eow>'"),
        ("specials <unk> <pad>", "line 4: expected 'specials <pad> <unk> <cls> <sep> <mask>', "
                                 "got 'specials <unk> <pad>'"),
    ])
    def test_header_keywords_are_checked_in_order(self, tmp_path, damage, message):
        path = tmp_path / "model.bpe"
        save_model(bpe_learn(["the cat sat on the mat"], vocab_size=30), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        if damage == "cut after line 3":
            del lines[3:]
        elif damage.endswith("swapped"):
            lines[2], lines[3] = lines[3], lines[2]
        else:
            lines[2 if damage.startswith("end_of_word") else 3] = damage
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(BpeError) as caught:
            load_model(str(path))
        assert str(caught.value) == f"malformed model file {path}: {message}"

    @pytest.mark.parametrize("damage", ["merges cut", "merge added", "alphabet line dropped"])
    def test_lines_must_match_the_header_counts(self, tmp_path, damage):
        path = tmp_path / "model.bpe"
        text = "the cat sat on the mat and the rat sat at that hat then the cat ran"
        save_model(bpe_learn([text], vocab_size=60), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        merges = next(i for i, line in enumerate(lines) if line.startswith("merges "))
        assert len(lines) - merges - 1 == int(lines[merges].split()[1]) >= 4
        if damage == "merges cut":
            del lines[merges + 3:]
        elif damage == "merge added":
            lines.append("t h")
        else:
            del lines[merges - 1]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(BpeError, match=re.escape(f"malformed model file {path}: ")):
            load_model(str(path))

    @pytest.mark.parametrize("section, bad", [
        ("alphabet", "ab"), ("alphabet", ""),
        ("merges", "a"), ("merges", "a b c"), ("merges", "a "), ("merges", " a"),
    ])
    def test_alphabet_and_merge_lines_are_checked(self, tmp_path, section, bad):
        path = tmp_path / "model.bpe"
        save_model(bpe_learn(["ab ab ab cd cd"], vocab_size=13), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith(section + " ")) + 1
        lines[index] = bad  # the first line after the section header
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(BpeError) as caught:
            load_model(str(path))
        expected = "one character" if section == "alphabet" else "'LEFT RIGHT'"
        assert str(caught.value) == (
            f"malformed model file {path}: line {index + 1}: expected {expected}, got {bad!r}"
        )

    @pytest.mark.parametrize("merges, line, unknown", [
        (["a b", "c d", "x y"], 13, "x"), (["a b", "c d", "a y"], 13, "y"),
        (["a b", "c d", "abc d"], 13, "abc"), (["a b", "c d", "ba c"], 13, "ba"),
        (["a b", "c d", "a </w>"], 13, "</w>"), (["a b", "c d", "<pad> a"], 13, "<pad>"),
        (["ab c", "a b", "c d"], 11, "ab"),  # the output of a later merge
        (["a b", "c d", "b ab"], None, None), (["a b", "c d", "ab cd"], None, None),
        (["a b", "c d", "cd ab"], None, None),
    ])
    def test_a_merge_joins_known_symbols(self, tmp_path, merges, line, unknown):
        """LEFT and RIGHT are alphabet symbols (a b c d) or earlier merge outputs."""
        path = tmp_path / "model.bpe"
        save_model(bpe_learn(["ab ab ab cd cd"], vocab_size=13), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[-3:] == ["merges 2", "a b", "c d"]
        lines[-3:] = ["merges 3", *merges]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        if unknown is None:
            left, right = merges[-1].split()
            assert load_model(str(path)).vocab[left + right] == 12
            return
        with pytest.raises(BpeError) as caught:
            load_model(str(path))
        assert str(caught.value) == f"malformed model file {path}: line {line}: unknown symbol {unknown!r}"


def reference_mask(ids: list[int], rate: float, vocab_size: int,
                   rng: Rng) -> tuple[list[int], list[int]]:
    """``mask_tokens`` as its docstring orders the draws, with ``random()``
    for the selection and the split and ``randbelow`` to resample."""
    masked, labels = list(ids), [IGNORE_LABEL] * len(ids)
    for i, token_id in enumerate(ids):
        if token_id < len(SPECIAL_TOKENS) or rng.random() >= rate:
            continue
        labels[i] = token_id
        u = rng.random()
        if u < subword.CUT_MASK:
            masked[i] = MASK_ID
        elif u >= subword.CUT_KEEP:
            masked[i] = len(SPECIAL_TOKENS) + rng.randbelow(vocab_size - len(SPECIAL_TOKENS))
    return masked, labels


# 0, 1, 0.15, and k * 2**-53 or the float next to it on either side, within [0, 1].
MASK_RATES = st.one_of(
    st.sampled_from([0.0, 1.0, 0.15]),
    st.builds(lambda k, toward: k / 2**53 if toward is None else math.nextafter(k / 2**53, toward),
              st.integers(0, 2**53), st.sampled_from([None, -math.inf, math.inf]))
    .filter(lambda rate: 0.0 <= rate <= 1.0),
)


class TestMasking:
    @given(
        st.sampled_from([6, 7, 40, 2**32 + 5, 2**40]).flatmap(lambda vocab_size: st.tuples(
            st.just(vocab_size),
            st.lists(st.one_of(st.integers(0, len(SPECIAL_TOKENS) - 1),
                               st.integers(0, vocab_size - 1)), max_size=60),
        )),
        MASK_RATES,
        st.integers(0, 2**64 - 1),
        st.sampled_from([-(1 << 11) - 1, -(1 << 11), -1, 0, 1, (1 << 11) - 1, 1 << 11]),
    )
    def test_selection_by_raw_draw_is_random_below_the_rate(self, case, rate, seed, offset):
        # For odd seeds, the first selection draw, which is the stream's first
        # (specials draw nothing), is put at the cut, ceil(rate * 2**53) << 11,
        # or next to it, where the raw comparison and random() < rate could part.
        vocab_size, ids = case
        if seed % 2:
            u = (math.ceil(rate * 2**53) << 11) + offset
            seed = seed_drawing(min(max(u, 0), 2**64 - 1), 0)
        ours, theirs = Rng(seed), Rng(seed)
        assert mask_tokens(ids, MaskingConfig(mask_rate=rate), vocab_size, rng=ours) == (
            reference_mask(ids, rate, vocab_size, theirs))
        assert ours._state == theirs._state

    def test_deterministic_per_sentence(self):
        ids = list(range(5, 45))
        config = MaskingConfig()
        first = mask_tokens(ids, config, vocab_size=50, rng=run_streams(3)(7))
        second = mask_tokens(ids, config, vocab_size=50, rng=run_streams(3)(7))
        other = mask_tokens(ids, config, vocab_size=50, rng=run_streams(3)(8))
        assert first == second
        assert first != other

    def test_specials_never_selected(self):
        ids = [PAD_ID, 1, 2, 3, 4] * 20 + list(range(5, 25))
        masked, labels = mask_tokens(ids, MaskingConfig(mask_rate=1.0, seed=0), vocab_size=30)
        for i, original in enumerate(ids):
            if original < len(SPECIAL_TOKENS):
                assert masked[i] == original
                assert labels[i] == IGNORE_LABEL

    def test_labels_nonzero_exactly_at_selected(self):
        ids = list(range(5, 105))
        masked, labels = mask_tokens(ids, MaskingConfig(seed=5), vocab_size=200)
        for original, out, label in zip(ids, masked, labels):
            if label == IGNORE_LABEL:
                assert out == original
            else:
                assert label == original

    def test_rate_zero_selects_nothing(self):
        ids = list(range(5, 55))
        masked, labels = mask_tokens(ids, MaskingConfig(mask_rate=0.0), vocab_size=60)
        assert masked == ids
        assert labels == [IGNORE_LABEL] * len(ids)

    def test_rate_one_full_mask(self):
        # At rate 1 every non-special position is selected and labelled, and
        # its split draw u masks it (u < 0.8), keeps it (u < 0.9) or resamples it.
        ids = list(range(5, 55))
        masked, labels = mask_tokens(ids, MaskingConfig(mask_rate=1.0), vocab_size=60,
                                     rng=run_streams(4)(0))
        assert labels == ids
        draws, expected = run_streams(4)(0), []
        for original in ids:
            draws.random()  # the selection draw, always below rate 1
            u = draws.random()
            expected.append(MASK_ID if u < 0.8 else original if u < 0.9
                            else len(SPECIAL_TOKENS) + draws.randbelow(60 - len(SPECIAL_TOKENS)))
        assert masked == expected
        assert len(ids) / 2 < masked.count(MASK_ID) < len(ids)

    def test_random_replacements_are_non_special(self):
        ids = [10] * 2000
        masked, _ = mask_tokens(ids, MaskingConfig(mask_rate=1.0), vocab_size=30,
                                rng=run_streams(2)(0))
        resampled = [i for i in masked if i not in (MASK_ID, 10)]
        assert len(resampled) > 100  # about a tenth of 2000
        assert all(len(SPECIAL_TOKENS) <= i < 30 for i in resampled)
        assert len(set(resampled)) > 5  # actually random, not constant

    def test_split_statistics_loose(self):
        ids = list(range(5, 65)) * 500  # 30k tokens
        masked, labels = mask_tokens(ids, MaskingConfig(seed=11), vocab_size=100)
        selected = [i for i, lab in enumerate(labels) if lab != IGNORE_LABEL]
        fraction = len(selected) / len(ids)
        assert fraction == pytest.approx(0.15, abs=0.01)
        outcomes = collections.Counter()
        for i in selected:
            if masked[i] == MASK_ID:
                outcomes["mask"] += 1
            elif masked[i] == ids[i]:
                outcomes["keep"] += 1
            else:
                outcomes["random"] += 1
        total = len(selected)
        assert outcomes["mask"] / total == pytest.approx(0.8, abs=0.03)
        assert outcomes["keep"] / total == pytest.approx(0.1, abs=0.03)
        assert outcomes["random"] / total == pytest.approx(0.1, abs=0.03)

    def test_explicit_stream_override(self):
        ids = list(range(5, 25))
        config = MaskingConfig(seed=9)
        via_seed = mask_tokens(ids, config, vocab_size=30)
        via_stream = mask_tokens(ids, config, vocab_size=30, rng=run_streams(9)(0))
        other = mask_tokens(ids, config, vocab_size=30, rng=run_streams(9)(4))
        assert via_seed == via_stream
        assert other != via_stream

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MaskingConfig(mask_rate=1.5)
        with pytest.raises(ValueError):
            MaskingConfig(mask_rate=-0.1)

    def test_vocab_must_exceed_specials(self):
        with pytest.raises(ValueError, match="exceed"):
            mask_tokens([6], MaskingConfig(), vocab_size=5)


def test_ids_file_errors_name_the_file(tmp_path):
    path = tmp_path / "ids.txt"
    path.write_text("1 2\n3 x\n")
    with pytest.raises(BpeError, match=re.escape(f"cannot read {path}: invalid literal")):
        read_ids_file(str(path))
    with pytest.raises(BpeError, match=re.escape(f"cannot read {tmp_path / 'missing'}: [Errno 2]")):
        read_ids_file(str(tmp_path / "missing"))


def test_ids_file_round_trip(tmp_path):
    path = tmp_path / "ids.txt"
    sequences = [[1, 2, 3], [], [42]]
    path.write_text("1 2 3\n\n42\n", encoding="utf-8")
    assert read_ids_file(str(path)) == sequences
