from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from helpers import merge_sort_inversions, sentence_of
from treelab import metrics
from treelab.metrics import (
    AlignedPermutation,
    AlignmentError,
    CorpusStats,
    StatsAccumulator,
    align_by_surface,
    alignment,
    format_stats_table,
    inversion_count,
    inversion_ratio,
    word_move_distance,
)
from treelab.treebank import Sentence


def brute_force_inversions(pi) -> int:
    """O(n^2) reference for inversion_count."""
    n = len(pi)
    return sum(1 for i in range(n) for j in range(i + 1, n) if pi[i] > pi[j])


BLOCK = 1 << metrics.BLOCK_BITS


def permutations(max_n: int = 40):
    return st.integers(0, max_n).flatmap(lambda n: st.permutations(range(n)))


class TestAlignedPermutation:
    def test_valid(self):
        assert AlignedPermutation((2, 0, 1)).n == 3
        assert AlignedPermutation(()).n == 0

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            AlignedPermutation((0, 0))
        with pytest.raises(ValueError):
            AlignedPermutation((1, 2))


class TestAlignment:
    def test_reorder_mapping(self):
        original = Sentence((("I", 0), ("read", 1), ("two", 2), ("papers", 3)))
        modified = Sentence((("I", 0), ("two", 2), ("papers", 3), ("read", 1)))
        assert alignment(original, modified).pi == (0, 3, 1, 2)

    def test_identity(self):
        s = sentence_of(["a", "b", "c"])
        assert alignment(s, s).pi == (0, 1, 2)

    def test_duplicates_tracked_by_origin(self):
        original = Sentence((("the", 0), ("cat", 1), ("the", 2)))
        modified = Sentence((("the", 2), ("the", 0), ("cat", 1)))
        assert alignment(original, modified).pi == (1, 2, 0)

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError, match="length"):
            alignment(sentence_of(["a"]), sentence_of(["a", "b"]))

    def test_names_first_offender(self):
        original = sentence_of(["a", "b"])
        modified = Sentence((("a", 0), ("c", 1)))
        with pytest.raises(AlignmentError, match="'b' .* missing from modified"):
            alignment(original, modified)


class TestAlignBySurface:
    def test_duplicates_matched_in_order(self):
        assert align_by_surface(["a", "b", "a"], ["a", "a", "b"]).pi == (0, 2, 1)

    def test_multiset_mismatch(self):
        with pytest.raises(AlignmentError):
            align_by_surface(["a", "b"], ["a", "a"])

    @given(st.lists(st.sampled_from("abc"), max_size=12), st.randoms(use_true_random=False))
    def test_matches_any_rearrangement(self, tokens, rnd):
        shuffled = list(tokens)
        rnd.shuffle(shuffled)
        perm = align_by_surface(tokens, shuffled)
        # Each token really lands where the permutation says.
        for i, token in enumerate(tokens):
            assert shuffled[perm.pi[i]] == token


class TestInversions:
    @pytest.mark.parametrize(
        "pi,expected",
        [((), 0), ((0,), 0), ((0, 1, 2), 0), ((2, 1, 0), 3), ((1, 0), 1), ((2, 0, 1), 2)],
    )
    def test_known_counts(self, pi, expected):
        assert inversion_count(AlignedPermutation(pi)) == expected

    @given(permutations())
    def test_matches_brute_force(self, pi):
        assert inversion_count(AlignedPermutation(tuple(pi))) == brute_force_inversions(pi)

    @given(permutations())
    def test_blocks_match_brute_force(self, pi):
        """With 4-value blocks, a permutation of up to 40 values crosses many blocks."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "BLOCK_BITS", 2)
            assert inversion_count(AlignedPermutation(tuple(pi))) == brute_force_inversions(pi)

    @pytest.mark.parametrize("n", [0, 1, 2, 17, BLOCK - 1, BLOCK, BLOCK + 1, 10**4, 10**5])
    def test_exact_counts_against_merge_sort(self, n):
        """One mask up to BLOCK values, blocks above it: a random permutation against
        the oracle; reversed, sorted, and one pair swapped across each block boundary
        against their closed forms."""
        pi = random.Random(n).sample(range(n), n)
        assert inversion_count(AlignedPermutation(tuple(pi))) == merge_sort_inversions(pi)
        crossed, boundaries = list(range(n)), range(BLOCK - 1, n - 1, BLOCK)
        for start in boundaries:
            crossed[start], crossed[start + 1] = crossed[start + 1], crossed[start]
        for pi, expected in ((list(range(n))[::-1], n * (n - 1) // 2), (list(range(n)), 0),
                             (crossed, len(boundaries))):
            assert inversion_count(AlignedPermutation(tuple(pi))) == expected

    def test_full_reversal_ratio_is_one(self):
        assert inversion_ratio(AlignedPermutation((3, 2, 1, 0))) == 1.0

    def test_short_sentences_are_zero(self):
        assert inversion_ratio(AlignedPermutation(())) == 0.0
        assert inversion_ratio(AlignedPermutation((0,))) == 0.0

    @given(permutations())
    def test_ratio_bounds_and_inverse_symmetry(self, pi):
        perm = AlignedPermutation(tuple(pi))
        ratio = inversion_ratio(perm)
        assert 0.0 <= ratio <= 1.0
        inverse = [0] * len(pi)
        for i, p in enumerate(pi):
            inverse[p] = i
        assert inversion_count(AlignedPermutation(tuple(inverse))) == inversion_count(perm)


class TestWordMoveDistance:
    def test_reversal_n4(self):
        assert word_move_distance(AlignedPermutation((3, 2, 1, 0))) == 0.5

    def test_identity_zero(self):
        assert word_move_distance(AlignedPermutation((0, 1, 2))) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            word_move_distance(AlignedPermutation(()))

    @given(permutations())
    def test_bounds(self, pi):
        if not pi:
            return
        value = word_move_distance(AlignedPermutation(tuple(pi)))
        assert 0.0 <= value <= 0.5


class TestAccumulator:
    def test_matches_single_pass(self):
        perms = [AlignedPermutation(p) for p in [(0, 1), (1, 0), (2, 0, 1), (0,)]]
        whole = StatsAccumulator()
        for p in perms:
            whole.add(p)
        rows = StatsAccumulator()
        for p in perms:
            rows.add_row(inversion_ratio(p), word_move_distance(p), p.n)
        assert rows == whole
        stats = whole.finalize()
        assert stats.sentence_count == 4
        assert stats.token_count == 8
        assert stats.short_sentence_count == 1

    def test_empty_finalize(self):
        stats = StatsAccumulator().finalize()
        assert stats == CorpusStats(0.0, 0.0, 0, 0, 0)


class TestCorpusStats:
    def test_aggregates(self):
        original = sentence_of(["a", "b", "c", "d"])
        reversed_ = Sentence(tuple(reversed(original.tokens)))
        acc = StatsAccumulator()
        for modified in (original, reversed_):
            acc.add(alignment(original, modified))
        stats = acc.finalize()
        assert stats.mean_inversion_ratio == pytest.approx(0.5)
        assert stats.mean_word_move_distance == pytest.approx(0.25)
        assert stats.sentence_count == 2


def test_format_stats_table():
    stats = CorpusStats(0.5189, 0.25, 10_000, 123_456, 7)
    table = format_stats_table([("word shuffle", stats)])
    assert "word shuffle" in table
    assert "51.89" in table
    assert "10000" in table
