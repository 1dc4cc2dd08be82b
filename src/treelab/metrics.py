"""Quantify how far a modified sentence moved from its original.

Two permutation metrics, defined on the position mapping between original
and modified token order:

* inversion ratio -- fraction of token pairs whose relative order flipped,
  in [0, 1]; 0 for the identity, 1 for a full reversal, expectation 1/2
  under a uniform random permutation.
* word move distance -- mean absolute positional displacement, normalized
  by sentence length (so bounded by (n-1)/n < 1).

Both depend only on positions, never on surface forms: duplicate words
are disambiguated by the origin indices carried on
:class:`~treelab.treebank.Sentence`. Corpus aggregation weights every
sentence equally and runs in constant memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Iterable, Sequence

from .treebank import Sentence, is_permutation


class AlignmentError(ValueError):
    """Original and modified sentences do not contain the same tokens."""


@dataclass(frozen=True)
class AlignedPermutation:
    """``pi[i]`` is the new position of the token whose origin index is ``i``."""

    pi: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_permutation(self.pi):
            raise ValueError("pi must be a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.pi)


def alignment(original: Sentence, modified: Sentence) -> AlignedPermutation:
    """Map each origin index to its position in the modified sentence.

    Requires the same multiset of ``(surface, origin)`` pairs on both
    sides; the first mismatching token is named in the error.
    """
    if len(original) != len(modified):
        raise AlignmentError(
            f"length mismatch: original has {len(original)} tokens, "
            f"modified has {len(modified)}"
        )
    orig_pairs = set(original.tokens)
    mod_pairs = set(modified.tokens)
    for surface, origin in original.tokens:
        if (surface, origin) not in mod_pairs:
            raise AlignmentError(f"token {surface!r} (origin {origin}) missing from modified sentence")
    for surface, origin in modified.tokens:
        if (surface, origin) not in orig_pairs:
            raise AlignmentError(f"token {surface!r} (origin {origin}) missing from original sentence")
    pos = [0] * len(modified)
    for position, (_, origin) in enumerate(modified.tokens):
        pos[origin] = position
    return AlignedPermutation(tuple(pos))


def align_by_surface(original: Sequence[str], modified: Sequence[str]) -> AlignedPermutation:
    """Alignment for plain token sequences, e.g. line-aligned corpus files.

    Duplicate surfaces are matched in order of occurrence (k-th copy to
    k-th copy), the only well-posed convention without carried identity.
    """
    if len(original) != len(modified):
        raise AlignmentError(
            f"length mismatch: original has {len(original)} tokens, "
            f"modified has {len(modified)}"
        )
    positions: dict[str, list[int]] = {}
    for j in reversed(range(len(modified))):
        positions.setdefault(modified[j], []).append(j)
    pi = []
    for surface in original:
        stack = positions.get(surface)
        if not stack:
            raise AlignmentError(f"token {surface!r} has no remaining match in modified sentence")
        pi.append(stack.pop())
    return AlignedPermutation(tuple(pi))


def inversion_count(perm: AlignedPermutation) -> int:
    """Number of pairs i < j with pi[i] > pi[j], by a Fenwick tree over values.

    Each value adds the count of earlier values above it: the earlier ones
    minus those at or below it, which the tree's prefix sum gives.
    """
    n = perm.n
    counts = [0] * (n + 1)  # Fenwick tree: counts[i] covers values i - (i & -i) .. i - 1
    inversions = 0
    for seen, value in enumerate(perm.pi):
        inversions += seen
        i = value + 1
        while i:
            inversions -= counts[i]
            i &= i - 1
        i = value + 1
        while i <= n:
            counts[i] += 1
            i += i & -i
    return inversions


def inversion_ratio(perm: AlignedPermutation) -> float:
    """Inverted pairs over total pairs; 0.0 for sentences shorter than 2."""
    n = perm.n
    if n < 2:
        return 0.0
    return inversion_count(perm) / (n * (n - 1) // 2)


def word_move_distance(perm: AlignedPermutation) -> float:
    """Sum of |pi[i] - i| over n, normalized again by n."""
    n = perm.n
    if n == 0:
        raise ValueError("empty permutation")
    return sum(map(abs, map(sub, perm.pi, range(n)))) / (n * n)


@dataclass(frozen=True)
class CorpusStats:
    mean_inversion_ratio: float
    mean_word_move_distance: float
    sentence_count: int
    token_count: int
    short_sentence_count: int  # sentences with < 2 tokens, where IR defaults to 0


@dataclass
class StatsAccumulator:
    """Streaming per-sentence aggregation. Float sums depend on the order of
    addition, so ``merge`` of shards can differ in the last bits from adding
    every sentence in order, which is what the corpus driver does."""

    sum_ir: float = 0.0
    sum_wmd: float = 0.0
    sentences: int = 0
    tokens: int = 0
    short: int = 0

    def add(self, perm: AlignedPermutation) -> None:
        self.add_row(inversion_ratio(perm), word_move_distance(perm), perm.n)

    def add_row(self, ir: float, wmd: float, n: int) -> None:
        """One sentence's inversion ratio, word-move distance and length."""
        self.sum_ir += ir
        self.sum_wmd += wmd
        self.sentences += 1
        self.tokens += n
        if n < 2:
            self.short += 1

    def merge(self, other: "StatsAccumulator") -> None:
        self.sum_ir += other.sum_ir
        self.sum_wmd += other.sum_wmd
        self.sentences += other.sentences
        self.tokens += other.tokens
        self.short += other.short

    def finalize(self) -> CorpusStats:
        n = self.sentences
        return CorpusStats(
            mean_inversion_ratio=self.sum_ir / n if n else 0.0,
            mean_word_move_distance=self.sum_wmd / n if n else 0.0,
            sentence_count=n,
            token_count=self.tokens,
            short_sentence_count=self.short,
        )


def corpus_stats(pairs: Iterable[tuple[Sentence, Sentence]]) -> CorpusStats:
    """Aggregate metrics over a stream of (original, modified) pairs.

    Alignment failures are re-raised with the 1-based pair number.
    """
    acc = StatsAccumulator()
    for index, (original, modified) in enumerate(pairs, start=1):
        try:
            acc.add(alignment(original, modified))
        except AlignmentError as exc:
            raise AlignmentError(f"sentence {index}: {exc}") from exc
    return acc.finalize()


def format_stats_table(rows: Sequence[tuple[str, CorpusStats]]) -> str:
    """Key-value text table: source type, IR %, WMD %, counts."""
    header = f"{'source type':<24} {'IR (%)':>8} {'WMD (%)':>8} {'sents':>8} {'tokens':>9}"
    lines = [header, "-" * len(header)]
    for label, stats in rows:
        lines.append(
            f"{label:<24} {100 * stats.mean_inversion_ratio:>8.2f} "
            f"{100 * stats.mean_word_move_distance:>8.2f} "
            f"{stats.sentence_count:>8d} {stats.token_count:>9d}"
        )
    return "\n".join(lines)
