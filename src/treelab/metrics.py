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

:func:`permutation_row` takes a ``pi`` that its caller built as a
permutation, so ``transform --stats`` goes from a tree's leaves to IR and
WMD with no :class:`~treelab.treebank.Sentence` built and no second check.
Inversions are counted with bitmasks of the values already seen.
"""

from __future__ import annotations

from collections import namedtuple
from operator import sub
from types import SimpleNamespace
from typing import NamedTuple, Sequence, Sized

from .files import checked_make
from .treebank import AlignmentError, Sentence, is_permutation

_new = tuple.__new__


class AlignedPermutation(namedtuple("AlignedPermutation", "pi")):
    """``pi[i]`` is the new position of the token whose origin index is ``i``."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, pi: tuple[int, ...]) -> "AlignedPermutation":
        if not is_permutation(pi):
            raise ValueError("pi must be a permutation of 0..n-1")
        return _new(cls, (pi,))

    @property
    def n(self) -> int:
        return len(self.pi)


def _check_lengths(original: Sized, modified: Sized) -> None:
    if len(original) != len(modified):
        raise AlignmentError(
            f"length mismatch: original has {len(original)} tokens, modified has {len(modified)}"
        )


def alignment(original: Sentence, modified: Sentence) -> AlignedPermutation:
    """Map each origin index to its position in the modified sentence.

    Requires the same multiset of ``(surface, origin)`` pairs on both
    sides; the first mismatching token is named in the error.
    """
    _check_lengths(original, modified)
    mod_pairs = set(modified.tokens)  # n distinct pairs on each side: one inclusion suffices
    for surface, origin in original.tokens:
        if (surface, origin) not in mod_pairs:
            raise AlignmentError(f"token {surface!r} (origin {origin}) missing from modified sentence")
    pos = [0] * len(modified)
    for position, (_, origin) in enumerate(modified.tokens):
        pos[origin] = position
    return AlignedPermutation(tuple(pos))


def _unchecked(pi: Sequence[int]) -> AlignedPermutation:
    """An :class:`AlignedPermutation` of a ``pi`` that its caller built as a permutation."""
    return _new(AlignedPermutation, (tuple(pi),))


def align_by_surface(original: Sequence[str], modified: Sequence[str]) -> AlignedPermutation:
    """Alignment for plain token sequences, e.g. line-aligned corpus files.

    Duplicate surfaces are matched in order of occurrence (k-th copy to
    k-th copy), the only well-posed convention without carried identity.
    """
    _check_lengths(original, modified)
    positions: dict[str, list[int]] = {}
    for j in reversed(range(len(modified))):
        positions.setdefault(modified[j], []).append(j)
    pi = []
    for surface in original:
        stack = positions.get(surface)
        if not stack:
            raise AlignmentError(f"token {surface!r} has no remaining match in modified sentence")
        pi.append(stack.pop())
    return _unchecked(pi)  # n pops of n distinct positions


BLOCK_BITS = 10  # inversion_count keeps one bitmask per 2**BLOCK_BITS values


def inversion_count(perm: AlignedPermutation) -> int:
    """Number of pairs i < j with pi[i] > pi[j]: each value adds the earlier values above it.

    The earlier values are the set bits of one integer, and ``value`` adds
    ``(seen >> value).bit_count()``. A shift costs O(n / 64) on n bits, so above
    ``2**BLOCK_BITS`` values each block of that many values has a mask of its
    own, and a value adds the set bits above it in its block's mask plus the
    earlier values in higher blocks, counted with a Fenwick tree over blocks.
    """
    pi = perm.pi
    n = len(pi)
    if n <= 1 << BLOCK_BITS:
        seen = inversions = 0
        for value in pi:
            inversions += (seen >> value).bit_count()
            seen |= 1 << value
        return inversions
    low = (1 << BLOCK_BITS) - 1
    blocks = (n + low) >> BLOCK_BITS
    masks = [0] * blocks
    counts = [0] * (blocks + 1)  # Fenwick tree: counts[i] covers blocks i - (i & -i) .. i - 1
    inversions = 0
    for earlier, value in enumerate(pi):
        b, r = value >> BLOCK_BITS, value & low
        # The set bits above r in block b, plus every earlier value less those
        # in blocks 0..b, which the first loop takes off.
        inversions += earlier + (masks[b] >> r).bit_count()
        masks[b] |= 1 << r
        i = b + 1
        while i:
            inversions -= counts[i]
            i &= i - 1
        i = b + 1
        while i <= blocks:
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


def permutation_row(pi: Sequence[int]) -> tuple[float, float, int]:
    """``(inversion ratio, word-move distance, n)`` of a ``pi`` that its caller
    built as a permutation: no check, and the functions above compute the floats."""
    perm = _unchecked(pi)
    return inversion_ratio(perm), word_move_distance(perm), perm.n


class CorpusStats(NamedTuple):
    mean_inversion_ratio: float
    mean_word_move_distance: float
    sentence_count: int
    token_count: int
    short_sentence_count: int  # sentences with < 2 tokens, where IR defaults to 0


class StatsAccumulator(SimpleNamespace):
    """Streaming per-sentence aggregation. Float sums depend on the order of
    addition, so ``run_transform`` adds every sentence in input order. Equal to
    an accumulator with the same sums; mutable, so not hashable."""

    def __init__(self) -> None:
        super().__init__(sum_ir=0.0, sum_wmd=0.0, sentences=0, tokens=0, short=0)

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

    def finalize(self) -> CorpusStats:
        n = self.sentences
        return CorpusStats(
            mean_inversion_ratio=self.sum_ir / n if n else 0.0,
            mean_word_move_distance=self.sum_wmd / n if n else 0.0,
            sentence_count=n,
            token_count=self.tokens,
            short_sentence_count=self.short,
        )


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
