"""Per-language BPE vocabularies and the masking sampler for MLM data prep.

Learning is the classic greedy procedure: count adjacent symbol pairs over
whitespace-pretokenized words, repeatedly merge the most frequent pair,
stop when the vocabulary budget is reached or no pair occurs twice. Two
conventions are fixed here because the textbook algorithm leaves them
open, and both are needed for reproducibility:

* frequency ties are broken by lexicographic order of the pair;
* the end-of-word marker ``</w>`` is a boundary symbol: it terminates each
  word in the output id stream but never participates in a merge.

The learner keeps the pair counts and, for each pair, the set of words that
contain it; merging ``(a, b)`` visits only those words and in each only the
sites (Sennrich, Haddow & Birch 2016): ``(left, a)`` and ``(b, right)`` become
``(left, ab)`` and ``(ab, right)``, ``left`` read from the merged word, so
``a b a b`` gives ``(ab, ab)``, no ``(ab, a)``. The next pair comes from a heap
of ``(-count, pair)`` entries, each live while its count is current.
``bpe_apply`` segments each distinct word once per model: the model keeps, in
a memo built on first use that takes no part in equality, ``repr`` or the
saved file, the merge ranks and each word's ids and their text, so that
``bpe_apply_line`` writes a line as one join of word texts. The memo is
emptied when it holds ``MEMO_WORDS`` words. ``IdText`` is the same kind of
bounded memo from an id to its decimal text, for ``mask``'s lines.

Vocabularies are never shared across languages; a model records the
language tag it was trained on. Ids are dense and 0-based with the five
special tokens first (pad, unk, cls, sep, mask), then the end-of-word
marker, then the initial alphabet in sorted order, then merge outputs in
learned order.

``mask_tokens`` implements the usual MLM corruption: each non-special
position is selected independently at the configured rate, and selected
positions are replaced by the mask id, kept, or resampled at the fixed
80/10/10 split. Labels hold the original id at selected positions and
``IGNORE_LABEL`` (0, unambiguous because specials are never selected)
elsewhere. A position is selected when its draw ``u``, read raw through
``Rng.u64s``, is below ``ceil(rate * 2**53) << 11``: ``random()`` is exactly
``(u >> 11) * 2**-53``, so this is ``random() < rate`` without the float.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict, namedtuple
from functools import cached_property
from typing import IO, Iterable, Sequence

from .files import checked_make, read_int, read_lines, replace_on_success
from .rng import Rng, run_streams

SPECIAL_TOKENS = ("<pad>", "<unk>", "<cls>", "<sep>", "<mask>")
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
END_OF_WORD = "</w>"
IGNORE_LABEL = 0
# mask_tokens' split of selected positions: a draw below CUT_MASK masks (80%),
# one below CUT_KEEP keeps the id (10%), any other resamples it (10%).
CUT_MASK = 0.8
CUT_KEEP = 0.8 + 0.1
MEMO_WORDS = 1 << 16  # bpe_apply's per-model memo is emptied at this many words
MEMO_IDS = 1 << 16  # an IdText is emptied at this many ids


class BpeError(ValueError):
    pass


class BpeModel(namedtuple("BpeModel", "merges vocab language", defaults=("und",))):
    """Ordered merge list plus the symbol vocabulary for one language.

    ``bpe_apply``'s memo, ``_segments``, is made on first use and kept in the
    instance's dict, so equality and repr leave it out, a copy made by
    ``_replace`` or ``_make`` builds its own, and it is never saved. The
    fields are read-only.
    """

    @cached_property
    def _segments(self) -> _Segments:
        return _Segments(self)

    @property
    def eow_id(self) -> int:
        return self.vocab[END_OF_WORD]

    def id_to_symbol(self) -> dict[int, str]:
        return {i: s for s, i in self.vocab.items()}


def _build_vocab(alphabet: Sequence[str], merges: Iterable[tuple[str, str]]) -> dict[str, int]:
    vocab: dict[str, int] = {}
    for sym in (*SPECIAL_TOKENS, END_OF_WORD, *alphabet):
        vocab.setdefault(sym, len(vocab))
    for a, b in merges:
        vocab.setdefault(a + b, len(vocab))
    return vocab


def bpe_learn(corpus: Iterable[str], vocab_size: int, language: str = "und") -> BpeModel:
    """Learn merges from a stream of text (each item is whitespace-split).

    Deterministic for a given corpus: greedy most-frequent pair, ties to
    the lexicographically smaller pair, no merge for pairs seen once.
    """
    word_freq: Counter[str] = Counter()
    for chunk in corpus:
        word_freq.update(chunk.split())
    if not word_freq:
        raise BpeError("empty corpus")

    alphabet = sorted({ch for word in word_freq for ch in word})
    min_size = len(SPECIAL_TOKENS) + 1 + len(alphabet)
    if vocab_size < min_size:
        raise BpeError(
            f"vocab_size {vocab_size} too small: minimum feasible size is {min_size} "
            f"({len(SPECIAL_TOKENS)} specials + end-of-word + {len(alphabet)} characters)"
        )

    words = [list(w) for w in word_freq]
    freqs = list(word_freq.values())
    pair_counts: Counter[tuple[str, str]] = Counter()
    where: defaultdict[tuple[str, str], set[int]] = defaultdict(set)  # may hold stale indices
    for i, (syms, freq) in enumerate(zip(words, freqs)):
        for pair in zip(syms, syms[1:]):
            pair_counts[pair] += freq
            where[pair].add(i)
    # (-count, pair) orders as the rule does: highest count, then smallest
    # pair. An entry is live while its count is the pair's current count;
    # pairs seen once are left out, as they can never be merged.
    heap = [(-c, p) for p, c in pair_counts.items() if c >= 2]
    heapq.heapify(heap)

    vocab = _build_vocab(alphabet, ())
    merges: list[tuple[str, str]] = []
    while len(vocab) < vocab_size and heap:
        count, best = heapq.heappop(heap)
        if pair_counts[best] != -count:
            continue
        merges.append(best)
        vocab.setdefault(best[0] + best[1], len(vocab))
        for pair, change in _merge_sites(best, words, freqs, where).items():
            if change:
                pair_counts[pair] += change
                if pair_counts[pair] >= 2:
                    heapq.heappush(heap, (-pair_counts[pair], pair))
        pair_counts[best] = 0  # every site is merged; any entry pushed for it is stale

    return BpeModel(tuple(merges), vocab, language)


def _merge_sites(pair: tuple[str, str], words: list[list[str]], freqs: list[int],
                 where: defaultdict[tuple[str, str], set[int]]) -> dict[tuple[str, str], int]:
    """Merge ``pair`` in the words ``where`` lists for it, as ``_fuse`` does; each
    site's neighbour pairs change by the word's frequency in the returned counts,
    and the new pairs list the word in ``where``. The pair's own count is not kept."""
    a, b = pair
    ab = a + b
    delta: defaultdict[tuple[str, str], int] = defaultdict(int)
    for i in where.pop(pair):
        syms, freq = words[i], freqs[i]
        last = len(syms) - 1
        out: list[str] = []
        j = k = 0  # syms[j:] is not yet in out; the next site starts at k or later
        while True:
            try:
                k = syms.index(a, k, last)
            except ValueError:
                break
            if syms[k + 1] != b:
                k += 1
                continue
            out += syms[j:k]
            if out:  # out[-1] is ab, not b, when the last site ended at k
                delta[out[-1], a] -= freq
                delta[out[-1], ab] += freq
                where[out[-1], ab].add(i)
            if k < last - 1:
                delta[b, syms[k + 2]] -= freq
                delta[ab, syms[k + 2]] += freq
                where[ab, syms[k + 2]].add(i)
            out.append(ab)
            j = k = k + 2
        if j:  # else an earlier merge took the pair out of this word
            out += syms[j:]
            words[i] = out
    return delta


def _fuse(syms: Sequence[str], pair: tuple[str, str]) -> list[str]:
    """Replace every occurrence of the pair, left to right, non-overlapping."""
    a, b = pair
    out: list[str] = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def _segment_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    syms = list(word)
    while len(syms) > 1:
        best_rank = None
        best_pair = None
        for pair in zip(syms, syms[1:]):
            rank = ranks.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank, best_pair = rank, pair
        if best_pair is None:
            break
        syms = _fuse(syms, best_pair)
    return syms


class _Segments(dict):
    """A model's memo: ``word -> (ids, text)``, the word's ids (end-of-word
    included) and their ids-file text, segmented on first lookup; emptied at
    ``MEMO_WORDS`` words. It holds the merge ranks and vocabulary, not the model."""

    __slots__ = ("ranks", "vocab", "eow_id")

    def __init__(self, model: BpeModel) -> None:
        super().__init__()
        self.ranks = {pair: i for i, pair in enumerate(model.merges)}
        self.vocab, self.eow_id = model.vocab, model.eow_id

    def __missing__(self, word: str) -> tuple[tuple[int, ...], str]:
        if len(self) >= MEMO_WORDS:
            self.clear()
        vocab = self.vocab
        ids = (*(vocab.get(sym, UNK_ID) for sym in _segment_word(word, self.ranks)), self.eow_id)
        entry = self[word] = (ids, " ".join(map(str, ids)))
        return entry


def bpe_apply(model: BpeModel, text: str) -> list[int]:
    """Encode whitespace-split text; every word ends with the end-of-word id.

    Residual symbols outside the vocabulary map to the unk id. Each distinct
    word is segmented once per model and then read from the model's memo.
    """
    ids: list[int] = []
    for word_ids, _ in map(model._segments.__getitem__, text.split()):
        ids.extend(word_ids)
    return ids


def bpe_apply_line(model: BpeModel, text: str) -> str:
    """``bpe_apply(model, text)`` as a line of an ids file, without its newline."""
    return " ".join([word_text for _, word_text in map(model._segments.__getitem__, text.split())])


class IdText(dict):
    """``id -> decimal text``, made on first lookup; emptied at ``MEMO_IDS``
    ids, so its size depends on neither the vocabulary nor the corpus."""

    __slots__ = ()

    def __missing__(self, token_id: int) -> str:
        if len(self) >= MEMO_IDS:
            self.clear()
        text = self[token_id] = str(token_id)
        return text

    def line(self, ids: Iterable[int]) -> str:
        """``ids`` as a line of an ids file, without its newline."""
        return " ".join(map(self.__getitem__, ids))


def bpe_decode(model: BpeModel, ids: Sequence[int]) -> str:
    """Inverse of ``bpe_apply`` on text over the training character set;
    unknown-id positions decode to the literal unk token, marking the loss."""
    symbols = model.id_to_symbol()
    words: list[str] = []
    current: list[str] = []
    for i in ids:
        sym = symbols.get(i)
        if sym is None:
            raise BpeError(f"id {i} not in vocabulary")
        if sym == END_OF_WORD:
            words.append("".join(current))
            current = []
        else:
            current.append(sym)
    if current:
        words.append("".join(current))
    return " ".join(words)


def dump_model(model: BpeModel, fh: IO[str]) -> None:
    """Text format: header lines, the initial alphabet, then one merge per line."""
    # Alphabet entries are the only single-character symbols in the vocabulary.
    alphabet = [s for s, _ in sorted(model.vocab.items(), key=lambda kv: kv[1]) if len(s) == 1]
    fh.write("bpe-model v1\n")
    fh.write(f"language {model.language}\n")
    fh.write(f"end_of_word {END_OF_WORD}\n")
    fh.write(f"specials {' '.join(SPECIAL_TOKENS)}\n")
    fh.write(f"alphabet {len(alphabet)}\n")
    for sym in alphabet:
        fh.write(sym + "\n")
    fh.write(f"merges {len(model.merges)}\n")
    for a, b in model.merges:
        fh.write(f"{a} {b}\n")


def save_model(model: BpeModel, path: str) -> None:
    """:func:`dump_model` to ``path``; a write that fails part-way leaves an
    existing file at ``path`` as it was."""
    with replace_on_success(path) as (fh,):
        dump_model(model, fh)


def _header_field(lines: Sequence[str], index: int, keyword: str, read=str):
    """``read`` of what follows ``keyword`` on line ``index``; else ``line N: ...``."""
    head, _, value = lines[index].partition(" ") if index < len(lines) else ("", "", "")
    if head != keyword:
        raise ValueError(f"line {index + 1}: expected {keyword!r}")
    try:
        return read(value)
    except ValueError as exc:  # a count that is not ASCII decimal
        raise ValueError(f"line {index + 1}: {exc}") from None


def load_model(path: str) -> BpeModel:
    lines = [text for _, _, text in read_lines([path])]
    if lines[:1] != ["bpe-model v1"]:
        raise BpeError(f"unsupported model header in {path}: {''.join(lines[:1])!r}")
    try:
        language = _header_field(lines, 1, "language")
        # Fixed lines: the ids of the specials and end-of-word do not come from the file.
        for index, keyword, value in ((2, "end_of_word", END_OF_WORD),
                                      (3, "specials", " ".join(SPECIAL_TOKENS))):
            if _header_field(lines, index, keyword) != value:
                raise ValueError(f"line {index + 1}: expected '{keyword} {value}', "
                                 f"got {lines[index]!r}")
        n_alpha = _header_field(lines, 4, "alphabet", read_int)
        alphabet = lines[5 : 5 + n_alpha]
        pos = 5 + n_alpha
        n_merges = _header_field(lines, pos, "merges", read_int)
        if len(lines) != pos + 1 + n_merges:
            raise ValueError(f"{len(lines)} lines, but the header counts {n_alpha} alphabet "
                             f"and {n_merges} merge lines")
        for lineno, symbol in enumerate(alphabet, start=6):
            if len(symbol) != 1:
                raise ValueError(f"line {lineno}: expected one character, got {symbol!r}")
        merges = [tuple(line.split(" ")) for line in lines[pos + 1 :]]
        known = set(alphabet)  # and, as each merge is read, its output
        for lineno, merge in enumerate(merges, start=pos + 2):
            if len(merge) != 2 or not all(merge):
                raise ValueError(f"line {lineno}: expected 'LEFT RIGHT', got {' '.join(merge)!r}")
            for symbol in merge:
                if symbol not in known:
                    raise ValueError(f"line {lineno}: unknown symbol {symbol!r}")
            known.add(merge[0] + merge[1])
    except (IndexError, ValueError) as exc:
        raise BpeError(f"malformed model file {path}: {exc}") from exc
    return BpeModel(tuple(merges), _build_vocab(alphabet, merges), language)


class MaskingConfig(namedtuple("MaskingConfig", "mask_rate seed")):
    """The selection rate, and the seed of the stream that :func:`mask_tokens`
    uses when given none; selected tokens split a fixed 80/10/10."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, mask_rate: float = 0.15, seed: int = 0) -> "MaskingConfig":
        if not 0.0 <= mask_rate <= 1.0:
            raise ValueError(f"mask_rate must be in [0, 1], got {mask_rate}")
        return tuple.__new__(cls, (mask_rate, seed))


def mask_tokens(
    ids: Sequence[int], config: MaskingConfig, vocab_size: int, *, rng: Rng | None = None
) -> tuple[list[int], list[int]]:
    """Corrupt a subword id sequence for MLM training.

    Returns ``(masked_ids, labels)``. Special-token positions are never
    selected; a selected one becomes the mask id (80%), keeps its id (10%)
    or takes a random non-special id (10%). Draws come from ``rng``, else
    from ``run_streams(config.seed)(0)``. Stream consumption order: one
    uniform draw per candidate position, then for selected positions one
    draw for the replace/keep/resample decision and, only when resampling,
    one bounded-integer draw.
    """
    n_special = len(SPECIAL_TOKENS)
    if vocab_size <= n_special:
        raise ValueError(f"vocab_size must exceed {n_special}")
    if rng is None:
        rng = run_streams(config.seed)(0)

    cut = math.ceil(config.mask_rate * (1 << 53)) << 11  # u < cut: random() < rate
    masked = list(ids)
    labels = [IGNORE_LABEL] * len(masked)
    candidates = [i for i, token_id in enumerate(masked) if token_id >= n_special]
    for i, u in zip(candidates, rng.u64s()):  # candidates first: zip then draws no extra
        if u >= cut:
            continue
        labels[i] = masked[i]
        u = rng.random()
        if u < CUT_MASK:
            masked[i] = MASK_ID
        elif u < CUT_KEEP:
            pass
        else:
            masked[i] = n_special + rng.randbelow(vocab_size - n_special)
    return masked, labels


def read_ids(text: str) -> list[int]:
    """The ids of one line: whitespace-separated ASCII decimal integers
    (:func:`files.read_int`). Any other token raises ``ValueError`` naming it."""
    if text.isascii() and "_" not in text:  # two C-level scans: the common line pays no more
        return list(map(int, text.split()))
    try:
        return list(map(read_int, text.split()))
    except ValueError as exc:
        raise ValueError(f"id {exc}") from None


def read_ids_file(path: str) -> list[list[int]]:
    """Each line's ids (:func:`read_ids`). A file that cannot be read, is not
    UTF-8 or holds a token that is not an id raises ``cannot read PATH: ...``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [read_ids(line) for line in fh]
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not an integer
        raise BpeError(f"cannot read {path}: {exc}") from exc
