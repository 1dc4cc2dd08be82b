"""Sentence-retrieval evaluation over externally produced embeddings.

The encoder lives elsewhere: this module ingests per-token vectors from a
binary export (or an already-pooled dense matrix), mean-pools them while
skipping positions flagged as special tokens, and scores aligned pairs by
cosine nearest neighbor. A token file is pooled straight from its bytes:
each sentence's flags and float32 vectors are views of them, summed in
float64 into that sentence's row, with no per-sentence copy. Top-1 accuracy
is the fraction of queries whose nearest target row has the query's own
index; ties go to the lowest index, so a tie is a miss unless the lowest
tied index is the aligned one.

Similarities are float64 and computed for ``BLOCK_ROWS`` queries at a
time, so memory is O(block x N), not O(N^2). The rows are split into
near-equal blocks (``np.array_split``), so no block has a single row unless
N is 1: a one-row product takes another BLAS path, whose sums can differ
from the full product's in the last bit. Each block's rows are exactly the
rows the full matrix would have, so the nearest index, the best-minus-second
gap and the mean gap over all queries are the same bits as with the full
matrix.

Binary layouts (both little-endian; see docs/embedding-format.md):

``EMBTOK01`` token file: 8-byte magic, uint32 header (N, max_tokens, dim,
layer), then per sentence a uint32 token count T, T special-flag bytes,
and T*dim float32 values.

``EMBPOOL1`` pooled file: 8-byte magic, uint32 header (N, dim, layer),
then N*dim float32 values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

TOKEN_MAGIC = b"EMBTOK01"
POOLED_MAGIC = b"EMBPOOL1"
BLOCK_ROWS = 256  # query rows per similarity block in top1_retrieval


class RetrievalError(ValueError):
    pass


@dataclass(frozen=True)
class SentenceTokens:
    """Token vectors for one sentence with a per-token special flag."""

    vectors: np.ndarray  # (tokens, dim) float32
    special: np.ndarray  # (tokens,) bool

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 1:
            raise RetrievalError(f"token vectors must be (tokens, dim), got {self.vectors.shape}")
        if self.special.shape != (self.vectors.shape[0],):
            raise RetrievalError(
                f"special flags shape {self.special.shape} does not match "
                f"{self.vectors.shape[0]} tokens"
            )


@dataclass(frozen=True)
class EmbeddingMatrix:
    """A corpus of token-level sentence embeddings sharing one dimension."""

    sentences: tuple[SentenceTokens, ...]
    dim: int
    layer: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise RetrievalError(f"dimension must be positive, got {self.dim}")
        for i, sent in enumerate(self.sentences):
            if sent.vectors.shape[1] != self.dim:
                raise RetrievalError(
                    f"sentence {i} has dimension {sent.vectors.shape[1]}, expected {self.dim}"
                )

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class RetrievalResult:
    top1_accuracy: float
    per_query_nearest: tuple[int, ...]
    margin: float


def mean_pool(vectors: np.ndarray, special: Sequence[bool] | np.ndarray) -> np.ndarray:
    """Arithmetic mean of the non-special token vectors, summed in float64.

    Raises when every position is flagged special: there is nothing to
    pool, and silently returning zeros would poison cosine scoring later.
    """
    vectors = np.asarray(vectors)
    keep = ~np.asarray(special, dtype=bool)
    if keep.shape != (vectors.shape[0],):
        raise RetrievalError(
            f"{len(keep)} special flags for {vectors.shape[0]} token vectors"
        )
    kept = np.count_nonzero(keep)
    if not kept:
        raise RetrievalError("all tokens flagged special; nothing to pool")
    # mean(axis=0, dtype=np.float64)'s sum and division, without its per-call overhead
    return np.add.reduce(vectors[keep], axis=0, dtype=np.float64) / kept


def _pool(sentences: Iterable[tuple[np.ndarray, np.ndarray]], rows: int, dim: int) -> np.ndarray:
    """A (rows, dim) float64 :func:`mean_pool` row for each of at most ``rows`` sentences."""
    pooled = np.empty((rows, dim))
    for i, (vectors, special) in enumerate(sentences):
        try:
            pooled[i] = mean_pool(vectors, special)
        except RetrievalError as exc:
            raise RetrievalError(f"sentence {i}: {exc}") from exc
    return pooled


def pool_matrix(embeddings: EmbeddingMatrix) -> np.ndarray:
    """Pool every sentence into one row; (N, dim) float64."""
    return _pool(((s.vectors, s.special) for s in embeddings.sentences),
                 len(embeddings), embeddings.dim)


def _row_norms(matrix: np.ndarray, name: str) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise RetrievalError(f"zero-norm vector at row {bad[0]} of {name}")
    return norms[:, None]


def top1_retrieval(source: np.ndarray, target: np.ndarray) -> RetrievalResult:
    """Cosine nearest-neighbor scoring of aligned source/target rows.

    Row i of ``source`` is aligned with row i of ``target``. The margin is
    the mean gap between the best and second-best cosine per query (0.0
    when there is only one target).
    """
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.ndim != 2 or target.ndim != 2:
        raise RetrievalError("pooled embeddings must be 2-D (sentences, dim)")
    if source.shape[0] == 0:
        raise RetrievalError("no sentences to retrieve")
    if source.shape != target.shape:
        raise RetrievalError(
            f"source shape {source.shape} does not match target shape {target.shape}"
        )
    n = source.shape[0]
    source_norms = _row_norms(source, "source")
    target_t = (target / _row_norms(target, "target")).T
    blocks = -(-n // BLOCK_ROWS)
    nearest, gaps = [], []
    for rows, norms in zip(np.array_split(source, blocks), np.array_split(source_norms, blocks)):
        sims = (rows / norms) @ target_t
        nearest.append(sims.argmax(axis=1))  # argmax takes the lowest index on ties
        if n >= 2:
            top2 = np.partition(sims, -2, axis=1)[:, -2:]
            gaps.append(top2[:, 1] - top2[:, 0])
    nearest = np.concatenate(nearest)
    accuracy = float(np.mean(nearest == np.arange(n)))
    margin = float(np.mean(np.concatenate(gaps))) if gaps else 0.0
    return RetrievalResult(accuracy, tuple(int(i) for i in nearest), margin)


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise RetrievalError(f"cannot read {path}: {exc}") from exc


def _read_file(path: str, magic: bytes, kind: str, header: str,
               data: bytes | None) -> tuple[bytes, tuple]:
    """The file's bytes (``data``, if already read) and header fields, magic checked."""
    data = _read_bytes(path) if data is None else data
    if data[:8] != magic:
        raise RetrievalError(f"{path}: not a {kind} embedding file (bad magic {data[:8]!r})")
    try:
        return data, struct.unpack_from(header, data, 8)
    except struct.error:
        raise RetrievalError(f"{path}: truncated header ({len(data)} bytes)") from None


def _token_sentences(path: str, data: bytes | None) -> Iterator:
    """A token file's ``(rows, dim, layer)``, ``rows`` being how many sentences its
    bytes can pool (each holds a count, a flag and ``dim`` floats), then each
    sentence's ``(count, dim)`` float32 vectors and flags, as views of the bytes."""
    data, (n, max_tokens, dim, layer) = _read_file(path, TOKEN_MAGIC, "token", "<4I", data)
    if dim < 1:
        raise RetrievalError(f"{path}: dimension must be positive, got {dim}")
    yield min(n, (len(data) - 24) // (5 + 4 * dim)), dim, layer
    end = 24
    for i in range(n):
        start, end = end, end + 4
        if end <= len(data):  # else the count itself is cut off
            count = int.from_bytes(data[start:end], "little")
            if count > max_tokens:
                raise RetrievalError(
                    f"{path}: sentence {i} has {count} tokens, header says max {max_tokens}"
                )
            end += count + 4 * count * dim
        if end > len(data):
            raise RetrievalError(f"{path}: truncated at sentence {i}")
        yield (np.frombuffer(data, "<f4", count * dim, start + 4 + count).reshape(count, dim),
               np.frombuffer(data, np.uint8, count, start + 4))


def read_token_embeddings(path: str) -> EmbeddingMatrix:
    sentences = _token_sentences(path, None)
    _, dim, layer = next(sentences)
    return EmbeddingMatrix(tuple(SentenceTokens(vectors.copy(), special.astype(bool))
                                 for vectors, special in sentences), dim, layer)


def read_pooled_embeddings(path: str, data: bytes | None = None) -> tuple[np.ndarray, int]:
    """Returns ``(matrix, layer)``."""
    data, (n, dim, layer) = _read_file(path, POOLED_MAGIC, "pooled", "<3I", data)
    expected = 8 + 12 + 4 * n * dim
    if len(data) < expected:
        raise RetrievalError(f"{path}: truncated ({len(data)} bytes, expected {expected})")
    matrix = np.frombuffer(data, dtype="<f4", count=n * dim, offset=20).reshape(n, dim).copy()
    return matrix.astype(np.float64), layer


def read_embeddings(path: str) -> tuple[np.ndarray, int]:
    """Accept either format and return a pooled ``(matrix, layer)``."""
    data = _read_bytes(path)
    if data[:8] == POOLED_MAGIC:
        return read_pooled_embeddings(path, data)
    if data[:8] != TOKEN_MAGIC:
        raise RetrievalError(f"{path}: unrecognized embedding file (magic {data[:8]!r})")
    sentences = _token_sentences(path, data)
    rows, dim, layer = next(sentences)
    return _pool(sentences, rows, dim), layer
