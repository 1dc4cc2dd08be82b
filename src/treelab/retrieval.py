"""Sentence-retrieval evaluation over externally produced embeddings.

The encoder lives elsewhere: this module ingests per-token vectors from a
binary export (or an already-pooled dense matrix), mean-pools them while
skipping positions flagged as special tokens, and scores aligned pairs by
cosine nearest neighbor. A file is read once, front to back, so a pipe
serves as well as a regular file. A token file is read one record at a time:
each sentence's flags and float32 vectors are views of that record's bytes,
summed in float64 into the sentence's row. No size read from a header is
allocated before its bytes have arrived: a record or a pooled file's matrix
is read in pieces of at most 1 MiB, and the pooled matrix grows as sentences
arrive. Bytes after the header's last record or row are an error. Top-1
accuracy is the fraction of queries whose nearest target row has the
query's own index; ties go to the lowest index, so a tie is a miss unless
the lowest tied index is the aligned one. :func:`read_embeddings` reads
either format into its pooled matrix; :func:`read_token_embeddings` gives a
token file's sentences as those views, which :func:`pool_matrix` pools by the
same code.

Similarities are float64 and computed for at most ``BLOCK_ROWS`` queries at
a time into one reused block, whose best two are then found in place. So
besides the two pooled matrices, retrieval holds the normalized target and
one block, and reading a token file holds about one record: memory is
O(N x (dim + block)), not O(N^2) and not the file's size. The rows are split
into near-equal blocks (``np.array_split``), so no block has a single row
unless N is 1: a one-row product takes another BLAS path, whose sums can
differ from the full product's in the last bit. Each block's rows are exactly
the rows the full matrix would have, so the nearest index, the
best-minus-second gap and the mean gap over all queries are the same bits as
with the full matrix.

Binary layouts (both little-endian; see docs/embedding-format.md):

``EMBTOK01`` token file: 8-byte magic, uint32 header (N, max_tokens, dim,
layer), then per sentence a uint32 token count T, T special-flag bytes,
and T*dim float32 values.

``EMBPOOL1`` pooled file: 8-byte magic, uint32 header (N, dim, layer),
then N*dim float32 values.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

TOKEN_MAGIC = b"EMBTOK01"
POOLED_MAGIC = b"EMBPOOL1"
BLOCK_ROWS = 64  # query rows per similarity block in top1_retrieval
_PIECE = 1 << 20  # most bytes asked for in one read of a record or matrix
_MAX_DIM = ((1 << 31) - 1) // 8  # widest float64 row a numpy dtype can describe


class RetrievalError(ValueError):
    pass


@dataclass(frozen=True)
class EmbeddingMatrix:
    """A token file's sentences, each a ``(vectors, special)`` pair: its
    ``(tokens, dim)`` float32 vectors and its ``(tokens,)`` special flags."""

    sentences: tuple[tuple[np.ndarray, np.ndarray], ...]
    dim: int
    layer: int = 0

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


def _pool(sentences: Iterable[tuple[np.ndarray, np.ndarray]], dim: int,
          where: str = "") -> np.ndarray:
    """A (N, dim) float64 :func:`mean_pool` row for each of the N sentences,
    in a matrix that grows as the rows arrive. An error names ``where`` (a file
    and ``": "``, or nothing) and the sentence."""
    def pooled() -> Iterator[np.ndarray]:
        for i, (vectors, special) in enumerate(sentences):
            try:
                yield mean_pool(vectors, special)
            except RetrievalError as exc:
                raise RetrievalError(f"{where}sentence {i}: {exc}") from exc
    return np.fromiter(pooled(), np.dtype((np.float64, dim)))


def pool_matrix(embeddings: EmbeddingMatrix) -> np.ndarray:
    """Pool every sentence into one row; (N, dim) float64."""
    return _pool(embeddings.sentences, embeddings.dim)


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
        raise RetrievalError("source has no sentences to retrieve")
    if source.shape != target.shape:
        raise RetrievalError(
            f"source shape {source.shape} does not match target shape {target.shape}"
        )
    n = source.shape[0]
    source_norms = _row_norms(source, "source")
    target_t = (target / _row_norms(target, "target")).T
    blocks = -(-n // BLOCK_ROWS)
    block = np.empty((-(-n // blocks), n))  # every block's similarities, in turn
    nearest, gaps = [], []
    for rows, norms in zip(np.array_split(source, blocks), np.array_split(source_norms, blocks)):
        sims = np.matmul(rows / norms, target_t, out=block[:len(rows)])
        nearest.append(sims.argmax(axis=1))  # argmax takes the lowest index on ties
        if n >= 2:
            sims.partition(-2, axis=1)  # in place: argmax has already read the block
            gaps.append(sims[:, -1] - sims[:, -2])
    nearest = np.concatenate(nearest)
    accuracy = float(np.mean(nearest == np.arange(n)))
    margin = float(np.mean(np.concatenate(gaps))) if gaps else 0.0
    return RetrievalResult(accuracy, tuple(int(i) for i in nearest), margin)


class _Hashed:
    """A binary reader that adds every byte it reads to ``digest``."""

    def __init__(self, fh: BinaryIO, digest) -> None:
        self._fh, self._digest = fh, digest

    def read(self, size: int = -1) -> bytes:
        data = self._fh.read(size)
        self._digest.update(data)
        return data


@contextmanager
def _opened(path: str, digest=None) -> Iterator[BinaryIO]:
    try:
        with open(path, "rb") as fh:
            yield fh if digest is None else _Hashed(fh, digest)
    except OSError as exc:
        raise RetrievalError(f"cannot read {path}: {exc}") from exc


def _read_up_to(fh: BinaryIO, size: int) -> bytes | bytearray:
    """The next ``size`` bytes of ``fh``, or as many as are left. A size taken
    from a header costs memory only as its bytes arrive: each read asks for at
    most ``_PIECE`` bytes."""
    if size <= _PIECE:
        return fh.read(size)
    data = bytearray()
    while len(data) < size and (piece := fh.read(min(size - len(data), _PIECE))):
        data += piece
    return data


def _header(fh: BinaryIO, path: str, fields: int) -> tuple[int, ...]:
    """The ``fields`` uint32 header fields that follow the magic."""
    data = fh.read(4 * fields)
    if len(data) < 4 * fields:
        raise RetrievalError(f"{path}: truncated header ({8 + len(data)} bytes)")
    return struct.unpack(f"<{fields}I", data)


def _check_end(fh: BinaryIO, path: str, n: int, what: str) -> None:
    if fh.read(1):
        raise RetrievalError(f"{path}: trailing bytes after {n} {what}(s)")


def _token_sentences(path: str, fh: BinaryIO) -> Iterator:
    """The ``(dim, layer)`` of the token file open in ``fh`` past its magic,
    then each sentence's ``(count, dim)`` float32 vectors and flags, as views
    of that one record's bytes; the file is read one record at a time."""
    n, max_tokens, dim, layer = _header(fh, path, 4)
    if dim < 1:
        raise RetrievalError(f"{path}: dimension must be positive, got {dim}")
    if dim > _MAX_DIM:
        raise RetrievalError(f"{path}: dimension {dim} is above {_MAX_DIM}")
    yield dim, layer
    for i in range(n):
        head = fh.read(4)
        count = int.from_bytes(head, "little")
        if len(head) == 4 and count > max_tokens:
            raise RetrievalError(
                f"{path}: sentence {i} has {count} tokens, header says max {max_tokens}"
            )
        size = count + 4 * count * dim
        body = _read_up_to(fh, size)
        if len(head) < 4 or len(body) < size:
            raise RetrievalError(f"{path}: truncated at sentence {i}")
        yield (np.frombuffer(body, "<f4", count * dim, count).reshape(count, dim),
               np.frombuffer(body, np.uint8, count))
    _check_end(fh, path, n, "sentence")


def _pooled_matrix(path: str, fh: BinaryIO) -> tuple[np.ndarray, int]:
    """The float64 matrix and layer of the pooled file open in ``fh`` past its magic."""
    n, dim, layer = _header(fh, path, 3)
    size = 4 * n * dim
    data = _read_up_to(fh, size)
    if len(data) < size:
        raise RetrievalError(f"{path}: truncated ({20 + len(data)} bytes, expected {20 + size})")
    _check_end(fh, path, n, "row")
    return np.frombuffer(data, "<f4", n * dim).reshape(n, dim).astype(np.float64), layer


def read_token_embeddings(path: str) -> EmbeddingMatrix:
    """A token file's sentences, as views of each record's bytes."""
    with _opened(path) as fh:
        magic = fh.read(8)
        if magic != TOKEN_MAGIC:
            raise RetrievalError(f"{path}: not a token embedding file (bad magic {magic!r})")
        sentences = _token_sentences(path, fh)
        dim, layer = next(sentences)
        return EmbeddingMatrix(tuple(sentences), dim, layer)


def read_embeddings(path: str, digest=None) -> tuple[np.ndarray, int]:
    """Accept either format and return a pooled ``(matrix, layer)``. A ``digest``
    (a :mod:`hashlib` object) is updated with every byte read: on return, the
    whole file's."""
    with _opened(path, digest) as fh:
        magic = fh.read(8)
        if magic == POOLED_MAGIC:
            return _pooled_matrix(path, fh)
        if magic != TOKEN_MAGIC:
            raise RetrievalError(f"{path}: unrecognized embedding file (magic {magic!r})")
        sentences = _token_sentences(path, fh)
        dim, layer = next(sentences)
        return _pool(sentences, dim, f"{path}: "), layer
