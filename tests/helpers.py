"""Writers and readers that only the tests need: embedding containers in the
formats of ``docs/embedding-format.md`` and the alignment lines that
``synth generate`` writes."""

from __future__ import annotations

import struct

import numpy as np

from treelab.retrieval import POOLED_MAGIC, TOKEN_MAGIC, EmbeddingMatrix, RetrievalError
from treelab.synthlang import SynthError


def write_token_embeddings(path: str, embeddings: EmbeddingMatrix) -> None:
    max_tokens = max((s.vectors.shape[0] for s in embeddings.sentences), default=0)
    with open(path, "wb") as fh:
        fh.write(TOKEN_MAGIC)
        fh.write(struct.pack("<4I", len(embeddings), max_tokens, embeddings.dim, embeddings.layer))
        for sent in embeddings.sentences:
            fh.write(struct.pack("<I", sent.vectors.shape[0]))
            fh.write(np.asarray(sent.special, dtype=np.uint8).tobytes())
            fh.write(np.asarray(sent.vectors, dtype="<f4").tobytes())


def write_pooled_embeddings(path: str, matrix: np.ndarray, layer: int = 0) -> None:
    matrix = np.asarray(matrix, dtype="<f4")
    if matrix.ndim != 2:
        raise RetrievalError("pooled matrix must be 2-D (sentences, dim)")
    with open(path, "wb") as fh:
        fh.write(POOLED_MAGIC)
        fh.write(struct.pack("<3I", matrix.shape[0], matrix.shape[1], layer))
        fh.write(matrix.tobytes())


def parse_alignment(line: str) -> tuple[tuple[int, int], ...]:
    """The ``(i, j)`` pairs of one ``i-j`` alignment line."""
    pairs = []
    for token in line.split():
        left, _, right = token.partition("-")
        try:
            pairs.append((int(left), int(right)))
        except ValueError as exc:
            raise SynthError(f"bad alignment token {token!r}") from exc
    return tuple(pairs)
