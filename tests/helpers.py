"""Code that only the tests need: writers and readers of embedding containers
in the formats of ``docs/embedding-format.md`` and of the alignment lines that
``synth generate`` writes, a FIFO input, reference versions of tree walks
that the program now does in fewer passes, an inversion count of its own, a
scalar SplitMix64 stream with a draw count taken from the state, and the
linear-scan weighted draw that the grammar sampler's tables replace."""

from __future__ import annotations

import math
import os
import struct
import threading
from bisect import bisect_right
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, MutableSequence, Sequence

import numpy as np

from treelab.retrieval import POOLED_MAGIC, TOKEN_MAGIC, EmbeddingMatrix, RetrievalError
from treelab.rng import GOLDEN, Rng, mix64
from treelab.synthlang import SynthError
from treelab.transform import AblationSpec
from treelab.treebank import Sentence, TreeNode, iter_nodes, rebuild


def write_token_embeddings(path: str, embeddings: EmbeddingMatrix) -> None:
    max_tokens = max((len(vectors) for vectors, _ in embeddings.sentences), default=0)
    with open(path, "wb") as fh:
        fh.write(TOKEN_MAGIC)
        fh.write(struct.pack("<4I", len(embeddings), max_tokens, embeddings.dim, embeddings.layer))
        for vectors, special in embeddings.sentences:
            fh.write(struct.pack("<I", len(vectors)))
            fh.write(np.asarray(special, dtype=np.uint8).tobytes())
            fh.write(np.asarray(vectors, dtype="<f4").tobytes())


def write_pooled_embeddings(path: str, matrix: np.ndarray, layer: int = 0) -> None:
    matrix = np.asarray(matrix, dtype="<f4")
    if matrix.ndim != 2:
        raise RetrievalError("pooled matrix must be 2-D (sentences, dim)")
    with open(path, "wb") as fh:
        fh.write(POOLED_MAGIC)
        fh.write(struct.pack("<3I", matrix.shape[0], matrix.shape[1], layer))
        fh.write(matrix.tobytes())


@contextmanager
def fifo_holding(path: Path, data: bytes) -> Iterator[str]:
    """``path`` made a FIFO that a thread writes ``data`` into once a reader opens it."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    yield str(path)
    writer.join(timeout=10)
    assert not writer.is_alive()


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


def iter_leaves(tree: TreeNode) -> Iterator[TreeNode]:
    """The leaves in pre-order."""
    return (node for node in iter_nodes(tree) if node.is_leaf)


def reference_remove_composition(tree: TreeNode, spec: AblationSpec, rng: Rng) -> TreeNode:
    """``remove_composition`` as a walk for the intermediate nodes' pre-order
    ranks, then a ``rebuild`` fold that splices and shuffles in ``combine``."""
    ranks = []  # each intermediate node's pre-order rank, in post-order
    found = 0
    stack: list = list(reversed(tree.children))  # the root is no candidate
    while stack:
        item = stack.pop()
        if type(item) is int:  # popped after the candidate's whole subtree
            ranks.append(item)
        elif item.children:
            if len(item.children) > 1:
                stack.append(found)
                found += 1
            stack.extend(reversed(item.children))
    n_remove = math.floor(spec.alpha * len(ranks) + 0.5)
    removed = [False] * len(ranks)
    if n_remove > 0:
        order = list(range(len(ranks)))
        rng.shuffle(order)
        selected = set(order[:n_remove])
        removed = [rank in selected for rank in ranks]
    verdicts = iter(removed)

    def combine(node: TreeNode, values: list) -> TreeNode | tuple[TreeNode, ...]:
        kids: list[TreeNode] = []
        for value in values:
            if type(value) is tuple:  # a removed child's children
                kids.extend(value)
            else:
                kids.append(value)
        if node is not tree and len(node.children) > 1 and next(verdicts):
            return tuple(kids)
        if spec.shuffle_after and len(kids) >= 2:
            rng.shuffle(kids)
        return TreeNode(node.label, tuple(kids))

    return rebuild(tree, combine)


def reference_serialize(tree: TreeNode) -> str:
    """The canonical single-space form, written by a walk of its own."""
    parts = []
    stack: list = [tree]
    while stack:
        node = stack.pop()
        if node is None:
            parts.append(")")
        elif node.is_leaf:
            parts.append(f" ({node.label} {node.token})")
        else:
            parts.append(" (" + node.label)
            stack.append(None)
            stack.extend(reversed(node.children))
    return "".join(parts)[1:]


def reference_yield(tree: TreeNode) -> Sentence:
    """The leaves' ``(token, origin)`` in order, by a walk of their own; if no
    leaf has an origin, 0..n-1 in order."""
    leaves = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.extend(reversed(node.children))
    if all(node.origin is None for node in leaves):
        return Sentence.from_surfaces(node.token for node in leaves)
    return Sentence(tuple((node.token, node.origin) for node in leaves))


def merge_sort_inversions(values: Sequence[int]) -> int:
    """Pairs i < j with values[i] > values[j], by a bottom-up merge sort: when two
    sorted neighbouring runs merge, each value of the right run passes the values
    of the left run above it."""
    runs = [[value] for value in values]
    inversions = 0
    while len(runs) > 1:
        merged = []
        for left, right in zip(runs[::2], runs[1::2]):
            inversions += sum(len(left) - bisect_right(left, value) for value in right)
            merged.append(sorted(left + right))
        runs = merged + runs[len(merged) * 2:]
    return inversions


MASK64 = (1 << 64) - 1


def draws_between(start: int, end: int) -> int:
    """How many draws take a stream from state ``start`` to state ``end``:
    each draw adds ``GOLDEN``, so ``(end - start) * GOLDEN**-1 mod 2**64``."""
    return (end - start) * pow(GOLDEN, -1, 1 << 64) & MASK64


class CountingRng(Rng):
    """A stream that counts its draws from its state, however they were made."""

    __slots__ = ("start",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.start = self._state

    @property
    def draws(self) -> int:
        return draws_between(self.start, self._state)


def unmix64(y: int) -> int:
    """The ``z`` with ``mix64(z) == y``: each xor-shift undone, each multiply
    undone by the multiplier's inverse mod 2**64."""
    def unshift(y: int, shift: int) -> int:
        z = y
        for _ in range(64 // shift):
            z = y ^ (z >> shift)
        return z

    z = unshift(y, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64
    return unshift(z, 30)


def seed_drawing(u: int, position: int) -> int:
    """A seed whose stream's draw number ``position`` (from 0) is ``u``."""
    return (unmix64(u) - (position + 1) * GOLDEN) & MASK64


class ScalarRng:
    """The stream as ``rng.py``'s docstring defines it, one ``mix64`` per
    draw and the exact rejection limit on every draw."""

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def random(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randbelow(self, n: int) -> int:
        if n == 1:
            return 0  # no draw
        limit = (1 << 64) - (1 << 64) % n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, seq: MutableSequence) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randbelow(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def weighted_index(rng: Rng | ScalarRng, weights: Sequence[float]) -> int:
    """An index drawn in proportion to non-negative weights, by a linear scan:
    one ``random()`` draw times the weights' sum, and the first index whose
    running sum exceeds it, else the last index."""
    total = 0.0
    for w in weights:
        if w < 0:
            raise ValueError("negative weight")
        total += w
    if total <= 0:
        raise ValueError("weights sum to zero")
    x = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if x < acc:
            return i
    return len(weights) - 1
