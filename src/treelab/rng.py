"""Deterministic random streams for per-sentence reproducibility.

Every randomized operation in this package draws from a SplitMix64 stream
whose seed is derived from ``(global_seed, sentence_index)``. Both the
derivation and the generator are fixed here bit for bit, so a pipeline
produces identical output across runs, platforms, Python versions, and
worker counts.

Stream definition (all arithmetic mod 2**64):

    GOLDEN = 0x9E3779B97F4A7C15
    mix64(z): z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
              z = (z ^ (z >> 27)) * 0x94D049BB133111EB
              return z ^ (z >> 31)
    state_{k+1} = state_k + GOLDEN;  output_k = mix64(state_{k+1})

    stream_seed(g, i) = mix64(mix64(g + GOLDEN) + i)

Uniform integers below ``n`` use unbiased modulo rejection, shuffles are
Fisher-Yates from the top index down. Do not change any of this without
bumping the provenance format version: golden outputs depend on it.

Evaluation: output_k depends only on ``state_0 + (k+1) * GOLDEN``, so an
``Rng`` computes its outputs in blocks, 16 for a stream's first block and
32 for each one after. ``_draws`` runs ``mix64`` once over one Python
integer that holds a block's states in 128-bit lanes, masking each lane
back to 64 bits after every step; a 64-bit value times a 64-bit constant
fits its lane, so no carry crosses lanes. Draws are handed out from the
block in stream order, and ``_state`` is always the state after the last
one handed out, so every draw, order and count is the scalar stream's.
Only this module reads the block: the draw kinds pop from it, and
``Rng.u64s`` gives an inner loop its raw outputs with no method call per draw.
For ``n <= 2**32``, rejection computes the exact limit
``2**64 - 2**64 % n`` only for an output of at least ``2**64 - 2**32``:
every smaller output lies below the limit of every such ``n``.
"""

from __future__ import annotations

import sys
from functools import cache
from typing import Callable, Iterator, MutableSequence

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # mix64's multipliers
_FIRST_BLOCK, _BLOCK = 16, 32  # outputs per block: a stream's first, then every later one
_RISKY = (1 << 64) - (1 << 32)  # below this, an output passes the limit of every n <= 2**32
# The low 64-bit half of each lane, in lane order, from the block's native-order bytes.
_LOW_HALVES = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


def mix64(z: int) -> int:
    """SplitMix64 finalizer of a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


@cache
def _lanes(k: int) -> tuple[int, int, int]:
    """For ``k`` 128-bit lanes: a 1 in each lane, ``(i+1) * GOLDEN`` in lane
    ``i``, and a 64-bit mask in each lane."""
    ones = sum(1 << 128 * i for i in range(k))
    return ones, sum((i + 1) * GOLDEN << 128 * i for i in range(k)), ones * _MASK64


def _draws(state: int, k: int) -> memoryview:
    """The next ``k <= 32`` outputs of the stream at ``state``: ``mix64``
    evaluated once over all ``k`` lanes."""
    if not 0 < k <= _BLOCK:
        raise ValueError(f"a block holds 1 to {_BLOCK} draws, not {k}")
    ones, steps, low = _lanes(k)
    z = (state * ones + steps) & low
    z = ((z ^ (z >> 30)) & low) * _MUL1 & low
    z = ((z ^ (z >> 27)) & low) * _MUL2 & low
    return memoryview((z ^ (z >> 31)).to_bytes(16 * k, sys.byteorder)).cast("Q")[_LOW_HALVES]


def run_streams(global_seed: int) -> Callable[[int], Rng]:
    """``sentence_index -> Rng`` for one seeded run: the stream seeded with
    ``stream_seed(global_seed, sentence_index)``, the run's ``mix64(g + GOLDEN)``
    computed once. Every per-sentence stream is made here."""
    base = mix64(global_seed + GOLDEN)
    return lambda sentence_index: Rng(mix64(base + sentence_index))


def stream_seed(global_seed: int, sentence_index: int) -> int:
    """Seed of the per-sentence stream; see the module docstring formula."""
    return run_streams(global_seed)(sentence_index)._state


class Rng:
    """SplitMix64 stream with the draw kinds this package needs: raw 64-bit
    outputs, floats in [0, 1), unbiased integers below n and shuffles.
    A weighted choice is a ``random()`` draw that its caller maps to an
    index itself (``synthlang`` by running sums of its weights)."""

    # _end: the state after the block's last output; _buf: the block's outputs
    # not yet handed out, last first, one list for the stream's life, so that
    # u64s can hold it; _block: the size of the next block.
    # Each draw kind pops from _buf itself: a call per draw is what blocks save.
    __slots__ = ("_end", "_buf", "_block")

    def __init__(self, seed: int) -> None:
        self._end = seed & _MASK64
        self._buf: list[int] = []
        self._block = _FIRST_BLOCK

    @property
    def _state(self) -> int:
        """The state after the last draw handed out."""
        return (self._end - len(self._buf) * GOLDEN) & _MASK64

    def _fill(self) -> list[int]:
        """The spent buffer refilled with the next block, last output first."""
        k = self._block
        self._block = _BLOCK
        self._buf[:] = _draws(self._end, k)[::-1].tolist()
        self._end = (self._end + k * GOLDEN) & _MASK64
        return self._buf

    def next_u64(self) -> int:
        buf = self._buf
        return buf.pop() if buf else self._fill().pop()

    def u64s(self) -> Iterator[int]:
        """The raw outputs, without end: each step is the stream's next draw,
        so draws of other kinds between steps take theirs in turn."""
        buf = self._buf
        while True:
            while buf:
                yield buf.pop()
            buf = self._fill()

    def random(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        buf = self._buf
        return ((buf.pop() if buf else self._fill().pop()) >> 11) * (1.0 / (1 << 53))

    def randbelow(self, n: int) -> int:
        """Unbiased uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"randbelow needs n >= 1, got {n}")
        if n == 1:
            return 0
        cut = _RISKY if n <= 1 << 32 else 0
        buf = self._buf
        u = buf.pop() if buf else (buf := self._fill()).pop()
        while u >= cut and u >= (1 << 64) - (1 << 64) % n:
            u = buf.pop() if buf else (buf := self._fill()).pop()
        return u % n

    def shuffle(self, seq: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle, drawing for i = n-1 .. 1."""
        cut = _RISKY if len(seq) <= 1 << 32 else 0
        buf = self._buf
        for i in range(len(seq) - 1, 0, -1):
            u = buf.pop() if buf else (buf := self._fill()).pop()
            while u >= cut and u >= (1 << 64) - (1 << 64) % (i + 1):
                u = buf.pop() if buf else (buf := self._fill()).pop()
            j = u % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]

