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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, MutableSequence, Sequence

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer of a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


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
    """SplitMix64 stream with the few draw kinds this package needs."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & _MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randbelow(self, n: int) -> int:
        """Unbiased uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"randbelow needs n >= 1, got {n}")
        if n == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, seq: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle, drawing for i = n-1 .. 1."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randbelow(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Index drawn proportionally to non-negative weights."""
        total = 0.0
        for w in weights:
            if w < 0:
                raise ValueError("negative weight")
            total += w
        if total <= 0:
            raise ValueError("weights sum to zero")
        x = self.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if x < acc:
                return i
        return len(weights) - 1


@dataclass(frozen=True)
class SeedScheme:
    """Names one per-sentence stream inside a seeded corpus run.

    ``stream()`` is the only way operations should obtain randomness from a
    scheme; two schemes with equal fields always yield identical streams.
    """

    global_seed: int
    sentence_index: int = 0

    def stream(self) -> Rng:
        return run_streams(self.global_seed)(self.sentence_index)
