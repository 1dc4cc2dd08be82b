from __future__ import annotations

import collections

import hypothesis.strategies as st
import pytest
from hypothesis import given

from helpers import MASK64, CountingRng, ScalarRng, draws_between, seed_drawing
from treelab.rng import GOLDEN, Rng, _draws, mix64, run_streams, stream_seed

# Reference outputs of the published SplitMix64 algorithm. Computed with an
# independent implementation of the textbook constants; any change to the
# stream definition must fail here before it silently shifts every seeded
# artifact in the repo.
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
)
SPLITMIX64_SEED42 = (0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52)


def test_matches_splitmix64_reference_vector():
    rng = Rng(0)
    assert tuple(rng.next_u64() for _ in range(5)) == SPLITMIX64_SEED0
    rng = Rng(42)
    assert tuple(rng.next_u64() for _ in range(3)) == SPLITMIX64_SEED42


def test_mix64_is_a_bijection_sample():
    seen = {mix64(z) for z in range(4096)}
    assert len(seen) == 4096


def test_stream_seed_formula():
    # The documented two-step derivation, spelled out.
    expected = mix64((mix64((99 + GOLDEN) & ((1 << 64) - 1)) + 3) & ((1 << 64) - 1))
    assert stream_seed(99, 3) == expected == 0xB1DAA5E7337EE72F


@given(st.integers(-(2**70), 2**70), st.integers(0, 2**64 - 1))
def test_a_runs_streams_are_the_formulas(g, i):
    """``run_streams(g)(i)`` and ``Rng(stream_seed(g, i))`` are one stream,
    seeded by the documented formula."""
    mask = (1 << 64) - 1
    expected = mix64((mix64((g + GOLDEN) & mask) + i) & mask)
    streams = [run_streams(g)(i), Rng(stream_seed(g, i)), Rng(expected)]
    assert len({tuple(rng.next_u64() for _ in range(3)) for rng in streams}) == 1


@given(st.integers(0, 2**64 - 1), st.integers(0, 10_000), st.integers(0, 10_000))
def test_stream_seed_distinct_across_indices(g, i, j):
    if i != j:
        assert stream_seed(g, i) != stream_seed(g, j)


def test_random_unit_interval_and_pin():
    rng = Rng(7)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert Rng(7).random() == pytest.approx(0.3898297483912715, abs=0)


class TestRandbelow:
    def test_bounds(self):
        rng = Rng(1)
        for n in (1, 2, 3, 7, 100, 2**40):
            for _ in range(50):
                assert 0 <= rng.randbelow(n) < n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rng(0).randbelow(0)
        with pytest.raises(ValueError):
            Rng(0).randbelow(-3)

    def test_pinned_sequence(self):
        rng = Rng(2024)
        assert [rng.randbelow(10) for _ in range(8)] == [1, 2, 1, 5, 8, 9, 1, 4]

    def test_roughly_uniform(self):
        rng = Rng(9)
        counts = collections.Counter(rng.randbelow(4) for _ in range(40_000))
        for value in range(4):
            assert counts[value] == pytest.approx(10_000, rel=0.05)


class TestShuffle:
    def test_is_permutation(self):
        rng = Rng(55)
        for size in (0, 1, 2, 5, 30):
            items = list(range(size))
            rng.shuffle(items)
            assert sorted(items) == list(range(size))

    def test_pinned(self):
        items = list(range(8))
        Rng(123).shuffle(items)
        assert items == [6, 0, 7, 2, 1, 4, 5, 3]

    def test_all_permutations_reachable(self):
        counts = collections.Counter()
        rng = Rng(77)
        for _ in range(6000):
            items = [0, 1, 2]
            rng.shuffle(items)
            counts[tuple(items)] += 1
        assert len(counts) == 6
        for count in counts.values():
            assert count == pytest.approx(1000, rel=0.2)


def test_run_stream_reproducible():
    a = run_streams(99)(3)
    b = run_streams(99)(3)
    assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]
    assert run_streams(99)(3).next_u64() == 0xD1CE272BF5500D6D


def test_run_streams_differ_by_sentence():
    first = run_streams(0)(0).next_u64()
    second = run_streams(0)(1).next_u64()
    assert first != second


@pytest.mark.parametrize("seed", [0, 1 << 63, MASK64])
def test_a_block_is_the_scalar_outputs(seed):
    for k in range(1, 33):
        assert list(_draws(seed, k)) == [mix64(seed + (i + 1) * GOLDEN) for i in range(k)]
    for k in (0, 33):
        with pytest.raises(ValueError):
            _draws(seed, k)


# Where a draw can fall in a stream: first, mid-block, last of the first block
# (16 draws), first after a refill, last of the second block (32) and first of
# the third.
POSITIONS = (0, 7, 15, 16, 47, 48)
RISKY = (1 << 64) - (1 << 32)


def limit(n: int) -> int:
    return (1 << 64) - (1 << 64) % n


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("n", [2, 3, 10, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 7])
def test_randbelow_at_the_rejection_limit_is_the_scalar_stream(position, n):
    """Outputs from 2**64 - 2**32 up, which real seeds hardly ever draw: the
    same result, draw count and next draw as the scalar stream."""
    for u in sorted({RISKY, limit(n) - 1, min(limit(n), MASK64), MASK64}):
        seed = seed_drawing(u, position)
        ours, theirs = CountingRng(seed), ScalarRng(seed)
        for _ in range(position):
            assert ours.next_u64() == theirs.next_u64()
        assert ours.randbelow(n) == theirs.randbelow(n)
        assert ours.draws == draws_between(seed, theirs._state) == position + 1 + (u >= limit(n))
        assert ours.next_u64() == theirs.next_u64()


@pytest.mark.parametrize("position", POSITIONS)
def test_shuffle_at_the_rejection_limit_is_the_scalar_stream(position):
    n = 60 - position  # the draw at ``position`` picks one of n places
    for u in (limit(n) - 1, limit(n), MASK64):
        seed = seed_drawing(u, position)
        ours, theirs = CountingRng(seed), ScalarRng(seed)
        mine, reference = list(range(60)), list(range(60))
        ours.shuffle(mine)
        theirs.shuffle(reference)
        assert mine == reference
        assert ours.draws == draws_between(seed, theirs._state) == 59 + (u >= limit(n))
        assert ours.next_u64() == theirs.next_u64()


DRAWS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["next_u64", "random"]), st.none()),
    st.tuples(st.just("randbelow"), st.integers(1, 2**64)),
    st.tuples(st.just("shuffle"), st.integers(0, 80)),
    st.tuples(st.just("u64s"), st.integers(0, 40)),
), max_size=30)


@given(st.integers(0, MASK64), DRAWS)
def test_any_mix_of_draws_is_the_scalar_stream(seed, draws):
    """Every result, and the state after every call, across block refills;
    ``u64s`` steps come from one iterator, held across the other draws."""
    ours, theirs = Rng(seed), ScalarRng(seed)
    raw = ours.u64s()
    for name, arg in draws:
        if name == "u64s":
            assert [next(raw) for _ in range(arg)] == [theirs.next_u64() for _ in range(arg)]
        elif name == "shuffle":
            mine, reference = list(range(arg)), list(range(arg))
            ours.shuffle(mine)
            theirs.shuffle(reference)
            assert mine == reference
        else:
            args = () if arg is None else (arg,)
            assert getattr(ours, name)(*args) == getattr(theirs, name)(*args)
        assert ours._state == theirs._state
    assert ours.next_u64() == theirs.next_u64()
