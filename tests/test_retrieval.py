from __future__ import annotations

import struct
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from helpers import fifo_holding, write_pooled_embeddings, write_token_embeddings
from treelab.cli import main
from treelab.retrieval import (
    BLOCK_ROWS,
    POOLED_MAGIC,
    TOKEN_MAGIC,
    EmbeddingMatrix,
    RetrievalError,
    mean_pool,
    pool_matrix,
    read_embeddings,
    read_token_embeddings,
    top1_retrieval,
)


def sent(vectors, special) -> tuple[np.ndarray, np.ndarray]:
    """One sentence of an ``EmbeddingMatrix``: float32 vectors and bool flags."""
    return np.asarray(vectors, dtype=np.float32), np.asarray(special, dtype=bool)


class TestMeanPool:
    def test_single_vector(self):
        np.testing.assert_allclose(mean_pool([[1.0, 2.0, 3.0]], [False]), [1.0, 2.0, 3.0])

    def test_skips_special_positions(self):
        pooled = mean_pool([[1.0, 0.0], [3.0, 4.0], [5.0, 6.0]], [False, True, False])
        np.testing.assert_allclose(pooled, [3.0, 3.0])

    def test_opposite_vectors_cancel(self):
        pooled = mean_pool([[2.0, -1.0], [-2.0, 1.0]], [False, False])
        np.testing.assert_allclose(pooled, [0.0, 0.0])

    def test_all_special_rejected(self):
        with pytest.raises(RetrievalError, match="nothing to pool"):
            mean_pool([[1.0, 2.0]], [True])

    def test_flag_length_mismatch(self):
        with pytest.raises(RetrievalError, match="2 special flags for 3 token vectors"):
            mean_pool([[1.0], [2.0], [3.0]], [False, True])

    def test_pool_matrix_names_offending_sentence(self):
        emb = EmbeddingMatrix(
            (sent([[1.0, 0.0]], [False]), sent([[2.0, 2.0]], [True])), dim=2
        )
        with pytest.raises(RetrievalError, match="sentence 1: all tokens flagged"):
            pool_matrix(emb)

    def test_pool_matrix_stacks_rows(self):
        emb = EmbeddingMatrix(
            (
                sent([[1.0, 0.0], [3.0, 0.0]], [False, False]),
                sent([[0.0, 5.0]], [False]),
            ),
            dim=2,
        )
        np.testing.assert_allclose(pool_matrix(emb), [[2.0, 0.0], [0.0, 5.0]])

    def test_empty_matrix_pools_to_empty(self):
        assert pool_matrix(EmbeddingMatrix((), dim=3)).shape == (0, 3)


class TestTop1:
    def test_self_retrieval_is_perfect(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 16))
        result = top1_retrieval(x, x)
        assert result.top1_accuracy == 1.0
        assert result.per_query_nearest == tuple(range(50))

    def test_swapped_targets_all_miss(self):
        source = np.array([[1.0, 0.0], [0.0, 1.0]])
        target = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = top1_retrieval(source, target)
        assert result.top1_accuracy == 0.0
        assert result.per_query_nearest == (1, 0)
        assert result.margin == pytest.approx(1.0)

    def test_tie_goes_to_lowest_index(self):
        source = np.array([[1.0, 0.0], [1.0, 0.0]])
        target = np.array([[1.0, 0.0], [1.0, 0.0]])
        result = top1_retrieval(source, target)
        assert result.per_query_nearest == (0, 0)
        assert result.top1_accuracy == 0.5
        assert result.margin == pytest.approx(0.0)

    def test_margin_hand_value(self):
        source = np.array([[1.0, 0.0], [0.0, 1.0]])
        target = np.array([[1.0, 0.0], [1.0, 1.0]])
        result = top1_retrieval(source, target)
        assert result.top1_accuracy == 1.0
        # query 0: 1 - cos45; query 1: cos45 - 0; mean is exactly 1/2.
        assert result.margin == pytest.approx(0.5)

    def test_single_sentence_margin_zero(self):
        result = top1_retrieval(np.array([[3.0, 4.0]]), np.array([[3.0, 4.0]]))
        assert result.top1_accuracy == 1.0
        assert result.margin == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(30, 8))
        y = rng.normal(size=(30, 8))
        base = top1_retrieval(x, y)
        scales = rng.uniform(0.05, 40.0, size=30)
        scaled = top1_retrieval(x * scales[:, None], y * rng.uniform(0.05, 40.0, size=(30, 1)))
        assert scaled.per_query_nearest == base.per_query_nearest

    def test_zero_norm_rows_named(self):
        good = np.array([[1.0, 0.0], [0.0, 1.0]])
        bad = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(RetrievalError, match="zero-norm vector at row 1 of source"):
            top1_retrieval(bad, good)
        with pytest.raises(RetrievalError, match="zero-norm vector at row 1 of target"):
            top1_retrieval(good, bad)

    def test_empty_input_rejected(self):
        empty = np.zeros((0, 4))
        with pytest.raises(RetrievalError, match="no sentences"):
            top1_retrieval(empty, empty)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(RetrievalError, match="does not match"):
            top1_retrieval(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(RetrievalError, match="2-D"):
            top1_retrieval(np.ones(3), np.ones(3))


def dense_top1(source: np.ndarray, target: np.ndarray) -> tuple[tuple[int, ...], float, float]:
    """The whole similarity matrix at once: ``(nearest, accuracy, margin)``."""
    sims = (source / np.linalg.norm(source, axis=1)[:, None]) @ (
        target / np.linalg.norm(target, axis=1)[:, None]
    ).T
    nearest = sims.argmax(axis=1)
    accuracy = float(np.mean(nearest == np.arange(len(sims))))
    if len(sims) < 2:
        return tuple(int(i) for i in nearest), accuracy, 0.0
    top2 = np.partition(sims, -2, axis=1)[:, -2:]
    return tuple(int(i) for i in nearest), accuracy, float(np.mean(top2[:, 1] - top2[:, 0]))


def block_starts(n: int) -> list[int]:
    """First row of each similarity block after the first."""
    sizes = [len(b) for b in np.array_split(np.arange(n), -(-n // BLOCK_ROWS))]
    return list(np.cumsum(sizes)[:-1])


class TestBlocks:
    """Row blocks give exactly the dense matrix's nearest rows, accuracy and margin."""

    @pytest.mark.parametrize(
        "n", [1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]
    )
    def test_matches_dense_reference(self, n):
        rng = np.random.default_rng(n)
        source = rng.normal(size=(n, 24))
        target = source + rng.normal(size=(n, 24))
        target[::7] = rng.normal(size=target[::7].shape)  # some misses
        result = top1_retrieval(source, target)
        nearest, accuracy, margin = dense_top1(source, target)
        assert result.per_query_nearest == nearest
        assert result.top1_accuracy == accuracy
        assert result.margin == margin

    @pytest.mark.parametrize("n", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    def test_exact_tie_across_a_block_boundary(self, n):
        rng = np.random.default_rng(5)
        target = rng.normal(size=(n, 24))
        source = target.copy()
        for start in block_starts(n):
            # Targets start-1 and start are the same vector, and so are the
            # last query of one block and the first query of the next.
            target[start] = target[start - 1]
            source[start] = source[start - 1] = target[start - 1]
        result = top1_retrieval(source, target)
        nearest, accuracy, margin = dense_top1(source, target)
        assert result.per_query_nearest == nearest
        assert result.top1_accuracy == accuracy
        assert result.margin == margin
        for start in block_starts(n):
            assert nearest[start - 1] == nearest[start] == start - 1  # lowest tied index
        assert accuracy == (n - len(block_starts(n))) / n


class TestFiles:
    @pytest.fixture()
    def matrix(self) -> EmbeddingMatrix:
        rng = np.random.default_rng(3)
        sentences = []
        for count in (3, 1, 5):
            vectors = rng.normal(size=(count, 4)).astype(np.float32)
            special = np.zeros(count, dtype=bool)
            if count > 1:
                special[0] = True
            sentences.append((vectors, special))
        return EmbeddingMatrix(tuple(sentences), dim=4, layer=9)

    def test_token_round_trip(self, tmp_path, matrix):
        path = tmp_path / "tok.bin"
        write_token_embeddings(str(path), matrix)
        loaded = read_token_embeddings(str(path))
        assert loaded.dim == 4 and loaded.layer == 9
        assert len(loaded) == 3
        for (vectors, special), (want, want_special) in zip(loaded.sentences, matrix.sentences):
            assert not vectors.flags.owndata and not special.flags.owndata  # views, not copies
            np.testing.assert_array_equal(vectors, want)
            np.testing.assert_array_equal(special.astype(bool), want_special)

    def test_pooled_round_trip(self, tmp_path):
        path = tmp_path / "pool.bin"
        original = np.arange(12, dtype=np.float32).reshape(3, 4) / 7
        write_pooled_embeddings(str(path), original, layer=2)
        loaded, layer = read_embeddings(str(path))
        assert layer == 2
        np.testing.assert_array_equal(loaded, original.astype(np.float64))

    def test_dispatch_by_magic(self, tmp_path, matrix):
        tok, pool = tmp_path / "a.bin", tmp_path / "b.bin"
        write_token_embeddings(str(tok), matrix)
        pooled = pool_matrix(matrix)
        write_pooled_embeddings(str(pool), pooled, layer=9)
        from_tok, layer_tok = read_embeddings(str(tok))
        from_pool, layer_pool = read_embeddings(str(pool))
        assert layer_tok == layer_pool == 9
        np.testing.assert_allclose(from_tok, pooled)
        np.testing.assert_allclose(from_pool, pooled, rtol=1e-6)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
        with pytest.raises(RetrievalError, match="bad magic"):
            read_token_embeddings(str(path))
        with pytest.raises(RetrievalError, match="unrecognized"):
            read_embeddings(str(path))

    def test_truncated_token_file(self, tmp_path, matrix):
        path = tmp_path / "trunc.bin"
        write_token_embeddings(str(path), matrix)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        with pytest.raises(RetrievalError, match="truncated at sentence 2"):
            read_token_embeddings(str(path))

    def test_truncated_pooled_file(self, tmp_path):
        path = tmp_path / "trunc.bin"
        write_pooled_embeddings(str(path), np.ones((2, 3), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(RetrievalError, match="truncated"):
            read_embeddings(str(path))

    def test_count_exceeding_header_max(self, tmp_path):
        emb = EmbeddingMatrix((sent([[1.0, 2.0]], [False]),), dim=2)
        path = tmp_path / "bad.bin"
        write_token_embeddings(str(path), emb)
        data = bytearray(path.read_bytes())
        # Corrupt the per-sentence count (first uint32 after the 24-byte header).
        data[24:28] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(RetrievalError, match="header says max"):
            read_token_embeddings(str(path))

    def test_empty_corpus_round_trip(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_pooled_embeddings(str(path), np.zeros((0, 5), dtype=np.float32))
        loaded, _ = read_embeddings(str(path))
        assert loaded.shape == (0, 5)


def test_a_token_file_pools_to_the_bits_of_float64_means(tmp_path):
    """``read_embeddings`` pools from views of each record's bytes; every row has
    the bits of the mean of that sentence's kept rows taken in float64, as
    ``pool_matrix`` of ``read_token_embeddings`` gives them too. Odd token
    counts put the float32 rows at unaligned offsets."""
    rng = np.random.default_rng(11)
    sentences = []
    for count in (1, 2, 3, 7, 30, 5):
        special = rng.random(count) < 0.3
        special[rng.integers(count)] = False
        sentences.append(sent(rng.normal(size=(count, 5)) * 100, special))
    matrix = EmbeddingMatrix(tuple(sentences), dim=5, layer=4)
    path = tmp_path / "tok.bin"
    write_token_embeddings(str(path), matrix)
    expected = np.stack([v.astype(np.float64)[~special].mean(axis=0) for v, special in sentences])
    pooled, layer = read_embeddings(str(path))
    assert layer == 4 and pooled.dtype == np.float64
    assert pooled.tobytes() == expected.tobytes()
    assert pool_matrix(read_token_embeddings(str(path))).tobytes() == expected.tobytes()


def token_file(path, n: int, max_tokens: int, dim: int, body: bytes = b"") -> str:
    path.write_bytes(TOKEN_MAGIC + struct.pack("<4I", n, max_tokens, dim, 0) + body)
    return str(path)


@pytest.mark.parametrize("read", [read_embeddings, read_token_embeddings])
def test_a_header_larger_than_the_file_is_an_error_not_an_allocation(tmp_path, read):
    """Sizes come from the header only after the bytes are known to hold them."""
    huge = 1 << 24
    with pytest.raises(RetrievalError, match="truncated at sentence 0"):
        read(token_file(tmp_path / "a.emb", huge, huge, huge, b"\1\0\0\0\0abcd"))
    one = struct.pack("<I", 1) + b"\0" + struct.pack("<f", 2.0)
    with pytest.raises(RetrievalError, match="truncated at sentence 1"):
        read(token_file(tmp_path / "b.emb", huge, 1, 1, one))
    with pytest.raises(RetrievalError, match="dimension must be positive, got 0"):
        read(token_file(tmp_path / "c.emb", huge, 1, 0, one))
    with pytest.raises(RetrievalError, match="dimension 268435456 is above 268435455"):
        read(token_file(tmp_path / "d.emb", 0, 1, 1 << 28))


@pytest.mark.parametrize("read", [read_embeddings, read_token_embeddings])
def test_a_fifo_whose_header_claims_a_huge_record_is_truncated(tmp_path, read):
    """A pipe has no size to check a record against: its body is read in
    bounded pieces, so a record longer than the input is cut short, not
    allocated."""
    huge = 1 << 24
    data = TOKEN_MAGIC + struct.pack("<5I", 1, huge, huge, 0, huge) + b"abcd"
    with fifo_holding(tmp_path / "pipe.emb", data) as path:
        with pytest.raises(RetrievalError) as info:
            read(path)
    assert str(info.value) == f"{path}: truncated at sentence 0"


def test_records_past_the_header_count_are_an_error(tmp_path):
    matrix = EmbeddingMatrix((sent([[1.0, 2.0]], [False]), sent([[3.0, 4.0]], [False])), dim=2)
    path = tmp_path / "tok.bin"
    write_token_embeddings(str(path), matrix)
    data = path.read_bytes()
    path.write_bytes(data[:8] + struct.pack("<I", 1) + data[12:] + b"junk")
    for read in (read_embeddings, read_token_embeddings):
        with pytest.raises(RetrievalError) as info:
            read(str(path))
        assert str(info.value) == f"{path}: trailing bytes after 1 sentence(s)"


def test_rows_past_the_header_count_are_an_error(tmp_path):
    path = tmp_path / "pool.bin"
    write_pooled_embeddings(str(path), np.ones((2, 3), dtype=np.float32))
    data = path.read_bytes()
    path.write_bytes(data[:8] + struct.pack("<I", 1) + data[12:])
    with pytest.raises(RetrievalError) as info:
        read_embeddings(str(path))
    assert str(info.value) == f"{path}: trailing bytes after 1 row(s)"


def traced_peak(call, *args):
    """``call(*args)`` and the most bytes it had allocated at once."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_token_file_is_pooled_one_record_at_a_time(tmp_path):
    """``read_embeddings`` holds the pooled matrix (grown by at most half
    again as rows arrive) and about one record, not the file: 2 048
    sentences of 16 tokens in 64 dimensions make an 8.4 MB file, a 1 MiB
    matrix and 4 116-byte records."""
    rng = np.random.default_rng(8)
    vectors = rng.standard_normal((2048, 16, 64), dtype=np.float32)
    special = np.zeros(16, dtype=bool)
    special[[0, -1]] = True
    path = tmp_path / "big.emb"
    write_token_embeddings(str(path), EmbeddingMatrix(
        tuple((v, special) for v in vectors), dim=64))
    assert path.stat().st_size >= 8 << 20
    (pooled, _), peak = traced_peak(read_embeddings, str(path))
    assert pooled.shape == (2048, 64)
    record = 4 + 16 + 16 * 64 * 4
    assert peak <= 1.5 * pooled.nbytes + 16 * record, peak


def test_top1_retrieval_holds_its_inputs_and_one_block():
    """Beyond its inputs, ``top1_retrieval`` holds the normalized target and
    one similarity block at a time: the top two of a block are found in place."""
    rng = np.random.default_rng(9)
    source = rng.standard_normal((3000, 64))
    target = source + rng.standard_normal((3000, 64))
    result, peak = traced_peak(top1_retrieval, source, target)
    assert result.top1_accuracy > 0.9
    assert peak <= source.nbytes + target.nbytes + BLOCK_ROWS * 3000 * 8, peak


def test_token_file_errors_name_the_sentence(tmp_path):
    matrix = EmbeddingMatrix(
        (sent([[1.0, 2.0]], [False]), sent([[3.0, 4.0], [5.0, 6.0]], [True, True])), dim=2
    )
    path = tmp_path / "tok.bin"
    write_token_embeddings(str(path), matrix)
    with pytest.raises(RetrievalError) as info:
        read_embeddings(str(path))
    assert str(info.value) == f"{path}: sentence 1: all tokens flagged special; nothing to pool"
    data = path.read_bytes()
    # Cut in sentence 1's vectors, flags and count (sentence 0 ends at byte 24 + 4 + 1 + 8).
    for cut in (len(data) - 1, 37 + 4 + 1, 37 + 2):
        path.write_bytes(data[:cut])
        with pytest.raises(RetrievalError) as info:
            read_embeddings(str(path))
        assert str(info.value) == f"{path}: truncated at sentence 1", cut
    path.write_bytes(b"EMBTOK02" + data[8:])
    with pytest.raises(RetrievalError) as info:
        read_embeddings(str(path))
    assert str(info.value) == f"{path}: unrecognized embedding file (magic b'EMBTOK02')"


@pytest.mark.parametrize("kind", ["token", "pooled"])
def test_every_prefix_is_an_error_naming_the_file(tmp_path, capsys, kind):
    matrix = EmbeddingMatrix(
        (sent([[1.0, 2.0], [3.0, 4.0]], [False, True]), sent([[0.5, -1.0]], [False])), dim=2
    )
    whole = tmp_path / "whole.bin"
    if kind == "token":
        write_token_embeddings(str(whole), matrix)
    else:
        write_pooled_embeddings(str(whole), pool_matrix(matrix))
    target = tmp_path / "target.bin"
    write_pooled_embeddings(str(target), pool_matrix(matrix))
    data = whole.read_bytes()
    source = tmp_path / "source.bin"
    for cut in range(len(data)):
        source.write_bytes(data[:cut])
        code = main(["retrieval", "--source", str(source), "--target", str(target)])
        err = capsys.readouterr().err
        assert code == 1, cut
        assert err.startswith("error: ") and str(source) in err, (cut, err)
        assert "Traceback" not in err


def test_a_shape_mismatch_names_both_files(tmp_path, capsys):
    source, target = tmp_path / "three.pool", tmp_path / "four.pool"
    write_pooled_embeddings(str(source), np.ones((3, 3), dtype=np.float32))
    write_pooled_embeddings(str(target), np.ones((4, 3), dtype=np.float32))
    assert main(["retrieval", "--source", str(source), "--target", str(target)]) == 1
    assert capsys.readouterr().err == (
        f"error: {source} shape (3, 3) does not match {target} shape (4, 3)\n"
    )


def test_an_empty_source_names_its_file(tmp_path, capsys):
    empty = tmp_path / "empty.pool"
    write_pooled_embeddings(str(empty), np.zeros((0, 3), dtype=np.float32))
    assert main(["retrieval", "--source", str(empty), "--target", str(empty)]) == 1
    assert capsys.readouterr().err == f"error: {empty} has no sentences to retrieve\n"


@pytest.mark.parametrize("side", ["source", "target"])
def test_a_zero_row_names_its_file(tmp_path, capsys, side):
    good, zero = tmp_path / "good.pool", tmp_path / "zero.pool"
    write_pooled_embeddings(str(good), np.eye(3, dtype=np.float32))
    write_pooled_embeddings(str(zero), np.diag([1.0, 0.0, 1.0]).astype(np.float32))
    paths = {"source": str(good), "target": str(good), side: str(zero)}
    assert main(["retrieval", "--source", paths["source"], "--target", paths["target"]]) == 1
    assert capsys.readouterr().err == f"error: zero-norm vector at row 1 of {zero}\n"


# Small uint32 fields mixed with raw bytes, so that headers and token counts
# often parse and the sentence, truncation and pooling paths all run.
_FIELDS = st.lists(
    st.one_of(st.integers(0, 4).map(lambda v: struct.pack("<I", v)), st.binary(max_size=9)),
    max_size=12,
).map(b"".join)


@given(magic=st.sampled_from([TOKEN_MAGIC, POOLED_MAGIC]), body=_FIELDS)
def test_any_bytes_behind_a_magic_read_or_raise_retrieval_error(tmp_path_factory, magic, body):
    path = tmp_path_factory.getbasetemp() / "fuzz.emb"
    path.write_bytes(magic + body)
    try:
        matrix, layer = read_embeddings(str(path))
    except RetrievalError:
        return
    assert matrix.ndim == 2 and matrix.dtype == np.float64
    assert isinstance(layer, int)
