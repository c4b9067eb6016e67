from __future__ import annotations

import sys
import threading
import time
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from egolog.errors import BackendProtocolError
from egolog.similarity import (
    CachedEmbedder,
    MockEmbedder,
    cosine_matrix,
    cosine_rows,
    embed_batch,
)

from test_digest import oracle_cosine


def cos(a, b):
    """Cosine of two single vectors through the matrix helper."""
    return float(cosine_matrix(np.array([a], float), np.array([b], float))[0, 0])


@st.composite
def integer_matrices(draw):
    """Two stacks of non-zero integer-valued vectors of one random dimension."""
    dim = draw(st.integers(min_value=1, max_value=64))
    row = st.lists(st.integers(-20, 20), min_size=dim, max_size=dim).filter(any)
    rows = st.lists(row, min_size=1, max_size=6)
    return np.array(draw(rows), dtype=np.float64), np.array(draw(rows), dtype=np.float64)


class RecordingEmbedder:
    """Delegates to a mock embedder and records every batch it is sent."""

    def __init__(self, delay_s=0.0):
        self.inner = MockEmbedder(seed=0)
        self.calls = []
        self.delay_s = delay_s

    def embed_texts(self, texts):
        self.calls.append(list(texts))
        time.sleep(self.delay_s)
        return self.inner.embed_texts(texts)


class TestMockEmbedder:
    def test_deterministic_per_seed(self):
        a = MockEmbedder(seed=1).embed_texts(["C slices an onion"])
        b = MockEmbedder(seed=1).embed_texts(["C slices an onion"])
        assert np.array_equal(a, b)

    def test_seed_changes_features(self):
        a = MockEmbedder(seed=1).embed_texts(["C slices an onion"])
        b = MockEmbedder(seed=2).embed_texts(["C slices an onion"])
        assert not np.array_equal(a, b)

    def test_dimension(self):
        (vec,) = MockEmbedder(dim=16).embed_texts(["C slices an onion"])
        assert len(vec) == 16

    def test_similar_texts_score_higher_than_unrelated(self):
        backend = MockEmbedder(seed=0)
        texts = [
            "C slices an onion on the board",
            "C slices an onion on the table",
            "the printer hums in the office",
        ]
        a, b, c = embed_batch(backend, texts)
        assert cos(a, b) > cos(a, c)

    def test_no_zero_vectors_even_for_tiny_texts(self):
        backend = MockEmbedder(seed=0)
        embeddings = embed_batch(backend, ["a", "ab", "x"])
        for e in embeddings:
            assert np.any(e)

    @given(st.text(min_size=1, max_size=30))
    def test_any_nonempty_text_embeds(self, text):
        backend = MockEmbedder(seed=3)
        (e,) = embed_batch(backend, [text])
        assert e.shape == (64,)
        assert np.any(e)


class TestEmbedBatch:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            embed_batch(MockEmbedder(), [])

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            embed_batch(MockEmbedder(), [""])

    def test_count_mismatch_fatal(self):
        class Short:
            def embed_texts(self, texts):
                return [[1.0, 0.0]]

        with pytest.raises(BackendProtocolError, match="count mismatch"):
            embed_batch(Short(), ["one text", "two text"])

    def test_dim_mismatch_fatal(self):
        class Ragged:
            def embed_texts(self, texts):
                return [[1.0, 0.0], [1.0, 0.0, 0.0]]

        with pytest.raises(BackendProtocolError, match="dimension mismatch"):
            embed_batch(Ragged(), ["one text", "two text"])

    def test_zero_vector_fatal(self):
        class Zeros:
            def embed_texts(self, texts):
                return [[0.0, 0.0]]

        with pytest.raises(BackendProtocolError, match="zero embedding"):
            embed_batch(Zeros(), ["one text"])

    def test_non_numeric_values_fatal(self):
        class Words:
            def embed_texts(self, texts):
                return [["one", "two"]]

        with pytest.raises(BackendProtocolError, match="malformed embeddings"):
            embed_batch(Words(), ["one text"])

    def test_order_preserved(self):
        backend = MockEmbedder(seed=0)
        texts = ["first caption text", "second caption text"]
        direct = backend.embed_texts(texts)
        wrapped = embed_batch(backend, texts)
        assert wrapped.dtype == np.float64
        assert wrapped.shape == (2, 64)
        assert np.array_equal(wrapped, direct)


class TestCosine:
    def test_known_value_against_decimal_oracle(self):
        # cos((1,0), (1,1)) = 1/sqrt(2); oracle computed in 50-digit decimal
        getcontext().prec = 50
        expected = float(Decimal(1) / Decimal(2).sqrt())
        assert cos([1.0, 0.0], [1.0, 1.0]) == pytest.approx(expected, abs=1e-12)

    def test_identity(self):
        assert cos([2.0, 3.0], [2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)

    def test_opposite(self):
        assert cos([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cos([1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cos([1.0], [1.0, 0.0])

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cos([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_rows(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))

    def test_shape(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert cosine_matrix(a, b).shape == (3, 2)
        assert cosine_rows(a[1:], a[:-1]).shape == (2,)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
    )
    # sums of squares that are subnormal, that underflow to zero and that
    # overflow to infinity
    @example(xs=[0.0, 1.0], ys=[0.0, 2.7099909316659555e-159])
    @example(xs=[1e-170, 0.0], ys=[1.0, 1.0])
    @example(xs=[1e200, 1.0], ys=[1.0, 1.0])
    def test_symmetric_and_bounded(self, xs, ys):
        size = min(len(xs), len(ys))
        a = np.asarray(xs[:size])
        b = np.asarray(ys[:size])
        if not a.any() or not b.any():
            return
        assert cos(a, b) == cos(b, a)
        assert abs(cos(a, b)) <= 1.0 + 1e-9

    @given(integer_matrices())
    def test_integer_vectors_match_scalar_oracle_exactly(self, matrices):
        # integer-valued vectors have exact dot products, so any difference
        # from the scalar formula could flip a decision lying on a threshold
        a, b = matrices
        matrix = cosine_matrix(a, b)
        for i, j in np.ndindex(matrix.shape):
            assert matrix[i, j] == oracle_cosine(list(a[i]), list(b[j]))
        n = min(len(a), len(b))
        paired = cosine_rows(a[:n], b[:n])
        for i in range(n):
            assert paired[i] == oracle_cosine(list(a[i]), list(b[i]))


class TestCachedEmbedder:
    def test_one_backend_call_per_batch_of_unique_misses_in_first_seen_order(self):
        backend = RecordingEmbedder()
        cached = CachedEmbedder(backend)
        cached.embed_texts(["beta", "alpha", "beta", "gamma"])
        cached.embed_texts(["gamma", "delta", "alpha", "eps", "delta"])
        assert backend.calls == [["beta", "alpha", "gamma"], ["delta", "eps"]]

    def test_cached_texts_never_resent(self):
        backend = RecordingEmbedder()
        cached = CachedEmbedder(backend)
        first = cached.embed_texts(["alpha", "beta"])
        again = cached.embed_texts(["beta", "alpha", "alpha"])
        assert backend.calls == [["alpha", "beta"]]
        assert again[0] is first[1] and again[1] is first[0] and again[2] is first[0]
        assert np.array_equal(embed_batch(cached, ["alpha"])[0], first[0])

    def test_rows_match_the_backend(self):
        texts = ["C opens the fridge", "C closes the fridge"]
        rows = CachedEmbedder(MockEmbedder(seed=0)).embed_texts(texts)
        assert np.array_equal(np.array(rows), MockEmbedder(seed=0).embed_texts(texts))

    def test_cached_rows_are_read_only(self):
        (row,) = CachedEmbedder(MockEmbedder()).embed_texts(["C opens the fridge"])
        with pytest.raises(ValueError):
            row[0] = 9.0

    def test_overlapping_threads_get_identical_rows(self):
        # the backend delay keeps the threads inside it at once, so they all
        # send the texts they share and the cache must settle on one row each
        cached = CachedEmbedder(RecordingEmbedder(delay_s=0.02))
        texts = [f"C moves box {i} to the shelf" for i in range(60)]
        lists = [texts[i * 10 : i * 10 + 30] for i in range(4)]
        results = [None] * len(lists)
        barrier = threading.Barrier(len(lists))

        def work(k):
            barrier.wait(timeout=10)
            results[k] = dict(zip(lists[k], cached.embed_texts(lists[k])))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(lists))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = dict(zip(texts, MockEmbedder(seed=0).embed_texts(texts)))
        for text in texts:
            rows = [rows_k[text] for rows_k in results if text in rows_k]
            assert all(row is rows[0] for row in rows)
            assert np.array_equal(rows[0], expected[text])

    def test_dimension_change_between_batches_is_protocol_error(self):
        class Skewed:
            def embed_texts(self, texts):
                return [[1.0] * (3 if t.startswith("where") else 2) for t in texts]

        cached = CachedEmbedder(Skewed())
        embed_batch(cached, ["C opens the fridge"])
        with pytest.raises(BackendProtocolError, match="dimension mismatch"):
            embed_batch(cached, ["C opens the fridge", "where is the milk"])
