from __future__ import annotations

import hashlib
import itertools
import sys
import threading
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from egolog.errors import BackendProtocolError, TransportError
from egolog.similarity import (
    CachedEmbedder,
    MockEmbedder,
    cosine_matrix,
    cosine_rows,
    embed_batch,
)

from helpers import RecordingEmbedder
from test_digest import oracle_cosine

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import stub  # noqa: E402


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


def signed_counts(text, seed, dim):
    """The mock's signed trigram counts, every trigram hashed where it occurs."""
    key = int(seed).to_bytes(8, "little", signed=True)
    data = b"\x02" + text.encode("utf-8") + b"\x03"
    vec = np.zeros(dim)
    for i in range(len(data) - 2):
        h = int.from_bytes(
            hashlib.blake2b(data[i : i + 3], key=key, digest_size=8).digest(), "little"
        )
        vec[(h >> 8) % dim] += 1.0 if h & 1 == 0 else -1.0
    return vec


def reference_embedding(text, seed, dim):
    """MockEmbedder's vector computed without its trigram memo."""
    vec = signed_counts(text, seed, dim)
    if not np.any(vec):
        key = int(seed).to_bytes(8, "little", signed=True)
        data = b"\x02" + text.encode("utf-8") + b"\x03"
        h = int.from_bytes(hashlib.blake2b(data, key=key, digest_size=8).digest(), "little")
        vec[(h >> 8) % dim] = 1.0 if h & 1 == 0 else -1.0
    return vec


class PerTextArrayMock(MockEmbedder):
    """The mock as it was before its counts stayed a list: one array per text."""

    def embed_texts(self, texts):
        return np.array([self._embed(text) for text in texts])

    def _embed(self, text):
        data = b"\x02" + text.encode("utf-8") + b"\x03"
        counts = [0.0] * self._dim
        for i in range(len(data) - 2):
            trigram = data[i : i + 3]
            feature = self._features.get(trigram)
            if feature is None:
                feature = self._features[trigram] = self._feature(trigram)
            slot, sign = feature
            counts[slot] += sign
        vec = np.array(counts)
        if not np.any(vec):
            slot, sign = self._feature(data)
            vec[slot] = sign
        return vec


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_rows_bit_identical(rows, texts, seed, dim):
    assert rows.dtype == np.float64 and rows.shape == (len(texts), dim)
    for row, text in zip(rows, texts):
        assert row.tobytes() == reference_embedding(text, seed, dim).tobytes(), text


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

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="dim must be positive"):
            MockEmbedder(dim=0)

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


    @given(
        st.lists(st.text(max_size=40), min_size=1, max_size=6),
        st.integers(-(2**63), 2**63 - 1),
        st.integers(min_value=1, max_value=128),
    )
    @example(["C slices an onion", "C slices an onion again"], 0, 64)
    @example(["C coupe l'oignon à côté du évier", "切る 🍳 — ½ ∞", "\x00\U0010ffff"], 5, 7)
    @example(["ab", "ax", "cc", ""], 0, 1)
    def test_memo_is_bit_identical_to_hashing_every_trigram(self, texts, seed, dim):
        embedder = MockEmbedder(seed=seed, dim=dim)
        # the second copy of the batch reads every trigram from the memo
        twice = texts + texts
        assert_rows_bit_identical(embedder.embed_texts(twice), twice, seed, dim)

    @pytest.mark.parametrize("seed, dim", [(0, 1), (0, 2), (7, 3), (0, 64)])
    def test_cancelling_texts_fall_back_as_without_the_memo(self, seed, dim):
        pairs = ["".join(p) for p in itertools.product("abcxyz", repeat=2)]
        cancelling = [t for t in pairs if not np.any(signed_counts(t, seed, dim))]
        assert cancelling
        embedder = MockEmbedder(seed=seed, dim=dim)
        embedder.embed_texts(pairs)  # fills the memo with their trigrams
        assert_rows_bit_identical(embedder.embed_texts(cancelling), cancelling, seed, dim)

    def test_threads_filling_the_memo_at_once_get_unmemoised_vectors(self):
        embedder = MockEmbedder(seed=4, dim=32)
        texts = [f"C moves box {i} to shelf {i % 7} ünd zurück" for i in range(60)]
        results = [None] * 8
        barrier = threading.Barrier(len(results))

        def work(k):
            barrier.wait(timeout=10)
            # every thread meets every trigram, in its own order
            results[k] = embedder.embed_texts(texts[k:] + texts[:k])

        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
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
        for k, rows in enumerate(results):
            assert_rows_bit_identical(rows, texts[k:] + texts[:k], 4, 32)

    @given(
        st.lists(st.text(max_size=40), max_size=6),
        st.integers(-(2**63), 2**63 - 1),
        st.sampled_from([1, 64]),
    )
    @example(["C coupe l'oignon à côté du évier", "切る 🍳 — ½ ∞", "\x00\U0010ffff"], 5, 64)
    # the signed counts of "ab", "ax" and "cc" cancel at seed 0, dim 1, and ""
    # has no trigram, so all four take the whole-text fallback
    @example(["ab", "ax", "cc", ""], 0, 1)
    @example([], 0, 64)
    def test_batch_array_is_bit_identical_to_one_array_per_text(self, texts, seed, dim):
        assert_same_array(
            MockEmbedder(seed=seed, dim=dim).embed_texts(texts),
            PerTextArrayMock(seed=seed, dim=dim).embed_texts(texts),
        )

    def test_batch_array_is_bit_identical_to_one_array_per_text_at_dim_1536(self):
        texts = ["C picks up the red cup on the table", "é€𝄞 — ½", "", "C picks up"]
        assert_same_array(
            MockEmbedder(seed=9, dim=1536).embed_texts(texts),
            PerTextArrayMock(seed=9, dim=1536).embed_texts(texts),
        )

    def test_embed_runs_once_per_text(self, monkeypatch):
        # perfbench's similarity.backend_texts counts the texts the mock
        # embedded by counting its _embed calls
        seen = []
        embed = MockEmbedder._embed

        def counted(self, text):
            seen.append(text)
            return embed(self, text)

        monkeypatch.setattr(MockEmbedder, "_embed", counted)
        texts = ["C sits", "C stands", "C sits", ""]
        MockEmbedder().embed_texts(texts)
        assert seen == texts

    @given(st.lists(st.text(min_size=1, max_size=40), min_size=1, max_size=6))
    @example(["C picks up the red cup on the table", "zy", "é€𝄞"])
    def test_matches_the_benchmark_stubs_embedding(self, texts):
        rows = MockEmbedder(seed=0, dim=64).embed_texts(texts)
        for row, text in zip(rows, texts):
            assert row.tobytes() == np.array(stub.mock_embedding(text)).tobytes()


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

    @pytest.mark.parametrize(
        "row", [[float("nan"), 1.0], [float("inf"), 0.0], [1.0, -float("inf")]]
    )
    def test_non_finite_values_fatal(self, row):
        class NonFinite:
            def embed_texts(self, texts):
                return [[1.0, 0.0], row]

        with pytest.raises(BackendProtocolError, match="non-finite.*'two text'"):
            embed_batch(NonFinite(), ["one text", "two text"])

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

    def test_failed_batch_caches_nothing(self):
        class FirstCallFails(RecordingEmbedder):
            def embed_texts(self, texts):
                if not self.calls:
                    self.calls.append(list(texts))
                    raise TransportError("embedding endpoint returned 503")
                return super().embed_texts(texts)

        backend = FirstCallFails()
        cached = CachedEmbedder(backend)
        texts = ["C opens the fridge", "C takes the milk"]
        with pytest.raises(TransportError):
            cached.embed_texts(texts)
        rows = cached.embed_texts(texts)
        assert np.array_equal(np.array(rows), MockEmbedder(seed=0).embed_texts(texts))
        assert backend.calls == [texts, texts]

    def test_dimension_change_between_batches_is_protocol_error(self):
        class Skewed:
            def embed_texts(self, texts):
                return [[1.0] * (3 if t.startswith("where") else 2) for t in texts]

        cached = CachedEmbedder(Skewed())
        embed_batch(cached, ["C opens the fridge"])
        with pytest.raises(BackendProtocolError, match="dimension mismatch"):
            embed_batch(cached, ["C opens the fridge", "where is the milk"])
