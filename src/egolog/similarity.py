"""Text embeddings and cosine similarity.

The digest stages and the refine scorer only ever compare texts through
this module. A backend turns a batch of texts into one fixed-dimension
vector per text; `embed_batch` checks that contract and returns the
vectors as the rows of one float64 array. `cosine_matrix` scores every
row of one array against every row of another and `cosine_rows` scores
paired rows. `CachedEmbedder` is the one per-text embedding cache; the
pipeline gives each unit (one video) its own, in front of the run's
backend, and drops it when the unit ends. Two backends ship with the
package: a deterministic offline mock (seeded feature hashing of
character trigrams, for tests and desk runs) and an HTTP client for a
real embedding service.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import BackendProtocolError
from .retry import bearer_token, call_with_retries, post_json

EMBED_TIMEOUT_S = 60.0
# inputs per request; hosted embedding endpoints reject larger batches
EMBED_MAX_TEXTS = 2048


class EmbedderBackend(Protocol):
    """Batch text embedder: one vector per text, as an (n, d) array or a list of rows.

    Same text must map to the same vector within one instance.
    """

    def embed_texts(self, texts: Sequence[str]) -> Sequence[Sequence[float]]: ...


class MockEmbedder:
    """Offline embedder: seeded feature hashing of character trigrams.

    Embeddings are a pure function of the text bytes and the seed, so
    pipelines run with this backend are bit-for-bit reproducible. Near
    identical texts share most trigrams and score high; unrelated texts
    decorrelate through the signed hash.

    Each instance keeps a memo from every byte trigram it has hashed to
    its (slot, sign), so a trigram is hashed once per instance however
    many texts contain it. The memo is bounded by the number of distinct
    byte trigrams in the texts embedded (a few hundred for narration in
    one language, at most 2**24). It needs no lock: an entry is a pure
    function of the trigram, the seed and the dimension, so two threads
    that insert the same trigram at once store the same value.

    A text's counts stay a Python list until `embed_texts` stacks the
    batch into one float64 array. `_embed` runs once per text, not over
    the whole batch, because the benchmark's tracer counts the texts a
    backend embedded by its calls.
    """

    def __init__(self, seed: int = 0, dim: int = 64):
        if dim < 1:
            raise ValueError("dim must be positive")
        self._dim = dim
        self._key = int(seed).to_bytes(8, "little", signed=True)
        self._features: dict[bytes, tuple[int, float]] = {}

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        # one _embed call per text: perfbench's similarity.backend_texts
        # counts these calls
        return np.array([self._embed(text) for text in texts], dtype=np.float64)

    def _embed(self, text: str) -> list[float]:
        data = b"\x02" + text.encode("utf-8") + b"\x03"
        # sums of +-1.0 are exact, so the order of the additions cannot matter
        counts = [0.0] * self._dim
        for i in range(len(data) - 2):
            trigram = data[i : i + 3]
            feature = self._features.get(trigram)
            if feature is None:
                feature = self._features[trigram] = self._feature(trigram)
            slot, sign = feature
            counts[slot] += sign
        if not any(counts):
            # signed counts of a degenerate text cancelled out; fall back to
            # a whole-text hash so the vector stays usable
            slot, sign = self._feature(data)
            counts[slot] = sign
        return counts

    def _feature(self, data: bytes) -> tuple[int, float]:
        """The slot and sign that the keyed hash of data picks."""
        h = int.from_bytes(
            hashlib.blake2b(data, key=self._key, digest_size=8).digest(), "little"
        )
        return (h >> 8) % self._dim, 1.0 if h & 1 == 0 else -1.0


class HttpEmbedder:
    """Client for an HTTP embedding endpoint.

    POSTs ``{"texts": [...]}``, at most EMBED_MAX_TEXTS texts in order, and
    expects ``{"embeddings": [[...], ...]}``, one per text of that request,
    so a short reply cannot shift later rows onto other texts. The bearer
    token, if any, is read from the environment variable named in the
    configuration. A request to an unreachable endpoint or answered by a
    5xx is resent by call_with_retries (3 attempts, 1 s then 2 s apart;
    sleep is their clock).
    """

    def __init__(
        self,
        endpoint: str,
        auth_env: str | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._endpoint = endpoint
        self._sleep = sleep
        self._token = bearer_token(auth_env)

    def embed_texts(self, texts: Sequence[str]) -> list[list[float]]:
        rows: list[list[float]] = []
        for start in range(0, len(texts), EMBED_MAX_TEXTS):
            body = {"texts": list(texts[start : start + EMBED_MAX_TEXTS])}
            vectors = call_with_retries(
                lambda: post_json(
                    self._endpoint, body, self._token, EMBED_TIMEOUT_S, "embedding", "embeddings"
                ),
                sleep=self._sleep,
                what="embedding request",
            )
            if not isinstance(vectors, list):
                raise BackendProtocolError("embeddings field is not a list")
            if len(vectors) != len(body["texts"]):
                raise BackendProtocolError(
                    f"count mismatch: sent {len(body['texts'])} texts in one request, "
                    f"got {len(vectors)} embeddings"
                )
            rows.extend(vectors)
        return rows


class CachedEmbedder:
    """Per-text embedding cache in front of a backend, for one unit's thread.

    Texts not yet cached are de-duplicated and sent to the backend as one
    batch in first-seen order; a failed batch caches nothing. Rows are
    kept read-only for the wrapper's lifetime, which the pipeline bounds
    by one unit (one video), so it has no lock: a unit embeds only from
    its own thread.
    """

    def __init__(self, backend: EmbedderBackend):
        self.backend = backend
        self._rows: dict[str, np.ndarray] = {}

    def embed_texts(self, texts: Sequence[str]) -> list[np.ndarray]:
        missing = [t for t in dict.fromkeys(texts) if t not in self._rows]
        if missing:
            fresh = embed_batch(self.backend, missing)
            fresh.setflags(write=False)
            self._rows.update(zip(missing, fresh))
        return [self._rows[t] for t in texts]


def embed_batch(backend: EmbedderBackend, texts: Sequence[str]) -> np.ndarray:
    """Embed texts through a backend as the rows of one (n, d) float64 array.

    This is where the batch contract is enforced: one embedding per text,
    order preserved, one dimension for the whole batch, no zero vectors
    and no NaN or infinite entries.
    A violation raises BackendProtocolError.
    """
    if len(texts) == 0:
        raise ValueError("embed_batch requires at least one text")
    for text in texts:
        if not text:
            raise ValueError("embed_batch texts must be non-empty")
    vectors = backend.embed_texts(list(texts))
    if len(vectors) != len(texts):
        raise BackendProtocolError(
            f"count mismatch: sent {len(texts)} texts, got {len(vectors)} embeddings"
        )
    try:
        dims = sorted({len(v) for v in vectors})
        if len(dims) > 1:
            raise BackendProtocolError(f"dimension mismatch across batch: {dims}")
        array = np.array(vectors, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise BackendProtocolError(f"malformed embeddings: {exc}") from exc
    zero = np.flatnonzero(~array.any(axis=1))
    if zero.size:
        raise BackendProtocolError(f"zero embedding vector for text {texts[zero[0]][:50]!r}")
    non_finite = np.flatnonzero(~np.isfinite(array).all(axis=1))
    if non_finite.size:
        raise BackendProtocolError(
            f"non-finite embedding vector for text {texts[non_finite[0]][:50]!r}"
        )
    return array


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of every row of a against every row of b, shape (len(a), len(b)).

    Computed as (a @ b.T) / (|a| |b|), each norm the square root of the
    row's sum of squares. Normalising the rows first rounds differently:
    with integer-valued vectors, whose dot products are exact, that moves
    scores lying exactly on a threshold to either side of it.
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    a, norms_a = _rows_and_norms(a)
    b, norms_b = _rows_and_norms(b)
    return (a @ b.T) / np.outer(norms_a, norms_b)


def cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of each row of a with the same row of b, as in cosine_matrix."""
    a, norms_a = _rows_and_norms(a)
    b, norms_b = _rows_and_norms(b)
    return np.einsum("ij,ij->i", a, b) / (norms_a * norms_b)


# 2**-1022 * 2**53: below it, subnormal squares may count at double precision
_TINY_SQUARES = 2.0**-969


def _rows_and_norms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and its row norms, rows too small or too large to square rescaled.

    A row whose sum of squares underflows or overflows is multiplied by the
    power of two that brings its largest entry into [0.5, 1). The scaling is
    exact and cancels in the cosine, and every other row is left untouched,
    so its scores stay bit for bit those of the plain formula.
    """
    squares = np.einsum("ij,ij->i", x, x)
    odd = (squares < _TINY_SQUARES) | np.isinf(squares)
    if odd.any():
        _, exponents = np.frexp(np.abs(x[odd]).max(axis=1))
        x = x.copy()
        x[odd] = np.ldexp(x[odd], -exponents[:, None])
        squares[odd] = np.einsum("ij,ij->i", x[odd], x[odd])
    norms = np.sqrt(squares)
    if not norms.all():
        raise ValueError("cosine undefined for zero-norm vector")
    return x, norms
