"""Text embeddings and cosine similarity.

The digest stages and the refine scorer only ever compare texts through
this module. A backend turns a batch of texts into one fixed-dimension
vector per text; `embed_batch` checks that contract and returns the
vectors as the rows of one float64 array. `cosine_matrix` scores every
row of one array against every row of another and `cosine_rows` scores
paired rows. `CachedEmbedder` is the one per-text embedding cache; the
pipeline puts it in front of the configured backend for a whole run. Two
backends ship with the package: a deterministic offline mock (seeded
feature hashing of character trigrams, for tests and desk runs) and an
HTTP client for a real embedding service.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import BackendProtocolError, ConfigError, TransportError
from .retry import RetryPolicy, call_with_retries


@runtime_checkable
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
    """

    def __init__(self, seed: int = 0, dim: int = 64):
        if dim < 1:
            raise ValueError("dim must be positive")
        self._dim = dim
        self._key = int(seed).to_bytes(8, "little", signed=True)

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        return np.array([self._embed(text) for text in texts])

    def _embed(self, text: str) -> np.ndarray:
        data = b"\x02" + text.encode("utf-8") + b"\x03"
        vec = np.zeros(self._dim)
        for i in range(len(data) - 2):
            h = int.from_bytes(
                hashlib.blake2b(data[i : i + 3], key=self._key, digest_size=8).digest(),
                "little",
            )
            idx = (h >> 8) % self._dim
            vec[idx] += 1.0 if h & 1 == 0 else -1.0
        if not np.any(vec):
            # signed counts of a degenerate text cancelled out; fall back to
            # a whole-text hash so the vector stays usable
            h = int.from_bytes(
                hashlib.blake2b(data, key=self._key, digest_size=8).digest(), "little"
            )
            vec[(h >> 8) % self._dim] = 1.0 if h & 1 == 0 else -1.0
        return vec


class HttpEmbedder:
    """Client for an HTTP embedding endpoint.

    POSTs ``{"texts": [...]}`` and expects ``{"embeddings": [[...], ...]}``.
    The bearer token, if any, is read from the environment variable named in
    the configuration.
    """

    def __init__(
        self,
        endpoint: str,
        auth_env: str | None = None,
        *,
        timeout_s: float = 60.0,
        retry: RetryPolicy = RetryPolicy(),
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._endpoint = endpoint
        self._timeout_s = timeout_s
        self._retry = retry
        self._sleep = sleep
        self._token: str | None = None
        if auth_env:
            token = os.environ.get(auth_env)
            if token is None:
                raise ConfigError(f"auth environment variable {auth_env!r} is not set")
            self._token = token

    def embed_texts(self, texts: Sequence[str]) -> list[list[float]]:
        return call_with_retries(
            lambda: self._post(list(texts)),
            policy=self._retry,
            sleep=self._sleep,
            what="embedding request",
        )

    def _post(self, texts: list[str]) -> list[list[float]]:
        import requests

        headers = {}
        if self._token is not None:
            headers["Authorization"] = f"Bearer {self._token}"
        try:
            resp = requests.post(
                self._endpoint,
                json={"texts": texts},
                headers=headers,
                timeout=self._timeout_s,
            )
        except requests.RequestException as exc:
            raise TransportError(f"embedding endpoint unreachable: {exc}") from exc
        if resp.status_code >= 500:
            raise TransportError(f"embedding endpoint returned {resp.status_code}")
        if resp.status_code != 200:
            raise BackendProtocolError(
                f"embedding endpoint returned {resp.status_code}: {resp.text[:200]}"
            )
        try:
            payload = resp.json()
            vectors = payload["embeddings"]
        except (ValueError, KeyError, TypeError) as exc:
            raise BackendProtocolError(f"bad embedding response: {exc}") from exc
        if not isinstance(vectors, list):
            raise BackendProtocolError("embeddings field is not a list")
        return vectors


class CachedEmbedder:
    """Thread-safe per-text embedding cache in front of a backend.

    Texts not cached yet are de-duplicated and sent to the backend as one
    batch in first-seen order. Their rows are kept read-only for the
    wrapper's lifetime; threads racing on one text all get the row stored
    first.
    """

    def __init__(self, backend: EmbedderBackend):
        self.backend = backend
        self._rows: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def embed_texts(self, texts: Sequence[str]) -> list[np.ndarray]:
        with self._lock:
            misses = [t for t in dict.fromkeys(texts) if t not in self._rows]
        if misses:
            fresh = embed_batch(self.backend, misses)
            fresh.setflags(write=False)
            with self._lock:
                for text, row in zip(misses, fresh):
                    self._rows.setdefault(text, row)
        with self._lock:
            return [self._rows[t] for t in texts]


def embed_batch(backend: EmbedderBackend, texts: Sequence[str]) -> np.ndarray:
    """Embed texts through a backend as the rows of one (n, d) float64 array.

    This is where the batch contract is enforced: one embedding per text,
    order preserved, one dimension for the whole batch, no zero vectors.
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
