"""LLM completion backends.

The pipeline talks to any model through one call: complete(system_text,
user_text, sampling_seed, run_index) -> raw text. Three implementations
ship here: an HTTP client for a remote model, a replay backend that
returns recorded transcripts keyed by (prompt digest, run index) for
bit-exact reruns, and a recorder that wraps any backend and keeps its
replies in that store.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from pathlib import Path
from typing import Mapping, Protocol

from .corpus import write_json
from .errors import BackendProtocolError, ReplayMissError
from .retry import bearer_token, post_json

logger = logging.getLogger(__name__)

COMPLETION_TIMEOUT_S = 120.0


class LlmBackend(Protocol):
    def complete(
        self,
        system_text: str,
        user_text: str,
        sampling_seed: int | None = None,
        run_index: int = 0,
    ) -> str: ...


def prompt_sha256(system_text: str, user_text: str) -> str:
    """Digest that keys replay transcripts: sha256 over system NUL user."""
    h = hashlib.sha256()
    h.update(system_text.encode("utf-8"))
    h.update(b"\x00")
    h.update(user_text.encode("utf-8"))
    return h.hexdigest()


def run_key(run_index: int) -> str:
    return f"run_{run_index}"


def _store_keys(system_text: str, user_text: str, run_index: int) -> tuple[str, str]:
    """Where a transcript store keeps a reply: (prompt digest, run key)."""
    return prompt_sha256(system_text, user_text), run_key(run_index)


class ReplayBackend:
    """Returns recorded transcripts; raises ReplayMissError on unknown prompts.

    The transcript store maps prompt digests to per-run texts:
    ``{"<prompt_sha256>": {"run_0": text, "run_1": text, ...}}``.
    Reads are lock-free; the store is never mutated after construction.
    """

    def __init__(self, transcripts: Mapping[str, Mapping[str, str]]):
        self._transcripts = {k: dict(v) for k, v in transcripts.items()}

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayBackend":
        """Load a store written by write_transcripts.

        A file that cannot be read or is malformed raises BackendProtocolError.
        """
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
            raise BackendProtocolError(
                f"transcripts file {path} is not UTF-8 JSON: {exc}"
            ) from exc
        except OSError as exc:
            raise BackendProtocolError(
                f"cannot read transcripts file {path}: {exc.strerror or exc}"
            ) from exc
        if not isinstance(data, dict):
            raise BackendProtocolError(f"transcripts file {path} is not a JSON object")
        for digest, runs in data.items():
            if not isinstance(runs, dict) or not all(isinstance(t, str) for t in runs.values()):
                raise BackendProtocolError(
                    f"transcripts file {path}: entry {digest!r} is not an object of strings"
                )
        return cls(data)

    def complete(
        self,
        system_text: str,
        user_text: str,
        sampling_seed: int | None = None,
        run_index: int = 0,
    ) -> str:
        digest, run = _store_keys(system_text, user_text, run_index)
        runs = self._transcripts.get(digest)
        if runs is None:
            raise ReplayMissError(f"no transcript recorded for prompt {digest[:12]}...")
        text = runs.get(run)
        if text is None:
            raise ReplayMissError(
                f"no transcript recorded for prompt {digest[:12]}... run {run_index}"
            )
        return text


class RecordingBackend:
    """Passes each completion to inner and keeps its reply in .transcripts.

    .transcripts is the store write_transcripts writes and ReplayBackend
    reads; a prompt and run answered twice keeps the later reply. Safe to
    call from the completion pool's threads.
    """

    def __init__(self, inner: LlmBackend):
        self.inner = inner
        self.transcripts: dict[str, dict[str, str]] = {}
        self._lock = threading.Lock()

    def complete(
        self,
        system_text: str,
        user_text: str,
        sampling_seed: int | None = None,
        run_index: int = 0,
    ) -> str:
        text = self.inner.complete(system_text, user_text, sampling_seed, run_index)
        digest, run = _store_keys(system_text, user_text, run_index)
        with self._lock:
            self.transcripts.setdefault(digest, {})[run] = text
        return text


def write_transcripts(path: str | Path, transcripts: Mapping[str, Mapping[str, str]]) -> None:
    """Write a replay transcript store as stable, sorted JSON, atomically."""
    write_json(path, transcripts)


class HttpLlmBackend:
    """Client for an HTTP completion endpoint.

    POSTs ``{"system": ..., "user": ..., "seed": ...?}`` through
    retry.post_json and expects ``{"text": <string>}``. Chat-completion-style
    services are expected to sit behind a thin adapter exposing this
    contract. Retrying is the caller's job (see reasoner.run); this class
    only classifies failures.
    """

    def __init__(self, endpoint: str, auth_env: str | None = None):
        self._endpoint = endpoint
        self._token = bearer_token(auth_env)

    def complete(
        self,
        system_text: str,
        user_text: str,
        sampling_seed: int | None = None,
        run_index: int = 0,
    ) -> str:
        body: dict = {"system": system_text, "user": user_text}
        if sampling_seed is not None:
            body["seed"] = int(sampling_seed)
        text = post_json(
            self._endpoint, body, self._token, COMPLETION_TIMEOUT_S, "completion", "text"
        )
        if not isinstance(text, str):
            raise BackendProtocolError("completion text field is not a string")
        return text
