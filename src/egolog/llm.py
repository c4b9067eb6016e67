"""LLM completion backends.

The pipeline talks to any model through one call: complete(system_text,
user_text, sampling_seed, run_index) -> raw text. Two implementations
ship here: an HTTP client for a remote model, and a replay backend that
returns transcripts keyed by (prompt digest, run index) for bit-exact
reruns and, given an inner backend, records the replies to its misses.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from pathlib import Path
from typing import Mapping, Protocol

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


class ReplayBackend:
    """The transcript store: returns recorded replies and records misses.

    .transcripts maps prompt digests to per-run texts,
    ``{"<prompt_sha256>": {"run_0": text, "run_1": text, ...}}``, as
    corpus.write_json writes it and from_file reads it. A miss goes to
    inner, and every request for a prompt and run, even two misses that
    race, gets the first reply stored for it; so replaying .transcripts
    gives back what each caller saw. A request that inner fails stores
    nothing. With no inner a miss raises ReplayMissError. Safe to call
    from the completion pool's threads.
    """

    def __init__(
        self, transcripts: Mapping[str, Mapping[str, str]], inner: LlmBackend | None = None
    ):
        self.transcripts = {k: dict(v) for k, v in transcripts.items()}
        self.inner = inner
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path, inner: LlmBackend | None = None) -> "ReplayBackend":
        """Load a store that corpus.write_json wrote.

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
        return cls(data, inner)

    def complete(
        self,
        system_text: str,
        user_text: str,
        sampling_seed: int | None = None,
        run_index: int = 0,
    ) -> str:
        digest = prompt_sha256(system_text, user_text)
        run = f"run_{run_index}"
        runs = self.transcripts.get(digest)
        text = None if runs is None else runs.get(run)
        if text is not None:
            return text
        if self.inner is None:
            where = "" if runs is None else f" run {run_index}"
            raise ReplayMissError(f"no transcript recorded for prompt {digest[:12]}...{where}")
        text = self.inner.complete(system_text, user_text, sampling_seed, run_index)
        with self._lock:
            return self.transcripts.setdefault(digest, {}).setdefault(run, text)


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
