"""LLM completion backends.

The pipeline talks to any model through one call: complete(system_text,
user_text, sampling_seed, run_index) -> raw text. Two implementations
ship here: an HTTP client for a remote model and a replay backend that
returns recorded transcripts keyed by (prompt digest, run index) for
bit-exact reruns.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Mapping, Protocol, runtime_checkable

from .errors import BackendProtocolError, ConfigError, ReplayMissError, TransportError

logger = logging.getLogger(__name__)


@runtime_checkable
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


class ReplayBackend:
    """Returns recorded transcripts; raises ReplayMissError on unknown prompts.

    The transcript store maps prompt digests to per-run texts:
    ``{"<prompt_sha256>": {"run_0": text, "run_1": text, ...}}``.
    Reads are lock-free; the store is never mutated after construction.
    """

    def __init__(self, transcripts: Mapping[str, Mapping[str, str]]):
        self._transcripts = {
            str(k): {str(rk): str(rv) for rk, rv in v.items()}
            for k, v in transcripts.items()
        }

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayBackend":
        with Path(path).open("r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise BackendProtocolError(f"transcripts file {path} is not a JSON object")
        return cls(data)

    def complete(
        self,
        system_text: str,
        user_text: str,
        sampling_seed: int | None = None,
        run_index: int = 0,
    ) -> str:
        digest = prompt_sha256(system_text, user_text)
        runs = self._transcripts.get(digest)
        if runs is None:
            raise ReplayMissError(f"no transcript recorded for prompt {digest[:12]}...")
        text = runs.get(run_key(run_index))
        if text is None:
            raise ReplayMissError(
                f"no transcript recorded for prompt {digest[:12]}... run {run_index}"
            )
        return text


def write_transcripts(path: str | Path, transcripts: Mapping[str, Mapping[str, str]]) -> None:
    """Write a replay transcript store as stable, sorted JSON."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(transcripts, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


class HttpLlmBackend:
    """Client for an HTTP completion endpoint.

    POSTs ``{"system": ..., "user": ..., "seed": ...?}`` and expects
    ``{"text": ...}``. Chat-completion-style services are expected to sit
    behind a thin adapter exposing this contract. Retrying is the caller's
    job (see reasoner.run); this class only classifies failures.
    """

    def __init__(self, endpoint: str, auth_env: str | None = None, *, timeout_s: float = 120.0):
        self._endpoint = endpoint
        self._timeout_s = timeout_s
        self._token: str | None = None
        if auth_env:
            token = os.environ.get(auth_env)
            if token is None:
                raise ConfigError(f"auth environment variable {auth_env!r} is not set")
            self._token = token

    def complete(
        self,
        system_text: str,
        user_text: str,
        sampling_seed: int | None = None,
        run_index: int = 0,
    ) -> str:
        import requests

        headers = {}
        if self._token is not None:
            headers["Authorization"] = f"Bearer {self._token}"
        body: dict = {"system": system_text, "user": user_text}
        if sampling_seed is not None:
            body["seed"] = int(sampling_seed)
        try:
            resp = requests.post(
                self._endpoint, json=body, headers=headers, timeout=self._timeout_s
            )
        except requests.RequestException as exc:
            raise TransportError(f"completion endpoint unreachable: {exc}") from exc
        if resp.status_code >= 500:
            raise TransportError(f"completion endpoint returned {resp.status_code}")
        if resp.status_code != 200:
            raise BackendProtocolError(
                f"completion endpoint returned {resp.status_code}: {resp.text[:200]}"
            )
        try:
            text = resp.json()["text"]
        except (ValueError, KeyError, TypeError) as exc:
            raise BackendProtocolError(f"bad completion response: {exc}") from exc
        if not isinstance(text, str):
            raise BackendProtocolError("completion text field is not a string")
        return text

