"""How remote backend calls are issued: one JSON POST, retries and an in-order map."""

from __future__ import annotations

import json
import logging
import os
import time
from concurrent.futures import Executor, wait
from typing import Any, Callable, Sequence, TypeVar

from .errors import BackendProtocolError, ConfigError, TransportError

logger = logging.getLogger(__name__)

T = TypeVar("T")
U = TypeVar("U")


def bearer_token(auth_env: str | None) -> str | None:
    """Token in the variable auth_env names, None without one; ConfigError if unset."""
    if not auth_env:
        return None
    token = os.environ.get(auth_env)
    if token is None:
        raise ConfigError(f"auth environment variable {auth_env!r} is not set")
    if "\r" in token or "\n" in token:  # http.client refuses it in a header
        raise ConfigError(f"auth environment variable {auth_env!r} holds a line break")
    return token


def post_json(
    endpoint: str, body: dict, token: str | None, timeout_s: float, what: str, field: str
) -> Any:
    """POST body as JSON to the `what` endpoint and return the reply's field.

    Unreachable, dropped, timed out or 5xx: TransportError, which
    call_with_retries retries. Any other status but 200, or a reply not
    JSON or without field: BackendProtocolError. Proxies come from the
    environment, as urllib.request reads them; a 307 or 308 is not followed.
    """
    import urllib.request
    from http.client import HTTPException
    from urllib.error import HTTPError

    headers = {"Content-Type": "application/json"}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    try:
        data = json.dumps(body, allow_nan=False).encode()
        request = urllib.request.Request(endpoint, data=data, headers=headers)
        if request.type not in ("http", "https"):  # urllib would also open file: URLs
            raise ValueError(f"not an http(s) URL: {endpoint!r}")
        try:
            reply = urllib.request.urlopen(request, timeout=timeout_s)
        except HTTPError as exc:  # urlopen raises every status it does not return
            reply = exc
        with reply:
            status, raw = reply.status, reply.read()
    except (OSError, HTTPException, ValueError) as exc:
        raise TransportError(f"{what} endpoint unreachable: {exc}") from exc
    if status >= 500:
        raise TransportError(f"{what} endpoint returned {status}")
    if status != 200:
        text = raw.decode("utf-8", errors="replace")
        raise BackendProtocolError(f"{what} endpoint returned {status}: {text[:200]}")
    try:
        return json.loads(raw)[field]
    except (ValueError, KeyError, TypeError) as exc:
        raise BackendProtocolError(f"bad {what} response: {exc}") from exc


# a TransportError is retried up to ATTEMPTS calls in all, sleeping
# BASE_DELAY_S * 2**attempt after each failed 0-based attempt: 1 s, then 2 s
ATTEMPTS = 3
BASE_DELAY_S = 1.0


def call_with_retries(
    fn: Callable[[], T],
    *,
    sleep: Callable[[float], None] = time.sleep,
    what: str = "backend call",
) -> T:
    """Run fn, retrying TransportError up to ATTEMPTS calls in all.

    Any other exception propagates at once; the last TransportError
    propagates once the attempts are spent, with no sleep after it.
    """
    for attempt in range(ATTEMPTS - 1):
        try:
            return fn()
        except TransportError as exc:
            delay = BASE_DELAY_S * 2**attempt
            logger.warning(
                "%s failed (attempt %d/%d): %s; retrying in %.1fs",
                what,
                attempt + 1,
                ATTEMPTS,
                exc,
                delay,
            )
            sleep(delay)
    return fn()


def map_in_order(
    fn: Callable[[T], U], items: Sequence[T], pool: Executor | None = None
) -> list[U]:
    """fn over items on the given pool, or in the caller's thread; results in item order.

    Without a pool the calls run one at a time in the caller's thread.
    With one, every call runs on it, however few the items, so the pool's
    size bounds the calls in flight across all of its callers. A caller
    must not run on the pool it maps over: fn may wait on another pool,
    never on its own. The first exception in item order propagates once the
    calls already running have finished; calls not yet started are dropped.
    """
    if pool is None:
        return [fn(item) for item in items]
    futures = [pool.submit(fn, item) for item in items]
    try:
        return [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()
        wait(futures)
