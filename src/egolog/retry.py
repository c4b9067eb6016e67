"""How remote backend calls are issued: the retry policy and a bounded in-order map."""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .errors import TransportError

logger = logging.getLogger(__name__)

T = TypeVar("T")
U = TypeVar("U")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff: base * 2^attempt, up to max_delay_s."""

    attempts: int = 3
    base_delay_s: float = 1.0
    max_delay_s: float = 30.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("retry attempts must be >= 1")

    def delay_for(self, attempt: int) -> float:
        """Delay before retrying after the given 0-based failed attempt."""
        return min(self.base_delay_s * (2**attempt), self.max_delay_s)


def call_with_retries(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy = RetryPolicy(),
    sleep: Callable[[float], None] = time.sleep,
    what: str = "backend call",
) -> T:
    """Run fn, retrying TransportError up to the policy's attempt budget."""
    last: TransportError | None = None
    for attempt in range(policy.attempts):
        try:
            return fn()
        except TransportError as exc:
            last = exc
            if attempt == policy.attempts - 1:
                break
            delay = policy.delay_for(attempt)
            logger.warning(
                "%s failed (attempt %d/%d): %s; retrying in %.1fs",
                what,
                attempt + 1,
                policy.attempts,
                exc,
                delay,
            )
            sleep(delay)
    assert last is not None
    raise last


def map_in_order(fn: Callable[[T], U], items: Sequence[T], limit: int) -> list[U]:
    """fn over items with at most limit calls in flight; results in item order.

    With limit <= 1 or fewer than two items every call runs in the caller's
    thread. Otherwise the calls run on a pool made for this call alone, so
    fn may itself call map_in_order without waiting on a worker that its
    caller holds. The first exception in item order propagates once the
    calls already running have finished; calls not yet started are dropped.
    """
    if limit <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(limit, len(items))) as pool:
        return list(pool.map(fn, items))
