"""Prompt construction, completion runs, and structured-response parsing.

Prompts serialize a digested caption track plus the queries; the model is
asked for a fenced JSON block with one entry per query. QA prompts force a
single lettered answer (no refusal); NLQ prompts ask for candidate
[start, end] intervals and explicitly permit "NA" when the log carries no
evidence. Every entry carries a one-sentence explanation and a verbalized
confidence level of 1, 2, or 3.

Parsing is tolerant: the JSON block may sit inside prose or code fences,
confidence values are coerced and clamped, and anything unusable degrades
to documented defaults rather than fabricated content. Any reply yields
either one answer per expected qid or a ParseError, never another
exception. Given clip bounds, each interval is clamped to them as it is
read. An interval that is empty once its ends are rounded to the
millisecond, by the clamp or as written, is dropped; the ones kept are
the numerals found in the response, clamped but unrounded.
"""

from __future__ import annotations

import json
import logging
import math
import re
import time
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import CaptionTrack, Query, QueryKind, finite_seconds, normalize_caption_text
from .corpus import normalize_seconds
from .errors import EgologError, ParseError
from .llm import LlmBackend
from .retry import call_with_retries, map_in_order
from .seeding import derive_seed

logger = logging.getLogger(__name__)

CHOICE_LETTERS = "ABCDE"

NO_CAPTIONS_MARKER = "(no captions available)"

QA_SYSTEM_PROMPT = """\
You are answering a multiple-choice question about a first-person video.
You cannot watch the video; you only see its caption log, one line per
short clip in the form "start-end: description". Times are in seconds and
C denotes the camera wearer.

Read the whole log, picture the scenes it describes, and combine evidence
across captions. Captions are lossy and occasionally wrong, so an answer
may be supported indirectly by context rather than stated outright. Choose
exactly one of the five options. If you are uncertain, still pick the
single most plausible option; never refuse to answer. Give a one-sentence
explanation of your choice and rate your confidence as 1 (low), 2 (medium),
or 3 (high).

Respond with only a fenced JSON block in exactly this shape:
```json
[{"qid": "<qid>", "answer": "<A|B|C|D|E>", "explanation": "<one sentence>", "confidence": <1|2|3>}]
```"""

NLQ_SYSTEM_PROMPT = """\
You are localizing moments in a first-person video. You cannot watch the
video; you only see its caption log, one line per short clip in the form
"start-end: description". Times are in seconds and C denotes the camera
wearer.

For each numbered query, scan the whole log, picture the scenes it
describes, and list the time intervals [start, end] (in seconds) most
likely to contain the answer, best candidate first. Captions are lossy:
an interval can qualify because its context implies the answer even when
no caption states it outright. If the log carries no usable evidence for
a query, answer "NA" for that query instead of guessing. For every query
also give a one-sentence explanation and rate your confidence as 1 (low),
2 (medium), or 3 (high).

Respond with only a fenced JSON block in exactly this shape, one entry per
query:
```json
[{"qid": "<qid>", "intervals": [[<start>, <end>], ...] or "NA", "explanation": "<one sentence>", "confidence": <1|2|3>}]
```"""


def format_seconds(value: float) -> str:
    """Render seconds without trailing zeros: 12.0 -> "12", 12.5 -> "12.5"."""
    text = f"{value:.3f}".rstrip("0").rstrip(".")
    return text if text else "0"


@dataclass(frozen=True)
class LlmAnswer:
    """Parsed structured output for one query.

    QA answers carry a 0-based choice index; NLQ answers carry candidate
    intervals, each a (start_s, end_s) pair in seconds with start < end,
    where an empty tuple means the model refused (NA).
    """

    qid: str
    kind: QueryKind
    choice_idx: int | None = None
    intervals: tuple[tuple[float, float], ...] = ()
    explanation: str = ""
    confidence: int = 1

    def __post_init__(self) -> None:
        for start_s, end_s in self.intervals:
            if not start_s < end_s:
                raise ValueError(f"inverted interval ({start_s}, {end_s})")
        if self.confidence not in (1, 2, 3):
            raise ValueError(f"confidence must be 1, 2, or 3, got {self.confidence}")
        if self.kind is QueryKind.QA:
            if self.choice_idx is None or not 0 <= self.choice_idx <= 4:
                raise ValueError(f"QA answer {self.qid!r} needs choice_idx in 0..4")
            if self.intervals:
                raise ValueError(f"QA answer {self.qid!r} cannot carry intervals")
        else:
            if self.choice_idx is not None:
                raise ValueError(f"NLQ answer {self.qid!r} cannot carry a choice index")

    @property
    def is_na(self) -> bool:
        return self.kind is QueryKind.NLQ and not self.intervals


@dataclass(frozen=True)
class Prompt:
    """One completion request: system text and user text."""

    system_text: str
    user_text: str


def caption_log_lines(track: CaptionTrack) -> list[str]:
    return [
        f"{format_seconds(c.start_s)}-{format_seconds(c.end_s)}: {c.text}"
        for c in track.captions
    ]


def _caption_log_block(track: CaptionTrack) -> list[str]:
    """The prompt's caption log: its header, the lines or the marker, a blank line."""
    return ["Caption log:", *(caption_log_lines(track) or [NO_CAPTIONS_MARKER]), ""]


def build_qa_prompt(track: CaptionTrack, query: Query) -> Prompt:
    """One prompt per QA question, captions serialized in full."""
    if query.kind is not QueryKind.QA:
        raise ValueError(f"build_qa_prompt requires a QA query, got {query.kind}")
    assert query.choices is not None
    parts = _caption_log_block(track)
    parts.append(f"Question (qid {query.qid}): {normalize_caption_text(query.text)}")
    parts.append("Options:")
    for letter, choice in zip(CHOICE_LETTERS, query.choices):
        parts.append(f"({letter}) {normalize_caption_text(choice)}")
    return Prompt(system_text=QA_SYSTEM_PROMPT, user_text="\n".join(parts))


def build_nlq_prompt(track: CaptionTrack, queries: Sequence[Query]) -> Prompt:
    """One prompt per video carrying all of its NLQ queries."""
    if not queries:
        raise ValueError("build_nlq_prompt requires at least one query")
    for query in queries:
        if query.kind is not QueryKind.NLQ:
            raise ValueError(f"build_nlq_prompt got non-NLQ query {query.qid!r}")
        if query.video_id != track.video_id:
            raise ValueError(
                f"mixed video_id: query {query.qid!r} is for {query.video_id!r}, "
                f"track is {track.video_id!r}"
            )
    parts = _caption_log_block(track)
    parts.append("Queries:")
    for i, query in enumerate(queries, start=1):
        parts.append(f"{i}. (qid {query.qid}) {normalize_caption_text(query.text)}")
    return Prompt(system_text=NLQ_SYSTEM_PROMPT, user_text="\n".join(parts))


def run(
    jobs: Sequence[tuple[Prompt, int]],
    backend: LlmBackend,
    runs: int,
    *,
    sleep: Callable[[float], None] = time.sleep,
    pool: Executor | None = None,
) -> list[list[str | EgologError]]:
    """Issue `runs` independent completions for each (prompt, seed) job.

    Returns one list per job, each with one entry per run in run-index
    order: the reply text, or the EgologError that ended the run. Per-run
    sampling seeds are derived from (job seed, run index). A TransportError
    is retried by call_with_retries (3 attempts in all, 1 s then 2 s
    apart); a run that exhausts them, or fails any other way, is logged and
    its error returned in its place. All runs of all jobs go through one
    map_in_order: on pool when one is given, else one at a time in the
    caller's thread.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")

    def one(item: tuple[Prompt, int, int]) -> str | EgologError:
        prompt, seed, run_index = item
        sampling_seed = derive_seed(seed, "run", run_index)
        try:
            return call_with_retries(
                lambda: backend.complete(
                    prompt.system_text,
                    prompt.user_text,
                    sampling_seed=sampling_seed,
                    run_index=run_index,
                ),
                sleep=sleep,
                what=f"completion run {run_index}",
            )
        except EgologError as exc:
            logger.warning("run %d failed permanently: %s", run_index, exc)
            return exc

    replies = map_in_order(one, [(p, s, i) for p, s in jobs for i in range(runs)], pool)
    return [replies[i : i + runs] for i in range(0, len(replies), runs)]


_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*[ \t]*\n?(.*?)```", re.DOTALL)

# a valid answer nests at most 5 deep; far below the decoder's recursion limit
MAX_NESTING = 100
_TOO_DEEP = "response nests deeper than the JSON decoder allows"
_SYNTAX_RE = re.compile(r'\\.|[][{}"]', re.DOTALL)

_CONFIDENCE_WORDS = {"low": 1, "medium": 2, "high": 3}

_NA_WORDS = ("na", "n/a", "none", "null", "")


def parse_response(
    raw: str,
    kind: QueryKind,
    expected_qids: Sequence[str],
    bounds: tuple[float, float] | None = None,
) -> list[LlmAnswer]:
    """Extract the structured block and map entries to the expected qids.

    The model only sees caption timestamps, so with clip bounds (lo, hi)
    each NLQ interval is clamped to them. One left empty on the millisecond
    grid, with or without bounds, is dropped (warned); an answer whose
    intervals are all dropped is NA.
    NLQ qids absent from the block become NA with confidence 1 (warned).
    A QA response with no usable answer entry raises ParseError, since QA
    has no refusal path. So does a reply that nests more than MAX_NESTING
    brackets deep.
    """
    if not expected_qids:
        raise ValueError("expected_qids must be non-empty")
    entries = _extract_entries(raw)
    if entries is None:
        raise ParseError("no structured block found in response")

    by_qid: dict[str, dict] = {}
    anonymous: list[dict] = []
    for entry in entries:
        qid = entry.get("qid")
        if qid is None:
            anonymous.append(entry)
            continue
        qid = str(qid)
        if qid in by_qid:
            logger.warning("duplicate entry for qid %r; keeping the first", qid)
            continue
        by_qid[qid] = entry
    if len(expected_qids) == 1 and expected_qids[0] not in by_qid and len(anonymous) == 1:
        # single-query prompt: an entry without a qid can only be for it
        by_qid[expected_qids[0]] = anonymous[0]
    expected = set(expected_qids)
    for qid in by_qid:
        if qid not in expected:
            logger.warning("response contains entry for unexpected qid %r", qid)

    answers: list[LlmAnswer] = []
    for qid in expected_qids:
        entry = by_qid.get(qid)
        if entry is None:
            if kind is QueryKind.QA:
                raise ParseError(f"no answer entry for qid {qid!r}")
            logger.warning("no entry for qid %r; defaulting to NA, confidence 1", qid)
            answers.append(LlmAnswer(qid=qid, kind=QueryKind.NLQ, confidence=1))
            continue
        answers.append(_entry_to_answer(entry, qid, kind, bounds))
    return answers


def _extract_entries(raw: str) -> list[dict] | None:
    """Entries of the first JSON value that has them: fenced blocks, then the reply.

    A text nesting deeper than MAX_NESTING fails before decoding, whatever
    the caller's stack depth; the RecursionError catch is a backstop.
    """
    decoder = json.JSONDecoder()
    for text in [m.group(1) for m in _FENCE_RE.finditer(raw)] + [raw]:
        if _nesting(text) > MAX_NESTING:
            raise ParseError(_TOO_DEEP)
        for idx, ch in enumerate(text):
            if ch not in "[{":
                continue
            try:
                payload, _ = decoder.raw_decode(text, idx)
            except ValueError:
                continue
            except RecursionError:
                raise ParseError(_TOO_DEEP) from None
            entries = _normalize_payload(payload)
            if entries is not None:
                return entries
    return None


def _nesting(text: str) -> int:
    """Deepest [ and { nesting the decoder can meet from any start it tries.

    The decoder tries every [ and {, also ones inside what a scan from the
    first character takes for a string, so one pass from the end keeps
    the deepest nesting ahead of each position both inside and outside a
    string. Brackets in a string do not count, and outside one the
    decoder stops at a backslash.
    """
    inside = outside = deepest = 0
    for token in reversed(_SYNTAX_RE.findall(text)):
        ch = token[-1]
        if len(token) == 2:
            # a string escapes ch; outside one the decoder stops at the
            # backslash, but it still tries ch as a start
            if ch in "[{":
                deepest = max(deepest, outside + 1)
            outside = 0
        elif ch == '"':
            inside, outside = outside, inside
        elif ch in "[{":
            outside += 1
            deepest = max(deepest, outside)
        else:
            outside = max(outside - 1, 0)
    return deepest


def _normalize_payload(payload) -> list[dict] | None:
    if isinstance(payload, dict):
        for key in ("answers", "results", "queries", "predictions"):
            inner = payload.get(key)
            if (
                isinstance(inner, list)
                and inner
                and all(isinstance(e, dict) for e in inner)
            ):
                return inner
        if _looks_like_entry(payload):
            return [payload]
    elif (
        isinstance(payload, list)
        and payload
        and all(isinstance(e, dict) for e in payload)
        and any(_looks_like_entry(e) for e in payload)
    ):
        return payload
    return None


def _looks_like_entry(entry: dict) -> bool:
    return any(key in entry for key in ("qid", "answer", "intervals"))


def _entry_to_answer(
    entry: dict, qid: str, kind: QueryKind, bounds: tuple[float, float] | None
) -> LlmAnswer:
    explanation = entry.get("explanation")
    if explanation is None:
        logger.warning("entry for qid %r has no explanation", qid)
        explanation = ""
    elif not isinstance(explanation, str):
        explanation = str(explanation)
    confidence = _parse_confidence(entry.get("confidence"), qid)
    choice_idx = None
    intervals: tuple[tuple[float, float], ...] = ()
    if kind is QueryKind.QA:
        choice_idx = _parse_choice(entry.get("answer"))
        if choice_idx is None:
            raise ParseError(f"unparsable answer {entry.get('answer')!r} for qid {qid!r}")
    else:
        intervals = _parse_intervals(entry.get("intervals"), qid, bounds)
    return LlmAnswer(
        qid, kind, choice_idx, intervals, explanation=explanation, confidence=confidence
    )


def _parse_confidence(value, qid: str) -> int:
    if isinstance(value, bool) or value is None:
        logger.warning("missing confidence for qid %r; defaulting to 1", qid)
        return 1
    # a non-finite float is unparsable; rounding it would raise
    if isinstance(value, int) or (isinstance(value, float) and math.isfinite(value)):
        level = int(round(value))
        if level == value and 1 <= level <= 3:
            return level
        clamped = min(3, max(1, level))
        logger.warning("confidence %r for qid %r clamped to %d", value, qid, clamped)
        return clamped
    if isinstance(value, str):
        word = value.strip().lower()
        if word in _CONFIDENCE_WORDS:
            logger.warning(
                "verbal confidence %r for qid %r mapped to %d",
                value,
                qid,
                _CONFIDENCE_WORDS[word],
            )
            return _CONFIDENCE_WORDS[word]
        try:
            return _parse_confidence(float(word), qid)
        except ValueError:
            pass
    logger.warning("unparsable confidence %r for qid %r; defaulting to 1", value, qid)
    return 1


def _parse_choice(value) -> int | None:
    if isinstance(value, str):
        text = value.strip()
        if text and text[0] in "([":
            text = text[1:].lstrip()
        if not text:
            return None
        letter = text[0].upper()
        if letter in CHOICE_LETTERS and (len(text) == 1 or not text[1].isalnum()):
            return CHOICE_LETTERS.index(letter)
    return None


def _parse_intervals(
    value, qid: str, bounds: tuple[float, float] | None
) -> tuple[tuple[float, float], ...]:
    if value is None:
        logger.warning("entry for qid %r has no intervals; treating as NA", qid)
        return ()
    if isinstance(value, str) and value.strip().lower() in _NA_WORDS:
        return ()
    if not isinstance(value, list):
        logger.warning("unparsable intervals %r for qid %r; treating as NA", value, qid)
        return ()

    def pair(item) -> tuple[float, float] | None:
        """item as finite (start, end) bounds, numeric strings included."""
        if not isinstance(item, list) or len(item) != 2:
            return None
        try:
            # str.strip() removes \x1c-\x1f, which float() keeps
            start_s, end_s = (
                finite_seconds(float(v.strip()) if isinstance(v, str) else v)
                for v in item
            )
        except ValueError:
            return None
        return start_s, end_s

    if pair(value) is not None:
        # a bare [start, end] pair that forgot its nesting
        value = [value]
    lo, hi = (-math.inf, math.inf) if bounds is None else bounds
    out: list[tuple[float, float]] = []
    for item in value:
        window = pair(item)
        if window is None:
            logger.warning("dropping malformed interval %r for qid %r", item, qid)
            continue
        start_s, end_s = max(window[0], lo), min(window[1], hi)
        if not normalize_seconds(start_s) < normalize_seconds(end_s):
            logger.warning(
                "dropping interval %s for qid %r: empty within %s", window, qid, (lo, hi)
            )
            continue
        if (start_s, end_s) != window:
            logger.warning(
                "clamped interval %s of qid %r to %s", window, qid, (start_s, end_s)
            )
        out.append((start_s, end_s))
    return tuple(out)
