"""Canonical data model: captions, caption tracks, and queries.

Caption tracks stand in for the raw video: one short timestamped text
description per sampled clip. Everything downstream (digest, prompting,
refinement, evaluation) consumes the immutable types defined here.

File formats are line-delimited JSON; see `load_captions` / `load_queries`
for the exact record shapes. Timestamps are normalized to millisecond
precision on ingest and compared exactly afterwards, no epsilon.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
from dataclasses import dataclass, fields
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .errors import CorpusError

logger = logging.getLogger(__name__)

_TIME_DECIMALS = 3

_BOUNDS_KEYS = ("video_id", "clip_start_s", "clip_end_s")

# how a value that is not text is named, by its JSON type
_NOT_TEXT = {type(None): "null", bool: "a bool", list: "a list", dict: "an object"}


def finite_seconds(value) -> float:
    """A time as a float, unrounded.

    Anything but an int or a float (a bool, a string, null) raises
    ValueError, and so does a non-finite number (NaN, an infinity, a
    literal like 1e309 that overflows to infinity, or an integer too large
    for a float).
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"times must be numbers, got {value!r}")
    try:
        seconds = float(value)
    except OverflowError:
        raise ValueError("non-finite time: integer too large for a float") from None
    if not math.isfinite(seconds):
        raise ValueError(f"non-finite time {value!r}")
    return seconds


def normalize_seconds(value: float) -> float:
    """Normalize a timestamp to millisecond precision, never negative zero.

    What finite_seconds rejects raises ValueError.
    """
    if type(value) is float and math.isfinite(value):
        return round(value, _TIME_DECIMALS) + 0.0
    # adding 0.0 turns a -0.0 (from -0.0 or a tiny negative) into 0.0
    return round(finite_seconds(value), _TIME_DECIMALS) + 0.0


def whole_number(value, name: str) -> int:
    """An integer field of a record: an int, or a float with no fraction.

    Anything else (a bool, a string, null, a fraction, a non-finite float)
    raises ValueError.
    """
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def time_pair(
    value, name: str, seconds: Callable[[object], float]
) -> tuple[float, float]:
    """A [start, end] field as two times, each read by seconds.

    Anything but a two-element list raises ValueError.
    """
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"{name} must be [start, end]")
    return seconds(value[0]), seconds(value[1])


def text_field(value, name: str) -> str:
    """A text field of a record: a string, or a number as its digits.

    null, a bool, a list or an object raises ValueError.
    """
    if type(value) not in (str, int, float):
        got = _NOT_TEXT[type(value)]
        raise ValueError(f"{name} must be a string or a number, got {got}")
    return str(value)


def normalize_caption_text(text: str) -> str:
    """Replace newlines with spaces and trim the ends."""
    if "\n" in text or "\r" in text:
        text = text.replace("\r\n", " ").replace("\n", " ").replace("\r", " ")
    return text.strip()


@dataclass(frozen=True, slots=True)
class Caption:
    """One timestamped description of a short clip; the atomic memory unit."""

    video_id: str
    start_s: float
    end_s: float
    text: str

    def __post_init__(self) -> None:
        if not self.video_id:
            raise ValueError("caption video_id must be non-empty")
        if self.start_s < 0:
            raise ValueError(f"caption start must be non-negative, got {self.start_s}")
        if not self.start_s < self.end_s:
            raise ValueError(f"inverted interval ({self.start_s}, {self.end_s})")
        if "\n" in self.text or "\r" in self.text:
            raise ValueError("caption text must not contain newlines")
        if not self.text.strip():
            raise ValueError("caption text must be non-empty")

    @property
    def interval(self) -> tuple[float, float]:
        return (self.start_s, self.end_s)


@dataclass(frozen=True, slots=True)
class CaptionTrack:
    """Ordered caption sequence for one video with its clip bounds."""

    video_id: str
    clip_start_s: float
    clip_end_s: float
    captions: tuple[Caption, ...]

    def __post_init__(self) -> None:
        if not self.clip_start_s < self.clip_end_s:
            raise ValueError(
                f"invalid clip bounds ({self.clip_start_s}, {self.clip_end_s}) "
                f"for video {self.video_id!r}"
            )
        prev: Caption | None = None
        for cap in self.captions:
            if cap.video_id != self.video_id:
                raise ValueError(
                    f"caption for video {cap.video_id!r} inside track {self.video_id!r}"
                )
            if cap.start_s < self.clip_start_s or cap.end_s > self.clip_end_s:
                raise ValueError(
                    f"caption ({cap.start_s}, {cap.end_s}) outside clip bounds "
                    f"({self.clip_start_s}, {self.clip_end_s}) in video {self.video_id!r}"
                )
            if prev is not None and (cap.start_s, cap.end_s) < (prev.start_s, prev.end_s):
                raise ValueError(f"captions not sorted in video {self.video_id!r}")
            prev = cap

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.clip_start_s, self.clip_end_s)

    @staticmethod
    def build(
        video_id: str,
        captions: Iterable[Caption],
        clip_start_s: float | None = None,
        clip_end_s: float | None = None,
    ) -> "CaptionTrack":
        """Sort captions (stable, by start then end) and default bounds to their hull."""
        ordered = sorted(captions, key=attrgetter("start_s", "end_s"))
        if not ordered and None in (clip_start_s, clip_end_s):
            raise ValueError(f"cannot infer clip bounds for empty track {video_id!r}")
        if clip_start_s is None:
            clip_start_s = min(c.start_s for c in ordered)
        if clip_end_s is None:
            clip_end_s = max(c.end_s for c in ordered)
        return CaptionTrack(video_id, clip_start_s, clip_end_s, tuple(ordered))

    def replace_captions(self, captions: Iterable[Caption]) -> "CaptionTrack":
        """Same video and bounds, different caption list (re-sorted)."""
        return CaptionTrack.build(self.video_id, captions, *self.bounds)


class QueryKind(str, Enum):
    QA = "qa"
    NLQ = "nlq"


@dataclass(frozen=True, slots=True)
class Query:
    """A multiple-choice question (QA) or a temporal localization query (NLQ)."""

    qid: str
    video_id: str
    kind: QueryKind
    text: str
    choices: tuple[str, ...] | None = None
    gt_answer_idx: int | None = None
    gt_window: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.qid:
            raise ValueError("query qid must be non-empty")
        if not self.video_id:
            raise ValueError(f"query {self.qid!r} has empty video_id")
        if not self.text.strip():
            raise ValueError(f"query {self.qid!r} has empty text")
        if self.kind is QueryKind.QA:
            if self.choices is None or len(self.choices) != 5:
                n = 0 if self.choices is None else len(self.choices)
                raise ValueError(f"expected 5 choices for QA query {self.qid!r}, got {n}")
            if self.gt_window is not None:
                raise ValueError(f"QA query {self.qid!r} cannot carry a gt window")
            if self.gt_answer_idx is not None and not 0 <= self.gt_answer_idx <= 4:
                raise ValueError(
                    f"gt answer index {self.gt_answer_idx} out of range for query {self.qid!r}"
                )
        else:
            if self.choices is not None:
                raise ValueError(f"NLQ query {self.qid!r} cannot carry choices")
            if self.gt_answer_idx is not None:
                raise ValueError(f"NLQ query {self.qid!r} cannot carry an answer index")
            if self.gt_window is not None and not self.gt_window[0] < self.gt_window[1]:
                raise ValueError(
                    f"gt window {self.gt_window} inverted for query {self.qid!r}"
                )


# the keys of a caption record, in the order save_captions writes them
_CAPTION_KEYS = tuple(f.name for f in fields(Caption))
_CAPTION_KEY_SET = frozenset(_CAPTION_KEYS)
_BOUNDS_KEY_SET = frozenset(_BOUNDS_KEYS)
_CAPTION_ONLY = _CAPTION_KEY_SET - _BOUNDS_KEY_SET
_BOUNDS_ONLY = _BOUNDS_KEY_SET - _CAPTION_KEY_SET

# the decoder's scanner: raw_decode(line) without its Python frame, raising
# StopIteration where raw_decode raises "Expecting value"
_SCAN = json.JSONDecoder().scan_once


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs from a JSONL file; blank lines skipped.

    The file is read and decoded whole, then split into lines at "\\n",
    "\\r\\n" and "\\r", as text-mode iteration splits them. A line that
    is exactly one JSON value takes one call of the decoder's scanner;
    any other line goes through json.loads, whose message a malformed
    line reports. A file that is not UTF-8 is checked line by line, so a
    byte that is not UTF-8 is a CorpusError naming the line it is on,
    raised only once the lines before it have been yielded. A file that
    cannot be read (a directory, an I/O error) is a CorpusError naming it.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text, valid_utf8 = data.decode("utf-8"), True
    except UnicodeDecodeError:
        text, valid_utf8 = data.decode("utf-8", errors="surrogateescape"), False
    # only the lines stay alive while the records are yielded
    del data
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    del text
    for lineno, line in enumerate(lines, start=1):
        if not valid_utf8 and line.strip():
            try:
                line.encode("utf-8")  # fails on the surrogate a bad byte decodes to
            except UnicodeEncodeError:
                raise CorpusError("not valid UTF-8", path=str(path), line=lineno) from None
        try:
            record, end = _SCAN(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            if not line.strip():
                continue
            # json.loads gets the line with its newline, as a text-mode read
            # gives it: the newline changes the message of an open string
            if lineno < len(lines):
                line += "\n"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(
                    f"malformed line: {exc.msg}", path=str(path), line=lineno
                ) from exc
            except RecursionError:
                raise CorpusError(
                    "malformed line: nested too deeply", path=str(path), line=lineno
                ) from None
        if not isinstance(record, dict):
            raise CorpusError("record is not an object", path=str(path), line=lineno)
        yield lineno, record


def _mixed_shapes(record: dict, other_keys: frozenset, path: Path, line: int) -> CorpusError:
    """The error for a caption or bounds record that carries other_keys, of the other shape."""
    if record.keys() >= _CAPTION_KEY_SET | _BOUNDS_KEY_SET:
        message = "record has both caption and bounds fields"
    else:
        message = f"record mixes caption and bounds fields: {sorted(record.keys() & other_keys)}"
    return CorpusError(message, path=str(path), line=line)


def load_captions(path: str | Path) -> dict[str, CaptionTrack]:
    """Load a captions file into tracks keyed by video_id.

    Each line is either a caption record
    ``{"video_id", "start_s", "end_s", "text"}`` or an optional bounds record
    ``{"video_id", "clip_start_s", "clip_end_s"}``. Without a bounds record
    the clip bounds default to the hull of the video's captions. A record
    of one shape that carries a field of the other raises CorpusError.
    Exact duplicate caption records are dropped with a warning count.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"captions file not found: {path}")

    captions: dict[str, list[Caption]] = {}
    bounds: dict[str, tuple[float, float]] = {}
    seen: set[tuple[str, float, float, str]] = set()
    duplicates = 0

    for lineno, record in iter_jsonl(path):
        keys = record.keys()
        if keys == _CAPTION_KEY_SET:
            pass  # the common row: a caption with no other key to check
        elif keys >= _BOUNDS_KEY_SET:
            if not keys.isdisjoint(_CAPTION_ONLY):
                raise _mixed_shapes(record, _CAPTION_ONLY, path, lineno)
            try:
                vid = text_field(record["video_id"], "video_id")
                lo = normalize_seconds(record["clip_start_s"])
                hi = normalize_seconds(record["clip_end_s"])
            except (TypeError, ValueError) as exc:
                raise CorpusError(f"bad bounds record: {exc}", path=str(path), line=lineno)
            if not lo < hi:
                raise CorpusError(
                    f"inverted clip bounds ({lo}, {hi})", path=str(path), line=lineno
                )
            if vid in bounds and bounds[vid] != (lo, hi):
                raise CorpusError(
                    f"conflicting bounds records for video {vid!r}",
                    path=str(path),
                    line=lineno,
                )
            bounds[vid] = (lo, hi)
            continue
        elif not keys >= _CAPTION_KEY_SET:
            missing = sorted(_CAPTION_KEY_SET - keys)
            raise CorpusError(
                f"record missing fields {missing}", path=str(path), line=lineno
            )
        elif not keys.isdisjoint(_BOUNDS_ONLY):
            raise _mixed_shapes(record, _BOUNDS_ONLY, path, lineno)
        vid, text = record["video_id"], record["text"]
        try:
            # text_field of a str is the str itself
            cap = Caption(
                video_id=vid if type(vid) is str else text_field(vid, "video_id"),
                start_s=normalize_seconds(record["start_s"]),
                end_s=normalize_seconds(record["end_s"]),
                text=normalize_caption_text(
                    text if type(text) is str else text_field(text, "text")
                ),
            )
        except (TypeError, ValueError) as exc:
            raise CorpusError(str(exc), path=str(path), line=lineno) from exc
        key = (cap.video_id, cap.start_s, cap.end_s, cap.text)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        captions.setdefault(cap.video_id, []).append(cap)

    if duplicates:
        logger.warning("dropped %d duplicate caption records from %s", duplicates, path)

    tracks: dict[str, CaptionTrack] = {}
    for vid, caps in captions.items():
        lo, hi = bounds.get(vid, (None, None))
        try:
            tracks[vid] = CaptionTrack.build(vid, caps, lo, hi)
        except ValueError as exc:
            raise CorpusError(str(exc), path=str(path)) from exc
    for vid in bounds:
        if vid not in tracks:
            logger.warning("bounds record for video %r has no captions in %s", vid, path)
    return tracks


def save_captions(tracks: Mapping[str, CaptionTrack], path: str | Path) -> None:
    """Write tracks in the canonical captions file format, through write_jsonl.

    One bounds record per track followed by its caption records, videos in
    sorted order. `load_captions` of the output reproduces identical tracks.
    """

    def rows() -> Iterator[dict]:
        for vid in sorted(tracks):
            track = tracks[vid]
            yield {key: getattr(track, key) for key in _BOUNDS_KEYS}
            for cap in track.captions:
                yield {key: getattr(cap, key) for key in _CAPTION_KEYS}

    write_jsonl(path, rows())


@contextlib.contextmanager
def _atomic(path: Path) -> Iterator[Path]:
    """A temporary path next to path, moved over path only if the block succeeds.

    A crash or an exception mid-write leaves the previous file untouched.
    An OSError while creating the directory, writing or replacing path
    becomes a CorpusError naming path.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            yield tmp
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise CorpusError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """Write rows as JSON lines, one object per line, atomically."""
    with _atomic(Path(path)) as tmp, open(tmp, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_json(path: str | Path, payload: Mapping) -> None:
    """Write payload as indented JSON with sorted keys, atomically."""
    with _atomic(Path(path)) as tmp, open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True))
        handle.write("\n")


def load_queries(path: str | Path) -> list[Query]:
    """Load a queries file; QA and NLQ records may coexist.

    QA records: ``{"qid", "video_id", "kind": "qa", "question",
    "choices": [5 strings], "answer_idx"?}``. NLQ records: ``{"qid",
    "video_id", "kind": "nlq", "query", "gt": [start, end]?}``. A QA
    record with a "gt" or a "query", or an NLQ one with "choices",
    "answer_idx" or a "question", raises CorpusError (a null "gt",
    "answer_idx", "query", "question" or, on an NLQ record, "choices"
    counts as absent).
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"queries file not found: {path}")

    queries: list[Query] = []
    seen: set[str] = set()
    for lineno, record in iter_jsonl(path):
        kind_raw = record.get("kind")
        if kind_raw not in (QueryKind.QA.value, QueryKind.NLQ.value):
            raise CorpusError(f"unknown kind {kind_raw!r}", path=str(path), line=lineno)
        kind = QueryKind(kind_raw)
        try:
            qid = text_field(record.get("qid", ""), "qid")
            if qid in seen:
                raise CorpusError(f"duplicate qid {qid!r}", path=str(path), line=lineno)
            video_id = text_field(record.get("video_id", ""), "video_id")
            if kind is QueryKind.QA:
                choices_raw = record.get("choices")
                if not isinstance(choices_raw, list):
                    raise ValueError(f"expected 5 choices for QA query {qid!r}, got none")
                answer_idx = record.get("answer_idx")
                query = Query(
                    qid=qid,
                    video_id=video_id,
                    kind=kind,
                    text=text_field(record.get("question", ""), "question"),
                    choices=tuple(text_field(c, "a choice") for c in choices_raw),
                    # Query rejects a gt the row carries
                    gt_window=record.get("gt"),
                    gt_answer_idx=(
                        None
                        if answer_idx is None
                        else whole_number(answer_idx, "answer_idx")
                    ),
                )
                if record.get("query") is not None:
                    raise ValueError(f"QA query {qid!r} cannot carry NLQ query text")
            else:
                if record.get("choices") is not None:
                    raise ValueError(f"NLQ query {qid!r} cannot carry choices")
                gt_raw = record.get("gt")
                gt = (
                    None
                    if gt_raw is None
                    else time_pair(gt_raw, f"gt for query {qid!r}", normalize_seconds)
                )
                query = Query(
                    qid=qid,
                    video_id=video_id,
                    kind=kind,
                    text=text_field(record.get("query", ""), "query"),
                    gt_window=gt,
                    # Query rejects an answer index the row carries
                    gt_answer_idx=record.get("answer_idx"),
                )
                if record.get("question") is not None:
                    raise ValueError(f"NLQ query {qid!r} cannot carry a question")
        except (TypeError, ValueError) as exc:
            raise CorpusError(str(exc), path=str(path), line=lineno) from exc
        seen.add(qid)
        queries.append(query)
    return queries

