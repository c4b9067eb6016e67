"""Canonical data model: captions, caption tracks, and queries.

Caption tracks stand in for the raw video: one short timestamped text
description per sampled clip. Everything downstream (digest, prompting,
refinement, evaluation) consumes the immutable types defined here.

File formats are line-delimited JSON; see `load_captions` / `load_queries`
for the exact record shapes. Timestamps are normalized to millisecond
precision on ingest and compared exactly afterwards, no epsilon.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import CorpusError

logger = logging.getLogger(__name__)

_TIME_DECIMALS = 3

_CAPTION_KEYS = {"video_id", "start_s", "end_s", "text"}
_BOUNDS_KEYS = {"video_id", "clip_start_s", "clip_end_s"}


def finite_seconds(value) -> float:
    """A time as a float, unrounded.

    A non-finite number (NaN, an infinity, a literal like 1e309 that
    overflows to infinity, or an integer too large for a float) raises
    ValueError.
    """
    try:
        seconds = float(value)
    except OverflowError:
        raise ValueError("non-finite time: integer too large for a float") from None
    if not math.isfinite(seconds):
        raise ValueError(f"non-finite time {value!r}")
    return seconds


def normalize_seconds(value: float) -> float:
    """Normalize a timestamp to millisecond precision.

    A bool or a non-finite number raises ValueError.
    """
    if isinstance(value, bool):
        raise ValueError(f"times must be numbers, got {value!r}")
    return round(finite_seconds(value), _TIME_DECIMALS)


def whole_number(value, name: str) -> int:
    """An integer field of a record; a bool or a fraction raises ValueError."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def normalize_caption_text(text: str) -> str:
    """Replace newlines with spaces and trim the ends."""
    return text.replace("\r\n", " ").replace("\n", " ").replace("\r", " ").strip()


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
        ordered = sorted(captions, key=lambda c: (c.start_s, c.end_s))
        if clip_start_s is None:
            if not ordered:
                raise ValueError(f"cannot infer clip bounds for empty track {video_id!r}")
            clip_start_s = min(c.start_s for c in ordered)
        if clip_end_s is None:
            if not ordered:
                raise ValueError(f"cannot infer clip bounds for empty track {video_id!r}")
            clip_end_s = max(c.end_s for c in ordered)
        return CaptionTrack(video_id, clip_start_s, clip_end_s, tuple(ordered))

    def replace_captions(self, captions: Iterable[Caption]) -> "CaptionTrack":
        """Same video and bounds, different caption list (re-sorted)."""
        ordered = sorted(captions, key=lambda c: (c.start_s, c.end_s))
        return CaptionTrack(self.video_id, self.clip_start_s, self.clip_end_s, tuple(ordered))


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


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs from a JSONL file; blank lines skipped.

    A byte that is not UTF-8 is a CorpusError naming the line it is on.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")  # fails on the surrogate a bad byte decodes to
                record = json.loads(line)
            except UnicodeEncodeError:
                raise CorpusError("not valid UTF-8", path=str(path), line=lineno) from None
            except json.JSONDecodeError as exc:
                raise CorpusError(
                    f"malformed line: {exc.msg}", path=str(path), line=lineno
                ) from exc
            if not isinstance(record, dict):
                raise CorpusError("record is not an object", path=str(path), line=lineno)
            yield lineno, record


def load_captions(path: str | Path) -> dict[str, CaptionTrack]:
    """Load a captions file into tracks keyed by video_id.

    Each line is either a caption record
    ``{"video_id", "start_s", "end_s", "text"}`` or an optional bounds record
    ``{"video_id", "clip_start_s", "clip_end_s"}``. Without a bounds record
    the clip bounds default to the hull of the video's captions. Exact
    duplicate caption records are dropped with a warning count.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"captions file not found: {path}")

    captions: dict[str, list[Caption]] = {}
    bounds: dict[str, tuple[float, float]] = {}
    seen: set[tuple[str, float, float, str]] = set()
    duplicates = 0

    for lineno, record in iter_jsonl(path):
        keys = set(record)
        if _BOUNDS_KEYS <= keys:
            vid = str(record["video_id"])
            try:
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
        if not _CAPTION_KEYS <= keys:
            missing = sorted(_CAPTION_KEYS - keys)
            raise CorpusError(
                f"record missing fields {missing}", path=str(path), line=lineno
            )
        try:
            cap = Caption(
                video_id=str(record["video_id"]),
                start_s=normalize_seconds(record["start_s"]),
                end_s=normalize_seconds(record["end_s"]),
                text=normalize_caption_text(str(record["text"])),
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
    """Write tracks in the canonical captions file format.

    One bounds record per track followed by its caption records, videos in
    sorted order. `load_captions` of the output reproduces identical tracks.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for vid in sorted(tracks):
            track = tracks[vid]
            fh.write(
                json.dumps(
                    {
                        "video_id": track.video_id,
                        "clip_start_s": track.clip_start_s,
                        "clip_end_s": track.clip_end_s,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
            for cap in track.captions:
                fh.write(
                    json.dumps(
                        {
                            "video_id": cap.video_id,
                            "start_s": cap.start_s,
                            "end_s": cap.end_s,
                            "text": cap.text,
                        },
                        ensure_ascii=False,
                    )
                    + "\n"
                )


def load_queries(path: str | Path) -> list[Query]:
    """Load a queries file; QA and NLQ records may coexist.

    QA records: ``{"qid", "video_id", "kind": "qa", "question",
    "choices": [5 strings], "answer_idx"?}``. NLQ records: ``{"qid",
    "video_id", "kind": "nlq", "query", "gt": [start, end]?}``.
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
        qid = str(record.get("qid", ""))
        if qid in seen:
            raise CorpusError(f"duplicate qid {qid!r}", path=str(path), line=lineno)
        try:
            if kind is QueryKind.QA:
                choices_raw = record.get("choices")
                if not isinstance(choices_raw, list):
                    raise ValueError(f"expected 5 choices for QA query {qid!r}, got none")
                answer_idx = record.get("answer_idx")
                query = Query(
                    qid=qid,
                    video_id=str(record.get("video_id", "")),
                    kind=kind,
                    text=str(record.get("question", "")),
                    choices=tuple(str(c) for c in choices_raw),
                    gt_answer_idx=(
                        None
                        if answer_idx is None
                        else whole_number(answer_idx, "answer_idx")
                    ),
                )
            else:
                if "choices" in record:
                    raise ValueError(f"NLQ query {qid!r} cannot carry choices")
                gt_raw = record.get("gt")
                gt = None
                if gt_raw is not None:
                    if not (isinstance(gt_raw, list) and len(gt_raw) == 2):
                        raise ValueError(f"gt for query {qid!r} must be [start, end]")
                    gt = (normalize_seconds(gt_raw[0]), normalize_seconds(gt_raw[1]))
                query = Query(
                    qid=qid,
                    video_id=str(record.get("video_id", "")),
                    kind=kind,
                    text=str(record.get("query", "")),
                    gt_window=gt,
                )
        except (TypeError, ValueError) as exc:
            raise CorpusError(str(exc), path=str(path), line=lineno) from exc
        seen.add(qid)
        queries.append(query)
    return queries

