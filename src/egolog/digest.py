"""Caption digest: compact a caption track before LLM reasoning.

Three stages run in order: drop captions carrying uninformative blocklist
phrases, drop captions irrelevant to every query (embedding similarity),
then group similar consecutive captions and merge each group into one
caption, either through the LLM backend or by deterministic concatenation.
Every stage preserves caption order and the track's clip bounds, and never
crosses video boundaries.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Sequence

from .corpus import Caption, CaptionTrack, Query
from .llm import LlmBackend
from .errors import EgologError
from .similarity import EmbedderBackend, cosine_matrix, cosine_rows, embed_batch

logger = logging.getLogger(__name__)

MERGE_PROMPT = (
    "In this task, you will merge a list of captions into a single, concise "
    "caption. Focus on clarity and brevity while ensuring no critical details "
    "are lost in the merging process."
)

DEFAULT_BLOCKLIST = ("looks around", "looks at the camera")


class MergeMode(str, Enum):
    LLM = "llm"
    CONCAT = "concat"


@dataclass(frozen=True)
class DigestConfig:
    """Thresholds and knobs for the digest stages."""

    blocklist: tuple[str, ...] = DEFAULT_BLOCKLIST
    relevance_threshold: float = 0.30
    adjacency_threshold: float = 0.85
    max_merge_group: int = 8
    merge_mode: MergeMode = MergeMode.CONCAT

    def __post_init__(self) -> None:
        if not -1.0 <= self.relevance_threshold <= 1.0:
            raise ValueError("relevance_threshold must be within [-1, 1]")
        # values above 1 act as an explicit "never merge" switch
        if self.adjacency_threshold < -1.0:
            raise ValueError("adjacency_threshold must be >= -1")
        if self.max_merge_group < 2:
            raise ValueError("max_merge_group must be >= 2")
        object.__setattr__(
            self, "blocklist", tuple(p.lower() for p in self.blocklist)
        )


@dataclass(frozen=True)
class MergeGroup:
    """A contiguous run of similar captions destined for one merged caption."""

    member_indices: tuple[int, ...]
    merged_interval: tuple[float, float]
    merged_text: str = ""

    def __post_init__(self) -> None:
        if len(self.member_indices) < 2:
            raise ValueError("merge group must have at least 2 members")
        for a, b in zip(self.member_indices, self.member_indices[1:]):
            if b != a + 1:
                raise ValueError("merge group indices must be contiguous")


@dataclass
class DigestStats:
    """Per-track accounting of what each stage removed or merged."""

    input_captions: int = 0
    dropped_uninformative: int = 0
    dropped_irrelevant: int = 0
    groups_merged: int = 0
    captions_merged_away: int = 0
    merge_fallbacks: int = 0
    output_captions: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def drop_uninformative(track: CaptionTrack, cfg: DigestConfig) -> CaptionTrack:
    """Remove captions whose lowercase text contains any blocklist phrase."""
    if not cfg.blocklist:
        return track
    kept = [
        cap
        for cap in track.captions
        if not any(phrase in cap.text.lower() for phrase in cfg.blocklist)
    ]
    if not kept and track.captions:
        logger.warning(
            "all %d captions of video %r matched the blocklist",
            len(track.captions),
            track.video_id,
        )
    return track.replace_captions(kept)


def filter_by_relevance(
    track: CaptionTrack,
    queries: Sequence[Query],
    backend: EmbedderBackend,
    cfg: DigestConfig,
) -> CaptionTrack:
    """Keep captions whose best cosine against any query clears the threshold.

    Captions and queries are embedded in one batch, so they are checked
    against one embedding dimension.
    """
    if not queries:
        raise ValueError("filter_by_relevance requires at least one query")
    if not track.captions:
        return track
    n = len(track.captions)
    embs = embed_batch(backend, [c.text for c in track.captions] + [q.text for q in queries])
    best = cosine_matrix(embs[:n], embs[n:]).max(axis=1)
    kept = [
        cap for cap, score in zip(track.captions, best) if score >= cfg.relevance_threshold
    ]
    return track.replace_captions(kept)


def group_consecutive(
    track: CaptionTrack, backend: EmbedderBackend, cfg: DigestConfig
) -> list[MergeGroup]:
    """Greedy left-to-right chaining of similar adjacent captions.

    Caption i joins the current group when its cosine against caption i-1
    clears the adjacency threshold and the group is below the size cap.
    Only groups of two or more captions are returned; everything else stays
    a singleton.
    """
    if len(track.captions) < 2:
        return []
    embs = embed_batch(backend, [c.text for c in track.captions])
    adjacent = cosine_rows(embs[1:], embs[:-1])
    groups: list[MergeGroup] = []
    current = [0]
    for i, score in enumerate(adjacent, start=1):
        if score >= cfg.adjacency_threshold and len(current) < cfg.max_merge_group:
            current.append(i)
        else:
            if len(current) >= 2:
                groups.append(_make_group(track, current))
            current = [i]
    if len(current) >= 2:
        groups.append(_make_group(track, current))
    return groups


def _make_group(track: CaptionTrack, indices: list[int]) -> MergeGroup:
    members = [track.captions[i] for i in indices]
    return MergeGroup(
        member_indices=tuple(indices),
        merged_interval=(
            min(c.start_s for c in members),
            max(c.end_s for c in members),
        ),
    )


def concat_merge_text(texts: Sequence[str]) -> str:
    """Deterministic merge fallback: join deduplicated texts with '; '."""
    return "; ".join(dict.fromkeys(texts))


def merge_groups(
    track: CaptionTrack,
    groups: Sequence[MergeGroup],
    llm: LlmBackend | None,
    cfg: DigestConfig,
) -> tuple[CaptionTrack, int]:
    """Replace each group with a single caption spanning its interval.

    In LLM mode the member texts go through the merge prompt; any backend
    failure degrades that group to concatenation. Returns the merged track
    and the number of LLM fallbacks.
    """
    grouped: set[int] = set()
    for group in groups:
        grouped.update(group.member_indices)
    fallbacks = 0

    merged_captions: list[Caption] = [
        cap for i, cap in enumerate(track.captions) if i not in grouped
    ]
    for group in groups:
        texts = [track.captions[i].text for i in group.member_indices]
        if cfg.merge_mode is MergeMode.LLM and llm is not None:
            try:
                text = llm.complete(MERGE_PROMPT, "\n".join(texts)).strip()
                if not text:
                    raise EgologError("merge produced empty text")
            except EgologError as exc:
                logger.warning(
                    "merge failed for video %r group %s: %s; falling back to concat",
                    track.video_id,
                    group.member_indices,
                    exc,
                )
                fallbacks += 1
                text = concat_merge_text(texts)
        else:
            text = concat_merge_text(texts)
        merged_captions.append(
            Caption(
                video_id=track.video_id,
                start_s=group.merged_interval[0],
                end_s=group.merged_interval[1],
                text=text,
            )
        )
    return track.replace_captions(merged_captions), fallbacks


def digest(
    track: CaptionTrack,
    queries: Sequence[Query],
    backend: EmbedderBackend,
    llm: LlmBackend | None,
    cfg: DigestConfig,
) -> tuple[CaptionTrack, DigestStats]:
    """Run the full digest pipeline on one track.

    Relevance filtering is skipped when there are no queries for the track
    or when the threshold sits at -1 (keeps everything by definition).
    """
    stats = DigestStats(input_captions=len(track.captions))

    stage1 = drop_uninformative(track, cfg)
    stats.dropped_uninformative = len(track.captions) - len(stage1.captions)

    if queries and cfg.relevance_threshold > -1.0 and stage1.captions:
        stage2 = filter_by_relevance(stage1, queries, backend, cfg)
    else:
        stage2 = stage1
    stats.dropped_irrelevant = len(stage1.captions) - len(stage2.captions)

    groups = group_consecutive(stage2, backend, cfg) if stage2.captions else []
    merged, fallbacks = merge_groups(stage2, groups, llm, cfg)
    stats.groups_merged = len(groups)
    stats.captions_merged_away = sum(len(g.member_indices) - 1 for g in groups)
    stats.merge_fallbacks = fallbacks
    stats.output_captions = len(merged.captions)
    return merged, stats
