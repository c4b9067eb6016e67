"""Caption digest: compact a caption track before LLM reasoning.

Three stages run in order: drop captions carrying uninformative blocklist
phrases, drop captions irrelevant to every query (embedding similarity),
then group similar consecutive captions and merge each group into one
caption, either through the LLM backend or by deterministic concatenation.
The stages take and return tuples of one video's captions in track order,
a group is the range of its captions' indices, and one merge function serves
both modes. `digest` builds its output track once, with the input's bounds.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import Executor
from dataclasses import asdict, dataclass
from enum import Enum
from operator import attrgetter
from typing import Sequence

from .corpus import Caption, CaptionTrack, Query, normalize_caption_text
from .llm import LlmBackend
from .errors import EgologError
from .retry import map_in_order
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


def drop_uninformative(
    captions: tuple[Caption, ...], cfg: DigestConfig
) -> tuple[Caption, ...]:
    """The captions whose lowercase text contains no blocklist phrase, in order.

    The phrases are matched as plain substrings, all in one scan per
    caption: one regular expression alternates the escaped phrases, so a
    phrase with regex metacharacters matches only itself, and an empty
    phrase matches every caption.
    """
    if not cfg.blocklist:
        return captions
    search = re.compile("|".join(map(re.escape, cfg.blocklist))).search
    kept = tuple(cap for cap in captions if not search(cap.text.lower()))
    if not kept and captions:
        logger.warning(
            "all %d captions of video %r matched the blocklist",
            len(captions),
            captions[0].video_id,
        )
    return kept


def filter_by_relevance(
    captions: tuple[Caption, ...],
    queries: Sequence[Query],
    backend: EmbedderBackend,
    cfg: DigestConfig,
) -> tuple[Caption, ...]:
    """The captions whose best cosine against any query clears the threshold.

    The distinct caption texts, then the query texts not among them, are
    embedded in one batch in first-seen order: one embedding dimension for
    all, one row per distinct text. Each caption takes its text's score.
    """
    if not queries:
        raise ValueError("filter_by_relevance requires at least one query")
    if not captions:
        return captions
    texts = dict.fromkeys(c.text for c in captions)
    n = len(texts)
    texts.update(dict.fromkeys(q.text for q in queries))
    embs = embed_batch(backend, list(texts))
    rows = dict(zip(texts, range(len(texts))))
    best = cosine_matrix(embs[:n], embs[[rows[q.text] for q in queries]]).max(axis=1)
    relevant = (best >= cfg.relevance_threshold).tolist()
    return tuple(cap for cap in captions if relevant[rows[cap.text]])


def group_consecutive(
    captions: tuple[Caption, ...], backend: EmbedderBackend, cfg: DigestConfig
) -> list[range]:
    """Greedy left-to-right chaining of similar adjacent captions.

    Caption i joins the current group when its cosine against caption i-1
    clears the adjacency threshold and the group is below the size cap.
    Each group of two or more captions is returned as the range of its
    caption indices; everything else stays a singleton.
    """
    if len(captions) < 2:
        return []
    embs = embed_batch(backend, [c.text for c in captions])
    adjacent = cosine_rows(embs[1:], embs[:-1])
    groups: list[range] = []
    start = 0
    for i, score in enumerate(adjacent, start=1):
        if score >= cfg.adjacency_threshold and i - start < cfg.max_merge_group:
            continue
        if i - start >= 2:
            groups.append(range(start, i))
        start = i
    if len(captions) - start >= 2:
        groups.append(range(start, len(captions)))
    return groups


def concat_merge_text(texts: Sequence[str]) -> str:
    """Deterministic merge fallback: join deduplicated texts with '; '."""
    return "; ".join(dict.fromkeys(texts))


def merge_groups(
    captions: tuple[Caption, ...],
    groups: Sequence[range],
    llm: LlmBackend | None,
    cfg: DigestConfig,
    pool: Executor | None = None,
) -> tuple[tuple[Caption, ...], int]:
    """Replace each group of caption indices with one caption spanning them.

    The merged caption runs from the earliest start to the latest end of
    its members. One merge function serves both modes: in concat mode it
    joins the member texts; in LLM mode it sends them through the merge
    prompt, one completion per group with a single attempt. Line breaks in
    the reply become spaces, and a backend failure or an empty reply
    degrades that group to concatenation. LLM merges are mapped in order
    on pool when one is given, else one at a time in the caller's thread;
    concatenation always runs in the caller's thread.
    Returns the ungrouped captions and then the merged ones, stably sorted
    by start then end (a merged caption follows an ungrouped one with the
    same interval), and the number of LLM fallbacks. LLM mode without an
    llm raises ValueError.
    """
    use_llm = cfg.merge_mode is MergeMode.LLM
    if use_llm and llm is None:
        raise ValueError("merge_mode llm needs an LLM backend")

    def merge(group: range) -> tuple[str, bool]:
        """The merged text and whether it fell back to concatenation."""
        texts = [cap.text for cap in captions[group.start : group.stop]]
        if not use_llm:
            return concat_merge_text(texts), False
        try:
            text = normalize_caption_text(llm.complete(MERGE_PROMPT, "\n".join(texts)))
            if not text:
                raise EgologError("merge produced empty text")
        except EgologError as exc:
            logger.warning(
                "merge failed for video %r group %s: %s; falling back to concat",
                captions[group.start].video_id,
                tuple(group),
                exc,
            )
            return concat_merge_text(texts), True
        return text, False

    merged = map_in_order(merge, groups, pool if use_llm else None)
    grouped = {i for group in groups for i in group}
    out = [cap for i, cap in enumerate(captions) if i not in grouped]
    for group, (text, _) in zip(groups, merged):
        members = captions[group.start : group.stop]
        start, end = min(c.start_s for c in members), max(c.end_s for c in members)
        out.append(Caption(members[0].video_id, start, end, text))
    out.sort(key=attrgetter("start_s", "end_s"))
    return tuple(out), sum(fell_back for _, fell_back in merged)


def digest(
    track: CaptionTrack,
    queries: Sequence[Query],
    backend: EmbedderBackend,
    llm: LlmBackend | None,
    cfg: DigestConfig,
    pool: Executor | None = None,
) -> tuple[CaptionTrack, DigestStats]:
    """Run the full digest pipeline on one track.

    Relevance filtering is skipped when there are no queries for the track
    or when the threshold sits at -1 (keeps everything by definition).
    The LLM merge completions run as merge_groups runs them: on pool when
    one is given, else in the caller's thread.
    """
    stats = DigestStats(input_captions=len(track.captions))

    stage1 = drop_uninformative(track.captions, cfg)
    stats.dropped_uninformative = len(track.captions) - len(stage1)

    if queries and cfg.relevance_threshold > -1.0:
        stage2 = filter_by_relevance(stage1, queries, backend, cfg)
    else:
        stage2 = stage1
    stats.dropped_irrelevant = len(stage1) - len(stage2)

    groups = group_consecutive(stage2, backend, cfg)
    merged, fallbacks = merge_groups(stage2, groups, llm, cfg, pool)
    stats.groups_merged = len(groups)
    stats.captions_merged_away = sum(len(g) - 1 for g in groups)
    stats.merge_fallbacks = fallbacks
    stats.output_captions = len(merged)
    return CaptionTrack(track.video_id, *track.bounds, merged), stats

