"""Interval refinement for localization answers.

Candidate intervals from the model are padded by a fixed margin and
clamped to clip bounds; a pluggable scorer scores all padded candidates
of one query in one call and the best one is selected. An NA answer
falls back to the full clip. This module also generates the balanced
positive/negative dataset used to train candidate-selection classifiers:
ground-truth windows are randomly shifted and scaled, then kept as
positives (IoU strictly above the positive threshold) or negatives
(strictly below the negative threshold), equal counts of each.

Neural candidate selectors are out of scope; the CandidateScorer protocol
is the seam they plug into. In scope is a deterministic caption-overlap
heuristic.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from enum import Enum
from typing import Protocol, Sequence, runtime_checkable

from .corpus import CaptionTrack, QueryKind
from .errors import EgologError, RefineError
from .metrics import iou
from .reasoner import CandidateInterval, LlmAnswer
from .seeding import derive_seed
from .similarity import EmbedderBackend, cosine_matrix, embed_batch

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RefineConfig:
    """Padding margin, jitter distribution, and label thresholds."""

    pad_alpha: float = 10.0
    jitter_shift_max: float = 30.0
    jitter_scale_range: tuple[float, float] = (0.5, 2.0)
    pos_iou: float = 0.5
    neg_iou: float = 0.1

    def __post_init__(self) -> None:
        if self.pad_alpha < 0:
            raise ValueError("pad_alpha must be >= 0")
        if self.jitter_shift_max < 0:
            raise ValueError("jitter_shift_max must be >= 0")
        low, high = self.jitter_scale_range
        if not 0 < low <= high:
            raise ValueError("jitter_scale_range must satisfy 0 < low <= high")
        if not 0 <= self.neg_iou < self.pos_iou <= 1:
            raise ValueError("thresholds must satisfy 0 <= neg_iou < pos_iou <= 1")


class Label(str, Enum):
    POS = "pos"
    NEG = "neg"


@dataclass(frozen=True)
class RefinementSample:
    """One labeled jittered window for classifier training."""

    query_id: str
    interval: CandidateInterval
    label: Label
    iou_to_gt: float


@runtime_checkable
class CandidateScorer(Protocol):
    """Scores the padded candidate windows of one query over a track.

    Returns one score per candidate, in the order given. Implementations
    must be deterministic per instance. Higher is better.
    """

    def score(
        self, query_text: str, intervals: Sequence[CandidateInterval], track: CaptionTrack
    ) -> list[float]: ...


class CaptionOverlapScorer:
    """Heuristic scorer: seconds of query-relevant captions in the window.

    A caption is relevant when its embedding's cosine similarity to the
    query is at or above the threshold; each relevant caption whose span
    positively intersects the candidate window contributes its full
    duration to the score. Relevance is computed once per call, for all
    candidates of the query.
    """

    def __init__(
        self, backend: EmbedderBackend, relevance_threshold: float = 0.30
    ) -> None:
        self._backend = backend
        self._threshold = relevance_threshold

    def score(
        self, query_text: str, intervals: Sequence[CandidateInterval], track: CaptionTrack
    ) -> list[float]:
        if not track.captions:
            return [0.0] * len(intervals)
        embs = embed_batch(self._backend, [query_text] + [c.text for c in track.captions])
        relevance = cosine_matrix(embs[1:], embs[:1])[:, 0]
        relevant = [c for c, r in zip(track.captions, relevance) if r >= self._threshold]
        scores = []
        for interval in intervals:
            # summed left to right in caption order: np.sum adds in another
            # order, which can change a score's last bit and flip a tie
            total = 0.0
            for caption in relevant:
                if min(caption.end_s, interval.end_s) - max(
                    caption.start_s, interval.start_s
                ) > 0:
                    total += caption.duration_s
            scores.append(total)
        return scores


def pad_interval(
    c: CandidateInterval, cfg: RefineConfig, bounds: tuple[float, float]
) -> CandidateInterval:
    """Widen c by pad_alpha on each side, clamped to the clip bounds."""
    lo, hi = bounds
    if not lo < hi:
        raise RefineError(f"degenerate clip bounds ({lo}, {hi})")
    start_s = max(c.start_s - cfg.pad_alpha, lo)
    end_s = min(c.end_s + cfg.pad_alpha, hi)
    if not start_s < end_s:
        raise RefineError(
            f"candidate ({c.start_s}, {c.end_s}) vanished when clamped to "
            f"bounds ({lo}, {hi})"
        )
    return CandidateInterval(start_s, end_s)


def select_candidate(
    answer: LlmAnswer,
    track: CaptionTrack,
    scorer: CandidateScorer,
    cfg: RefineConfig,
    *,
    query_text: str,
) -> CandidateInterval:
    """Pick one final window from an NLQ answer.

    NA answers map to the full clip. A single candidate is returned
    padded. Among several, all are padded and the best-scoring one wins,
    ties going to the earliest start; if the scorer raises an EgologError,
    the earliest candidate is used with a warning.
    """
    if answer.kind is not QueryKind.NLQ:
        raise ValueError(f"select_candidate requires an NLQ answer, got {answer.kind}")
    bounds = track.bounds
    if answer.is_na:
        return CandidateInterval(*bounds)
    padded = [pad_interval(c, cfg, bounds) for c in answer.intervals]
    if len(padded) == 1:
        return padded[0]
    order = sorted(
        range(len(padded)), key=lambda i: (padded[i].start_s, padded[i].end_s)
    )
    try:
        scores = scorer.score(query_text, padded, track)
    except EgologError as exc:
        logger.warning(
            "scorer failed for qid %r (%s); falling back to earliest candidate",
            answer.qid,
            exc,
        )
        return padded[order[0]]
    best = min(order, key=lambda i: -scores[i])
    return padded[best]


def check_sample(sample: RefinementSample, cfg: RefineConfig) -> None:
    """Re-derive the sample's label from its IoU; raise on mismatch."""
    if sample.label is Label.POS and not sample.iou_to_gt > cfg.pos_iou:
        raise RefineError(
            f"sample for {sample.query_id!r} labeled pos with IoU {sample.iou_to_gt}"
        )
    if sample.label is Label.NEG and not sample.iou_to_gt < cfg.neg_iou:
        raise RefineError(
            f"sample for {sample.query_id!r} labeled neg with IoU {sample.iou_to_gt}"
        )


def _jitter_window(
    rng: random.Random,
    gt: tuple[float, float],
    bounds: tuple[float, float],
    cfg: RefineConfig,
) -> tuple[float, float] | None:
    lo, hi = bounds
    gt_start, gt_end = gt
    shift = rng.uniform(-cfg.jitter_shift_max, cfg.jitter_shift_max)
    scale = rng.uniform(*cfg.jitter_scale_range)
    center = (gt_start + gt_end) / 2.0 + shift
    half = (gt_end - gt_start) * scale / 2.0
    start_s = max(center - half, lo)
    end_s = min(center + half, hi)
    if not start_s < end_s:
        return None
    return (start_s, end_s)


def gen_refinement_dataset(
    gts: Sequence[tuple[str, tuple[float, float], tuple[float, float]]],
    cfg: RefineConfig,
    seed: int,
    *,
    samples_per_gt: int = 10,
    max_attempts_per_gt: int = 10_000,
) -> list[RefinementSample]:
    """Jitter each ground-truth window into balanced POS/NEG samples.

    gts holds (qid, gt_window, clip_bounds) triples. Per window, jittered
    copies with IoU strictly above pos_iou become positives and ones
    strictly below neg_iou become negatives, samples_per_gt of each;
    exact-threshold and in-between draws are discarded. Each qid jitters
    under its own seed derived from (seed, qid), so output is independent
    of processing order. A window whose geometry cannot fill both quotas
    within the attempt budget raises RefineError naming the qid.
    """
    if samples_per_gt < 1:
        raise ValueError("samples_per_gt must be >= 1")
    samples: list[RefinementSample] = []
    for qid, gt, bounds in gts:
        lo, hi = bounds
        gt_start, gt_end = gt
        if not lo < hi:
            raise RefineError(f"degenerate clip bounds ({lo}, {hi}) for {qid!r}")
        if not gt_start < gt_end or gt_start < lo or gt_end > hi:
            raise RefineError(
                f"ground truth ({gt_start}, {gt_end}) of {qid!r} not within "
                f"bounds ({lo}, {hi})"
            )
        rng = random.Random(derive_seed(seed, "refine", qid))
        pos: list[RefinementSample] = []
        neg: list[RefinementSample] = []
        attempts = 0
        while len(pos) < samples_per_gt or len(neg) < samples_per_gt:
            if attempts >= max_attempts_per_gt:
                raise RefineError(
                    f"attempt budget exhausted for {qid!r}: "
                    f"{len(pos)} pos / {len(neg)} neg of {samples_per_gt}"
                )
            attempts += 1
            window = _jitter_window(rng, (gt_start, gt_end), bounds, cfg)
            if window is None:
                continue
            value = iou(window, (gt_start, gt_end))
            if value > cfg.pos_iou and len(pos) < samples_per_gt:
                sample = RefinementSample(
                    query_id=qid,
                    interval=CandidateInterval(*window),
                    label=Label.POS,
                    iou_to_gt=value,
                )
            elif value < cfg.neg_iou and len(neg) < samples_per_gt:
                sample = RefinementSample(
                    query_id=qid,
                    interval=CandidateInterval(*window),
                    label=Label.NEG,
                    iou_to_gt=value,
                )
            else:
                continue
            check_sample(sample, cfg)
            (pos if sample.label is Label.POS else neg).append(sample)
        samples.extend(pos)
        samples.extend(neg)
    return samples


def sample_to_record(sample: RefinementSample) -> dict:
    return {
        "qid": sample.query_id,
        "start_s": round(sample.interval.start_s, 3),
        "end_s": round(sample.interval.end_s, 3),
        "label": sample.label.value,
        "iou": sample.iou_to_gt,
    }
