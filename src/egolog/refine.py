"""Interval refinement for localization answers.

Candidate intervals from the model are padded by a fixed margin and
clamped to clip bounds; a pluggable scorer scores all padded candidates
of one query in one call and the best one is selected. An NA answer
falls back to the full clip. This module also generates the balanced
positive/negative dataset used to train candidate-selection classifiers:
ground-truth windows are randomly shifted and scaled, rounded to the
millisecond, clamped to the clip bounds, and written as records {"qid",
"start_s", "end_s", "label", "iou"}. A record is "pos" when the IoU of its
written window with the ground truth is strictly above pos_iou and "neg"
when strictly below neg_iou, samples_per_gt of each per window.

Neural candidate selectors are out of scope; the CandidateScorer protocol
is the seam they plug into. In scope is a deterministic caption-overlap
heuristic.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Protocol, Sequence

from .corpus import CaptionTrack, QueryKind, normalize_seconds
from .errors import BackendProtocolError, EgologError, RefineError
from .metrics import iou
from .reasoner import LlmAnswer
from .seeding import derive_seed
from .similarity import EmbedderBackend, cosine_matrix, embed_batch

if TYPE_CHECKING:
    # for annotations only; the scorer imports numpy where it computes
    import numpy as np

logger = logging.getLogger(__name__)


# draws per ground-truth window before its quotas count as unfillable
MAX_ATTEMPTS_PER_GT = 10_000


@dataclass(frozen=True)
class RefineConfig:
    """The [refine] keys: padding, jitter distribution, labels, quota."""

    pad_alpha: float = 10.0
    jitter_shift_max: float = 30.0
    jitter_scale_lo: float = 0.5
    jitter_scale_hi: float = 2.0
    pos_iou: float = 0.5
    neg_iou: float = 0.1
    samples_per_gt: int = 10

    def __post_init__(self) -> None:
        if self.pad_alpha < 0:
            raise ValueError("pad_alpha must be >= 0")
        if self.jitter_shift_max < 0:
            raise ValueError("jitter_shift_max must be >= 0")
        if not 0 < self.jitter_scale_lo <= self.jitter_scale_hi:
            raise ValueError(
                "jitter scales must satisfy 0 < jitter_scale_lo <= jitter_scale_hi"
            )
        if not 0 <= self.neg_iou < self.pos_iou <= 1:
            raise ValueError("thresholds must satisfy 0 <= neg_iou < pos_iou <= 1")
        if self.samples_per_gt < 1:
            raise ValueError("samples_per_gt must be >= 1")


class CandidateScorer(Protocol):
    """Scores the padded candidate windows of one query over a track.

    Returns one score per candidate, in the order given. Implementations
    must be deterministic per instance. Higher is better.
    """

    def score(
        self, query_text: str, intervals: Sequence[tuple[float, float]], track: CaptionTrack
    ) -> list[float]: ...


class CaptionOverlapScorer:
    """Heuristic scorer: seconds of query-relevant captions in the window.

    A caption is relevant when its embedding's cosine similarity to the
    query is at or above the threshold; each relevant caption whose span
    positively intersects the candidate window contributes its full
    duration to the score. Relevance is computed once per call, for all
    candidates of the query. The caption embeddings and spans of the
    track last scored are kept, so the queries of one track embed only
    their own text. The pipeline builds one scorer per unit, on the
    unit's embedding cache; a scorer shared across threads stays correct
    but rebuilds them whenever the track changes.
    """

    def __init__(
        self, backend: EmbedderBackend, relevance_threshold: float = 0.30
    ) -> None:
        self._backend = backend
        self._threshold = relevance_threshold
        self._memo: tuple[CaptionTrack, np.ndarray, np.ndarray] | None = None

    def _captions(self, track: CaptionTrack) -> tuple[np.ndarray, np.ndarray]:
        """The track's caption embeddings and (start, end) spans, one row each."""
        import numpy as np

        memo = self._memo
        if memo is None or memo[0] is not track:
            rows = embed_batch(self._backend, [c.text for c in track.captions])
            memo = (track, rows, np.array([c.interval for c in track.captions]))
            self._memo = memo
        return memo[1], memo[2]

    def score(
        self, query_text: str, intervals: Sequence[tuple[float, float]], track: CaptionTrack
    ) -> list[float]:
        import numpy as np

        if not track.captions:
            return [0.0] * len(intervals)
        query = embed_batch(self._backend, [query_text])
        rows, spans = self._captions(track)
        if query.shape[1] != rows.shape[1]:
            dims = sorted({query.shape[1], rows.shape[1]})
            raise BackendProtocolError(f"dimension mismatch across batch: {dims}")
        relevant = cosine_matrix(rows, query)[:, 0] >= self._threshold
        if not relevant.any():
            return [0.0] * len(intervals)
        starts, ends = spans[relevant, 0], spans[relevant, 1]
        windows = np.array(intervals, dtype=np.float64).reshape(-1, 2)
        # hits[k, j]: relevant caption j positively intersects window k
        hits = (
            np.minimum(ends, windows[:, 1:]) - np.maximum(starts, windows[:, :1]) > 0
        )
        # A running sum adds each window's hit durations strictly left to right
        # in caption order, as a loop would; a miss adds 0.0, which leaves a
        # non-negative partial sum as it is. np.sum adds pairwise and builtin
        # sum compensates on Python >= 3.12: either can change a score's last
        # bit and flip a tie.
        totals = np.add.accumulate(np.where(hits, ends - starts, 0.0), axis=1)[:, -1]
        return totals.tolist()


def pad_interval(
    c: tuple[float, float], cfg: RefineConfig, bounds: tuple[float, float]
) -> tuple[float, float]:
    """Widen the window c by pad_alpha on each side, clamped to the clip bounds."""
    lo, hi = bounds
    if not lo < hi:
        raise RefineError(f"degenerate clip bounds ({lo}, {hi})")
    start_s = max(c[0] - cfg.pad_alpha, lo)
    end_s = min(c[1] + cfg.pad_alpha, hi)
    if not start_s < end_s:
        raise RefineError(
            f"candidate ({c[0]}, {c[1]}) vanished when clamped to bounds ({lo}, {hi})"
        )
    return (start_s, end_s)


def select_candidate(
    answer: LlmAnswer,
    track: CaptionTrack,
    scorer: CandidateScorer,
    cfg: RefineConfig,
    *,
    query_text: str,
) -> tuple[float, float]:
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
        return bounds
    padded = [pad_interval(c, cfg, bounds) for c in answer.intervals]
    if len(padded) == 1:
        return padded[0]
    order = sorted(range(len(padded)), key=padded.__getitem__)
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


def _exact_iou(a: tuple[float, float], b: tuple[float, float]) -> Fraction:
    (s1, e1), (s2, e2) = map(Fraction, a), map(Fraction, b)
    inter = max(min(e1, e2) - max(s1, s2), 0)
    return inter / ((e1 - s1) + (e2 - s2) - inter)


def gen_refinement_dataset(
    gts: Sequence[tuple[str, tuple[float, float], tuple[float, float]]],
    cfg: RefineConfig,
    seed: int,
) -> list[dict]:
    """Jitter each ground-truth window into balanced pos/neg records.

    gts holds (qid, gt_window, clip_bounds) triples. Per window, jittered
    copies rounded to the millisecond and clamped to the clip bounds, with
    IoU strictly above pos_iou become positives and ones strictly below
    neg_iou become negatives, samples_per_gt of each; exact-threshold and
    in-between draws, and windows that round to nothing, are discarded.
    Each qid jitters under its own seed derived from (seed, qid), so output
    is independent of processing order. A window whose geometry cannot fill
    both quotas within MAX_ATTEMPTS_PER_GT draws raises RefineError naming
    the qid.
    """
    quota = cfg.samples_per_gt
    records: list[dict] = []
    for qid, (gt_start, gt_end), (lo, hi) in gts:
        if not lo < hi:
            raise RefineError(f"degenerate clip bounds ({lo}, {hi}) for {qid!r}")
        if not gt_start < gt_end or gt_start < lo or gt_end > hi:
            raise RefineError(
                f"ground truth ({gt_start}, {gt_end}) of {qid!r} not within "
                f"bounds ({lo}, {hi})"
            )
        rng = random.Random(derive_seed(seed, "refine", qid))
        pos: list[dict] = []
        neg: list[dict] = []
        attempts = 0
        while len(pos) < quota or len(neg) < quota:
            if attempts == MAX_ATTEMPTS_PER_GT:
                raise RefineError(
                    f"attempt budget exhausted for {qid!r}: "
                    f"{len(pos)} pos / {len(neg)} neg of {quota}"
                )
            attempts += 1
            shift = rng.uniform(-cfg.jitter_shift_max, cfg.jitter_shift_max)
            scale = rng.uniform(cfg.jitter_scale_lo, cfg.jitter_scale_hi)
            center = (gt_start + gt_end) / 2.0 + shift
            half = (gt_end - gt_start) * scale / 2.0
            # labelled as written: by the window rounded to the millisecond,
            # then clamped, so that a bound off the grid still holds
            start_s = max(normalize_seconds(center - half), lo)
            end_s = min(normalize_seconds(center + half), hi)
            if not start_s < end_s:
                continue
            value = exact = iou((start_s, end_s), (gt_start, gt_end))
            # the float IoU is within 1e-15 of the exact one, so only a
            # near-tie needs exact arithmetic to hold the strict thresholds
            if min(abs(value - cfg.pos_iou), abs(value - cfg.neg_iou)) < 1e-12:
                exact = _exact_iou((start_s, end_s), (gt_start, gt_end))
            if exact > cfg.pos_iou and len(pos) < quota:
                kept, label = pos, "pos"
            elif exact < cfg.neg_iou and len(neg) < quota:
                kept, label = neg, "neg"
            else:
                continue
            kept.append(
                {
                    "qid": qid,
                    "start_s": start_s,
                    "end_s": end_s,
                    "label": label,
                    "iou": value,
                }
            )
        records += pos + neg
    return records
