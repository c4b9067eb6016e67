"""Evaluation metrics for temporal localization and multiple-choice QA.

Localization metrics distinguish two denominators: NA ratio is computed
over all predictions, while Overlap and IoU*@t are computed over non-NA
predictions only. R@1 IoU@t scores one final window per query over all
queries. Threshold comparisons are strict (greater than). A metric whose
denominator is zero is reported as 0 with its name listed in
undefined_metrics rather than omitted, so reports stay schema-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from .corpus import QueryKind
from .errors import MetricsError
from .reasoner import CandidateInterval, LlmAnswer

IntervalLike = Union[CandidateInterval, Sequence[float]]

DEFAULT_IOU_THRESHOLDS = (0.3, 0.5)

CONFIDENCE_LEVELS = (1, 2, 3)


def _as_pair(value: IntervalLike) -> tuple[float, float]:
    if isinstance(value, CandidateInterval):
        return value.as_pair()
    try:
        start_s, end_s = float(value[0]), float(value[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise MetricsError(f"not an interval: {value!r}") from exc
    if not start_s < end_s:
        raise MetricsError(f"inverted interval ({start_s}, {end_s})")
    return (start_s, end_s)


def iou(a: IntervalLike, b: IntervalLike) -> float:
    """Intersection over union of two intervals; disjoint pairs score 0."""
    s1, e1 = _as_pair(a)
    s2, e2 = _as_pair(b)
    inter = min(e1, e2) - max(s1, s2)
    if inter <= 0.0:
        return 0.0
    union = (e1 - s1) + (e2 - s2) - inter
    return inter / union


def _positively_intersects(a: IntervalLike, b: IntervalLike) -> bool:
    s1, e1 = _as_pair(a)
    s2, e2 = _as_pair(b)
    return min(e1, e2) - max(s1, s2) > 0.0


def _check_nlq_preds(
    preds: Mapping[str, LlmAnswer], gts: Mapping[str, IntervalLike]
) -> None:
    missing = sorted(qid for qid in preds if qid not in gts)
    if missing:
        raise MetricsError(f"predictions without ground truth: {missing}")
    for qid, answer in preds.items():
        if answer.kind is not QueryKind.NLQ:
            raise MetricsError(f"prediction {qid!r} is not an NLQ answer")


@dataclass(frozen=True)
class OverlapStats:
    """Overlap and NA ratio together with both denominators."""

    overlap: float
    na_ratio: float
    n_total: int
    n_answered: int

    @property
    def overlap_defined(self) -> bool:
        return self.n_answered > 0

    @property
    def na_ratio_defined(self) -> bool:
        return self.n_total > 0


def overlap_rate(
    preds: Mapping[str, LlmAnswer], gts: Mapping[str, IntervalLike]
) -> OverlapStats:
    """NA ratio over all predictions; Overlap over non-NA predictions.

    A prediction overlaps iff any of its candidate intervals positively
    intersects the ground-truth window.
    """
    _check_nlq_preds(preds, gts)
    n_total = len(preds)
    n_answered = 0
    n_overlapping = 0
    for qid, answer in preds.items():
        if answer.is_na:
            continue
        n_answered += 1
        gt = gts[qid]
        if any(_positively_intersects(c, gt) for c in answer.intervals):
            n_overlapping += 1
    na_ratio = (n_total - n_answered) / n_total if n_total else 0.0
    overlap = n_overlapping / n_answered if n_answered else 0.0
    return OverlapStats(
        overlap=overlap, na_ratio=na_ratio, n_total=n_total, n_answered=n_answered
    )


def iou_star_at(
    preds: Mapping[str, LlmAnswer],
    gts: Mapping[str, IntervalLike],
    threshold: float,
) -> float:
    """Fraction of non-NA predictions with some candidate IoU > threshold."""
    if not 0.0 < threshold <= 1.0:
        raise MetricsError(f"threshold must be in (0, 1], got {threshold}")
    _check_nlq_preds(preds, gts)
    n_answered = 0
    n_hit = 0
    for qid, answer in preds.items():
        if answer.is_na:
            continue
        n_answered += 1
        gt = gts[qid]
        if any(iou(c, gt) > threshold for c in answer.intervals):
            n_hit += 1
    return n_hit / n_answered if n_answered else 0.0


def recall_at_1(
    finals: Mapping[str, IntervalLike],
    gts: Mapping[str, IntervalLike],
    threshold: float,
) -> float:
    """Fraction of queries whose single final window has IoU > threshold.

    Unlike Overlap and IoU*@t, the denominator is every query: by this
    stage NA predictions have already been mapped to the full clip.
    """
    if not 0.0 < threshold <= 1.0:
        raise MetricsError(f"threshold must be in (0, 1], got {threshold}")
    missing = sorted(qid for qid in finals if qid not in gts)
    if missing:
        raise MetricsError(f"final windows without ground truth: {missing}")
    if not finals:
        return 0.0
    n_hit = sum(1 for qid, window in finals.items() if iou(window, gts[qid]) > threshold)
    return n_hit / len(finals)


def qa_accuracy(
    preds: Mapping[str, LlmAnswer], gts: Mapping[str, int]
) -> float:
    """Fraction of QA predictions whose choice index matches the key."""
    missing = sorted(qid for qid in preds if qid not in gts)
    if missing:
        raise MetricsError(f"predictions without ground truth: {missing}")
    for qid, answer in preds.items():
        if answer.kind is not QueryKind.QA:
            raise MetricsError(f"prediction {qid!r} is not a QA answer")
    if not preds:
        return 0.0
    n_correct = sum(
        1 for qid, answer in preds.items() if answer.choice_idx == gts[qid]
    )
    return n_correct / len(preds)


@dataclass(frozen=True)
class EvalReport:
    """Every evaluation quantity for one prediction set.

    Zero-denominator metrics are 0 and named in undefined_metrics.
    per_confidence maps each minimum confidence level to the sub-report
    over the predictions at or above it; sub-reports do not nest further.
    """

    task: str
    n_queries: int
    n_answered: int
    na_ratio: float
    overlap: float
    iou_star: dict[float, float]
    recall_at_1: dict[float, float]
    r1_mean: float
    qa_accuracy: float | None
    undefined_metrics: tuple[str, ...] = ()
    per_confidence: dict[int, "EvalReport"] | None = None

    def __post_init__(self) -> None:
        if self.task not in ("qa", "nlq"):
            raise MetricsError(f"unknown task {self.task!r}")
        fractions = [self.na_ratio, self.overlap, self.r1_mean]
        fractions.extend(self.iou_star.values())
        fractions.extend(self.recall_at_1.values())
        if self.qa_accuracy is not None:
            fractions.append(self.qa_accuracy)
        for value in fractions:
            if not 0.0 <= value <= 1.0:
                raise MetricsError(f"fraction out of range: {value}")
        for threshold, value in self.iou_star.items():
            if value > self.overlap:
                raise MetricsError(
                    f"iou_star@{threshold} = {value} exceeds overlap {self.overlap}"
                )


def _undefined(names_and_flags: list[tuple[str, bool]]) -> tuple[str, ...]:
    return tuple(name for name, defined in names_and_flags if not defined)


def _per_confidence(
    preds: Mapping[str, LlmAnswer],
    evaluate: Callable[[dict[str, LlmAnswer]], EvalReport],
) -> dict[int, EvalReport]:
    """evaluate on the predictions at or above each confidence level, in order."""
    return {
        level: evaluate({qid: a for qid, a in preds.items() if a.confidence >= level})
        for level in CONFIDENCE_LEVELS
    }


def evaluate_nlq(
    preds: Mapping[str, LlmAnswer],
    finals: Mapping[str, IntervalLike],
    gts: Mapping[str, IntervalLike],
    *,
    thresholds: Sequence[float] = DEFAULT_IOU_THRESHOLDS,
    stratify: bool = True,
) -> EvalReport:
    """Full localization report.

    preds are the parsed answers (candidates, possibly NA) and drive NA
    ratio, Overlap, and IoU*@t; finals are the one-window-per-query
    refinement outputs and drive R@1. Both must cover the same qids.
    """
    if set(preds) != set(finals):
        odd = sorted(set(preds).symmetric_difference(finals))
        raise MetricsError(f"preds and finals disagree on qids: {odd}")
    stats = overlap_rate(preds, gts)
    iou_star = {t: iou_star_at(preds, gts, t) for t in thresholds}
    recalls = {t: recall_at_1(finals, gts, t) for t in thresholds}
    r1_mean = sum(recalls.values()) / len(recalls) if recalls else 0.0
    undefined = _undefined(
        [
            ("na_ratio", stats.na_ratio_defined),
            ("overlap", stats.overlap_defined),
            ("iou_star", stats.overlap_defined),
            ("recall_at_1", bool(finals)),
        ]
    )
    per_confidence = None
    if stratify:
        per_confidence = _per_confidence(
            preds,
            lambda kept: evaluate_nlq(
                kept,
                {qid: final for qid, final in finals.items() if qid in kept},
                gts,
                thresholds=thresholds,
                stratify=False,
            ),
        )
    return EvalReport(
        task="nlq",
        n_queries=stats.n_total,
        n_answered=stats.n_answered,
        na_ratio=stats.na_ratio,
        overlap=stats.overlap,
        iou_star=iou_star,
        recall_at_1=recalls,
        r1_mean=r1_mean,
        qa_accuracy=None,
        undefined_metrics=undefined,
        per_confidence=per_confidence,
    )


def evaluate_qa(
    preds: Mapping[str, LlmAnswer],
    gts: Mapping[str, int],
    *,
    stratify: bool = True,
) -> EvalReport:
    """Full QA report; localization fields are inert zeros."""
    accuracy = qa_accuracy(preds, gts)
    undefined = _undefined([("qa_accuracy", bool(preds))])
    per_confidence = None
    if stratify:
        per_confidence = _per_confidence(
            preds, lambda kept: evaluate_qa(kept, gts, stratify=False)
        )
    return EvalReport(
        task="qa",
        n_queries=len(preds),
        n_answered=len(preds),
        na_ratio=0.0,
        overlap=0.0,
        iou_star={},
        recall_at_1={},
        r1_mean=0.0,
        qa_accuracy=accuracy,
        undefined_metrics=undefined,
        per_confidence=per_confidence,
    )


def report_as_dict(report: EvalReport) -> dict:
    out: dict = {
        "task": report.task,
        "n_queries": report.n_queries,
        "n_answered": report.n_answered,
        "na_ratio": report.na_ratio,
    }
    if report.task == "nlq":
        out["overlap"] = report.overlap
        out["iou_star"] = {str(t): v for t, v in report.iou_star.items()}
        out["recall_at_1"] = {str(t): v for t, v in report.recall_at_1.items()}
        out["r1_mean"] = report.r1_mean
    else:
        out["qa_accuracy"] = report.qa_accuracy
    out["undefined_metrics"] = list(report.undefined_metrics)
    if report.per_confidence is not None:
        out["per_confidence"] = {
            str(level): report_as_dict(sub)
            for level, sub in sorted(report.per_confidence.items())
        }
    return out


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report_as_dict(report), indent=2)


def report_to_text(report: EvalReport) -> str:
    """Flat fixed-width summary for quick reading."""
    lines = [
        f"task: {report.task}   queries: {report.n_queries}   "
        f"answered: {report.n_answered}   NA ratio: {report.na_ratio:.3f}"
    ]
    if report.task == "nlq":
        lines.append(f"Overlap: {report.overlap:.3f}")
        star = "   ".join(
            f"IoU*@{t:g}: {v:.3f}" for t, v in sorted(report.iou_star.items())
        )
        if star:
            lines.append(star)
        recall = "   ".join(
            f"R@1 IoU@{t:g}: {v:.3f}" for t, v in sorted(report.recall_at_1.items())
        )
        if recall:
            lines.append(f"{recall}   Mean: {report.r1_mean:.3f}")
    else:
        lines.append(f"accuracy: {report.qa_accuracy:.3f}")
    if report.undefined_metrics:
        lines.append("undefined: " + ", ".join(report.undefined_metrics))
    if report.per_confidence:
        for level, sub in sorted(report.per_confidence.items()):
            if sub.task == "nlq":
                sub_recall = "   ".join(
                    f"R@1 IoU@{t:g}: {v:.3f}"
                    for t, v in sorted(sub.recall_at_1.items())
                )
                lines.append(
                    f"confidence >= {level}: queries: {sub.n_queries}   "
                    f"Overlap: {sub.overlap:.3f}   {sub_recall}"
                )
            else:
                lines.append(
                    f"confidence >= {level}: queries: {sub.n_queries}   "
                    f"accuracy: {sub.qa_accuracy:.3f}"
                )
    return "\n".join(lines)
