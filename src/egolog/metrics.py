"""Evaluation metrics for temporal localization and multiple-choice QA.

Each report is built in one pass: the inputs are validated once, every
query is scored once into an outcome record, and the top report and each
"confidence >= level" sub-report are counts over those records.

Localization is scored at the fixed IoU thresholds 0.3 and 0.5. NA ratio
is computed over all predictions, while Overlap and IoU*@t are computed
over non-NA predictions only. R@1 IoU@t scores one final window per
query over all queries. Threshold comparisons are strict (greater than).
A metric whose denominator is zero is reported as 0 with its name listed
in undefined_metrics rather than omitted, so reports stay schema-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple, Sequence, Union

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


class _Outcome(NamedTuple):
    """One query scored once; the hit tuples follow DEFAULT_IOU_THRESHOLDS."""

    confidence: int
    answered: bool = True
    overlaps: bool = False
    iou_star: tuple[bool, ...] = ()
    recall: tuple[bool, ...] = ()
    correct: bool = False


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


def _check_preds(preds: Mapping, gts: Mapping, kind: QueryKind, noun: str) -> None:
    missing = sorted(qid for qid in preds if qid not in gts)
    if missing:
        raise MetricsError(f"predictions without ground truth: {missing}")
    for qid, answer in preds.items():
        if answer.kind is not kind:
            raise MetricsError(f"prediction {qid!r} is not {noun} answer")


def _share(hits: int, n: int) -> float:
    return hits / n if n else 0.0


def _stratified(outcomes: list[_Outcome], count: Callable) -> EvalReport:
    """count over all outcomes, with one sub-report per confidence level."""
    strata = {
        level: count([o for o in outcomes if o.confidence >= level])
        for level in CONFIDENCE_LEVELS
    }
    return replace(count(outcomes), per_confidence=strata)


def _count_nlq(outcomes: list[_Outcome]) -> EvalReport:
    n = len(outcomes)
    answered = [o for o in outcomes if o.answered]
    n_answered = len(answered)
    thresholds = list(enumerate(DEFAULT_IOU_THRESHOLDS))
    recalls = {t: _share(sum(o.recall[i] for o in outcomes), n) for i, t in thresholds}
    undefined = () if n_answered else ("overlap", "iou_star")
    if not n:
        undefined = ("na_ratio", *undefined, "recall_at_1")
    return EvalReport(
        task="nlq",
        n_queries=n,
        n_answered=n_answered,
        na_ratio=_share(n - n_answered, n),
        overlap=_share(sum(o.overlaps for o in answered), n_answered),
        iou_star={
            t: _share(sum(o.iou_star[i] for o in answered), n_answered)
            for i, t in thresholds
        },
        recall_at_1=recalls,
        r1_mean=sum(recalls.values()) / len(recalls),
        qa_accuracy=None,
        undefined_metrics=undefined,
    )


def evaluate_nlq(
    preds: Mapping[str, LlmAnswer],
    finals: Mapping[str, IntervalLike],
    gts: Mapping[str, IntervalLike],
) -> EvalReport:
    """Full localization report.

    preds are the parsed answers (candidates, possibly NA) and drive NA
    ratio, Overlap, and IoU*@t; finals are the one-window-per-query
    refinement outputs and drive R@1. Both must cover the same qids.
    """
    if set(preds) != set(finals):
        odd = sorted(set(preds).symmetric_difference(finals))
        raise MetricsError(f"preds and finals disagree on qids: {odd}")
    _check_preds(preds, gts, QueryKind.NLQ, "an NLQ")
    outcomes = []
    for qid, answer in preds.items():
        gt = _as_pair(gts[qid])
        candidates = [_as_pair(c) for c in answer.intervals]
        ious = [iou(c, gt) for c in candidates]
        final_iou = iou(finals[qid], gt)
        outcomes.append(
            _Outcome(
                confidence=answer.confidence,
                answered=not answer.is_na,
                # a positive intersection, not a positive IoU, which can underflow
                overlaps=any(min(e, gt[1]) - max(s, gt[0]) > 0.0 for s, e in candidates),
                iou_star=tuple(any(v > t for v in ious) for t in DEFAULT_IOU_THRESHOLDS),
                recall=tuple(final_iou > t for t in DEFAULT_IOU_THRESHOLDS),
            )
        )
    return _stratified(outcomes, _count_nlq)


def _count_qa(outcomes: list[_Outcome]) -> EvalReport:
    n = len(outcomes)
    return EvalReport(
        task="qa",
        n_queries=n,
        n_answered=n,
        na_ratio=0.0,
        overlap=0.0,
        iou_star={},
        recall_at_1={},
        r1_mean=0.0,
        qa_accuracy=_share(sum(o.correct for o in outcomes), n),
        undefined_metrics=() if n else ("qa_accuracy",),
    )


def evaluate_qa(preds: Mapping[str, LlmAnswer], gts: Mapping[str, int]) -> EvalReport:
    """Full QA report; localization fields are inert zeros."""
    _check_preds(preds, gts, QueryKind.QA, "a QA")
    outcomes = [
        _Outcome(confidence=a.confidence, correct=a.choice_idx == gts[qid])
        for qid, a in preds.items()
    ]
    return _stratified(outcomes, _count_qa)


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


def _recall_text(report: EvalReport) -> str:
    return "   ".join(
        f"R@1 IoU@{t:g}: {v:.3f}" for t, v in sorted(report.recall_at_1.items())
    )


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
        if report.recall_at_1:
            lines.append(f"{_recall_text(report)}   Mean: {report.r1_mean:.3f}")
    else:
        lines.append(f"accuracy: {report.qa_accuracy:.3f}")
    if report.undefined_metrics:
        lines.append("undefined: " + ", ".join(report.undefined_metrics))
    for level, sub in sorted((report.per_confidence or {}).items()):
        score = (
            f"Overlap: {sub.overlap:.3f}   {_recall_text(sub)}"
            if sub.task == "nlq"
            else f"accuracy: {sub.qa_accuracy:.3f}"
        )
        lines.append(f"confidence >= {level}: queries: {sub.n_queries}   {score}")
    return "\n".join(lines)
