"""Evaluation metrics for temporal localization and multiple-choice QA.

evaluate_nlq and evaluate_qa each return the report that `egolog eval`
writes, a JSON-ready dict built in one pass: the inputs are validated
once, every query is scored once into an outcome record, and the report
and each of its strata are counts over those records. Its keys, in order:
task ("nlq" or "qa"), n_queries (every query scored), n_answered (its
predictions that are not NA), n_missing (its queries without a
prediction), na_ratio; for "nlq" then overlap, iou_star and recall_at_1
(each keyed by threshold, "0.3" and "0.5") and r1_mean, the mean of
recall_at_1; for "qa" qa_accuracy; then undefined_metrics, and last
per_confidence, which maps each level "1" to "3" to a report of the same
keys but per_confidence, over the predictions of that confidence or above.

Every query of the task with ground truth is scored. A query without a
prediction is unanswered: a miss, counted in n_missing and, for
localization, in the NA ratio; it sits in no confidence stratum.
Localization is scored at the fixed IoU thresholds 0.3 and 0.5. NA ratio
is computed over all queries, while Overlap and IoU*@t are computed over
answered predictions only. R@1 IoU@t scores one final window per query
over all queries. Threshold comparisons are strict (greater than). A QA
report's na_ratio is always 0. A metric whose denominator is zero is
reported as 0 with its name listed in undefined_metrics rather than
omitted, so reports stay schema-stable.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .corpus import (
    Query,
    QueryKind,
    check_shape,
    finite_seconds,
    iter_jsonl,
    normalize_seconds,
    text_field,
    time_pair,
    whole_number,
    why_not_a_file,
)
from .errors import MetricsError
from .reasoner import LlmAnswer

DEFAULT_IOU_THRESHOLDS = (0.3, 0.5)
CONFIDENCE_LEVELS = (1, 2, 3)

# a predictions file's record shapes, by task, as corpus.QUERY_SHAPES
PREDICTION_SHAPES = {
    "qa": frozenset({"qid", "choice", "confidence", "explanation"}),
    "nlq": frozenset({"qid", "predicted_window", "candidates", "na", "confidence", "explanation"}),
}


def _float_pair(value: Sequence[float]) -> tuple[float, float]:
    try:
        start_s, end_s = float(value[0]), float(value[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise MetricsError(f"not an interval: {value!r}") from exc
    if not start_s < end_s:
        raise MetricsError(f"inverted interval ({start_s}, {end_s})")
    return (start_s, end_s)


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two intervals; disjoint pairs score 0.

    If a width or the union overflows a float, the endpoints are scored
    again scaled by 2**-3, which is exact and keeps the union finite.
    """
    s1, e1 = _float_pair(a)
    s2, e2 = _float_pair(b)
    for scale in (1.0, 2.0**-3):
        s1, e1, s2, e2 = s1 * scale, e1 * scale, s2 * scale, e2 * scale
        inter = min(e1, e2) - max(s1, s2)
        if inter <= 0.0:
            return 0.0
        union = (e1 - s1) + (e2 - s2) - inter
        if math.isfinite(union):
            break
    return inter / union


_NO_HITS = (False,) * len(DEFAULT_IOU_THRESHOLDS)


class _Outcome(NamedTuple):
    """One query scored once; the hit tuples follow DEFAULT_IOU_THRESHOLDS."""

    confidence: int
    answered: bool = True
    overlaps: bool = False
    iou_star: tuple[bool, ...] = _NO_HITS
    recall: tuple[bool, ...] = _NO_HITS
    correct: bool = False


# a query with ground truth and no prediction: no hit, in no confidence stratum
_MISSING = _Outcome(confidence=0, answered=False)


def _check_preds(preds: Mapping, gts: Mapping, kind: QueryKind, noun: str) -> None:
    missing = sorted(qid for qid in preds if qid not in gts)
    if missing:
        raise MetricsError(f"predictions without ground truth: {missing}")
    for qid, answer in preds.items():
        if answer.kind is not kind:
            raise MetricsError(f"prediction {qid!r} is not {noun} answer")


def _share(hits: int, n: int) -> float:
    return hits / n if n else 0.0


def _count(task: str, outcomes: list[_Outcome]) -> dict:
    """The report of task over outcomes, without per_confidence."""
    n = len(outcomes)
    answered = [o for o in outcomes if o.answered]
    n_answered = len(answered)
    report = dict(
        task=task, n_queries=n, n_answered=n_answered, n_missing=outcomes.count(_MISSING)
    )
    if task == "qa":
        report["na_ratio"] = 0.0
        report["qa_accuracy"] = _share(sum(o.correct for o in outcomes), n)
        report["undefined_metrics"] = [] if n else ["qa_accuracy"]
        return report
    thresholds = [(i, str(t)) for i, t in enumerate(DEFAULT_IOU_THRESHOLDS)]
    recalls = {t: _share(sum(o.recall[i] for o in outcomes), n) for i, t in thresholds}
    undefined = [] if n_answered else ["overlap", "iou_star"]
    if not n:
        undefined = ["na_ratio", *undefined, "recall_at_1", "r1_mean"]
    report.update(
        na_ratio=_share(n - n_answered, n),
        overlap=_share(sum(o.overlaps for o in answered), n_answered),
        iou_star={
            t: _share(sum(o.iou_star[i] for o in answered), n_answered) for i, t in thresholds
        },
        recall_at_1=recalls,
        r1_mean=sum(recalls.values()) / len(recalls),
        undefined_metrics=undefined,
    )
    return report


def _stratified(task: str, outcomes: list[_Outcome]) -> dict:
    """The report over all outcomes, with one sub-report per confidence level."""
    report = _count(task, outcomes)
    report["per_confidence"] = {
        str(level): _count(task, [o for o in outcomes if o.confidence >= level])
        for level in CONFIDENCE_LEVELS
    }
    return report


def evaluate_nlq(
    preds: Mapping[str, LlmAnswer],
    finals: Mapping[str, Sequence[float]],
    gts: Mapping[str, Sequence[float]],
) -> dict:
    """The localization report over every qid of gts.

    preds are the parsed answers (candidates, possibly NA) and drive NA
    ratio, Overlap, and IoU*@t; finals are the one-window-per-query
    refinement outputs and drive R@1. Both must cover the same qids, each
    with ground truth; a qid of gts without one is scored as missing.
    """
    if set(preds) != set(finals):
        odd = sorted(set(preds).symmetric_difference(finals))
        raise MetricsError(f"preds and finals disagree on qids: {odd}")
    _check_preds(preds, gts, QueryKind.NLQ, "an NLQ")
    outcomes = []
    for qid, gt in gts.items():
        answer = preds.get(qid)
        if answer is None:
            outcomes.append(_MISSING)
            continue
        gt = _float_pair(gt)
        candidates = [_float_pair(c) for c in answer.intervals]
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
    return _stratified("nlq", outcomes)


def evaluate_qa(preds: Mapping[str, LlmAnswer], gts: Mapping[str, int]) -> dict:
    """The QA report over every qid of gts; one without a prediction is a miss."""
    _check_preds(preds, gts, QueryKind.QA, "a QA")
    outcomes = [
        _Outcome(confidence=preds[qid].confidence, correct=preds[qid].choice_idx == gt)
        if qid in preds
        else _MISSING
        for qid, gt in gts.items()
    ]
    return _stratified("qa", outcomes)


def prediction_row(answer: LlmAnswer, window: Sequence[float] | None = None) -> dict:
    """answer as a predictions-file row, times to the millisecond.

    QA: {qid, choice, confidence, explanation}; NLQ, with its final window:
    {qid, predicted_window, confidence, explanation, candidates, na}.
    """
    common = {"confidence": answer.confidence, "explanation": answer.explanation}
    if answer.kind is QueryKind.QA:
        return {"qid": answer.qid, "choice": answer.choice_idx, **common}
    return {
        "qid": answer.qid,
        "predicted_window": [normalize_seconds(t) for t in window],
        **common,
        "candidates": [[normalize_seconds(t) for t in c] for c in answer.intervals],
        "na": answer.is_na,
    }


def load_predictions(
    path, kind: QueryKind, queries: Mapping[str, Query]
) -> tuple[dict[str, LlmAnswer], dict[str, tuple[float, float]]]:
    """Each row's answer by qid in file order, and each NLQ row's final window.

    A path that is not a file raises MetricsError. qid and explanation follow the
    text-field rule of load_queries, and a null value but qid's counts as
    absent. A row without a qid or the answer field of kind, with a key
    of the other task (see PREDICTION_SHAPES), a value of the wrong type,
    an na other than the JSON bool candidates == [], or a repeated qid
    raises MetricsError naming the file and line. Before
    any answer is read, MetricsError lists the qids that name no query of
    kind with ground truth in queries (keyed by qid).
    """
    path = Path(path)
    reason = why_not_a_file(path)
    if reason:
        raise MetricsError(f"predictions file {path} {reason}")
    rows: dict[str, tuple[int, dict]] = {}
    for lineno, row in iter_jsonl(path):
        where = dict(path=str(path), line=lineno)
        if "qid" not in row:
            raise MetricsError("prediction has no 'qid'", **where)
        try:
            qid = text_field(row["qid"], "qid")
        except ValueError as exc:
            raise MetricsError(f"bad prediction: {exc}", **where) from None
        if qid in rows:
            first = f"(first at line {rows[qid][0]})"
            raise MetricsError(f"duplicate prediction for {qid!r} {first}", **where)
        rows[qid] = (lineno, row)

    unknown = sorted(set(rows) - set(queries))
    if unknown:
        raise MetricsError(f"predictions for unknown qids: {unknown}")
    wrong_kind = sorted(qid for qid in rows if queries[qid].kind is not kind)
    if wrong_kind:
        raise MetricsError(f"predictions for non-{kind.value} queries: {wrong_kind}")
    missing_gt = sorted(qid for qid in rows if queries[qid].gt is None)
    if missing_gt:
        raise MetricsError(f"queries without ground truth: {missing_gt}")

    field = "choice" if kind is QueryKind.QA else "predicted_window"
    answers, finals = {}, {}
    for qid, (lineno, row) in rows.items():
        where = dict(path=str(path), line=lineno)
        row = {key: value for key, value in row.items() if value is not None}
        if field not in row:
            raise MetricsError(f"prediction for {qid!r} has no {field!r}", **where)
        try:
            check_shape(row, PREDICTION_SHAPES, kind.value)
            common = dict(
                confidence=whole_number(row.get("confidence", 1), "confidence"),
                explanation=text_field(row.get("explanation", ""), "explanation"),
            )
            if kind is QueryKind.QA:
                choice = whole_number(row["choice"], "choice")
                answers[qid] = LlmAnswer(qid, kind, choice_idx=choice, **common)
                continue
            candidates = row.get("candidates", [])
            if not isinstance(candidates, list):
                raise ValueError("candidates must be a list")
            na = candidates == []
            if row.get("na", na) is not na:
                raise ValueError(f"na must be {str(na).lower()} when candidates is {candidates}")
            intervals = tuple(
                time_pair(c, "each candidate", finite_seconds) for c in candidates
            )
            window = time_pair(row[field], field, finite_seconds)
            if not window[0] < window[1]:
                raise ValueError(f"inverted interval {window}")
            answers[qid] = LlmAnswer(qid, kind, intervals=intervals, **common)
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise MetricsError(f"bad prediction for {qid!r}: {exc}", **where) from exc
        finals[qid] = window
    return answers, finals


def _recall_text(report: dict) -> str:
    return "   ".join(f"R@1 IoU@{t}: {v:.3f}" for t, v in report["recall_at_1"].items())


def report_to_text(report: dict) -> str:
    """Flat fixed-width summary for quick reading."""
    lines = [
        f"task: {report['task']}   queries: {report['n_queries']}   "
        f"answered: {report['n_answered']}   missing: {report['n_missing']}   "
        f"NA ratio: {report['na_ratio']:.3f}"
    ]
    if report["task"] == "nlq":
        lines.append(f"Overlap: {report['overlap']:.3f}")
        lines.append("   ".join(f"IoU*@{t}: {v:.3f}" for t, v in report["iou_star"].items()))
        lines.append(f"{_recall_text(report)}   Mean: {report['r1_mean']:.3f}")
    else:
        lines.append(f"accuracy: {report['qa_accuracy']:.3f}")
    if report["undefined_metrics"]:
        lines.append("undefined: " + ", ".join(report["undefined_metrics"]))
    for level, sub in report["per_confidence"].items():
        score = (
            f"Overlap: {sub['overlap']:.3f}   {_recall_text(sub)}"
            if sub["task"] == "nlq"
            else f"accuracy: {sub['qa_accuracy']:.3f}"
        )
        lines.append(f"confidence >= {level}: queries: {sub['n_queries']}   {score}")
    return "\n".join(lines)
