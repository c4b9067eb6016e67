"""
Scoring grounding predictions the way the benchmarks do
=======================================================

Four queries, four very different predictions: a near-perfect window, a
loose one, a miss, and an NA refusal. The report separates what the
candidate set contained (Overlap, IoU* over answered queries) from what
the single final window achieved (R@1 over all queries, NA counted
against you since it falls back to the whole clip).
"""

from egolog.corpus import QueryKind
from egolog.metrics import evaluate_nlq, report_to_text
from egolog.reasoner import LlmAnswer


def nlq(qid, intervals, confidence):
    return LlmAnswer(
        qid=qid,
        kind=QueryKind.NLQ,
        intervals=tuple(intervals),
        confidence=confidence,
    )


CLIP = (0.0, 300.0)

gts = {
    "tight": (40.0, 60.0),
    "loose": (100.0, 120.0),
    "miss": (200.0, 220.0),
    "refused": (250.0, 270.0),
}

preds = {
    # candidate almost equal to gt
    "tight": nlq("tight", [(41.0, 59.0)], confidence=3),
    # right area but three times too wide
    "loose": nlq("loose", [(90.0, 150.0)], confidence=2),
    # confidently wrong end of the video
    "miss": nlq("miss", [(10.0, 30.0)], confidence=3),
    # NA: no candidates at all
    "refused": LlmAnswer(qid="refused", kind=QueryKind.NLQ, confidence=1),
}

# the final window is the top candidate, or the full clip for NA
finals = {
    "tight": (41.0, 59.0),
    "loose": (90.0, 150.0),
    "miss": (10.0, 30.0),
    "refused": CLIP,
}

report = evaluate_nlq(preds, finals, gts)
print(report_to_text(report))
print()
print("same numbers, machine-readable:")
print(f"  na_ratio={report['na_ratio']:.2f}  overlap={report['overlap']:.2f}")
for t, star in report["iou_star"].items():
    print(f"  iou_star@{t}={star:.3f}  r@1@{t}={report['recall_at_1'][t]:.3f}")
print(f"  mean r@1 = {report['r1_mean']:.3f}")
