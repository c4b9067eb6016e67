from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egolog.corpus import CaptionTrack, Query, QueryKind, normalize_seconds, write_jsonl
from egolog.errors import MetricsError
from egolog.metrics import (
    DEFAULT_IOU_THRESHOLDS,
    evaluate_nlq,
    evaluate_qa,
    iou,
    load_predictions,
    prediction_row,
    report_to_text,
)
from egolog.reasoner import LlmAnswer, parse_response
from egolog.refine import CaptionOverlapScorer, RefineConfig, select_candidate
from egolog.similarity import MockEmbedder

from helpers import (
    assert_report_matches_oracle,
    oracle_iou,
    random_nlq_fixture,
    random_qa_fixture,
)


def nlq(qid, *pairs, confidence=2):
    return LlmAnswer(
        qid=qid,
        kind=QueryKind.NLQ,
        intervals=tuple(pairs),
        confidence=confidence,
    )


def qa(qid, idx, confidence=2):
    return LlmAnswer(qid=qid, kind=QueryKind.QA, choice_idx=idx, confidence=confidence)


class TestIou:
    def test_identity(self):
        assert iou((3.0, 9.0), (3.0, 9.0)) == 1.0

    def test_disjoint(self):
        assert iou((0.0, 10.0), (20.0, 30.0)) == 0.0

    def test_touching_is_disjoint(self):
        assert iou((0.0, 10.0), (10.0, 20.0)) == 0.0

    def test_quarter_overlap(self):
        # (0,10) vs (5,20): intersection 5, union 20
        assert iou((0.0, 10.0), (5.0, 20.0)) == 0.25

    def test_accepts_candidate_intervals(self):
        assert iou((0, 10), (0.0, 10.0)) == 1.0

    def test_symmetric(self):
        assert iou((0.0, 10.0), (5.0, 20.0)) == iou((5.0, 20.0), (0.0, 10.0))

    def test_inverted_rejected(self):
        with pytest.raises(MetricsError, match="inverted"):
            iou((10.0, 0.0), (0.0, 5.0))

    def test_garbage_rejected(self):
        with pytest.raises(MetricsError, match="not an interval"):
            iou("nope", (0.0, 5.0))

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(
            st.floats(min_value=0, max_value=500, allow_nan=False),
            st.floats(min_value=0.1, max_value=100, allow_nan=False),
        ),
        st.tuples(
            st.floats(min_value=0, max_value=500, allow_nan=False),
            st.floats(min_value=0.1, max_value=100, allow_nan=False),
        ),
    )
    def test_matches_exact_rational_oracle(self, a, b):
        pa = (a[0], a[0] + a[1])
        pb = (b[0], b[0] + b[1])
        assert iou(pa, pb) == pytest.approx(float(oracle_iou(pa, pb)), abs=1e-12)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ((0.0, 1e308), (0.0, 1e308), 1.0),
            ((-1e308, 1e308), (-1e308, 1e308), 1.0),
            ((-1e308, 1e308), (0.0, 1e308), 0.5),
            ((-1.5e308, 0.5e308), (-0.5e308, 1.5e308), 1 / 3),
        ],
    )
    def test_width_wider_than_a_float(self, a, b, expected):
        assert iou(a, b) == pytest.approx(expected, rel=1e-15)
        assert iou(b, a) == iou(a, b)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=4,
            max_size=4,
            unique=True,
        )
    )
    def test_matches_oracle_over_every_finite_float(self, ends):
        pa, pb = tuple(sorted(ends[:2])), tuple(sorted(ends[2:]))
        expected = float(oracle_iou(pa, pb))
        assert iou(pa, pb) == pytest.approx(expected, rel=1e-12, abs=1e-300)


def nlq_report(preds, gts, finals=None):
    """evaluate_nlq with each final window defaulting to its ground truth."""
    return evaluate_nlq(preds, gts if finals is None else finals, gts)


class TestOverlapRate:
    def test_contract_example(self):
        # four predictions: two NA, one overlapping, one disjoint
        preds = {
            "a": nlq("a"),
            "b": nlq("b"),
            "c": nlq("c", (5.0, 15.0)),
            "d": nlq("d", (50.0, 60.0)),
        }
        gts = {q: (10.0, 20.0) for q in preds}
        report = nlq_report(preds, gts)
        assert report["na_ratio"] == 0.5
        assert report["overlap"] == 0.5
        assert report["n_queries"] == 4
        assert report["n_answered"] == 2

    def test_all_na(self):
        preds = {"a": nlq("a"), "b": nlq("b")}
        gts = {"a": (0.0, 1.0), "b": (0.0, 1.0)}
        report = nlq_report(preds, gts)
        assert report["na_ratio"] == 1.0
        assert report["overlap"] == 0.0
        assert "overlap" in report["undefined_metrics"]

    def test_any_candidate_counts(self):
        preds = {"a": nlq("a", (50.0, 60.0), (12.0, 13.0))}
        report = nlq_report(preds, {"a": (10.0, 20.0)})
        assert report["overlap"] == 1.0

    def test_boundary_touch_does_not_overlap(self):
        preds = {"a": nlq("a", (0.0, 10.0))}
        report = nlq_report(preds, {"a": (10.0, 20.0)})
        assert report["overlap"] == 0.0

    def test_missing_gt_rejected(self):
        with pytest.raises(MetricsError, match="without ground truth"):
            evaluate_nlq({"a": nlq("a")}, {"a": (0.0, 1.0)}, {})

    def test_qa_answer_rejected(self):
        with pytest.raises(MetricsError, match="not an NLQ"):
            nlq_report({"a": qa("a", 0)}, {"a": (0.0, 1.0)})


class TestIouStar:
    def test_strict_threshold(self):
        # 3/10 == 0.3 exactly in binary64 division, so > must fail
        preds = {"a": nlq("a", (0.0, 3.0))}
        gts = {"a": (0.0, 10.0)}
        assert iou((0.0, 3.0), (0.0, 10.0)) == 0.3
        assert nlq_report(preds, gts)["iou_star"]["0.3"] == 0.0
        # the same candidate 1 ms wider clears 0.3
        wider = {"a": nlq("a", (0.0, 3.001))}
        assert nlq_report(wider, gts)["iou_star"]["0.3"] == 1.0

    def test_na_excluded_from_denominator(self):
        preds = {"a": nlq("a", (0.0, 10.0)), "b": nlq("b")}
        gts = {"a": (0.0, 10.0), "b": (0.0, 10.0)}
        assert nlq_report(preds, gts)["iou_star"]["0.5"] == 1.0

    def test_best_candidate_counts(self):
        preds = {"a": nlq("a", (90.0, 95.0), (0.0, 10.0))}
        gts = {"a": (0.0, 10.0)}
        assert nlq_report(preds, gts)["iou_star"]["0.5"] == 1.0


class TestRecallAt1:
    FINALS = {"a": (0.0, 35.0), "b": (0.0, 60.0), "c": (0.0, 10.0)}
    GTS = {"a": (0.0, 100.0), "b": (0.0, 100.0), "c": (0.0, 100.0)}

    def test_contract_fixture(self):
        # per-query IoUs are exactly 0.35, 0.6, 0.1
        preds = {q: nlq(q) for q in self.FINALS}
        recalls = nlq_report(preds, self.GTS, self.FINALS)["recall_at_1"]
        assert recalls["0.3"] == pytest.approx(2 / 3)
        assert recalls["0.5"] == pytest.approx(1 / 3)

    def test_strict_at_exact_half(self):
        finals = {"a": (0.0, 1.0)}
        gts = {"a": (0.0, 2.0)}  # IoU exactly 0.5 in binary64
        assert nlq_report({"a": nlq("a")}, gts, finals)["recall_at_1"]["0.5"] == 0.0

    def test_empty_is_zero(self):
        assert evaluate_nlq({}, {}, {})["recall_at_1"]["0.5"] == 0.0

    def test_missing_gt_rejected(self):
        with pytest.raises(MetricsError, match="without ground truth"):
            evaluate_nlq({"a": nlq("a")}, {"a": (0.0, 1.0)}, {})


class TestQaAccuracy:
    def test_counts_matches(self):
        preds = {"a": qa("a", 0), "b": qa("b", 1), "c": qa("c", 2)}
        gts = {"a": 0, "b": 4, "c": 2}
        assert evaluate_qa(preds, gts)["qa_accuracy"] == pytest.approx(2 / 3)

    def test_random_guessing_near_chance(self):
        # a uniform guesser over 5 options lands at 0.20 +/- 0.04
        rng = random.Random(97)
        total = 0.0
        trials = 1_000
        for _ in range(trials):
            preds, gts = random_qa_fixture(rng, 25)
            total += evaluate_qa(preds, gts)["qa_accuracy"]
        assert abs(total / trials - 0.20) <= 0.04

    def test_nlq_answer_rejected(self):
        with pytest.raises(MetricsError, match="not a QA"):
            evaluate_qa({"a": nlq("a")}, {"a": 0})


class TestMissingPredictions:
    """A qid with ground truth and no prediction is scored as a miss."""

    def test_nlq_miss_counts_in_every_denominator_over_queries(self):
        preds = {"a": nlq("a", (0.0, 35.0), confidence=3)}
        gts = {"a": (0.0, 35.0), "b": (0.0, 100.0)}
        report = evaluate_nlq(preds, {"a": (0.0, 35.0)}, gts)
        assert (report["n_queries"], report["n_answered"], report["n_missing"]) == (2, 1, 1)
        assert report["na_ratio"] == 0.5
        assert report["overlap"] == 1.0
        assert report["iou_star"] == {"0.3": 1.0, "0.5": 1.0}
        assert report["recall_at_1"] == {"0.3": 0.5, "0.5": 0.5}
        # the per-answered view: a miss has confidence 0, in no stratum
        answered = report["per_confidence"]["1"]
        assert (answered["n_queries"], answered["n_missing"]) == (1, 0)
        assert answered["recall_at_1"] == {"0.3": 1.0, "0.5": 1.0}

    def test_qa_miss_is_a_wrong_answer(self):
        report = evaluate_qa({"a": qa("a", 2)}, {"a": 2, "b": 0, "c": 1})
        assert (report["n_queries"], report["n_answered"], report["n_missing"]) == (3, 1, 2)
        assert report["qa_accuracy"] == pytest.approx(1 / 3)
        assert report["per_confidence"]["1"]["qa_accuracy"] == 1.0


class TestEvaluateNlq:
    def fixture(self):
        preds = {
            "a": nlq("a", (0.0, 35.0), confidence=3),
            "b": nlq("b", (0.0, 60.0), confidence=2),
            "c": nlq("c"),  # NA, confidence defaults
        }
        finals = {"a": (0.0, 35.0), "b": (0.0, 60.0), "c": (0.0, 100.0)}
        gts = {"a": (0.0, 100.0), "b": (0.0, 100.0), "c": (0.0, 100.0)}
        return preds, finals, gts

    def test_report_fields(self):
        preds, finals, gts = self.fixture()
        report = evaluate_nlq(preds, finals, gts)
        assert report["task"] == "nlq"
        assert report["n_queries"] == 3
        assert report["n_answered"] == 2
        assert report["na_ratio"] == pytest.approx(1 / 3)
        assert report["overlap"] == 1.0
        assert report["iou_star"]["0.3"] == 1.0  # 0.35 and 0.6 both clear
        assert report["iou_star"]["0.5"] == pytest.approx(1 / 2)  # only 0.6 clears
        # finals: 0.35, 0.6, and the NA fallback scores IoU 1.0 on gt == clip
        assert report["recall_at_1"]["0.3"] == pytest.approx(3 / 3)
        assert report["recall_at_1"]["0.5"] == pytest.approx(2 / 3)
        assert report["r1_mean"] == pytest.approx((1.0 + 2 / 3) / 2)
        assert "qa_accuracy" not in report
        assert report["undefined_metrics"] == []

    def test_matches_recount_oracle(self):
        preds, finals, gts = self.fixture()
        report = evaluate_nlq(preds, finals, gts)
        assert_report_matches_oracle(report, preds, finals, gts, DEFAULT_IOU_THRESHOLDS)

    def test_randomized_fixtures_match_oracle(self):
        rng = random.Random(11)
        for trial in range(20):
            preds, finals, gts = random_nlq_fixture(rng, rng.randint(1, 60))
            report = evaluate_nlq(preds, finals, gts)
            assert_report_matches_oracle(
                report, preds, finals, gts, DEFAULT_IOU_THRESHOLDS
            )

    def test_stratified_subreports_match_oracle(self):
        rng = random.Random(12)
        preds, finals, gts = random_nlq_fixture(rng, 80)
        report = evaluate_nlq(preds, finals, gts)
        for level in (1, 2, 3):
            sub = report["per_confidence"][str(level)]
            kept = {q for q, a in preds.items() if a.confidence >= level}
            assert_report_matches_oracle(
                sub,
                {q: preds[q] for q in kept},
                {q: finals[q] for q in kept},
                gts,
                DEFAULT_IOU_THRESHOLDS,
            )
            assert "per_confidence" not in sub

    def test_all_max_confidence_yields_identical_strata(self):
        preds = {
            "a": nlq("a", (0.0, 35.0), confidence=3),
            "b": nlq("b", (0.0, 60.0), confidence=3),
        }
        finals = {"a": (0.0, 35.0), "b": (0.0, 60.0)}
        gts = {"a": (0.0, 100.0), "b": (0.0, 100.0)}
        report = evaluate_nlq(preds, finals, gts)
        subs = list(report["per_confidence"].values())
        assert subs[0] == subs[1] == subs[2]

    def test_empty_stratum_flagged(self):
        preds = {"a": nlq("a", (0.0, 35.0), confidence=1)}
        finals = {"a": (0.0, 35.0)}
        gts = {"a": (0.0, 100.0)}
        report = evaluate_nlq(preds, finals, gts)
        level3 = report["per_confidence"]["3"]
        assert level3["n_queries"] == 0
        assert "na_ratio" in level3["undefined_metrics"]
        assert "overlap" in level3["undefined_metrics"]
        assert "recall_at_1" in level3["undefined_metrics"]
        assert "r1_mean" in level3["undefined_metrics"]

    def test_qid_mismatch_rejected(self):
        preds, finals, gts = self.fixture()
        del finals["c"]
        with pytest.raises(MetricsError, match="disagree on qids"):
            evaluate_nlq(preds, finals, gts)

    def test_iou_star_never_exceeds_overlap(self):
        rng = random.Random(13)
        for _ in range(10):
            preds, finals, gts = random_nlq_fixture(rng, 40)
            report = evaluate_nlq(preds, finals, gts)
            for value in report["iou_star"].values():
                assert value <= report["overlap"]


class TestEvaluateQa:
    def test_report(self):
        preds = {"a": qa("a", 0, confidence=3), "b": qa("b", 1, confidence=1)}
        report = evaluate_qa(preds, {"a": 0, "b": 0})
        assert report["task"] == "qa"
        assert report["qa_accuracy"] == 0.5
        assert report["n_queries"] == 2
        assert report["per_confidence"]["3"]["qa_accuracy"] == 1.0
        assert report["per_confidence"]["3"]["n_queries"] == 1

    def test_empty_flagged(self):
        report = evaluate_qa({}, {})
        assert report["qa_accuracy"] == 0.0
        assert report["undefined_metrics"] == ["qa_accuracy"]

    def test_stratify_helper_qa(self):
        preds = {"a": qa("a", 0, confidence=2)}
        strata = evaluate_qa(preds, {"a": 0})["per_confidence"]
        assert set(strata) == {"1", "2", "3"}
        assert strata["3"]["n_queries"] == 0

    def test_stratify_helper_nlq(self):
        preds = {"a": nlq("a", (0.0, 5.0), confidence=2)}
        report = evaluate_nlq(preds, {"a": (0.0, 5.0)}, {"a": (0.0, 10.0)})
        strata = report["per_confidence"]
        assert set(strata) == {"1", "2", "3"}
        assert strata["1"]["n_queries"] == 1


class TestReportSerialization:
    def report(self):
        preds = {"a": nlq("a", (0.0, 35.0), confidence=3), "b": nlq("b")}
        finals = {"a": (0.0, 35.0), "b": (0.0, 100.0)}
        gts = {"a": (0.0, 100.0), "b": (0.0, 100.0)}
        return evaluate_nlq(preds, finals, gts)

    def test_dict_shape(self):
        out = self.report()
        assert out["task"] == "nlq"
        assert set(out["iou_star"]) == {"0.3", "0.5"}
        assert set(out["per_confidence"]) == {"1", "2", "3"}
        assert "qa_accuracy" not in out

    def test_text_lines(self):
        text = report_to_text(self.report())
        assert "task: nlq" in text
        assert "Overlap:" in text
        assert "IoU*@0.3:" in text
        assert "R@1 IoU@0.5:" in text
        assert "Mean:" in text
        assert "confidence >= 3:" in text

    def test_undefined_metrics_listed(self):
        assert "undefined: qa_accuracy" in report_to_text(evaluate_qa({}, {}))

    def test_qa_text(self):
        report = evaluate_qa({"a": qa("a", 0)}, {"a": 0})
        text = report_to_text(report)
        assert "task: qa" in text
        assert "accuracy: 1.000" in text


# reply times on and off the millisecond grid, negative zero, and past either
# end of the clip (0, 100); a window may be narrower than a millisecond
REPLY_TIME = st.one_of(st.floats(-10, 110), st.sampled_from([-0.0, 0.0004, 99.9996, 100.0004]))
REPLY_WINDOW = st.one_of(
    st.tuples(REPLY_TIME, REPLY_TIME),
    st.tuples(REPLY_TIME, st.floats(0, 0.002)).map(lambda w: (w[0], w[0] + w[1])),
).map(list)
CLIP = CaptionTrack("v1", 0.0, 100.0, ())


class TestPredictionRow:
    def test_keys_in_file_order(self):
        assert list(prediction_row(qa("q1", 2))) == ["qid", "choice", "confidence", "explanation"]
        row = prediction_row(nlq("n1", (1.0, 2.0)), (0.0, 3.0))
        keys = ["qid", "predicted_window", "confidence", "explanation", "candidates", "na"]
        assert list(row) == keys

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(REPLY_WINDOW, max_size=3), min_size=1, max_size=4))
    def test_every_row_written_loads_back_to_the_millisecond(self, tmp_path_factory, replies):
        qids = [f"n{i}" for i in range(len(replies))]
        entries = [
            {"qid": qid, "intervals": windows, "confidence": 2, "explanation": "x"}
            for qid, windows in zip(qids, replies)
        ]
        answers = parse_response(json.dumps(entries), QueryKind.NLQ, qids, CLIP.bounds)
        scorer = CaptionOverlapScorer(MockEmbedder(seed=0))
        finals = [select_candidate(a, CLIP, scorer, RefineConfig(), query_text="q") for a in answers]
        path = tmp_path_factory.mktemp("predictions") / "preds.jsonl"
        write_jsonl(path, [prediction_row(a, f) for a, f in zip(answers, finals)])
        assert "-0.0" not in path.read_text()
        queries = {q: Query(q, "v1", QueryKind.NLQ, "when?", gt_window=(1.0, 2.0)) for q in qids}
        loaded, loaded_finals = load_predictions(path, QueryKind.NLQ, queries)

        def ms(window):
            return tuple(normalize_seconds(t) for t in window)

        assert loaded == {a.qid: replace(a, intervals=tuple(map(ms, a.intervals))) for a in answers}
        assert loaded_finals == {a.qid: ms(f) for a, f in zip(answers, finals)}
        report = evaluate_nlq(loaded, loaded_finals, {q: (1.0, 2.0) for q in qids})
        assert report["n_missing"] == 0
