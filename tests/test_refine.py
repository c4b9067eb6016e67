from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egolog.corpus import CaptionTrack, QueryKind
from egolog.errors import BackendProtocolError, RefineError
from egolog.reasoner import CandidateInterval, LlmAnswer
from egolog.refine import (
    CandidateScorer,
    CaptionOverlapScorer,
    Label,
    RefineConfig,
    RefinementSample,
    check_sample,
    gen_refinement_dataset,
    pad_interval,
    sample_to_record,
    select_candidate,
)
from egolog.similarity import MockEmbedder

from helpers import ReplayScorer, make_track, oracle_iou


def nlq_answer(*pairs, qid="q1", confidence=2):
    return LlmAnswer(
        qid=qid,
        kind=QueryKind.NLQ,
        intervals=tuple(CandidateInterval(s, e) for s, e in pairs),
        confidence=confidence,
    )


class TestRefineConfig:
    def test_defaults(self):
        cfg = RefineConfig()
        assert cfg.pad_alpha == 10.0
        assert cfg.jitter_shift_max == 30.0
        assert cfg.jitter_scale_range == (0.5, 2.0)
        assert (cfg.pos_iou, cfg.neg_iou) == (0.5, 0.1)

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError, match="pad_alpha"):
            RefineConfig(pad_alpha=-1.0)

    def test_scale_range_ordering(self):
        with pytest.raises(ValueError, match="jitter_scale_range"):
            RefineConfig(jitter_scale_range=(2.0, 0.5))
        with pytest.raises(ValueError, match="jitter_scale_range"):
            RefineConfig(jitter_scale_range=(0.0, 1.0))

    def test_threshold_ordering(self):
        with pytest.raises(ValueError, match="thresholds"):
            RefineConfig(pos_iou=0.1, neg_iou=0.5)
        with pytest.raises(ValueError, match="thresholds"):
            RefineConfig(pos_iou=0.5, neg_iou=0.5)


class TestPadInterval:
    def test_plain_padding(self):
        cfg = RefineConfig(pad_alpha=5.0)
        out = pad_interval(CandidateInterval(100, 110), cfg, (0.0, 480.0))
        assert out.as_pair() == (95.0, 115.0)

    def test_clamped_at_start(self):
        cfg = RefineConfig(pad_alpha=5.0)
        out = pad_interval(CandidateInterval(2, 10), cfg, (0.0, 480.0))
        assert out.as_pair() == (0.0, 15.0)

    def test_clamped_at_end(self):
        cfg = RefineConfig(pad_alpha=5.0)
        out = pad_interval(CandidateInterval(470, 478), cfg, (0.0, 480.0))
        assert out.as_pair() == (465.0, 480.0)

    def test_zero_alpha_is_identity(self):
        cfg = RefineConfig(pad_alpha=0.0)
        c = CandidateInterval(12.25, 30.5)
        assert pad_interval(c, cfg, (0.0, 100.0)).as_pair() == c.as_pair()

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(RefineError, match="degenerate clip bounds"):
            pad_interval(CandidateInterval(1, 2), RefineConfig(), (5.0, 5.0))

    def test_candidate_outside_bounds_vanishes(self):
        cfg = RefineConfig(pad_alpha=0.0)
        with pytest.raises(RefineError, match="vanished"):
            pad_interval(CandidateInterval(50, 60), cfg, (0.0, 40.0))

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0, max_value=400, allow_nan=False),
        st.floats(min_value=0.1, max_value=80, allow_nan=False),
        st.floats(min_value=0, max_value=60, allow_nan=False),
    )
    def test_padding_invariants(self, start, width, alpha):
        bounds = (0.0, 500.0)
        c = CandidateInterval(start, start + width)
        out = pad_interval(c, RefineConfig(pad_alpha=alpha), bounds)
        # padded window stays in bounds, contains the original, never shrinks
        assert bounds[0] <= out.start_s <= c.start_s
        assert c.end_s <= out.end_s <= bounds[1]
        assert out.width >= c.width


class TestSelectCandidate:
    def track(self):
        return make_track(n=10, step=3.0)  # bounds (0, 30)

    def test_na_maps_to_full_clip(self):
        track = CaptionTrack.build("v1", [], 0.0, 522.0)
        out = select_candidate(
            nlq_answer(), track, ReplayScorer({}), RefineConfig(), query_text="q"
        )
        assert out.as_pair() == (0.0, 522.0)

    def test_single_candidate_padded(self):
        out = select_candidate(
            nlq_answer((10, 12)),
            self.track(),
            ReplayScorer({}),
            RefineConfig(pad_alpha=3.0),
            query_text="q",
        )
        assert out.as_pair() == (7.0, 15.0)

    def test_multiple_candidates_best_score_wins(self):
        cfg = RefineConfig(pad_alpha=0.0)
        scorer = ReplayScorer({(2.0, 5.0): 0.2, (11.0, 14.0): 0.9})
        out = select_candidate(
            nlq_answer((2, 5), (11, 14)), self.track(), scorer, cfg, query_text="q"
        )
        assert out.as_pair() == (11.0, 14.0)

    def test_scores_computed_on_padded_windows(self):
        cfg = RefineConfig(pad_alpha=1.0)
        scorer = ReplayScorer({(1.0, 6.0): 0.1, (10.0, 15.0): 0.8})
        out = select_candidate(
            nlq_answer((2, 5), (11, 14)), self.track(), scorer, cfg, query_text="q"
        )
        assert out.as_pair() == (10.0, 15.0)

    def test_tie_goes_to_earliest_start(self):
        cfg = RefineConfig(pad_alpha=0.0)
        out = select_candidate(
            nlq_answer((11, 14), (2, 5)),
            self.track(),
            ReplayScorer({}, default=0.5),
            cfg,
            query_text="q",
        )
        assert out.as_pair() == (2.0, 5.0)

    def test_scorer_failure_falls_back_to_earliest(self, caplog):
        class Broken:
            def score(self, query_text, intervals, track):
                raise BackendProtocolError("no model")

        cfg = RefineConfig(pad_alpha=0.0)
        with caplog.at_level("WARNING", logger="egolog.refine"):
            out = select_candidate(
                nlq_answer((11, 14), (2, 5)), self.track(), Broken(), cfg, query_text="q"
            )
        assert out.as_pair() == (2.0, 5.0)
        assert any("falling back" in rec.message for rec in caplog.records)

    def test_scorer_programming_error_propagates(self):
        class Buggy:
            def score(self, query_text, intervals, track):
                raise RuntimeError("bug in scorer")

        with pytest.raises(RuntimeError, match="bug in scorer"):
            select_candidate(
                nlq_answer((11, 14), (2, 5)),
                self.track(),
                Buggy(),
                RefineConfig(pad_alpha=0.0),
                query_text="q",
            )

    def test_qa_answer_rejected(self):
        qa = LlmAnswer(qid="q1", kind=QueryKind.QA, choice_idx=0)
        with pytest.raises(ValueError, match="NLQ"):
            select_candidate(qa, self.track(), ReplayScorer({}), RefineConfig(), query_text="q")


class TestCaptionOverlapScorer:
    def test_satisfies_protocol(self):
        assert isinstance(CaptionOverlapScorer(MockEmbedder()), CandidateScorer)
        assert isinstance(ReplayScorer({}), CandidateScorer)

    def test_scores_relevant_caption_seconds_inside_window(self):
        texts = [
            "C scrubs the frying pan",  # 0-2, relevant
            "C scrubs the frying pan again",  # 2-4, relevant
            "zzz qqq noise",  # 4-6, irrelevant
            "C scrubs the frying pan once more",  # 6-8, relevant but outside
        ]
        track = make_track(texts=texts, step=2.0)
        scorer = CaptionOverlapScorer(MockEmbedder(seed=0), relevance_threshold=0.3)
        query = "C scrubs the frying pan"
        scores = scorer.score(query, [CandidateInterval(0, 5), CandidateInterval(0, 8)], track)
        assert scores == [4.0, 6.0]  # two relevant captions of 2 s each, then three

    def test_deterministic_per_instance(self):
        track = make_track(n=5)
        scorer = CaptionOverlapScorer(MockEmbedder(seed=1))
        windows = [CandidateInterval(0, 10)]
        assert scorer.score("q text", windows, track) == scorer.score(
            "q text", windows, track
        )

    def test_boundary_touch_does_not_count(self):
        track = make_track(texts=["C scrubs the pan"], step=2.0)  # caption 0-2
        scorer = CaptionOverlapScorer(MockEmbedder(seed=0), relevance_threshold=-1.0)
        assert scorer.score("C scrubs the pan", [CandidateInterval(2, 4)], track) == [0.0]

    def test_empty_track_scores_zero(self):
        track = CaptionTrack.build("v1", [], 0.0, 10.0)
        scorer = CaptionOverlapScorer(MockEmbedder(seed=0))
        assert scorer.score("anything", [CandidateInterval(0, 10)], track) == [0.0]


class TestCheckSample:
    def make(self, label, iou_value):
        return RefinementSample(
            query_id="q1",
            interval=CandidateInterval(0, 1),
            label=label,
            iou_to_gt=iou_value,
        )

    def test_valid_samples_pass(self):
        cfg = RefineConfig()
        check_sample(self.make(Label.POS, 0.51), cfg)
        check_sample(self.make(Label.NEG, 0.09), cfg)

    def test_boundary_values_rejected(self):
        cfg = RefineConfig()
        with pytest.raises(RefineError, match="labeled pos"):
            check_sample(self.make(Label.POS, 0.5), cfg)
        with pytest.raises(RefineError, match="labeled neg"):
            check_sample(self.make(Label.NEG, 0.1), cfg)


class TestGenRefinementDataset:
    GTS = [
        ("q1", (100.0, 120.0), (0.0, 480.0)),
        ("q2", (40.0, 55.0), (0.0, 300.0)),
    ]

    def test_balanced_counts(self):
        samples = gen_refinement_dataset(self.GTS, RefineConfig(), seed=5, samples_per_gt=7)
        for qid in ("q1", "q2"):
            mine = [s for s in samples if s.query_id == qid]
            assert sum(s.label is Label.POS for s in mine) == 7
            assert sum(s.label is Label.NEG for s in mine) == 7

    def test_labels_re_derive_strictly(self):
        cfg = RefineConfig()
        samples = gen_refinement_dataset(self.GTS, cfg, seed=5)
        by_qid = {"q1": (100.0, 120.0), "q2": (40.0, 55.0)}
        for s in samples:
            exact = oracle_iou(s.interval.as_pair(), by_qid[s.query_id])
            assert s.iou_to_gt == pytest.approx(float(exact), abs=1e-12)
            if s.label is Label.POS:
                assert exact > Fraction(1, 2)
            else:
                assert exact < Fraction(1, 10)

    def test_two_runs_identical(self):
        a = gen_refinement_dataset(self.GTS, RefineConfig(), seed=5)
        b = gen_refinement_dataset(self.GTS, RefineConfig(), seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        a = gen_refinement_dataset(self.GTS, RefineConfig(), seed=5)
        b = gen_refinement_dataset(self.GTS, RefineConfig(), seed=6)
        assert a != b

    def test_order_independent_per_qid(self):
        forward = gen_refinement_dataset(self.GTS, RefineConfig(), seed=5)
        reverse = gen_refinement_dataset(self.GTS[::-1], RefineConfig(), seed=5)
        assert sorted(forward, key=lambda s: s.query_id) == sorted(
            reverse, key=lambda s: s.query_id
        )

    def test_windows_stay_in_bounds(self):
        samples = gen_refinement_dataset(self.GTS, RefineConfig(), seed=9)
        bounds = {"q1": (0.0, 480.0), "q2": (0.0, 300.0)}
        for s in samples:
            lo, hi = bounds[s.query_id]
            assert lo <= s.interval.start_s < s.interval.end_s <= hi

    def test_budget_exhaustion_names_qid(self):
        # zero shift and unit scale reproduce the gt exactly: IoU always 1,
        # so the negative quota can never fill
        cfg = RefineConfig(jitter_shift_max=0.0, jitter_scale_range=(1.0, 1.0))
        with pytest.raises(RefineError, match="'q1'"):
            gen_refinement_dataset(
                [("q1", (10.0, 20.0), (0.0, 100.0))], cfg, seed=1, max_attempts_per_gt=50
            )

    def test_gt_outside_bounds_rejected(self):
        with pytest.raises(RefineError, match="not within"):
            gen_refinement_dataset(
                [("q1", (10.0, 200.0), (0.0, 100.0))], RefineConfig(), seed=1
            )

    def test_example_iou_value(self):
        # windows (10, 20) and (14, 24): intersection 6, union 14
        assert oracle_iou((10.0, 20.0), (14.0, 24.0)) == Fraction(6, 14)
        cfg = RefineConfig()
        sample = RefinementSample(
            query_id="q1",
            interval=CandidateInterval(14, 24),
            label=Label.NEG,
            iou_to_gt=float(Fraction(6, 14)),
        )
        with pytest.raises(RefineError):
            check_sample(sample, cfg)  # 0.428... is neither pos nor valid neg

    def test_sample_to_record_shape(self):
        sample = RefinementSample(
            query_id="q1",
            interval=CandidateInterval(1.23456, 7.89012),
            label=Label.POS,
            iou_to_gt=0.625,
        )
        assert sample_to_record(sample) == {
            "qid": "q1",
            "start_s": 1.235,
            "end_s": 7.89,
            "label": "pos",
            "iou": 0.625,
        }
