from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egolog.corpus import Caption, CaptionTrack, QueryKind
from egolog.errors import BackendProtocolError, RefineError
from egolog.reasoner import CandidateInterval, LlmAnswer
from egolog.refine import (
    CaptionOverlapScorer,
    RefineConfig,
    gen_refinement_dataset,
    pad_interval,
    select_candidate,
)
from egolog.similarity import MockEmbedder, cosine_matrix, embed_batch

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
        assert (cfg.jitter_scale_lo, cfg.jitter_scale_hi) == (0.5, 2.0)
        assert (cfg.pos_iou, cfg.neg_iou) == (0.5, 0.1)
        assert cfg.samples_per_gt == 10

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError, match="pad_alpha"):
            RefineConfig(pad_alpha=-1.0)

    def test_scale_range_ordering(self):
        with pytest.raises(ValueError, match="jitter_scale_lo <= jitter_scale_hi"):
            RefineConfig(jitter_scale_lo=2.0, jitter_scale_hi=0.5)
        with pytest.raises(ValueError, match="0 < jitter_scale_lo"):
            RefineConfig(jitter_scale_lo=0.0, jitter_scale_hi=1.0)

    def test_threshold_ordering(self):
        with pytest.raises(ValueError, match="thresholds"):
            RefineConfig(pos_iou=0.1, neg_iou=0.5)
        with pytest.raises(ValueError, match="thresholds"):
            RefineConfig(pos_iou=0.5, neg_iou=0.5)

    def test_samples_per_gt_at_least_one(self):
        with pytest.raises(ValueError, match="samples_per_gt must be >= 1"):
            RefineConfig(samples_per_gt=0)


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
        assert out.end_s - out.start_s >= c.end_s - c.start_s


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


def loop_scores(scorer, query_text, intervals, track):
    """CaptionOverlapScorer.score as a per-caption loop adding left to right."""
    if not track.captions:
        return [0.0] * len(intervals)
    embs = embed_batch(scorer._backend, [query_text] + [c.text for c in track.captions])
    relevance = cosine_matrix(embs[1:], embs[:1])[:, 0]
    relevant = [c for c, r in zip(track.captions, relevance) if r >= scorer._threshold]
    scores = []
    for interval in intervals:
        total = 0.0
        for caption in relevant:
            if min(caption.end_s, interval.end_s) - max(caption.start_s, interval.start_s) > 0:
                total += caption.end_s - caption.start_s
        scores.append(total)
    return scores


class MarkedEmbedder:
    """Texts starting "yes" embed along one axis and all others along another."""

    def embed_texts(self, texts):
        return [[1.0, 0.0] if t.startswith("yes") else [0.0, 1.0] for t in texts]


# durations whose float sums depend on the order of the additions
DURATIONS = (0.1, 0.2, 0.3, 0.7, 1.1, 2.0)


@st.composite
def tracks_and_windows(draw):
    """A track of touching, overlapping and spaced captions, and windows over it.

    Window ends are mostly caption edges, so windows that only touch a
    caption and windows with equal scores are common.
    """
    n = draw(st.integers(min_value=0, max_value=30))
    t = 0.0
    spans = []
    for _ in range(n):
        t += draw(st.sampled_from((0.0, 0.1, 0.3, 1.0, 2.5)))
        spans.append((t, t + draw(st.sampled_from(DURATIONS))))
    spans.sort()
    clip_end = max([e for _, e in spans], default=0.0) + 1.0
    captions = [
        Caption("v1", s, e, f"{'yes' if draw(st.booleans()) else 'no'} caption {i}")
        for i, (s, e) in enumerate(spans)
    ]
    edges = sorted({0.0, clip_end} | {x for span in spans for x in span})
    point = st.one_of(st.sampled_from(edges), st.floats(0.0, clip_end))
    windows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        a, b = draw(point), draw(point)
        if a != b:
            windows.append(CandidateInterval(min(a, b), max(a, b)))
    windows += draw(st.lists(st.sampled_from(windows), max_size=2)) if windows else []
    return CaptionTrack.build("v1", captions, 0.0, clip_end), windows


class TestCaptionOverlapScorer:
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


    @given(tracks_and_windows())
    @settings(max_examples=300)
    def test_equals_the_per_caption_loop_bit_for_bit(self, case):
        track, windows = case
        scorer = CaptionOverlapScorer(MarkedEmbedder())
        got = scorer.score("yes query", windows, track)
        want = loop_scores(scorer, "yes query", windows, track)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_hit_durations_add_left_to_right(self):
        # durations 0.1, 0.2 and 0.3: (0.1 + 0.2) + 0.3 is 0.6000000000000001,
        # 0.1 + (0.2 + 0.3) is 0.6, so an order other than the captions' would
        # tie this window with one holding a single 0.6 s caption
        spans = [(0.0, 0.1), (0.0, 0.2), (0.0, 0.3)]
        captions = [Caption("v1", s, e, f"yes {i}") for i, (s, e) in enumerate(spans)]
        track = CaptionTrack.build("v1", captions, 0.0, 1.0)
        scorer = CaptionOverlapScorer(MarkedEmbedder())
        (got,) = scorer.score("yes query", [CandidateInterval(0.0, 1.0)], track)
        assert got == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)

    def test_many_hits_add_left_to_right_not_pairwise(self):
        rng = random.Random(2)
        spans = [(i * 0.5, i * 0.5 + rng.choice(DURATIONS)) for i in range(24)]
        captions = [Caption("v1", s, e, f"yes {i}") for i, (s, e) in enumerate(spans)]
        track = CaptionTrack.build("v1", captions, 0.0, 20.0)
        durations = np.array([e - s for s, e in spans])
        running = 0.0
        for duration in durations:
            running += duration
        assert running != np.sum(durations)  # np.sum adds 24 values pairwise
        scorer = CaptionOverlapScorer(MarkedEmbedder())
        assert scorer.score("yes query", [CandidateInterval(0.0, 20.0)], track) == [running]

    def test_no_relevant_caption_scores_zero(self):
        track = make_track(texts=["no one", "no two"], step=2.0)
        scorer = CaptionOverlapScorer(MarkedEmbedder())
        assert scorer.score("yes query", [CandidateInterval(0, 4)], track) == [0.0]


class TestGenRefinementDataset:
    GTS = [
        ("q1", (100.0, 120.0), (0.0, 480.0)),
        ("q2", (40.0, 55.0), (0.0, 300.0)),
    ]

    def test_balanced_counts(self):
        records = gen_refinement_dataset(
            self.GTS, RefineConfig(samples_per_gt=7), seed=5
        )
        for qid in ("q1", "q2"):
            mine = [r for r in records if r["qid"] == qid]
            assert sum(r["label"] == "pos" for r in mine) == 7
            assert sum(r["label"] == "neg" for r in mine) == 7

    def test_labels_re_derive_strictly(self):
        cfg = RefineConfig()
        records = gen_refinement_dataset(self.GTS, cfg, seed=5)
        by_qid = {"q1": (100.0, 120.0), "q2": (40.0, 55.0)}
        for r in records:
            exact = oracle_iou((r["start_s"], r["end_s"]), by_qid[r["qid"]])
            assert r["iou"] == pytest.approx(float(exact), abs=1e-12)
            if r["label"] == "pos":
                assert exact > Fraction(1, 2)
            else:
                assert exact < Fraction(1, 10)

    # q39's first positive draw is (244.2484.., 245.7756..): its IoU is a
    # hair above 1/2, but as written, (244.248, 245.776), exactly 1/2.
    # q16214 draws (0.014, 1.473): its exact IoU is 1/2 - 1/363334977023243522,
    # which the float IoU rounds to 0.5000000000000001
    @pytest.mark.parametrize(
        "qid, gt, seed",
        [("q39", (244.99, 245.82), 1), ("q16214", (0.37, 2.22), 1)]
        + [("q39", (a, a + w), 3) for a, w in (
            (12.5, 0.5), (100.001, 0.733), (7.25, 1.875), (299.999, 6.0))],
    )
    def test_written_window_keeps_its_label(self, qid, gt, seed):
        records = gen_refinement_dataset(
            [(qid, gt, (0.0, 600.0))], RefineConfig(), seed=seed
        )
        assert len(records) == 20
        exact = [oracle_iou((r["start_s"], r["end_s"]), gt) for r in records]
        mislabelled = [
            (r, x)
            for r, x in zip(records, exact)
            if not (x > Fraction(1, 2) if r["label"] == "pos" else x < Fraction(1, 10))
        ]
        assert mislabelled == []
        for r, x in zip(records, exact):
            assert r["start_s"] == round(r["start_s"], 3) < r["end_s"] == round(r["end_s"], 3)
            assert r["iou"] == pytest.approx(float(x), abs=1e-12)

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
        assert sorted(forward, key=lambda r: r["qid"]) == sorted(
            reverse, key=lambda r: r["qid"]
        )

    def test_windows_stay_in_bounds(self):
        records = gen_refinement_dataset(self.GTS, RefineConfig(), seed=9)
        bounds = {"q1": (0.0, 480.0), "q2": (0.0, 300.0)}
        for r in records:
            lo, hi = bounds[r["qid"]]
            assert lo <= r["start_s"] < r["end_s"] <= hi

    def test_windows_stay_in_bounds_off_the_millisecond_grid(self):
        # rounded after clamping, a window clamped to 0.0004 was written as 0.0
        lo, hi = 0.0004, 100.0004
        records = gen_refinement_dataset(
            [("q1", (0.0004, 3.0004), (lo, hi))], RefineConfig(), seed=1
        )
        assert min(r["start_s"] for r in records) == lo
        for r in records:
            assert lo <= r["start_s"] < r["end_s"] <= hi

    def test_budget_exhaustion_names_qid(self):
        # zero shift and unit scale reproduce the gt exactly: IoU always 1,
        # so the negative quota can never fill
        cfg = RefineConfig(jitter_shift_max=0.0, jitter_scale_lo=1.0, jitter_scale_hi=1.0)
        with pytest.raises(RefineError, match="'q1'"):
            gen_refinement_dataset([("q1", (10.0, 20.0), (0.0, 100.0))], cfg, seed=1)

    def test_gt_outside_bounds_rejected(self):
        with pytest.raises(RefineError, match="not within"):
            gen_refinement_dataset(
                [("q1", (10.0, 200.0), (0.0, 100.0))], RefineConfig(), seed=1
            )

    def test_example_iou_value(self):
        # windows (10, 20) and (14, 24): intersection 6, union 14
        assert oracle_iou((10.0, 20.0), (14.0, 24.0)) == Fraction(6, 14)

    def test_record_shape(self):
        (record, *_) = gen_refinement_dataset(
            [("q1", (1.23456, 7.89012), (0.0, 10.0))], RefineConfig(), seed=5
        )
        assert list(record) == ["qid", "start_s", "end_s", "label", "iou"]
        assert record["qid"] == "q1" and record["label"] == "pos"
        assert record["start_s"] == round(record["start_s"], 3)
        assert record["end_s"] == round(record["end_s"], 3)
