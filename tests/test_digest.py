from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egolog.corpus import Caption, CaptionTrack, Query, QueryKind
from egolog.digest import (
    DEFAULT_BLOCKLIST,
    MERGE_PROMPT,
    DigestConfig,
    MergeMode,
    concat_merge_text,
    digest,
    drop_uninformative,
    filter_by_relevance,
    group_consecutive,
    merge_groups,
)
from egolog.errors import BackendProtocolError, TransportError
from egolog.similarity import MockEmbedder

from helpers import (
    CallableBackend,
    HashFailingBackend,
    OverlapBackend,
    completion_pool,
    make_track,
)


def nlq_query(qid="q1", video_id="v1", text="where is the knife"):
    return Query(qid=qid, video_id=video_id, kind=QueryKind.NLQ, text=text)


def oracle_cosine(a: list[float], b: list[float]) -> float:
    # independent of the package's numpy implementation
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def oracle_survivors(track, queries, backend, threshold):
    """All-pairs cosine recount of the relevance stage."""
    cap_vecs = backend.embed_texts([c.text for c in track.captions])
    query_vecs = backend.embed_texts([q.text for q in queries])
    return [
        cap
        for cap, vec in zip(track.captions, cap_vecs)
        if max(oracle_cosine(vec, qv) for qv in query_vecs) >= threshold
    ]


def oracle_groups(track, backend, threshold, cap):
    """Re-derive greedy adjacent grouping from scratch."""
    vecs = backend.embed_texts([c.text for c in track.captions])
    runs, current = [], [0] if len(vecs) else []
    for i in range(1, len(vecs)):
        if oracle_cosine(vecs[i], vecs[i - 1]) >= threshold and len(current) < cap:
            current.append(i)
        else:
            runs.append(current)
            current = [i]
    if current:
        runs.append(current)
    return [tuple(run) for run in runs if len(run) >= 2]


# phrases and captions drawn from these carry every regex metacharacter,
# upper case letters and a dotted capital I, whose lowercase is two characters
BLOCKLIST_CHARS = "abAB .()[]{}|\\^$*+?-İ"


class TestBlocklist:
    def test_default_phrases_dropped(self):
        track = make_track(
            texts=[
                "C Looks Around the room",
                "C chops carrots",
                "C looks at the camera briefly",
            ]
        )
        out = drop_uninformative(track, DigestConfig())
        assert [c.text for c in out.captions] == ["C chops carrots"]

    def test_substring_match(self):
        track = make_track(texts=["then C looks around, pauses", "C stirs the pot"])
        out = drop_uninformative(track, DigestConfig())
        assert len(out.captions) == 1

    def test_empty_blocklist_keeps_all(self):
        track = make_track(n=4)
        out = drop_uninformative(track, DigestConfig(blocklist=()))
        assert out == track

    def test_custom_blocklist_case_insensitive(self):
        track = make_track(texts=["C WAVES at a friend", "C peels a potato"])
        out = drop_uninformative(track, DigestConfig(blocklist=("waves",)))
        assert [c.text for c in out.captions] == ["C peels a potato"]

    def test_all_blocked_warns_and_empties(self, caplog):
        track = make_track(texts=["C looks around", "C looks around more"])
        with caplog.at_level("WARNING", logger="egolog.digest"):
            out = drop_uninformative(track, DigestConfig())
        assert out.captions == ()
        assert any("blocklist" in rec.message for rec in caplog.records)

    def test_bounds_preserved(self):
        track = make_track(n=3, clip_start=5.0, clip_end=30.0)
        out = drop_uninformative(track, DigestConfig())
        assert (out.clip_start_s, out.clip_end_s) == (5.0, 30.0)

    def test_default_blocklist_value(self):
        assert DEFAULT_BLOCKLIST == ("looks around", "looks at the camera")

    @given(
        st.lists(st.text(BLOCKLIST_CHARS, min_size=1, max_size=12), min_size=1, max_size=8),
        st.lists(st.text(BLOCKLIST_CHARS, max_size=3), max_size=4),
    )
    @example(["C looks (around)", "a.b", "x|y", "back\\slash"], ["(around)", "|", "\\"])
    @example(["C looks around", "C sits"], ["a.", "s?"])
    @example(["C sits"], [""])
    def test_matches_a_substring_test_of_every_phrase(self, texts, phrases):
        texts = [t for t in texts if t.strip()] or ["C sits"]
        track = make_track(texts=texts)
        cfg = DigestConfig(blocklist=tuple(phrases))
        expected = [
            cap.text
            for cap in track.captions
            if not any(phrase in cap.text.lower() for phrase in cfg.blocklist)
        ]
        assert [c.text for c in drop_uninformative(track, cfg).captions] == expected


class TestRelevanceFilter:
    def test_matches_oracle_on_mixed_fixture(self):
        backend = MockEmbedder(seed=7)
        texts = [f"C handles tool number {i} at the bench" for i in range(10)] + [
            "unrelated noise pattern zzz qqq",
            "C washes the knife in the sink",
        ]
        track = make_track(texts=texts)
        queries = [nlq_query(text="where is the knife")]
        cfg = DigestConfig(relevance_threshold=0.05)
        out = filter_by_relevance(track, queries, backend, cfg)
        expected = oracle_survivors(track, queries, backend, 0.05)
        assert list(out.captions) == expected
        assert 0 < len(out.captions) < len(track.captions)

    def test_max_over_queries(self):
        backend = MockEmbedder(seed=7)
        track = make_track(texts=["C washes the knife in the sink"])
        hit = nlq_query(qid="q1", text="C washes the knife in the sink")
        miss = nlq_query(qid="q2", text="zzz qqq xxx")
        cfg = DigestConfig(relevance_threshold=0.9)
        # irrelevant to the miss query alone, rescued by max over both
        assert filter_by_relevance(track, [miss], backend, cfg).captions == ()
        assert len(filter_by_relevance(track, [miss, hit], backend, cfg).captions) == 1

    def test_requires_queries(self):
        with pytest.raises(ValueError, match="at least one query"):
            filter_by_relevance(make_track(), [], MockEmbedder(), DigestConfig())

    def test_threshold_minus_one_keeps_all(self):
        backend = MockEmbedder(seed=7)
        track = make_track(n=5)
        cfg = DigestConfig(relevance_threshold=-1.0)
        out = filter_by_relevance(track, [nlq_query()], backend, cfg)
        assert out == track

    def test_rows_too_small_to_square(self):
        # [1e-170, 0, ...] is not a zero vector, but its squares underflow to 0
        rows = {"C cuts bread": [1e-170, 0.0, 0.0], "C waters plants": [0.0, 0.0, 1e-170]}

        class TinyEmbedder:
            def embed_texts(self, texts):
                return [rows.get(text, [1.0, 1.0, 0.0]) for text in texts]

        track = make_track(texts=list(rows))
        cfg = DigestConfig(relevance_threshold=0.5)
        out = filter_by_relevance(track, [nlq_query()], TinyEmbedder(), cfg)
        assert [c.text for c in out.captions] == ["C cuts bread"]

    def test_order_preserved(self):
        backend = MockEmbedder(seed=7)
        track = make_track(n=8)
        out = filter_by_relevance(
            track, [nlq_query()], backend, DigestConfig(relevance_threshold=-1.0)
        )
        starts = [c.start_s for c in out.captions]
        assert starts == sorted(starts)


class TestGrouping:
    def test_near_duplicates_grouped(self):
        backend = MockEmbedder(seed=0)
        track = make_track(
            texts=[
                "C stirs the soup in the pot",
                "C stirs the soup in the pot slowly",
                "the printer hums in an office",
            ]
        )
        groups = group_consecutive(track, backend, DigestConfig(adjacency_threshold=0.5))
        assert [tuple(g) for g in groups] == [(0, 1)]
        merged, _ = merge_groups(track, groups, None, DigestConfig())
        assert merged.captions[0].interval == (0.0, 4.0)

    def test_matches_oracle(self):
        backend = MockEmbedder(seed=0)
        texts = []
        for i in range(12):
            base = f"C arranges item {i // 3} on the shelf"
            texts.append(base if i % 3 == 0 else base + " carefully")
        track = make_track(texts=texts)
        cfg = DigestConfig(adjacency_threshold=0.6, max_merge_group=3)
        groups = group_consecutive(track, backend, cfg)
        assert [tuple(g) for g in groups] == oracle_groups(
            track, backend, 0.6, 3
        )

    def test_group_size_cap(self):
        backend = MockEmbedder(seed=0)
        track = make_track(texts=["C stirs the soup in the pot"] * 7)
        cfg = DigestConfig(adjacency_threshold=0.99, max_merge_group=3)
        groups = group_consecutive(track, backend, cfg)
        assert [tuple(g) for g in groups] == [(0, 1, 2), (3, 4, 5)]

    def test_threshold_above_one_never_groups(self):
        backend = MockEmbedder(seed=0)
        track = make_track(texts=["C stirs the soup"] * 4)
        groups = group_consecutive(track, backend, DigestConfig(adjacency_threshold=2.0))
        assert groups == []

    def test_short_track_never_groups(self):
        backend = MockEmbedder(seed=0)
        assert group_consecutive(make_track(n=1), backend, DigestConfig()) == []


class TestMerging:
    def test_concat_dedupes_preserving_order(self):
        assert concat_merge_text(["a", "b", "a", "c"]) == "a; b; c"

    def test_concat_merge_spans_group_interval(self):
        track = make_track(texts=["C kneads dough", "C kneads dough again", "C rests"])
        group = range(0, 2)
        merged, fallbacks = merge_groups(track, [group], None, DigestConfig())
        assert fallbacks == 0
        assert len(merged.captions) == 2
        first = merged.captions[0]
        assert (first.start_s, first.end_s) == (0.0, 4.0)
        assert first.text == "C kneads dough; C kneads dough again"
        assert merged.captions[1].text == "C rests"

    @staticmethod
    def hull_track():
        # the middle member ends last, so the span is not first start to last end
        spans = [(0.0, 2.0), (1.0, 10.0), (3.0, 4.0)]
        return CaptionTrack.build(
            "v1",
            [Caption("v1", a, b, "C stirs the soup in the pot") for a, b in spans],
            0.0,
            12.0,
        )

    def test_merged_caption_spans_the_hull_of_its_members(self):
        merged, _ = merge_groups(self.hull_track(), [range(0, 3)], None, DigestConfig())
        assert [c.interval for c in merged.captions] == [(0.0, 10.0)]
        pair = CaptionTrack.build(
            "v1",
            [Caption("v1", 0.0, 10.0, "C kneads dough"), Caption("v1", 1.0, 3.0, "C kneads")],
            0.0,
            10.0,
        )
        merged, _ = merge_groups(pair, [range(0, 2)], None, DigestConfig())
        assert [c.interval for c in merged.captions] == [(0.0, 10.0)]

    def test_digest_merges_to_the_hull_of_its_members(self):
        merged, stats = digest(
            self.hull_track(), [], MockEmbedder(seed=0), None, DigestConfig()
        )
        assert stats.groups_merged == 1
        assert [c.interval for c in merged.captions] == [(0.0, 10.0)]

    def test_llm_merge_uses_merge_prompt(self):
        seen = []

        def fake(system, user):
            seen.append((system, user))
            return "  C kneads dough twice \n"

        track = make_track(texts=["C kneads dough", "C kneads dough again"])
        group = range(0, 2)
        cfg = DigestConfig(merge_mode=MergeMode.LLM)
        merged, fallbacks = merge_groups(track, [group], CallableBackend(fake), cfg)
        assert seen == [(MERGE_PROMPT, "C kneads dough\nC kneads dough again")]
        assert merged.captions[0].text == "C kneads dough twice"
        assert fallbacks == 0

    def test_llm_reply_line_breaks_become_spaces(self):
        track = make_track(texts=["C kneads dough", "C kneads dough again"])
        cfg = DigestConfig(merge_mode=MergeMode.LLM)
        merged, fallbacks = merge_groups(
            track,
            [range(0, 2)],
            CallableBackend(lambda s, u: "merged line one\nmerged line two\r\n"),
            cfg,
        )
        assert merged.captions[0].text == "merged line one merged line two"
        assert fallbacks == 0

    def test_llm_failure_falls_back_to_concat(self, caplog):
        def broken(system, user):
            raise TransportError("model down")

        track = make_track(texts=["C kneads dough", "C kneads dough again"])
        group = range(0, 2)
        cfg = DigestConfig(merge_mode=MergeMode.LLM)
        with caplog.at_level("WARNING", logger="egolog.digest"):
            merged, fallbacks = merge_groups(track, [group], CallableBackend(broken), cfg)
        assert fallbacks == 1
        assert merged.captions[0].text == "C kneads dough; C kneads dough again"
        assert any("falling back" in rec.message for rec in caplog.records)

    def test_failing_llm_merge_is_sent_once_then_falls_back(self):
        calls = []

        def broken(system, user):
            calls.append(user)
            raise TransportError("model down")

        track = make_track(texts=["C kneads dough", "C kneads dough again"])
        group = range(0, 2)
        cfg = DigestConfig(merge_mode=MergeMode.LLM)
        _, fallbacks = merge_groups(track, [group], CallableBackend(broken), cfg)
        assert fallbacks == 1
        assert len(calls) == 1

    def test_llm_empty_output_falls_back(self):
        track = make_track(texts=["C kneads dough", "C kneads dough again"])
        group = range(0, 2)
        cfg = DigestConfig(merge_mode=MergeMode.LLM)
        merged, fallbacks = merge_groups(
            track, [group], CallableBackend(lambda s, u: "   "), cfg
        )
        assert fallbacks == 1
        assert merged.captions[0].text == "C kneads dough; C kneads dough again"

    @staticmethod
    def pairs(track):
        caps = track.captions
        return [range(i, i + 2) for i in range(0, len(caps) - 1, 2)]

    def test_llm_merges_in_flight_together_up_to_the_limit(self):
        track = make_track(n=4)
        cfg = DigestConfig(merge_mode=MergeMode.LLM)
        backend = OverlapBackend(parties=2)
        with completion_pool(2) as pool:
            merged, fallbacks = merge_groups(track, self.pairs(track), backend, cfg, pool)
        assert fallbacks == 0
        assert [c.text for c in merged.captions] == [backend.reply] * 2
        assert backend.max_in_flight == 2
        serial = OverlapBackend(parties=1)
        merge_groups(track, self.pairs(track), serial, cfg)
        assert serial.max_in_flight == 1

    def test_merges_independent_of_in_flight_limit(self):
        track = make_track(n=24)
        cfg = DigestConfig(merge_mode=MergeMode.LLM)
        outcomes = []
        for limit in (1, 2, 8):
            with completion_pool(limit) as pool:
                outcomes.append(
                    merge_groups(track, self.pairs(track), HashFailingBackend(), cfg, pool)
                )
        assert outcomes[0] == outcomes[1] == outcomes[2]
        merged, fallbacks = outcomes[0]
        assert 0 < fallbacks < 12
        assert sum(c.text.startswith("reply ") for c in merged.captions) == 12 - fallbacks

    def test_llm_mode_without_a_backend_raises(self):
        # two identical captions form one group, which only an LLM may merge
        track = make_track(texts=["C stirs the pot"] * 2)
        cfg = DigestConfig(merge_mode=MergeMode.LLM, adjacency_threshold=0.9)
        with pytest.raises(ValueError, match="merge_mode llm needs an LLM backend"):
            digest(track, [], MockEmbedder(), None, cfg)


class TestDigestPipeline:
    def test_identity_config_is_a_no_op(self):
        backend = MockEmbedder(seed=0)
        track = make_track(texts=["C looks around", "C chops carrots", "C chops more"])
        cfg = DigestConfig(
            blocklist=(), relevance_threshold=-1.0, adjacency_threshold=2.0
        )
        out, stats = digest(track, [nlq_query()], backend, None, cfg)
        assert out == track
        assert stats.as_dict() == {
            "input_captions": 3,
            "dropped_uninformative": 0,
            "dropped_irrelevant": 0,
            "groups_merged": 0,
            "captions_merged_away": 0,
            "merge_fallbacks": 0,
            "output_captions": 3,
        }

    def test_caption_query_dimension_skew_is_protocol_error(self):
        track = make_track(texts=["C chops carrots", "C rinses the board"])
        query = nlq_query()

        class Skewed:
            def embed_texts(self, texts):
                return [[1.0] * (3 if t == query.text else 2) for t in texts]

        with pytest.raises(BackendProtocolError, match="dimension mismatch"):
            digest(track, [query], Skewed(), None, DigestConfig())

    def test_no_queries_skips_relevance(self):
        backend = MockEmbedder(seed=0)
        track = make_track(texts=["zzz qqq unrelated text", "C chops carrots"])
        cfg = DigestConfig(relevance_threshold=0.99, adjacency_threshold=2.0)
        out, stats = digest(track, [], backend, None, cfg)
        assert len(out.captions) == 2
        assert stats.dropped_irrelevant == 0

    def test_stats_account_for_every_caption(self):
        backend = MockEmbedder(seed=1)
        texts = ["C looks around"] + [f"C handles utensil {i} at the sink" for i in range(9)]
        track = make_track(texts=texts)
        out, stats = digest(
            track,
            [nlq_query(text="C handles utensil 3 at the sink")],
            backend,
            None,
            DigestConfig(relevance_threshold=0.05, adjacency_threshold=0.4),
        )
        s = stats.as_dict()
        assert s["input_captions"] == 10
        assert (
            s["dropped_uninformative"]
            + s["dropped_irrelevant"]
            + s["captions_merged_away"]
            + s["output_captions"]
            == s["input_captions"]
        )
        assert s["output_captions"] == len(out.captions)

    def test_each_stage_never_grows_the_track(self):
        backend = MockEmbedder(seed=2)
        track = make_track(n=15)
        cfg = DigestConfig(relevance_threshold=0.0, adjacency_threshold=0.3)
        stage1 = drop_uninformative(track, cfg)
        stage2 = filter_by_relevance(stage1, [nlq_query()], backend, cfg)
        merged, _ = merge_groups(stage2, group_consecutive(stage2, backend, cfg), None, cfg)
        assert (
            len(merged.captions)
            <= len(stage2.captions)
            <= len(stage1.captions)
            <= len(track.captions)
        )

    def test_output_sorted_within_bounds(self):
        backend = MockEmbedder(seed=2)
        track = make_track(texts=["C folds a towel"] * 6, clip_start=10.0)
        out, _ = digest(track, [], backend, None, DigestConfig(adjacency_threshold=0.9))
        starts = [c.start_s for c in out.captions]
        assert starts == sorted(starts)
        for cap in out.captions:
            assert out.clip_start_s <= cap.start_s <= cap.end_s <= out.clip_end_s

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                [
                    "C looks around",
                    "C slices an onion on the board",
                    "C slices an onion on the board slowly",
                    "C opens the fridge door",
                    "completely unrelated zzz qqq",
                ]
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=0, max_value=5),
    )
    def test_digest_invariants_hold_for_arbitrary_tracks(self, texts, seed):
        backend = MockEmbedder(seed=seed)
        track = make_track(texts=texts)
        cfg = DigestConfig(relevance_threshold=0.05, adjacency_threshold=0.5)
        out, stats = digest(
            track, [nlq_query(text="where is the onion")], backend, None, cfg
        )
        s = stats.as_dict()
        assert s["output_captions"] == len(out.captions) <= len(track.captions)
        assert (
            s["dropped_uninformative"]
            + s["dropped_irrelevant"]
            + s["captions_merged_away"]
            + s["output_captions"]
            == s["input_captions"]
        )
        assert (out.clip_start_s, out.clip_end_s) == (
            track.clip_start_s,
            track.clip_end_s,
        )


class TestDigestConfigValidation:
    def test_relevance_threshold_range(self):
        with pytest.raises(ValueError, match="relevance_threshold"):
            DigestConfig(relevance_threshold=1.5)

    def test_adjacency_below_minus_one_rejected(self):
        with pytest.raises(ValueError, match="adjacency_threshold"):
            DigestConfig(adjacency_threshold=-1.5)

    def test_adjacency_above_one_allowed_as_off_switch(self):
        assert DigestConfig(adjacency_threshold=2.0).adjacency_threshold == 2.0

    def test_max_merge_group_minimum(self):
        with pytest.raises(ValueError, match="max_merge_group"):
            DigestConfig(max_merge_group=1)

    def test_blocklist_lowercased(self):
        assert DigestConfig(blocklist=("Waves HELLO",)).blocklist == ("waves hello",)
