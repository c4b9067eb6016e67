from __future__ import annotations

import hashlib
import math
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egolog.corpus import Caption, CaptionTrack, Query, QueryKind
from egolog.digest import (
    DEFAULT_BLOCKLIST,
    MERGE_PROMPT,
    DigestConfig,
    DigestStats,
    MergeMode,
    concat_merge_text,
    digest,
    drop_uninformative,
    filter_by_relevance,
    group_consecutive,
    merge_groups,
)
from egolog.errors import BackendProtocolError, TransportError
from egolog.similarity import CachedEmbedder, MockEmbedder, cosine_matrix, embed_batch

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


def replace_captions(track, captions):
    """Same video and bounds, the captions re-sorted, as every stage once rebuilt it."""
    return CaptionTrack.build(track.video_id, captions, *track.bounds)


def reference_digest(track, queries, backend, cfg):
    """The digest as a chain of track-to-track stages, in concat mode.

    Each stage rebuilds and re-sorts its track through replace_captions,
    relevance embeds one row per caption, and the merge appends the merged
    captions after the ungrouped ones before the track is re-sorted.
    """
    stats = DigestStats(input_captions=len(track.captions))
    stage1 = replace_captions(
        track,
        [c for c in track.captions if not any(p in c.text.lower() for p in cfg.blocklist)],
    )
    stage2 = stage1
    if queries and cfg.relevance_threshold > -1.0 and stage1.captions:
        best = per_caption_scores(stage1.captions, queries, backend)
        kept = [c for c, score in zip(stage1.captions, best) if score >= cfg.relevance_threshold]
        stage2 = replace_captions(stage1, kept)
    groups = group_consecutive(stage2.captions, backend, cfg)
    grouped = {i for group in groups for i in group}
    captions = [c for i, c in enumerate(stage2.captions) if i not in grouped]
    for group in groups:
        members = stage2.captions[group.start : group.stop]
        text = concat_merge_text([c.text for c in members])
        start, end = min(c.start_s for c in members), max(c.end_s for c in members)
        captions.append(Caption(track.video_id, start, end, text))
    merged = replace_captions(stage2, captions)
    stats.dropped_uninformative = len(track.captions) - len(stage1.captions)
    stats.dropped_irrelevant = len(stage1.captions) - len(stage2.captions)
    stats.groups_merged = len(groups)
    stats.captions_merged_away = sum(len(g) - 1 for g in groups)
    stats.output_captions = len(merged.captions)
    return merged, stats


@contextmanager
def counted_track_checks():
    """The videos of the tracks whose __post_init__ runs inside the block."""
    calls = []
    check = CaptionTrack.__post_init__

    def counted(track):
        calls.append(track.video_id)
        check(track)

    CaptionTrack.__post_init__ = counted
    try:
        yield calls
    finally:
        CaptionTrack.__post_init__ = check


def per_caption_scores(captions, queries, backend):
    """Best query cosine of each caption, from one embedding row per caption."""
    n = len(captions)
    embs = embed_batch(backend, [c.text for c in captions] + [q.text for q in queries])
    return cosine_matrix(embs[:n], embs[n:]).max(axis=1).tolist()


def relevance_scores(captions, queries, backend):
    """Best query cosine of each caption, as filter_by_relevance computes it.

    The scores are read off the stage's one cosine_matrix call, whose rows
    are the distinct caption texts in first-seen order.
    """
    seen = []

    def recorded(a, b):
        seen.append(cosine_matrix(a, b))
        return seen[-1]

    with mock.patch("egolog.digest.cosine_matrix", recorded):
        filter_by_relevance(captions, queries, backend, DigestConfig(relevance_threshold=-1.0))
    (scores,) = seen
    rows = {text: i for i, text in enumerate(dict.fromkeys(c.text for c in captions))}
    assert scores.shape == (len(rows), len(queries))
    best = scores.max(axis=1).tolist()
    return [best[rows[c.text]] for c in captions]


class IntegerEmbedder:
    """Small integer entries from a hash of each text, so every dot product is exact."""

    dim = 7

    def embed_texts(self, texts):
        rows = []
        for text in texts:
            digest = hashlib.sha256(text.encode()).digest()
            row = [b % 19 - 9 for b in digest[: self.dim]]
            rows.append(row if any(row) else [1] + row[1:])
        return rows


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
        out = drop_uninformative(track.captions, DigestConfig())
        assert [c.text for c in out] == ["C chops carrots"]

    def test_substring_match(self):
        track = make_track(texts=["then C looks around, pauses", "C stirs the pot"])
        out = drop_uninformative(track.captions, DigestConfig())
        assert len(out) == 1

    def test_empty_blocklist_keeps_all(self):
        track = make_track(n=4)
        out = drop_uninformative(track.captions, DigestConfig(blocklist=()))
        assert out == track.captions

    def test_custom_blocklist_case_insensitive(self):
        track = make_track(texts=["C WAVES at a friend", "C peels a potato"])
        out = drop_uninformative(track.captions, DigestConfig(blocklist=("waves",)))
        assert [c.text for c in out] == ["C peels a potato"]

    def test_all_blocked_warns_and_empties(self, caplog):
        track = make_track(texts=["C looks around", "C looks around more"])
        with caplog.at_level("WARNING", logger="egolog.digest"):
            out = drop_uninformative(track.captions, DigestConfig())
        assert out == ()
        assert any("blocklist" in rec.message for rec in caplog.records)

    def test_bounds_preserved(self):
        # the blocklist drops the first caption; the digested track keeps the clip
        texts = ["C looks around", "C chops carrots", "C peels a potato"]
        track = make_track(texts=texts, clip_start=5.0, clip_end=30.0)
        out, stats = digest(track, [], MockEmbedder(), None, DigestConfig())
        assert stats.dropped_uninformative == 1
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
        assert [c.text for c in drop_uninformative(track.captions, cfg)] == expected


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
        out = filter_by_relevance(track.captions, queries, backend, cfg)
        expected = oracle_survivors(track, queries, backend, 0.05)
        assert list(out) == expected
        assert 0 < len(out) < len(track.captions)

    def test_max_over_queries(self):
        backend = MockEmbedder(seed=7)
        track = make_track(texts=["C washes the knife in the sink"])
        hit = nlq_query(qid="q1", text="C washes the knife in the sink")
        miss = nlq_query(qid="q2", text="zzz qqq xxx")
        cfg = DigestConfig(relevance_threshold=0.9)
        # irrelevant to the miss query alone, rescued by max over both
        assert filter_by_relevance(track.captions, [miss], backend, cfg) == ()
        assert len(filter_by_relevance(track.captions, [miss, hit], backend, cfg)) == 1

    def test_requires_queries(self):
        with pytest.raises(ValueError, match="at least one query"):
            filter_by_relevance(make_track().captions, [], MockEmbedder(), DigestConfig())

    def test_threshold_minus_one_keeps_all(self):
        backend = MockEmbedder(seed=7)
        track = make_track(n=5)
        cfg = DigestConfig(relevance_threshold=-1.0)
        out = filter_by_relevance(track.captions, [nlq_query()], backend, cfg)
        assert out == track.captions

    def test_rows_too_small_to_square(self):
        # [1e-170, 0, ...] is not a zero vector, but its squares underflow to 0
        rows = {"C cuts bread": [1e-170, 0.0, 0.0], "C waters plants": [0.0, 0.0, 1e-170]}

        class TinyEmbedder:
            def embed_texts(self, texts):
                return [rows.get(text, [1.0, 1.0, 0.0]) for text in texts]

        track = make_track(texts=list(rows))
        cfg = DigestConfig(relevance_threshold=0.5)
        out = filter_by_relevance(track.captions, [nlq_query()], TinyEmbedder(), cfg)
        assert [c.text for c in out] == ["C cuts bread"]

    @settings(max_examples=60, deadline=None)
    @given(
        vocab=st.lists(
            st.text("abcdefghij CKz.", min_size=1, max_size=24).filter(str.strip),
            min_size=1,
            max_size=40,
            unique=True,
        ),
        picks=st.lists(st.integers(min_value=0), min_size=1, max_size=300),
        query_picks=st.lists(st.integers(min_value=-3), min_size=1, max_size=4),
        backend=st.sampled_from(
            [MockEmbedder(seed=3, dim=1), MockEmbedder(seed=3), MockEmbedder(seed=3, dim=1536)]
            + [IntegerEmbedder()]
        ),
    )
    def test_scores_of_distinct_rows_equal_per_caption_rows_bit_for_bit(
        self, vocab, picks, query_picks, backend
    ):
        captions = make_track(texts=[vocab[i % len(vocab)] for i in picks]).captions
        # a negative pick is a query text that no caption has
        queries = [
            nlq_query(qid=f"q{k}", text=vocab[i % len(vocab)] if i >= 0 else f"zz query {i}")
            for k, i in enumerate(query_picks)
        ]
        expected = per_caption_scores(captions, queries, backend)
        got = relevance_scores(captions, queries, backend)
        assert [x.hex() for x in got] == [x.hex() for x in expected]

    @pytest.mark.parametrize("dim", [64, 1536])
    def test_scores_bit_for_bit_on_a_long_repetitive_track(self, dim):
        backend = MockEmbedder(seed=1, dim=dim)
        texts = [f"C handles tool {i % 613} near the bench {i % 7}" for i in range(2_400)]
        captions = make_track(texts=[texts[(i * 37) % 1_700] for i in range(3_000)]).captions
        queries = [nlq_query(qid=f"q{k}", text=texts[k * 101]) for k in range(10)]
        expected = per_caption_scores(captions, queries, backend)
        got = relevance_scores(captions, queries, backend)
        assert [x.hex() for x in got] == [x.hex() for x in expected]

    def test_embeds_each_distinct_text_once(self):
        seen = []

        class Recording(MockEmbedder):
            def embed_texts(self, texts):
                seen.append(list(texts))
                return super().embed_texts(texts)

        captions = make_track(texts=["C cuts bread", "C waters plants"] * 3).captions
        queries = [nlq_query(text="C cuts bread"), nlq_query(qid="q2", text="find the cup")]
        filter_by_relevance(captions, queries, Recording(), DigestConfig())
        assert seen == [["C cuts bread", "C waters plants", "find the cup"]]

    def test_allocates_no_per_caption_array(self):
        n, dim = 20_000, 256
        texts = [f"C handles utensil {i} at the sink" for i in range(50)]
        captions = make_track(texts=[texts[i % 50] for i in range(n)]).captions
        backend = CachedEmbedder(MockEmbedder(dim=dim))
        cfg = DigestConfig(relevance_threshold=0.0)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            filter_by_relevance(captions, [nlq_query()], backend, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        # one (n, dim) float64 array is 41 MB
        assert peak - before < n * dim * 8 // 4

    def test_order_preserved(self):
        backend = MockEmbedder(seed=7)
        track = make_track(n=8)
        out = filter_by_relevance(
            track.captions, [nlq_query()], backend, DigestConfig(relevance_threshold=-1.0)
        )
        starts = [c.start_s for c in out]
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
        groups = group_consecutive(
            track.captions, backend, DigestConfig(adjacency_threshold=0.5)
        )
        assert [tuple(g) for g in groups] == [(0, 1)]
        merged, _ = merge_groups(track.captions, groups, None, DigestConfig())
        assert merged[0].interval == (0.0, 4.0)

    def test_matches_oracle(self):
        backend = MockEmbedder(seed=0)
        texts = []
        for i in range(12):
            base = f"C arranges item {i // 3} on the shelf"
            texts.append(base if i % 3 == 0 else base + " carefully")
        track = make_track(texts=texts)
        cfg = DigestConfig(adjacency_threshold=0.6, max_merge_group=3)
        groups = group_consecutive(track.captions, backend, cfg)
        assert [tuple(g) for g in groups] == oracle_groups(
            track, backend, 0.6, 3
        )

    def test_group_size_cap(self):
        backend = MockEmbedder(seed=0)
        track = make_track(texts=["C stirs the soup in the pot"] * 7)
        cfg = DigestConfig(adjacency_threshold=0.99, max_merge_group=3)
        groups = group_consecutive(track.captions, backend, cfg)
        assert [tuple(g) for g in groups] == [(0, 1, 2), (3, 4, 5)]

    def test_threshold_above_one_never_groups(self):
        backend = MockEmbedder(seed=0)
        track = make_track(texts=["C stirs the soup"] * 4)
        groups = group_consecutive(
            track.captions, backend, DigestConfig(adjacency_threshold=2.0)
        )
        assert groups == []

    def test_short_track_never_groups(self):
        backend = MockEmbedder(seed=0)
        assert group_consecutive(make_track(n=1).captions, backend, DigestConfig()) == []


class TestMerging:
    def test_concat_dedupes_preserving_order(self):
        assert concat_merge_text(["a", "b", "a", "c"]) == "a; b; c"

    def test_concat_merge_spans_group_interval(self):
        track = make_track(texts=["C kneads dough", "C kneads dough again", "C rests"])
        group = range(0, 2)
        merged, fallbacks = merge_groups(track.captions, [group], None, DigestConfig())
        assert fallbacks == 0
        assert len(merged) == 2
        first = merged[0]
        assert (first.start_s, first.end_s) == (0.0, 4.0)
        assert first.text == "C kneads dough; C kneads dough again"
        assert merged[1].text == "C rests"

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
        merged, _ = merge_groups(
            self.hull_track().captions, [range(0, 3)], None, DigestConfig()
        )
        assert [c.interval for c in merged] == [(0.0, 10.0)]
        pair = CaptionTrack.build(
            "v1",
            [Caption("v1", 0.0, 10.0, "C kneads dough"), Caption("v1", 1.0, 3.0, "C kneads")],
            0.0,
            10.0,
        )
        merged, _ = merge_groups(pair.captions, [range(0, 2)], None, DigestConfig())
        assert [c.interval for c in merged] == [(0.0, 10.0)]

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
        merged, fallbacks = merge_groups(track.captions, [group], CallableBackend(fake), cfg)
        assert seen == [(MERGE_PROMPT, "C kneads dough\nC kneads dough again")]
        assert merged[0].text == "C kneads dough twice"
        assert fallbacks == 0

    def test_llm_reply_line_breaks_become_spaces(self):
        track = make_track(texts=["C kneads dough", "C kneads dough again"])
        cfg = DigestConfig(merge_mode=MergeMode.LLM)
        merged, fallbacks = merge_groups(
            track.captions,
            [range(0, 2)],
            CallableBackend(lambda s, u: "merged line one\nmerged line two\r\n"),
            cfg,
        )
        assert merged[0].text == "merged line one merged line two"
        assert fallbacks == 0

    def test_llm_failure_falls_back_to_concat(self, caplog):
        def broken(system, user):
            raise TransportError("model down")

        track = make_track(texts=["C kneads dough", "C kneads dough again"])
        group = range(0, 2)
        cfg = DigestConfig(merge_mode=MergeMode.LLM)
        with caplog.at_level("WARNING", logger="egolog.digest"):
            merged, fallbacks = merge_groups(
                track.captions, [group], CallableBackend(broken), cfg
            )
        assert fallbacks == 1
        assert merged[0].text == "C kneads dough; C kneads dough again"
        assert any("falling back" in rec.message for rec in caplog.records)

    def test_failing_llm_merge_is_sent_once_then_falls_back(self):
        calls = []

        def broken(system, user):
            calls.append(user)
            raise TransportError("model down")

        track = make_track(texts=["C kneads dough", "C kneads dough again"])
        group = range(0, 2)
        cfg = DigestConfig(merge_mode=MergeMode.LLM)
        _, fallbacks = merge_groups(track.captions, [group], CallableBackend(broken), cfg)
        assert fallbacks == 1
        assert len(calls) == 1

    def test_llm_empty_output_falls_back(self):
        track = make_track(texts=["C kneads dough", "C kneads dough again"])
        group = range(0, 2)
        cfg = DigestConfig(merge_mode=MergeMode.LLM)
        merged, fallbacks = merge_groups(
            track.captions, [group], CallableBackend(lambda s, u: "   "), cfg
        )
        assert fallbacks == 1
        assert merged[0].text == "C kneads dough; C kneads dough again"

    @staticmethod
    def pairs(track):
        caps = track.captions
        return [range(i, i + 2) for i in range(0, len(caps) - 1, 2)]

    def test_llm_merges_in_flight_together_up_to_the_limit(self):
        track = make_track(n=4)
        cfg = DigestConfig(merge_mode=MergeMode.LLM)
        backend = OverlapBackend(parties=2)
        with completion_pool(2) as pool:
            merged, fallbacks = merge_groups(
                track.captions, self.pairs(track), backend, cfg, pool
            )
        assert fallbacks == 0
        assert [c.text for c in merged] == [backend.reply] * 2
        assert backend.max_in_flight == 2
        serial = OverlapBackend(parties=1)
        merge_groups(track.captions, self.pairs(track), serial, cfg)
        assert serial.max_in_flight == 1

    def test_merges_independent_of_in_flight_limit(self):
        track = make_track(n=24)
        cfg = DigestConfig(merge_mode=MergeMode.LLM)
        outcomes = []
        for limit in (1, 2, 8):
            with completion_pool(limit) as pool:
                outcomes.append(
                    merge_groups(
                        track.captions, self.pairs(track), HashFailingBackend(), cfg, pool
                    )
                )
        assert outcomes[0] == outcomes[1] == outcomes[2]
        merged, fallbacks = outcomes[0]
        assert 0 < fallbacks < 12
        assert sum(c.text.startswith("reply ") for c in merged) == 12 - fallbacks

    def test_llm_mode_without_a_backend_raises(self):
        # two identical captions form one group, which only an LLM may merge
        track = make_track(texts=["C stirs the pot"] * 2)
        cfg = DigestConfig(merge_mode=MergeMode.LLM, adjacency_threshold=0.9)
        with pytest.raises(ValueError, match="merge_mode llm needs an LLM backend"):
            digest(track, [], MockEmbedder(), None, cfg)


# repeated texts: near-duplicates that group, a blocklisted one, and an outlier
REPEATED_TEXTS = [
    "C looks around",
    "C stirs the pot",
    "C stirs the pot slowly",
    "C opens the fridge door",
    "completely unrelated zzz qqq",
]


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
        stage1 = drop_uninformative(track.captions, cfg)
        stage2 = filter_by_relevance(stage1, [nlq_query()], backend, cfg)
        merged, _ = merge_groups(stage2, group_consecutive(stage2, backend, cfg), None, cfg)
        assert len(merged) <= len(stage2) <= len(stage1) <= len(track.captions)

    def test_output_keeps_the_video_and_clip_bounds(self):
        track = make_track(texts=["C looks around"] * 3, clip_start=5.0, clip_end=40.0)
        out, stats = digest(track, [], MockEmbedder(), None, DigestConfig())
        assert stats.output_captions == 0
        assert (out.video_id, out.bounds, out.captions) == ("v1", (5.0, 40.0), ())

    def test_merged_caption_follows_an_ungrouped_one_with_its_interval(self):
        spans = [(0.0, 2.0, "C stirs the pot"), (0.0, 3.0, "C stirs the pot")]
        spans.append((0.0, 3.0, "C opens the fridge door"))
        track = CaptionTrack.build("v1", [Caption("v1", *span) for span in spans])
        cfg = DigestConfig(adjacency_threshold=0.9)
        out, stats = digest(track, [], MockEmbedder(), None, cfg)
        assert stats.groups_merged == 1
        assert [(c.interval, c.text) for c in out.captions] == [
            ((0.0, 3.0), "C opens the fridge door"),
            ((0.0, 3.0), "C stirs the pot"),
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=1, max_value=3),
                st.sampled_from(REPEATED_TEXTS),
            ),
            max_size=30,
        ),
        query_texts=st.lists(st.sampled_from(REPEATED_TEXTS + ["where is the onion"]), max_size=3),
        relevance=st.sampled_from([-1.0, 0.0, 0.05, 0.3]),
        adjacency=st.sampled_from([0.3, 0.5, 0.9, 2.0]),
        max_group=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=3),
    )
    @example(
        spans=[(0, 2, "C stirs the pot"), (0, 3, "C stirs the pot")]
        + [(0, 3, "C opens the fridge door"), (1, 1, "C stirs the pot")],
        query_texts=["C stirs the pot"],
        relevance=0.0,
        adjacency=0.9,
        max_group=4,
        seed=0,
    )
    def test_matches_the_chain_of_track_stages(
        self, spans, query_texts, relevance, adjacency, max_group, seed
    ):
        captions = [Caption("v1", float(a), float(a + n), text) for a, n, text in spans]
        track = CaptionTrack.build("v1", captions, 0.0, 12.0)
        queries = [nlq_query(qid=f"q{k}", text=text) for k, text in enumerate(query_texts)]
        cfg = DigestConfig(
            relevance_threshold=relevance, adjacency_threshold=adjacency, max_merge_group=max_group
        )
        backend = MockEmbedder(seed=seed)
        expected, expected_stats = reference_digest(track, queries, backend, cfg)
        with counted_track_checks() as checked:
            out, stats = digest(track, queries, backend, None, cfg)
        assert checked == ["v1"]
        assert out == expected
        assert stats == expected_stats

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
