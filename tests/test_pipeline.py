from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egolog import corpus, pipeline
from egolog.config import load_config
from egolog.corpus import Query, QueryKind, write_json
from egolog.digest import MERGE_PROMPT
from egolog.errors import BackendProtocolError, ConfigError, CorpusError, MetricsError
from egolog.llm import ReplayBackend
from egolog.metrics import load_predictions
from egolog.pipeline import (
    build_embedder,
    build_llm,
    run_ask,
    run_digest,
    run_eval,
    run_gen_refine_data,
    run_localize,
)
from egolog.refine import gen_refinement_dataset
from egolog.similarity import HttpEmbedder, MockEmbedder

from helpers import (
    PAIR_MERGES,
    CallableBackend,
    HashFailingBackend,
    OverlapBackend,
    RecordingEmbedder,
    ScriptedNlqBackend,
    ScriptedQaBackend,
    assert_loads_as_its_shape,
    disk_config,
    known_key_rows,
    make_track,
    questions_per_video,
    synth_nlq_benchmark,
    synth_qa_benchmark,
    write_run,
)


IDENTITY_DIGEST = "[digest]\nrelevance_threshold = -1\nadjacency_threshold = 2.0\n"
# a QA answer without a qid, which a one-question prompt accepts
ANONYMOUS_ANSWER = '```json\n[{"answer": "B", "explanation": "x", "confidence": 2}]\n```'


class TwoLineMerges(ScriptedQaBackend):
    """Answers questions as ScriptedQaBackend does, and every merge on two lines."""

    def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
        if system_text == MERGE_PROMPT:
            return "merged line one\nmerged line two"
        return super().complete(system_text, user_text, sampling_seed, run_index)


class TestBuildBackends:
    def test_mock_embedder_from_config(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=1)
        config = disk_config(tmp_path, tracks, queries, "[embedder]\ndim = 32\n")
        embedder = build_embedder(config)
        assert isinstance(embedder, MockEmbedder)
        assert len(embedder.embed_texts(["some text"])[0]) == 32

    def test_mock_embedder_ignores_pipeline_seed(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=1)
        a = build_embedder(disk_config(tmp_path, tracks, queries))
        b = build_embedder(
            disk_config(tmp_path, tracks, queries, overrides={"run.seed": "999"})
        )
        assert np.array_equal(a.embed_texts(["same text"]), b.embed_texts(["same text"]))

    def test_http_embedder_from_config(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=1)
        # building the client sends nothing, so the endpoint need not answer
        config = disk_config(
            tmp_path,
            tracks,
            queries,
            "[embedder]\nkind = http\nendpoint = http://127.0.0.1:1/\n",
        )
        assert isinstance(build_embedder(config), HttpEmbedder)

    def test_replay_llm_requires_transcripts(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=1)
        config = disk_config(tmp_path, tracks, queries)
        with pytest.raises(ConfigError, match="paths.transcripts"):
            build_llm(config)

    def test_replay_llm_from_file(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=1)
        transcripts = tmp_path / "transcripts.json"
        write_json(transcripts, {})
        config = disk_config(
            tmp_path, tracks, queries, extra_paths=f"transcripts = {transcripts.name}\n"
        )
        assert isinstance(build_llm(config), ReplayBackend)


class TestRunAsk:
    def test_scripted_backend_answers_every_question(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=8, captions_per_video=6)
        config = disk_config(tmp_path, tracks, queries)
        records, failures = run_ask(config, llm=ScriptedQaBackend())
        assert failures == []
        assert [r["qid"] for r in records] == [q.qid for q in queries]
        key = {q.qid: q.gt_answer_idx for q in queries}
        for record in records:
            assert record["choice"] == key[record["qid"]]
            assert record["confidence"] == 3
            assert set(record) == {"qid", "choice", "confidence", "explanation"}

    def test_missing_video_fails_only_that_unit(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=3, captions_per_video=6)
        orphan = Query(
            qid="orphan",
            video_id="ghost",
            kind=QueryKind.QA,
            text="What happened?",
            choices=("a", "b", "c", "d", "e"),
            gt_answer_idx=0,
        )
        config = disk_config(tmp_path, tracks, list(queries) + [orphan])
        records, failures = run_ask(config, llm=ScriptedQaBackend())
        assert len(records) == 3
        assert [f.qid for f in failures] == ["orphan"]
        assert "no captions" in failures[0].error

    def test_unparsable_runs_discarded_good_run_survives(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=2, captions_per_video=6)
        good = ScriptedQaBackend()

        class FlakyParses:
            def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
                if run_index < 2:
                    return "no JSON here at all"
                return good.complete(system_text, user_text, sampling_seed, run_index)

        config = disk_config(tmp_path, tracks, queries)
        records, failures = run_ask(config, llm=FlakyParses())
        assert failures == []
        key = {q.qid: q.gt_answer_idx for q in queries}
        for record in records:
            assert record["choice"] == key[record["qid"]]

    def test_all_runs_unparsable_is_unit_failure(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=2, captions_per_video=6)

        class Garbage:
            def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
                return "nothing structured"

        config = disk_config(tmp_path, tracks, queries)
        records, failures = run_ask(config, llm=Garbage())
        assert records == []
        assert sorted(f.qid for f in failures) == [q.qid for q in queries]
        for failure in failures:
            assert "no usable answers from 3 runs" in failure.error

    @pytest.mark.parametrize("limit", ["1", "2"])
    def test_deeply_nested_reply_fails_only_its_question(self, tmp_path, limit):
        tracks, queries = synth_qa_benchmark(n_items=4, captions_per_video=6)
        bad = queries[1].qid
        good = ScriptedQaBackend()

        class Nested:
            def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
                if f"(qid {bad})" in user_text:
                    return "[" * 5000
                return good.complete(system_text, user_text, sampling_seed, run_index)

        config = disk_config(
            tmp_path, tracks, queries, overrides={"run.in_flight_limit": limit}
        )
        records, failures = run_ask(config, llm=Nested())
        assert [r["qid"] for r in records] == [q.qid for q in queries if q.qid != bad]
        assert [(f.qid, f.error) for f in failures] == [
            (bad, "no usable answers from 3 runs")
        ]

    def test_no_qa_items_is_fatal(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=2)
        config = disk_config(tmp_path, tracks, queries)
        with pytest.raises(ConfigError, match="no QA items"):
            run_ask(config, llm=ScriptedQaBackend())

    def test_pool_size_does_not_change_output(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=10, captions_per_video=6)
        serial = disk_config(
            tmp_path, tracks, queries, overrides={"run.in_flight_limit": "1"}
        )
        pooled = disk_config(
            tmp_path, tracks, queries, overrides={"run.in_flight_limit": "8"}
        )
        records_a, _ = run_ask(serial, llm=ScriptedQaBackend())
        records_b, _ = run_ask(pooled, llm=ScriptedQaBackend())
        assert records_a == records_b


class TestSharedPools:
    def test_runs_of_every_unit_share_the_completion_slots(self, tmp_path):
        # a barrier of 4 passes only if 4 runs are in flight at once, which
        # the last question alone reaches only on the shared pool
        tracks, queries = synth_qa_benchmark(n_items=3, captions_per_video=6)
        config = disk_config(
            tmp_path,
            tracks,
            queries,
            overrides={"run.in_flight_limit": "2", "run.runs": "4"},
        )
        backend = OverlapBackend(parties=4, reply=ANONYMOUS_ANSWER)
        records, failures = run_ask(config, llm=backend)
        assert failures == []
        assert [r["choice"] for r in records] == [1, 1, 1]
        assert backend.max_in_flight == 4

    def test_runs_of_one_video_fill_every_completion_slot(self, tmp_path):
        # one run per question: the barrier of 4 passes only if the runs of
        # all four questions of the video are in flight at once
        tracks, queries = questions_per_video(n_videos=1, per_video=4)
        config = disk_config(
            tmp_path,
            tracks,
            queries,
            overrides={"run.in_flight_limit": "2", "run.runs": "1"},
        )
        backend = OverlapBackend(parties=4, reply=ANONYMOUS_ANSWER)
        records, failures = run_ask(config, llm=backend)
        assert failures == []
        assert [r["qid"] for r in records] == [q.qid for q in queries]
        assert backend.max_in_flight == 4

    def test_question_without_usable_runs_fails_alone_in_its_video(self, tmp_path):
        tracks, queries = questions_per_video(n_videos=1, per_video=3)
        bad = queries[1].qid
        good = ScriptedQaBackend()

        class BadForOne:
            def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
                if f"(qid {bad})" in user_text:
                    return "nothing structured"
                return good.complete(system_text, user_text, sampling_seed, run_index)

        outcomes = []
        for limit in ("1", "2"):
            config = disk_config(
                tmp_path, tracks, queries, overrides={"run.in_flight_limit": limit}
            )
            outcomes.append(run_ask(config, llm=BadForOne()))
        assert outcomes[0] == outcomes[1]
        records, failures = outcomes[0]
        assert [r["qid"] for r in records] == [q.qid for q in queries if q.qid != bad]
        assert [(f.qid, f.error) for f in failures] == [
            (bad, "no usable answers from 3 runs")
        ]

    def test_merges_of_one_video_fill_every_completion_slot(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=1, captions_per_video=16)
        config = disk_config(
            tmp_path, tracks, queries, PAIR_MERGES, overrides={"run.in_flight_limit": "2"}
        )
        backend = OverlapBackend(parties=4)
        digested, stats, failures = run_digest(config, llm=backend)
        assert failures == []
        (video_stats,) = stats.values()
        assert (video_stats.groups_merged, video_stats.merge_fallbacks) == (8, 0)
        assert backend.max_in_flight == 4

    @pytest.mark.parametrize("command", ["ask", "localize", "digest"])
    def test_each_video_embeds_from_one_thread(self, tmp_path, command):
        # a unit's embedding cache has no lock, so no completion task (an
        # LLM merge, a run) may embed: every batch of a video's texts must
        # come from the thread running its unit
        if command == "localize":
            tracks, queries = synth_nlq_benchmark(n_items=6, captions_per_video=8)
            config = disk_config(
                tmp_path, tracks, queries, overrides={"run.in_flight_limit": "4"}
            )
            llm, command_fn = ScriptedNlqBackend(), run_localize
        else:
            tracks, queries = questions_per_video(n_videos=6)
            config = disk_config(
                tmp_path, tracks, queries, PAIR_MERGES, overrides={"run.in_flight_limit": "4"}
            )
            llm = ScriptedQaBackend()
            command_fn = run_ask if command == "ask" else run_digest
        owner = {c.text: vid for vid, track in tracks.items() for c in track.captions}
        owner.update((q.text, q.video_id) for q in queries)
        recording = RecordingEmbedder()
        *_, failures = command_fn(config, embedder=recording, llm=llm)
        assert failures == []
        threads_by_video: dict[str, set[str]] = {}
        for thread, texts in zip(recording.threads, recording.calls):
            (video,) = {owner[t] for t in texts}
            threads_by_video.setdefault(video, set()).add(thread)
        assert sorted(threads_by_video) == sorted(tracks)
        assert all(len(threads) == 1 for threads in threads_by_video.values())
        assert all(t.startswith("egolog-unit") for t in recording.threads)

    def test_outputs_independent_of_in_flight_limit(self, tmp_path):
        tracks, queries = questions_per_video()
        orphan = Query("orphan", "ghost", QueryKind.QA, "What?", ("a",) * 5)
        outcomes = []
        for limit in ("1", "2", "3", "8"):
            config = disk_config(
                tmp_path,
                tracks,
                queries + [orphan],
                PAIR_MERGES,
                overrides={"run.in_flight_limit": limit},
            )
            llm = HashFailingBackend(
                inner=ScriptedQaBackend(), error=BackendProtocolError
            )
            outcomes.append((run_ask(config, llm=llm), run_digest(config, llm=llm)))
        assert all(outcome == outcomes[0] for outcome in outcomes)
        (records, failures), (_, stats, digest_failures) = outcomes[0]
        # one question loses all of its runs; the orphan has no captions
        assert len(records) == len(queries) - 1
        assert [f.qid for f in failures][-1] == "orphan"
        assert "no usable answers" in failures[0].error
        assert digest_failures == []
        fallbacks = sum(s.merge_fallbacks for s in stats.values())
        assert 0 < fallbacks < sum(s.groups_merged for s in stats.values())


class TestSharedEmbeddingRequest:
    @pytest.mark.parametrize("limit", ["1", "4"])
    def test_one_embedding_request_per_video(self, tmp_path, limit):
        tracks, queries = questions_per_video()
        config = disk_config(
            tmp_path, tracks, queries, overrides={"run.in_flight_limit": limit}
        )
        counting = RecordingEmbedder()
        records, failures = run_ask(config, embedder=counting, llm=ScriptedQaBackend())
        assert failures == []
        assert len(records) == len(queries)
        # each request is the video's captions plus all of its question texts
        assert sorted(counting.calls) == sorted(
            [c.text for c in track.captions]
            + [q.text for q in queries if q.video_id == vid]
            for vid, track in tracks.items()
        )

    @pytest.mark.parametrize("limit", ["1", "4"])
    def test_bad_row_fails_only_its_question(self, tmp_path, limit, caplog):
        tracks, queries = questions_per_video()
        bad = queries[1]
        mock = MockEmbedder()

        class ZeroForOneText:
            def embed_texts(self, texts):
                rows = mock.embed_texts(texts)
                rows[[t == bad.text for t in texts]] = 0.0
                return rows

        config = disk_config(
            tmp_path, tracks, queries, overrides={"run.in_flight_limit": limit}
        )
        with caplog.at_level("WARNING", logger="egolog.pipeline"):
            records, failures = run_ask(
                config, embedder=ZeroForOneText(), llm=ScriptedQaBackend()
            )
        assert [f.qid for f in failures] == [bad.qid]
        assert "zero embedding vector" in failures[0].error
        assert [r["qid"] for r in records] == [q.qid for q in queries if q is not bad]
        assert "shared embedding request" in caplog.text


class TestRunLocalize:
    def test_scripted_backend_localizes(self, tmp_path):
        # identity digest keeps the original caption spans, so with zero
        # padding the scripted backend should recover each gt window exactly
        tracks, queries = synth_nlq_benchmark(n_items=6, captions_per_video=8)
        config = disk_config(
            tmp_path, tracks, queries, IDENTITY_DIGEST + "[refine]\npad_alpha = 0\n"
        )
        records, failures = run_localize(config, llm=ScriptedNlqBackend())
        assert failures == []
        assert [r["qid"] for r in records] == [q.qid for q in queries]
        gt = {q.qid: q.gt_window for q in queries}
        for record in records:
            assert record["predicted_window"] == list(gt[record["qid"]])
            assert record["na"] is False
            assert record["candidates"]

    def test_negative_zero_candidate_written_as_zero(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=1, captions_per_video=4)
        (query,) = queries
        entry = {
            "qid": query.qid,
            "intervals": [[-0.0, 2.0]],
            "explanation": "x",
            "confidence": 3,
        }
        reply = f"```json\n{json.dumps([entry])}\n```"
        config = disk_config(
            tmp_path, tracks, queries, IDENTITY_DIGEST + "[refine]\npad_alpha = 0\n"
        )
        records, failures = run_localize(
            config, llm=CallableBackend(lambda system, user: reply)
        )
        assert failures == []
        (record,) = records
        assert record["candidates"] == [[0.0, 2.0]]
        assert record["predicted_window"] == [0.0, 2.0]
        assert "-0" not in json.dumps(record)

    def test_na_query_maps_to_full_clip(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=8)
        hopeless = Query(
            qid="nowhere",
            video_id=queries[0].video_id,
            kind=QueryKind.NLQ,
            text="find: something never captioned",
        )
        config = disk_config(tmp_path, tracks, list(queries) + [hopeless])
        records, failures = run_localize(config, llm=ScriptedNlqBackend())
        assert failures == []
        by_qid = {r["qid"]: r for r in records}
        track = tracks[queries[0].video_id]
        assert by_qid["nowhere"]["na"] is True
        assert by_qid["nowhere"]["predicted_window"] == [
            track.clip_start_s,
            track.clip_end_s,
        ]
        assert by_qid["nowhere"]["candidates"] == []
        assert by_qid["nowhere"]["confidence"] == 1

    def test_one_prompt_per_video(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=4, captions_per_video=8)
        extra = Query(
            qid="second",
            video_id=queries[0].video_id,
            kind=QueryKind.NLQ,
            text=queries[0].text,
        )
        backend = ScriptedNlqBackend()
        config = disk_config(tmp_path, tracks, list(queries) + [extra])
        records, _ = run_localize(config, llm=backend)
        assert backend.calls == len(tracks)
        assert len(records) == 5

    def test_injected_backend_gets_each_text_once(self, tmp_path):
        # each unit's cache fronts an injected backend too, so the digest
        # stages and every refinement score of a video share one fetch per
        # text; the cache ends with its unit, so a caption text that two
        # videos share is fetched once for each
        tracks, queries = synth_nlq_benchmark(n_items=4, captions_per_video=8)
        shared = "C wipes the table with a cloth"
        for vid in list(tracks)[:2]:
            texts = [c.text for c in tracks[vid].captions]
            tracks[vid] = make_track(vid, texts=texts + [shared])
        config = disk_config(tmp_path, tracks, queries)
        counting = RecordingEmbedder()
        records, failures = run_localize(
            config, embedder=counting, llm=ScriptedNlqBackend()
        )
        assert failures == []
        assert len(records) == len(queries)
        sent = [text for batch in counting.calls for text in batch]
        assert sent.count(shared) == 2
        others = [text for text in sent if text != shared]
        assert len(others) == len(set(others))

    def test_no_nlq_items_is_fatal(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=2)
        config = disk_config(tmp_path, tracks, queries)
        with pytest.raises(ConfigError, match="no NLQ items"):
            run_localize(config, llm=ScriptedNlqBackend())

    def test_missing_video_fails_whole_video_unit(self, tmp_path):
        # two videos' queries interleave around a video with no captions;
        # units group by video, output keeps input query order
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=8)
        a, b = queries

        def nlq(qid, video_id, caption):
            track = tracks.get(video_id)
            text = track.captions[caption].text if track else "x"
            return Query(qid, video_id, QueryKind.NLQ, f"find: {text}")

        mixed = [
            a,
            nlq("orphan", "ghost", 0),
            b,
            nlq("a2", a.video_id, 3),
            nlq("orphan2", "ghost", 0),
            nlq("b2", b.video_id, 5),
        ]
        outcomes = []
        for limit in ("1", "4"):
            config = disk_config(
                tmp_path, tracks, mixed, overrides={"run.in_flight_limit": limit}
            )
            records, failures = run_localize(config, llm=ScriptedNlqBackend())
            assert [r["qid"] for r in records] == [a.qid, b.qid, "a2", "b2"]
            assert [f.qid for f in failures] == ["orphan", "orphan2"]
            assert all(f.error == "no captions for video 'ghost'" for f in failures)
            outcomes.append((records, failures))
        assert outcomes[0] == outcomes[1]

    def test_failed_completion_fails_every_query_of_its_video(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=8)
        extra = Query("second", queries[0].video_id, QueryKind.NLQ, queries[0].text)

        class Rejecting:
            def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
                raise BackendProtocolError("completion endpoint returned 400")

        config = disk_config(tmp_path, tracks, list(queries) + [extra])
        records, failures = run_localize(config, llm=Rejecting())
        assert records == []
        assert [f.qid for f in failures] == [q.qid for q in queries] + ["second"]
        assert all(f.error == "completion endpoint returned 400" for f in failures)

    def test_deeply_nested_reply_fails_only_its_video(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=3, captions_per_video=8)
        bad = queries[1].qid
        good = ScriptedNlqBackend()

        class Nested:
            def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
                if f"(qid {bad})" in user_text:
                    return "[" * 5000
                return good.complete(system_text, user_text, sampling_seed, run_index)

        config = disk_config(tmp_path, tracks, queries)
        records, failures = run_localize(config, llm=Nested())
        assert [r["qid"] for r in records] == [q.qid for q in queries if q.qid != bad]
        assert [(f.qid, f.error) for f in failures] == [
            (bad, "response nests deeper than the JSON decoder allows")
        ]

    def test_huge_integer_bound_drops_only_that_interval(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=8)
        huge = Query("huge", queries[0].video_id, QueryKind.NLQ, queries[0].text)
        good = ScriptedNlqBackend()

        class HugeBound:
            def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
                text = good.complete(system_text, user_text, sampling_seed, run_index)
                entries = json.loads(text.strip("`").removeprefix("json"))
                for entry in entries:
                    if entry["qid"] == "huge":
                        entry["intervals"] = [[0, 10**400]]
                return json.dumps(entries)

        config = disk_config(
            tmp_path, tracks, list(queries) + [huge], IDENTITY_DIGEST
        )
        records, failures = run_localize(config, llm=HugeBound())
        assert failures == []
        by_qid = {r["qid"]: r for r in records}
        assert by_qid["huge"]["na"] is True
        assert by_qid["huge"]["candidates"] == []
        for query in queries:
            assert by_qid[query.qid]["na"] is False

    def test_embedding_dimension_skew_fails_units_not_run(self, tmp_path):
        # captions and queries embed to different dimensions: every unit
        # fails with the backend's protocol error instead of a traceback
        tracks, queries = synth_nlq_benchmark(n_items=4, captions_per_video=8)
        query_texts = {q.text for q in queries}

        class Skewed:
            def embed_texts(self, texts):
                return [[1.0] * (3 if t in query_texts else 2) for t in texts]

        config = disk_config(tmp_path, tracks, queries)
        records, failures = run_localize(
            config, embedder=Skewed(), llm=ScriptedNlqBackend()
        )
        assert records == []
        assert [f.qid for f in failures] == [q.qid for q in queries]
        assert all("dimension mismatch" in f.error for f in failures)

    def test_pool_size_does_not_change_output(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=10, captions_per_video=8)
        serial = disk_config(
            tmp_path, tracks, queries, overrides={"run.in_flight_limit": "1"}
        )
        pooled = disk_config(
            tmp_path, tracks, queries, overrides={"run.in_flight_limit": "8"}
        )
        records_a, _ = run_localize(serial, llm=ScriptedNlqBackend())
        records_b, _ = run_localize(pooled, llm=ScriptedNlqBackend())
        assert records_a == records_b

    def test_replay_round_trip_matches_live_run(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=4, captions_per_video=8)
        recorder = ReplayBackend({}, inner=ScriptedNlqBackend())
        config = disk_config(tmp_path, tracks, queries)
        live_records, _ = run_localize(config, llm=recorder)
        transcripts = tmp_path / "transcripts.json"
        write_json(transcripts, recorder.transcripts)
        replay_config = disk_config(
            tmp_path,
            tracks,
            queries,
            extra_paths=f"transcripts = {transcripts.name}\n",
        )
        replay_records, failures = run_localize(replay_config)
        assert failures == []
        assert replay_records == live_records


class TestRunDigest:
    def test_per_video_stats(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=3, captions_per_video=5)
        config = disk_config(tmp_path, tracks, queries)
        digested, stats, failures = run_digest(config)
        assert failures == []
        assert set(digested) == set(tracks)
        for vid, track in digested.items():
            assert stats[vid].input_captions == 5
            assert stats[vid].output_captions == len(track.captions)

    def test_queries_file_optional(self, tmp_path):
        tracks, _ = synth_qa_benchmark(n_items=2, captions_per_video=5)
        config = load_config(write_run(tmp_path, tracks, sections="[run]\nseed = 1\n"))
        digested, stats, failures = run_digest(config)
        assert set(digested) == set(tracks)
        assert failures == []

    def test_llm_merges_independent_of_in_flight_limit(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=4, captions_per_video=12)
        merging = (
            "[digest]\nmerge_mode = llm\nrelevance_threshold = -1\n"
            "adjacency_threshold = -1\nmax_merge_group = 2\n"
        )
        outcomes = [
            run_digest(
                disk_config(
                    tmp_path,
                    tracks,
                    queries,
                    merging,
                    overrides={"run.in_flight_limit": limit},
                ),
                llm=HashFailingBackend(),
            )
            for limit in ("1", "8")
        ]
        assert outcomes[0] == outcomes[1]
        digested, stats, failures = outcomes[0]
        assert failures == []
        fallbacks = sum(s.merge_fallbacks for s in stats.values())
        assert 0 < fallbacks < sum(s.groups_merged for s in stats.values())

    @pytest.mark.parametrize("limit", ["1", "2"])
    def test_merge_reply_on_two_lines_fails_no_unit(self, tmp_path, limit):
        tracks, queries = synth_qa_benchmark(n_items=3, captions_per_video=6)
        config = disk_config(
            tmp_path, tracks, queries, PAIR_MERGES, overrides={"run.in_flight_limit": limit}
        )
        digested, stats, failures = run_digest(config, llm=TwoLineMerges())
        assert failures == []
        assert sum(s.merge_fallbacks for s in stats.values()) == 0
        texts = {c.text for track in digested.values() for c in track.captions}
        assert texts == {"merged line one merged line two"}
        records, failures = run_ask(config, llm=TwoLineMerges())
        assert failures == []
        assert len(records) == len(queries)

    def test_non_finite_embedding_fails_its_unit(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=2, captions_per_video=5)
        bad_video, good_video = list(tracks)
        bad_texts = {c.text for c in tracks[bad_video].captions}
        mock = MockEmbedder()

        class NanForOneVideo:
            def embed_texts(self, texts):
                rows = mock.embed_texts(texts)
                for i, text in enumerate(texts):
                    if text in bad_texts:
                        rows[i, 0] = np.nan
                return rows

        config = disk_config(tmp_path, tracks, queries)
        digested, _, failures = run_digest(config, embedder=NanForOneVideo())
        assert list(digested) == [good_video]
        assert [f.qid for f in failures] == [bad_video]
        assert "non-finite embedding vector" in failures[0].error


class TestRunGenRefineData:
    def test_records_balanced(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=3, captions_per_video=8)
        config = disk_config(
            tmp_path,
            tracks,
            queries,
            "[refine]\nsamples_per_gt = 5\njitter_shift_max = 6\n",
        )
        records = run_gen_refine_data(config)
        assert len(records) == 3 * 2 * 5
        for qid in {q.qid for q in queries}:
            labels = [r["label"] for r in records if r["qid"] == qid]
            assert labels.count("pos") == 5
            assert labels.count("neg") == 5

    def test_reads_clip_bounds_without_building_tracks(self, tmp_path, monkeypatch):
        tracks, queries = synth_nlq_benchmark(n_items=3, captions_per_video=8)
        config = disk_config(tmp_path, tracks, queries)
        gts = [(q.qid, q.gt_window, tracks[q.video_id].bounds) for q in queries]
        expected = gen_refinement_dataset(gts, config.refine, config.seed)

        def refuse(path):
            raise AssertionError(f"load_captions({path}) called")

        monkeypatch.setattr(pipeline, "load_captions", refuse)
        monkeypatch.setattr(corpus, "load_captions", refuse)
        assert run_gen_refine_data(config) == expected

    def test_requires_ground_truth(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=2)
        stripped = [
            Query(qid=q.qid, video_id=q.video_id, kind=q.kind, text=q.text)
            for q in queries
        ]
        config = disk_config(tmp_path, tracks, stripped)
        with pytest.raises(ConfigError, match="no NLQ items with ground truth"):
            run_gen_refine_data(config)

    def test_missing_video_is_fatal(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=8)
        orphan = Query(
            qid="orphan",
            video_id="ghost",
            kind=QueryKind.NLQ,
            text="find: x",
            gt_window=(1.0, 2.0),
        )
        config = disk_config(tmp_path, tracks, list(queries) + [orphan])
        with pytest.raises(ConfigError, match="ghost"):
            run_gen_refine_data(config)


def _at(i, change):
    """An edit of a list of prediction rows that replaces row i by change(row)."""
    return lambda rows: rows[:i] + [change(rows[i])] + rows[i + 1 :]


class TestRunEval:
    def localize_and_eval(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=5, captions_per_video=8)
        config = disk_config(
            tmp_path, tracks, queries, IDENTITY_DIGEST + "[refine]\npad_alpha = 0\n"
        )
        records, failures = run_localize(config, llm=ScriptedNlqBackend())
        assert failures == []
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        return config, preds

    def test_nlq_round_trip_scores_perfectly(self, tmp_path):
        config, preds = self.localize_and_eval(tmp_path)
        report = run_eval(config, preds, "nlq")
        assert report["task"] == "nlq"
        assert report["na_ratio"] == 0.0
        assert report["overlap"] == 1.0
        assert report["recall_at_1"]["0.3"] == 1.0
        assert report["r1_mean"] == 1.0

    def test_missing_predictions_file_is_named(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=4)
        config = disk_config(tmp_path, tracks, queries)
        missing = tmp_path / "nope.jsonl"
        message = re.escape(f"predictions file {missing} does not exist")
        with pytest.raises(MetricsError, match=message):
            load_predictions(missing, QueryKind.NLQ, {q.qid: q for q in queries})
        with pytest.raises(MetricsError, match=message):
            run_eval(config, missing, "nlq")
        message = re.escape(f"predictions file {tmp_path} is not a file")
        with pytest.raises(MetricsError, match=message):
            load_predictions(tmp_path, QueryKind.NLQ, {q.qid: q for q in queries})
        with pytest.raises(MetricsError, match=message):
            run_eval(config, tmp_path, "nlq")

    @pytest.mark.parametrize("task", ["nlq", "qa"])
    def test_every_query_with_ground_truth_is_scored(self, tmp_path, task):
        # 4 queries with ground truth, and exact predictions for 2 of them
        synth = synth_nlq_benchmark if task == "nlq" else synth_qa_benchmark
        tracks, queries = synth(n_items=4, captions_per_video=4)
        config = disk_config(tmp_path, tracks, queries)
        if task == "nlq":
            answers = [
                {"predicted_window": list(q.gt_window), "candidates": [list(q.gt_window)]}
                for q in queries
            ]
        else:
            answers = [{"choice": q.gt_answer_idx} for q in queries]
        preds = tmp_path / "preds.jsonl"
        write_rows(preds, [{"qid": q.qid, **a} for q, a in zip(queries[:2], answers)])
        report = run_eval(config, preds, task)
        assert report["n_queries"] == 4
        assert (report["n_answered"], report["n_missing"]) == (2, 2)
        if task == "nlq":
            assert report["recall_at_1"] == {"0.3": 0.5, "0.5": 0.5}
            assert report["per_confidence"]["1"]["recall_at_1"] == {"0.3": 1.0, "0.5": 1.0}
        else:
            assert report["qa_accuracy"] == 0.5
            assert report["per_confidence"]["1"]["qa_accuracy"] == 1.0

    def test_unknown_qids_rejected(self, tmp_path):
        config, preds = self.localize_and_eval(tmp_path)
        with open(preds, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {"qid": "mystery", "predicted_window": [0, 1], "confidence": 1}
                )
                + "\n"
            )
        with pytest.raises(MetricsError, match="unknown qids.*mystery"):
            run_eval(config, preds, "nlq")

    def test_window_wider_than_a_float_scores_its_exact_prediction(self, tmp_path):
        tracks, _ = synth_nlq_benchmark(n_items=1)
        (vid,) = tracks
        wide = Query("wide", vid, QueryKind.NLQ, "find: anything", gt_window=(0.0, 1e308))
        config = disk_config(tmp_path, tracks, [wide])
        preds = tmp_path / "preds.jsonl"
        row = {"qid": "wide", "predicted_window": [0, 1e308], "candidates": [[0, 1e308]]}
        write_rows(preds, [row])
        report = run_eval(config, preds, "nlq")
        assert report["overlap"] == 1.0
        assert report["iou_star"] == {"0.3": 1.0, "0.5": 1.0}
        assert report["recall_at_1"] == {"0.3": 1.0, "0.5": 1.0}

    def test_query_without_ground_truth_rejected(self, tmp_path):
        tracks, _ = synth_nlq_benchmark(n_items=1)
        (vid,) = tracks
        open_query = Query("n1", vid, QueryKind.NLQ, "find: anything")
        config = disk_config(tmp_path, tracks, [open_query])
        preds = tmp_path / "preds.jsonl"
        write_rows(preds, [{"qid": "n1", "predicted_window": [0, 1]}])
        with pytest.raises(
            MetricsError, match=re.escape("queries without ground truth: ['n1']")
        ):
            run_eval(config, preds, "nlq")

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            (_at(0, lambda row: {"qid": row["qid"]}), 1, "has no 'predicted_window'"),
            (
                _at(1, lambda row: {**row, "confidence": "high"}),
                2,
                "confidence must be a whole number, got 'high'",
            ),
            (_at(2, lambda row: {"predicted_window": [0, 1]}), 3, "has no 'qid'"),
            (_at(3, lambda row: {**row, "candidates": [[5, 1]]}), 4, "inverted"),
            (
                _at(4, lambda row: {**row, "predicted_window": "soon"}),
                5,
                re.escape("predicted_window must be [start, end]"),
            ),
            (_at(4, lambda row: {**row, "predicted_window": [9, 2]}), 5, "inverted"),
            (lambda rows: rows + rows[:1], 6, "duplicate prediction"),
            (
                _at(1, lambda row: {**row, "confidence": 2.9}),
                2,
                "confidence must be a whole number, got 2.9",
            ),
            (
                _at(2, lambda row: {**row, "confidence": True}),
                3,
                "confidence must be a whole number, got True",
            ),
            (
                _at(3, lambda row: {**row, "predicted_window": [False, 1e6]}),
                4,
                "times must be numbers, got False",
            ),
            (
                _at(1, lambda row: {**row, "confidence": "2"}),
                2,
                "confidence must be a whole number, got '2'",
            ),
            (
                _at(3, lambda row: {**row, "predicted_window": ["0", 5]}),
                4,
                "times must be numbers, got '0'",
            ),
            (
                _at(2, lambda row: {**row, "candidates": [[0, " 2 "]]}),
                3,
                "times must be numbers, got ' 2 '",
            ),
            (
                _at(2, lambda row: {**row, "predicted_window": [0, 10**400]}),
                3,
                "integer too large for a float",
            ),
            (
                _at(1, lambda row: {**row, "predicted_window": [0, float("inf")]}),
                2,
                "non-finite time inf",
            ),
            (
                _at(0, lambda row: {**row, "predicted_window": "02"}),
                1,
                re.escape("predicted_window must be [start, end]"),
            ),
            (
                _at(1, lambda row: {**row, "predicted_window": [0, 2, 99]}),
                2,
                re.escape("predicted_window must be [start, end]"),
            ),
            (
                _at(2, lambda row: {**row, "candidates": ["02"]}),
                3,
                re.escape("each candidate must be [start, end]"),
            ),
            (
                _at(3, lambda row: {**row, "candidates": [[0, 2, 99]]}),
                4,
                re.escape("each candidate must be [start, end]"),
            ),
            (
                _at(4, lambda row: {**row, "candidates": "02"}),
                5,
                "candidates must be a list",
            ),
            (
                _at(1, lambda row: {**row, "qid": None}),
                2,
                "qid must be a string or a number, got null",
            ),
            (
                _at(2, lambda row: {**row, "choice": 1}),
                3,
                re.escape("bad prediction for 'n002': record mixes qa and nlq fields: ['choice']"),
            ),
            (
                _at(0, lambda row: {**row, "explanation": ["x", {"y": 1}]}),
                1,
                "bad prediction for 'n000': explanation must be a string or a number, got a list",
            ),
            (
                _at(3, lambda row: {**row, "explanation": True}),
                4,
                "explanation must be a string or a number, got a bool",
            ),
            (
                _at(4, lambda row: {**row, "explanation": {"why": "x"}}),
                5,
                "explanation must be a string or a number, got an object",
            ),
            (
                _at(1, lambda row: {**row, "na": "banana"}),
                2,
                re.escape("bad prediction for 'n001': na must be false when candidates is [["),
            ),
            (
                _at(2, lambda row: {**row, "na": True}),
                3,
                re.escape("bad prediction for 'n002': na must be false when candidates is [["),
            ),
            (
                _at(3, lambda row: {**row, "candidates": [], "na": False}),
                4,
                re.escape("bad prediction for 'n003': na must be true when candidates is []"),
            ),
            (
                _at(0, lambda row: {**row, "candidates": [], "na": 1}),
                1,
                re.escape("bad prediction for 'n000': na must be true when candidates is []"),
            ),
        ],
        ids=[
            "no-window",
            "word-confidence",
            "no-qid",
            "inverted-candidate",
            "text-window",
            "inverted-window",
            "duplicate",
            "fractional-confidence",
            "bool-confidence",
            "bool-window",
            "numeric-string-confidence",
            "numeric-string-window",
            "padded-string-candidate",
            "huge-int-window",
            "infinite-window",
            "string-window",
            "triple-window",
            "string-candidate",
            "triple-candidate",
            "string-candidates",
            "null-qid",
            "nlq-choice",
            "list-explanation",
            "bool-explanation",
            "object-explanation",
            "word-na",
            "na-beside-candidates",
            "not-na-without-candidates",
            "number-na",
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, edit, line, message):
        config, preds = self.localize_and_eval(tmp_path)
        rows = [json.loads(text) for text in preds.read_text("utf-8").splitlines()]
        preds.write_text("".join(json.dumps(r) + "\n" for r in edit(rows)), "utf-8")
        where = f"in {re.escape(str(preds))} at line {line}"
        with pytest.raises(MetricsError, match=f"{message}.*{where}"):
            run_eval(config, preds, "nlq")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"predicted_window": [0, 1]}, "['predicted_window']"),
            ({"candidates": [[0, 1]]}, "['candidates']"),
            ({"na": False}, "['na']"),
            ({"na": True, "candidates": []}, "['candidates', 'na']"),
            ({"explanation": ["x"]}, "explanation must be a string or a number, got a list"),
        ],
        ids=["qa-window", "qa-candidates", "qa-na", "qa-na-and-candidates", "list-explanation"],
    )
    def test_malformed_qa_row_names_file_and_line(self, tmp_path, change, message):
        tracks, queries = synth_qa_benchmark(n_items=3, captions_per_video=6)
        config = disk_config(tmp_path, tracks, queries)
        records, _ = run_ask(config, llm=ScriptedQaBackend())
        records[1].update(change)
        preds = tmp_path / "qa_preds.jsonl"
        write_rows(preds, records)
        where = f"in {re.escape(str(preds))} at line 2"
        message = re.escape("bad prediction for 'q001': ") + ".*" + re.escape(message)
        with pytest.raises(MetricsError, match=f"{message}.*{where}"):
            run_eval(config, preds, "qa")

    def test_null_optional_fields_read_as_absent(self, tmp_path):
        _, queries = synth_qa_benchmark(n_items=2, captions_per_video=4)
        _, windows = synth_nlq_benchmark(n_items=1, captions_per_video=4)
        by_qid = {q.qid: q for q in queries + windows}
        preds = tmp_path / "preds.jsonl"
        rows = [
            {"qid": "q000", "choice": 1, "explanation": None, "confidence": None},
            {"qid": "q001", "choice": 1, "explanation": 7},
        ]
        write_rows(preds, rows)
        answers, _ = load_predictions(preds, QueryKind.QA, by_qid)
        assert [(a.explanation, a.confidence) for a in answers.values()] == [("", 1), ("7", 1)]
        write_rows(preds, [{"qid": "n000", "predicted_window": [0, 1], "candidates": None}])
        answers, _ = load_predictions(preds, QueryKind.NLQ, by_qid)
        assert (answers["n000"].intervals, answers["n000"].explanation) == ((), "")

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        config, preds = self.localize_and_eval(tmp_path)
        lines = preds.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"qid"', b'"q\xe9id"')
        preds.write_bytes(b"".join(lines))
        where = f"not valid UTF-8 in {re.escape(str(preds))} at line 3$"
        with pytest.raises(CorpusError, match=where):
            run_eval(config, preds, "nlq")

    def test_deeply_nested_row_names_file_and_line(self, tmp_path):
        config, preds = self.localize_and_eval(tmp_path)
        lines = preds.read_text("utf-8").splitlines(keepends=True)
        lines[2] = "[" * 100_000 + "]" * 100_000 + "\n"
        preds.write_text("".join(lines), "utf-8")
        where = f"in {re.escape(str(preds))} at line 3$"
        with pytest.raises(CorpusError, match=f"malformed line: nested too deeply {where}"):
            run_eval(config, preds, "nlq")

    def test_wrong_task_rejected(self, tmp_path):
        # nlq queries have no answer index, so scoring them as qa fails
        config, preds = self.localize_and_eval(tmp_path)
        with pytest.raises(MetricsError, match="non-qa queries"):
            run_eval(config, preds, "qa")

    def test_bad_task_name(self, tmp_path):
        config, preds = self.localize_and_eval(tmp_path)
        with pytest.raises(ConfigError, match="task must be"):
            run_eval(config, preds, "vqa")

    def test_qa_eval(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=4, captions_per_video=6)
        config = disk_config(tmp_path, tracks, queries)
        records, _ = run_ask(config, llm=ScriptedQaBackend())
        preds = tmp_path / "qa_preds.jsonl"
        preds.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        report = run_eval(config, preds, "qa")
        assert report["qa_accuracy"] == 1.0
        assert report["per_confidence"]["3"]["qa_accuracy"] == 1.0

    def test_qa_predictions_scored_as_nlq_rejected(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=3, captions_per_video=6)
        config = disk_config(tmp_path, tracks, queries)
        records, _ = run_ask(config, llm=ScriptedQaBackend())
        preds = tmp_path / "qa_preds.jsonl"
        preds.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        with pytest.raises(MetricsError, match="non-nlq queries"):
            run_eval(config, preds, "nlq")

    @pytest.mark.parametrize("choice", [True, 1.5, "3"], ids=["bool", "fractional", "string"])
    def test_qa_choice_must_be_a_whole_number(self, tmp_path, choice):
        tracks, queries = synth_qa_benchmark(n_items=3, captions_per_video=6)
        config = disk_config(tmp_path, tracks, queries)
        records, _ = run_ask(config, llm=ScriptedQaBackend())
        records[1]["choice"] = choice
        preds = tmp_path / "qa_preds.jsonl"
        preds.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        where = f"in {re.escape(str(preds))} at line 2"
        with pytest.raises(MetricsError, match=f"choice must be a whole number.*{where}"):
            run_eval(config, preds, "qa")


@pytest.fixture(scope="module")
def eval_corpus(tmp_path_factory):
    """A config over QA and NLQ queries that all have ground truth, the
    qids of each task, and a path for predictions."""
    tmp = tmp_path_factory.mktemp("eval")
    qa_tracks, qa_queries = synth_qa_benchmark(n_items=5, captions_per_video=4)
    nlq_tracks, nlq_queries = synth_nlq_benchmark(n_items=5, captions_per_video=4)
    config = disk_config(tmp, {**qa_tracks, **nlq_tracks}, qa_queries + nlq_queries)
    qids = {"qa": [q.qid for q in qa_queries], "nlq": [q.qid for q in nlq_queries]}
    return config, qids, tmp / "preds.jsonl"


# values json reads but no number field accepts: bools, NaN, infinities,
# integers too large for a float, strings
ODD_SCALAR = st.sampled_from(
    [True, None, math.nan, math.inf, -math.inf, 10**400, -(10**400), "inf", "x"]
)
ANY_SCALAR = st.one_of(ODD_SCALAR, st.integers(-3, 9), st.floats(-1e3, 1e3))
ANY_VALUE = st.one_of(ANY_SCALAR, st.lists(ANY_SCALAR, max_size=3))
# a pair with one end odd reads that end; any value also tries other shapes
ANY_WINDOW = st.one_of(
    st.tuples(ANY_SCALAR, st.floats(0, 500)).map(list),
    st.tuples(st.floats(0, 500), ANY_SCALAR).map(list),
    ANY_VALUE,
)
VALID_WINDOW = st.tuples(st.floats(0, 500), st.floats(0.001, 100)).map(
    lambda p: [p[0], p[0] + p[1]]
)
# qids that are not text; a string or number qid is read as text and, when
# no query has it, fails as an unknown qid with no line
NOT_TEXT = st.one_of(
    st.sampled_from([None, True, False]),
    st.lists(ANY_SCALAR, max_size=2),
    st.dictionaries(st.text(max_size=3), ANY_SCALAR, max_size=2),
)
ODD_FIELDS = {
    "qa": {
        "qid": NOT_TEXT,
        "choice": ANY_VALUE,
        "confidence": ANY_VALUE,
        "explanation": ANY_VALUE,
    },
    "nlq": {
        "qid": NOT_TEXT,
        "predicted_window": ANY_WINDOW,
        "candidates": st.one_of(st.lists(ANY_WINDOW, max_size=2), ANY_VALUE),
        "confidence": ANY_VALUE,
        "explanation": ANY_VALUE,
    },
}


def valid_rows(task, qids, min_size=0):
    """Rows eval scores: distinct known qids and well-formed fields."""
    answer = (
        {"choice": st.integers(0, 4)}
        if task == "qa"
        else {"predicted_window": VALID_WINDOW, "candidates": st.lists(VALID_WINDOW)}
    )
    row = st.fixed_dictionaries({"confidence": st.integers(1, 3), **answer})
    return st.lists(st.sampled_from(qids), min_size=min_size, unique=True).flatmap(
        lambda chosen: st.tuples(*[row.map(lambda r, q=q: {"qid": q, **r}) for q in chosen])
    )


def write_rows(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), "utf-8")


@pytest.mark.parametrize("task", ["qa", "nlq"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_eval_scores_or_names_file_and_line(eval_corpus, task, data):
    # one field of one row gets any value; the rows around it are valid, so
    # eval reads that value
    config, qids, path = eval_corpus
    rows = list(data.draw(valid_rows(task, qids[task], min_size=1)))
    odd = data.draw(st.integers(0, len(rows) - 1))
    field = data.draw(st.sampled_from(sorted(ODD_FIELDS[task])))
    rows[odd][field] = data.draw(ODD_FIELDS[task][field])
    write_rows(path, rows)
    try:
        run_eval(config, path, task)
    except MetricsError as exc:
        assert f"in {path} at line {odd + 1}" in str(exc)


@pytest.mark.parametrize("task", ["qa", "nlq"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_eval_scores_independent_of_row_order(eval_corpus, task, data):
    config, qids, path = eval_corpus
    rows = list(data.draw(valid_rows(task, qids[task])))
    write_rows(path, rows)
    before = json.dumps(run_eval(config, path, task))
    write_rows(path, data.draw(st.permutations(rows)))
    assert json.dumps(run_eval(config, path, task)) == before


# one query with ground truth per task, and the keys of each task's prediction
SHAPE_QUERIES = {
    "q1": Query("q1", "v1", QueryKind.QA, "what?", tuple("abcde"), gt_answer_idx=2),
    "n1": Query("n1", "v1", QueryKind.NLQ, "when?", gt_window=(1.0, 2.0)),
}
PREDICTION_KEYS = {
    "qa": {"qid", "choice", "confidence", "explanation"},
    "nlq": {"qid", "predicted_window", "candidates", "na", "confidence", "explanation"},
}


@settings(max_examples=400)
@given(data=st.data())
def test_prediction_loads_as_its_task_or_fails_at_its_line(tmp_path_factory, data):
    task = data.draw(st.sampled_from(["qa", "nlq"]))
    row = data.draw(
        known_key_rows(
            {
                "qid": ["q1" if task == "qa" else "n1"],
                "choice": [0, 3],
                "confidence": [1, 3],
                "explanation": ["x", 5],
                "predicted_window": [[0, 1.5]],
                "candidates": [[], [[0, 1.5], [2, 3]]],
                "na": [True, False],
            }
        )
    )
    assert_loads_as_its_shape(
        lambda path: load_predictions(path, QueryKind(task), SHAPE_QUERIES),
        tmp_path_factory.mktemp("predictions") / "preds.jsonl",
        row,
        PREDICTION_KEYS,
        lambda loaded: task,
    )
