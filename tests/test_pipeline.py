from __future__ import annotations

import json
import re

import numpy as np
import pytest

from egolog.config import load_config
from egolog.corpus import Query, QueryKind
from egolog.errors import BackendProtocolError, ConfigError, MetricsError
from egolog.llm import ReplayBackend, write_transcripts
from egolog.pipeline import (
    build_embedder,
    build_llm,
    run_ask,
    run_digest,
    run_eval,
    run_gen_refine_data,
    run_localize,
)
from egolog.similarity import CachedEmbedder, MockEmbedder

from helpers import (
    RecordingBackend,
    ScriptedNlqBackend,
    ScriptedQaBackend,
    synth_nlq_benchmark,
    synth_qa_benchmark,
    write_config,
    write_corpus,
)


IDENTITY_DIGEST = "[digest]\nrelevance_threshold = -1\nadjacency_threshold = 2.0\n"


def disk_config(tmp_path, tracks, queries, extra="", extra_paths="", overrides=None):
    captions, qpath = write_corpus(tmp_path, tracks, queries)
    body = (
        "[run]\nseed = 2024\nruns = 3\n"
        f"[paths]\ncaptions = {captions.name}\nqueries = {qpath.name}\n"
        + extra_paths
        + extra
    )
    return load_config(write_config(tmp_path, body), overrides or {})


class TestBuildBackends:
    def test_mock_embedder_from_config(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=1)
        config = disk_config(tmp_path, tracks, queries, "[embedder]\ndim = 32\n")
        embedder = build_embedder(config)
        assert isinstance(embedder, CachedEmbedder)
        assert isinstance(embedder.backend, MockEmbedder)
        assert len(embedder.embed_texts(["some text"])[0]) == 32

    def test_mock_embedder_ignores_pipeline_seed(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=1)
        a = build_embedder(disk_config(tmp_path, tracks, queries))
        b = build_embedder(
            disk_config(tmp_path, tracks, queries, overrides={"run.seed": "999"})
        )
        assert np.array_equal(a.embed_texts(["same text"]), b.embed_texts(["same text"]))

    def test_replay_llm_requires_transcripts(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=1)
        config = disk_config(tmp_path, tracks, queries)
        with pytest.raises(ConfigError, match="paths.transcripts"):
            build_llm(config)

    def test_replay_llm_from_file(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=1)
        transcripts = tmp_path / "transcripts.json"
        write_transcripts(transcripts, {})
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
        recorder = RecordingBackend(ScriptedNlqBackend())
        config = disk_config(tmp_path, tracks, queries)
        live_records, _ = run_localize(config, llm=recorder)
        transcripts = tmp_path / "transcripts.json"
        write_transcripts(transcripts, recorder.transcripts)
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
        captions, _ = write_corpus(tmp_path, tracks, [])
        config = load_config(
            write_config(
                tmp_path, f"[run]\nseed = 1\n[paths]\ncaptions = {captions.name}\n"
            )
        )
        digested, stats, failures = run_digest(config)
        assert set(digested) == set(tracks)
        assert failures == []


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
        assert report.task == "nlq"
        assert report.na_ratio == 0.0
        assert report.overlap == 1.0
        assert report.recall_at_1[0.3] == 1.0
        assert report.r1_mean == 1.0

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

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            (_at(0, lambda row: {"qid": row["qid"]}), 1, "has no 'predicted_window'"),
            (_at(1, lambda row: {**row, "confidence": "high"}), 2, "invalid literal"),
            (_at(2, lambda row: {"predicted_window": [0, 1]}), 3, "has no 'qid'"),
            (_at(3, lambda row: {**row, "candidates": [[5, 1]]}), 4, "inverted"),
            (_at(4, lambda row: {**row, "predicted_window": "soon"}), 5, "could not"),
            (_at(4, lambda row: {**row, "predicted_window": [9, 2]}), 5, "inverted"),
            (lambda rows: rows + rows[:1], 6, "duplicate prediction"),
        ],
        ids=[
            "no-window",
            "word-confidence",
            "no-qid",
            "inverted-candidate",
            "text-window",
            "inverted-window",
            "duplicate",
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, edit, line, message):
        config, preds = self.localize_and_eval(tmp_path)
        rows = [json.loads(text) for text in preds.read_text("utf-8").splitlines()]
        preds.write_text("".join(json.dumps(r) + "\n" for r in edit(rows)), "utf-8")
        where = f"in {re.escape(str(preds))} at line {line}"
        with pytest.raises(MetricsError, match=f"{message}.*{where}"):
            run_eval(config, preds, "nlq")

    def test_wrong_task_rejected(self, tmp_path):
        # nlq queries have no answer index, so scoring them as qa fails
        config, preds = self.localize_and_eval(tmp_path)
        with pytest.raises(MetricsError, match="without ground truth"):
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
        assert report.qa_accuracy == 1.0
        assert report.per_confidence[3].qa_accuracy == 1.0
