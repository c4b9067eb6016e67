from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from egolog.corpus import (
    Caption,
    CaptionTrack,
    Query,
    QueryKind,
    load_captions,
    load_queries,
    normalize_seconds,
    save_captions,
)
from egolog.errors import CorpusError

from helpers import make_track


class TestCaption:
    def test_valid(self):
        cap = Caption("v1", 0.0, 2.0, "C opens the door")
        assert cap.end_s - cap.start_s == 2.0
        assert cap.interval == (0.0, 2.0)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="inverted interval"):
            Caption("v1", 5.0, 5.0, "x y z")
        with pytest.raises(ValueError, match="inverted interval"):
            Caption("v1", 6.0, 5.0, "x y z")

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Caption("v1", -1.0, 2.0, "x y z")

    def test_newline_rejected(self):
        with pytest.raises(ValueError, match="newline"):
            Caption("v1", 0.0, 2.0, "a\nb")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Caption("v1", 0.0, 2.0, "   ")


class TestNormalizeSeconds:
    def test_millisecond_precision(self):
        assert normalize_seconds(1.23456) == 1.235
        assert normalize_seconds(1.0004) == 1.0
        assert normalize_seconds(10) == 10.0

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_idempotent(self, value):
        once = normalize_seconds(value)
        assert normalize_seconds(once) == once


class TestCaptionTrack:
    def test_build_sorts_and_defaults_bounds(self):
        caps = [
            Caption("v1", 4.0, 6.0, "later part"),
            Caption("v1", 0.0, 2.0, "early part"),
        ]
        track = CaptionTrack.build("v1", caps)
        assert [c.start_s for c in track.captions] == [0.0, 4.0]
        assert track.bounds == (0.0, 6.0)

    def test_explicit_bounds_must_contain_captions(self):
        caps = [Caption("v1", 0.0, 2.0, "early part")]
        with pytest.raises(ValueError, match="outside clip bounds"):
            CaptionTrack.build("v1", caps, 1.0, 10.0)

    def test_wrong_video_rejected(self):
        caps = [Caption("v2", 0.0, 2.0, "stray caption")]
        with pytest.raises(ValueError, match="inside track"):
            CaptionTrack.build("v1", caps, 0.0, 5.0)

    def test_unsorted_direct_construction_rejected(self):
        caps = (
            Caption("v1", 4.0, 6.0, "later part"),
            Caption("v1", 0.0, 2.0, "early part"),
        )
        with pytest.raises(ValueError, match="not sorted"):
            CaptionTrack("v1", 0.0, 6.0, caps)

    def test_replace_captions_keeps_bounds(self):
        track = make_track(n=3)
        replaced = track.replace_captions(track.captions[:1])
        assert replaced.bounds == track.bounds
        assert len(replaced.captions) == 1


class TestQuery:
    def test_qa_needs_five_choices(self):
        with pytest.raises(ValueError, match="expected 5 choices"):
            Query("q1", "v1", QueryKind.QA, "what?", choices=("a", "b", "c"))

    def test_qa_rejects_gt_window(self):
        with pytest.raises(ValueError, match="gt window"):
            Query(
                "q1",
                "v1",
                QueryKind.QA,
                "what?",
                choices=("a", "b", "c", "d", "e"),
                gt_window=(0.0, 1.0),
            )

    def test_nlq_rejects_choices(self):
        with pytest.raises(ValueError, match="choices"):
            Query("n1", "v1", QueryKind.NLQ, "when?", choices=("a",) * 5)

    def test_nlq_inverted_gt_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            Query("n1", "v1", QueryKind.NLQ, "when?", gt_window=(5.0, 5.0))

    def test_answer_idx_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Query(
                "q1",
                "v1",
                QueryKind.QA,
                "what?",
                choices=("a", "b", "c", "d", "e"),
                gt_answer_idx=5,
            )


class TestCaptionsIO:
    def test_round_trip_idempotent(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        rows = [
            {"video_id": "v1", "clip_start_s": 0, "clip_end_s": 30},
            {"video_id": "v1", "start_s": 3.0, "end_s": 5.5, "text": "C waters a plant"},
            {"video_id": "v1", "start_s": 0.0, "end_s": 2.0, "text": "C picks up a pot"},
            {"video_id": "v2", "start_s": 1.0, "end_s": 4.0, "text": "C sweeps the floor"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        tracks = load_captions(path)
        assert set(tracks) == {"v1", "v2"}
        assert tracks["v1"].bounds == (0.0, 30.0)
        assert tracks["v2"].bounds == (1.0, 4.0)
        assert [c.start_s for c in tracks["v1"].captions] == [0.0, 3.0]

        out1 = tmp_path / "one.jsonl"
        out2 = tmp_path / "two.jsonl"
        save_captions(tracks, out1)
        save_captions(load_captions(out1), out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert load_captions(out1) == tracks

    def test_timestamps_normalized_to_milliseconds(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        record = {"video_id": "v1", "start_s": 0.12349, "end_s": 2.00001, "text": "a b"}
        path.write_text(json.dumps(record) + "\n")
        (cap,) = load_captions(path)["v1"].captions
        assert cap.start_s == 0.123
        assert cap.end_s == 2.0

    def test_exact_duplicates_dropped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "caps.jsonl"
        record = {"video_id": "v1", "start_s": 0, "end_s": 2, "text": "a b"}
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        tracks = load_captions(path)
        assert len(tracks["v1"].captions) == 1
        assert "duplicate" in caplog.text

    def test_conflicting_bounds_rejected(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        rows = [
            {"video_id": "v1", "clip_start_s": 0, "clip_end_s": 30},
            {"video_id": "v1", "clip_start_s": 0, "clip_end_s": 40},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(CorpusError, match="conflicting bounds"):
            load_captions(path)

    def test_malformed_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text('{"video_id": "v1"\n')
        with pytest.raises(CorpusError) as excinfo:
            load_captions(path)
        assert str(path) in str(excinfo.value)
        assert "line 1" in str(excinfo.value)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_byte_names_path_and_line(self, tmp_path, newline):
        # 400 lines span several read chunks; the bad byte sits on line 301
        path = tmp_path / "caps.jsonl"
        rows = [
            f'{{"video_id": "v1", "start_s": {i}, "end_s": {i + 1}, "text": "C é"}}'
            for i in range(400)
        ]
        rows = [row.encode("utf-8") for row in rows]
        rows[300] = rows[300].replace(b"C", b"C \xff")
        path.write_bytes(newline.join(rows) + newline)
        where = f"not valid UTF-8 in {re.escape(str(path))} at line 301$"
        with pytest.raises(CorpusError, match=where):
            load_captions(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text(json.dumps({"video_id": "v1", "start_s": 0}) + "\n")
        with pytest.raises(CorpusError, match="missing fields"):
            load_captions(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_captions(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize(
        "line, message",
        [
            (
                '{"video_id": "v1", "start_s": true, "end_s": 2, "text": "C sits"}',
                "times must be numbers, got True",
            ),
            (
                '{"video_id": "v1", "start_s": 0, "end_s": 1e309, "text": "C sits"}',
                "non-finite time inf",
            ),
            (
                '{"video_id": "v1", "clip_start_s": 0, "clip_end_s": 1e309}',
                "non-finite time inf",
            ),
            (
                '{"video_id": "v1", "start_s": 0, "end_s": 1%s, "text": "C sits"}'
                % ("0" * 400),
                "integer too large for a float",
            ),
        ],
        ids=["bool-start", "overflowing-end", "overflowing-clip-bound", "huge-int-end"],
    )
    def test_coerced_times_rejected_with_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "caps.jsonl"
        first = {"video_id": "v1", "start_s": 0, "end_s": 2, "text": "C stands"}
        path.write_text(json.dumps(first) + "\n" + line + "\n")
        with pytest.raises(CorpusError, match=f"{message}.* at line 2"):
            load_captions(path)

    def test_newlines_in_text_normalized(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        record = {"video_id": "v1", "start_s": 0, "end_s": 2, "text": "a\nb"}
        path.write_text(json.dumps(record) + "\n")
        (cap,) = load_captions(path)["v1"].captions
        assert cap.text == "a b"


class TestQueriesIO:
    def test_load_both_kinds(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        rows = [
            {
                "qid": "q1",
                "video_id": "v1",
                "kind": "qa",
                "question": "What is stirred?",
                "choices": ["a", "b", "c", "d", "e"],
                "answer_idx": 2,
            },
            {
                "qid": "n1",
                "video_id": "v1",
                "kind": "nlq",
                "query": "When was the pot stirred?",
                "gt": [3.5, 9.25],
            },
            {"qid": "n2", "video_id": "v1", "kind": "nlq", "query": "Where is the cat?"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        queries = load_queries(path)
        assert [q.qid for q in queries] == ["q1", "n1", "n2"]
        assert queries[0].kind is QueryKind.QA
        assert queries[0].gt_answer_idx == 2
        assert queries[1].gt_window == (3.5, 9.25)
        assert queries[2].gt_window is None

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text(json.dumps({"qid": "x", "kind": "summary"}) + "\n")
        with pytest.raises(CorpusError, match="unknown kind"):
            load_queries(path)

    def test_duplicate_qid_rejected(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        row = {"qid": "n1", "video_id": "v1", "kind": "nlq", "query": "when?"}
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(CorpusError, match="duplicate qid"):
            load_queries(path)

    def test_undecodable_byte_names_path_and_line(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        row = {"qid": "n1", "video_id": "v1", "kind": "nlq", "query": "when?"}
        path.write_bytes(json.dumps(row).encode() + b'\n\n{"qid": "\xc3"}\n')
        where = f"not valid UTF-8 in {re.escape(str(path))} at line 3$"
        with pytest.raises(CorpusError, match=where):
            load_queries(path)

    def test_gt_normalized_to_milliseconds(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        row = {
            "qid": "n1",
            "video_id": "v1",
            "kind": "nlq",
            "query": "when?",
            "gt": [1.00049, 2.99951],
        }
        path.write_text(json.dumps(row) + "\n")
        (query,) = load_queries(path)
        assert query.gt_window == (1.0, 3.0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"kind": "qa", "answer_idx": 2.9', "answer_idx must be a whole number, got 2.9"),
            ('"kind": "qa", "answer_idx": true', "answer_idx must be a whole number, got True"),
            ('"kind": "nlq", "gt": [true, 5]', "times must be numbers, got True"),
            ('"kind": "nlq", "gt": [1, NaN]', "non-finite time nan"),
        ],
        ids=["fractional-answer", "bool-answer", "bool-gt", "nan-gt"],
    )
    def test_coerced_values_rejected_with_path_and_line(self, tmp_path, fields, message):
        path = tmp_path / "queries.jsonl"
        first = {"qid": "n1", "video_id": "v1", "kind": "nlq", "query": "when?"}
        second = (
            '{"qid": "q2", "video_id": "v1", "question": "what?", "query": "when?", '
            + ('"choices": ["a", "b", "c", "d", "e"], ' if '"qa"' in fields else "")
            + fields
            + "}"
        )
        path.write_text(json.dumps(first) + "\n" + second + "\n")
        with pytest.raises(CorpusError, match=f"{message}.* at line 2"):
            load_queries(path)
