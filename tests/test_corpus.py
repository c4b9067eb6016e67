from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egolog.corpus import (
    Caption,
    CaptionTrack,
    Query,
    QueryKind,
    iter_jsonl,
    load_captions,
    load_queries,
    normalize_seconds,
    save_captions,
)
from egolog.errors import CorpusError
from egolog.llm import write_transcripts
from egolog.reasoner import caption_log_lines

from helpers import UNREADABLE, make_track, needs_unreadable


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

    def test_bounds_record_without_captions_warned_and_dropped(self, tmp_path, caplog):
        path = tmp_path / "caps.jsonl"
        rows = [
            {"video_id": "v1", "start_s": 0, "end_s": 2, "text": "C stands"},
            {"video_id": "v2", "clip_start_s": 0, "clip_end_s": 9},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        tracks = load_captions(path)
        assert list(tracks) == ["v1"]
        assert "bounds record for video 'v2' has no captions" in caplog.text

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

    @pytest.mark.parametrize("start", [-0.0, -0.0004])
    def test_negative_zero_start_loads_as_zero(self, tmp_path, start):
        path = tmp_path / "caps.jsonl"
        rows = [
            {"video_id": "v1", "clip_start_s": start, "clip_end_s": 2},
            {"video_id": "v1", "start_s": start, "end_s": 2, "text": "C opens the drawer"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        track = load_captions(path)["v1"]
        (cap,) = track.captions
        assert math.copysign(1, cap.start_s) == 1
        assert math.copysign(1, track.clip_start_s) == 1
        assert caption_log_lines(track) == ["0-2: C opens the drawer"]
        save_captions({"v1": track}, tmp_path / "out.jsonl")
        assert "-0" not in (tmp_path / "out.jsonl").read_text()

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text(json.dumps({"video_id": "v1", "start_s": 0}) + "\n")
        with pytest.raises(CorpusError, match="missing fields"):
            load_captions(path)

    def test_missing_fields_listed_in_sorted_order(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text(json.dumps({"video_id": "v1", "start_s": 0}) + "\n")
        with pytest.raises(CorpusError, match=re.escape("fields ['end_s', 'text'] in")):
            load_captions(path)

    def test_caption_outside_its_bounds_record_names_file(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        rows = [
            {"video_id": "v1", "clip_start_s": 0, "clip_end_s": 10},
            {"video_id": "v1", "start_s": 8, "end_s": 12, "text": "C closes the door"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(CorpusError, match="outside clip bounds") as excinfo:
            load_captions(path)
        assert str(path) in str(excinfo.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_captions(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize(
        "write",
        [lambda p: save_captions({"v1": make_track("v1")}, p), lambda p: write_transcripts(p, {})],
        ids=["save_captions", "write_transcripts"],
    )
    def test_failed_write_is_a_corpus_error(self, tmp_path, write):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep me\n")
        out = blocker / "out.jsonl"
        with pytest.raises(CorpusError, match=f"^cannot write {re.escape(str(out))}: "):
            write(out)
        assert blocker.read_text() == "keep me\n"

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        save_captions({"v1": make_track("v1")}, path)
        before = path.read_bytes()
        # the second value is not a track, so the write fails part-way
        with pytest.raises(AttributeError):
            save_captions({"v1": make_track("v1", n=3), "v2": None}, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["caps.jsonl"]

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
                '{"video_id": "v1", "start_s": "1_0", "end_s": 12, "text": "C sits"}',
                re.escape("times must be numbers, got '1_0'"),
            ),
            (
                '{"video_id": "v1", "start_s": 0, "end_s": " 12.5 ", "text": "C sits"}',
                re.escape("times must be numbers, got ' 12.5 '"),
            ),
            (
                '{"video_id": "v1", "start_s": null, "end_s": 2, "text": "C sits"}',
                "times must be numbers, got None",
            ),
            (
                '{"video_id": "v1", "clip_start_s": "0", "clip_end_s": 9}',
                "bad bounds record: times must be numbers, got '0'",
            ),
            (
                '{"video_id": "v1", "start_s": 0, "end_s": 1%s, "text": "C sits"}'
                % ("0" * 400),
                "integer too large for a float",
            ),
            ('["v1", 0, 2, "C sits"]', "record is not an object"),
            (
                '{"video_id": "v1", "start_s": 0, "end_s": 2, "text": null}',
                "text must be a string or a number, got null",
            ),
            (
                '{"video_id": "v1", "start_s": 0, "end_s": 2, "text": {"en": "C sits"}}',
                "text must be a string or a number, got an object",
            ),
            (
                '{"video_id": "v1", "start_s": 0, "end_s": 2, "text": true}',
                "text must be a string or a number, got a bool",
            ),
            (
                '{"video_id": null, "start_s": 0, "end_s": 2, "text": "C sits"}',
                "video_id must be a string or a number, got null",
            ),
            (
                '{"video_id": ["v1"], "start_s": 0, "end_s": 2, "text": "C sits"}',
                "video_id must be a string or a number, got a list",
            ),
            (
                '{"video_id": null, "clip_start_s": 0, "clip_end_s": 9}',
                "bad bounds record: video_id must be a string or a number, got null",
            ),
            (
                '{"video_id": "v1", "clip_start_s": 5, "clip_end_s": 5}',
                re.escape("inverted clip bounds (5.0, 5.0)"),
            ),
            (
                '{"video_id": "", "start_s": 0, "end_s": 2, "text": "C sits"}',
                "caption video_id must be non-empty",
            ),
            (
                '{"video_id": "v1", "clip_start_s": 0, "clip_end_s": 9, '
                '"start_s": 0, "end_s": 2, "text": "C sits"}',
                "record has both caption and bounds fields",
            ),
            (
                '{"video_id": "v1", "clip_start_s": 0, "clip_end_s": 9, "text": "C sits"}',
                re.escape("record mixes caption and bounds fields: ['text']"),
            ),
            (
                '{"video_id": "v1", "start_s": 0, "end_s": 2, "text": "C sits", '
                '"clip_end_s": 5}',
                re.escape("record mixes caption and bounds fields: ['clip_end_s']"),
            ),
            (
                '{"video_id": 7, "start_s": 0, "end_s": 2, "text": null}',
                "text must be a string or a number, got null",
            ),
            (
                '{"video_id": true, "start_s": 0, "end_s": 2, "text": 5}',
                "video_id must be a string or a number, got a bool",
            ),
            (
                '{"video_id": "v1", "start_s": 0, "end_s": 2, "text": ["C sits"], '
                '"source": "x"}',
                "text must be a string or a number, got a list",
            ),
        ],
        ids=[
            "bool-start",
            "overflowing-end",
            "overflowing-clip-bound",
            "string-start",
            "padded-string-end",
            "null-start",
            "string-clip-bound",
            "huge-int-end",
            "json-array",
            "null-text",
            "object-text",
            "bool-text",
            "null-video",
            "list-video",
            "null-bounds-video",
            "empty-clip-bounds",
            "empty-video",
            "caption-and-bounds",
            "bounds-with-text",
            "caption-with-a-bound",
            "int-video-null-text",
            "bool-video-numeric-text",
            "extra-key-list-text",
        ],
    )
    def test_coerced_times_rejected_with_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "caps.jsonl"
        first = {"video_id": "v1", "start_s": 0, "end_s": 2, "text": "C stands"}
        path.write_text(json.dumps(first) + "\n" + line + "\n")
        with pytest.raises(CorpusError, match=f"{message}.* at line 2"):
            load_captions(path)

    def test_keys_of_no_record_shape_load(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        rows = [
            {"video_id": "v1", "start_s": 0, "end_s": 2, "text": "C sits", "source": "x"},
            {"video_id": "v1", "clip_start_s": 0, "clip_end_s": 9, "note": 1},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        track = load_captions(path)["v1"]
        assert track.bounds == (0.0, 9.0)
        assert [c.text for c in track.captions] == ["C sits"]

    @pytest.mark.parametrize(
        "line, video_id, text",
        [
            ('{"video_id": 7, "start_s": 0, "end_s": 2, "text": "C sits"}', "7", "C sits"),
            ('{"video_id": "v1", "start_s": 0, "end_s": 2, "text": 12}', "v1", "12"),
            ('{"video_id": "v1", "start_s": 0, "end_s": 2, "text": 2.5}', "v1", "2.5"),
            (
                '{"video_id": 7.0, "start_s": 0, "end_s": 2, "text": " C sits ", '
                '"source": "x"}',
                "7.0",
                "C sits",
            ),
        ],
        ids=["int-video", "int-text", "float-text", "extra-key"],
    )
    def test_caption_values_that_are_not_strings_load_as_text(
        self, tmp_path, line, video_id, text
    ):
        path = tmp_path / "caps.jsonl"
        path.write_text(line + "\n")
        ((vid, track),) = load_captions(path).items()
        assert vid == video_id
        assert [(c.video_id, c.text) for c in track.captions] == [(video_id, text)]

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="queries file not found"):
            load_queries(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize(
        "choices", [None, '"abcde"', "null"], ids=["absent", "string", "null"]
    )
    def test_qa_without_a_choices_list_rejected(self, tmp_path, choices):
        path = tmp_path / "queries.jsonl"
        row = '{"qid": "q1", "video_id": "v1", "kind": "qa", "question": "what?"'
        row += "}" if choices is None else f', "choices": {choices}}}'
        path.write_text(row + "\n")
        message = "expected 5 choices for QA query 'q1', got none in .* at line 1"
        with pytest.raises(CorpusError, match=message):
            load_queries(path)

    def test_null_fields_of_the_other_kind_count_as_absent(self, tmp_path):
        # a unified export writes every field on every row, null where unused
        path = tmp_path / "queries.jsonl"
        rows = [
            {
                "qid": "q1",
                "video_id": "v1",
                "kind": "qa",
                "question": "What is stirred?",
                "choices": ["a", "b", "c", "d", "e"],
                "answer_idx": 2,
                "query": None,
                "gt": None,
            },
            {
                "qid": "n1",
                "video_id": "v1",
                "kind": "nlq",
                "question": None,
                "choices": None,
                "answer_idx": None,
                "query": "When was the pot stirred?",
                "gt": [3.5, 9.25],
            },
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        qa, nlq = load_queries(path)
        assert (qa.choices, qa.gt_answer_idx, qa.gt_window) == (tuple("abcde"), 2, None)
        assert (nlq.text, nlq.choices, nlq.gt_answer_idx) == ("When was the pot stirred?", None, None)
        assert nlq.gt_window == (3.5, 9.25)

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
            ('"kind": "qa", "answer_idx": "3"', "answer_idx must be a whole number, got '3'"),
            ('"kind": "nlq", "gt": [true, 5]', "times must be numbers, got True"),
            ('"kind": "nlq", "gt": ["1", 5]', "times must be numbers, got '1'"),
            ('"kind": "nlq", "gt": [1, NaN]', "non-finite time nan"),
            ('"kind": "nlq", "choices": ["a"]', "NLQ query 'q2' cannot carry choices"),
            ('"kind": "nlq", "gt": [1, 2, 3]', re.escape("'q2' must be [start, end]")),
            ('"kind": "nlq", "gt": 5', re.escape("'q2' must be [start, end]")),
            ('"kind": "qa", "qid": null', "qid must be a string or a number, got null"),
            ('"kind": "nlq", "qid": {"id": 2}', "qid must be a string or a number, got an"),
            ('"kind": "nlq", "video_id": null', "video_id must be a string or a number"),
            ('"kind": "qa", "question": null', "question must be a string or a number"),
            ('"kind": "nlq", "query": null', "query must be a string or a number"),
            ('"kind": "nlq", "query": ["when?"]', "query must be a string or a number, got a"),
            (
                '"kind": "qa", "choices": ["a", "b", "c", "d", null]',
                "a choice must be a string or a number, got null",
            ),
            ('"kind": "nlq", "video": "v1"', "query 'q2' has empty video_id"),
            ('"kind": "qa", "video_id": ""', "query 'q2' has empty video_id"),
            ('"kind": "nlq", "qid": ""', "query qid must be non-empty"),
            ('"kind": "nlq", "query": "   "', "query 'q2' has empty text"),
            ('"kind": "qa", "gt": [1, 2]', "QA query 'q2' cannot carry a gt window"),
            ('"kind": "nlq", "answer_idx": 1', "NLQ query 'q2' cannot carry an answer index"),
            # the row carries both "question" and "query"; its kind decides
            ('"kind": "qa"', "QA query 'q2' cannot carry NLQ query text"),
            ('"kind": "nlq"', "NLQ query 'q2' cannot carry a question"),
        ],
        ids=[
            "fractional-answer",
            "bool-answer",
            "string-answer",
            "bool-gt",
            "string-gt",
            "nan-gt",
            "nlq-choices",
            "gt-triple",
            "gt-scalar",
            "null-qid",
            "object-qid",
            "null-video",
            "null-question",
            "null-query",
            "list-query",
            "null-choice",
            "no-video",
            "empty-video",
            "empty-qid",
            "blank-query",
            "qa-gt",
            "nlq-answer-idx",
            "qa-query",
            "nlq-question",
        ],
    )
    def test_coerced_values_rejected_with_path_and_line(self, tmp_path, fields, message):
        path = tmp_path / "queries.jsonl"
        first = {"qid": "n1", "video_id": "v1", "kind": "nlq", "query": "when?"}
        # fields with a "video_id" key, or a misspelt "video" one, replace the
        # row's video_id
        video = "" if '"video' in fields else '"video_id": "v1", '
        second = (
            '{"qid": "q2", ' + video + '"question": "what?", "query": "when?", '
            + ('"choices": ["a", "b", "c", "d", "e"], ' if '"qa"' in fields else "")
            + fields
            + "}"
        )
        path.write_text(json.dumps(first) + "\n" + second + "\n")
        with pytest.raises(CorpusError, match=f"{message}.* at line 2"):
            load_queries(path)


def per_line_records(path):
    """Reference reader: text-mode lines, one json.loads each, as iter_jsonl yields."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
                record = json.loads(line)
            except UnicodeEncodeError:
                raise CorpusError("not valid UTF-8", path=str(path), line=lineno) from None
            except json.JSONDecodeError as exc:
                raise CorpusError(
                    f"malformed line: {exc.msg}", path=str(path), line=lineno
                ) from None
            if not isinstance(record, dict):
                raise CorpusError("record is not an object", path=str(path), line=lineno)
            yield lineno, record


def outcome(records):
    """What a reader yields before it stops, and the error it stops on."""
    got = []
    try:
        for item in records:
            got.append(item)
    except CorpusError as exc:
        return repr(got), str(exc)
    return repr(got), None  # repr, so that NaN values compare equal


# line contents: blank, padded, two values on one line, one value over two
# lines ('{"a":' then ' 2}', or an open string), non-objects, NaN, a BOM,
# and bytes that are not UTF-8
JSONL_PIECES = [
    b"",
    b"   ",
    b"\t \x0c",
    "\u3000\x1c".encode(),
    b'{"a": 1}',
    b'{"video_id": "v1", "start_s": 0.5, "text": "C \xc3\xa9"}',
    b'  {"a": [1, 2]}  ',
    b'\t{"b": {"c": null}}',
    b'{"a": 1}{"b": 2}',
    b'{"a": 1} {"b": 2}',
    b'{"a":',
    b" 2}",
    b'{"a": "open',
    b'"',
    b"[1, 2]",
    b"3",
    b'"text"',
    b"null",
    b"NaN",
    b'{"a": NaN, "b": -Infinity}',
    b"\xef\xbb\xbf{}",
    b'{"a": "\xff"}',
    b"\xc3",
]
LINE_ENDS = [b"\n", b"\r\n", b"\r", b""]


class TestIterJsonl:
    @given(st.lists(st.tuples(st.sampled_from(JSONL_PIECES), st.sampled_from(LINE_ENDS))))
    @settings(max_examples=400)
    def test_matches_the_per_line_reader(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("jsonl") / "rows.jsonl"
        path.write_bytes(b"".join(content + end for content, end in lines))
        assert outcome(iter_jsonl(path)) == outcome(per_line_records(path))

    def test_malformed_line_before_an_undecodable_byte_is_reported(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        row = b'{"video_id": "v1", "start_s": 0, "end_s": 2, "text": "C sits"}'
        lines = [row, b'{"video_id": "v1",', row, row, row.replace(b"sits", b"\xff"), row]
        path.write_bytes(b"\n".join(lines) + b"\n")
        where = f"in {re.escape(str(path))} at line 2$"
        with pytest.raises(CorpusError, match=f"^malformed line: .*{where}"):
            load_captions(path)

    @pytest.mark.parametrize("loader", [load_captions, load_queries])
    def test_deeply_nested_line_is_malformed(self, tmp_path, loader):
        path = tmp_path / "rows.jsonl"
        path.write_text("\n" + "[" * 100_000 + "]" * 100_000 + "\n")
        where = f"in {re.escape(str(path))} at line 2$"
        with pytest.raises(CorpusError, match=f"^malformed line: nested too deeply {where}"):
            loader(path)

    @pytest.mark.parametrize("loader", [load_captions, load_queries])
    def test_directory_is_named(self, tmp_path, loader):
        with pytest.raises(CorpusError, match=f"^cannot read {re.escape(str(tmp_path))}: "):
            loader(tmp_path)

    @needs_unreadable
    @pytest.mark.parametrize("loader", [load_captions, load_queries])
    def test_unreadable_file_is_named(self, loader):
        with pytest.raises(CorpusError, match=f"^cannot read {UNREADABLE}: "):
            loader(UNREADABLE)
