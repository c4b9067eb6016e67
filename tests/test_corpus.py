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
    load_clip_bounds,
    load_queries,
    normalize_seconds,
    save_captions,
    write_json,
    write_jsonl,
)
from egolog.errors import CorpusError
from egolog.reasoner import caption_log_lines

from helpers import (
    UNREADABLE,
    assert_loads_as_its_shape,
    known_key_rows,
    make_track,
    needs_unreadable,
)


# captions rows that fail, each as the second line of a file, with its message
BAD_CAPTION_ROWS = {
    "bool-start": (
        '{"video_id": "v1", "start_s": true, "end_s": 2, "text": "C sits"}',
        "times must be numbers, got True",
    ),
    "overflowing-end": (
        '{"video_id": "v1", "start_s": 0, "end_s": 1e309, "text": "C sits"}',
        "non-finite time inf",
    ),
    "overflowing-clip-bound": (
        '{"video_id": "v1", "clip_start_s": 0, "clip_end_s": 1e309}',
        "non-finite time inf",
    ),
    "string-start": (
        '{"video_id": "v1", "start_s": "1_0", "end_s": 12, "text": "C sits"}',
        re.escape("times must be numbers, got '1_0'"),
    ),
    "padded-string-end": (
        '{"video_id": "v1", "start_s": 0, "end_s": " 12.5 ", "text": "C sits"}',
        re.escape("times must be numbers, got ' 12.5 '"),
    ),
    "null-start": (
        '{"video_id": "v1", "start_s": null, "end_s": 2, "text": "C sits"}',
        "times must be numbers, got None",
    ),
    "string-clip-bound": (
        '{"video_id": "v1", "clip_start_s": "0", "clip_end_s": 9}',
        "bad bounds record: times must be numbers, got '0'",
    ),
    "huge-int-end": (
        '{"video_id": "v1", "start_s": 0, "end_s": 1%s, "text": "C sits"}'
        % ("0" * 400),
        "integer too large for a float",
    ),
    "json-array": ('["v1", 0, 2, "C sits"]', "record is not an object"),
    "null-text": (
        '{"video_id": "v1", "start_s": 0, "end_s": 2, "text": null}',
        "text must be a string or a number, got null",
    ),
    "object-text": (
        '{"video_id": "v1", "start_s": 0, "end_s": 2, "text": {"en": "C sits"}}',
        "text must be a string or a number, got an object",
    ),
    "bool-text": (
        '{"video_id": "v1", "start_s": 0, "end_s": 2, "text": true}',
        "text must be a string or a number, got a bool",
    ),
    "null-video": (
        '{"video_id": null, "start_s": 0, "end_s": 2, "text": "C sits"}',
        "video_id must be a string or a number, got null",
    ),
    "list-video": (
        '{"video_id": ["v1"], "start_s": 0, "end_s": 2, "text": "C sits"}',
        "video_id must be a string or a number, got a list",
    ),
    "null-bounds-video": (
        '{"video_id": null, "clip_start_s": 0, "clip_end_s": 9}',
        "bad bounds record: video_id must be a string or a number, got null",
    ),
    "empty-clip-bounds": (
        '{"video_id": "v1", "clip_start_s": 5, "clip_end_s": 5}',
        re.escape("inverted clip bounds (5.0, 5.0)"),
    ),
    "empty-video": (
        '{"video_id": "", "start_s": 0, "end_s": 2, "text": "C sits"}',
        "caption video_id must be non-empty",
    ),
    "caption-and-bounds": (
        '{"video_id": "v1", "clip_start_s": 0, "clip_end_s": 9, '
        '"start_s": 0, "end_s": 2, "text": "C sits"}',
        re.escape("record mixes caption and bounds fields: ['end_s', 'start_s', 'text']"),
    ),
    "bounds-with-text": (
        '{"video_id": "v1", "clip_start_s": 0, "clip_end_s": 9, "text": "C sits"}',
        re.escape("record mixes caption and bounds fields: ['text']"),
    ),
    "caption-with-a-bound": (
        '{"video_id": "v1", "start_s": 0, "end_s": 2, "text": "C sits", '
        '"clip_end_s": 5}',
        re.escape("record mixes caption and bounds fields: ['clip_end_s']"),
    ),
    "int-video-null-text": (
        '{"video_id": 7, "start_s": 0, "end_s": 2, "text": null}',
        "text must be a string or a number, got null",
    ),
    "bool-video-numeric-text": (
        '{"video_id": true, "start_s": 0, "end_s": 2, "text": 5}',
        "video_id must be a string or a number, got a bool",
    ),
    "extra-key-list-text": (
        '{"video_id": "v1", "start_s": 0, "end_s": 2, "text": ["C sits"], '
        '"source": "x"}',
        "text must be a string or a number, got a list",
    ),
    "negative-clip-start": (
        '{"video_id": "v1", "clip_start_s": -5, "clip_end_s": 5}',
        re.escape("bad bounds record: clip_start_s must be non-negative, got -5.0"),
    ),
    "empty-bounds-video": (
        '{"video_id": "", "clip_start_s": 0, "clip_end_s": 9}',
        "bad bounds record: video_id must be non-empty",
    ),
}


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

    def test_empty_clip_bounds_rejected(self):
        with pytest.raises(ValueError, match="invalid clip bounds"):
            CaptionTrack("v1", 5.0, 5.0, ())

    def test_build_without_captions_needs_bounds(self):
        with pytest.raises(ValueError, match="cannot infer clip bounds"):
            CaptionTrack.build("v1", [])


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

    def test_nlq_rejects_answer_idx(self):
        with pytest.raises(ValueError, match="cannot carry an answer index"):
            Query("n1", "v1", QueryKind.NLQ, "when?", gt_answer_idx=0)

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

    def test_bounds_record_without_captions_is_an_empty_track(self, tmp_path, caplog):
        path = tmp_path / "caps.jsonl"
        rows = [
            {"video_id": "v2", "clip_start_s": 0, "clip_end_s": 9},
            {"video_id": "v1", "start_s": 0, "end_s": 2, "text": "C stands"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        tracks = load_captions(path)
        # videos with captions first, in their order, then the empty ones
        assert list(tracks) == ["v1", "v2"]
        assert tracks["v2"] == CaptionTrack("v2", 0.0, 9.0, ())
        assert caplog.text == ""

    @given(
        st.dictionaries(
            st.sampled_from(["v1", "v2", "v3", "v4"]),
            st.tuples(st.sampled_from([(0.0, 9.0), (1.5, 4.0)]), st.integers(0, 3)),
            max_size=4,
        )
    )
    @settings(max_examples=100)
    def test_save_then_load_keeps_every_track(self, tmp_path_factory, spec):
        tracks = {
            vid: CaptionTrack.build(
                vid,
                [Caption(vid, lo + i, lo + i + 0.5, f"C does {i}") for i in range(n)],
                lo,
                hi,
            )
            for vid, ((lo, hi), n) in spec.items()
        }
        path = tmp_path_factory.mktemp("captions") / "caps.jsonl"
        save_captions(tracks, path)
        assert load_captions(path) == tracks
        assert read_outcome(load_clip_bounds, path) == read_outcome(track_bounds, path)

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
        [lambda p: save_captions({"v1": make_track("v1")}, p), lambda p: write_json(p, {})],
        ids=["save_captions", "write_json"],
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
        "line, message", BAD_CAPTION_ROWS.values(), ids=list(BAD_CAPTION_ROWS)
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

    def test_null_field_of_the_other_shape_counts_as_absent(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        rows = [
            {"video_id": "v1", "start_s": 1, "end_s": 2, "text": "C sits", "clip_end_s": None},
            {"video_id": "v1", "clip_start_s": 0, "clip_end_s": 9, "text": None},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        track = load_captions(path)["v1"]
        assert track.bounds == (0.0, 9.0)
        assert [c.text for c in track.captions] == ["C sits"]

    @pytest.mark.parametrize(
        "load, read",
        [(load_captions, lambda track: track.bounds), (load_clip_bounds, lambda b: b)],
        ids=["load_captions", "load_clip_bounds"],
    )
    def test_null_keys_of_the_other_shape_do_not_pick_it(self, tmp_path, load, read):
        # a unified export writes every key on every row, null where unused
        unused_clip = {"clip_start_s": None, "clip_end_s": None}
        unused_caption = {"start_s": None, "end_s": None, "text": None}
        rows = [
            {"video_id": "v1", "start_s": 1, "end_s": 2, "text": "C sits", **unused_clip},
            {"video_id": "v1", "clip_start_s": 0, "clip_end_s": 9, **unused_caption},
            {"video_id": "v2", "start_s": 3, "end_s": 5, "text": "C stands", **unused_clip},
        ]
        path = tmp_path / "caps.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        loaded = load(path)
        assert {vid: read(value) for vid, value in loaded.items()} == {
            "v1": (0.0, 9.0),
            "v2": (3.0, 5.0),
        }
        # one non-null bounds-only key makes the row a bounds record
        mixed = {"video_id": "v1", "start_s": 1, "end_s": 2, "text": "C sits"}
        path.write_text(json.dumps(mixed | {"clip_start_s": 0, "clip_end_s": None}) + "\n")
        message = "record mixes caption and bounds fields: ['end_s', 'start_s', 'text']"
        with pytest.raises(CorpusError, match=re.escape(message)):
            load(path)

    @given(
        known_key_rows(
            {
                "video_id": ["v1", 7],
                "start_s": [0, 1.5],
                "end_s": [2, 3],
                "text": ["C sits"],
                "clip_start_s": [0],
                "clip_end_s": [5, 9],
            }
        )
    )
    @settings(max_examples=400)
    def test_row_loads_as_its_shape_or_fails_at_its_line(self, tmp_path_factory, row):
        # a lone bounds record loads as an empty track
        assert_loads_as_its_shape(
            load_captions,
            tmp_path_factory.mktemp("captions") / "caps.jsonl",
            row,
            {
                "caption": {"video_id", "start_s", "end_s", "text"},
                "bounds": {"video_id", "clip_start_s", "clip_end_s"},
            },
            lambda tracks: "caption" if any(t.captions for t in tracks.values()) else "bounds",
        )

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


def read_outcome(read, path):
    """The (video, value) pairs read returns for path, or its CorpusError's text."""
    try:
        return list(read(path).items()), None
    except CorpusError as exc:
        return None, str(exc)


def track_bounds(path):
    return {vid: track.bounds for vid, track in load_captions(path).items()}


GOOD_VIDEOS = ["v1", "v2", 7]
GOOD_SPANS = [(0, 2), (1, 3.5), (2.5, 4), (0.0004, 6), (4, 9), (3, 10), (-0.0004, 1)]
GOOD_TEXTS = ["C sits", "C opens a door", "a\nb", 5]
BAD_VIDEOS = ["", None, ["v1"]]
BAD_SPANS = [(2, 2), (3, 1), (-1, 2), (math.inf, 2), ("1", 2), (None, 2), (True, 3)]
BAD_TEXTS = ["  ", None, ["C"]]


def captions_row(caption, vid, span, text):
    """A caption row, or a bounds row over the same span."""
    if caption:
        return {"video_id": vid, "start_s": span[0], "end_s": span[1], "text": text}
    return {"video_id": vid, "clip_start_s": span[0], "clip_end_s": span[1]}


def edited(row, edit, key):
    """row as it is, with key set to 1, or without key."""
    if edit == "set":
        return {**row, key: 1}
    if edit == "drop":
        return {k: v for k, v in row.items() if k != key}
    return row


CAPTION_ROWS = st.builds(
    captions_row,
    st.just(True),
    st.sampled_from(GOOD_VIDEOS),
    st.sampled_from(GOOD_SPANS),
    st.sampled_from(GOOD_TEXTS),
)
BOUNDS_ROWS = st.builds(
    captions_row,
    st.just(False),
    st.sampled_from(GOOD_VIDEOS),
    st.sampled_from([(0, 10), (0, 4), (1, 9)]),
    st.none(),
)
# any field value, good or bad, and a key of the other shape or of no
# shape, or a field missing
ANY_ROWS = st.builds(
    edited,
    st.builds(
        captions_row,
        st.booleans(),
        st.sampled_from(GOOD_VIDEOS + BAD_VIDEOS),
        st.sampled_from(GOOD_SPANS + BAD_SPANS),
        st.sampled_from(GOOD_TEXTS + BAD_TEXTS),
    ),
    st.sampled_from(["keep", "set", "drop"]),
    st.sampled_from(["video_id", "end_s", "text", "clip_start_s", "clip_end_s", "source"]),
)
# one line of a generated captions file, mostly valid; None is a blank line
CAPTIONS_LINES = st.one_of(
    CAPTION_ROWS, CAPTION_ROWS, CAPTION_ROWS, CAPTION_ROWS, BOUNDS_ROWS, st.none(), ANY_ROWS
)


class TestClipBounds:
    @given(st.lists(CAPTIONS_LINES, max_size=10))
    @settings(max_examples=400)
    def test_matches_the_tracks_bounds(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("captions") / "caps.jsonl"
        path.write_text("".join(("" if r is None else json.dumps(r)) + "\n" for r in lines))
        assert read_outcome(load_clip_bounds, path) == read_outcome(track_bounds, path)

    @pytest.mark.parametrize(
        "line, message", BAD_CAPTION_ROWS.values(), ids=list(BAD_CAPTION_ROWS)
    )
    def test_bad_rows_rejected_as_load_captions_rejects_them(self, tmp_path, line, message):
        path = tmp_path / "caps.jsonl"
        first = {"video_id": "v1", "start_s": 0, "end_s": 2, "text": "C stands"}
        path.write_text(json.dumps(first) + "\n" + line + "\n")
        with pytest.raises(CorpusError, match=f"{message}.* at line 2"):
            load_clip_bounds(path)

    def test_hull_or_bounds_record_per_video(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        rows = [
            {"video_id": "v2", "start_s": 4, "end_s": 6, "text": "C sweeps"},
            {"video_id": "v1", "clip_start_s": 0, "clip_end_s": 30},
            {"video_id": "v2", "start_s": 1.0004, "end_s": 3, "text": "C waters a plant"},
            {"video_id": "v1", "start_s": 3, "end_s": 5, "text": "C picks up a pot"},
            {"video_id": "v3", "clip_start_s": 0, "clip_end_s": 9},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert list(load_clip_bounds(path).items()) == [
            ("v2", (1.0, 6.0)),
            ("v1", (0.0, 30.0)),
            ("v3", (0.0, 9.0)),
        ]

    def test_bounds_record_without_captions_gives_its_clip(self, tmp_path, caplog):
        path = tmp_path / "caps.jsonl"
        rows = [
            {"video_id": "v1", "start_s": 0, "end_s": 2, "text": "C stands"},
            {"video_id": "v2", "clip_start_s": 0, "clip_end_s": 9},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert load_clip_bounds(path) == {"v1": (0.0, 2.0), "v2": (0.0, 9.0)}
        assert caplog.text == ""

    def test_caption_outside_its_bounds_record_is_the_tracks_error(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        rows = [
            {"video_id": "v1", "clip_start_s": 0, "clip_end_s": 10},
            {"video_id": "v1", "start_s": 9, "end_s": 11, "text": "C closes the door"},
            {"video_id": "v1", "start_s": 8, "end_s": 12, "text": "C opens the door"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        message = f"caption (8.0, 12.0) outside clip bounds (0.0, 10.0) in video 'v1' in {path}"
        with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
            load_clip_bounds(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_clip_bounds(tmp_path / "absent.jsonl")


# any value json.dumps writes, with non-ASCII text and non-finite floats
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


class TestWriteJsonl:
    @given(st.lists(st.dictionaries(st.text(), JSON_VALUES, max_size=4), max_size=5))
    def test_writes_what_json_dumps_writes(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("jsonl") / "rows.jsonl"
        write_jsonl(path, rows)
        expected = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode("utf-8")


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
        "choices, got",
        [(None, "none"), ('"abcde"', "a string"), ("null", "none")],
        ids=["absent", "string", "null"],
    )
    def test_qa_without_a_choices_list_rejected(self, tmp_path, choices, got):
        path = tmp_path / "queries.jsonl"
        row = '{"qid": "q1", "video_id": "v1", "kind": "qa", "question": "what?"'
        row += "}" if choices is None else f', "choices": {choices}}}'
        path.write_text(row + "\n")
        message = f"expected 5 choices for QA query 'q1', got {got} in .* at line 1"
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

    @given(
        known_key_rows(
            {
                "qid": ["q1", 2],
                "video_id": ["v1"],
                "kind": ["qa", "nlq"],
                "question": ["what?"],
                "choices": [["a", "b", "c", "d", "e"]],
                "answer_idx": [0, 4],
                "query": ["when?"],
                "gt": [[1, 2.5]],
            }
        )
    )
    @settings(max_examples=400)
    def test_row_loads_as_its_shape_or_fails_at_its_line(self, tmp_path_factory, row):
        assert_loads_as_its_shape(
            load_queries,
            tmp_path_factory.mktemp("queries") / "queries.jsonl",
            row,
            {
                "qa": {"qid", "video_id", "kind", "question", "choices", "answer_idx"},
                "nlq": {"qid", "video_id", "kind", "query", "gt"},
            },
            lambda queries: queries[0].kind.value,
        )

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
            (
                '"kind": "nlq", "choices": ["a"]',
                re.escape("record mixes qa and nlq fields: ['choices', 'question']"),
            ),
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
            (
                '"kind": "qa", "gt": [1, 2]',
                re.escape("record mixes qa and nlq fields: ['gt', 'query']"),
            ),
            (
                '"kind": "nlq", "answer_idx": 1',
                re.escape("record mixes qa and nlq fields: ['answer_idx', 'question']"),
            ),
            # the row carries both "question" and "query"; its kind decides
            ('"kind": "qa"', re.escape("record mixes qa and nlq fields: ['query']")),
            ('"kind": "nlq"', re.escape("record mixes qa and nlq fields: ['question']")),
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

    @pytest.mark.parametrize("loader", [load_captions, load_queries, load_clip_bounds])
    def test_deeply_nested_line_is_malformed(self, tmp_path, loader):
        path = tmp_path / "rows.jsonl"
        path.write_text("\n" + "[" * 100_000 + "]" * 100_000 + "\n")
        where = f"in {re.escape(str(path))} at line 2$"
        with pytest.raises(CorpusError, match=f"^malformed line: nested too deeply {where}"):
            loader(path)

    @pytest.mark.parametrize("loader", [load_captions, load_queries, load_clip_bounds])
    def test_directory_is_named(self, tmp_path, loader):
        with pytest.raises(CorpusError, match=f"^cannot read {re.escape(str(tmp_path))}: "):
            loader(tmp_path)

    @needs_unreadable
    @pytest.mark.parametrize("loader", [load_captions, load_queries, load_clip_bounds])
    def test_unreadable_file_is_named(self, loader):
        with pytest.raises(CorpusError, match=f"^cannot read {UNREADABLE}: "):
            loader(UNREADABLE)
