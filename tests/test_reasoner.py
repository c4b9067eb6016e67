from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egolog.corpus import Query, QueryKind, normalize_seconds
from egolog.errors import EgologError, ParseError, TransportError
from egolog.reasoner import (
    MAX_NESTING,
    NO_CAPTIONS_MARKER,
    LlmAnswer,
    build_nlq_prompt,
    build_qa_prompt,
    caption_log_lines,
    format_seconds,
    parse_response,
    run,
)
from egolog.seeding import derive_seed

from helpers import (
    CallableBackend,
    HashFailingBackend,
    OverlapBackend,
    completion_pool,
    format_reference,
    make_track,
)


def qa_query(qid="q1", video_id="v1", choices=None, answer_idx=0):
    return Query(
        qid=qid,
        video_id=video_id,
        kind=QueryKind.QA,
        text="What does C do first?",
        choices=tuple(choices or ("opt a", "opt b", "opt c", "opt d", "opt e")),
        gt_answer_idx=answer_idx,
    )


def nlq_query(qid="q1", video_id="v1", text="where is the cup"):
    return Query(qid=qid, video_id=video_id, kind=QueryKind.NLQ, text=text)


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "value,expected",
        [(12.0, "12"), (12.5, "12.5"), (0.0, "0"), (3.125, "3.125"), (0.1, "0.1")],
    )
    def test_cases(self, value, expected):
        assert format_seconds(value) == expected


class TestLlmAnswer:
    def test_qa_requires_choice(self):
        with pytest.raises(ValueError, match="choice_idx"):
            LlmAnswer(qid="q", kind=QueryKind.QA)

    def test_qa_rejects_intervals(self):
        with pytest.raises(ValueError, match="intervals"):
            LlmAnswer(
                qid="q",
                kind=QueryKind.QA,
                choice_idx=0,
                intervals=((0, 1),),
            )

    def test_nlq_rejects_inverted_interval(self):
        with pytest.raises(ValueError, match=r"inverted interval \(5.0, 5.0\)"):
            LlmAnswer(qid="q", kind=QueryKind.NLQ, intervals=((0.0, 1.0), (5.0, 5.0)))

    def test_nlq_rejects_choice(self):
        with pytest.raises(ValueError, match="choice index"):
            LlmAnswer(qid="q", kind=QueryKind.NLQ, choice_idx=1)

    def test_confidence_range(self):
        with pytest.raises(ValueError, match="confidence"):
            LlmAnswer(qid="q", kind=QueryKind.QA, choice_idx=0, confidence=4)

    def test_na_property(self):
        assert LlmAnswer(qid="q", kind=QueryKind.NLQ).is_na
        assert not LlmAnswer(qid="q", kind=QueryKind.NLQ, intervals=((0, 1),)).is_na


class TestQaPrompt:
    def test_layout(self):
        track = make_track(texts=["C opens a jar", "C closes the jar"])
        prompt = build_qa_prompt(track, qa_query())
        assert prompt.user_text.splitlines() == [
            "Caption log:",
            "0-2: C opens a jar",
            "2-4: C closes the jar",
            "",
            "Question (qid q1): What does C do first?",
            "Options:",
            "(A) opt a",
            "(B) opt b",
            "(C) opt c",
            "(D) opt d",
            "(E) opt e",
        ]

    def test_all_captions_serialized_no_truncation(self):
        # a 180 s track at one caption per 2 s must yield 90 log lines
        track = make_track(n=90, step=2.0)
        assert len(caption_log_lines(track)) == 90
        prompt = build_qa_prompt(track, qa_query())
        assert prompt.user_text.count("\n") >= 90
        for cap in track.captions:
            assert cap.text in prompt.user_text

    def test_empty_track_marker(self):
        # an empty caption list still needs explicit clip bounds
        from egolog.corpus import CaptionTrack

        empty = CaptionTrack.build("v1", [], 0.0, 10.0)
        prompt = build_qa_prompt(empty, qa_query())
        assert NO_CAPTIONS_MARKER in prompt.user_text

    def test_rejects_nlq_query(self):
        with pytest.raises(ValueError, match="QA query"):
            build_qa_prompt(make_track(), nlq_query())


class TestNlqPrompt:
    def test_layout(self):
        track = make_track(texts=["C waters a plant"])
        queries = [nlq_query("q1", text="where is the cup"), nlq_query("q2", text="what did C water")]
        prompt = build_nlq_prompt(track, queries)
        assert prompt.user_text.splitlines() == [
            "Caption log:",
            "0-2: C waters a plant",
            "",
            "Queries:",
            "1. (qid q1) where is the cup",
            "2. (qid q2) what did C water",
        ]

    def test_rejects_mixed_videos(self):
        track = make_track(video_id="v1")
        with pytest.raises(ValueError, match="mixed video_id"):
            build_nlq_prompt(track, [nlq_query(video_id="v2")])

    def test_rejects_qa_query(self):
        with pytest.raises(ValueError, match="non-NLQ"):
            build_nlq_prompt(make_track(), [qa_query()])

    def test_requires_queries(self):
        with pytest.raises(ValueError, match="at least one"):
            build_nlq_prompt(make_track(), [])


class TestRun:
    def test_collects_all_runs_in_order(self):
        texts = iter(["first", "second", "third"])
        backend = CallableBackend(lambda s, u: next(texts))
        prompt = build_qa_prompt(make_track(), qa_query())
        (replies,) = run([(prompt, 11)], backend, 3, sleep=lambda s: None)
        assert replies == ["first", "second", "third"]

    def test_per_run_seeds_derived_from_run_index(self):
        seeds = []

        class SeedSpy:
            def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
                seeds.append(sampling_seed)
                return "ok"

        prompt = build_qa_prompt(make_track(), qa_query())
        run([(prompt, 11)], SeedSpy(), 3, sleep=lambda s: None)
        assert seeds == [derive_seed(11, "run", i) for i in range(3)]
        assert len(set(seeds)) == 3

    def test_transport_errors_retried(self):
        attempts = []

        def flaky(system, user):
            attempts.append(1)
            if len(attempts) < 3:
                raise TransportError("down")
            return "recovered"

        prompt = build_qa_prompt(make_track(), qa_query())
        (replies,) = run([(prompt, 0)], CallableBackend(flaky), 1, sleep=lambda s: None)
        assert replies == ["recovered"]
        assert len(attempts) == 3

    def test_exhausted_run_recorded_not_raised(self):
        calls = []

        def flaky(system, user):
            calls.append(1)
            # 3 attempts for each of the 2 runs
            if len(calls) <= 6:
                raise TransportError("down")
            return "late success"

        prompt = build_qa_prompt(make_track(), qa_query())
        (replies,) = run([(prompt, 0)], CallableBackend(flaky), 2, sleep=lambda s: None)
        assert [type(r) for r in replies] == [TransportError, TransportError]
        assert [str(r) for r in replies] == ["down", "down"]

    def test_runs_must_be_positive(self):
        prompt = build_qa_prompt(make_track(), qa_query())
        with pytest.raises(ValueError, match="runs"):
            run([(prompt, 0)], CallableBackend(lambda s, u: "x"), 0)

    def test_runs_in_flight_together_up_to_the_limit(self):
        prompt = build_qa_prompt(make_track(), qa_query())
        backend = OverlapBackend(parties=2)
        with completion_pool(2) as pool:
            (replies,) = run([(prompt, 11)], backend, 2, pool=pool)
        assert replies == [backend.reply, backend.reply]
        assert backend.max_in_flight == 2
        serial = OverlapBackend(parties=1)
        run([(prompt, 11)], serial, 4)
        assert serial.max_in_flight == 1

    def test_each_job_gets_its_own_runs_and_seeds(self):
        class Echo:
            def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
                return f"{user_text.splitlines()[-1]} {run_index} {sampling_seed}"

        prompts = [build_qa_prompt(make_track(), qa_query(qid)) for qid in ("q1", "q2")]
        jobs = list(zip(prompts, (5, 7)))
        expected = [
            [f"{p.user_text.splitlines()[-1]} {i} {derive_seed(seed, 'run', i)}" for i in (0, 1)]
            for p, seed in jobs
        ]
        for limit in (1, 3):
            with completion_pool(limit) as pool:
                assert run(jobs, Echo(), 2, pool=pool) == expected
        assert run([], Echo(), 2) == []

    def test_runs_of_every_job_share_the_slots(self):
        # a barrier of 4 passes only if both jobs' runs are in flight at once
        prompts = [build_qa_prompt(make_track(), qa_query(qid)) for qid in ("q1", "q2")]
        backend = OverlapBackend(parties=4)
        with completion_pool(4) as pool:
            replies = run([(prompts[0], 5), (prompts[1], 7)], backend, 2, pool=pool)
        assert replies == [[backend.reply] * 2] * 2
        assert backend.max_in_flight == 4

    def test_outcome_independent_of_in_flight_limit(self):
        prompt = build_qa_prompt(make_track(), qa_query())
        outcomes = []
        for limit in (1, 2, 8):
            with completion_pool(limit) as pool:
                (replies,) = run(
                    [(prompt, 11)],
                    HashFailingBackend(),
                    12,
                    sleep=lambda s: None,
                    pool=pool,
                )
            outcomes.append([r if isinstance(r, str) else repr(r) for r in replies])
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert len(replies) == 12
        failed = [i for i, r in enumerate(replies) if isinstance(r, EgologError)]
        assert 0 < len(failed) < 12
        for run_index, reply in enumerate(replies):
            if run_index not in failed:
                seed = derive_seed(11, "run", run_index)
                assert reply.endswith(f" seed {seed}")


def qa_block(qid="q1", answer="B", explanation="because", confidence=2):
    return format_reference(
        [
            LlmAnswer(
                qid=qid,
                kind=QueryKind.QA,
                choice_idx="ABCDE".index(answer),
                explanation=explanation,
                confidence=confidence,
            )
        ]
    )


class TestParseQa:
    def test_canonical_block(self):
        (ans,) = parse_response(qa_block(), QueryKind.QA, ["q1"])
        assert ans.choice_idx == 1
        assert ans.explanation == "because"
        assert ans.confidence == 2

    def test_block_embedded_in_prose(self):
        raw = "Sure! Here is my answer:\n" + qa_block() + "\nHope that helps."
        (ans,) = parse_response(raw, QueryKind.QA, ["q1"])
        assert ans.choice_idx == 1

    def test_unfenced_json(self):
        raw = json.dumps([{"qid": "q1", "answer": "D", "confidence": 3, "explanation": "x"}])
        (ans,) = parse_response(raw, QueryKind.QA, ["q1"])
        assert ans.choice_idx == 3

    def test_dict_wrapper_forms(self):
        for key in ("answers", "results", "queries", "predictions"):
            raw = json.dumps(
                {key: [{"qid": "q1", "answer": "A", "confidence": 1, "explanation": "x"}]}
            )
            (ans,) = parse_response(raw, QueryKind.QA, ["q1"])
            assert ans.choice_idx == 0

    def test_single_object_not_array(self):
        raw = json.dumps({"qid": "q1", "answer": "E", "confidence": 2, "explanation": "x"})
        (ans,) = parse_response(raw, QueryKind.QA, ["q1"])
        assert ans.choice_idx == 4

    def test_anonymous_entry_matched_to_single_expected_qid(self):
        raw = json.dumps([{"answer": "C", "confidence": 2, "explanation": "x"}])
        (ans,) = parse_response(raw, QueryKind.QA, ["q1"])
        assert ans.qid == "q1"
        assert ans.choice_idx == 2

    def test_duplicate_qid_keeps_first(self, caplog):
        raw = json.dumps(
            [
                {"qid": "q1", "answer": "A", "confidence": 1, "explanation": "x"},
                {"qid": "q1", "answer": "B", "confidence": 3, "explanation": "y"},
            ]
        )
        with caplog.at_level("WARNING", logger="egolog.reasoner"):
            (ans,) = parse_response(raw, QueryKind.QA, ["q1"])
        assert ans.choice_idx == 0
        assert any("duplicate" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize(
        "spelling,idx",
        [("C", 2), ("c", 2), ("C)", 2), ("C.", 2), ("(C)", 2), ("[B]", 1), ("C: opt c", 2)],
    )
    def test_choice_spellings(self, spelling, idx):
        raw = json.dumps([{"qid": "q1", "answer": spelling, "confidence": 2, "explanation": "x"}])
        (ans,) = parse_response(raw, QueryKind.QA, ["q1"])
        assert ans.choice_idx == idx

    def test_unparsable_choice_raises(self):
        raw = json.dumps([{"qid": "q1", "answer": "F", "confidence": 2, "explanation": "x"}])
        with pytest.raises(ParseError, match="unparsable answer"):
            parse_response(raw, QueryKind.QA, ["q1"])

    def test_bracket_alone_is_unparsable(self):
        raw = json.dumps([{"qid": "q1", "answer": "(", "confidence": 2, "explanation": "x"}])
        with pytest.raises(ParseError, match=re.escape("unparsable answer '('")):
            parse_response(raw, QueryKind.QA, ["q1"])

    def test_missing_qa_entry_raises(self):
        raw = json.dumps([{"qid": "other", "answer": "A", "confidence": 1, "explanation": "x"}])
        with pytest.raises(ParseError, match="no answer entry"):
            parse_response(raw, QueryKind.QA, ["q1"])

    def test_no_block_raises(self):
        with pytest.raises(ParseError, match="no structured block"):
            parse_response("I refuse to answer in JSON.", QueryKind.QA, ["q1"])

    def test_no_expected_qids_raises(self):
        with pytest.raises(ValueError, match="expected_qids"):
            parse_response(qa_block(), QueryKind.QA, [])

    @pytest.mark.parametrize(
        "value,expected",
        [
            (1, 1),
            (3, 3),
            (2.0, 2),
            ("2", 2),
            ("high", 3),
            ("Medium", 2),
            ("low", 1),
            (0, 1),
            (7, 3),
            (2.6, 3),
            (None, 1),
            (True, 1),
            ("very sure", 1),
            (float("nan"), 1),
            (float("inf"), 1),
            (float("-inf"), 1),
            ("inf", 1),
        ],
    )
    def test_confidence_coercion(self, value, expected):
        raw = json.dumps([{"qid": "q1", "answer": "A", "confidence": value, "explanation": "x"}])
        (ans,) = parse_response(raw, QueryKind.QA, ["q1"])
        assert ans.confidence == expected

    def test_missing_explanation_defaults_empty(self, caplog):
        raw = json.dumps([{"qid": "q1", "answer": "A", "confidence": 1}])
        with caplog.at_level("WARNING", logger="egolog.reasoner"):
            (ans,) = parse_response(raw, QueryKind.QA, ["q1"])
        assert ans.explanation == ""


class TestParseNlq:
    def test_canonical_intervals(self):
        raw = json.dumps(
            [{"qid": "q1", "intervals": [[10, 20], [30.5, 40]], "confidence": 3, "explanation": "x"}]
        )
        (ans,) = parse_response(raw, QueryKind.NLQ, ["q1"])
        assert list(ans.intervals) == [(10.0, 20.0), (30.5, 40.0)]

    def test_na_string(self):
        for na in ("NA", "na", "N/A", "none", "null", ""):
            raw = json.dumps([{"qid": "q1", "intervals": na, "confidence": 1, "explanation": "x"}])
            (ans,) = parse_response(raw, QueryKind.NLQ, ["q1"])
            assert ans.is_na

    def test_bare_pair_wrapped(self):
        raw = json.dumps([{"qid": "q1", "intervals": [12, 30], "confidence": 2, "explanation": "x"}])
        (ans,) = parse_response(raw, QueryKind.NLQ, ["q1"])
        assert list(ans.intervals) == [(12.0, 30.0)]

    def test_numeric_strings_accepted(self):
        raw = json.dumps(
            [{"qid": "q1", "intervals": [["5", "9.5"]], "confidence": 2, "explanation": "x"}]
        )
        (ans,) = parse_response(raw, QueryKind.NLQ, ["q1"])
        assert list(ans.intervals) == [(5.0, 9.5)]

    def test_degenerate_and_malformed_items_dropped(self, caplog):
        raw = json.dumps(
            [
                {
                    "qid": "q1",
                    "intervals": [[5, 5], [9, 2], [1, 2, 3], "junk", [0, 10**400], [3, 8]],
                    "confidence": 2,
                    "explanation": "x",
                }
            ]
        )
        with caplog.at_level("WARNING", logger="egolog.reasoner"):
            (ans,) = parse_response(raw, QueryKind.NLQ, ["q1"])
        assert list(ans.intervals) == [(3.0, 8.0)]
        malformed = [r.message for r in caplog.records if "malformed" in r.message]
        assert len(malformed) == 3
        assert malformed[-1].startswith("dropping malformed interval [0, 1000")

    def test_all_items_malformed_becomes_na(self):
        raw = json.dumps(
            [{"qid": "q1", "intervals": [[5, 5]], "confidence": 2, "explanation": "x"}]
        )
        (ans,) = parse_response(raw, QueryKind.NLQ, ["q1"])
        assert ans.is_na

    def test_missing_intervals_field_is_na(self):
        raw = json.dumps([{"qid": "q1", "confidence": 2, "explanation": "x"}])
        (ans,) = parse_response(raw, QueryKind.NLQ, ["q1"])
        assert ans.is_na

    def test_missing_qid_defaults_to_na_with_warning(self, caplog):
        raw = json.dumps(
            [{"qid": "q1", "intervals": [[1, 2]], "confidence": 3, "explanation": "x"}]
        )
        with caplog.at_level("WARNING", logger="egolog.reasoner"):
            answers = parse_response(raw, QueryKind.NLQ, ["q1", "q2"])
        assert answers[0].qid == "q1" and not answers[0].is_na
        assert answers[1].qid == "q2" and answers[1].is_na
        assert answers[1].confidence == 1
        assert any("defaulting to NA" in rec.message for rec in caplog.records)

    def test_answers_returned_in_expected_order(self):
        raw = json.dumps(
            [
                {"qid": "q2", "intervals": [[3, 4]], "confidence": 1, "explanation": "x"},
                {"qid": "q1", "intervals": [[1, 2]], "confidence": 1, "explanation": "x"},
            ]
        )
        answers = parse_response(raw, QueryKind.NLQ, ["q1", "q2"])
        assert [a.qid for a in answers] == ["q1", "q2"]

    def test_nan_and_inf_rejected_not_fabricated(self):
        raw = '[{"qid": "q1", "intervals": [[NaN, 5], [1, Infinity]], "confidence": 2, "explanation": "x"}]'
        (ans,) = parse_response(raw, QueryKind.NLQ, ["q1"])
        assert ans.is_na

    def test_padded_numeric_strings_accepted(self):
        raw = json.dumps(
            [{"qid": "q1", "intervals": [[" 5\x1c", "\x1f9.5 "]], "confidence": 2}]
        )
        (ans,) = parse_response(raw, QueryKind.NLQ, ["q1"])
        assert list(ans.intervals) == [(5.0, 9.5)]

    def test_bool_bounds_rejected(self):
        raw = json.dumps([{"qid": "q1", "intervals": [[False, True]], "confidence": 2}])
        (ans,) = parse_response(raw, QueryKind.NLQ, ["q1"])
        assert ans.is_na

    @pytest.mark.parametrize("kind", [QueryKind.QA, QueryKind.NLQ])
    def test_deep_nesting_is_a_parse_error(self, kind):
        with pytest.raises(ParseError, match="nests deeper than the JSON decoder allows"):
            parse_response("[" * 5000, kind, ["q1"])


def _frames_deeper(depth, fn):
    """fn() called `depth` Python frames below the caller."""
    return fn() if depth == 0 else _frames_deeper(depth - 1, fn)


class TestNestingLimit:
    """The nesting limit, not the caller's stack depth, decides a deep reply."""

    block = json.dumps([{"qid": "q1", "answer": "B", "confidence": 2, "explanation": "x"}])

    @pytest.mark.parametrize("depth", [0, 200])
    def test_deeper_than_limit_fails_at_any_stack_depth(self, depth):
        raw = "[" * 900 + self.block
        with pytest.raises(ParseError, match="nests deeper than the JSON decoder allows"):
            _frames_deeper(depth, lambda: parse_response(raw, QueryKind.QA, ["q1"]))

    @pytest.mark.parametrize("depth", [0, 200])
    def test_just_under_limit_parses_at_any_stack_depth(self, depth):
        # the block itself nests 2 deep: a list of one object
        raw = "[" * (MAX_NESTING - 3) + self.block
        (ans,) = _frames_deeper(
            depth, lambda: parse_response(raw, QueryKind.QA, ["q1"])
        )
        assert ans.choice_idx == 1

    @pytest.mark.parametrize("depth", [0, 200])
    def test_open_quote_in_prose_does_not_hide_brackets(self, depth):
        # a scan from the first character reads everything after the quote
        # as a string, but the decoder still starts at each [ inside it
        raw = 'He said "' + "[" * 900 + self.block
        with pytest.raises(ParseError, match="nests deeper than the JSON decoder allows"):
            _frames_deeper(depth, lambda: parse_response(raw, QueryKind.QA, ["q1"]))

    def test_bracket_after_a_backslash_counts(self):
        # outside a string the decoder stops at a backslash, but still
        # tries the bracket after it as a start
        with pytest.raises(ParseError, match="nests deeper than the JSON decoder allows"):
            parse_response("\\" + "[" * (MAX_NESTING + 1), QueryKind.QA, ["q1"])
        with pytest.raises(ParseError, match="no structured block"):
            parse_response("\\" + "[" * MAX_NESTING, QueryKind.QA, ["q1"])

    def test_brackets_inside_strings_do_not_count(self):
        # escaped quotes inside the string do not end it
        explanation = '"[{' * 500
        entry = {"qid": "q1", "answer": "B", "confidence": 2, "explanation": explanation}
        (ans,) = parse_response(json.dumps([entry]), QueryKind.QA, ["q1"])
        assert ans.explanation == explanation


answer_strategy = st.one_of(
    st.builds(
        lambda qid, idx, expl, conf: LlmAnswer(
            qid=qid, kind=QueryKind.QA, choice_idx=idx, explanation=expl, confidence=conf
        ),
        st.text(min_size=1, max_size=8).filter(str.strip),
        st.integers(min_value=0, max_value=4),
        st.text(max_size=40).filter(lambda s: "```" not in s),
        st.integers(min_value=1, max_value=3),
    ),
    st.builds(
        lambda qid, pairs, expl, conf: LlmAnswer(
            qid=qid,
            kind=QueryKind.NLQ,
            intervals=tuple((a, a + w) for a, w in pairs),
            explanation=expl,
            confidence=conf,
        ),
        st.text(min_size=1, max_size=8).filter(str.strip),
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1000, allow_nan=False),
                st.floats(min_value=0.25, max_value=100, allow_nan=False),
            ),
            max_size=4,
        ),
        st.text(max_size=40).filter(lambda s: "```" not in s),
        st.integers(min_value=1, max_value=3),
    ),
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(answer_strategy)
    def test_format_reference_round_trips(self, answer):
        raw = format_reference([answer])
        (parsed,) = parse_response(raw, answer.kind, [answer.qid])
        assert parsed == answer

    def test_multi_entry_round_trip(self):
        answers = [
            LlmAnswer(qid="a", kind=QueryKind.NLQ, intervals=((0, 2),), confidence=3),
            LlmAnswer(qid="b", kind=QueryKind.NLQ, confidence=1),
        ]
        parsed = parse_response(format_reference(answers), QueryKind.NLQ, ["a", "b"])
        assert parsed == answers


def nlq_reply(intervals, qid="q"):
    entry = {"qid": qid, "intervals": intervals, "confidence": 2, "explanation": "x"}
    return json.dumps([entry])


class TestClampToBounds:
    """parse_response with clip bounds clamps each window as it reads it."""

    def test_within_bounds_returned_unchanged(self):
        ans = LlmAnswer(
            qid="q",
            kind=QueryKind.NLQ,
            intervals=((5, 10),),
            explanation="x",
            confidence=2,
        )
        raw = nlq_reply([[5, 10]])
        assert parse_response(raw, QueryKind.NLQ, ["q"], bounds=(0.0, 100.0)) == [ans]

    def test_clamps_overhang(self):
        raw = nlq_reply([[-5, 150]])
        (out,) = parse_response(raw, QueryKind.NLQ, ["q"], bounds=(0.0, 100.0))
        assert list(out.intervals) == [(0.0, 100.0)]

    def test_fully_outside_candidate_dropped(self, caplog):
        raw = nlq_reply([[200, 300], [1, 2]])
        with caplog.at_level("WARNING", logger="egolog.reasoner"):
            (out,) = parse_response(raw, QueryKind.NLQ, ["q"], bounds=(0.0, 100.0))
        assert list(out.intervals) == [(1.0, 2.0)]

    @pytest.mark.parametrize(
        "window, bounds, message",
        [
            ([10.0001, 10.0004], None, "(10.0001, 10.0004) for qid 'q': empty within (-inf, inf)"),
            ([99.9996, 120], (0.0, 100.0), "(99.9996, 120.0) for qid 'q': empty within (0.0, 100.0)"),
        ],
        ids=["sub-millisecond", "clamped-to-sub-millisecond"],
    )
    def test_window_empty_on_the_millisecond_grid_dropped(self, caplog, window, bounds, message):
        raw = nlq_reply([window, [1.0001, 1.0014]])
        with caplog.at_level("WARNING", logger="egolog.reasoner"):
            (out,) = parse_response(raw, QueryKind.NLQ, ["q"], bounds=bounds)
        # the window kept is read exactly, not rounded
        assert list(out.intervals) == [(1.0001, 1.0014)]
        assert [r.message for r in caplog.records] == [f"dropping interval {message}"]

    def test_all_candidates_vanish_becomes_na(self):
        raw = nlq_reply([[200, 300]])
        (out,) = parse_response(raw, QueryKind.NLQ, ["q"], bounds=(0.0, 100.0))
        assert out.is_na

    def test_qa_answers_pass_through(self):
        ans = LlmAnswer(
            qid="q", kind=QueryKind.QA, choice_idx=0, explanation="x", confidence=2
        )
        raw = json.dumps([{"qid": "q", "answer": "A", "confidence": 2, "explanation": "x"}])
        assert parse_response(raw, QueryKind.QA, ["q"], bounds=(0.0, 1.0)) == [ans]


# JSON values no field expects: bools, NaN, infinities, integers too large
# for a float, padded and non-finite numeric strings, NA words
ODD_SCALAR = st.sampled_from(
    [True, False, None, math.nan, math.inf, -math.inf, 10**400, -(10**400), "1e400",
     " 7 ", "\x1c3\x1f", "NA", "high", "(C)", "[b]", ""]
)
JSON_SCALAR = st.one_of(
    ODD_SCALAR, st.integers(-5, 50), st.floats(-1e3, 1e3), st.text(max_size=4)
)
JSON_VALUE = st.recursive(
    JSON_SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=2),
    ),
    max_leaves=6,
)
QIDS = ["q1", "q2", "q3"]
INTERVALS = st.one_of(
    st.lists(st.lists(JSON_SCALAR, min_size=2, max_size=2), max_size=3),
    st.lists(JSON_SCALAR, min_size=2, max_size=2),
    JSON_VALUE,
)
ENTRY = st.fixed_dictionaries(
    {},
    optional={
        "qid": st.one_of(st.sampled_from(QIDS), JSON_VALUE),
        "answer": st.one_of(st.sampled_from(list("ABCDEF")), JSON_VALUE),
        "intervals": INTERVALS,
        "explanation": JSON_VALUE,
        "confidence": st.one_of(st.integers(0, 4), JSON_VALUE),
    },
)
PAYLOAD = st.one_of(
    st.lists(ENTRY, max_size=4),
    ENTRY,
    st.builds(
        lambda key, entries: {key: entries},
        st.sampled_from(["answers", "results", "queries", "predictions", "other"]),
        st.lists(ENTRY, max_size=3),
    ),
    JSON_VALUE,
)


@st.composite
def replies(draw):
    text = json.dumps(draw(PAYLOAD))
    if draw(st.booleans()):
        text = "```" + draw(st.sampled_from(["json", "", "JSON "])) + "\n" + text + "\n```"
    text = draw(st.text(max_size=8)) + text + draw(st.text(max_size=8))
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return "[" * draw(st.one_of(st.just(0), st.integers(0, 3000))) + text


class TestParseAnyReply:
    @settings(max_examples=400, deadline=None)
    @given(replies(), st.sampled_from(list(QueryKind)), st.integers(1, 3))
    def test_answers_in_order_or_parse_error(self, raw, kind, n_qids):
        qids = QIDS[:n_qids]
        try:
            answers = parse_response(raw, kind, qids)
        except ParseError:
            return
        assert [a.qid for a in answers] == qids
        for answer in answers:
            assert answer.kind is kind
            for c in answer.intervals:
                assert math.isfinite(c[0]) and math.isfinite(c[1])
                assert c[0] < c[1]


TIME = st.one_of(st.integers(-20, 120), st.floats(-20, 120), st.sampled_from(["5", " 7 "]))
WINDOWS = st.lists(st.lists(TIME, min_size=2, max_size=2), max_size=4)


@st.composite
def window_replies(draw):
    """NLQ replies whose entries are mostly lists of [start, end] windows."""
    entries = [
        {
            "qid": qid,
            "intervals": draw(st.one_of(WINDOWS, INTERVALS)),
            "confidence": draw(st.integers(1, 3)),
            "explanation": "x",
        }
        for qid in draw(st.lists(st.sampled_from(QIDS), max_size=3))
    ]
    return json.dumps(entries)


CLIP_BOUNDS = st.tuples(
    st.one_of(st.integers(-5, 50), st.floats(-20, 120)),
    st.one_of(st.integers(-5, 50), st.floats(-20, 120)),
).filter(lambda b: b[0] < b[1]).map(lambda b: (float(b[0]), float(b[1])))


class TestBoundsMatchClampingAfterTheParse:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(window_replies(), replies()), st.integers(1, 3), CLIP_BOUNDS)
    def test_windows_and_na_agree(self, raw, n_qids, bounds):
        qids = QIDS[:n_qids]
        lo, hi = bounds
        try:
            unbounded = parse_response(raw, QueryKind.NLQ, qids)
        except ParseError:
            with pytest.raises(ParseError):
                parse_response(raw, QueryKind.NLQ, qids, bounds=bounds)
            return
        bounded = parse_response(raw, QueryKind.NLQ, qids, bounds=bounds)
        assert len(bounded) == len(unbounded)
        for got, answer in zip(bounded, unbounded):
            clamped = [(max(s, lo), min(e, hi)) for s, e in answer.intervals]
            # a window empty on the millisecond grid is dropped, as the parser does
            kept = [(s, e) for s, e in clamped if normalize_seconds(s) < normalize_seconds(e)]
            assert list(got.intervals) == kept
            assert got.is_na == (not kept)
            assert (got.qid, got.confidence, got.explanation) == (
                answer.qid,
                answer.confidence,
                answer.explanation,
            )
