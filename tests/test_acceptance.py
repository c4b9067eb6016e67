"""Release gate: each test pins one headline guarantee of the package.

Every test covers exactly one guarantee and prints one [PASS] line on
success, so a verbose run reads as a checklist. Tolerances are part of
the guarantee and are not to be loosened casually.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

import pytest

from egolog.cli import main as cli_main
from egolog.config import load_config
from egolog.corpus import Caption, CaptionTrack, Query, QueryKind
from egolog.digest import (
    DigestConfig,
    digest,
    filter_by_relevance,
    group_consecutive,
)
from egolog.ensemble import AnswerPool, vote_by_confidence
from egolog.errors import ParseError
from egolog.llm import write_transcripts
from egolog.metrics import evaluate_nlq, evaluate_qa, iou
from egolog.pipeline import run_ask, run_eval, run_localize
from egolog.reasoner import (
    CandidateInterval,
    LlmAnswer,
    parse_response,
)
from egolog.refine import RefineConfig, gen_refinement_dataset, pad_interval
from egolog.similarity import MockEmbedder

from helpers import (
    RecordingBackend,
    ScriptedNlqBackend,
    ScriptedQaBackend,
    assert_report_matches_oracle,
    format_reference,
    make_track,
    oracle_iou,
    random_nlq_fixture,
    random_qa_fixture,
    synth_nlq_benchmark,
    synth_qa_benchmark,
    write_config,
    write_corpus,
)

IDENTITY_DIGEST = "[digest]\nrelevance_threshold = -1\nadjacency_threshold = 2.0\n"


def _passline(text: str) -> None:
    print(f"[PASS] {text}", flush=True)


def _load(tmp_path, tracks, queries, extra="", extra_paths=""):
    captions, qpath = write_corpus(tmp_path, tracks, queries)
    body = (
        "[run]\nseed = 2024\nruns = 3\n"
        f"[paths]\ncaptions = {captions.name}\nqueries = {qpath.name}\n"
        + extra_paths
        + extra
    )
    return load_config(write_config(tmp_path, body))


def test_gate_metric_oracle_equivalence():
    # every reported number matches an independent exhaustive recount on
    # 500 randomized fixtures, within 1e-9, in under 10 seconds
    started = time.perf_counter()
    rng = random.Random(0xACCE)
    for trial in range(500):
        if trial % 2 == 0:
            preds, finals, gts = random_nlq_fixture(rng, rng.randint(3, 12))
            report = evaluate_nlq(preds, finals, gts)
            assert_report_matches_oracle(
                report, preds, finals, gts, (0.3, 0.5), tol=1e-9
            )
        else:
            preds, gts = random_qa_fixture(rng, rng.randint(3, 12))
            report = evaluate_qa(preds, gts)
            correct = sum(1 for qid, a in preds.items() if a.choice_idx == gts[qid])
            assert abs(report.qa_accuracy - Fraction(correct, len(preds))) <= 1e-9
        a0 = rng.uniform(0.0, 100.0)
        b0 = rng.uniform(0.0, 100.0)
        a = (a0, a0 + rng.uniform(0.1, 50.0))
        b = (b0, b0 + rng.uniform(0.1, 50.0))
        assert abs(iou(a, b) - oracle_iou(a, b)) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"recount sweep took {elapsed:.1f} s"
    _passline(
        "metrics match the exhaustive recount on 500 fixtures "
        f"(<= 1e-9, {elapsed:.2f} s)"
    )


def test_gate_interval_invariants():
    # padding always contains the original, never leaves the clip, and its
    # width obeys exact bounds; zero padding is the identity
    rng = random.Random(0xBEEF)
    zero_cfg = RefineConfig(pad_alpha=0.0)
    for _ in range(10_000):
        lo = rng.uniform(-50.0, 400.0)
        hi = lo + rng.uniform(1.0, 500.0)
        start = lo + rng.uniform(0.0, (hi - lo) * 0.9)
        end = start + rng.uniform((hi - lo) * 1e-4, hi - start)
        alpha = rng.choice([0.0, rng.uniform(0.0, 60.0)])
        candidate = CandidateInterval(start, end)
        padded = pad_interval(candidate, RefineConfig(pad_alpha=alpha), (lo, hi))
        assert padded.start_s <= start and padded.end_s >= end
        assert padded.start_s >= lo and padded.end_s <= hi
        assert padded.start_s == max(start - alpha, lo)
        assert padded.end_s == min(end + alpha, hi)
        assert end - start <= padded.end_s - padded.start_s <= (end + alpha) - (start - alpha)
        identity = pad_interval(candidate, zero_cfg, (lo, hi))
        assert (identity.start_s, identity.end_s) == (start, end)
    _passline("10,000 padding cases hold containment, clamping, width, identity")


def test_gate_refinement_dataset_soundness():
    # every label re-derives from exact rational IoU of the written window
    # at strict thresholds, the dataset is balanced, and a rerun is
    # byte-identical
    rng = random.Random(7)
    gts = []
    for i in range(12):
        clip_end = rng.uniform(120.0, 400.0)
        a = rng.uniform(0.0, clip_end - 25.0)
        b = a + rng.uniform(4.0, 18.0)
        gts.append((f"q{i:02d}", (a, b), (0.0, clip_end)))
    cfg = RefineConfig(samples_per_gt=8)
    first = gen_refinement_dataset(gts, cfg, seed=99)
    second = gen_refinement_dataset(gts, cfg, seed=99)
    blob = json.dumps(first)
    assert blob == json.dumps(second)
    windows = {qid: gt for qid, gt, _ in gts}
    n_pos = n_neg = 0
    for record in json.loads(blob):
        exact = oracle_iou((record["start_s"], record["end_s"]), windows[record["qid"]])
        if record["label"] == "pos":
            n_pos += 1
            assert exact > Fraction(1, 2)
        else:
            n_neg += 1
            assert exact < Fraction(1, 10)
    assert n_pos == n_neg == 12 * 8
    _passline("refinement labels re-derive exactly; balanced; rerun byte-identical")


def test_gate_vote_by_confidence():
    def qa(choice, confidence):
        return LlmAnswer(
            qid="q", kind=QueryKind.QA, choice_idx=choice, confidence=confidence
        )

    rng = random.Random(0x5EED)
    for _ in range(10_000):
        answers = tuple(
            qa(rng.randrange(5), rng.randint(1, 3))
            for _ in range(rng.randint(1, 6))
        )
        pool = AnswerPool(qid="q", answers=answers)
        winner = vote_by_confidence(pool, rng.getrandbits(32))
        assert winner.confidence == pool.max_confidence
        assert any(winner is a for a in answers)
        finalists = [a for a in answers if a.confidence == pool.max_confidence]
        if len(finalists) == 1:
            for probe_seed in (0, 1, 17):
                assert vote_by_confidence(pool, probe_seed) is finalists[0]
    tie = AnswerPool(qid="q", answers=(qa(0, 3), qa(1, 3), qa(2, 1)))
    wins = sum(
        1 for seed in range(10_000) if vote_by_confidence(tie, seed).choice_idx == 0
    )
    assert 4_800 <= wins <= 5_200, f"tie split {wins}/10000"
    _passline(
        "10,000 vote pools pick maximal confidence; unique max seed-invariant; "
        f"tie split {wins / 100:.1f}%"
    )


def _random_wellformed_answer(rng, qid, kind):
    confidence = rng.randint(1, 3)
    explanation = "".join(
        rng.choice(" abcdefgXYZ,.:;'\"()[]{}") for _ in range(rng.randint(0, 40))
    )
    if kind is QueryKind.QA:
        return LlmAnswer(
            qid=qid,
            kind=kind,
            choice_idx=rng.randrange(5),
            confidence=confidence,
            explanation=explanation,
        )
    if rng.random() < 0.2:
        return LlmAnswer(
            qid=qid, kind=kind, confidence=confidence, explanation=explanation
        )
    intervals = []
    for _ in range(rng.randint(1, 3)):
        start = rng.uniform(0.0, 400.0)
        intervals.append(CandidateInterval(start, start + rng.uniform(0.5, 60.0)))
    return LlmAnswer(
        qid=qid,
        kind=kind,
        intervals=tuple(intervals),
        confidence=confidence,
        explanation=explanation,
    )


_MALFORMED_TEMPLATES = (
    "",
    "I cannot determine the answer from these captions.",
    "answer: A confidence: high",
    "```json\n{not valid json at all\n```",
    "```json\n[]\n```",
    "```json\nnull\n```",
    "```json\n42\n```",
    '```json\n{"answers": "yes"}\n```',
    '```json\n[{"foo": 1}]\n```',
    '```json\n[[1, 2, 3]]\n```',
    '```json\n[{"qid": "q0"}]\n```',
    '```json\n[{"qid": "q0", "answer": "Z", "confidence": 3}]\n```',
    '```json\n[{"qid": "q0", "intervals": [["a", "b"]], "confidence": 2}]\n```',
    '```json\n[{"qid": "q0", "intervals": [[9.0, 4.0]], "confidence": 2}]\n```',
    '{"qid": "q0", "answer":',
    "the window is from start to finish",
)


def _mutate(rng, text):
    roll = rng.random()
    if roll < 0.4 and text:
        return text[: rng.randrange(len(text))]
    if roll < 0.7 and text:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice("~#|\\@%") + text[i + 1 :]
    return text + text


def test_gate_parser_round_trip():
    # well-formed structured blocks survive a serialize/parse round trip;
    # malformed text degrades to ParseError or an NA default, never a
    # crash and never an interval that was not in the text
    rng = random.Random(0xF00D)
    for trial in range(1_000):
        if trial % 2 == 0:
            answers = [_random_wellformed_answer(rng, "q0", QueryKind.QA)]
            kind, qids = QueryKind.QA, ["q0"]
        else:
            qids = [f"q{i}" for i in range(rng.randint(1, 4))]
            answers = [
                _random_wellformed_answer(rng, qid, QueryKind.NLQ) for qid in qids
            ]
            kind = QueryKind.NLQ
        block = format_reference(answers)
        if rng.random() < 0.5:
            block = "Sure, here is my reasoning.\n" + block + "\nHope that helps."
        assert parse_response(block, kind, qids) == answers

    for trial in range(200):
        text = _MALFORMED_TEMPLATES[trial % len(_MALFORMED_TEMPLATES)]
        if trial >= len(_MALFORMED_TEMPLATES):
            text = _mutate(rng, text)
        try:
            parsed_qa = parse_response(text, QueryKind.QA, ["q0"])
        except ParseError:
            pass
        else:
            for answer in parsed_qa:
                assert answer.choice_idx in (0, 1, 2, 3, 4)
                assert answer.confidence in (1, 2, 3)
        try:
            parsed = parse_response(text, QueryKind.NLQ, ["q0", "q1"])
        except ParseError:
            continue
        for answer in parsed:
            assert answer.confidence in (1, 2, 3)
            if not answer.intervals:
                assert answer.is_na
                continue
            for interval in answer.intervals:
                assert math.isfinite(interval.start_s)
                assert math.isfinite(interval.end_s)
                assert interval.start_s < interval.end_s
        if not any(ch.isdigit() for ch in text):
            assert all(a.is_na for a in parsed)
    _passline("1,000 round trips exact; 200 malformed inputs degrade safely")


def _pure_cosine(u, v):
    dot = sum(x * y for x, y in zip(u, v))
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    return dot / (nu * nv)


def test_gate_digest_matches_brute_force():
    embedder = MockEmbedder()
    texts = [
        "C washes the dishes in the sink",
        "C washes the dishes in the sink",
        "C rinses a plate under the tap",
        "C cuts vegetables on the board",
        "C cuts vegetables on the board",
        "C chops an onion with a knife",
        "zq xw vv kk",
        "mmmm pppp qqqq",
        "C wipes the counter with a cloth",
        "C stirs the pot on the stove",
        "C stirs the pot on the stove",
        "C opens the fridge door",
        "C closes the fridge door",
        "jj yy zz ww",
        "C washes the dishes in the sink",
        "C dries a cup with a towel",
        "C cuts vegetables on the board",
        "C peels a carrot over the bin",
        "rrrr ssss tttt",
        "C turns off the tap",
    ]
    assert len(texts) == 20
    track = make_track(texts=texts, step=3.0)
    queries = [
        Query(
            qid="a",
            video_id="v1",
            kind=QueryKind.NLQ,
            text="find: C washes the dishes in the sink",
        ),
        Query(
            qid="b",
            video_id="v1",
            kind=QueryKind.NLQ,
            text="find: C cuts vegetables on the board",
        ),
    ]
    cfg = DigestConfig(relevance_threshold=0.30, adjacency_threshold=0.95)

    vocab = sorted({c.text for c in track.captions} | {q.text for q in queries})
    vectors = dict(zip(vocab, embedder.embed_texts(vocab)))
    query_vecs = [vectors[q.text] for q in queries]

    def relevance(text):
        return max(_pure_cosine(vectors[text], qv) for qv in query_vecs)

    expected_survivors = [c for c in track.captions if relevance(c.text) >= 0.30]
    survivors = filter_by_relevance(track, queries, embedder, cfg)
    assert list(survivors.captions) == expected_survivors
    assert 0 < len(expected_survivors) < len(track.captions)

    expected_groups = []
    current = [0]
    caps = survivors.captions
    for i in range(1, len(caps)):
        adjacent = _pure_cosine(vectors[caps[i].text], vectors[caps[i - 1].text])
        if adjacent >= 0.95 and len(current) < cfg.max_merge_group:
            current.append(i)
        else:
            if len(current) >= 2:
                expected_groups.append(tuple(current))
            current = [i]
    if len(current) >= 2:
        expected_groups.append(tuple(current))
    groups = group_consecutive(survivors, embedder, cfg)
    assert [tuple(g) for g in groups] == [tuple(g) for g in expected_groups]
    assert expected_groups, "fixture must exercise at least one merge"

    digested, stats = digest(track, queries, embedder, None, cfg)
    after_blocklist = stats.input_captions - stats.dropped_uninformative
    after_relevance = after_blocklist - stats.dropped_irrelevant
    assert stats.input_captions >= after_blocklist >= after_relevance
    assert after_relevance >= stats.output_captions
    assert len(digested.captions) == stats.output_captions

    identity_cfg = DigestConfig(
        blocklist=(), relevance_threshold=-1.0, adjacency_threshold=2.0
    )
    untouched, _ = digest(track, queries, embedder, None, identity_cfg)
    as_bytes = lambda t: json.dumps(
        [(c.start_s, c.end_s, c.text) for c in t.captions]
    ).encode()
    assert as_bytes(untouched) == as_bytes(track)
    _passline("digest matches the all-pairs oracle; identity config is a no-op")


def test_gate_end_to_end_synthetic(tmp_path):
    started = time.perf_counter()
    qa_dir = tmp_path / "qa"
    qa_dir.mkdir()
    tracks, queries = synth_qa_benchmark(n_items=50, captions_per_video=12)
    config = _load(qa_dir, tracks, queries)
    records, failures = run_ask(config, llm=ScriptedQaBackend())
    assert failures == []
    assert len(records) == 50
    key = {q.qid: q.gt_answer_idx for q in queries}
    n_correct = sum(1 for r in records if r["choice"] == key[r["qid"]])
    assert n_correct == 50

    nlq_dir = tmp_path / "nlq"
    nlq_dir.mkdir()
    tracks2, queries2 = synth_nlq_benchmark(n_items=50, captions_per_video=12)
    config2 = _load(
        nlq_dir, tracks2, queries2, IDENTITY_DIGEST + "[refine]\npad_alpha = 0\n"
    )
    records2, failures2 = run_localize(config2, llm=ScriptedNlqBackend())
    assert failures2 == []
    preds_path = nlq_dir / "preds.jsonl"
    preds_path.write_text(
        "".join(json.dumps(r) + "\n" for r in records2), encoding="utf-8"
    )
    report = run_eval(config2, preds_path, "nlq")
    assert report.na_ratio == 0.0
    assert report.iou_star[0.3] == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"end-to-end sweep took {elapsed:.1f} s"
    _passline(
        f"synthetic benchmarks: QA 50/50 correct, coarse windows all clear "
        f"IoU 0.3 ({elapsed:.2f} s)"
    )


def test_gate_replay_reproducibility(tmp_path):
    def prepare(subdir, tracks, queries, scripted, runner):
        subdir.mkdir()
        captions, qpath = write_corpus(subdir, tracks, queries)
        head = "[run]\nseed = 11\nruns = 3\nin_flight_limit = {pool}\n"
        paths = f"[paths]\ncaptions = {captions.name}\nqueries = {qpath.name}\n"
        live = load_config(
            write_config(subdir, head.format(pool=1) + paths + IDENTITY_DIGEST)
        )
        recorder = RecordingBackend(scripted)
        runner(live, llm=recorder)
        write_transcripts(subdir / "transcripts.json", recorder.transcripts)
        replay_body = (
            head + paths + "transcripts = transcripts.json\n" + IDENTITY_DIGEST
        )
        configs = {}
        for pool in (1, 8):
            path = subdir / f"config_pool{pool}.ini"
            path.write_text(replay_body.format(pool=pool), encoding="utf-8")
            configs[pool] = path
        return configs

    def replay(command, config_path, out_path):
        code = cli_main(
            [command, "--config", str(config_path), "--out", str(out_path)]
        )
        assert code == 0
        return out_path.read_bytes()

    qa_cfg = prepare(
        tmp_path / "qa",
        *synth_qa_benchmark(n_items=6, captions_per_video=6),
        ScriptedQaBackend(),
        run_ask,
    )
    first = replay("ask", qa_cfg[1], tmp_path / "qa" / "out_a.jsonl")
    again = replay("ask", qa_cfg[1], tmp_path / "qa" / "out_b.jsonl")
    pooled = replay("ask", qa_cfg[8], tmp_path / "qa" / "out_c.jsonl")
    assert first == again == pooled and first

    nlq_cfg = prepare(
        tmp_path / "nlq",
        *synth_nlq_benchmark(n_items=6, captions_per_video=6),
        ScriptedNlqBackend(),
        run_localize,
    )
    first = replay("localize", nlq_cfg[1], tmp_path / "nlq" / "out_a.jsonl")
    again = replay("localize", nlq_cfg[1], tmp_path / "nlq" / "out_b.jsonl")
    pooled = replay("localize", nlq_cfg[8], tmp_path / "nlq" / "out_c.jsonl")
    assert first == again == pooled and first
    _passline("replayed ask and localize byte-identical across runs and pool sizes")


def test_gate_sanity_anchors():
    rng = random.Random(20)
    total = 0.0
    for _ in range(1_000):
        gts = {f"q{i}": rng.randrange(5) for i in range(25)}
        preds = {
            qid: LlmAnswer(
                qid=qid,
                kind=QueryKind.QA,
                choice_idx=rng.randrange(5),
                confidence=rng.randint(1, 3),
            )
            for qid in gts
        }
        total += evaluate_qa(preds, gts).qa_accuracy
    mean = total / 1_000
    assert abs(mean - 0.20) <= 0.04, f"random-guess accuracy {mean:.4f}"

    step = 2.0
    captions = tuple(
        Caption(
            video_id="anchor",
            start_s=i * step,
            end_s=(i + 1) * step,
            text=f"C does thing {i}",
        )
        for i in range(int(180.0 / step))
    )
    track = CaptionTrack(
        video_id="anchor", clip_start_s=0.0, clip_end_s=180.0, captions=captions
    )
    assert len(track.captions) == 90
    assert track.captions[-1].end_s == 180.0
    _passline(
        f"random guessing scores {mean:.3f}; a 180 s clip at 2 s spacing "
        "holds 90 captions"
    )
