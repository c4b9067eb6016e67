"""Shared test helpers: tracks, test runs and generated corpora on disk,
reply rendering, scripted backends, a recording embedder and scorers,
oracles, a record-shape probe, a CLI run in a fresh interpreter.

The scripted backends answer by reading the caption log serialized into
the prompt, so synthetic benchmarks where captions literally determine
the answer are solvable without any model; an egolog.llm.ReplayBackend
with one as its inner backend records the transcripts of replay fixtures.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from egolog.config import load_config
from egolog.corpus import Caption, CaptionTrack, Query, QueryKind, save_captions
from egolog.errors import EgologError, TransportError
from egolog.reasoner import CHOICE_LETTERS, LlmAnswer
from egolog.similarity import MockEmbedder

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus_gen  # noqa: E402


# a regular file whose read fails (EIO), on Linux
UNREADABLE = Path("/proc/self/mem")
needs_unreadable = pytest.mark.skipif(
    not UNREADABLE.is_file(), reason="needs /proc/self/mem"
)


def make_track(
    video_id="v1", texts=None, n=6, step=2.0, clip_start=0.0, clip_end=None
):
    if texts is None:
        texts = [f"C does step {i} of the recipe" for i in range(n)]
    captions = [
        Caption(video_id, clip_start + i * step, clip_start + (i + 1) * step, text)
        for i, text in enumerate(texts)
    ]
    if clip_end is None:
        clip_end = clip_start + len(texts) * step
    return CaptionTrack.build(video_id, captions, clip_start, clip_end)


_CAPTION_LINE = re.compile(r"^(\d+(?:\.\d+)?)-(\d+(?:\.\d+)?): (.*)$")
_QA_QID = re.compile(r"^Question \(qid (.+?)\): ", re.MULTILINE)
_OPTION = re.compile(r"^\(([A-E])\) (.*)$", re.MULTILINE)
_NLQ_QUERY = re.compile(r"^\d+\. \(qid (.+?)\) (.*)$", re.MULTILINE)


def parse_caption_lines(user_text: str) -> list[tuple[float, float, str]]:
    out = []
    for line in user_text.splitlines():
        match = _CAPTION_LINE.match(line)
        if match:
            out.append((float(match.group(1)), float(match.group(2)), match.group(3)))
    return out


def format_reference(answers: Sequence[LlmAnswer]) -> str:
    """Canonical structured-block emitter; the parser's round-trip partner.

    Replay fixtures and scripted backends use this to render responses the
    parser is guaranteed to map back to equal LlmAnswer values.
    """
    entries = []
    for answer in answers:
        entry: dict = {"qid": answer.qid}
        if answer.kind is QueryKind.QA:
            assert answer.choice_idx is not None
            entry["answer"] = CHOICE_LETTERS[answer.choice_idx]
        else:
            entry["intervals"] = (
                "NA"
                if not answer.intervals
                else [list(c) for c in answer.intervals]
            )
        entry["explanation"] = answer.explanation
        entry["confidence"] = answer.confidence
        entries.append(entry)
    return "```json\n" + json.dumps(entries, ensure_ascii=False, indent=2) + "\n```"


class ScriptedQaBackend:
    """Picks the option whose text appears verbatim in the caption log.

    Any other prompt is a caption merge, answered with its first line plus
    " for a while".
    """

    def __init__(self, confidence: int = 3):
        self.confidence = confidence
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
        with self._lock:
            self.calls += 1
        question = _QA_QID.search(user_text)
        if question is None:
            return user_text.split("\n", 1)[0] + " for a while"
        qid = question.group(1)
        log_text = user_text.split("Question (qid", 1)[0]
        letter = "A"
        confidence = 1
        for match in _OPTION.finditer(user_text):
            if match.group(2) and match.group(2) in log_text:
                letter = match.group(1)
                confidence = self.confidence
                break
        entry = {
            "qid": qid,
            "answer": letter,
            "explanation": "an option text appears in the log",
            "confidence": confidence,
        }
        return "```json\n" + json.dumps([entry]) + "\n```"


class ScriptedNlqBackend:
    """Returns the span of the caption line containing the query phrase.

    Queries are phrased "find: <phrase>"; a query whose phrase matches no
    caption line gets NA.
    """

    def __init__(self, confidence: int = 3):
        self.confidence = confidence
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
        with self._lock:
            self.calls += 1
        captions = parse_caption_lines(user_text)
        entries = []
        for match in _NLQ_QUERY.finditer(user_text):
            qid, text = match.group(1), match.group(2)
            phrase = text.split("find: ", 1)[-1]
            intervals = [[s, e] for s, e, t in captions if phrase in t]
            entries.append(
                {
                    "qid": qid,
                    "intervals": intervals if intervals else "NA",
                    "explanation": "span read off the log",
                    "confidence": self.confidence if intervals else 1,
                }
            )
        return "```json\n" + json.dumps(entries) + "\n```"


class CallableBackend:
    """Adapter turning a plain function (system, user) -> text into a backend."""

    def __init__(self, fn):
        self._fn = fn

    def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
        return self._fn(system_text, user_text)


class OverlapBackend:
    """Counts the completions in flight; each meets the others at a barrier.

    With parties=2 every completion waits until a second one is in flight
    too, so a caller that sends them one at a time breaks the barrier
    (BrokenBarrierError after 5 s). With parties=1 nothing waits, and
    max_in_flight shows whether the caller ever overlapped two.
    """

    def __init__(self, parties=2, reply="C kneads the dough"):
        self.reply = reply
        self.in_flight = 0
        self.max_in_flight = 0
        self._barrier = threading.Barrier(parties, timeout=5)
        self._lock = threading.Lock()

    def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            self._barrier.wait()
            time.sleep(0.01)  # leaves room for an overlap to show
            return self.reply
        finally:
            with self._lock:
                self.in_flight -= 1


class HashFailingBackend:
    """Fails a fixed set of prompts, picked by hash, whatever order they come in.

    A completion fails with `error` (TransportError by default) when the
    first byte of the hash of its run index and user text is below
    fail_share of 256; any other completion answers with that hash and its
    sampling seed, or passes the prompt on to `inner` when one is given.
    Each waits up to 5 ms, also by hash, so concurrent completions finish
    out of order.
    """

    def __init__(self, fail_share=0.3, inner=None, error=TransportError):
        self.fail_share = fail_share
        self.inner = inner
        self.error = error

    def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
        digest = hashlib.sha256(f"{run_index}\0{user_text}".encode()).digest()
        time.sleep(digest[1] / 256 * 0.005)
        if digest[0] < 256 * self.fail_share:
            raise self.error(f"prompt {digest.hex()[:8]} fails")
        if self.inner is not None:
            return self.inner.complete(system_text, user_text, sampling_seed, run_index)
        return f"reply {digest.hex()[:8]} seed {sampling_seed}"


@contextmanager
def completion_pool(workers):
    """A pool of that many threads, or None (the caller's thread) for 1."""
    if workers <= 1:
        yield None
        return
    with ThreadPoolExecutor(workers) as pool:
        yield pool


class RecordingEmbedder:
    """The seed-0 mock embedder, recording every batch it is sent.

    threads[k] is the name of the thread that sent calls[k].
    """

    def __init__(self):
        self.inner = MockEmbedder(seed=0)
        self.calls = []
        self.threads = []
        self._lock = threading.Lock()

    def embed_texts(self, texts):
        with self._lock:
            self.calls.append(list(texts))
            self.threads.append(threading.current_thread().name)
        return self.inner.embed_texts(texts)


class ReplayScorer:
    """Candidate scorer with pinned scores keyed by millisecond-rounded endpoints."""

    def __init__(self, scores, default=0.0):
        self._scores = {(round(s, 3), round(e, 3)): v for (s, e), v in scores.items()}
        self._default = default

    def score(self, query_text, intervals, track):
        return [
            self._scores.get((round(s, 3), round(e, 3)), self._default)
            for s, e in intervals
        ]


def synth_qa_benchmark(n_items=50, captions_per_video=12, seed=123):
    """Questions whose correct option is a literal caption text."""
    rng = random.Random(seed)
    tracks: dict[str, CaptionTrack] = {}
    queries: list[Query] = []
    for i in range(n_items):
        vid = f"v{i:03d}"
        texts = [
            f"C performs action {i}-{j} on the bench"
            for j in range(captions_per_video)
        ]
        tracks[vid] = make_track(vid, texts=texts)
        target = rng.randrange(captions_per_video)
        choices = [f"C performs action {i}-x{k} on the bench" for k in range(4)]
        answer_idx = rng.randrange(5)
        choices.insert(answer_idx, texts[target])
        queries.append(
            Query(
                qid=f"q{i:03d}",
                video_id=vid,
                kind=QueryKind.QA,
                text="Which action does C perform?",
                choices=tuple(choices),
                gt_answer_idx=answer_idx,
            )
        )
    return tracks, queries


def questions_per_video(n_videos=3, per_video=4):
    """Several QA questions per video, each with a text of its own."""
    tracks, queries = synth_qa_benchmark(n_items=n_videos, captions_per_video=8)
    many = [
        Query(
            qid=f"{q.qid}-{k}",
            video_id=q.video_id,
            kind=QueryKind.QA,
            text=f"Which action does C perform in {q.video_id}, take {k}?",
            choices=q.choices,
            gt_answer_idx=q.gt_answer_idx,
        )
        for q in queries
        for k in range(per_video)
    ]
    return tracks, many


def synth_nlq_benchmark(n_items=50, captions_per_video=12, seed=321):
    """Localization queries whose answer is a single caption's interval."""
    rng = random.Random(seed)
    tracks: dict[str, CaptionTrack] = {}
    queries: list[Query] = []
    for i in range(n_items):
        vid = f"w{i:03d}"
        texts = [
            f"C moves object {i}-{j} across the table"
            for j in range(captions_per_video)
        ]
        track = make_track(vid, texts=texts)
        tracks[vid] = track
        target = rng.randrange(captions_per_video)
        queries.append(
            Query(
                qid=f"n{i:03d}",
                video_id=vid,
                kind=QueryKind.NLQ,
                text=f"find: {texts[target]}",
                gt_window=track.captions[target].interval,
            )
        )
    return tracks, queries


# Runs STEP in a fresh interpreter, then writes the exit code and the
# modules loaded since start-up to the file named by argv[1].
PROBE = """\
import json, sys
started = set(sys.modules)
code = 0
try:
{step}
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as fh:
    json.dump({{"code": code, "loaded": sorted(set(sys.modules) - started)}}, fh)
"""

SRC = Path(__file__).resolve().parents[1] / "src"


def in_fresh_interpreter(step: str, result: Path) -> tuple[int, list[str]]:
    """The exit code of step and the modules it loaded, in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(step=step), str(result)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    outcome = json.loads(result.read_text())
    return outcome["code"], outcome["loaded"]


def main_step(argv: list[str]) -> str:
    """A step for in_fresh_interpreter that runs the CLI on argv."""
    return f"    from egolog.cli import main\n    code = main({argv!r})\n"


def write_queries(path, queries):
    """Write queries in the queries file format."""
    with open(path, "w", encoding="utf-8") as handle:
        for q in queries:
            if q.kind is QueryKind.QA:
                record = {
                    "qid": q.qid,
                    "video_id": q.video_id,
                    "kind": "qa",
                    "question": q.text,
                    "choices": list(q.choices),
                }
                if q.gt_answer_idx is not None:
                    record["answer_idx"] = q.gt_answer_idx
            else:
                record = {
                    "qid": q.qid,
                    "video_id": q.video_id,
                    "kind": "nlq",
                    "query": q.text,
                }
                if q.gt_window is not None:
                    record["gt"] = list(q.gt_window)
            handle.write(json.dumps(record) + "\n")


def write_config(tmp_path, body: str):
    path = tmp_path / "config.ini"
    path.write_text(body, encoding="utf-8")
    return path


def write_run(tmp_path, tracks=None, queries=None, sections="", extra_paths=""):
    """Write a test run in tmp_path; returns the path of its config.ini.

    The tracks go to captions.jsonl through save_captions and the queries
    to queries.jsonl, each only when given. The config's [paths] section
    names the files written, then holds the lines of extra_paths; the
    caller's own sections follow.
    """
    paths = "[paths]\n"
    if tracks is not None:
        save_captions(tracks, tmp_path / "captions.jsonl")
        paths += "captions = captions.jsonl\n"
    if queries is not None:
        write_queries(tmp_path / "queries.jsonl", queries)
        paths += "queries = queries.jsonl\n"
    return write_config(tmp_path, paths + extra_paths + sections)


def write_generated(out: Path, generated) -> None:
    """Write what a perfbench corpus_gen.gen_* returns as out's captions and queries files."""
    videos, queries, _ = generated
    tracks = {
        v.video_id: make_track(v.video_id, v.texts, step=corpus_gen.STEP_S)
        for v in videos
    }
    save_captions(tracks, out / "captions.jsonl")
    with open(out / "queries.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(query) + "\n" for query in queries)


# every pair of neighbouring captions merges, through the LLM
PAIR_MERGES = (
    "[digest]\nmerge_mode = llm\nrelevance_threshold = -1\n"
    "adjacency_threshold = -1\nmax_merge_group = 2\n"
)


def disk_config(tmp_path, tracks, queries, extra="", extra_paths="", overrides=None):
    """The loaded config of a run written by write_run, seed 2024 and 3 runs."""
    run = "[run]\nseed = 2024\nruns = 3\n" + extra
    return load_config(write_run(tmp_path, tracks, queries, run, extra_paths), overrides or {})


def oracle_iou(a: tuple[float, float], b: tuple[float, float]) -> Fraction:
    """Exact-rational IoU recount, independent of the library formula."""
    s1, e1 = Fraction(a[0]), Fraction(a[1])
    s2, e2 = Fraction(b[0]), Fraction(b[1])
    inter = min(e1, e2) - max(s1, s2)
    if inter <= 0:
        return Fraction(0)
    union = (e1 - s1) + (e2 - s2) - inter
    return inter / union


def _float_iou(a, b) -> float:
    s1, e1 = a
    s2, e2 = b
    lo, hi = max(s1, s2), min(e1, e2)
    if hi <= lo:
        return 0.0
    return (hi - lo) / ((e1 - s1) + (e2 - s2) - (hi - lo))


def oracle_nlq_report(preds, finals, gts, thresholds) -> dict:
    """Exhaustive per-query recount of every localization metric.

    Counts and denominators are re-derived from scratch and returned as
    exact Fractions keyed by metric name.
    """
    answered = [qid for qid in preds if not preds[qid].is_na]
    out = {}
    n_total, n_answered = len(preds), len(answered)
    n_overlap = sum(
        1
        for qid in answered
        if any(_float_iou(c, tuple(gts[qid])) > 0 for c in preds[qid].intervals)
    )
    out["na_ratio"] = (
        Fraction(n_total - n_answered, n_total) if n_total else Fraction(0)
    )
    out["overlap"] = Fraction(n_overlap, n_answered) if n_answered else Fraction(0)
    for t in thresholds:
        hits = sum(
            1
            for qid in answered
            if any(
                _float_iou(c, tuple(gts[qid])) > t
                for c in preds[qid].intervals
            )
        )
        out[("iou_star", t)] = Fraction(hits, n_answered) if n_answered else Fraction(0)
    r1s = []
    for t in thresholds:
        hits = sum(
            1 for qid in finals if _float_iou(tuple(finals[qid]), tuple(gts[qid])) > t
        )
        value = Fraction(hits, len(finals)) if finals else Fraction(0)
        out[("recall_at_1", t)] = value
        r1s.append(value)
    out["r1_mean"] = sum(r1s) / len(r1s) if r1s else Fraction(0)
    return out


def assert_report_matches_oracle(report, preds, finals, gts, thresholds, tol=1e-9):
    """Compare every number of an NLQ report against the recount oracle."""
    oracle = oracle_nlq_report(preds, finals, gts, thresholds)
    assert abs(report["na_ratio"] - oracle["na_ratio"]) <= tol
    assert abs(report["overlap"] - oracle["overlap"]) <= tol
    for t in thresholds:
        assert abs(report["iou_star"][str(t)] - oracle[("iou_star", t)]) <= tol
        assert abs(report["recall_at_1"][str(t)] - oracle[("recall_at_1", t)]) <= tol
    assert abs(report["r1_mean"] - oracle["r1_mean"]) <= tol
    assert report["n_queries"] == len(preds)
    assert report["n_answered"] == sum(1 for a in preds.values() if not a.is_na)


def random_nlq_fixture(rng, n_queries, na_rate=0.25):
    """Random predictions, final windows, and ground truths for recounts."""
    from egolog.corpus import QueryKind
    from egolog.reasoner import LlmAnswer

    preds, finals, gts = {}, {}, {}
    for i in range(n_queries):
        qid = f"q{i}"
        clip_end = rng.uniform(50.0, 500.0)
        gt_start = rng.uniform(0.0, clip_end - 1.0)
        gt_end = gt_start + rng.uniform(0.5, min(60.0, clip_end - gt_start))
        gts[qid] = (gt_start, gt_end)
        confidence = rng.randint(1, 3)
        if rng.random() < na_rate:
            answer = LlmAnswer(qid=qid, kind=QueryKind.NLQ, confidence=confidence)
            finals[qid] = (0.0, clip_end)
        else:
            candidates = []
            for _ in range(rng.randint(1, 3)):
                start = rng.uniform(0.0, clip_end - 0.5)
                end = start + rng.uniform(0.25, 80.0)
                candidates.append((start, end))
            answer = LlmAnswer(
                qid=qid,
                kind=QueryKind.NLQ,
                intervals=tuple(candidates),
                confidence=confidence,
            )
            finals[qid] = rng.choice(candidates)
        preds[qid] = answer
    return preds, finals, gts


def random_qa_fixture(rng, n_queries):
    """Random QA predictions and keys for accuracy recounts."""
    from egolog.corpus import QueryKind
    from egolog.reasoner import LlmAnswer

    preds, gts = {}, {}
    for i in range(n_queries):
        qid = f"q{i}"
        gts[qid] = rng.randrange(5)
        preds[qid] = LlmAnswer(
            qid=qid,
            kind=QueryKind.QA,
            choice_idx=rng.randrange(5),
            confidence=rng.randint(1, 3),
        )
    return preds, gts


def known_key_rows(values: dict) -> st.SearchStrategy:
    """Rows with any subset of the keys of values, each holding one of its
    values or null, and a "source" key that belongs to no record shape."""
    return st.fixed_dictionaries(
        {"source": st.sampled_from([None, "x"])},
        optional={k: st.one_of(st.none(), st.sampled_from(v)) for k, v in values.items()},
    )


def assert_loads_as_its_shape(load, path, row, shapes, picked):
    """load of a file whose one line is row either raises an EgologError
    naming path and line 1, or uses the row as the shape picked(result)
    names, so every non-null key of row that shapes knows belongs to it."""
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    try:
        result = load(path)
    except EgologError as exc:
        assert (exc.path, exc.line) == (str(path), 1), exc
        return
    known = set().union(*shapes.values())
    carried = {k for k, v in row.items() if k in known and v is not None}
    assert carried <= shapes[picked(result)], (row, picked(result))
