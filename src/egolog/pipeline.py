"""End-to-end orchestration: wire config, corpus, backends, and stages.

digest, ask and localize share one unit runner. A unit is (keys,
video_id, queries): one video keyed by its id (digest), one QA question
keyed by its qid (ask), or one video with all of its NLQ queries keyed
by their qids (localize). Units run on in_flight_limit threads. Every
completion of the command (the runs of an ask prompt, the one localize
prompt of a video, the LLM caption merges of a digest) runs on one
completion pool of in_flight_limit squared threads, shared by all units,
so a unit can use the slots another leaves idle and at most
in_flight_limit squared completions are in flight. At in_flight_limit 1
there are no pools: everything runs in the caller's thread. Before each
question, ask sends the digest texts of every question on its video
through the run's embedding cache, so the questions of one video share
one embedding request. Each command has one per-text embedding cache,
in front of an injected embedder as in front of the configured one. A
missing track or an EgologError fails every key of its unit and nothing
else. Outputs and failures come back in input query order (track order
for digest), and each unit's completions in their own order, so results
are byte-identical regardless of pool size.

All derived randomness flows from the config seed: per-question prompts
use (seed, "ask", qid), tie-breaking uses (seed, "vote", qid), per-video
localization uses (seed, "nlq", video_id), and dataset jitter uses
(seed, "refine", qid).
"""

from __future__ import annotations

import contextlib
import json
import logging
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .config import PipelineConfig
from .corpus import (
    CaptionTrack,
    Query,
    QueryKind,
    finite_seconds,
    iter_jsonl,
    load_captions,
    load_queries,
    whole_number,
)
from .digest import DigestStats, MergeMode, digest, embedded_texts
from .ensemble import AnswerPool, vote_by_confidence
from .errors import ConfigError, EgologError, MetricsError, ParseError
from .llm import HttpLlmBackend, LlmBackend, ReplayBackend
from .metrics import EvalReport, evaluate_nlq, evaluate_qa
from .reasoner import (
    CandidateInterval,
    LlmAnswer,
    build_nlq_prompt,
    build_qa_prompt,
    clamp_answer_to_bounds,
    parse_response,
    run,
)
from .refine import (
    CandidateScorer,
    CaptionOverlapScorer,
    gen_refinement_dataset,
    select_candidate,
)
from .retry import map_in_order
from .seeding import derive_seed
from .similarity import CachedEmbedder, EmbedderBackend, HttpEmbedder, MockEmbedder

logger = logging.getLogger(__name__)

T = TypeVar("T")
Unit = tuple[list[str], str, list[Query]]


@dataclass(frozen=True)
class UnitFailure:
    """One failed work unit, keyed by qid (or video id for whole videos)."""

    qid: str
    error: str


def build_embedder(config: PipelineConfig) -> CachedEmbedder:
    """The configured embedding backend behind the run's per-text cache."""
    if config.embedder_kind == "mock":
        # the mock stands in for a fixed pretrained model, so its features
        # do not vary with the pipeline seed
        return CachedEmbedder(MockEmbedder(seed=0, dim=config.embedder_dim))
    return CachedEmbedder(
        HttpEmbedder(config.embedder_endpoint, auth_env=config.embedder_auth_env)
    )


def build_llm(config: PipelineConfig) -> LlmBackend:
    if config.llm_kind == "replay":
        if config.transcripts_path is None:
            raise ConfigError("llm.kind is replay but paths.transcripts is not set")
        return ReplayBackend.from_file(config.transcripts_path)
    return HttpLlmBackend(config.llm_endpoint, auth_env=config.llm_auth_env)


def _require(path, name: str):
    if path is None:
        raise ConfigError(f"paths.{name} is required for this command")
    return path


def _log_event(stage: str, **fields) -> None:
    logger.info(json.dumps({"event": stage, **fields}, sort_keys=True))


def _load_inputs(
    config: PipelineConfig, kind: QueryKind
) -> tuple[dict[str, CaptionTrack], list[Query]]:
    """The caption tracks and the queries of one kind, in file order."""
    tracks = load_captions(_require(config.captions_path, "captions"))
    queries = [
        q
        for q in load_queries(_require(config.queries_path, "queries"))
        if q.kind is kind
    ]
    if not queries:
        raise ConfigError(f"the queries file contains no {kind.name} items")
    return tracks, queries


def _by_video(queries: Sequence[Query]) -> dict[str, list[Query]]:
    """Queries grouped by video, videos and queries in input order."""
    grouped: dict[str, list[Query]] = {}
    for query in queries:
        grouped.setdefault(query.video_id, []).append(query)
    return grouped


def _run_units(
    command: str,
    config: PipelineConfig,
    tracks: dict[str, CaptionTrack],
    units: Sequence[Unit],
    work: Callable[[CaptionTrack, list[Query], Executor | None], dict[str, T]],
    order: Sequence[str],
) -> tuple[list[T], list[UnitFailure]]:
    """Map work over units; returns outputs and failures by order.

    work gets the unit's track, its queries and the completion pool, and
    returns one output per key of its unit. A missing track or an
    EgologError fails every key of the unit and nothing else.

    At in_flight_limit n > 1 units run on n threads and every completion
    on one pool of n * n threads; at 1 both run in the caller's thread.
    No deadlock: unit tasks wait only on the completion pool, and
    completion tasks wait on no pool.
    """

    def one(unit: Unit) -> dict[str, T | UnitFailure]:
        keys, video_id, queries = unit
        started = time.monotonic()
        try:
            if video_id not in tracks:
                raise ConfigError(f"no captions for video {video_id!r}")
            outputs = work(tracks[video_id], queries, completions)
        except EgologError as exc:
            return {key: UnitFailure(key, str(exc)) for key in keys}
        _log_event(
            command,
            video_id=video_id,
            keys=keys,
            duration_ms=round((time.monotonic() - started) * 1000, 1),
        )
        return outputs

    limit = config.in_flight_limit
    with contextlib.ExitStack() as pools:
        unit_pool = completions = None
        if limit > 1:
            unit_pool = pools.enter_context(
                ThreadPoolExecutor(limit, thread_name_prefix="egolog-unit")
            )
            completions = pools.enter_context(
                ThreadPoolExecutor(limit * limit, thread_name_prefix="egolog-completion")
            )
        by_key: dict[str, T | UnitFailure] = {}
        for results in map_in_order(one, units, unit_pool):
            by_key.update(results)
    ordered = [by_key[key] for key in order if key in by_key]
    failures = [r for r in ordered if isinstance(r, UnitFailure)]
    return [r for r in ordered if not isinstance(r, UnitFailure)], failures


def run_digest(
    config: PipelineConfig,
    *,
    embedder: EmbedderBackend | None = None,
    llm: LlmBackend | None = None,
) -> tuple[dict[str, CaptionTrack], dict[str, DigestStats], list[UnitFailure]]:
    """Digest every track; returns digested tracks, per-video stats, failures.

    embedder and llm default to the backends named in the config; tests may
    inject substitutes.
    """
    tracks = load_captions(_require(config.captions_path, "captions"))
    queries = (
        load_queries(config.queries_path) if config.queries_path is not None else []
    )
    embedder = build_embedder(config) if embedder is None else CachedEmbedder(embedder)
    if llm is None and config.digest.merge_mode is MergeMode.LLM:
        llm = build_llm(config)

    def digest_video(
        track: CaptionTrack, qs: list[Query], pool: Executor | None
    ) -> dict:
        return {track.video_id: digest(track, qs, embedder, llm, config.digest, pool)}

    by_video = _by_video(queries)
    units = [([vid], vid, by_video.get(vid, [])) for vid in tracks]
    results, failures = _run_units(
        "digest", config, tracks, units, digest_video, list(tracks)
    )
    digested_tracks = {track.video_id: track for track, _ in results}
    stats_by_video = {track.video_id: stats for track, stats in results}
    return digested_tracks, stats_by_video, failures


def run_ask(
    config: PipelineConfig,
    *,
    embedder: EmbedderBackend | None = None,
    llm: LlmBackend | None = None,
) -> tuple[list[dict], list[UnitFailure]]:
    """Answer every QA query: digest, prompt, repeated runs, vote.

    When a video has several questions, each question first sends the
    texts that the digests of all of them embed through the run's cache,
    so the first fetches them in one request and the others wait for it.
    A failed request is logged and ignored: each question then fetches
    its own texts and fails on its own.
    """
    tracks, queries = _load_inputs(config, QueryKind.QA)
    embedder = build_embedder(config) if embedder is None else CachedEmbedder(embedder)
    if llm is None:
        llm = build_llm(config)
    shared_texts = {
        vid: embedded_texts(tracks[vid], qs, config.digest)
        for vid, qs in _by_video(queries).items()
        if len(qs) > 1 and vid in tracks
    }

    def answer(
        track: CaptionTrack, unit_queries: list[Query], pool: Executor | None
    ) -> dict[str, dict]:
        (query,) = unit_queries
        texts = shared_texts.get(track.video_id)
        if texts:
            try:
                embedder.embed_texts(texts)
            except EgologError as exc:
                logger.warning(
                    "shared embedding request for video %r failed: %s; "
                    "each question fetches its own texts",
                    track.video_id,
                    exc,
                )
        digested, _ = digest(track, [query], embedder, llm, config.digest, pool)
        prompt = build_qa_prompt(digested, query)
        replies = run(
            prompt,
            llm,
            config.runs,
            derive_seed(config.seed, "ask", query.qid),
            pool=pool,
        )
        answers = []
        for run_index, reply in enumerate(replies):
            if isinstance(reply, EgologError):
                continue
            try:
                answers.extend(parse_response(reply, QueryKind.QA, [query.qid]))
            except ParseError as exc:
                logger.warning(
                    "discarding run %d for qid %r: %s", run_index, query.qid, exc
                )
        if not answers:
            raise ParseError(f"no usable answers from {config.runs} runs")
        chosen = vote_by_confidence(
            AnswerPool(query.qid, tuple(answers)),
            derive_seed(config.seed, "vote", query.qid),
        )
        return {
            query.qid: {
                "qid": query.qid,
                "choice": chosen.choice_idx,
                "confidence": chosen.confidence,
                "explanation": chosen.explanation,
            }
        }

    units = [([q.qid], q.video_id, [q]) for q in queries]
    return _run_units("ask", config, tracks, units, answer, [q.qid for q in queries])


def run_localize(
    config: PipelineConfig,
    *,
    embedder: EmbedderBackend | None = None,
    llm: LlmBackend | None = None,
    scorer: CandidateScorer | None = None,
) -> tuple[list[dict], list[UnitFailure]]:
    """Localize every NLQ query: digest per video, one batched prompt, refine."""
    tracks, queries = _load_inputs(config, QueryKind.NLQ)
    embedder = build_embedder(config) if embedder is None else CachedEmbedder(embedder)
    if llm is None:
        llm = build_llm(config)
    if scorer is None:
        scorer = CaptionOverlapScorer(embedder, config.digest.relevance_threshold)

    def localize(
        track: CaptionTrack, video_queries: list[Query], pool: Executor | None
    ) -> dict[str, dict]:
        digested, _ = digest(track, video_queries, embedder, llm, config.digest, pool)
        prompt = build_nlq_prompt(digested, video_queries)
        (reply,) = run(
            prompt, llm, 1, derive_seed(config.seed, "nlq", track.video_id), pool=pool
        )
        if isinstance(reply, EgologError):
            raise reply
        answers = parse_response(reply, QueryKind.NLQ, [q.qid for q in video_queries])
        records: dict[str, dict] = {}
        for query, answer in zip(video_queries, answers):
            clamped = clamp_answer_to_bounds(answer, digested.bounds)
            final = select_candidate(
                clamped, digested, scorer, config.refine, query_text=query.text
            )
            records[query.qid] = {
                "qid": query.qid,
                "predicted_window": [round(final.start_s, 3), round(final.end_s, 3)],
                "confidence": clamped.confidence,
                "explanation": clamped.explanation,
                "candidates": [
                    [round(c.start_s, 3), round(c.end_s, 3)] for c in clamped.intervals
                ],
                "na": clamped.is_na,
            }
        return records

    units = [([q.qid for q in qs], vid, qs) for vid, qs in _by_video(queries).items()]
    return _run_units(
        "localize", config, tracks, units, localize, [q.qid for q in queries]
    )


def run_gen_refine_data(config: PipelineConfig) -> list[dict]:
    """Generate the balanced refinement dataset from NLQ ground truths."""
    tracks = load_captions(_require(config.captions_path, "captions"))
    queries = load_queries(_require(config.queries_path, "queries"))
    targets = [
        q for q in queries if q.kind is QueryKind.NLQ and q.gt_window is not None
    ]
    if not targets:
        raise ConfigError("the queries file contains no NLQ items with ground truth")
    gts = []
    for query in targets:
        track = tracks.get(query.video_id)
        if track is None:
            raise ConfigError(
                f"query {query.qid!r} references video {query.video_id!r} "
                "with no captions"
            )
        gts.append((query.qid, query.gt_window, track.bounds))
    records = gen_refinement_dataset(gts, config.refine, config.seed)
    _log_event("gen-refine-data", queries=len(targets), samples=len(records))
    return records


def _read_prediction_rows(path) -> list[tuple[str, int, dict]]:
    """(qid, line number, row) per prediction; every qid present and distinct."""
    rows: list[tuple[str, int, dict]] = []
    first_line: dict[str, int] = {}
    for lineno, row in iter_jsonl(path):
        if "qid" not in row:
            raise MetricsError(f"prediction has no 'qid' in {path} at line {lineno}")
        qid = str(row["qid"])
        if qid in first_line:
            raise MetricsError(
                f"duplicate prediction for {qid!r} in {path} at line {lineno}"
                f" (first at line {first_line[qid]})"
            )
        first_line[qid] = lineno
        rows.append((qid, lineno, row))
    return rows


def _seconds(value) -> float:
    """A window bound of a prediction row, unrounded.

    A bool or a non-finite number raises ValueError.
    """
    if isinstance(value, bool):
        raise ValueError(f"window bounds must be numbers, got {value!r}")
    return finite_seconds(value)


def _prediction(
    qid: str, row: dict, kind: QueryKind
) -> tuple[LlmAnswer, tuple[float, float] | None]:
    """The answer a prediction row carries, plus its final window for NLQ."""
    common = dict(
        qid=qid,
        kind=kind,
        confidence=whole_number(row.get("confidence", 1), "confidence"),
        explanation=str(row.get("explanation", "")),
    )
    if kind is QueryKind.QA:
        return LlmAnswer(choice_idx=whole_number(row["choice"], "choice"), **common), None
    candidates = tuple(
        CandidateInterval(_seconds(c[0]), _seconds(c[1]))
        for c in row.get("candidates", [])
    )
    bounds = row["predicted_window"]
    window = CandidateInterval(_seconds(bounds[0]), _seconds(bounds[1]))
    return LlmAnswer(intervals=candidates, **common), window.as_pair()


def run_eval(config: PipelineConfig, predictions_path, task: str) -> EvalReport:
    """Score a predictions file against the ground truth in the queries file.

    A prediction row without a qid or the answer field of the task, with a
    value of the wrong type (a bool anywhere, a confidence or choice with a
    fractional part) or with a repeated qid raises MetricsError naming the
    file and line.
    """
    if task not in ("qa", "nlq"):
        raise ConfigError(f"task must be qa or nlq, got {task!r}")
    kind = QueryKind(task)
    queries = load_queries(_require(config.queries_path, "queries"))
    by_qid = {q.qid: q for q in queries}
    rows = _read_prediction_rows(predictions_path)

    unknown = sorted({qid for qid, _, _ in rows} - set(by_qid))
    if unknown:
        raise MetricsError(f"predictions for unknown qids: {unknown}")
    gts = {
        qid: by_qid[qid].gt_answer_idx if task == "qa" else by_qid[qid].gt_window
        for qid, _, _ in rows
    }
    missing_gt = sorted(qid for qid, gt in gts.items() if gt is None)
    if missing_gt:
        raise MetricsError(f"queries without ground truth: {missing_gt}")
    wrong_kind = sorted(qid for qid in gts if by_qid[qid].kind is not kind)
    if wrong_kind:
        raise MetricsError(f"predictions for non-{task} queries: {wrong_kind}")

    field = "choice" if kind is QueryKind.QA else "predicted_window"
    preds = {}
    finals = {}
    for qid, lineno, row in rows:
        where = f"in {predictions_path} at line {lineno}"
        if field not in row:
            raise MetricsError(f"prediction for {qid!r} has no {field!r} {where}")
        try:
            preds[qid], finals[qid] = _prediction(qid, row, kind)
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise MetricsError(f"bad prediction for {qid!r}: {exc} {where}") from exc
    if kind is QueryKind.QA:
        return evaluate_qa(preds, gts)
    return evaluate_nlq(preds, finals, gts)
