"""End-to-end orchestration: wire config, corpus, backends, and stages.

digest, ask and localize share one unit runner. A Unit is one video: its
track, its queries, its own embedding cache and the command's completion
pool. Its outputs and failures are keyed by its video id (digest) or by
its qids (ask, localize). Units run on in_flight_limit threads. Every
completion of the command (the runs of every question of a video, sent
in one map by ask; the one localize prompt of a video; the LLM caption
merges of a digest) runs on one completion pool of in_flight_limit
squared threads, shared by all units, so a unit can use the slots
another leaves idle and at most in_flight_limit squared completions are
in flight. At in_flight_limit 1 there are no pools: everything runs in
the caller's thread. Each unit has its own per-text embedding cache, in
front of an injected embedder as in front of the configured one, and
drops it when it ends, so a text shared by several videos is embedded
once per video. On a video with several questions, ask first embeds all
of the video's caption texts and question texts in one batch. A missing
track or an EgologError fails every key of its unit and nothing else; an
ask question whose digest or runs fail fails alone. Outputs and failures
come back in input query order (track order for digest), and each unit's
completions in their own order, so results are byte-identical regardless
of pool size.

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
from typing import Callable, Sequence

from .config import PipelineConfig
from .corpus import (
    CaptionTrack,
    Query,
    QueryKind,
    load_captions,
    load_clip_bounds,
    load_queries,
)
from .digest import DigestStats, MergeMode, digest
from .ensemble import AnswerPool, vote_by_confidence
from .errors import ConfigError, EgologError, ParseError
from .llm import HttpLlmBackend, LlmBackend, ReplayBackend
from .metrics import evaluate_nlq, evaluate_qa, load_predictions, prediction_row
from .reasoner import build_nlq_prompt, build_qa_prompt, parse_response, run
from .refine import CaptionOverlapScorer, gen_refinement_dataset, select_candidate
from .retry import map_in_order
from .seeding import derive_seed
from .similarity import CachedEmbedder, EmbedderBackend, HttpEmbedder, MockEmbedder

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Unit:
    """One video's work, owned by the one thread that runs it: no lock."""

    track: CaptionTrack
    queries: list[Query]
    cache: CachedEmbedder
    pool: Executor | None


@dataclass(frozen=True)
class UnitFailure:
    """One failed work unit, keyed by qid (or video id for whole videos)."""

    qid: str
    error: str


def build_embedder(config: PipelineConfig) -> EmbedderBackend:
    """The configured embedding backend; each unit puts its own cache in front."""
    if config.embedder_kind == "mock":
        # the mock stands in for a fixed pretrained model, so its features
        # do not vary with the pipeline seed
        return MockEmbedder(seed=0, dim=config.embedder_dim)
    return HttpEmbedder(config.embedder_endpoint, auth_env=config.embedder_auth_env)


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


def _run_units(
    command: str,
    config: PipelineConfig,
    tracks: dict[str, CaptionTrack],
    queries: Sequence[Query],
    work: Callable[[Unit], dict],
    embedder: EmbedderBackend | None,
    per_track: bool = False,
) -> tuple[list, list[UnitFailure]]:
    """Map work over one Unit per video; returns outputs and failures.

    The units are the videos of queries, keyed by their qids, and outputs
    come back in query order; per_track (digest), every track, keyed by
    its video id, with its queries (maybe none), in track order. Each
    Unit's cache sits in front of embedder, or of the configured backend
    if that is None. work returns an output or a UnitFailure for every key
    of its unit. A missing track or an EgologError fails every key of the
    unit and nothing else.

    At in_flight_limit n > 1 units run on n threads and every completion
    on one pool of n * n threads; at 1 both run in the caller's thread.
    No deadlock: unit tasks wait only on the completion pool, and
    completion tasks wait on no pool. Completion tasks never embed, so
    each unit's cache is used by its unit's thread alone.
    """
    backend = build_embedder(config) if embedder is None else embedder
    by_video: dict[str, list[Query]] = {}
    for query in queries:
        by_video.setdefault(query.video_id, []).append(query)
    if per_track:
        plan = [([vid], vid, by_video.get(vid, [])) for vid in tracks]
        order = list(tracks)
    else:
        plan = [([q.qid for q in qs], vid, qs) for vid, qs in by_video.items()]
        order = [q.qid for q in queries]

    def one(planned: tuple[list[str], str, list[Query]]) -> dict:
        keys, video_id, unit_queries = planned
        started = time.monotonic()
        try:
            if video_id not in tracks:
                raise ConfigError(f"no captions for video {video_id!r}")
            track, cache = tracks[video_id], CachedEmbedder(backend)
            outputs = work(Unit(track, unit_queries, cache, completions))
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
        by_key: dict = {}
        for results in map_in_order(one, plan, unit_pool):
            by_key.update(results)
    ordered = [by_key[key] for key in order]
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
    if llm is None and config.digest.merge_mode is MergeMode.LLM:
        llm = build_llm(config)

    def digest_video(unit: Unit) -> dict:
        video = digest(unit.track, unit.queries, unit.cache, llm, config.digest, unit.pool)
        return {unit.track.video_id: video}

    results, failures = _run_units(
        "digest", config, tracks, queries, digest_video, embedder, per_track=True
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

    One unit per video: it embeds the video's caption and question texts
    in one batch when it has several questions (a failed batch is logged,
    and each question then fetches its own), digests and prompts each
    question in order, and sends every run of every question in one map.
    """
    tracks, queries = _load_inputs(config, QueryKind.QA)
    if llm is None:
        llm = build_llm(config)

    def vote(query: Query, replies: list) -> dict | UnitFailure:
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
            return UnitFailure(query.qid, f"no usable answers from {config.runs} runs")
        chosen = vote_by_confidence(
            AnswerPool(query.qid, tuple(answers)),
            derive_seed(config.seed, "vote", query.qid),
        )
        return prediction_row(chosen)

    def answer(unit: Unit) -> dict[str, dict | UnitFailure]:
        track, qs, cache = unit.track, unit.queries, unit.cache
        if len(qs) > 1:
            try:
                cache.embed_texts([c.text for c in track.captions] + [q.text for q in qs])
            except EgologError as exc:
                logger.warning(
                    "shared embedding request for video %r failed: %s; "
                    "each question fetches its own texts",
                    track.video_id,
                    exc,
                )
        outcomes: dict[str, dict | UnitFailure] = {}
        asked, jobs = [], []
        for query in qs:
            try:
                digested, _ = digest(track, [query], cache, llm, config.digest, unit.pool)
            except EgologError as exc:
                outcomes[query.qid] = UnitFailure(query.qid, str(exc))
                continue
            asked.append(query)
            prompt = build_qa_prompt(digested, query)
            jobs.append((prompt, derive_seed(config.seed, "ask", query.qid)))
        for query, replies in zip(asked, run(jobs, llm, config.runs, pool=unit.pool)):
            outcomes[query.qid] = vote(query, replies)
        return outcomes

    return _run_units("ask", config, tracks, queries, answer, embedder)


def run_localize(
    config: PipelineConfig,
    *,
    embedder: EmbedderBackend | None = None,
    llm: LlmBackend | None = None,
) -> tuple[list[dict], list[UnitFailure]]:
    """Localize every NLQ query: digest per video, one batched prompt, refine."""
    tracks, queries = _load_inputs(config, QueryKind.NLQ)
    if llm is None:
        llm = build_llm(config)

    def localize(unit: Unit) -> dict[str, dict]:
        qs = unit.queries
        digested, _ = digest(unit.track, qs, unit.cache, llm, config.digest, unit.pool)
        # one scorer per unit: it keeps the digested captions' embeddings
        scorer = CaptionOverlapScorer(unit.cache, config.digest.relevance_threshold)
        prompt = build_nlq_prompt(digested, qs)
        seed = derive_seed(config.seed, "nlq", unit.track.video_id)
        ((reply,),) = run([(prompt, seed)], llm, 1, pool=unit.pool)
        if isinstance(reply, EgologError):
            raise reply
        answers = parse_response(reply, QueryKind.NLQ, [q.qid for q in qs], digested.bounds)
        finals = [
            select_candidate(answer, digested, scorer, config.refine, query_text=query.text)
            for query, answer in zip(qs, answers)
        ]
        return {q.qid: prediction_row(a, f) for q, a, f in zip(qs, answers, finals)}

    return _run_units("localize", config, tracks, queries, localize, embedder)


def run_gen_refine_data(config: PipelineConfig) -> list[dict]:
    """Generate the balanced refinement dataset from NLQ ground truths."""
    clips = load_clip_bounds(_require(config.captions_path, "captions"))
    queries = load_queries(_require(config.queries_path, "queries"))
    targets = [
        q for q in queries if q.kind is QueryKind.NLQ and q.gt_window is not None
    ]
    if not targets:
        raise ConfigError("the queries file contains no NLQ items with ground truth")
    gts = []
    for query in targets:
        bounds = clips.get(query.video_id)
        if bounds is None:
            raise ConfigError(
                f"query {query.qid!r} references video {query.video_id!r} "
                "with no captions"
            )
        gts.append((query.qid, query.gt_window, bounds))
    records = gen_refinement_dataset(gts, config.refine, config.seed)
    _log_event("gen-refine-data", queries=len(targets), samples=len(records))
    return records


def run_eval(config: PipelineConfig, predictions_path, task: str) -> dict:
    """Score a predictions file against the ground truth in the queries file.

    Loads the queries, then the task's predictions checked against them
    (see metrics.load_predictions), and scores every query of the task
    that has ground truth; one without a prediction is a miss.
    """
    if task not in ("qa", "nlq"):
        raise ConfigError(f"task must be qa or nlq, got {task!r}")
    kind = QueryKind(task)
    by_qid = {q.qid: q for q in load_queries(_require(config.queries_path, "queries"))}
    preds, finals = load_predictions(predictions_path, kind, by_qid)
    gts = {qid: q.gt for qid, q in by_qid.items() if q.kind is kind and q.gt is not None}
    if kind is QueryKind.QA:
        return evaluate_qa(preds, gts)
    return evaluate_nlq(preds, finals, gts)
