"""End-to-end orchestration: wire config, corpus, backends, and stages.

Each command maps a list of independent work units (one QA question, or
one video with all of its localization queries) over a thread pool
bounded by in_flight_limit. Unit outputs are collected in input order,
so results are byte-identical regardless of pool size. Failures are
recorded per unit and never abort the whole run.

All derived randomness flows from the config seed: per-question prompts
use (seed, "ask", qid), tie-breaking uses (seed, "vote", qid), per-video
localization uses (seed, "nlq", video_id), and dataset jitter uses
(seed, "refine", qid).
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .config import PipelineConfig
from .corpus import (
    CaptionTrack,
    Query,
    QueryKind,
    iter_jsonl,
    load_captions,
    load_queries,
)
from .digest import DigestStats, MergeMode, digest
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
    sample_to_record,
    select_candidate,
)
from .seeding import derive_seed
from .similarity import CachedEmbedder, EmbedderBackend, HttpEmbedder, MockEmbedder

logger = logging.getLogger(__name__)

T = TypeVar("T")
U = TypeVar("U")


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


def _map_units(
    fn: Callable[[T], U], units: Sequence[T], in_flight_limit: int
) -> list[U]:
    if in_flight_limit <= 1 or len(units) <= 1:
        return [fn(unit) for unit in units]
    with ThreadPoolExecutor(max_workers=in_flight_limit) as pool:
        return list(pool.map(fn, units))


def _log_event(stage: str, **fields) -> None:
    logger.info(json.dumps({"event": stage, **fields}, sort_keys=True))


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
    if embedder is None:
        embedder = build_embedder(config)
    if llm is None and config.digest.merge_mode is MergeMode.LLM:
        llm = build_llm(config)

    def one(
        item: tuple[str, CaptionTrack],
    ) -> tuple[str, CaptionTrack | None, DigestStats | None, UnitFailure | None]:
        video_id, track = item
        started = time.monotonic()
        video_queries = [q for q in queries if q.video_id == video_id]
        try:
            digested, stats = digest(track, video_queries, embedder, llm, config.digest)
        except EgologError as exc:
            return video_id, None, None, UnitFailure(video_id, str(exc))
        _log_event(
            "digest",
            video_id=video_id,
            captions_in=stats.input_captions,
            captions_out=stats.output_captions,
            duration_ms=round((time.monotonic() - started) * 1000, 1),
        )
        return video_id, digested, stats, None

    results = _map_units(one, list(tracks.items()), config.in_flight_limit)
    digested_tracks: dict[str, CaptionTrack] = {}
    stats_by_video: dict[str, DigestStats] = {}
    failures: list[UnitFailure] = []
    for video_id, digested, stats, failure in results:
        if failure is not None:
            failures.append(failure)
            continue
        digested_tracks[video_id] = digested
        stats_by_video[video_id] = stats
    return digested_tracks, stats_by_video, failures


def run_ask(
    config: PipelineConfig,
    *,
    embedder: EmbedderBackend | None = None,
    llm: LlmBackend | None = None,
) -> tuple[list[dict], list[UnitFailure]]:
    """Answer every QA query: digest, prompt, repeated runs, vote."""
    tracks = load_captions(_require(config.captions_path, "captions"))
    queries = [
        q
        for q in load_queries(_require(config.queries_path, "queries"))
        if q.kind is QueryKind.QA
    ]
    if not queries:
        raise ConfigError("the queries file contains no QA items")
    if embedder is None:
        embedder = build_embedder(config)
    if llm is None:
        llm = build_llm(config)

    def one(query: Query) -> tuple[dict | None, UnitFailure | None]:
        started = time.monotonic()
        track = tracks.get(query.video_id)
        if track is None:
            return None, UnitFailure(query.qid, f"no captions for video {query.video_id!r}")
        try:
            digested, _ = digest(track, [query], embedder, llm, config.digest)
            prompt = build_qa_prompt(digested, query)
            outcome = run(
                prompt, llm, config.runs, derive_seed(config.seed, "ask", query.qid)
            )
            answers = []
            parse_failures = 0
            for response in outcome.responses:
                try:
                    answers.extend(
                        parse_response(response.text, QueryKind.QA, [query.qid])
                    )
                except ParseError as exc:
                    parse_failures += 1
                    logger.warning(
                        "discarding run %d for qid %r: %s",
                        response.run_index,
                        query.qid,
                        exc,
                    )
            if not answers:
                return None, UnitFailure(
                    query.qid, f"no usable answers from {config.runs} runs"
                )
            chosen = vote_by_confidence(
                AnswerPool(query.qid, tuple(answers)),
                derive_seed(config.seed, "vote", query.qid),
            )
        except EgologError as exc:
            return None, UnitFailure(query.qid, str(exc))
        _log_event(
            "ask",
            qid=query.qid,
            video_id=query.video_id,
            votes=len(answers),
            runs_failed=len(outcome.failures),
            parse_failures=parse_failures,
            duration_ms=round((time.monotonic() - started) * 1000, 1),
        )
        record = {
            "qid": query.qid,
            "choice": chosen.choice_idx,
            "confidence": chosen.confidence,
            "explanation": chosen.explanation,
        }
        return record, None

    results = _map_units(one, queries, config.in_flight_limit)
    records = [r for r, _ in results if r is not None]
    failures = [f for _, f in results if f is not None]
    return records, failures


def run_localize(
    config: PipelineConfig,
    *,
    embedder: EmbedderBackend | None = None,
    llm: LlmBackend | None = None,
    scorer: CandidateScorer | None = None,
) -> tuple[list[dict], list[UnitFailure]]:
    """Localize every NLQ query: digest per video, one batched prompt, refine."""
    tracks = load_captions(_require(config.captions_path, "captions"))
    queries = [
        q
        for q in load_queries(_require(config.queries_path, "queries"))
        if q.kind is QueryKind.NLQ
    ]
    if not queries:
        raise ConfigError("the queries file contains no NLQ items")
    if embedder is None:
        embedder = build_embedder(config)
    if llm is None:
        llm = build_llm(config)
    if scorer is None:
        scorer = CaptionOverlapScorer(embedder, config.digest.relevance_threshold)

    by_video: dict[str, list[Query]] = {}
    for query in queries:
        by_video.setdefault(query.video_id, []).append(query)

    def one(
        item: tuple[str, list[Query]],
    ) -> tuple[dict[str, dict], list[UnitFailure]]:
        video_id, video_queries = item
        started = time.monotonic()
        track = tracks.get(video_id)
        if track is None:
            error = f"no captions for video {video_id!r}"
            return {}, [UnitFailure(q.qid, error) for q in video_queries]
        try:
            digested, _ = digest(track, video_queries, embedder, llm, config.digest)
            prompt = build_nlq_prompt(digested, video_queries)
            outcome = run(
                prompt, llm, 1, derive_seed(config.seed, "nlq", video_id)
            )
            if not outcome.responses:
                error = outcome.failures[0].error if outcome.failures else "no response"
                return {}, [UnitFailure(q.qid, error) for q in video_queries]
            answers = parse_response(
                outcome.responses[0].text,
                QueryKind.NLQ,
                [q.qid for q in video_queries],
            )
            records: dict[str, dict] = {}
            for query, answer in zip(video_queries, answers):
                clamped = clamp_answer_to_bounds(answer, digested.bounds)
                final = select_candidate(
                    clamped, digested, scorer, config.refine, query_text=query.text
                )
                records[query.qid] = {
                    "qid": query.qid,
                    "predicted_window": [
                        round(final.start_s, 3),
                        round(final.end_s, 3),
                    ],
                    "confidence": clamped.confidence,
                    "explanation": clamped.explanation,
                    "candidates": [
                        [round(c.start_s, 3), round(c.end_s, 3)]
                        for c in clamped.intervals
                    ],
                    "na": clamped.is_na,
                }
        except EgologError as exc:
            return {}, [UnitFailure(q.qid, str(exc)) for q in video_queries]
        _log_event(
            "localize",
            video_id=video_id,
            queries=len(video_queries),
            duration_ms=round((time.monotonic() - started) * 1000, 1),
        )
        return records, []

    results = _map_units(one, list(by_video.items()), config.in_flight_limit)
    by_qid: dict[str, dict] = {}
    failed: dict[str, UnitFailure] = {}
    for records, unit_failures in results:
        by_qid.update(records)
        for failure in unit_failures:
            failed[failure.qid] = failure
    # emit in input query order
    records_out = [by_qid[q.qid] for q in queries if q.qid in by_qid]
    failures_out = [failed[q.qid] for q in queries if q.qid in failed]
    return records_out, failures_out


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
    samples = gen_refinement_dataset(
        gts, config.refine, config.seed, samples_per_gt=config.samples_per_gt
    )
    _log_event("gen-refine-data", queries=len(targets), samples=len(samples))
    return [sample_to_record(s) for s in samples]


def _read_prediction_rows(path) -> list[dict]:
    return [row for _, row in iter_jsonl(path)]


def run_eval(config: PipelineConfig, predictions_path, task: str) -> EvalReport:
    """Score a predictions file against the ground truth in the queries file."""
    if task not in ("qa", "nlq"):
        raise ConfigError(f"task must be qa or nlq, got {task!r}")
    queries = load_queries(_require(config.queries_path, "queries"))
    by_qid = {q.qid: q for q in queries}
    rows = _read_prediction_rows(predictions_path)

    unknown = sorted({str(r.get("qid")) for r in rows} - set(by_qid))
    if unknown:
        raise MetricsError(f"predictions for unknown qids: {unknown}")
    missing_gt = sorted(
        str(r["qid"])
        for r in rows
        if (
            by_qid[str(r["qid"])].gt_answer_idx is None
            if task == "qa"
            else by_qid[str(r["qid"])].gt_window is None
        )
    )
    if missing_gt:
        raise MetricsError(f"queries without ground truth: {missing_gt}")
    wrong_kind = sorted(
        str(r["qid"]) for r in rows if by_qid[str(r["qid"])].kind.value != task
    )
    if wrong_kind:
        raise MetricsError(f"predictions for non-{task} queries: {wrong_kind}")

    if task == "qa":
        preds = {}
        gts_qa = {}
        for row in rows:
            qid = str(row["qid"])
            preds[qid] = LlmAnswer(
                qid=qid,
                kind=QueryKind.QA,
                choice_idx=int(row["choice"]),
                confidence=int(row.get("confidence", 1)),
                explanation=str(row.get("explanation", "")),
            )
            gts_qa[qid] = by_qid[qid].gt_answer_idx
        return evaluate_qa(preds, gts_qa)

    preds = {}
    finals = {}
    gts_nlq = {}
    for row in rows:
        qid = str(row["qid"])
        candidates = tuple(
            CandidateInterval(float(c[0]), float(c[1]))
            for c in row.get("candidates", [])
        )
        preds[qid] = LlmAnswer(
            qid=qid,
            kind=QueryKind.NLQ,
            intervals=candidates,
            confidence=int(row.get("confidence", 1)),
            explanation=str(row.get("explanation", "")),
        )
        window = row["predicted_window"]
        finals[qid] = (float(window[0]), float(window[1]))
        gts_nlq[qid] = by_qid[qid].gt_window
    return evaluate_nlq(preds, finals, gts_nlq)
