"""Traced run: spans around the public functions of each egolog module.

The tracer replaces module attributes that egolog looks up at call time
(`egolog.pipeline.digest`, `egolog.digest.filter_by_relevance`,
`HttpLlmBackend.complete`, ...) with wrappers that record one span per
call: name, layer, start, end, parent span and thread. Spans of one work
unit share its `qid` (ask) or `video_id` (localize, digest), taken from the
call's arguments or inherited. Worker-thread spans hang under the span the
main thread is in, which is the `run_*` call that owns the pool.

`cosine` is not wrapped: it runs 10^5 to 10^6 times per pass and would
swamp the trace; its cost shows in its callers' self time. A target that
no longer exists is skipped, and every metric built only from skipped
targets reads null ("absent") instead of failing the run.

Spans stay in memory and are written as JSONL when the pass ends.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import statistics
import threading
import time
from pathlib import Path

LAYERS = (
    "corpus", "config", "digest", "similarity", "llm", "retry", "reasoner",
    "ensemble", "refine", "metrics", "pipeline", "cli",
)

# (owner, attribute, layer); an owner is "module" or "module:Class"
TARGETS = (
    ("egolog.cli", "main", "cli"),
    ("egolog.cli", "load_config", "config"),
    ("egolog.pipeline", "load_captions", "corpus"),
    ("egolog.pipeline", "load_queries", "corpus"),
    ("egolog.cli", "save_captions", "corpus"),
    ("egolog.cli", "run_ask", "pipeline"),
    ("egolog.cli", "run_localize", "pipeline"),
    ("egolog.cli", "run_digest", "pipeline"),
    ("egolog.cli", "run_eval", "pipeline"),
    ("egolog.cli", "run_gen_refine_data", "pipeline"),
    ("egolog.pipeline", "digest", "digest"),
    ("egolog.digest", "drop_uninformative", "digest"),
    ("egolog.digest", "filter_by_relevance", "digest"),
    ("egolog.digest", "group_consecutive", "digest"),
    ("egolog.digest", "merge_groups", "digest"),
    ("egolog.digest", "embed_batch", "similarity"),
    ("egolog.refine", "embed_batch", "similarity"),
    ("egolog.similarity:MockEmbedder", "embed_texts", "similarity"),
    ("egolog.similarity:MockEmbedder", "_embed", "similarity"),
    ("egolog.similarity:HttpEmbedder", "embed_texts", "similarity"),
    ("egolog.llm:HttpLlmBackend", "complete", "llm"),
    # the HTTP client call; its layer is llm or similarity by endpoint
    ("requests", "post", "llm"),
    ("egolog.reasoner", "call_with_retries", "retry"),
    ("egolog.similarity", "call_with_retries", "retry"),
    ("egolog.pipeline", "build_qa_prompt", "reasoner"),
    ("egolog.pipeline", "build_nlq_prompt", "reasoner"),
    ("egolog.pipeline", "run", "reasoner"),
    ("egolog.pipeline", "parse_response", "reasoner"),
    ("egolog.pipeline", "vote_by_confidence", "ensemble"),
    ("egolog.pipeline", "select_candidate", "refine"),
    ("egolog.refine:CaptionOverlapScorer", "score", "refine"),
    ("egolog.pipeline", "gen_refinement_dataset", "refine"),
    ("egolog.pipeline", "evaluate_qa", "metrics"),
    ("egolog.pipeline", "evaluate_nlq", "metrics"),
)


def target_name(owner: str, attr: str) -> str:
    return f"{owner.replace(':', '.')}.{attr}"


# --- what each wrapped call adds to its span ---------------------------------


def _count_attempts(span: dict, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    """call_with_retries(fn, ...): count how often fn runs."""
    fn = args[0]
    span["attempts"] = 0

    def counted():
        span["attempts"] += 1
        return fn()

    return (counted, *args[1:]), kwargs


def _post_endpoint(span: dict, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    url = str(args[0] if args else kwargs.get("url", ""))
    span["layer"] = "similarity" if url.endswith("/embed") else "llm"
    return args, kwargs


def _post_reply(span, args, kwargs, result) -> None:
    span["status"] = result.status_code
    handle_ms = result.headers.get("X-Stub-Handle-Ms")
    if handle_ms is not None:
        span["handle_ms"] = float(handle_ms)


def _digest_counts(span, args, kwargs, result) -> None:
    stats = result[1]
    span["captions_in"] = stats.input_captions
    span["captions_out"] = stats.output_captions


def _units(span, args, kwargs, result) -> None:
    # run_ask / run_localize -> (records, failures);
    # run_digest -> (tracks, stats, failures)
    failures = result[-1]
    span["units"] = len(result[0]) + len(failures)
    span["unit_failures"] = len(failures)


def _prompt_chars(span, args, kwargs, result) -> None:
    span["chars"] = len(result.system_text) + len(result.user_text)


def _texts(span, args, kwargs, result) -> None:
    span["texts"] = len(args[1])


def _tie(span, args, kwargs, result) -> None:
    confidences = [a.confidence for a in args[0].answers]
    span["tie"] = confidences.count(max(confidences)) > 1


def _candidates(span, args, kwargs, result) -> None:
    span["candidates"] = len(args[0].intervals)


BEFORE = {
    "egolog.reasoner.call_with_retries": _count_attempts,
    "egolog.similarity.call_with_retries": _count_attempts,
    "requests.post": _post_endpoint,
}
AFTER = {
    "requests.post": _post_reply,
    "egolog.pipeline.digest": _digest_counts,
    "egolog.cli.run_ask": _units,
    "egolog.cli.run_localize": _units,
    "egolog.cli.run_digest": _units,
    "egolog.pipeline.build_qa_prompt": _prompt_chars,
    "egolog.pipeline.build_nlq_prompt": _prompt_chars,
    "egolog.similarity.MockEmbedder.embed_texts": _texts,
    "egolog.similarity.HttpEmbedder.embed_texts": _texts,
    "egolog.pipeline.vote_by_confidence": _tie,
    "egolog.pipeline.select_candidate": _candidates,
}


# --- the tracer ----------------------------------------------------------------


class Tracer:
    """Records spans while installed; unit_key is "qid" or "video_id"."""

    def __init__(self, unit_key: str):
        self.unit_key = unit_key
        self.spans: list[dict] = []
        self.missing: set[str] = set()
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._ids = itertools.count(1)

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _unit_of(self, args: tuple) -> str | None:
        for arg in args:
            if isinstance(arg, (list, tuple)) and len(arg) == 1:
                arg = arg[0]
            value = getattr(arg, self.unit_key, None)
            if isinstance(value, str):
                return value
        return None

    def _wrap(self, fn, name: str, layer: str):
        before, after = BEFORE.get(name), AFTER.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            unit = self._unit_of(args)
            if unit is None:
                unit = parent["unit"] if parent and parent["unit"] else getattr(
                    self._local, "unit", None)
            elif parent is None or parent["unit"] is None:
                # a unit starts here; later spans of this thread inherit it
                self._local.unit = unit
            span = {"id": next(self._ids), "name": name, "layer": layer,
                    "parent": parent["id"] if parent else None,
                    "thread": threading.get_ident(), "unit": unit}
            if before is not None:
                try:
                    args, kwargs = before(span, args, kwargs)
                except Exception as exc:  # a changed signature drops the attribute
                    span["hook_error"] = repr(exc)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            else:
                if after is not None:
                    try:
                        after(span, args, kwargs, result)
                    except Exception as exc:  # a changed result shape drops the attribute
                        span["hook_error"] = repr(exc)
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        self._main_stack = self._stack()
        restore = []
        try:
            for owner_path, attr, layer in TARGETS:
                name = target_name(owner_path, attr)
                module_name, _, class_name = owner_path.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    if class_name:
                        owner = getattr(owner, class_name)
                    original = owner.__dict__[attr] if class_name else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.missing.add(name)
                    continue
                setattr(owner, attr, self._wrap(original, name, layer))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


# --- per-layer metrics ----------------------------------------------------------


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def _tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it (the max below 11 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _max_overlap(spans: list[dict]) -> int:
    events = sorted([(s["start"], 1) for s in spans] + [(s["end"], -1) for s in spans])
    best = current = 0
    for _, delta in events:
        current += delta
        best = max(best, current)
    return best


def layer_metrics(tracer: Tracer, stub_counts: dict, calibration: dict,
                  untraced_s: float, traced_s: float) -> dict[str, dict]:
    """Per-layer metrics of one traced pass, each {"value", "unit"}.

    Times are totals in seconds over all threads. A ratio whose base is
    empty reads 0. A metric whose wrapped targets are all missing reads
    null.
    """
    spans = tracer.spans
    self_s = _self_times(spans)

    def named(*names: str) -> list[dict]:
        wanted = {f"egolog.{n}" if not n.startswith("requests") else n for n in names}
        return [s for s in spans if s["name"] in wanted]

    def total(*names: str) -> float:
        return sum(s["end"] - s["start"] for s in named(*names))

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    llm_posts = [s for s in named("requests.post") if s["layer"] == "llm"]
    embed_posts = [s for s in named("requests.post") if s["layer"] == "similarity"]
    completes = named("llm.HttpLlmBackend.complete")
    complete_ms = [(s["end"] - s["start"]) * 1000 for s in completes]
    tail_ms, tail_pct = _tail(complete_ms) if complete_ms else (0.0, 0.0)
    texts_requested = sum(s.get("texts", 0) for s in named(
        "similarity.MockEmbedder.embed_texts", "similarity.HttpEmbedder.embed_texts"))
    backend_texts = stub_counts["embed_texts"] + len(named("similarity.MockEmbedder._embed"))
    by_layer: dict[str, list[str]] = {layer: [] for layer in LAYERS}
    for owner, attr, layer in TARGETS:
        by_layer[layer].append(target_name(owner, attr).removeprefix("egolog."))
    entry_points = by_layer["pipeline"]
    runs = named(*entry_points)
    run_ids = {s["id"] for s in runs}
    run_s = sum(s["end"] - s["start"] for s in runs)
    votes = named("pipeline.vote_by_confidence")
    selects = named("pipeline.select_candidate")
    parses = named("pipeline.parse_response")
    prompts = named("pipeline.build_qa_prompt", "pipeline.build_nlq_prompt")
    digests = named("pipeline.digest")

    # name -> (unit, targets it is built from, value)
    table = {
        "corpus.load_s": ("s", ["pipeline.load_captions", "pipeline.load_queries"],
                          total("pipeline.load_captions", "pipeline.load_queries")),
        "corpus.save_s": ("s", ["cli.save_captions"], total("cli.save_captions")),
        "config.load_s": ("s", ["cli.load_config"], total("cli.load_config")),
        "digest.calls": ("count", ["pipeline.digest"], len(digests)),
        "digest.s": ("s", ["pipeline.digest"], total("pipeline.digest")),
        "digest.blocklist_s": ("s", ["digest.drop_uninformative"],
                               total("digest.drop_uninformative")),
        "digest.relevance_s": ("s", ["digest.filter_by_relevance"],
                               total("digest.filter_by_relevance")),
        "digest.group_s": ("s", ["digest.group_consecutive"], total("digest.group_consecutive")),
        "digest.merge_s": ("s", ["digest.merge_groups"], total("digest.merge_groups")),
        "digest.captions_in": ("count", ["pipeline.digest"],
                               sum(s.get("captions_in", 0) for s in digests)),
        "digest.captions_out": ("count", ["pipeline.digest"],
                                sum(s.get("captions_out", 0) for s in digests)),
        "similarity.embed_batch_calls": ("count", ["digest.embed_batch", "refine.embed_batch"],
                                         len(named("digest.embed_batch", "refine.embed_batch"))),
        "similarity.embed_batch_s": ("s", ["digest.embed_batch", "refine.embed_batch"],
                                     total("digest.embed_batch", "refine.embed_batch")),
        "similarity.texts_requested": (
            "count", ["similarity.MockEmbedder.embed_texts", "similarity.HttpEmbedder.embed_texts"],
            texts_requested),
        "similarity.backend_texts": ("count", ["similarity.MockEmbedder._embed"], backend_texts),
        "similarity.cache_hit_share": (
            "share", ["similarity.MockEmbedder.embed_texts", "similarity.HttpEmbedder.embed_texts"],
            share(texts_requested - backend_texts, texts_requested)),
        "similarity.http_requests": ("count", ["requests.post"], len(embed_posts)),
        "similarity.http_s": ("s", ["requests.post"],
                              sum(s["end"] - s["start"] for s in embed_posts)),
        "llm.requests": ("count", ["llm.HttpLlmBackend.complete"], len(completes)),
        "llm.failed": ("count", ["llm.HttpLlmBackend.complete"],
                       sum(1 for s in completes if "error" in s)),
        "llm.complete_s": ("s", ["llm.HttpLlmBackend.complete"], sum(complete_ms) / 1000),
        "llm.complete_ms_p50": ("ms", ["llm.HttpLlmBackend.complete"],
                                statistics.median(complete_ms) if complete_ms else 0.0),
        "llm.complete_ms_ptail": ("ms", ["llm.HttpLlmBackend.complete"], tail_ms),
        "llm.complete_ptail_pct": ("%", ["llm.HttpLlmBackend.complete"], tail_pct),
        "llm.http_overhead_ms_p50": ("ms", ["requests.post"], statistics.median(
            [(s["end"] - s["start"]) * 1000 - s["handle_ms"] for s in llm_posts
             if "handle_ms" in s] or [0.0])),
        "llm.inflight_max": ("count", ["llm.HttpLlmBackend.complete"], _max_overlap(completes)),
        "retry.retries": ("count", ["reasoner.call_with_retries", "similarity.call_with_retries"],
                          sum(max(s.get("attempts", 1) - 1, 0) for s in named(
                              "reasoner.call_with_retries", "similarity.call_with_retries"))),
        "reasoner.prompts": ("count", ["pipeline.build_qa_prompt", "pipeline.build_nlq_prompt"],
                             len(prompts)),
        "reasoner.prompt_chars": ("count",
                                  ["pipeline.build_qa_prompt", "pipeline.build_nlq_prompt"],
                                  sum(s.get("chars", 0) for s in prompts)),
        "reasoner.prompt_build_s": ("s",
                                    ["pipeline.build_qa_prompt", "pipeline.build_nlq_prompt"],
                                    total("pipeline.build_qa_prompt", "pipeline.build_nlq_prompt")),
        "reasoner.run_s": ("s", ["pipeline.run"], total("pipeline.run")),
        "reasoner.parse_calls": ("count", ["pipeline.parse_response"], len(parses)),
        "reasoner.parse_failures": ("count", ["pipeline.parse_response"],
                                    sum(1 for s in parses if "error" in s)),
        "reasoner.parse_s": ("s", ["pipeline.parse_response"], total("pipeline.parse_response")),
        "ensemble.votes": ("count", ["pipeline.vote_by_confidence"], len(votes)),
        "ensemble.tie_share": ("share", ["pipeline.vote_by_confidence"],
                               share(sum(1 for s in votes if s.get("tie")), len(votes))),
        "ensemble.vote_s": ("s", ["pipeline.vote_by_confidence"],
                            total("pipeline.vote_by_confidence")),
        "refine.select_calls": ("count", ["pipeline.select_candidate"], len(selects)),
        "refine.select_s": ("s", ["pipeline.select_candidate"], total("pipeline.select_candidate")),
        "refine.score_calls": ("count", ["refine.CaptionOverlapScorer.score"],
                               len(named("refine.CaptionOverlapScorer.score"))),
        "refine.score_s": ("s", ["refine.CaptionOverlapScorer.score"],
                           total("refine.CaptionOverlapScorer.score")),
        "refine.candidates_per_query": ("count", ["pipeline.select_candidate"], share(
            sum(s.get("candidates", 0) for s in selects), len(selects))),
        "refine.gen_s": ("s", ["pipeline.gen_refinement_dataset"],
                         total("pipeline.gen_refinement_dataset")),
        "metrics.eval_s": ("s", ["pipeline.evaluate_qa", "pipeline.evaluate_nlq"],
                           total("pipeline.evaluate_qa", "pipeline.evaluate_nlq")),
        "pipeline.run_s": ("s", entry_points, run_s),
        "pipeline.units": ("count", entry_points, sum(s.get("units", 0) for s in runs)),
        "pipeline.unit_failures": ("count", entry_points,
                                   sum(s.get("unit_failures", 0) for s in runs)),
        "pipeline.concurrency": ("share", entry_points, share(
            sum(s["end"] - s["start"] for s in spans if s["parent"] in run_ids), run_s)),
        "cli.main_s": ("s", ["cli.main"], total("cli.main")),
    }
    for layer in LAYERS:
        layer_s = sum(self_s[s["id"]] for s in spans if s["layer"] == layer)
        table[f"{layer}.self_s"] = ("s", by_layer[layer], layer_s)
    table["trace.overhead_s"] = ("s", [], traced_s - untraced_s)
    table["trace.spans"] = ("count", [], len(spans))
    table["stub.overhead_ms_p50"] = ("ms", [], calibration["overhead_ms_p50"])

    missing = {m.removeprefix("egolog.") for m in tracer.missing}
    return {
        name: {"value": None if targets and set(targets) <= missing else value, "unit": unit}
        for name, (unit, targets, value) in table.items()
    }
