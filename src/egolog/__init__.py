"""Question answering and temporal localization over caption tracks.

Long egocentric videos are represented by timestamped caption tracks. The
pipeline compacts a track (digest), asks a language model structured
questions about it (reasoner), ensembles repeated answers by verbalized
confidence (ensemble), refines coarse localization windows (refine), and
scores everything (metrics). Backends for the model and the text embedder
are pluggable, with deterministic replay and mock implementations for
offline runs.
"""

from .corpus import (
    Caption,
    CaptionTrack,
    Query,
    QueryKind,
    load_captions,
    load_queries,
    save_captions,
)
from .digest import DigestConfig, DigestStats, MergeMode, digest
from .ensemble import AnswerPool, filter_by_confidence, vote_by_confidence
from .errors import (
    BackendProtocolError,
    ConfigError,
    CorpusError,
    EgologError,
    MetricsError,
    ParseError,
    RefineError,
    ReplayMissError,
    TransportError,
)
from .llm import HttpLlmBackend, LlmBackend, ReplayBackend, write_transcripts
from .metrics import (
    EvalReport,
    OverlapStats,
    evaluate_nlq,
    evaluate_qa,
    iou,
    iou_star_at,
    overlap_rate,
    qa_accuracy,
    recall_at_1,
    stratify_by_confidence,
)
from .reasoner import (
    CandidateInterval,
    LlmAnswer,
    Prompt,
    build_nlq_prompt,
    build_qa_prompt,
    clamp_answer_to_bounds,
    format_reference,
    parse_response,
)
from .refine import (
    CandidateScorer,
    CaptionOverlapScorer,
    Label,
    RefineConfig,
    RefinementSample,
    gen_refinement_dataset,
    pad_interval,
    select_candidate,
)
from .seeding import derive_seed
from .similarity import EmbedderBackend, HttpEmbedder, MockEmbedder, embed_batch

__version__ = "0.1.0"

__all__ = [
    "AnswerPool",
    "BackendProtocolError",
    "CandidateInterval",
    "CandidateScorer",
    "Caption",
    "CaptionOverlapScorer",
    "CaptionTrack",
    "ConfigError",
    "CorpusError",
    "DigestConfig",
    "DigestStats",
    "EgologError",
    "EmbedderBackend",
    "EvalReport",
    "HttpEmbedder",
    "HttpLlmBackend",
    "Label",
    "LlmAnswer",
    "LlmBackend",
    "MergeMode",
    "MetricsError",
    "MockEmbedder",
    "OverlapStats",
    "ParseError",
    "Prompt",
    "Query",
    "QueryKind",
    "RefineConfig",
    "RefineError",
    "RefinementSample",
    "ReplayBackend",
    "ReplayMissError",
    "TransportError",
    "build_nlq_prompt",
    "build_qa_prompt",
    "clamp_answer_to_bounds",
    "derive_seed",
    "digest",
    "embed_batch",
    "evaluate_nlq",
    "evaluate_qa",
    "filter_by_confidence",
    "format_reference",
    "gen_refinement_dataset",
    "iou",
    "iou_star_at",
    "load_captions",
    "load_queries",
    "overlap_rate",
    "pad_interval",
    "parse_response",
    "qa_accuracy",
    "recall_at_1",
    "save_captions",
    "select_candidate",
    "stratify_by_confidence",
    "vote_by_confidence",
    "write_transcripts",
]
