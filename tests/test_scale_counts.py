"""The work of each command at the paper's scale, pinned as exact counts.

LifelongMemory reads the caption logs of hours-long videos. The
benchmark's seeded generator (perfbench/corpus_gen.py) builds, in-process,
one 14,400-caption video (8 h at 2 s a caption) with 10 NLQ queries, for
`run_localize` and for `run_digest` with LLM merges, and one 3,600-caption
video with 10 questions and 5 runs, for `run_ask` with concat and with
LLM merges. The completions come from the scripted backends of
tests/helpers.py and the embeddings from the mock embedder. Each run
records:

- its completions by kind (QA, NLQ, merge) and its distinct merge prompts;
- the embedding calls and the texts they carry;
- the `CaptionTrack.__post_init__` calls;
- the captions in and out of each digest, in call order;
- the characters of every prompt sent, system and user text.

Counts do not drift with the host, so a change to the work a command does
shows here exactly. Every count must be the same at in_flight_limit 1 and
8 and equal the one committed in tests/scale_counts.json. A change that
moves a count states the before and after in CHANGES.md and regenerates
the file with

    PYTHONPATH=src:tests python tests/test_scale_counts.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

from egolog import pipeline
from egolog.config import load_config
from egolog.corpus import CaptionTrack
from egolog.digest import MERGE_PROMPT
from egolog.reasoner import NLQ_SYSTEM_PROMPT, QA_SYSTEM_PROMPT

from helpers import (
    RecordingEmbedder,
    ScriptedNlqBackend,
    ScriptedQaBackend,
    make_track,
    write_run,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus_gen  # noqa: E402

COUNTS = Path(__file__).resolve().parent / "scale_counts.json"
REGENERATE = "PYTHONPATH=src:tests python tests/test_scale_counts.py"
KINDS = {MERGE_PROMPT: "merge", QA_SYSTEM_PROMPT: "qa", NLQ_SYSTEM_PROMPT: "nlq"}

# corpus name -> its one video and its queries
CORPORA = {
    "nlq": lambda: corpus_gen.gen_nlq(1, 1, 14_400, 10, run_share=0.3),
    "qa": lambda: corpus_gen.gen_qa(1, 1, [3_600], 10),
}
LLM_MERGES = "[digest]\nmerge_mode = llm\n"
# run name -> (corpus, command, scripted backend, config sections)
RUNS = {
    "localize": ("nlq", pipeline.run_localize, ScriptedNlqBackend, ""),
    "digest-llm": ("nlq", pipeline.run_digest, ScriptedQaBackend, LLM_MERGES),
    "ask-concat": ("qa", pipeline.run_ask, ScriptedQaBackend, ""),
    "ask-llm": ("qa", pipeline.run_ask, ScriptedQaBackend, LLM_MERGES),
}


class CountingBackend:
    """Passes each completion to inner, counting it by kind and its prompt's characters."""

    def __init__(self, inner):
        self.inner = inner
        self.kinds: Counter = Counter()
        self.merges: set[str] = set()
        self.prompt_chars = 0
        self._lock = threading.Lock()

    def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
        kind = KINDS[system_text]
        with self._lock:
            self.kinds[kind] += 1
            self.prompt_chars += len(system_text) + len(user_text)
            if kind == "merge":
                self.merges.add(user_text)
        return self.inner.complete(system_text, user_text, sampling_seed, run_index)


@contextmanager
def counted_tracks_and_digests():
    """Counts CaptionTrack.__post_init__ calls and records (in, out) of each digest."""
    seen = {"post_init": 0, "digests": []}
    lock = threading.Lock()
    post_init, digest = CaptionTrack.__post_init__, pipeline.digest

    def counting_post_init(self):
        with lock:
            seen["post_init"] += 1
        post_init(self)

    def recording_digest(*args, **kwargs):
        track, stats = digest(*args, **kwargs)
        with lock:
            seen["digests"].append([stats.input_captions, stats.output_captions])
        return track, stats

    with (
        mock.patch.object(CaptionTrack, "__post_init__", counting_post_init),
        mock.patch.object(pipeline, "digest", recording_digest),
    ):
        yield seen


def write_corpora(work: Path) -> dict[str, Path]:
    """Write each corpus's captions and queries under work/<corpus>; corpus -> its dir."""
    dirs = {}
    for name, generate in CORPORA.items():
        out = dirs[name] = work / name
        out.mkdir(parents=True)
        videos, queries, _ = generate()
        tracks = {
            v.video_id: make_track(v.video_id, v.texts, step=corpus_gen.STEP_S)
            for v in videos
        }
        write_run(out, tracks)
        with open(out / "queries.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(query) + "\n" for query in queries)
    return dirs


def count_run(dirs: dict[str, Path], name: str, limit: int) -> dict:
    corpus, command, backend, sections = RUNS[name]
    run = f"[run]\nseed = 1\nruns = 5\nin_flight_limit = {limit}\n"
    paths = "captions = captions.jsonl\nqueries = queries.jsonl\n"
    config = load_config(write_run(dirs[corpus], None, None, run + sections, paths))
    llm, embedder = CountingBackend(backend()), RecordingEmbedder()
    with counted_tracks_and_digests() as seen:
        *_, failures = command(config, embedder=embedder, llm=llm)
    assert failures == []
    return {
        "completions": {kind: llm.kinds[kind] for kind in sorted(KINDS.values())},
        "distinct_merge_prompts": len(llm.merges),
        "embedding_calls": len(embedder.calls),
        "embedded_texts": sum(len(texts) for texts in embedder.calls),
        "post_init_calls": seen["post_init"],
        "digest_captions_in_out": seen["digests"],
        "prompt_chars": llm.prompt_chars,
    }


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    return write_corpora(tmp_path_factory.mktemp("scale"))


@pytest.mark.parametrize("limit", [1, 8])
@pytest.mark.parametrize("name", list(RUNS))
def test_counts_match_pinned(corpora, name, limit):
    pinned = json.loads(COUNTS.read_text(encoding="utf-8"))[name]
    counts = count_run(corpora, name, limit)
    assert counts == pinned, (
        f"{name} at in_flight_limit {limit} counted {counts}, pinned {pinned}; "
        f"if the change is intended, say so in CHANGES.md and regenerate with: {REGENERATE}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        dirs = write_corpora(Path(tmp))
        counts = {name: count_run(dirs, name, 1) for name in RUNS}
    COUNTS.write_text(json.dumps(counts, indent=1) + "\n", encoding="utf-8")
    print(f"wrote the counts of {len(counts)} runs to {COUNTS}")
