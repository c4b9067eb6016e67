"""The work of each command, pinned as exact counts, small and at the paper's scale.

LifelongMemory reads the caption logs of hours-long videos. The
benchmark's seeded generator (perfbench/corpus_gen.py) builds, in-process,
one 14,400-caption video (8 h at 2 s a caption) with 10 NLQ queries, for
`run_localize` and for `run_digest` with LLM merges, and one 3,600-caption
video with 10 questions and 5 runs, for `run_ask` with concat and with
LLM merges. Beside them run the small fixtures of tests/helpers.py, at
seed 2024 and 3 runs: `run_ask` and `run_digest` with every neighbouring
pair merged on 3 videos of 4 questions each, and `run_localize` on 6
videos of 8 captions. The completions come from the scripted backends of
tests/helpers.py and the embeddings from the mock embedder. Each run
records:

- its completions by kind (QA, NLQ, merge) and its distinct merge prompts;
- the embedding calls and the texts they carry;
- the `CaptionTrack.__post_init__` calls;
- the captions in and out of each digest, by video, in call order within one;
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
    PAIR_MERGES,
    RecordingEmbedder,
    ScriptedNlqBackend,
    ScriptedQaBackend,
    corpus_gen,
    questions_per_video,
    synth_nlq_benchmark,
    write_generated,
    write_run,
)

COUNTS = Path(__file__).resolve().parent / "scale_counts.json"
REGENERATE = "PYTHONPATH=src:tests python tests/test_scale_counts.py"
KINDS = {MERGE_PROMPT: "merge", QA_SYSTEM_PROMPT: "qa", NLQ_SYSTEM_PROMPT: "nlq"}

PAPER_SCALE = "[run]\nseed = 1\nruns = 5\n"
SMALL = "[run]\nseed = 2024\nruns = 3\n"
# corpus name -> (writer of its captions and queries into a directory, run settings)
CORPORA = {
    "nlq": (
        lambda out: write_generated(out, corpus_gen.gen_nlq(1, 1, 14_400, 10, run_share=0.3)),
        PAPER_SCALE,
    ),
    "qa": (lambda out: write_generated(out, corpus_gen.gen_qa(1, 1, [3_600], 10)), PAPER_SCALE),
    "nlq-small": (
        lambda out: write_run(out, *synth_nlq_benchmark(n_items=6, captions_per_video=8)),
        SMALL,
    ),
    "qa-small": (lambda out: write_run(out, *questions_per_video()), SMALL),
}
LLM_MERGES = "[digest]\nmerge_mode = llm\n"
# run name -> (corpus, command, scripted backend, config sections)
RUNS = {
    "localize": ("nlq", pipeline.run_localize, ScriptedNlqBackend, ""),
    "digest-llm": ("nlq", pipeline.run_digest, ScriptedQaBackend, LLM_MERGES),
    "ask-concat": ("qa", pipeline.run_ask, ScriptedQaBackend, ""),
    "ask-llm": ("qa", pipeline.run_ask, ScriptedQaBackend, LLM_MERGES),
    "localize-small": ("nlq-small", pipeline.run_localize, ScriptedNlqBackend, ""),
    "digest-pairs-small": ("qa-small", pipeline.run_digest, ScriptedQaBackend, PAIR_MERGES),
    "ask-pairs-small": ("qa-small", pipeline.run_ask, ScriptedQaBackend, PAIR_MERGES),
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
    """Counts CaptionTrack.__post_init__ calls and records (in, out) of each digest by video."""
    seen = {"post_init": 0, "digests": {}}
    lock = threading.Lock()
    post_init, digest = CaptionTrack.__post_init__, pipeline.digest

    def counting_post_init(self):
        with lock:
            seen["post_init"] += 1
        post_init(self)

    def recording_digest(*args, **kwargs):
        track, stats = digest(*args, **kwargs)
        with lock:
            in_out = [stats.input_captions, stats.output_captions]
            seen["digests"].setdefault(track.video_id, []).append(in_out)
        return track, stats

    with (
        mock.patch.object(CaptionTrack, "__post_init__", counting_post_init),
        mock.patch.object(pipeline, "digest", recording_digest),
    ):
        yield seen


def write_corpora(work: Path) -> dict[str, Path]:
    """Write each corpus's captions and queries under work/<corpus>; corpus -> its dir."""
    dirs = {}
    for name, (write, _) in CORPORA.items():
        dirs[name] = work / name
        dirs[name].mkdir(parents=True)
        write(dirs[name])
    return dirs


def count_run(dirs: dict[str, Path], name: str, limit: int) -> dict:
    corpus, command, backend, sections = RUNS[name]
    run = CORPORA[corpus][1] + f"in_flight_limit = {limit}\n"
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
        # the videos of one command run in any order, each one's digests in call order
        "digest_captions_in_out": [
            in_out for video in sorted(seen["digests"]) for in_out in seen["digests"][video]
        ],
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
