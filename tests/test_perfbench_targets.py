"""Every function the benchmark's tracer wraps still exists and fits its hook.

perfbench/layers.py names its targets as strings; one that no longer
resolves is skipped there and its metrics read null, so a rename shows
up here instead. A hook that no longer fits its target's arguments or
result is recorded on the span as hook_error, so a traced run of each
command checks that none is. The set-up probe reads names of its own
from egolog, so one run of it on a tiny corpus checks those.
"""

from __future__ import annotations

import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from egolog import cli
from egolog.config import load_config
from egolog.errors import TransportError
from egolog.similarity import HttpEmbedder, MockEmbedder

from helpers import (
    ScriptedNlqBackend,
    ScriptedQaBackend,
    synth_nlq_benchmark,
    synth_qa_benchmark,
    write_run,
)

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))
from layers import AFTER, BEFORE, TARGETS, Tracer, target_name  # noqa: E402

# hooked targets that only an HTTP backend calls
HTTP_ONLY = {
    "requests.post",
    "egolog.similarity.HttpEmbedder.embed_texts",
    "egolog.similarity.call_with_retries",
}


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _ in TARGETS], ids=lambda v: v
)
def test_target_resolves(owner, attr):
    module_name, _, class_name = owner.partition(":")
    holder = importlib.import_module(module_name)
    if class_name:
        holder = getattr(holder, class_name)
    assert hasattr(holder, attr), f"{target_name(owner, attr)} is gone"



RUN = "[run]\nseed = 5\nruns = 3\nin_flight_limit = 2\n"


def test_hooks_fit_a_traced_run_of_each_command(tmp_path):
    qa_tracks, qa_queries = synth_qa_benchmark(n_items=3, captions_per_video=6)
    nlq_tracks, nlq_queries = synth_nlq_benchmark(n_items=2, captions_per_video=6)
    # matches every caption of its video, so localize scores several candidates
    nlq_queries.append(
        dataclasses.replace(nlq_queries[0], qid="broad", text="find: across the table")
    )
    (tmp_path / "qa").mkdir()
    (tmp_path / "nlq").mkdir()
    llm_merges = RUN + "[digest]\nmerge_mode = llm\n"
    qa = load_config(write_run(tmp_path / "qa", qa_tracks, qa_queries, llm_merges))
    no_groups = RUN + "[digest]\nadjacency_threshold = 2\n"
    nlq = load_config(write_run(tmp_path / "nlq", nlq_tracks, nlq_queries, no_groups))
    merger = ScriptedQaBackend()
    runs = [
        ("qid", lambda: cli.run_ask(qa, embedder=MockEmbedder(), llm=ScriptedQaBackend())),
        ("video_id", lambda: cli.run_localize(
            nlq, embedder=MockEmbedder(), llm=ScriptedNlqBackend())),
        ("video_id", lambda: cli.run_digest(qa, embedder=MockEmbedder(), llm=merger)),
    ]
    spans = []
    for unit_key, command in runs:
        tracer = Tracer(unit_key)
        with tracer.installed():
            *_, failures = command()
        assert failures == []
        assert tracer.missing == set()
        spans += tracer.spans
    assert merger.calls > 0
    assert [s for s in spans if "hook_error" in s] == []
    assert max(s.get("candidates", 0) for s in spans) > 1
    assert (set(BEFORE) | set(AFTER)) - HTTP_ONLY <= {s["name"] for s in spans}


def test_retry_hook_fits_the_embedders_call():
    # nothing listens on port 9, so every attempt is a TransportError
    embedder = HttpEmbedder("http://127.0.0.1:9/", sleep=lambda s: None)
    tracer = Tracer("video_id")
    with tracer.installed():
        with pytest.raises(TransportError):
            embedder.embed_texts(["a"])
    name = "egolog.similarity.call_with_retries"
    (span,) = [s for s in tracer.spans if s["name"] == name]
    assert span["attempts"] == 3
    assert "hook_error" not in span


def test_setup_probe_prints_its_seconds(tmp_path):
    tracks, queries = synth_qa_benchmark(n_items=2, captions_per_video=4)
    config = write_run(tmp_path, tracks, queries, "[run]\nseed = 5\n")
    probe = [sys.executable, str(REPO / "perfbench" / "setup_probe.py")]
    done = subprocess.run(
        probe + [str(REPO / "src"), str(config)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    assert float(line) > 0
