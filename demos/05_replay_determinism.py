"""
Recording a model once, then replaying it bit-exactly forever
=============================================================

Completions are cached in a transcripts file keyed by a hash of the full
prompt. A pipeline wired to the replay backend needs no network, no
key, and produces byte-identical output on every run, which is what
makes regression tests on LLM pipelines possible. Here a scripted
stand-in plays the live model; swap in a real backend and the flow is
unchanged.
"""

import json
import re
import tempfile
from pathlib import Path

from egolog.cli import main as cli_main
from egolog.config import load_config
from egolog.corpus import write_json
from egolog.llm import ReplayBackend
from egolog.pipeline import run_ask

OPTION = re.compile(r"^\(([A-E])\) (.*)$", re.MULTILINE)


class LiveStandIn:
    """Picks the option whose text appears verbatim in the caption log."""

    def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
        log = user_text.split("Question (qid ", 1)[0]
        qid = user_text.split("Question (qid ", 1)[1].split(")", 1)[0]
        letter = "A"
        for mark, text in OPTION.findall(user_text):
            if text in log:
                letter = mark
        entry = {
            "qid": qid,
            "answer": letter,
            "explanation": "option text found in the log",
            "confidence": 3,
        }
        return "```json\n" + json.dumps([entry]) + "\n```"


with tempfile.TemporaryDirectory() as raw:
    root = Path(raw)

    rows = [
        {"video_id": "porch", "clip_start_s": 0.0, "clip_end_s": 30.0},
        {"video_id": "porch", "start_s": 0.0, "end_s": 10.0, "text": "C sands the railing"},
        {"video_id": "porch", "start_s": 10.0, "end_s": 20.0, "text": "C paints the railing white"},
        {"video_id": "porch", "start_s": 20.0, "end_s": 30.0, "text": "C cleans the brush in a jar"},
    ]
    (root / "captions.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
    )
    (root / "queries.jsonl").write_text(
        json.dumps(
            {
                "qid": "paint",
                "video_id": "porch",
                "kind": "qa",
                "question": "What does C do to the railing after sanding it?",
                "choices": [
                    "C paints the railing white",
                    "C removes the railing",
                    "C measures the railing",
                    "C covers the railing with tape",
                    "C leaves it unfinished",
                ],
                "answer_idx": 0,
            }
        )
        + "\n",
        encoding="utf-8",
    )
    (root / "config.ini").write_text(
        "[run]\nseed = 31\nruns = 3\n"
        "[paths]\ncaptions = captions.jsonl\nqueries = queries.jsonl\n",
        encoding="utf-8",
    )

    # pass one: an empty store sends every prompt to the live stand-in and keeps its replies
    recorder = ReplayBackend({}, inner=LiveStandIn())
    records, failures = run_ask(load_config(root / "config.ini"), llm=recorder)
    assert not failures
    write_json(root / "transcripts.json", recorder.transcripts)
    print(f"recorded {sum(len(v) for v in recorder.transcripts.values())} completions")

    # replay passes: same config plus the transcripts path, no live model
    (root / "config.ini").write_text(
        "[run]\nseed = 31\nruns = 3\n"
        "[paths]\ncaptions = captions.jsonl\nqueries = queries.jsonl\n"
        "transcripts = transcripts.json\n",
        encoding="utf-8",
    )
    outputs = []
    for attempt in ("first", "second"):
        out = root / f"{attempt}.jsonl"
        code = cli_main(["ask", "--config", str(root / "config.ini"), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
        print(f"{attempt} replay: {out.read_text(encoding='utf-8').strip()}")

    print(f"byte-identical: {outputs[0] == outputs[1]}")
    print(f"matches the live pass: {json.loads(outputs[0]) == records[0]}")
