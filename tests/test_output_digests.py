"""Every CLI output is pinned by its sha256, so an output change between commits shows.

Small seeded corpora from the benchmark's generator (perfbench/corpus_gen.py)
go through `egolog.cli.main` at in_flight_limit 1 and 2: `localize`, `eval`
and `gen-refine-data` on NLQ logs, `ask` and `eval` on QA clips, and
`digest` with LLM merges on a log of near-duplicate runs. The completions
come from the scripted backends of tests/helpers.py and the embeddings from
the mock embedder. Each output file's sha256 must equal the one committed
in tests/output_digests.json; a manifest is hashed without its
`config_sha256`, which covers the run's absolute paths and pool size. The
scripted replies ignore most of a prompt, so the prompts and replies each
command sends, recorded as a transcript store, are pinned as well.

An intended output change regenerates the digests with

    PYTHONPATH=src:tests python tests/test_output_digests.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

from egolog import cli, pipeline
from egolog.llm import ReplayBackend

from helpers import (
    ScriptedNlqBackend,
    ScriptedQaBackend,
    corpus_gen,
    write_generated,
    write_run,
)

DIGESTS = Path(__file__).resolve().parent / "output_digests.json"
REGENERATE = "PYTHONPATH=src:tests python tests/test_output_digests.py"
POOL_SIZES = (1, 2)

# corpus name -> (captions and queries, config sections, commands)
CORPORA = {
    "nlq": (
        lambda: corpus_gen.gen_nlq(1, 2, 300, 4, run_share=0.3),
        # a padding off the millisecond grid, so the rounding of written windows shows
        "[digest]\nmerge_mode = concat\n[refine]\npad_alpha = 9.8765",
        [
            ("localize", ["--out", "localize.jsonl"]),
            ("eval", ["--predictions", "localize.jsonl", "--task", "nlq", "--out", "eval.json"]),
            ("gen-refine-data", ["--out", "refine.jsonl"]),
        ],
    ),
    "qa": (
        lambda: corpus_gen.gen_qa(3, 2, [30, 40], 3),
        "[digest]\nmerge_mode = llm",
        [
            ("ask", ["--out", "answers.jsonl"]),
            ("eval", ["--predictions", "answers.jsonl", "--task", "qa", "--out", "eval.json"]),
        ],
    ),
    "merge": (
        lambda: corpus_gen.gen_nlq(2, 1, 200, 2, run_share=0.7),
        "[digest]\nmerge_mode = llm",
        [("digest", ["--out", "digested.jsonl"])],
    ),
}


def _sha256(path: Path) -> str:
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["config_sha256"]
        data = json.dumps(manifest, sort_keys=True).encode("utf-8")
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def run_commands(work: Path, pool: int) -> dict[str, tuple[str, str]]:
    """Run every corpus's commands in work/<corpus>; '<corpus>/<file>' -> (command, sha256)."""
    outputs: dict[str, tuple[str, str]] = {}
    for name, (generate, sections, commands) in CORPORA.items():
        out = work / name
        out.mkdir(parents=True)
        write_generated(out, generate())
        run = f"[run]\nseed = 7\nruns = 3\nin_flight_limit = {pool}\n"
        paths = "captions = captions.jsonl\nqueries = queries.jsonl\n"
        config = write_run(out, None, None, run + sections, paths)
        for command, args in commands:
            llm = ReplayBackend(
                {}, inner=ScriptedNlqBackend() if command == "localize" else ScriptedQaBackend()
            )
            argv = [command, "--config", str(config)]
            argv += [str(out / a) if a.endswith((".jsonl", ".json")) else a for a in args]
            before = set(out.iterdir())
            with mock.patch.object(pipeline, "build_llm", lambda config: llm):
                code = cli.main(argv)
            assert code == 0, f"egolog {command} on the {name!r} corpus exited {code}"
            for path in sorted(set(out.iterdir()) - before):
                outputs[f"{name}/{path.name}"] = (command, _sha256(path))
            if llm.transcripts:
                store = json.dumps(llm.transcripts, sort_keys=True).encode("utf-8")
                outputs[f"{name}/{command}.transcripts"] = (
                    command, hashlib.sha256(store).hexdigest()
                )
    return outputs


def test_cli_outputs_match_pinned_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for pool in POOL_SIZES:
        outputs = run_commands(tmp_path / f"pool{pool}", pool)
        assert sorted(outputs) == sorted(pinned), (
            f"at in_flight_limit {pool} the commands wrote {sorted(outputs)}, "
            f"pinned {sorted(pinned)}; regenerate with: {REGENERATE}"
        )
        for file, (command, digest) in outputs.items():
            assert digest == pinned[file], (
                f"{file} from `egolog {command}` at in_flight_limit {pool} "
                f"has sha256 {digest}, pinned {pinned[file]}; if the change is "
                f"intended, regenerate with: {REGENERATE}"
            )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_commands(Path(tmp), POOL_SIZES[0])
    DIGESTS.write_text(
        json.dumps({f: d for f, (_, d) in sorted(outputs.items())}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(outputs)} digests to {DIGESTS}")
