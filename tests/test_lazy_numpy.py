"""numpy loads at a command's first embedding, not with the CLI.

Every other test runs in a process that has imported numpy already, so
these run each step in a fresh interpreter and compare its modules after
the step with those it started with (whatever a site hook imported).
"""

from __future__ import annotations

from pathlib import Path
from unittest import mock

import pytest

from egolog import pipeline
from egolog.cli import main
from egolog.corpus import write_json
from egolog.llm import ReplayBackend

from helpers import (
    ScriptedNlqBackend,
    in_fresh_interpreter,
    main_step,
    synth_nlq_benchmark,
    synth_qa_benchmark,
    write_run,
)

SETUP_PROBE_STEPS = """\
    import egolog.cli
    from egolog.corpus import load_captions, load_queries
    config = egolog.cli.load_config({config!r})
    load_captions(config.captions_path)
    load_queries(config.queries_path)
"""


def is_numpy(name: str) -> bool:
    return name == "numpy" or name.startswith("numpy.")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    """An NLQ run on disk: a replay store for localize and its predictions."""
    work = tmp_path_factory.mktemp("lazy-numpy")
    tracks, queries = synth_nlq_benchmark(n_items=3, captions_per_video=8)
    (work / "transcripts.json").write_text("{}", encoding="utf-8")
    write_run(work, tracks, queries, "[run]\nseed = 11\n", "transcripts = transcripts.json\n")
    llm = ReplayBackend({}, inner=ScriptedNlqBackend())
    argv = ["localize", "--config", str(work / "config.ini"), "--out", str(work / "preds.jsonl")]
    with mock.patch.object(pipeline, "build_llm", lambda config: llm):
        assert main(argv) == 0
    write_json(work / "transcripts.json", llm.transcripts)
    return work


def steps(work: Path) -> dict[str, tuple[str, int]]:
    """Each step that must not load numpy, with the exit code it must end with."""
    config = str(work / "config.ini")
    return {
        "setup-probe": (SETUP_PROBE_STEPS.format(config=config), 0),
        "eval": (
            main_step(
                ["eval", "--config", config, "--task", "nlq",
                 "--predictions", str(work / "preds.jsonl"), "--out", str(work / "eval.json")]
            ),
            0,
        ),
        "gen-refine-data": (
            main_step(["gen-refine-data", "--config", config, "--out", str(work / "r.jsonl")]),
            0,
        ),
        "help": (main_step(["--help"]), 0),
        "config-error": (main_step(["localize", "--config", str(work / "missing.ini")]), 1),
    }


@pytest.mark.parametrize(
    "name", ["setup-probe", "eval", "gen-refine-data", "help", "config-error"]
)
def test_step_that_never_embeds_loads_no_numpy(run_dir, tmp_path, name):
    step, expected_code = steps(run_dir)[name]
    code, loaded = in_fresh_interpreter(step, tmp_path / "result.json")
    assert code == expected_code
    assert "egolog" in loaded
    assert [m for m in loaded if is_numpy(m)] == []


def test_localize_loads_numpy_at_its_first_embedding(run_dir, tmp_path):
    out = tmp_path / "preds.jsonl"
    argv = ["localize", "--config", str(run_dir / "config.ini"), "--out", str(out)]
    code, loaded = in_fresh_interpreter(main_step(argv), tmp_path / "result.json")
    assert code == 0
    assert "numpy" in loaded
    assert out.read_bytes() == (run_dir / "preds.jsonl").read_bytes()


def test_first_numpy_import_from_unit_threads_keeps_digest_output(tmp_path):
    # at in_flight_limit 2 two egolog-unit threads embed, and so import
    # numpy for the first time in the process, at once
    tracks, queries = synth_qa_benchmark(n_items=6, captions_per_video=12)
    outputs = {}
    for limit in (1, 2):
        work = tmp_path / f"pool{limit}"
        work.mkdir()
        config = write_run(work, tracks, queries, f"[run]\nseed = 5\nin_flight_limit = {limit}\n")
        out = work / "digested.jsonl"
        step = main_step(["digest", "--config", str(config), "--out", str(out)])
        code, loaded = in_fresh_interpreter(step, work / "result.json")
        assert code == 0
        assert "numpy" in loaded
        stats = out.with_name(out.name + ".stats.json")
        outputs[limit] = (out.read_bytes(), stats.read_bytes())
    assert outputs[1] == outputs[2]
