from __future__ import annotations

import configparser
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from egolog import cli, pipeline
from egolog.cli import main
from egolog.config import (
    PipelineConfig,
    config_sha256,
    effective_dict,
    load_config,
    parse_override,
)
from egolog.corpus import Query, QueryKind
from egolog.digest import MergeMode
from egolog.errors import ConfigError
from egolog.llm import ReplayBackend
from egolog.metrics import evaluate_qa
from egolog.pipeline import UnitFailure

from helpers import (
    UNREADABLE,
    CallableBackend,
    ScriptedNlqBackend,
    ScriptedQaBackend,
    needs_unreadable,
    synth_nlq_benchmark,
    synth_qa_benchmark,
    write_config,
    write_run,
)

MINIMAL = """\
[run]
seed = 7
"""

# every key but the paths, none at its default
EVERY_NON_PATH_KEY = """\
[run]
seed = 7
runs = 3
in_flight_limit = 2
[llm]
kind = http
endpoint = http://localhost:8000/complete
auth_env = HOME
[embedder]
kind = http
endpoint = http://localhost:8000/embed
dim = 32
[digest]
blocklist = waves hello, nods
relevance_threshold = 0.4
adjacency_threshold = 0.9
max_merge_group = 4
merge_mode = llm
[refine]
pad_alpha = 5
jitter_shift_max = 6
jitter_scale_lo = 0.25
jitter_scale_hi = 4
pos_iou = 0.6
neg_iou = 0.05
samples_per_gt = 2
"""


def minimal_config(tmp_path, body=MINIMAL, overrides=None):
    return load_config(write_config(tmp_path, body), overrides or {})


class TestLoadConfig:
    @needs_unreadable
    def test_unreadable_file_is_named(self):
        with pytest.raises(ConfigError, match=f"^cannot read config {UNREADABLE}: "):
            load_config(UNREADABLE)

    def test_defaults(self, tmp_path):
        config = minimal_config(tmp_path)
        assert config.seed == 7
        assert config.runs == 5
        assert config.in_flight_limit == 4
        assert config.llm_kind == "replay"
        assert config.embedder_kind == "mock"
        assert config.embedder_dim == 64
        assert config.digest.relevance_threshold == 0.30
        assert config.digest.adjacency_threshold == 0.85
        assert config.digest.max_merge_group == 8
        assert config.digest.merge_mode is MergeMode.CONCAT
        assert config.digest.blocklist == ("looks around", "looks at the camera")
        assert config.refine.pad_alpha == 10.0
        assert (config.refine.jitter_scale_lo, config.refine.jitter_scale_hi) == (0.5, 2.0)
        assert config.refine.samples_per_gt == 10
        assert config.captions_path is None

    def test_seed_is_mandatory(self, tmp_path):
        with pytest.raises(ConfigError, match="run.seed is required"):
            minimal_config(tmp_path, body="[run]\nruns = 3\n")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "nope.ini")
        message = f"^config file {re.escape(str(tmp_path))} is not a file$"
        with pytest.raises(ConfigError, match=message):
            load_config(tmp_path)

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown config section \[model\]"):
            minimal_config(tmp_path, body=MINIMAL + "[model]\nname = x\n")

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key run.retries"):
            minimal_config(tmp_path, body="[run]\nseed = 1\nretries = 9\n")

    def test_paths_resolve_relative_to_config_file(self, tmp_path):
        sub = tmp_path / "confs"
        sub.mkdir()
        captions = sub / "caps.jsonl"
        captions.write_text(
            '{"video_id": "v", "clip_start_s": 0, "clip_end_s": 1}\n', encoding="utf-8"
        )
        config_path = sub / "config.ini"
        config_path.write_text(
            "[run]\nseed = 1\n[paths]\ncaptions = caps.jsonl\n", encoding="utf-8"
        )
        config = load_config(config_path)
        assert config.captions_path == captions

    def test_referenced_files_must_exist(self, tmp_path):
        body = MINIMAL + "[paths]\ncaptions = missing.jsonl\n"
        with pytest.raises(ConfigError, match="paths.captions.*does not exist"):
            minimal_config(tmp_path, body=body)
        (tmp_path / "caps").mkdir()
        body = MINIMAL + "[paths]\ncaptions = caps\n"
        message = f"^paths.captions file {re.escape(str(tmp_path / 'caps'))} is not a file$"
        with pytest.raises(ConfigError, match=message):
            minimal_config(tmp_path, body=body)

    def test_output_path_need_not_exist(self, tmp_path):
        body = MINIMAL + "[paths]\noutput = out/preds.jsonl\n"
        config = minimal_config(tmp_path, body=body)
        assert config.output_path == tmp_path / "out" / "preds.jsonl"

    def test_output_path_that_cannot_be_written_fails_at_load(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep me\n")
        cases = [
            (tmp_path, "Is a directory"),
            (blocker / "out.jsonl", "Not a directory"),
            (blocker / "sub" / "out.jsonl", "Not a directory"),
        ]
        for out, reason in cases:
            body = MINIMAL + f"[paths]\noutput = {out}\n"
            message = f"^cannot write {re.escape(str(out))}: {reason}$"
            with pytest.raises(ConfigError, match=message):
                minimal_config(tmp_path, body=body)
        assert blocker.read_text() == "keep me\n"

    def test_blocklist_comma_split(self, tmp_path):
        body = MINIMAL + "[digest]\nblocklist = waves hello, nods, smiles\n"
        config = minimal_config(tmp_path, body=body)
        assert config.digest.blocklist == ("waves hello", "nods", "smiles")

    def test_bad_merge_mode(self, tmp_path):
        body = MINIMAL + "[digest]\nmerge_mode = summarize\n"
        with pytest.raises(ConfigError, match="merge_mode"):
            minimal_config(tmp_path, body=body)

    def test_bad_number(self, tmp_path):
        body = MINIMAL + "[digest]\nrelevance_threshold = high\n"
        with pytest.raises(ConfigError, match="must be a number"):
            minimal_config(tmp_path, body=body)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "NaN"])
    @pytest.mark.parametrize(
        "key", ["refine.pad_alpha", "refine.jitter_shift_max", "digest.adjacency_threshold"]
    )
    def test_non_finite_number(self, tmp_path, key, value):
        section, name = key.split(".")
        body = MINIMAL + f"[{section}]\n{name} = {value}\n"
        with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
            minimal_config(tmp_path, body=body)
        with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
            minimal_config(tmp_path, overrides={key: value})

    def test_finite_adjacency_above_one_still_loads(self, tmp_path):
        # a threshold no similarity reaches: never merge
        config = minimal_config(tmp_path, overrides={"digest.adjacency_threshold": "2"})
        assert config.digest.adjacency_threshold == 2.0

    def test_undecodable_byte_names_file(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "[digest]\nblocklist = waves\n")
        path.write_bytes(path.read_bytes().replace(b"waves", b"wav\xffes"))
        where = f"cannot parse config {re.escape(str(path))}: .* decode byte 0xff"
        with pytest.raises(ConfigError, match=where):
            load_config(path)

    def test_bad_integer(self, tmp_path):
        with pytest.raises(ConfigError, match="must be an integer"):
            minimal_config(tmp_path, body="[run]\nseed = 1.5\n")

    @pytest.mark.parametrize(
        "section, message",
        [
            ("[refine]\npos_iou = 0.1\nneg_iou = 0.5\n", "thresholds"),
            ("[refine]\njitter_shift_max = -1\n", "jitter_shift_max must be >= 0"),
        ],
        ids=["pos-below-neg", "negative-jitter-shift"],
    )
    def test_invalid_stage_value_becomes_config_error(self, tmp_path, section, message):
        with pytest.raises(ConfigError, match=message):
            minimal_config(tmp_path, body=MINIMAL + section)

    def test_overrides_applied(self, tmp_path):
        config = minimal_config(
            tmp_path, overrides={"digest.relevance_threshold": "0.5", "run.runs": "2"}
        )
        assert config.digest.relevance_threshold == 0.5
        assert config.runs == 2

    def test_override_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            minimal_config(tmp_path, overrides={"run.bogus": "1"})

    def test_parse_override_shape(self):
        assert parse_override("refine.pad_alpha") == ("refine", "pad_alpha")
        with pytest.raises(ConfigError, match="section.key"):
            parse_override("pad_alpha")
        with pytest.raises(ConfigError, match="section.key"):
            parse_override("a.b.c")

    def test_http_llm_requires_endpoint(self, tmp_path):
        body = MINIMAL + "[llm]\nkind = http\n"
        with pytest.raises(ConfigError, match="llm.endpoint"):
            minimal_config(tmp_path, body=body)

    def test_unknown_backend_kind(self, tmp_path):
        body = MINIMAL + "[llm]\nkind = local\n"
        with pytest.raises(ConfigError, match="llm.kind"):
            minimal_config(tmp_path, body=body)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("run.in_flight_limit", "0", "in_flight_limit must be >= 1"),
            ("embedder.kind", "bogus", "embedder.kind must be one of"),
            ("embedder.kind", "http", "embedder.endpoint is not set"),
            ("embedder.dim", "0", "embedder.dim must be >= 1"),
        ],
        ids=["in-flight-limit-0", "embedder-kind", "embedder-endpoint", "embedder-dim-0"],
    )
    def test_invalid_run_or_embedder_value(self, tmp_path, key, value, message):
        with pytest.raises(ConfigError, match=message):
            minimal_config(tmp_path, overrides={key: value})


class TestConfigHash:
    def test_stable_across_loads(self, tmp_path):
        a = minimal_config(tmp_path)
        b = minimal_config(tmp_path)
        assert config_sha256(a) == config_sha256(b)

    def test_sensitive_to_values(self, tmp_path):
        a = minimal_config(tmp_path)
        b = minimal_config(tmp_path, overrides={"run.runs": "9"})
        assert config_sha256(a) != config_sha256(b)

    def test_effective_dict_sections(self, tmp_path):
        out = effective_dict(minimal_config(tmp_path))
        assert set(out) == {"paths", "run", "llm", "embedder", "digest", "refine"}
        assert out["run"]["seed"] == 7

    # the hash names the exact settings of every manifest already written,
    # so a loader change must not move it
    def test_hash_pinned_for_minimal_file(self, tmp_path):
        assert config_sha256(minimal_config(tmp_path)) == (
            "723a099db8cb782a2aaecbbbb241c65d63e9a6fc0211931c0dfc600d80d671ee"
        )

    def test_hash_pinned_for_every_non_path_key(self, tmp_path):
        config = minimal_config(tmp_path, body=EVERY_NON_PATH_KEY)
        assert config_sha256(config) == (
            "2ca34f647916ba01ebb7fa66b646968a476b68a1a64437266329c6cb96f762c7"
        )

    def test_readme_block_lists_every_key_and_loads(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        (block,) = re.findall(r"```ini\n(.*?)```", readme.read_text("utf-8"), re.S)
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(block)
        documented = {section: set(cp[section]) for section in cp.sections()}
        config = minimal_config(tmp_path)
        assert documented == {s: set(keys) for s, keys in effective_dict(config).items()}
        # it loads, and every value it shows outside [paths] is the default
        for name in ("captions.jsonl", "queries.jsonl", "transcripts.json"):
            (tmp_path / name).write_text("", encoding="utf-8")
        shown = effective_dict(minimal_config(tmp_path, body=block))
        defaults = effective_dict(config)
        del shown["paths"], defaults["paths"]
        assert shown == defaults

    def test_direct_construction_validated(self):
        with pytest.raises(ConfigError, match="runs"):
            PipelineConfig(
                captions_path=None,
                queries_path=None,
                transcripts_path=None,
                output_path=None,
                seed=1,
                runs=0,
                in_flight_limit=1,
                llm_kind="replay",
                llm_endpoint=None,
                llm_auth_env=None,
                embedder_kind="mock",
                embedder_endpoint=None,
                embedder_auth_env=None,
                embedder_dim=64,
                digest=minimal_digest(),
                refine=minimal_refine(),
            )


def minimal_digest():
    from egolog.digest import DigestConfig

    return DigestConfig()


def minimal_refine():
    from egolog.refine import RefineConfig

    return RefineConfig()


def qa_fixture(n_items=4):
    return synth_qa_benchmark(n_items=n_items, captions_per_video=6)


# a fixed run of each task for TestCliEval's pins: NLQ with a hit, a wide
# candidate, an NA refusal and a miss; QA with a hit, a wrong choice and a miss
PIN_QUERIES = {
    "nlq": [
        Query(f"n{i}", "v1", QueryKind.NLQ, "when?", gt_window=(10.0, 20.0))
        for i in range(1, 5)
    ],
    "qa": [
        Query(f"q{i}", "v1", QueryKind.QA, "what?", choices=tuple("abcde"), gt_answer_idx=i)
        for i in range(1, 5)
    ],
}
PIN_ROWS = {
    "nlq": [
        {"qid": "n1", "predicted_window": [11, 19], "candidates": [[11, 19]], "na": False,
         "confidence": 3},
        {"qid": "n2", "predicted_window": [14, 30], "candidates": [[14, 30], [40, 50]],
         "na": False, "confidence": 2},
        {"qid": "n3", "predicted_window": [0, 100], "candidates": [], "na": True,
         "confidence": 1},
    ],
    "qa": [
        {"qid": "q1", "choice": 1, "confidence": 3},
        {"qid": "q2", "choice": 0, "confidence": 2},
        {"qid": "q3", "choice": 3, "confidence": 1},
    ],
}
# what eval prints for them: the report on stdout, its summary on stderr
PIN_STDOUT = {
    "nlq": """\
{
  "task": "nlq",
  "n_queries": 4,
  "n_answered": 2,
  "n_missing": 1,
  "na_ratio": 0.5,
  "overlap": 1.0,
  "iou_star": {
    "0.3": 0.5,
    "0.5": 0.5
  },
  "recall_at_1": {
    "0.3": 0.25,
    "0.5": 0.25
  },
  "r1_mean": 0.25,
  "undefined_metrics": [],
  "per_confidence": {
    "1": {
      "task": "nlq",
      "n_queries": 3,
      "n_answered": 2,
      "n_missing": 0,
      "na_ratio": 0.3333333333333333,
      "overlap": 1.0,
      "iou_star": {
        "0.3": 0.5,
        "0.5": 0.5
      },
      "recall_at_1": {
        "0.3": 0.3333333333333333,
        "0.5": 0.3333333333333333
      },
      "r1_mean": 0.3333333333333333,
      "undefined_metrics": []
    },
    "2": {
      "task": "nlq",
      "n_queries": 2,
      "n_answered": 2,
      "n_missing": 0,
      "na_ratio": 0.0,
      "overlap": 1.0,
      "iou_star": {
        "0.3": 0.5,
        "0.5": 0.5
      },
      "recall_at_1": {
        "0.3": 0.5,
        "0.5": 0.5
      },
      "r1_mean": 0.5,
      "undefined_metrics": []
    },
    "3": {
      "task": "nlq",
      "n_queries": 1,
      "n_answered": 1,
      "n_missing": 0,
      "na_ratio": 0.0,
      "overlap": 1.0,
      "iou_star": {
        "0.3": 1.0,
        "0.5": 1.0
      },
      "recall_at_1": {
        "0.3": 1.0,
        "0.5": 1.0
      },
      "r1_mean": 1.0,
      "undefined_metrics": []
    }
  }
}
""",
    "qa": """\
{
  "task": "qa",
  "n_queries": 4,
  "n_answered": 3,
  "n_missing": 1,
  "na_ratio": 0.0,
  "qa_accuracy": 0.5,
  "undefined_metrics": [],
  "per_confidence": {
    "1": {
      "task": "qa",
      "n_queries": 3,
      "n_answered": 3,
      "n_missing": 0,
      "na_ratio": 0.0,
      "qa_accuracy": 0.6666666666666666,
      "undefined_metrics": []
    },
    "2": {
      "task": "qa",
      "n_queries": 2,
      "n_answered": 2,
      "n_missing": 0,
      "na_ratio": 0.0,
      "qa_accuracy": 0.5,
      "undefined_metrics": []
    },
    "3": {
      "task": "qa",
      "n_queries": 1,
      "n_answered": 1,
      "n_missing": 0,
      "na_ratio": 0.0,
      "qa_accuracy": 1.0,
      "undefined_metrics": []
    }
  }
}
""",
}
PIN_STDERR = {
    "nlq": """\
task: nlq   queries: 4   answered: 2   missing: 1   NA ratio: 0.500
Overlap: 1.000
IoU*@0.3: 0.500   IoU*@0.5: 0.500
R@1 IoU@0.3: 0.250   R@1 IoU@0.5: 0.250   Mean: 0.250
confidence >= 1: queries: 3   Overlap: 1.000   R@1 IoU@0.3: 0.333   R@1 IoU@0.5: 0.333
confidence >= 2: queries: 2   Overlap: 1.000   R@1 IoU@0.3: 0.500   R@1 IoU@0.5: 0.500
confidence >= 3: queries: 1   Overlap: 1.000   R@1 IoU@0.3: 1.000   R@1 IoU@0.5: 1.000
""",
    "qa": """\
task: qa   queries: 4   answered: 3   missing: 1   NA ratio: 0.000
accuracy: 0.500
confidence >= 1: queries: 3   accuracy: 0.667
confidence >= 2: queries: 2   accuracy: 0.500
confidence >= 3: queries: 1   accuracy: 1.000
""",
}


class TestCliDigest:
    def test_writes_track_stats_and_manifest(self, tmp_path, capsys):
        tracks, _ = qa_fixture()
        config = write_run(tmp_path, tracks, sections="[run]\nseed = 3\n")
        out = tmp_path / "digested.jsonl"
        code = main(["digest", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert out.is_file()
        stats = json.loads((tmp_path / "digested.jsonl.stats.json").read_text())
        assert set(stats) == set(tracks)
        manifest = json.loads((tmp_path / "digested.jsonl.manifest.json").read_text())
        assert manifest["command"] == "digest"
        assert manifest["seed"] == 3
        assert manifest["failures"] == []
        assert manifest["counts"]["digested"] == len(tracks)

    def test_missing_out_is_fatal(self, tmp_path, capsys):
        config = write_run(tmp_path, qa_fixture()[0], sections="[run]\nseed = 3\n")
        code = main(["digest", "--config", str(config)])
        assert code == 1
        assert "no output path" in capsys.readouterr().err


class TestCliGenRefineData:
    def test_balanced_dataset(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=3, captions_per_video=8)
        config = write_run(
            tmp_path,
            tracks,
            queries,
            "[run]\nseed = 11\n[refine]\nsamples_per_gt = 4\njitter_shift_max = 6\n",
        )
        out = tmp_path / "refine.jsonl"
        code = main(["gen-refine-data", "--config", str(config), "--out", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 3 * 2 * 4
        for row in rows:
            assert set(row) == {"qid", "start_s", "end_s", "label", "iou"}
        labels = {}
        for row in rows:
            labels.setdefault(row["qid"], []).append(row["label"])
        for qid, seen in labels.items():
            assert seen.count("pos") == 4
            assert seen.count("neg") == 4

    def test_seed_flag_changes_output(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=8)
        sections = "[run]\nseed = 11\n[refine]\njitter_shift_max = 6\n"
        config = write_run(tmp_path, tracks, queries, sections)
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        out_c = tmp_path / "c.jsonl"
        assert main(["gen-refine-data", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["gen-refine-data", "--config", str(config), "--out", str(out_b)]) == 0
        assert (
            main(
                [
                    "gen-refine-data",
                    "--config",
                    str(config),
                    "--seed",
                    "99",
                    "--out",
                    str(out_c),
                ]
            )
            == 0
        )
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes() != out_c.read_bytes()


class TestCliEval:
    def write_preds(self, tmp_path, queries):
        preds = tmp_path / "preds.jsonl"
        with open(preds, "w", encoding="utf-8") as handle:
            for q in queries:
                row = {
                    "qid": q.qid,
                    "choice": q.gt_answer_idx,
                    "confidence": 3,
                    "explanation": "known key",
                }
                handle.write(json.dumps(row) + "\n")
        return preds

    def test_qa_eval_to_file(self, tmp_path, capsys):
        _, queries = qa_fixture()
        preds = self.write_preds(tmp_path, queries)
        config = write_run(tmp_path, queries=queries, sections="[run]\nseed = 3\n")
        out = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--config",
                str(config),
                "--predictions",
                str(preds),
                "--task",
                "qa",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["task"] == "qa"
        assert report["qa_accuracy"] == 1.0
        err = capsys.readouterr().err
        assert "accuracy: 1.000" in err

    def test_qa_eval_to_stdout(self, tmp_path, capsys):
        _, queries = qa_fixture()
        preds = self.write_preds(tmp_path, queries)
        config = write_run(tmp_path, queries=queries, sections="[run]\nseed = 3\n")
        code = main(
            ["eval", "--config", str(config), "--predictions", str(preds), "--task", "qa"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["qa_accuracy"] == 1.0

    @pytest.mark.parametrize("task", ["nlq", "qa"])
    def test_stdout_and_stderr_pinned(self, tmp_path, capsys, task):
        config = write_run(tmp_path, queries=PIN_QUERIES[task], sections="[run]\nseed = 3\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(json.dumps(row) + "\n" for row in PIN_ROWS[task]))
        argv = ["eval", "--config", str(config), "--predictions", str(preds), "--task", task]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == PIN_STDOUT[task]
        assert err == PIN_STDERR[task]

    def test_missing_predictions_file(self, tmp_path, capsys):
        config = write_run(tmp_path, queries=qa_fixture()[1], sections="[run]\nseed = 3\n")
        code = main(
            [
                "eval",
                "--config",
                str(config),
                "--predictions",
                str(tmp_path / "nope.jsonl"),
                "--task",
                "qa",
            ]
        )
        assert code == 1
        assert "does not exist" in capsys.readouterr().err
        argv = ["eval", "--config", str(config), "--predictions", str(tmp_path), "--task", "qa"]
        assert main(argv) == 1
        assert f"error: predictions file {tmp_path} is not a file\n" in capsys.readouterr().err

    def test_localize_output_scores(self, tmp_path, capsys):
        # a reply window narrower than a millisecond, next to a normal one:
        # localize writes times to the millisecond, and eval reads every row
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=8)
        config = write_run(tmp_path, tracks, queries, "[run]\nseed = 3\n")

        def reply(system_text, user_text):
            windows = [[10.0001, 10.0004], [2, 6]]
            entries = [
                {"qid": qid, "intervals": windows, "confidence": 2, "explanation": "x"}
                for qid in re.findall(r"^\d+\. \(qid (.+?)\) ", user_text, re.M)
            ]
            return json.dumps(entries)

        out = tmp_path / "preds.jsonl"
        llm = CallableBackend(reply)
        with mock.patch.object(pipeline, "build_llm", lambda config: llm):
            assert main(["localize", "--config", str(config), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["candidates"] for row in rows] == [[[2.0, 6.0]]] * 2
        capsys.readouterr()
        argv = ["eval", "--config", str(config), "--predictions", str(out), "--task", "nlq"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["n_queries"], report["n_answered"], report["n_missing"]) == (2, 2, 0)

    def test_out_path_naming_the_predictions_file_fails(self, tmp_path, capsys):
        _, queries = qa_fixture()
        preds = self.write_preds(tmp_path, queries)
        before = preds.read_bytes()
        config = write_run(tmp_path, queries=queries, sections="[run]\nseed = 3\n")
        argv = ["eval", "--config", str(config), "--predictions", str(preds), "--task", "qa"]
        assert main(argv + ["--out", str(preds)]) == 1
        message = f"error: cannot write {preds}: it is the --predictions file {preds}\n"
        assert message in capsys.readouterr().err
        assert preds.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.ini",
            "preds.jsonl",
            "queries.jsonl",
        ]


class TestCliAtomicWrites:
    @pytest.mark.parametrize("command", ["ask", "localize"])
    def test_failed_write_keeps_previous_output(self, tmp_path, monkeypatch, command):
        config = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out" / "preds.jsonl"
        argv = [command, "--config", str(config), "--out", str(out)]
        good = [{"qid": "q1"}, {"qid": "q2"}]
        monkeypatch.setattr(f"egolog.cli.run_{command}", lambda config: (good, []))
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.parent.iterdir()}

        # the second row cannot be serialised, so the write fails part-way
        bad = [{"qid": "q1"}, {"qid": "q2", "window": object()}]
        monkeypatch.setattr(f"egolog.cli.run_{command}", lambda config: (bad, []))
        with pytest.raises(TypeError):
            main(argv)
        assert {p.name: p.read_bytes() for p in out.parent.iterdir()} == before

    @pytest.mark.parametrize("target", ["directory", "under-a-file"])
    def test_unwritable_out_path_is_a_located_error(self, tmp_path, capsys, target):
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=8)
        config = write_run(tmp_path, tracks, queries, "[run]\nseed = 11\n")
        blocker = tmp_path / "blocker"
        if target == "directory":
            blocker.mkdir()
            out = blocker
        else:
            blocker.write_text("keep me\n")
            out = blocker / "out.jsonl"
        before = sorted(p.name for p in tmp_path.rglob("*"))
        code = main(["gen-refine-data", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: cannot write" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == before
        if target == "under-a-file":
            assert blocker.read_text() == "keep me\n"

    @pytest.mark.parametrize("command", ["localize", "ask", "digest"])
    def test_directory_out_path_fails_before_any_completion(self, tmp_path, capsys, command):
        if command == "localize":
            tracks, queries = synth_nlq_benchmark(n_items=3, captions_per_video=8)
            llm = ScriptedNlqBackend()
        else:
            tracks, queries = synth_qa_benchmark(n_items=3, captions_per_video=8)
            llm = ScriptedQaBackend()
        sections = "[run]\nseed = 11\nruns = 1\n[digest]\nmerge_mode = llm\n"
        config = write_run(tmp_path, tracks, queries, sections)
        argv = [command, "--config", str(config), "--out"]
        blocker = tmp_path / "blocker"
        blocker.mkdir()
        with mock.patch.object(pipeline, "build_llm", lambda config: llm):
            assert main(argv + [str(tmp_path / "out.jsonl")]) == 0
            sent = llm.calls
            assert sent > 0
            assert main(argv + [str(blocker)]) == 1
        assert llm.calls == sent
        assert f"error: cannot write {blocker}: Is a directory\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, out, source",
        [
            ("--out", "captions.jsonl", "paths.captions"),
            ("--out", "queries.jsonl", "paths.queries"),
            ("--out", "transcripts.json", "paths.transcripts"),
            ("--out", "hard-link.jsonl", "paths.captions"),
            ("--paths.output", "soft-link.jsonl", "paths.captions"),
        ],
        ids=["captions", "queries", "transcripts", "hard-link", "soft-link"],
    )
    def test_out_path_naming_an_input_fails_before_any_unit(
        self, tmp_path, capsys, flag, out, source
    ):
        tracks, queries = qa_fixture(n_items=2)
        (tmp_path / "transcripts.json").write_text("{}\n")
        config = write_run(
            tmp_path,
            tracks,
            queries,
            "[run]\nseed = 3\nruns = 1\n[digest]\nmerge_mode = llm\n",
            extra_paths="transcripts = transcripts.json\n",
        )
        os.link(tmp_path / "captions.jsonl", tmp_path / "hard-link.jsonl")
        (tmp_path / "soft-link.jsonl").symlink_to("captions.jsonl")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        llm = ScriptedQaBackend()
        with mock.patch.object(pipeline, "build_llm", lambda config: llm):
            for command in ("digest", "ask"):
                # --out resolves against the working directory, paths.output
                # against the config file's, without following links
                target = tmp_path / out if flag == "--out" else out
                argv = [command, "--config", str(config), f"{flag}={target}"]
                assert main(argv) == 1
                err = capsys.readouterr().err
                assert err.startswith(f"error: cannot write {tmp_path / out}: it is the {source} ")
        assert llm.calls == 0
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


    @pytest.mark.parametrize("flag", ["--out", "--paths.output"])
    def test_symlinked_output_keeps_the_link_and_rewrites_its_target(self, tmp_path, flag):
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=8)
        config = write_run(tmp_path, tracks, queries, "[run]\nseed = 11\n")
        target = tmp_path / "target.jsonl"
        target.write_text("old\n")
        link = tmp_path / "link.jsonl"
        link.symlink_to("target.jsonl")
        # --out resolves against the working directory, paths.output against
        # the config file's
        out = str(link) if flag == "--out" else link.name
        assert main(["gen-refine-data", "--config", str(config), f"{flag}={out}"]) == 0
        assert link.is_symlink() and os.readlink(link) == "target.jsonl"
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert rows and all(row["qid"] in ("n000", "n001") for row in rows)


class TestCliCommands:
    def test_help_lists_the_commands_in_order(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert out.startswith("usage: egolog [-h] {digest,ask,localize,eval,gen-refine-data}")

    # command -> (the egolog.cli function it runs, what that returns, the counts)
    RUNS = {
        "digest": ("run_digest", ({}, {}, []), {"videos": 0, "digested": 0}),
        "ask": (
            "run_ask",
            ([{"qid": "a"}], [UnitFailure("b", "lost")]),
            {"questions": 2, "answered": 1},
        ),
        "localize": ("run_localize", ([{"qid": "a"}], []), {"queries": 1, "localized": 1}),
        "eval": ("run_eval", evaluate_qa({}, {}), {"queries": 0}),
        "gen-refine-data": ("run_gen_refine_data", [{"qid": "a"}], {"samples": 1}),
    }

    @pytest.mark.parametrize("command", list(RUNS))
    def test_each_command_calls_the_run_function_in_force(self, tmp_path, command):
        # a tracer replaces egolog.cli's run_* attributes after import
        run, result, counts = self.RUNS[command]
        config = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out.json"
        argv = [command, "--config", str(config), "--out", str(out)]
        if command == "eval":
            argv += ["--predictions", str(config), "--task", "qa"]
        with mock.patch.object(cli, run, return_value=result) as stub:
            code = main(argv)
        assert stub.call_count == 1
        assert code == (2 if command == "ask" else 0)
        manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
        assert (manifest["command"], manifest["counts"]) == (command, counts)


class TestCliErrors:
    @needs_unreadable
    @pytest.mark.parametrize(
        "argv",
        [
            ["digest", "--config", str(UNREADABLE)],
            ["digest", "--config", "{config}", "--paths.captions", str(UNREADABLE)],
            ["ask", "--config", "{config}", "--paths.transcripts", str(UNREADABLE)],
            ["eval", "--config", "{config}", "--task", "qa", "--predictions", str(UNREADABLE)],
        ],
        ids=["config", "captions", "transcripts", "predictions"],
    )
    def test_unreadable_input_file_exits_1(self, tmp_path, capsys, argv):
        config = write_run(tmp_path, *qa_fixture(), "[run]\nseed = 3\n")
        out = str(tmp_path / "o.jsonl")
        code = main([arg.format(config=config) for arg in argv] + ["--out", out])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot read" in err and str(UNREADABLE) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["digest", "--config", "{long}"],
            ["digest", "--config", "{config}", "--paths.captions", "{long}"],
            ["eval", "--config", "{config}", "--task", "qa", "--predictions", "{long}"],
            ["ask", "--config", "{config}", "--out", "{long}"],
        ],
        ids=["config", "captions", "predictions", "output"],
    )
    def test_path_that_cannot_be_looked_up_exits_1(self, tmp_path, capsys, argv):
        config = write_run(tmp_path, *qa_fixture(), "[run]\nseed = 3\n")
        # a file name longer than the file system allows: stat fails with ENAMETOOLONG
        long = str(tmp_path / ("a" * 300))
        code = main([arg.format(config=config, long=long) for arg in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert long in err and f": {os.strerror(errno.ENAMETOOLONG)}" in err

    def test_exit_codes_reach_the_shell(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=8)
        config = str(write_run(tmp_path, tracks, queries, "[run]\nseed = 11\n"))
        (tmp_path / "empty.json").write_text("{}\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])

        def exit_code(*argv):
            cmd = [sys.executable, "-m", "egolog.cli", argv[0], "--config", config, *argv[1:]]
            done = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, timeout=120)
            return done.returncode

        assert exit_code("gen-refine-data", "--out", "refine.jsonl") == 0
        # every unit misses the empty transcripts store
        replay = ["--llm.kind", "replay", "--paths.transcripts", "empty.json"]
        assert exit_code("localize", *replay, "--out", "windows.jsonl") == 2
        missing = ["--paths.captions", "absent.jsonl"]
        assert exit_code("localize", *missing, "--out", "windows.jsonl") == 1

    @pytest.mark.parametrize("section", ["llm", "embedder"])
    @pytest.mark.parametrize(
        "url",
        [
            "localhost:8000/complete",
            "ftp://localhost:8000/complete",
            "http:///complete",
            "http://[::1",
            # http.client raises InvalidURL or UnicodeEncodeError on these
            "http://127.0.0.1:8000/com plete",
            "http://127.0.0.1:8000/com\tplete",
            "http://127.0.0.1:8000/complete\x7f",
            "http://127.0.0.1:8000/compl\u00e8te",
        ],
        ids=["no-scheme", "ftp", "no-host", "malformed-ipv6", "space", "tab", "delete", "non-ascii"],
    )
    def test_endpoint_without_http_scheme_or_host_exits_1(
        self, tmp_path, capsys, section, url
    ):
        tracks, queries = qa_fixture(n_items=2)
        sections = f"[run]\nseed = 3\nruns = 1\n[{section}]\nkind = http\nendpoint = {url}\n"
        config = write_run(tmp_path, tracks, queries, sections)
        llm = ScriptedQaBackend()
        with mock.patch.object(pipeline, "build_llm", lambda config: llm):
            code = main(["ask", "--config", str(config), "--out", str(tmp_path / "a.jsonl")])
        assert code == 1
        assert llm.calls == 0
        message = (
            f"error: {section}.endpoint must be an http(s) URL with a host, "
            f"in printable ASCII without spaces: {url!r}\n"
        )
        assert capsys.readouterr().err == message

    def test_fatal_config_error_exits_1(self, tmp_path, capsys):
        code = main(["digest", "--config", str(tmp_path / "nope.ini")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["digest"])  # --config is required
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transcode", "--config", "x"])
        assert exc.value.code == 2

    def test_unknown_override_exits_1(self, tmp_path, capsys):
        config = write_run(tmp_path, qa_fixture()[0], sections="[run]\nseed = 3\n")
        code = main(
            [
                "digest",
                "--config",
                str(config),
                "--out",
                str(tmp_path / "o.jsonl"),
                "--digest.sparkle",
                "1",
            ]
        )
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["stray"], "unexpected argument 'stray'"),
            (
                ["--digest.relevance_threshold"],
                "override --digest.relevance_threshold needs a value",
            ),
        ],
        ids=["stray-positional", "flag-without-value"],
    )
    def test_malformed_override_exits_1(self, tmp_path, capsys, extra, message):
        config = write_config(tmp_path, MINIMAL)
        out = str(tmp_path / "o.jsonl")
        code = main(["digest", "--config", str(config), "--out", out, *extra])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_missing_captions_path_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path, MINIMAL)
        out = str(tmp_path / "o.jsonl")
        code = main(["localize", "--config", str(config), "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: paths.captions is required for this command" in err

    def test_deeply_nested_captions_line_exits_1(self, tmp_path, capsys):
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=8)
        config = write_run(tmp_path, tracks, queries, "[run]\nseed = 11\n")
        captions = tmp_path / "captions.jsonl"
        with captions.open("a", encoding="utf-8") as fh:
            fh.write("[" * 100_000 + "]" * 100_000 + "\n")
        line = len(captions.read_text("utf-8").splitlines())
        out = str(tmp_path / "o.jsonl")
        code = main(["localize", "--config", str(config), "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: malformed line: nested too deeply in {captions} at line {line}" in err

    def test_runs_flag_reaches_run_and_manifest(self, tmp_path):
        config = write_run(tmp_path, *qa_fixture(n_items=2), "[run]\nseed = 3\nruns = 1\n")
        out = tmp_path / "answers.jsonl"
        llm = ReplayBackend({}, inner=ScriptedQaBackend())
        with mock.patch.object(pipeline, "build_llm", lambda config: llm):
            code = main(["ask", "--config", str(config), "--runs", "3", "--out", str(out)])
        assert code == 0
        manifest = json.loads((tmp_path / "answers.jsonl.manifest.json").read_text())
        assert manifest["runs"] == 3
        assert len(llm.transcripts) == 2
        for runs in llm.transcripts.values():
            assert sorted(runs) == ["run_0", "run_1", "run_2"]

    def test_dotted_override_reaches_pipeline(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=8)
        sections = "[run]\nseed = 11\n[refine]\njitter_shift_max = 6\n"
        config = write_run(tmp_path, tracks, queries, sections)
        out = tmp_path / "r.jsonl"
        code = main(
            [
                "gen-refine-data",
                "--config",
                str(config),
                "--out",
                str(out),
                "--refine.samples_per_gt=2",
            ]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 2 * 2 * 2

    def test_partial_failure_exits_2(self, tmp_path, capsys):
        # the first question's video has no captions; the others answer
        tracks, queries = synth_qa_benchmark(n_items=3, captions_per_video=6)
        lost = queries[0]
        del tracks[lost.video_id]
        config = write_run(tmp_path, tracks, queries, "[run]\nseed = 3\nruns = 1\n")
        out = tmp_path / "answers.jsonl"
        llm = ScriptedQaBackend()
        with mock.patch.object(pipeline, "build_llm", lambda config: llm):
            code = main(["ask", "--config", str(config), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"failed {lost.qid}: no captions for video {lost.video_id!r}" in err
        answered = [json.loads(line)["qid"] for line in out.read_text().splitlines()]
        assert answered == [q.qid for q in queries[1:]]
        manifest = json.loads((tmp_path / "answers.jsonl.manifest.json").read_text())
        assert [f["qid"] for f in manifest["failures"]] == [lost.qid]

    @pytest.mark.parametrize("section", ["llm", "embedder"])
    @pytest.mark.parametrize(
        "token", ["abc\ndef", "abc\r\nX-Injected: 1", "abc\r"], ids=["lf", "crlf-header", "cr"]
    )
    def test_auth_token_with_a_line_break_fails_at_load(
        self, tmp_path, monkeypatch, capsys, section, token
    ):
        # http.client refuses it in a header with a bare ValueError
        monkeypatch.setenv("EGO_TOKEN", token)
        sections = "[run]\nseed = 3\n" + "".join(
            f"[{name}]\nkind = http\nendpoint = http://127.0.0.1:1/\n"
            + ("auth_env = EGO_TOKEN\n" if name == section else "")
            for name in ("llm", "embedder")
        )
        config = write_run(tmp_path, *qa_fixture(), sections)
        code = main(["ask", "--config", str(config), "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: auth environment variable 'EGO_TOKEN' holds a line break\n"

    def test_missing_auth_env_fails_fast(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("EGO_TOKEN", raising=False)
        config = write_run(
            tmp_path,
            *qa_fixture(),
            "[run]\nseed = 3\n"
            "[llm]\nkind = http\nendpoint = http://127.0.0.1:1/\nauth_env = EGO_TOKEN\n",
        )
        code = main(
            ["ask", "--config", str(config), "--out", str(tmp_path / "o.jsonl")]
        )
        assert code == 1
        assert "EGO_TOKEN" in capsys.readouterr().err

    def test_malformed_transcripts_exits_1(self, tmp_path, capsys):
        transcripts = tmp_path / "transcripts.json"
        transcripts.write_text('{"abc": "text"}', encoding="utf-8")
        config = write_run(
            tmp_path, *qa_fixture(), "[run]\nseed = 3\n", f"transcripts = {transcripts.name}\n"
        )
        code = main(
            ["ask", "--config", str(config), "--out", str(tmp_path / "o.jsonl")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"transcripts file {transcripts}: entry 'abc'" in err
