from __future__ import annotations

import configparser
import json
import re
from pathlib import Path

import pytest

from egolog.cli import main
from egolog.config import (
    PipelineConfig,
    config_sha256,
    effective_dict,
    load_config,
    parse_override,
)
from egolog.digest import MergeMode
from egolog.errors import ConfigError

from helpers import synth_nlq_benchmark, synth_qa_benchmark, write_config, write_corpus

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
        assert config.refine.jitter_scale_range == (0.5, 2.0)
        assert config.samples_per_gt == 10
        assert config.captions_path is None

    def test_seed_is_mandatory(self, tmp_path):
        with pytest.raises(ConfigError, match="run.seed is required"):
            minimal_config(tmp_path, body="[run]\nruns = 3\n")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "nope.ini")

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

    def test_output_path_need_not_exist(self, tmp_path):
        body = MINIMAL + "[paths]\noutput = out/preds.jsonl\n"
        config = minimal_config(tmp_path, body=body)
        assert config.output_path == tmp_path / "out" / "preds.jsonl"

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

    def test_bad_integer(self, tmp_path):
        with pytest.raises(ConfigError, match="must be an integer"):
            minimal_config(tmp_path, body="[run]\nseed = 1.5\n")

    def test_invalid_stage_value_becomes_config_error(self, tmp_path):
        body = MINIMAL + "[refine]\npos_iou = 0.1\nneg_iou = 0.5\n"
        with pytest.raises(ConfigError, match="thresholds"):
            minimal_config(tmp_path, body=body)

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
                samples_per_gt=10,
            )


def minimal_digest():
    from egolog.digest import DigestConfig

    return DigestConfig()


def minimal_refine():
    from egolog.refine import RefineConfig

    return RefineConfig()


def qa_fixture_on_disk(tmp_path, n_items=4):
    tracks, queries = synth_qa_benchmark(n_items=n_items, captions_per_video=6)
    captions, qpath = write_corpus(tmp_path, tracks, queries)
    return tracks, queries, captions, qpath


class TestCliDigest:
    def test_writes_track_stats_and_manifest(self, tmp_path, capsys):
        tracks, queries, captions, qpath = qa_fixture_on_disk(tmp_path)
        config = write_config(
            tmp_path,
            f"[run]\nseed = 3\n[paths]\ncaptions = {captions.name}\n",
        )
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
        _, _, captions, _ = qa_fixture_on_disk(tmp_path)
        config = write_config(
            tmp_path, f"[run]\nseed = 3\n[paths]\ncaptions = {captions.name}\n"
        )
        code = main(["digest", "--config", str(config)])
        assert code == 1
        assert "no output path" in capsys.readouterr().err


class TestCliGenRefineData:
    def test_balanced_dataset(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=3, captions_per_video=8)
        captions, qpath = write_corpus(tmp_path, tracks, queries)
        config = write_config(
            tmp_path,
            "[run]\nseed = 11\n"
            f"[paths]\ncaptions = {captions.name}\nqueries = {qpath.name}\n"
            "[refine]\nsamples_per_gt = 4\njitter_shift_max = 6\n",
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
        captions, qpath = write_corpus(tmp_path, tracks, queries)
        config = write_config(
            tmp_path,
            "[run]\nseed = 11\n"
            f"[paths]\ncaptions = {captions.name}\nqueries = {qpath.name}\n"
            "[refine]\njitter_shift_max = 6\n",
        )
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
        tracks, queries, captions, qpath = qa_fixture_on_disk(tmp_path)
        preds = self.write_preds(tmp_path, queries)
        config = write_config(
            tmp_path,
            f"[run]\nseed = 3\n[paths]\nqueries = {qpath.name}\n",
        )
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
        tracks, queries, captions, qpath = qa_fixture_on_disk(tmp_path)
        preds = self.write_preds(tmp_path, queries)
        config = write_config(
            tmp_path, f"[run]\nseed = 3\n[paths]\nqueries = {qpath.name}\n"
        )
        code = main(
            ["eval", "--config", str(config), "--predictions", str(preds), "--task", "qa"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["qa_accuracy"] == 1.0

    def test_missing_predictions_file(self, tmp_path, capsys):
        _, _, _, qpath = qa_fixture_on_disk(tmp_path)
        config = write_config(
            tmp_path, f"[run]\nseed = 3\n[paths]\nqueries = {qpath.name}\n"
        )
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


class TestCliErrors:
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
        _, _, captions, _ = qa_fixture_on_disk(tmp_path)
        config = write_config(
            tmp_path, f"[run]\nseed = 3\n[paths]\ncaptions = {captions.name}\n"
        )
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

    def test_dotted_override_reaches_pipeline(self, tmp_path):
        tracks, queries = synth_nlq_benchmark(n_items=2, captions_per_video=8)
        captions, qpath = write_corpus(tmp_path, tracks, queries)
        config = write_config(
            tmp_path,
            "[run]\nseed = 11\n"
            f"[paths]\ncaptions = {captions.name}\nqueries = {qpath.name}\n"
            "[refine]\njitter_shift_max = 6\n",
        )
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

    def test_missing_auth_env_fails_fast(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("EGO_TOKEN", raising=False)
        tracks, queries, captions, qpath = qa_fixture_on_disk(tmp_path)
        config = write_config(
            tmp_path,
            "[run]\nseed = 3\n"
            f"[paths]\ncaptions = {captions.name}\nqueries = {qpath.name}\n"
            "[llm]\nkind = http\nendpoint = http://127.0.0.1:1/\nauth_env = EGO_TOKEN\n",
        )
        code = main(
            ["ask", "--config", str(config), "--out", str(tmp_path / "o.jsonl")]
        )
        assert code == 1
        assert "EGO_TOKEN" in capsys.readouterr().err
