"""The README's examples run as written.

The "Quick look" snippet runs in a fresh interpreter and prints what its
comment says, the file-format examples load through the loaders, the
table of record shapes is the loaders' own, the eval report's keys are
the ones evaluate_nlq and evaluate_qa return, and every
egolog.<module>.<name> it names exists.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

from egolog.corpus import (
    CAPTION_SHAPES,
    QUERY_SHAPES,
    QueryKind,
    load_captions,
    load_queries,
    write_jsonl,
)
from egolog.metrics import (
    PREDICTION_SHAPES,
    evaluate_nlq,
    evaluate_qa,
    load_predictions,
    prediction_row,
)

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text("utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    return README[start : README.index("\n## ", start + 1)]


def _blocks(section: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


def test_quick_look_merges_the_two_captions_into_one(tmp_path):
    (code,) = _blocks(_section("Quick look"), "python")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    stats = ast.literal_eval(done.stdout.strip())
    assert stats["input_captions"] == 2
    assert stats["output_captions"] == 1


def test_file_format_examples_load(tmp_path):
    blocks = _blocks(_section("File formats"), "json")
    captions_block, queries_block, predictions_block = blocks[:3]
    captions = tmp_path / "captions.jsonl"
    captions.write_text(captions_block, encoding="utf-8")
    queries = tmp_path / "queries.jsonl"
    queries.write_text(queries_block, encoding="utf-8")

    (track,) = load_captions(captions).values()
    assert track.bounds == (0.0, 180.0)
    assert [c.text for c in track.captions] == ["C opens the drawer"]
    qa, nlq = load_queries(queries)
    assert (qa.kind, qa.gt_answer_idx) == (QueryKind.QA, 2)
    assert (nlq.kind, nlq.gt_window) == (QueryKind.NLQ, (12.0, 31.5))

    by_qid = {q.qid: q for q in (qa, nlq)}
    answer_row, window_row = predictions_block.splitlines()
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(answer_row + "\n", encoding="utf-8")
    answers, finals = load_predictions(predictions, QueryKind.QA, by_qid)
    assert (answers["q1"].choice_idx, answers["q1"].confidence, finals) == (2, 3, {})
    predictions.write_text(window_row + "\n", encoding="utf-8")
    answers, finals = load_predictions(predictions, QueryKind.NLQ, by_qid)
    assert list(answers["n1"].intervals) == [(12.0, 31.5), (40.0, 52.0)]
    assert finals == {"n1": (12.0, 31.5)}


def test_prediction_examples_are_what_the_writer_writes(tmp_path):
    _, queries_block, predictions_block = _blocks(_section("File formats"), "json")[:3]
    (tmp_path / "queries.jsonl").write_text(queries_block, encoding="utf-8")
    by_qid = {q.qid: q for q in load_queries(tmp_path / "queries.jsonl")}
    path = tmp_path / "predictions.jsonl"
    for row, kind in zip(predictions_block.splitlines(), (QueryKind.QA, QueryKind.NLQ)):
        path.write_text(row + "\n", encoding="utf-8")
        answers, finals = load_predictions(path, kind, by_qid)
        write_jsonl(path, [prediction_row(a, finals.get(q)) for q, a in answers.items()])
        assert path.read_text("utf-8") == row + "\n"


def test_record_shape_table_is_the_loaders_tables():
    rows = re.findall(
        r"^\| (captions|queries|predictions) \| `(\w+)` \| (.*) \|$",
        _section("File formats"),
        re.M,
    )
    documented: dict[str, dict[str, set[str]]] = {}
    for name, shape, keys in rows:
        documented.setdefault(name, {})[shape] = set(re.findall(r"`(\w+)`", keys))
    tables = {
        "captions": CAPTION_SHAPES,
        "queries": QUERY_SHAPES,
        "predictions": PREDICTION_SHAPES,
    }
    assert documented == {name: dict(table) for name, table in tables.items()}
    # the shapes in the order the mixed-shape message names them
    assert [list(shapes) for shapes in documented.values()] == [
        list(table) for table in tables.values()
    ]


def test_eval_report_keys_are_the_reports_keys():
    text = " ".join(_section("File formats").split())
    documented = {
        task: re.findall(r"`(\w+)`", keys)
        for task, keys in re.findall(r"An? `(\w+)` report has the keys (.*?), in this order", text)
    }
    reports = {"nlq": evaluate_nlq({}, {}, {}), "qa": evaluate_qa({}, {})}
    assert documented == {task: list(report) for task, report in reports.items()}
    entry = "an entry has every key of its task's report, in the same order, but `per_confidence`"
    assert entry in text
    for task, report in reports.items():
        for entry in report["per_confidence"].values():
            assert list(entry) == documented[task][:-1]


def test_every_named_package_attribute_resolves():
    named = set(re.findall(r"\begolog\.(\w+)\.(\w+)\b", README))
    assert ("llm", "ReplayBackend") in named
    missing = [
        f"egolog.{module}.{name}"
        for module, name in sorted(named)
        if not hasattr(importlib.import_module(f"egolog.{module}"), name)
    ]
    assert missing == []
