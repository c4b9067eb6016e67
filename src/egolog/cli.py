"""Command-line entry points.

Subcommands: digest, ask, localize, eval, gen-refine-data. Every
subcommand takes --config plus optional --seed / --runs / --out
shortcuts, and any config key can be overridden with its dotted name,
for example --digest.relevance_threshold 0.4. Structured JSON event
lines go to stderr; output files are written atomically next to a
manifest recording the config hash, seed, backend kinds, counts, and
failures.

Exit codes: 0 success, 1 fatal error, 2 partial per-unit failures (or a
usage error from argument parsing).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Sequence

from .config import PipelineConfig, check_not_input, config_sha256, load_config, parse_override
from .corpus import save_captions, write_json, write_jsonl
from .errors import ConfigError, EgologError
from .metrics import report_as_dict, report_to_text
from .pipeline import (
    UnitFailure,
    run_ask,
    run_digest,
    run_eval,
    run_gen_refine_data,
    run_localize,
)

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egolog",
        description=(
            "Answer questions and localize moments in long egocentric videos "
            "represented by timestamped caption tracks."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="INI config file")
    common.add_argument("--seed", type=int, help="override run.seed")
    common.add_argument("--runs", type=int, help="override run.runs")
    common.add_argument("--out", help="override paths.output (relative to cwd)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("digest", parents=[common], help="compact caption tracks")
    sub.add_parser("ask", parents=[common], help="answer multiple-choice questions")
    sub.add_parser("localize", parents=[common], help="localize language queries")
    evalp = sub.add_parser("eval", parents=[common], help="score a predictions file")
    evalp.add_argument("--predictions", required=True, help="predictions JSONL")
    evalp.add_argument("--task", required=True, choices=("qa", "nlq"))
    sub.add_parser(
        "gen-refine-data",
        parents=[common],
        help="jitter ground-truth windows into a labeled training set",
    )
    return parser


def _split_overrides(extra: Sequence[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    i = 0
    while i < len(extra):
        arg = extra[i]
        if not arg.startswith("--"):
            raise ConfigError(f"unexpected argument {arg!r}")
        body = arg[2:]
        if "=" in body:
            flag, value = body.split("=", 1)
            i += 1
        else:
            flag = body
            if i + 1 >= len(extra):
                raise ConfigError(f"override --{flag} needs a value")
            value = extra[i + 1]
            i += 2
        parse_override(flag)
        overrides[flag] = value
    return overrides


def _write_manifest(
    out_path: Path,
    command: str,
    config: PipelineConfig,
    counts: dict,
    failures: Sequence[UnitFailure],
) -> None:
    manifest = {
        "command": command,
        "config_sha256": config_sha256(config),
        "seed": config.seed,
        "runs": config.runs,
        "llm_kind": config.llm_kind,
        "embedder_kind": config.embedder_kind,
        "counts": counts,
        "failures": [{"qid": f.qid, "error": f.error} for f in failures],
    }
    write_json(out_path.with_name(out_path.name + ".manifest.json"), manifest)


def _require_out(config: PipelineConfig) -> Path:
    if config.output_path is None:
        raise ConfigError("no output path: set paths.output or pass --out")
    return config.output_path


def _finish(
    command: str,
    config: PipelineConfig,
    out_path: Path,
    counts: dict,
    failures: Sequence[UnitFailure],
) -> int:
    _write_manifest(out_path, command, config, counts, failures)
    summary = "   ".join(f"{k}: {v}" for k, v in counts.items())
    print(f"{command}: {summary} -> {out_path}", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"  failed {failure.qid}: {failure.error}", file=sys.stderr)
        return 2
    return 0


def _cmd_digest(config: PipelineConfig, args: argparse.Namespace) -> int:
    out_path = _require_out(config)
    digested, stats, failures = run_digest(config)
    save_captions(digested, out_path)
    write_json(
        out_path.with_name(out_path.name + ".stats.json"),
        {vid: stats[vid].as_dict() for vid in sorted(stats)},
    )
    counts = {"videos": len(digested) + len(failures), "digested": len(digested)}
    return _finish("digest", config, out_path, counts, failures)


def _cmd_ask(config: PipelineConfig, args: argparse.Namespace) -> int:
    out_path = _require_out(config)
    records, failures = run_ask(config)
    write_jsonl(out_path, records)
    counts = {"questions": len(records) + len(failures), "answered": len(records)}
    return _finish("ask", config, out_path, counts, failures)


def _cmd_localize(config: PipelineConfig, args: argparse.Namespace) -> int:
    out_path = _require_out(config)
    records, failures = run_localize(config)
    write_jsonl(out_path, records)
    counts = {"queries": len(records) + len(failures), "localized": len(records)}
    return _finish("localize", config, out_path, counts, failures)


def _cmd_eval(config: PipelineConfig, args: argparse.Namespace) -> int:
    if config.output_path is not None:
        check_not_input(config.output_path, {"--predictions": Path(args.predictions)})
    report = run_eval(config, args.predictions, args.task)
    payload = report_as_dict(report)
    if config.output_path is not None:
        write_json(config.output_path, payload)
        _write_manifest(
            config.output_path,
            "eval",
            config,
            {"queries": report.n_queries},
            [],
        )
    else:
        print(json.dumps(payload, indent=2))
    print(report_to_text(report), file=sys.stderr)
    return 0


def _cmd_gen_refine_data(config: PipelineConfig, args: argparse.Namespace) -> int:
    out_path = _require_out(config)
    records = run_gen_refine_data(config)
    write_jsonl(out_path, records)
    counts = {"samples": len(records)}
    return _finish("gen-refine-data", config, out_path, counts, [])


_COMMANDS = {
    "digest": _cmd_digest,
    "ask": _cmd_ask,
    "localize": _cmd_localize,
    "eval": _cmd_eval,
    "gen-refine-data": _cmd_gen_refine_data,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    try:
        overrides = _split_overrides(extra)
        if args.seed is not None:
            overrides["run.seed"] = str(args.seed)
        if args.runs is not None:
            overrides["run.runs"] = str(args.runs)
        if args.out is not None:
            overrides["paths.output"] = str(Path(args.out).absolute())
        config = load_config(args.config, overrides)
        return _COMMANDS[args.command](config, args)
    except EgologError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
