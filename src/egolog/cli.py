"""Command-line entry points.

The subcommands, with their help, are the rows of _COMMANDS. Every
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
from typing import Callable, Sequence

from .config import PipelineConfig, check_not_input, config_sha256, load_config, parse_override
from .corpus import save_captions, write_json, write_jsonl
from .errors import ConfigError, EgologError
from .metrics import report_to_text
from .pipeline import (
    UnitFailure,
    run_ask,
    run_digest,
    run_eval,
    run_gen_refine_data,
    run_localize,
)

logger = logging.getLogger(__name__)


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
    for failure in failures:
        print(f"  failed {failure.qid}: {failure.error}", file=sys.stderr)
    return 2 if failures else 0


def _cmd_digest(command: str, config: PipelineConfig, args: argparse.Namespace) -> int:
    out_path = _require_out(config)
    digested, stats, failures = run_digest(config)
    save_captions(digested, out_path)
    write_json(
        out_path.with_name(out_path.name + ".stats.json"),
        {vid: stats[vid].as_dict() for vid in sorted(stats)},
    )
    counts = {"videos": len(digested) + len(failures), "digested": len(digested)}
    return _finish(command, config, out_path, counts, failures)


def _rows(run: Callable[[PipelineConfig], tuple[list, list]], *nouns: str):
    """A command writing the JSONL rows of run(config) -> (rows, failures).

    Its counts are named by nouns: the rows and failures, then the rows.
    """

    def command_rows(command: str, config: PipelineConfig, args: argparse.Namespace) -> int:
        out_path = _require_out(config)
        records, failures = run(config)
        write_jsonl(out_path, records)
        counts = dict(zip(nouns, (len(records) + len(failures), len(records))))
        return _finish(command, config, out_path, counts, failures)

    return command_rows


def _cmd_eval(command: str, config: PipelineConfig, args: argparse.Namespace) -> int:
    if config.output_path is not None:
        check_not_input(config.output_path, {"--predictions": Path(args.predictions)})
    report = run_eval(config, args.predictions, args.task)
    if config.output_path is not None:
        write_json(config.output_path, report)
        _write_manifest(config.output_path, command, config, {"queries": report["n_queries"]}, [])
    else:
        print(json.dumps(report, indent=2))
    print(report_to_text(report), file=sys.stderr)
    return 0


# name -> (help, handler(name, config, args)), in the order --help lists them.
# The lambdas look run_* up in this module when they run, so a caller that
# replaces a module attribute (a tracer, a test) sees its calls.
_COMMANDS = {
    "digest": ("compact caption tracks", _cmd_digest),
    "ask": (
        "answer multiple-choice questions",
        _rows(lambda config: run_ask(config), "questions", "answered"),
    ),
    "localize": (
        "localize language queries",
        _rows(lambda config: run_localize(config), "queries", "localized"),
    ),
    "eval": ("score a predictions file", _cmd_eval),
    "gen-refine-data": (
        "jitter ground-truth windows into a labeled training set",
        _rows(lambda config: (run_gen_refine_data(config), []), "samples"),
    ),
}


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
    for name, (help_text, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    evalp = sub.choices["eval"]
    evalp.add_argument("--predictions", required=True, help="predictions JSONL")
    evalp.add_argument("--task", required=True, choices=("qa", "nlq"))
    return parser


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
        _, handler = _COMMANDS[args.command]
        return handler(args.command, config, args)
    except EgologError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
