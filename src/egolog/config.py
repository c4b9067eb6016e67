"""Pipeline configuration: an INI file plus dotted command-line overrides.

Settings live under [paths], [run], [llm], [embedder], [digest], and
[refine]. Any key can be overridden on the command line by its dotted
name (for example --digest.relevance_threshold 0.4). The seed is
mandatory; nothing in the pipeline ever seeds from the clock. Paths are
resolved relative to the config file, and every configured input file
must exist at load time. Auth tokens are named here as environment
variable names, never written as values.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .digest import DigestConfig, MergeMode
from .errors import ConfigError
from .refine import RefineConfig

LLM_KINDS = ("replay", "http")
EMBEDDER_KINDS = ("mock", "http")


def _split_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


_DIGEST = DigestConfig()
_REFINE = RefineConfig()
_SCALE_KEYS = ("jitter_scale_lo", "jitter_scale_hi")

# section -> key -> (parser, default). A missing or blank value means the
# default; None means unset. Stage defaults come from the stage configs.
_KEYS = {
    "paths": dict.fromkeys(("captions", "queries", "transcripts", "output"), (str, None)),
    "run": {"seed": (int, None), "runs": (int, 5), "in_flight_limit": (int, 4)},
    "llm": {"kind": (str, "replay"), "endpoint": (str, None), "auth_env": (str, None)},
    "embedder": {
        "kind": (str, "mock"),
        "endpoint": (str, None),
        "auth_env": (str, None),
        "dim": (int, 64),
    },
    "digest": {
        "blocklist": (_split_list, _DIGEST.blocklist),
        "relevance_threshold": (float, _DIGEST.relevance_threshold),
        "adjacency_threshold": (float, _DIGEST.adjacency_threshold),
        "max_merge_group": (int, _DIGEST.max_merge_group),
        "merge_mode": (MergeMode, _DIGEST.merge_mode),
    },
    "refine": {
        "pad_alpha": (float, _REFINE.pad_alpha),
        "jitter_shift_max": (float, _REFINE.jitter_shift_max),
        "jitter_scale_lo": (float, _REFINE.jitter_scale_range[0]),
        "jitter_scale_hi": (float, _REFINE.jitter_scale_range[1]),
        "pos_iou": (float, _REFINE.pos_iou),
        "neg_iou": (float, _REFINE.neg_iou),
        "samples_per_gt": (int, 10),
    },
}

# what a value that fails its parser should have been
_EXPECTED = {
    int: "an integer",
    float: "a number",
    MergeMode: f"one of {[m.value for m in MergeMode]}",
}


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings for one pipeline invocation."""

    captions_path: Path | None
    queries_path: Path | None
    transcripts_path: Path | None
    output_path: Path | None
    seed: int
    runs: int
    in_flight_limit: int
    llm_kind: str
    llm_endpoint: str | None
    llm_auth_env: str | None
    embedder_kind: str
    embedder_endpoint: str | None
    embedder_auth_env: str | None
    embedder_dim: int
    digest: DigestConfig
    refine: RefineConfig
    samples_per_gt: int

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.in_flight_limit < 1:
            raise ConfigError("in_flight_limit must be >= 1")
        if self.llm_kind not in LLM_KINDS:
            raise ConfigError(f"llm.kind must be one of {LLM_KINDS}")
        if self.embedder_kind not in EMBEDDER_KINDS:
            raise ConfigError(f"embedder.kind must be one of {EMBEDDER_KINDS}")
        if self.llm_kind == "http" and not self.llm_endpoint:
            raise ConfigError("llm.kind is http but llm.endpoint is not set")
        if self.embedder_kind == "http" and not self.embedder_endpoint:
            raise ConfigError("embedder.kind is http but embedder.endpoint is not set")
        if self.embedder_dim < 1:
            raise ConfigError("embedder.dim must be >= 1")
        if self.samples_per_gt < 1:
            raise ConfigError("refine.samples_per_gt must be >= 1")


def _parse(cp: configparser.ConfigParser, section: str, key: str):
    parser, default = _KEYS[section][key]
    raw = cp.get(section, key, fallback="").strip()
    if not raw:
        return default
    try:
        return parser(raw)
    except ValueError as exc:
        raise ConfigError(
            f"{section}.{key} must be {_EXPECTED[parser]}, got {raw!r}"
        ) from exc


def parse_override(flag: str) -> tuple[str, str]:
    """Split a dotted override name "section.key" after validating it."""
    if flag.count(".") != 1:
        raise ConfigError(f"override {flag!r} is not of the form section.key")
    section, key = flag.split(".")
    if key not in _KEYS.get(section, ()):
        raise ConfigError(f"unknown config key {flag!r}")
    return section, key


def load_config(
    path: str | Path, overrides: Mapping[str, str] | None = None
) -> PipelineConfig:
    """Read an INI file, apply dotted overrides, and validate everything."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            cp.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
    for flag, value in (overrides or {}).items():
        section, key = parse_override(flag)
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][key] = value

    values = {
        section: {key: _parse(cp, section, key) for key in keys}
        for section, keys in _KEYS.items()
    }
    # relative to the config file; joining an absolute path keeps it as is
    base = path.parent.resolve()
    paths = {
        key: None if raw is None else base / raw for key, raw in values["paths"].items()
    }
    for key, p in paths.items():
        if key != "output" and p is not None and not p.is_file():
            raise ConfigError(f"paths.{key} file {p} does not exist")
    if values["run"]["seed"] is None:
        raise ConfigError("run.seed is required; runs are never seeded from the clock")

    refine = values["refine"]
    samples_per_gt = refine.pop("samples_per_gt")
    scale_range = tuple(refine.pop(key) for key in _SCALE_KEYS)
    try:
        digest_cfg = DigestConfig(**values["digest"])
        refine_cfg = RefineConfig(jitter_scale_range=scale_range, **refine)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return PipelineConfig(
        **{f"{key}_path": p for key, p in paths.items()},
        **values["run"],
        **{f"{s}_{key}": v for s in ("llm", "embedder") for key, v in values[s].items()},
        digest=digest_cfg,
        refine=refine_cfg,
        samples_per_gt=samples_per_gt,
    )


def _held(config: PipelineConfig, section: str, key: str):
    """The value config holds for section.key, wherever load_config put it."""
    if section == "paths":
        return getattr(config, f"{key}_path")
    if section in ("llm", "embedder"):
        return getattr(config, f"{section}_{key}")
    if key in _SCALE_KEYS:
        return config.refine.jitter_scale_range[_SCALE_KEYS.index(key)]
    stage = getattr(config, section) if section in ("digest", "refine") else config
    return getattr(stage, key) if hasattr(stage, key) else getattr(config, key)


def _plain(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, MergeMode):
        return value.value
    return list(value) if isinstance(value, tuple) else value


def effective_dict(config: PipelineConfig) -> dict:
    """The resolved settings as one nested dict, for hashing and manifests.

    Every key of the table is read back from config: paths as strings,
    the blocklist as a list and the merge mode as its value.
    """
    return {
        section: {key: _plain(_held(config, section, key)) for key in keys}
        for section, keys in _KEYS.items()
    }


def config_sha256(config: PipelineConfig) -> str:
    canonical = json.dumps(effective_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
