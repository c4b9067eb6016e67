"""Pipeline configuration: an INI file plus dotted command-line overrides.

Settings live under [paths], [run], [llm], [embedder], [digest], and
[refine]. Any key can be overridden on the command line by its dotted
name (for example --digest.relevance_threshold 0.4). The seed is
mandatory; nothing in the pipeline ever seeds from the clock. Paths are
resolved relative to the config file; every configured input file
must exist at load time, and the output path must not be a directory,
lie under a file or be an input file. Auth tokens are named here as
environment variable names, never written as values.
"""

from __future__ import annotations

import configparser
import errno
import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, get_type_hints
from urllib.parse import urlsplit

from .corpus import why_not_a_file
from .digest import DigestConfig, MergeMode
from .errors import ConfigError
from .refine import RefineConfig

LLM_KINDS = ("replay", "http")
EMBEDDER_KINDS = ("mock", "http")


def _split_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# parser of a stage config field, by the field's type
_PARSERS = {float: float, int: int, MergeMode: MergeMode, tuple[str, ...]: _split_list}


def _stage_keys(stage: type) -> dict:
    """key -> (parser, default) for every field of a stage config, in order."""
    hints = get_type_hints(stage)
    return {f.name: (_PARSERS[hints[f.name]], f.default) for f in fields(stage)}


# section -> the stage config its keys build, held in PipelineConfig as that section
_STAGES = {"digest": DigestConfig, "refine": RefineConfig}

# section -> key -> (parser, default). A missing or blank value means the
# default; None means unset. Stage keys and defaults come from the stage configs.
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
    **{section: _stage_keys(stage) for section, stage in _STAGES.items()},
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
        for key, url in (("llm", self.llm_endpoint), ("embedder", self.embedder_endpoint)):
            if url is not None and not _is_http_url(url):
                raise ConfigError(
                    f"{key}.endpoint must be an http(s) URL with a host, "
                    f"in printable ASCII without spaces: {url!r}"
                )
        if self.embedder_dim < 1:
            raise ConfigError("embedder.dim must be >= 1")


def _parse(cp: configparser.ConfigParser, section: str, key: str):
    parser, default = _KEYS[section][key]
    raw = cp.get(section, key, fallback="").strip()
    if not raw:
        return default
    try:
        value = parser(raw)
    except ValueError as exc:
        raise ConfigError(
            f"{section}.{key} must be {_EXPECTED[parser]}, got {raw!r}"
        ) from exc
    if parser is float and not math.isfinite(value):
        raise ConfigError(f"{section}.{key} must be a finite number, got {raw!r}")
    return value


def _is_http_url(url: str) -> bool:
    # http.client refuses a space, a control or a non-ASCII character anywhere
    if not (url.isascii() and url.isprintable()) or " " in url:
        return False
    try:
        parts = urlsplit(url)
        return parts.scheme in ("http", "https") and bool(parts.hostname)
    except ValueError:  # a malformed IPv6 host
        return False


def check_not_input(path: Path, inputs: Mapping[str, Path | None]) -> None:
    """Reject an output path that is one of the named input files, links too."""
    for name, source in inputs.items():
        try:
            same = source is not None and os.path.samefile(path, source)
        except OSError:  # either does not exist, or cannot be looked up
            same = False
        if same:
            raise ConfigError(f"cannot write {path}: it is the {name} file {source}")


def _writable(path: Path) -> Path:
    """path with its links followed, so a link stays and its target is rewritten.

    A directory or a path under a non-directory fails before any unit runs;
    the atomic writer checks again, as the file system can change meanwhile.
    """
    try:
        target = path.resolve()
        if target.is_dir():
            reason = os.strerror(errno.EISDIR)
        # the nearest existing ancestor; the root always exists
        elif not next(p for p in target.parents if p.exists()).is_dir():
            reason = os.strerror(errno.ENOTDIR)
        else:
            return target
    except (OSError, RuntimeError) as exc:  # a name too long, a search denied, a link loop
        reason = getattr(exc, "strerror", None) or str(exc)
    raise ConfigError(f"cannot write {path}: {reason}")


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
    reason = why_not_a_file(path)
    if reason:
        raise ConfigError(f"config file {path} {reason}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            cp.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
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
    paths = values["paths"] = {
        key: None if raw is None else base / raw for key, raw in values["paths"].items()
    }
    for key, p in paths.items():
        if key != "output" and p is not None and (reason := why_not_a_file(p)):
            raise ConfigError(f"paths.{key} file {p} {reason}")
    if paths["output"] is not None:
        inputs = {f"paths.{k}": p for k, p in paths.items() if k != "output"}
        check_not_input(paths["output"], inputs)
        paths["output"] = _writable(paths["output"])
    if values["run"]["seed"] is None:
        raise ConfigError("run.seed is required; runs are never seeded from the clock")

    try:
        stages = {s: stage(**values.pop(s)) for s, stage in _STAGES.items()}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return PipelineConfig(
        **{_field(s, key): v for s, keys in values.items() for key, v in keys.items()},
        **stages,
    )


def _field(section: str, key: str) -> str:
    """The field that holds section.key: of PipelineConfig, or of its stage config."""
    if section == "paths":
        return f"{key}_path"
    return f"{section}_{key}" if section in ("llm", "embedder") else key


def _held(config: PipelineConfig, section: str, key: str):
    """The value config holds for section.key, wherever load_config put it."""
    holder = getattr(config, section) if section in _STAGES else config
    return getattr(holder, _field(section, key))


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
