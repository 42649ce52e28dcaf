"""Run configuration: INI parsing, validation and the output header.

A run is described by one INI file ([run], [schema], [sampling]
sections). Every output file starts with a header line carrying a
12-digit digest of the configuration and the seed, so outputs can be
traced back to the exact settings that produced them. The digest
covers everything except the output directory: the same analysis
written to two different places must produce identical bytes.

Each setting is stated once, as a `RunConfig` field; `_SECTION` names
the INI section of every field outside [run]. The accepted keys, their
parsing and the digest are all derived from those two.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from .corpus import CANONICAL_FIELDS, DEFAULT_SCHEMA, LANGUAGE_MIN_COUNT
from .errors import ColorlexError, not_utf8
from .informativeness import SamplingConfig

__all__ = ["RunConfig", "ConfigError", "load_config", "with_overrides",
           "config_hash", "header_line"]


class ConfigError(ColorlexError):
    pass


@dataclass(frozen=True)
class RunConfig:
    input: str
    language: str = "english"
    delimiter: str = ","
    hsl_scale: str = "percent"
    spellmap: str | None = None
    min_count: int = 10
    schema: Mapping[str, str | None] = field(
        default_factory=lambda: dict(DEFAULT_SCHEMA)
    )
    max_exact: int = 100
    sample_size: int = 100
    iterations: int = 30
    seed: int = 0
    out: str = "out"

    @property
    def sampling(self) -> SamplingConfig:
        return SamplingConfig(self.max_exact, self.sample_size,
                              self.iterations, self.seed)


# The INI section of each field outside [run]. [schema] holds one key
# per canonical corpus field, naming its column.
_SECTION = {"schema": "schema", "max_exact": "sampling",
            "sample_size": "sampling", "iterations": "sampling"}
_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _checked(cfg: RunConfig) -> RunConfig:
    """Reject any setting a stage could not run with."""
    if len(cfg.delimiter) != 1:
        raise ConfigError(f"delimiter must be one character (or 'tab'), "
                          f"got {cfg.delimiter!r}")
    if cfg.hsl_scale not in ("percent", "fraction"):
        raise ConfigError(f"hsl_scale must be percent or fraction, "
                          f"got {cfg.hsl_scale!r}")
    if cfg.min_count < 1:
        raise ConfigError("min_count must be at least 1")
    mapped: dict[str, str] = {}  # column -> the first field mapped to it
    for fname, column in cfg.schema.items():
        if column is None:
            if fname != "speaker_id":
                raise ConfigError(f"schema field {fname!r} cannot be empty")
        elif mapped.setdefault(column, fname) != fname:
            raise ConfigError(f"schema fields {mapped[column]!r} and "
                              f"{fname!r} both map to column {column!r}")
    try:
        cfg.sampling  # SamplingConfig checks its own fields
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def load_config(path) -> RunConfig:
    """Read and validate a run configuration file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None
    except UnicodeDecodeError:
        raise ConfigError(not_utf8(path)) from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    unknown = set(parser.sections()) - {"run", *_SECTION.values()}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if not parser.has_option("run", "input"):
        raise ConfigError("config must set input in the [run] section")

    values: dict = {"schema": dict(DEFAULT_SCHEMA)}
    for section in parser.sections():
        if section == "schema":
            keys = set(CANONICAL_FIELDS)
        else:
            keys = {name for name in _TYPES
                    if _SECTION.get(name, "run") == section}
        unknown = set(parser[section]) - keys
        if unknown:
            raise ConfigError(f"unknown [{section}] keys: {sorted(unknown)}")
        for key, text in parser[section].items():
            if section == "schema":
                values["schema"][key] = text or None
            elif _TYPES[key] == "int":
                try:
                    values[key] = int(text)
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from None
            else:
                values[key] = text

    language = values.get("language", RunConfig.language).lower()
    values["language"] = language
    if values.get("delimiter") == "tab":
        values["delimiter"] = "\t"
    values["spellmap"] = values.get("spellmap") or None
    if "min_count" not in values:
        if language not in LANGUAGE_MIN_COUNT:
            raise ConfigError(
                f"no default word-frequency threshold for language "
                f"{language!r}; set min_count explicitly"
            )
        values["min_count"] = LANGUAGE_MIN_COUNT[language]
    return _checked(RunConfig(**values))


def with_overrides(cfg: RunConfig, seed: int | None = None,
                   out: str | None = None) -> RunConfig:
    """Apply command-line overrides on top of a loaded configuration."""
    return _checked(replace(cfg, seed=cfg.seed if seed is None else seed,
                            out=cfg.out if out is None else out))


def config_hash(cfg: RunConfig) -> str:
    """Digest of every setting except the output directory."""
    lines = []
    for name in _TYPES:
        value = getattr(cfg, name)
        if name == "schema":
            lines.extend(f"schema.{fname}={value.get(fname) or ''}"
                         for fname in CANONICAL_FIELDS)
        elif name != "out":
            lines.append(f"{_SECTION.get(name, 'run')}.{name}="
                         f"{'' if value is None else value}")
    digest = hashlib.sha256("\n".join(sorted(lines)).encode("utf-8"))
    return digest.hexdigest()[:12]


def header_line(cfg: RunConfig) -> str:
    """The provenance comment written at the top of every output file."""
    return f"# colorlex config={config_hash(cfg)} seed={cfg.seed}"
