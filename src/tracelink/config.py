"""Run configuration: defaults, config-file parsing, and flag overrides.

Config files are flat `key=value` text; dotted keys namespace the blocks
(model.*, sampling.*, synth.*, trace_format.*).  Blank lines and `#`
comments are ignored.  Keys and values are stripped of surrounding
whitespace; a value in double quotes is read as a JSON string, which is how
`dump_config` writes any value that stripping or line splitting would alter
(`trace_format.delimiter="\t"`), so its output always loads back.  Settings
resolve in this order, each overriding the one before: built-in defaults,
`--config` files (in the order given), `--set key value` pairs, then the
command's own flags.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from .errors import ConfigError
from .gat import DEFAULT_SNAPSHOT_EPOCHS
from .ingest import TraceFormat
from .synth import SynthConfig


@dataclass
class ModelSettings:
    hidden: int = 64
    epochs: int = 200
    lr: float = 0.01
    snapshot_epochs: tuple[int, ...] = DEFAULT_SNAPSHOT_EPOCHS


@dataclass
class SamplingSettings:
    kind: str = "auto"  # auto | none | simple | advanced
    eval_kind: str = "advanced"  # simple | advanced: negatives that contrast test positives


@dataclass
class RunConfig:
    trace: str | None = None
    out_dir: str = "run"
    window_size: int = 100
    t_train: int = 7_000
    t_max: int = 10_000
    temporal: bool = True
    seed: int = 0
    strict_mapping: bool = True
    model: ModelSettings = field(default_factory=ModelSettings)
    sampling: SamplingSettings = field(default_factory=SamplingSettings)
    synth: SynthConfig = field(default_factory=SynthConfig)
    trace_format: TraceFormat = field(default_factory=TraceFormat)

    def validate(self) -> None:
        if self.window_size <= 0:
            raise ConfigError(f"window_size must be positive, got {self.window_size}")
        if not 0 < self.t_train < self.t_max:
            raise ConfigError(
                f"need 0 < t_train < t_max, got t_train={self.t_train}, t_max={self.t_max}"
            )
        if self.temporal and self.t_train % self.window_size != 0:
            raise ConfigError(
                f"t_train={self.t_train} must be a multiple of window_size={self.window_size}"
            )
        if self.model.hidden < 1 or self.model.epochs < 1:
            raise ConfigError("hidden and epochs must both be positive")
        if not (math.isfinite(self.model.lr) and self.model.lr > 0):
            raise ConfigError(f"learning rate must be finite and positive, got {self.model.lr}")
        if any(epoch < 0 for epoch in self.model.snapshot_epochs):
            raise ConfigError(f"snapshot epochs must be >= 0, got {self.model.snapshot_epochs}")
        if self.sampling.kind not in ("auto", "none", "simple", "advanced"):
            raise ConfigError(f"unknown sampling kind {self.sampling.kind!r}")
        if self.sampling.eval_kind not in ("simple", "advanced"):
            raise ConfigError(f"eval sampling kind must be simple or advanced, got {self.sampling.eval_kind!r}")
        self.trace_format.validate()


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(int(part) for part in text.split(","))


def _parse_str_tuple(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


#: Every recognized config key -> (section, field, parser); section "" is
#: RunConfig itself.  This table is the one list of settings: config files,
#: `--set`, the CLI flags and `dump_config` all go through it.  See README
#: for the documented meanings.
CONFIG_KEYS: dict[str, tuple[str, str, Callable[[str], Any]]] = {
    "trace": ("", "trace", lambda text: text or None),  # `trace=` is unset
    "out_dir": ("", "out_dir", str),
    "window_size": ("", "window_size", int),
    "t_train": ("", "t_train", int),
    "t_max": ("", "t_max", int),
    "temporal": ("", "temporal", _parse_bool),
    "seed": ("", "seed", int),
    "strict_mapping": ("", "strict_mapping", _parse_bool),
    "model.hidden": ("model", "hidden", int),
    "model.epochs": ("model", "epochs", int),
    "model.lr": ("model", "lr", float),
    "model.snapshot_epochs": ("model", "snapshot_epochs", _parse_int_tuple),
    "sampling.kind": ("sampling", "kind", str),
    "sampling.eval_kind": ("sampling", "eval_kind", str),
    "synth.n_services": ("synth", "n_services", int),
    "synth.duration": ("synth", "duration", int),
    "synth.events_per_window_mean": ("synth", "events_per_window_mean", float),
    "trace_format.delimiter": ("trace_format", "delimiter", str),
    "trace_format.header": ("trace_format", "header", _parse_bool),
    "trace_format.columns": ("trace_format", "columns", _parse_str_tuple),
    "trace_format.caller": ("trace_format", "caller", str),
    "trace_format.callee": ("trace_format", "callee", str),
    "trace_format.timestamp": ("trace_format", "timestamp", str),
}


def apply_key(cfg: RunConfig, key: str, value: str) -> None:
    try:
        section, name, parse = CONFIG_KEYS[key]
    except KeyError:
        raise ConfigError(f"unknown config key {key!r}") from None
    try:
        parsed = parse(value)
    except ValueError as exc:
        raise ConfigError(f"bad value {value!r} for {name}") from exc
    if section:
        # Sections are replaced, not mutated: SynthConfig and TraceFormat are frozen.
        setattr(cfg, section, replace(getattr(cfg, section), **{name: parsed}))
    else:
        setattr(cfg, name, parsed)


def load_config_file(cfg: RunConfig, path: str | Path) -> None:
    """Apply `key=value` lines from `path` onto `cfg` in place."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] == '"':
            try:
                value = json.loads(value)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{line_no}: bad quoted value {value}: {exc.msg}") from None
        apply_key(cfg, key.strip(), value)


def _format_value(value: Any) -> str:
    """`value` as `load_config_file` reads it back: None is empty, and text
    is JSON-quoted when it has edge whitespace, a line break, or a leading
    quote."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    if text != text.strip() or len(text.splitlines()) > 1 or text.startswith('"'):
        return json.dumps(text)
    return text


def dump_config(cfg: RunConfig) -> str:
    """Render the resolved settings as sorted key=value lines."""
    lines = []
    for key, (section, name, _) in sorted(CONFIG_KEYS.items()):
        value = getattr(getattr(cfg, section) if section else cfg, name)
        lines.append(f"{key}={_format_value(value)}\n")
    return "".join(lines)
