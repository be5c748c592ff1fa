"""Run configuration: defaults, config-file parsing, and flag overrides.

Config files are flat `key=value` text; dotted keys namespace the blocks
(model.*, sampling.*, synth.*, trace_format.*).  Blank lines and `#`
comments are ignored.  Command-line flags override file values, which
override the built-in defaults.
"""
from __future__ import annotations

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
    heads: int = 2
    epochs: int = 200
    lr: float = 0.01
    tau: float = 0.5
    snapshot_epochs: tuple[int, ...] = DEFAULT_SNAPSHOT_EPOCHS


@dataclass
class SamplingSettings:
    kind: str = "auto"  # auto | none | simple | advanced
    alpha: float = 0.1
    retry_factor: int = 10
    balanced_threshold: float = 0.8
    moderate_threshold: float = 0.01
    eval_kind: str = "advanced"  # negatives used to contrast test positives


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
    attention_lo: int = 0
    attention_hi: int = 100
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
        if not 0.0 < self.model.tau < 1.0:
            raise ConfigError(f"tau must lie strictly inside (0, 1), got {self.model.tau}")
        if self.model.hidden < 1 or self.model.heads < 1 or self.model.epochs < 1:
            raise ConfigError("hidden, heads, and epochs must all be positive")
        if self.model.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.model.lr}")
        if self.sampling.kind not in ("auto", "none", "simple", "advanced"):
            raise ConfigError(f"unknown sampling kind {self.sampling.kind!r}")
        if self.sampling.eval_kind not in ("none", "simple", "advanced"):
            raise ConfigError(f"unknown eval sampling kind {self.sampling.eval_kind!r}")
        if self.sampling.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.sampling.alpha}")
        if self.attention_lo < 0 or self.attention_hi <= self.attention_lo:
            raise ConfigError(
                f"attention range [{self.attention_lo}, {self.attention_hi}) is empty"
            )


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


def _setter(section: str, name: str, parse: Callable[[str], Any]) -> Callable[[RunConfig, str], None]:
    def apply(cfg: RunConfig, text: str) -> None:
        target = cfg if section == "" else getattr(cfg, section)
        try:
            value = parse(text)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value {text!r} for {name}") from exc
        if section == "synth":
            # SynthConfig is frozen; rebuild it with the one field changed.
            cfg.synth = replace(cfg.synth, **{name: value})
        elif section == "trace_format":
            cfg.trace_format = replace(cfg.trace_format, **{name: value})
        else:
            setattr(target, name, value)

    return apply


#: Every recognized config key -> how to apply it.  This table doubles as
#: the config-file reference; see README for the documented meanings.
CONFIG_KEYS: dict[str, Callable[[RunConfig, str], None]] = {
    "trace": _setter("", "trace", str),
    "out_dir": _setter("", "out_dir", str),
    "window_size": _setter("", "window_size", int),
    "t_train": _setter("", "t_train", int),
    "t_max": _setter("", "t_max", int),
    "temporal": _setter("", "temporal", _parse_bool),
    "seed": _setter("", "seed", int),
    "strict_mapping": _setter("", "strict_mapping", _parse_bool),
    "attention.lo": _setter("", "attention_lo", int),
    "attention.hi": _setter("", "attention_hi", int),
    "model.hidden": _setter("model", "hidden", int),
    "model.heads": _setter("model", "heads", int),
    "model.epochs": _setter("model", "epochs", int),
    "model.lr": _setter("model", "lr", float),
    "model.tau": _setter("model", "tau", float),
    "model.snapshot_epochs": _setter("model", "snapshot_epochs", _parse_int_tuple),
    "sampling.kind": _setter("sampling", "kind", str),
    "sampling.alpha": _setter("sampling", "alpha", float),
    "sampling.retry_factor": _setter("sampling", "retry_factor", int),
    "sampling.balanced_threshold": _setter("sampling", "balanced_threshold", float),
    "sampling.moderate_threshold": _setter("sampling", "moderate_threshold", float),
    "sampling.eval_kind": _setter("sampling", "eval_kind", str),
    "synth.n_services": _setter("synth", "n_services", int),
    "synth.duration": _setter("synth", "duration", int),
    "synth.window_hint": _setter("synth", "window_hint", int),
    "synth.events_per_window_mean": _setter("synth", "events_per_window_mean", float),
    "synth.hub_exponent": _setter("synth", "hub_exponent", float),
    "synth.tree_depth_mean": _setter("synth", "tree_depth_mean", float),
    "synth.period": _setter("synth", "period", int),
    "trace_format.delimiter": _setter("trace_format", "delimiter", str),
    "trace_format.header": _setter("trace_format", "header", _parse_bool),
    "trace_format.columns": _setter("trace_format", "columns", _parse_str_tuple),
    "trace_format.caller": _setter("trace_format", "caller", str),
    "trace_format.callee": _setter("trace_format", "callee", str),
    "trace_format.timestamp": _setter("trace_format", "timestamp", str),
}


def apply_key(cfg: RunConfig, key: str, value: str) -> None:
    try:
        setter = CONFIG_KEYS[key]
    except KeyError:
        raise ConfigError(f"unknown config key {key!r}") from None
    setter(cfg, value)


def load_config_file(cfg: RunConfig, path: str | Path) -> None:
    """Apply `key=value` lines from `path` onto `cfg` in place."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        apply_key(cfg, key.strip(), value.strip())


def dump_config(cfg: RunConfig) -> str:
    """Render the resolved settings as sorted key=value lines."""
    values: dict[str, str] = {
        "trace": str(cfg.trace),
        "out_dir": cfg.out_dir,
        "window_size": str(cfg.window_size),
        "t_train": str(cfg.t_train),
        "t_max": str(cfg.t_max),
        "temporal": str(cfg.temporal).lower(),
        "seed": str(cfg.seed),
        "strict_mapping": str(cfg.strict_mapping).lower(),
        "attention.lo": str(cfg.attention_lo),
        "attention.hi": str(cfg.attention_hi),
        "model.hidden": str(cfg.model.hidden),
        "model.heads": str(cfg.model.heads),
        "model.epochs": str(cfg.model.epochs),
        "model.lr": repr(cfg.model.lr),
        "model.tau": repr(cfg.model.tau),
        "model.snapshot_epochs": ",".join(map(str, cfg.model.snapshot_epochs)),
        "sampling.kind": cfg.sampling.kind,
        "sampling.alpha": repr(cfg.sampling.alpha),
        "sampling.retry_factor": str(cfg.sampling.retry_factor),
        "sampling.balanced_threshold": repr(cfg.sampling.balanced_threshold),
        "sampling.moderate_threshold": repr(cfg.sampling.moderate_threshold),
        "sampling.eval_kind": cfg.sampling.eval_kind,
        "synth.n_services": str(cfg.synth.n_services),
        "synth.duration": str(cfg.synth.duration),
        "synth.window_hint": str(cfg.synth.window_hint),
        "synth.events_per_window_mean": repr(cfg.synth.events_per_window_mean),
        "synth.hub_exponent": repr(cfg.synth.hub_exponent),
        "synth.tree_depth_mean": repr(cfg.synth.tree_depth_mean),
        "synth.period": str(cfg.synth.period),
        "trace_format.delimiter": cfg.trace_format.delimiter,
        "trace_format.header": str(cfg.trace_format.header).lower(),
        "trace_format.columns": ",".join(cfg.trace_format.columns),
        "trace_format.caller": cfg.trace_format.caller,
        "trace_format.callee": cfg.trace_format.callee,
        "trace_format.timestamp": cfg.trace_format.timestamp,
    }
    return "".join(f"{key}={values[key]}\n" for key in sorted(values))
