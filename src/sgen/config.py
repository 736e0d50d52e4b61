"""Plain key=value run configuration.

One ``key = value`` pair per line; blank lines and # comments are
ignored.  Unknown keys and invalid values are rejected so typos fail
loudly instead of silently training with defaults.  ``serialize_config``
round-trips every setting: it refuses a string that would not read back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .data import DegradeSpec
from .losses import G_LOSS_VARIANTS
from .model import SgenConfig

__all__ = ["RunConfig", "ConfigError", "parse_config", "load_config", "serialize_config"]


class ConfigError(ValueError):
    """Raised for unknown keys, unparseable values or invalid settings."""


# "none" selects plain MSE training
GAN_LOSSES = ("none",) + G_LOSS_VARIANTS


@dataclass
class RunConfig(DegradeSpec, SgenConfig):
    """Inherited architecture and degradation fields plus training, data and output settings."""

    # training
    gan_loss: str = "minimax"
    lambda_mse: float = 0.1
    learning_rate: float = 0.0002
    batch_size: int = 64
    steps: int = 0
    eval_every: int = 0
    # data sources and outputs
    data_root: str = ""
    synthetic_count: int = 0
    synthetic_size: tuple[int, int] = (128, 96)
    checkpoint_out: str = "sgen.ckpt"
    report_out: str = "report"
    log_out: str = ""

    def __post_init__(self):
        SgenConfig.__post_init__(self)
        DegradeSpec.__post_init__(self)
        if self.gan_loss not in GAN_LOSSES:
            raise ValueError(f"gan_loss {self.gan_loss!r} not in {GAN_LOSSES}")
        if not 0 <= self.lambda_mse < math.inf:
            raise ValueError(f"lambda_mse must be finite and >= 0, got {self.lambda_mse}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for key, least in (("batch_size", 1), ("steps", 0), ("eval_every", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")

    @property
    def adversarial(self) -> bool:
        return self.gan_loss != "none"

    def sgen_config(self) -> SgenConfig:
        """The architecture config: a RunConfig is one."""
        return self

    def degrade_spec(self) -> DegradeSpec:
        """The degradation protocol: a RunConfig is one."""
        return self


# in_channels is an architecture field for grayscale test rigs; image data
# is RGB, so it is not a config-file key
_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "in_channels")


def _parse_size(text: str) -> tuple[int, int]:
    h, sep, w = text.lower().partition("x")
    if not sep or not h.strip().isdigit() or not w.strip().isdigit():
        raise ConfigError(f"bad size {text!r}: expected HxW, e.g. 128x96")
    return int(h), int(w)


def _parse_scales(text: str) -> tuple[tuple[int, int], ...]:
    return tuple(_parse_size(part) for part in text.split(",") if part.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"bad integer list {text!r}") from None


def _fmt_size(size: tuple[int, int]) -> str:
    return f"{size[0]}x{size[1]}"


def parse_config(text: str) -> RunConfig:
    defaults = RunConfig()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        try:
            if key == "scales":
                parsed = _parse_scales(value)
            elif key == "synthetic_size":
                parsed = _parse_size(value)
            elif key == "disc_channels":
                parsed = _parse_int_list(value)
            else:
                # scalar fields parse by the type of their default
                parsed = type(getattr(defaults, key))(value)
        except ConfigError:
            raise
        except (TypeError, ValueError):
            raise ConfigError(f"line {lineno}: bad value {value!r} for key {key!r}") from None
        values[key] = parsed
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"bad config: {exc}") from None


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for key in _KEYS:
        value = getattr(cfg, key)
        if key == "scales":
            text = ",".join(_fmt_size(s) for s in value)
        elif key == "synthetic_size":
            text = _fmt_size(value)
        elif key == "disc_channels":
            text = ",".join(str(v) for v in value)
        else:
            text = str(value)
        # parse_config cuts a line at "#", splits lines and strips values
        if "#" in text or len(text.splitlines()) > 1 or text != text.strip():
            raise ConfigError(f"{key} = {text!r} cannot be written as a config line")
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
