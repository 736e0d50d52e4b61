"""Plain key=value run configuration.

One ``key = value`` pair per line; blank lines and # comments are
ignored.  Every key is a ``RunConfig`` field with a declared domain (see
``sgen.settings``): its kind parses the value, checks it and formats it
back.  Unknown keys, duplicated keys and values outside their domain are
rejected with the line and key named, so typos fail loudly instead of
silently training with defaults.  ``serialize_config`` round-trips every
setting: it refuses a string that would not read back.  Since every
``SgenConfig`` field is a key, its text states the whole network.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .data import DegradeSpec
from .losses import G_LOSS_VARIANTS
from .model import SgenConfig
from .settings import FINITE, POSITIVE, SIZE, TEXT, ConfigError, at_least, choice, setting

__all__ = ["RunConfig", "ConfigError", "parse_config", "load_config", "serialize_config"]

# "none" selects plain MSE training
GAN_LOSSES = ("none",) + G_LOSS_VARIANTS


@dataclass(frozen=True)
class RunConfig(DegradeSpec, SgenConfig):
    """Inherited architecture and degradation fields plus training, data and output settings."""

    # training
    gan_loss: str = setting("minimax", choice(GAN_LOSSES))
    lambda_mse: float = setting(0.1, FINITE)
    learning_rate: float = setting(0.0002, POSITIVE)
    batch_size: int = setting(64, at_least(1))
    steps: int = setting(0, at_least(0))
    eval_every: int = setting(0, at_least(0))
    # data sources and outputs
    data_root: str = setting("", TEXT)
    synthetic_count: int = setting(0, at_least(0))
    synthetic_size: tuple[int, int] = setting((128, 96), SIZE)
    checkpoint_out: str = setting("sgen.ckpt", TEXT)
    report_out: str = setting("report", TEXT)
    log_out: str = setting("", TEXT)

    @property
    def adversarial(self) -> bool:
        return self.gan_loss != "none"

    def sgen_config(self) -> SgenConfig:
        """The architecture config: a RunConfig is one."""
        return self

    def degrade_spec(self) -> DegradeSpec:
        """The degradation protocol: a RunConfig is one."""
        return self


# the config-file keys and their kinds, in file order: every field
_KINDS = {f.name: f.metadata["kind"] for f in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    values, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in _KINDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: duplicate config key {key!r}, first set on line {first_line[key]}"
            )
        first_line[key] = lineno
        try:
            values[key] = _KINDS[key].parse(value)
            _KINDS[key].check(key, values[key])
        except ValueError as exc:
            where = f"line {lineno}: bad value {value!r} for key {key!r}"
            raise ConfigError(f"{where}: {exc}") from None
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for key, kind in _KINDS.items():
        text = kind.fmt(getattr(cfg, key))
        # parse_config cuts a line at "#", splits lines and strips values
        if "#" in text or len(text.splitlines()) > 1 or text != text.strip():
            raise ConfigError(f"{key} = {text!r} cannot be written as a config line")
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
