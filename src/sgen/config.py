"""The one run configuration and its plain key=value text.

``RunConfig`` declares every setting of a run once, in config-file order:
the architecture, the degradation protocol, then training, data and
output.  Each field is ``name: T = setting(default, KIND)``.  A kind
states the rule its values meet and how a config file's text reads into
a value and is written back.  ``RunConfig.__post_init__`` checks every
field against its kind, and ``parse_config``/``serialize_config`` pick
their parser and formatter from it, so each rule is written once.
``output_file`` is the one rule for a path a run writes to.

One ``key = value`` pair per line; blank lines and # comments are
ignored.  Unknown keys, duplicated keys and values outside their domain
are rejected with the line and key named, so typos fail loudly instead of
silently training with defaults.  ``serialize_config`` round-trips every
setting: it refuses a string that would not read back.  Since every
architecture field is a key, a config's text states the whole network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .data import EVAL_SCALES
from .ensemble import MERGE_MODES
from .losses import G_LOSS_VARIANTS

__all__ = ["RunConfig", "ConfigError", "Kind", "output_file", "parse_config", "load_config", "serialize_config"]


class ConfigError(ValueError):
    """Raised for unknown keys, unparseable values or invalid settings."""


def output_file(name: str, text: str) -> Path:
    """The path ``text``, which must name a file in an existing directory;
    checked before a run does any work, so a bad output path does not fail
    only at its end."""
    out = Path(text)
    if not out.name or out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"{name} {text!r} names no file in an existing directory")
    return out


# ---------------------------------------------------------------------------
# kinds of setting

class Kind(NamedTuple):
    """One domain: ``ok`` admits a value; ``rule`` completes "<name> must ..."."""

    parse: Callable[[str], Any]
    fmt: Callable[[Any], str]
    ok: Callable[[Any], bool]
    rule: str

    def check(self, name: str, value) -> None:
        if not self.ok(value):
            raise ConfigError(f"{name} must {self.rule}, got {value!r}")


def setting(default, kind: Kind):
    """A dataclass field whose values must lie in ``kind``."""
    return field(default=default, metadata={"kind": kind})


def _is_int(v) -> bool:
    """An int but not a bool: ``str(True)`` is no integer's text, so a bool
    setting would be written as a line that does not read back."""
    return isinstance(v, int) and not isinstance(v, bool)


def at_least(n: int) -> Kind:
    """Integers >= n."""
    rule = "be a positive integer" if n == 1 else f"be an integer >= {n}"
    return Kind(int, str, lambda v: _is_int(v) and v >= n, rule)


def choice(options: tuple[str, ...]) -> Kind:
    """One of a fixed tuple of names."""
    return Kind(str, str, lambda v: v in options, f"be one of {options}")


def listed(item: Kind, noun: str, rule: str, distinct: bool = False) -> Kind:
    """Comma-separated items of one kind, one or more; no item twice when
    ``distinct``.  An empty item, as in "32,,64" or "128x96,", is an error."""

    def read(index: int, part: str):
        if not part.strip():
            raise ValueError(f"item {index} is empty")
        return item.parse(part)

    def parse(text: str) -> tuple:
        try:
            return tuple(read(i, part) for i, part in enumerate(text.split(","), 1))
        except ValueError as exc:
            raise ValueError(f"bad {noun} list: {exc}") from None

    def ok(v) -> bool:
        if not isinstance(v, tuple) or not all(map(item.ok, v)):
            return False
        return len(v) > 0 and (not distinct or len(set(v)) == len(v))

    return Kind(parse, lambda v: ",".join(map(item.fmt, v)), ok, rule)


def _parse_size(text: str) -> tuple[int, int]:
    h, sep, w = text.lower().partition("x")
    if not sep or not h.strip().isdigit() or not w.strip().isdigit():
        raise ValueError("expected HxW, e.g. 128x96")
    return int(h), int(w)


def _is_size(v) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and all(_is_int(s) and s > 0 for s in v)


def _is_real(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and v < math.inf


FINITE = Kind(float, str, lambda v: _is_real(v) and v >= 0, "be finite and >= 0")
POSITIVE = Kind(float, str, lambda v: _is_real(v) and v > 0, "be finite and > 0")
TEXT = Kind(str, str, lambda v: isinstance(v, str), "be text")
SIZE = Kind(_parse_size, lambda s: f"{s[0]}x{s[1]}", _is_size, "be HxW with positive sides")
SIZES = listed(SIZE, "size", "not be empty and list distinct HxW sizes with positive sides", distinct=True)
WIDTHS = listed(at_least(1), "integer", "list one or more widths >= 1")

# "none" selects plain MSE training
GAN_LOSSES = ("none",) + G_LOSS_VARIANTS


# ---------------------------------------------------------------------------
# the run configuration

@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run: architecture, degradation, training, data and output.

    n_levels is the trunk depth N; inputs must be divisible by 2^(N+1).
    base_channels is the width of the first trunk level (doubling per
    level, as ``sgen.model.generator_sites`` states); bottleneck_channels
    is the shared width of all base-encoder and decoder features.  Every
    lrelu uses ``sgen.autodiff.LRELU_SLOPE``.  The degradation fields are
    the corruption protocol of ``sgen.data.degrade``; ``seed`` also seeds
    initialization, the synthetic corpus and batch order.
    """

    # architecture
    n_levels: int = setting(3, at_least(2))
    base_channels: int = setting(32, at_least(1))
    bottleneck_channels: int = setting(64, at_least(1))
    merge_mode: str = setting("sgu", choice(MERGE_MODES))
    disc_channels: tuple[int, ...] = setting((32, 64, 128, 256), WIDTHS)
    # degradation
    scales: tuple[tuple[int, int], ...] = setting(EVAL_SCALES, SIZES)
    down_factor: int = setting(4, at_least(1))
    noise_sigma: float = setting(30.0, FINITE)
    seed: int = setting(0, at_least(0))
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

    def __post_init__(self):
        for f in fields(self):
            f.metadata["kind"].check(f.name, getattr(self, f.name))
        for h, w in self.scales:
            if h % self.down_factor or w % self.down_factor:
                raise ConfigError(
                    f"scales: ({h}, {w}) not divisible by down_factor {self.down_factor}"
                )

    @property
    def divisor(self) -> int:
        """Required divisibility of the generator's input height and width."""
        return 1 << (self.n_levels + 1)

    def fits(self, h: int, w: int) -> bool:
        """Whether an h x w input passes through the generator."""
        return h % self.divisor == 0 and w % self.divisor == 0

    @property
    def disc_divisor(self) -> int:
        """Required divisibility of the discriminator's input: one stride-2
        conv per ``disc_channels`` width."""
        return 1 << len(self.disc_channels)

    @property
    def label(self) -> str:
        """The recipe as a report names it, e.g. ``down4 sigma30 nearest``:
        box downsample, noise sigma, and the upsampling ``degrade`` uses."""
        return f"down{self.down_factor} sigma{self.noise_sigma:g} nearest"

    @property
    def adversarial(self) -> bool:
        return self.gan_loss != "none"

    def sgen_config(self) -> RunConfig:
        """The architecture config, which is the run config itself."""
        return self

    def degrade_spec(self) -> RunConfig:
        """The degradation protocol, which is the run config itself."""
        return self


# ---------------------------------------------------------------------------
# config text

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
