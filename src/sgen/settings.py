"""Declared domains of the run settings.

Every field of ``SgenConfig``, ``DegradeSpec`` and ``RunConfig`` is
declared ``name: T = setting(default, KIND)``.  A kind states the rule its
values meet and how a config file's text reads into a value and is
written back.  ``Settings.__post_init__`` checks every field against its
kind, and ``parse_config``/``serialize_config`` pick their parser and
formatter from it, so each rule is written once.  ``output_file`` is the
one rule for a path a run writes to.
"""

from __future__ import annotations

import math
from dataclasses import field, fields
from pathlib import Path
from typing import Any, Callable, NamedTuple

__all__ = [
    "ConfigError", "Kind", "Settings", "setting", "at_least", "choice", "listed", "output_file",
    "FINITE", "POSITIVE", "TEXT", "SIZE", "SIZES", "WIDTHS",
]


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


class Settings:
    """Base of the frozen config dataclasses: checks every field against its kind."""

    def __post_init__(self):
        for f in fields(self):
            f.metadata["kind"].check(f.name, getattr(self, f.name))


def at_least(n: int) -> Kind:
    """Integers >= n."""
    rule = "be a positive integer" if n == 1 else f"be an integer >= {n}"
    return Kind(int, str, lambda v: isinstance(v, int) and v >= n, rule)


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
    return isinstance(v, tuple) and len(v) == 2 and all(isinstance(s, int) and s > 0 for s in v)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and v < math.inf


FINITE = Kind(float, str, lambda v: _is_real(v) and v >= 0, "be finite and >= 0")
POSITIVE = Kind(float, str, lambda v: _is_real(v) and v > 0, "be finite and > 0")
TEXT = Kind(str, str, lambda v: isinstance(v, str), "be text")
SIZE = Kind(_parse_size, lambda s: f"{s[0]}x{s[1]}", _is_size, "be HxW with positive sides")
SIZES = listed(SIZE, "size", "not be empty and list distinct HxW sizes with positive sides", distinct=True)
WIDTHS = listed(at_least(1), "integer", "list one or more widths >= 1")
