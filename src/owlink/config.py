"""Option declarations, the settings rule, config files, manifests, and seed derivation.

Every CLI option is declared once as an :class:`Option`: its name is the
flag (``--name``), the config-file key and the manifest key. A flag value
and a config-file value go through the same :meth:`Option.convert`, so
both are checked for the same type and choices. Config files hold
``key=value`` per line with ``#`` comments; a command-line flag of the same
name wins. Each command echoes its resolved configuration into a manifest
file in the output directory, so a run is reproducible from the manifest
alone: the manifest can be passed back as the command's config file.

:func:`check_setting` is every layer's one rule for a setting's range or
allowed values (the frozen settings dataclasses call it when built), so
this module imports no owlink module at load time."""

from __future__ import annotations

import argparse
import math
import typing
import zlib
from dataclasses import dataclass
from pathlib import Path

BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}

_EXPECTED = {int: ("an integer", "integers"), float: ("a number", "numbers"),
             str: ("text", "names"), bool: ("one of " + "/".join(BOOL_WORDS), "booleans")}


class OptionError(argparse.ArgumentTypeError, ValueError):
    """A flag or config value that does not fit its option."""


class ConfigError(ValueError):
    """A setting outside its range or allowed values."""


def check_setting(name: str, value, ok: bool, rule: str) -> None:
    """The one rule for a setting: ``ok`` says it is in its range or among
    its allowed values (written so that NaN fails every range), and a number
    must also be finite. ``value`` is shown as given."""
    if not ok:
        raise ConfigError(f"{name} must be {rule}, got {value}")
    if value in (math.inf, -math.inf):
        raise ConfigError(f"{name} must be finite, got {value}")


class Items(tuple):
    """The values of a comma list; prints as the text they were read from."""

    def __new__(cls, values, text: str):
        self = super().__new__(cls, values)
        self.text = text
        return self

    def __str__(self) -> str:
        return self.text


@dataclass
class Option:
    """One option: its type (``int``, ``float``, ``str`` or ``bool``, or a
    function that returns a checked value or raises ``ValueError``),
    whether it is a comma list of that type, its choices and its default.
    A comma list's default is given as text and converted like a value."""

    name: str
    type: type = str
    default: object = None
    choices: tuple | None = None
    many: bool = False
    help: str | None = None

    def __post_init__(self):
        if self.many and self.default is not None:
            self.default = self.convert(self.default)

    @classmethod
    def from_field(cls, name: str, hint, default, **kw) -> "Option":
        """Option for a dataclass field annotated ``T``, ``T | None`` or ``tuple[T, ...]``."""
        args = typing.get_args(hint)
        if typing.get_origin(hint) is tuple:
            return cls(name, args[0], ",".join(map(str, default)), many=True, **kw)
        if args:
            hint = next(a for a in args if a is not type(None))
        return cls(name, hint, default, **kw)

    def expected(self) -> str:
        if self.choices:
            what = "{" + ",".join(map(str, self.choices)) + "}"
            return f"a comma list from {what}" if self.many else f"one of {what}"
        one, many = _EXPECTED.get(self.type, ("a value", "values"))
        return f"a comma list of {many}" if self.many else one

    def convert(self, text: str):
        parts = [p for p in text.split(",") if p] if self.many else [text]
        if not parts:
            raise OptionError(f"expected {self.expected()}, got {text!r}")
        try:
            values = [BOOL_WORDS[p.lower()] if self.type is bool else self.type(p) for p in parts]
        except (KeyError, ValueError) as exc:
            if self.type not in _EXPECTED:  # a checking function says what is wrong
                raise OptionError(str(exc)) from None
            raise OptionError(f"expected {self.expected()}, got {text!r}") from None
        if self.choices is not None and any(v not in self.choices for v in values):
            raise OptionError(f"expected {self.expected()}, got {text!r}")
        return Items(values, text) if self.many else values[0]


def load_config_file(path: str, convert=lambda key, text: text) -> dict[str, object]:
    """Read ``key=value`` lines; ``convert(key, text)`` gives each value, and a
    ``ValueError`` it raises is reported with ``path:line`` and the key, as
    is a key given twice. A line whose value converts to None is left out,
    as if it were absent."""
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            first = first_line.setdefault(key, lineno)
            if first != lineno:
                raise ValueError(f"{path}:{lineno}: {key}: given twice (first on line {first})")
            try:
                value = convert(key, text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
            if value is not None:
                values[key] = value
    return values


class Settings:
    """Option resolution: CLI flag > config file > declared default."""

    def __init__(self, args: dict[str, object], config: dict[str, object],
                 defaults: dict[str, object]):
        self._args = args
        self._config = config
        self._defaults = defaults
        self.resolved: dict[str, object] = {}

    def __contains__(self, key: str) -> bool:
        return key in self._defaults

    def get(self, key: str):
        value = self._args.get(key.replace("-", "_"))
        if value is None:
            value = self._config.get(key, self._defaults[key])
        self.resolved[key] = value
        return value


def write_manifest(out_dir: str, command: str, resolved: dict[str, object]) -> Path:
    from . import __version__

    path = Path(out_dir) / "manifest.txt"
    lines = [f"command={command}", f"version={__version__}"]
    for key in sorted(resolved):
        lines.append(f"{key}={resolved[key]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def stage_seed(seed: int, stage: str) -> int:
    """Deterministic per-stage sub-seed derived from the single run seed."""
    return zlib.crc32(f"{stage}:{seed}".encode()) & 0x7FFFFFFF
