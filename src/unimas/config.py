"""Run configuration: the paper's constants plus the harness knobs its runs set.

The paper's constants are the session cap, the lecture minimums, the one
pair of marks bounds, the reply deadline K, the lab count and the roster;
the rest drive the harness.  Config files are line-oriented ``key =
value``; a ``#`` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, get_type_hints

from .terms import check_scalar


class ConfigError(Exception):
    pass


#: Fault-injection flags: each disables the guard behind one property.
INJECT_FLAGS = tuple(f"p{i}" for i in range(1, 12))


@dataclass(frozen=True)
class RunConfig:
    cap: int = 1000
    min_lectures_mid: int = 16
    min_lectures_final: int = 32
    min_marks: int = 0
    max_marks: int = 100
    liveness_k: int = 100
    seed: int = 0
    max_rounds: int = 1_000_000
    lab_count: int = 1
    cs_roster: tuple[str, ...] = ("CS",)
    pipeline_window: int = 1
    inject: str | None = None

    def __post_init__(self) -> None:
        for name in (
            "cap",
            "min_lectures_mid",
            "min_lectures_final",
            "liveness_k",
            "max_rounds",
            "lab_count",
            "pipeline_window",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.min_marks > self.max_marks:
            raise ConfigError("min_marks must not exceed max_marks")
        if self.inject is not None and self.inject not in INJECT_FLAGS:
            raise ConfigError(f"inject expects p1..p11, got {self.inject!r}")
        if not self.cs_roster:
            raise ConfigError("cs_roster must not be empty")
        # the trace header carries the roster joined by "+"; a scenario, which
        # names an entry as a scalar, and a config file end a line at "#"
        for name in self.cs_roster:
            try:
                check_scalar(name)
            except ValueError as exc:
                raise ConfigError(f"bad cs_roster entry: {exc}") from None
        if any(not name or "+" in name or "#" in name for name in self.cs_roster):
            raise ConfigError(f"cs_roster entries must be non-empty, without '+' or '#': {self.cs_roster}")

    def marks_bounds(self, subject: str) -> tuple[int, int]:
        return self.min_marks, self.max_marks  # one pair for every subject

    def header(self) -> str:
        """Canonical one-line form recorded in the trace header: each field in
        declaration order."""
        parts: list[str] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                parts.append(f"{f.name}={'+'.join(value)}")
            else:
                parts.append(f"{f.name}={'-' if value is None else value}")
        return ",".join(parts)


def with_fixed_window(cfg: RunConfig, window: int, command: str) -> RunConfig:
    """``cfg`` at a command's fixed pipeline window.

    The default window counts as unset; any other window is refused rather
    than silently replaced.
    """
    if cfg.pipeline_window not in (RunConfig.pipeline_window, window):
        raise ConfigError(
            f"{command} runs at a fixed pipeline_window of {window}, "
            f"got pipeline_window={cfg.pipeline_window}"
        )
    return replace(cfg, pipeline_window=window)


_INT_KEYS = {name for name, hint in get_type_hints(RunConfig).items() if hint is int}


def apply_setting(values: dict[str, Any], key: str, value: str) -> None:
    """Set ``key`` in ``values``, a RunConfig's fields by name; the fields are
    checked together once, when a RunConfig is built from the finished values."""
    key = key.strip()
    value = value.strip()
    try:
        if key in _INT_KEYS:
            values[key] = int(value)
        elif key == "cs_roster":
            values[key] = tuple(value.replace("+", " ").split())
        elif key == "inject":
            values[key] = None if value in ("-", "") else value
        else:
            raise ConfigError(f"unknown config key: {key}")
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc


def apply_config_text(values: dict[str, Any], text: str) -> dict[str, Any]:
    """``values`` with a config file's ``key = value`` lines set in order."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        try:
            apply_setting(values, key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return values


def parse_config_text(text: str) -> RunConfig:
    return RunConfig(**apply_config_text(dict(vars(RunConfig())), text))


def parse_header(header: str) -> RunConfig:
    """Rebuild a RunConfig from a trace header line."""
    values = dict(vars(RunConfig()))
    for part in header.split(","):
        key, eq, value = part.partition("=")
        if not eq:
            raise ConfigError(f"bad header field: {part!r}")
        apply_setting(values, key, value)
    return RunConfig(**values)
