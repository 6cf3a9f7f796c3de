"""Run configuration: paper constants plus harness knobs.

Config files are line-oriented ``key = value``; per-subject marks bounds
use dotted keys (``max_marks.Math = 50``).
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
    marks_overrides: tuple[tuple[str, int, int], ...] = ()  # (subject, min, max); see __post_init__

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
        # a per-subject bound left unset (None) takes the global one as finally set
        low, high = self.min_marks, self.max_marks
        marks = ((s, low if lo is None else lo, high if hi is None else hi) for s, lo, hi in self.marks_overrides)
        object.__setattr__(self, "marks_overrides", tuple(marks))
        for sub, lo, hi in self.marks_overrides:
            if lo > hi:
                raise ConfigError(f"min_marks.{sub} must not exceed max_marks.{sub}")
        if self.inject is not None and self.inject not in INJECT_FLAGS:
            raise ConfigError(f"inject expects p1..p11, got {self.inject!r}")
        if not self.cs_roster:
            raise ConfigError("cs_roster must not be empty")
        # the trace header carries these as scalars, as a scenario names them:
        # the roster joined by "+", each subject once and before an "="
        subjects = [sub for sub, _, _ in self.marks_overrides]
        for name in (*self.cs_roster, *subjects):
            try:
                check_scalar(name)
            except ValueError as exc:
                raise ConfigError(f"bad cs_roster entry or marks subject: {exc}") from None
        if any(not name or "+" in name for name in self.cs_roster):
            raise ConfigError(f"cs_roster entries must be non-empty, without '+': {self.cs_roster}")
        if len(set(subjects)) < len(subjects) or any("=" in sub for sub in subjects):
            raise ConfigError(f"marks subjects must be unique and without '=': {subjects}")

    def marks_bounds(self, subject: str) -> tuple[int, int]:
        for sub, lo, hi in self.marks_overrides:
            if sub == subject:
                return lo, hi
        return self.min_marks, self.max_marks

    def header(self) -> str:
        """Canonical one-line form recorded in the trace header: each field in
        declaration order, a marks override as ``marks.<subject>=lo:hi``."""
        parts: list[str] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "marks_overrides":
                parts.extend(f"marks.{s}={lo}:{hi}" for s, lo, hi in value)
            elif isinstance(value, tuple):
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
        elif key.startswith("min_marks.") or key.startswith("max_marks."):
            field_name, subject = key.split(".", 1)
            overrides = values["marks_overrides"]  # a half not set yet is None
            lo, hi = {sub: (lo, hi) for sub, lo, hi in overrides}.get(subject, (None, None))
            lo, hi = (int(value), hi) if field_name == "min_marks" else (lo, int(value))
            kept = tuple(o for o in overrides if o[0] != subject)
            values["marks_overrides"] = kept + ((subject, lo, hi),)
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
        if key.startswith("marks."):  # marks.<subject>=lo:hi
            subject = key[len("marks."):]
            lo, _, hi = value.partition(":")
            apply_setting(values, f"min_marks.{subject}", lo)
            apply_setting(values, f"max_marks.{subject}", hi)
        else:
            apply_setting(values, key, value)
    return RunConfig(**values)
