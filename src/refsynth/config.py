"""Pipeline configuration: defaults, JSON files, and command-line overrides.

Precedence is command line over file over defaults.  A config file is a
flat JSON object whose keys match the field names below; unknown keys are
rejected so typos fail loudly instead of silently running with defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError
from .util import load_json

_RATIO_FIELDS = ("min_area_ratio", "synonym_probability", "compose_probability")
_POSITIVE_INT_FIELDS = ("max_per_region", "parse_budget", "per_type", "refresh_interval", "workers")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    """An int or a finite float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the synthesis, filtering, and training-demo stages."""

    seed: int = 0
    min_area_ratio: float = 0.01
    category_blacklist: tuple[str, ...] = ("cloud", "sky")
    max_per_region: int = 2
    synonym_probability: float = 0.3
    compose_probability: float = 0.5
    parse_budget: int = 16
    per_type: int = 3
    drop_spatial_only: bool = True
    split_ratios: tuple[float, float, float] = (0.8, 0.11, 0.09)
    margin: float = 0.1
    mine_weight: float = 1.0
    refresh_interval: int = 50
    workers: int = 1

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        try:
            with open(path, "rb") as handle:
                data = load_json(handle, "config file")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys in {path}: {', '.join(unknown)}")
        for key in ("category_blacklist", "split_ratios"):
            if key in data:
                if not isinstance(data[key], list):
                    raise ConfigError(f"config key {key!r} in {path} must be a list")
                data[key] = tuple(data[key])
        try:
            return cls(**data).validated()
        except ConfigError as exc:
            raise ConfigError(f"{exc} (in {path})") from None

    def override(self, **updates) -> "PipelineConfig":
        """Non-None keyword values replace the corresponding fields."""
        changes = {k: v for k, v in updates.items() if v is not None}
        return dataclasses.replace(self, **changes).validated() if changes else self

    def validated(self) -> "PipelineConfig":
        """``self``, once every field has its exact type and range; else :class:`ConfigError` naming the field."""
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        for name in _RATIO_FIELDS:
            value = getattr(self, name)
            if not (_is_number(value) and 0.0 <= value <= 1.0):
                raise ConfigError(f"{name} must be a number in [0, 1], got {value!r}")
        for name in _POSITIVE_INT_FIELDS:
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if type(self.drop_spatial_only) is not bool:
            raise ConfigError(f"drop_spatial_only must be true or false, got {self.drop_spatial_only!r}")
        if not (_is_number(self.margin) and self.margin > 0):
            raise ConfigError(f"margin must be a positive finite number, got {self.margin!r}")
        if not (_is_number(self.mine_weight) and self.mine_weight >= 0):
            raise ConfigError(f"mine_weight must be a non-negative finite number, got {self.mine_weight!r}")
        ratios = self.split_ratios
        if (len(ratios) != 3 or not all(_is_number(r) and r > 0 for r in ratios)
                or abs(sum(ratios) - 1.0) > 1e-9):
            raise ConfigError(
                f"split_ratios must be three positive numbers summing to 1, got {ratios}"
            )
        if not all(isinstance(c, str) and c for c in self.category_blacklist):
            raise ConfigError("category_blacklist entries must be non-empty strings")
        return self

    def to_jsonable(self) -> dict:
        data = dataclasses.asdict(self)
        data["category_blacklist"] = list(data["category_blacklist"])
        data["split_ratios"] = list(data["split_ratios"])
        return data


def load_config(path: str | None, **overrides) -> PipelineConfig:
    """Resolve the effective config from an optional file plus overrides."""
    base = PipelineConfig.from_file(path) if path else PipelineConfig()
    return base.override(**overrides)
