"""Flat runtime configuration: one key space for every pipeline stage.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
CLI flags override file values which override the defaults below. Every
value is checked when a config is built, from a file, a flag or code.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class PipelineConfig:
    # landmark selection
    sample_spacing_px: float = 4.0
    depth_tolerance_m: float = 0.1
    default_pole_radius_m: float = 0.15
    max_selection_range_m: float = 150.0
    occlusion_margin_px: int = 8
    # edge features
    dt_truncation_px: float = 20.0
    boundary_margin_px: int = 2
    label_weights: tuple[tuple[str, float], ...] = ()
    # alignment
    max_iterations: int = 50
    min_samples: int = 30
    step_tol: float = 1e-6
    energy_tol: float = 1e-9
    lambda_init: float = 1e-4
    max_translation_jump_m: float = 1.0
    max_rotation_jump_deg: float = 3.0
    max_mean_reproj_px: float = 3.0
    min_information: float = 1e-4
    # pose predictor
    odometry_window: int = 1000

    def __post_init__(self):
        for field in fields(self):
            if field.name == "label_weights":
                for name, weight in self.label_weights:
                    _check(f"label weight {name!r}", weight)
            else:
                _check(field.name, getattr(self, field.name))

    def weight_for(self, label: str) -> float:
        for name, weight in self.label_weights:
            if name == label:
                return weight
        return 1.0


# Every numeric value must be finite and >= 0; these must also be > 0. A zero
# lambda_init never grows under the x10 damping escalation, so a rejected
# step would be retried forever.
_POSITIVE_KEYS = frozenset({"dt_truncation_px", "sample_spacing_px", "max_iterations", "lambda_init"})


def _check(name: str, value) -> None:
    # Not math.isfinite: an int too large for a float would raise OverflowError.
    if not 0 <= value <= sys.float_info.max:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    if name in _POSITIVE_KEYS and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def _parse_label_weights(text: str) -> tuple[tuple[str, float], ...]:
    text = text.strip()
    if not text:
        return ()
    pairs = []
    for item in text.split(","):
        name, _, weight = item.partition(":")
        if not name.strip() or not weight.strip():
            raise ValueError(f"bad label weight entry {item!r}, expected name:weight")
        pairs.append((name.strip(), float(weight)))
    return tuple(pairs)


def _coerce(name: str, text: str):
    kind = {f.name: f.type for f in fields(PipelineConfig)}[name]
    if name == "label_weights":
        return _parse_label_weights(text)
    return int(text) if kind == "int" else float(text)


def apply_overrides(config: PipelineConfig, overrides: dict[str, str]) -> PipelineConfig:
    """Apply raw string overrides; unknown keys raise ValueError."""
    known = {f.name for f in fields(PipelineConfig)}
    changes = {}
    for key, value in overrides.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        changes[key] = _coerce(key, value)
    return replace(config, **changes)


def parse_config_text(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """Parse ``key = value`` lines on top of ``base`` (or the defaults)."""
    config = base or PipelineConfig()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line {line_number}: expected 'key = value', got {raw!r}")
        try:
            config = apply_overrides(config, {key.strip(): value.strip()})
        except ValueError as err:
            raise ValueError(f"config line {line_number}: {err}") from None
    return config
