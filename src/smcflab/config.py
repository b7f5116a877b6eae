"""Run configuration: flat key-value text with explicit units in key names.

No defaults hide in solver code: `resolve()` materializes every derived value
(time step, bump width, ...) so the manifest echoes a fully determined
configuration, and a config round-trips through text bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import SmcfValidationError
from .norms import SOBOLEV_S_RANGE
from .parabolic import SIGN_VARIANTS, time_grid

# field type (a string under postponed annotations) -> text parser
_PARSERS = {"int": int, "float": float}
# allowed values and lower bounds by field.  A tolerance or threshold <= 0 would
# switch its check off; a zero time_step_dt selects 0.5 dx^2, a zero picard_tol the sweep count alone,
# a zero bump_profile_width_w L / 8
_CHOICES = {
    "scenario_kind": ("flat", "cliff", "bump"),
    "coupling_mode": ("perstep", "slab"),
    "sign_variant": SIGN_VARIANTS,
    "grid_dimension_d": (1, 2, 3),
}
_TOLERANCES = ("solver_tol", "frame_drift_tol", "holonomy_tol", "consistency_tol")
_POSITIVE = ("box_length_L", "final_time_T", "small_data_threshold", "blowup_threshold", "cliff_radius_r") + _TOLERANCES
_NON_NEGATIVE = ("time_step_dt", "picard_tol", "bump_profile_width_w")
_AT_LEAST_ONE = ("picard_sweeps", "snapshot_every_steps", "solver_max_iter")


@dataclass
class RunConfig:
    scenario_kind: str = "bump"
    cliff_radius_r: float = 1.0
    bump_epsilon: float = 0.02
    bump_delta: float = 0.5
    bump_profile_width_w: float = 0.0  # 0 -> resolved to box_length_L / 8
    grid_dimension_d: int = 2
    grid_points_n: int = 64
    box_length_L: float = 16.0
    time_step_dt: float = 0.0  # 0 -> resolved to 0.5 * dx^2
    final_time_T: float = 0.25
    picard_sweeps: int = 3
    picard_tol: float = 0.0  # 0 -> sweep count only
    coupling_mode: str = "perstep"
    sign_variant: str = "plus"
    snapshot_every_steps: int = 1
    envelope_s: float = 2.0
    envelope_delta: float = 0.5
    output_dir: str = "out"
    small_data_threshold: float = 0.1
    solver_tol: float = 1e-9
    solver_max_iter: int = 60
    blowup_threshold: float = 1e3
    frame_drift_tol: float = 1e-5
    holonomy_tol: float = 1e-4
    consistency_tol: float = 1e-4

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise SmcfValidationError(f"{f.name} must be finite, got {value}")
            if f.name in _POSITIVE and not value > 0:
                raise SmcfValidationError(f"{f.name} must be positive, got {value}")
            if f.name in _NON_NEGATIVE and value < 0:
                raise SmcfValidationError(f"{f.name} must be >= 0, got {value}")
            if f.name in _AT_LEAST_ONE and value < 1:
                raise SmcfValidationError(f"{f.name} must be >= 1, got {value}")
            if f.name in _CHOICES and value not in _CHOICES[f.name]:
                raise SmcfValidationError(f"{f.name} must be one of {_CHOICES[f.name]}, got {value!r}")
        n = self.grid_points_n
        if n < 8 or n & (n - 1):
            raise SmcfValidationError("grid_points_n must be a power of two >= 8")
        if not SOBOLEV_S_RANGE[0] <= self.envelope_s <= SOBOLEV_S_RANGE[1]:
            raise SmcfValidationError("envelope_s must lie in [{:g}, {:g}], got {}".format(*SOBOLEV_S_RANGE, self.envelope_s))
        if self.scenario_kind == "bump":
            if not 0 < self.bump_epsilon < 1:
                raise SmcfValidationError("bump_epsilon must lie in (0, 1)")
            if not 0 < self.bump_delta < self.envelope_s - self.grid_dimension_d / 2:
                raise SmcfValidationError("need 0 < bump_delta < envelope_s - d/2")
        if not 0 < self.envelope_delta < self.envelope_s - self.grid_dimension_d / 2:
            raise SmcfValidationError("need 0 < envelope_delta < envelope_s - d/2")
        return self

    def resolve(self) -> "RunConfig":
        """Fill derived defaults so every knob is explicit; dt becomes the step the time grid takes."""
        out = self
        if out.bump_profile_width_w == 0.0:
            out = replace(out, bump_profile_width_w=out.box_length_L / 8.0)
        if out.time_step_dt == 0.0:
            dx = out.box_length_L / out.grid_points_n
            out = replace(out, time_step_dt=0.5 * dx * dx)
        out.validate()
        return replace(out, time_step_dt=time_grid(out.final_time_T, out.time_step_dt)[1])


def _format_value(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def config_to_text(cfg: RunConfig) -> str:
    lines = ["# smcf run configuration"]
    for f in fields(cfg):
        lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SmcfValidationError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise SmcfValidationError(f"config key {key!r} set twice, on lines {values[key][0]} and {lineno}")
        values[key] = (lineno, val.strip())
    known = {f.name: f for f in fields(RunConfig)}
    kwargs = {}
    for key, (lineno, val) in values.items():
        if key not in known:
            raise SmcfValidationError(f"unknown config key {key!r}")
        parse = _PARSERS.get(known[key].type, str)
        try:
            kwargs[key] = parse(val)
        except ValueError:
            raise SmcfValidationError(
                f"config line {lineno}: {key} must be {parse.__name__}, got {val!r}"
            ) from None
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SmcfValidationError(f"{path}: cannot read config: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise SmcfValidationError(f"{path}: config is not UTF-8 text") from None
    return config_from_text(text)


def save_config(path, cfg: RunConfig):
    with open(path, "w") as fh:
        fh.write(config_to_text(cfg))
