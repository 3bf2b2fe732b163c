"""Run configuration: key=value files, flag overrides, validation.

Schema (one ``key = value`` per line, ``#`` starts a comment):

    preset          built-in experiment name (gaetan2009, beguin2013)
    interaction     rdd or vdw
    c3              RDD coefficient, 2*pi MHz um^3, signed
    c6              vdW coefficient, 2*pi GHz um^6, signed (c3 or c6, not both)
    rabi_mhz        |Omega|/2*pi in MHz
    wavelength_nm   drive wavelength in nm
    detuning_ratio  delta/|Omega|
    labels          comma list from {1,+,-}
    rmin, rmax      scan bounds, crossover units
    points          grid size
    output          file path (default: stdout)
    format          csv or json
    si              true/false: SI columns instead of model units

Explicit values override preset fields; flags override the file.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .constants import TWOPI
from .model import (
    _RB87_KG,
    DriveParams,
    InteractionKind,
    InteractionModel,
    get_preset,
)
from .spectrum import LABELS

_FLOAT_KEYS = ("c3", "c6", "rabi_mhz", "wavelength_nm", "detuning_ratio", "rmin", "rmax")

# interaction -> its coefficient's key and that key's unit as two SI factors,
# 2*pi MHz um^3 for rdd and 2*pi GHz um^6 for vdw
_INTERACTIONS = {"rdd": ("c3", 1e6, 1e-18), "vdw": ("c6", 1e9, 1e-36)}


def _given_kinds(config) -> list[str]:
    """The interactions whose coefficient ``config`` sets."""
    return [kind for kind, (key, _, _) in _INTERACTIONS.items() if getattr(config, key) is not None]


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one CLI run."""

    preset: str | None = None
    interaction: str | None = None
    c3: float | None = None
    c6: float | None = None
    rabi_mhz: float | None = None
    wavelength_nm: float | None = None
    detuning_ratio: float | None = None
    labels: tuple = ("1", "+", "-")
    rmin: float = 0.1
    rmax: float = 10.0
    points: int = 200
    output: str | None = None
    format: str = "csv"
    si: bool = False

    def __post_init__(self) -> None:
        if self.interaction is not None and self.interaction not in _INTERACTIONS:
            raise ValueError("interaction must be 'rdd' or 'vdw'")
        given = _given_kinds(self)
        for kind in given:
            if self.interaction not in (None, kind):
                raise ValueError(f"{_INTERACTIONS[kind][0]} invalid for {self.interaction}")
        if len(given) > 1:
            raise ValueError("c3 and c6 cannot both be given: choose one interaction")
        for label in self.labels:
            if label not in LABELS:
                raise ValueError(f"labels must come from {LABELS}")
        if not self.labels:
            raise ValueError("labels must not be empty")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        for key in ("rmin", "rmax", "rabi_mhz", "wavelength_nm"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if not (self.rmin > 0.0):
            raise ValueError("rmin must be positive")
        if not (self.rmax > self.rmin):
            raise ValueError("rmax must exceed rmin")
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if self.rabi_mhz is not None and not (self.rabi_mhz > 0.0):
            raise ValueError("rabi_mhz must be positive")
        if self.wavelength_nm is not None and not (self.wavelength_nm > 0.0):
            raise ValueError("wavelength_nm must be positive")


KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))  # config-file and flag keys


def parse_value(key: str, raw: str):
    """One config value from its text: a number, an integer, a boolean or labels."""
    raw = raw.strip()
    if key in _FLOAT_KEYS:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"malformed number for key '{key}': {raw!r}") from None
    if key == "points":
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"malformed integer for key 'points': {raw!r}") from None
    if key == "si":
        lowered = raw.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"malformed boolean for key 'si': {raw!r}")
    if key == "labels":
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return raw


def read_config_file(path: str) -> dict:
    """Parse one key=value file into a raw mapping, validating keys."""
    values: dict = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = text.split("=", 1)
            key = key.strip()
            if key not in KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
            values[key] = parse_value(key, raw)
    return values


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Combine a config file with explicit overrides into a RunConfig.

    Overrides (CLI flags) win over file values.  Unknown override keys
    are rejected the same way file keys are.
    """
    values = read_config_file(path) if path else {}
    for key, value in (overrides or {}).items():
        if key not in KEYS:
            raise ValueError(f"unknown key '{key}'")
        if value is not None:
            values[key] = value
    return RunConfig(**values)


def _wavenumber_rad_m(wavelength_nm: float) -> float:
    """2*pi / lambda in rad/m for a wavelength in nm, which must not underflow to 0 m."""
    wavelength_m = wavelength_nm * 1e-9
    if wavelength_m == 0.0:
        raise ValueError(f"wavelength_nm {wavelength_nm!r} underflows to 0 m")
    return TWOPI / wavelength_m


def build_experiment(config: RunConfig) -> tuple[DriveParams, InteractionModel]:
    """Materialize physics inputs from a RunConfig.

    Preset fields fill whatever the config leaves unset; a config
    without preset must specify the drive and the interaction fully.
    """
    drive = None
    interaction = None
    if config.preset is not None:
        preset = get_preset(config.preset)
        drive = preset.drive
        interaction = preset.interaction

    if config.rabi_mhz is not None:
        rabi = TWOPI * config.rabi_mhz * 1e6
        if drive is None:
            if config.wavelength_nm is None:
                raise ValueError("wavelength_nm required without a preset")
            drive = DriveParams(
                rabi_magnitude_rad_s=rabi,
                detuning_rad_s=0.0,
                wavenumber_rad_m=_wavenumber_rad_m(config.wavelength_nm),
                mass_a_kg=_RB87_KG,
                mass_b_kg=_RB87_KG,
            )
        else:
            drive = dataclasses.replace(drive, rabi_magnitude_rad_s=rabi)
    if drive is None:
        raise ValueError("either preset or rabi_mhz must be given")
    if config.wavelength_nm is not None:
        drive = dataclasses.replace(
            drive, wavenumber_rad_m=_wavenumber_rad_m(config.wavelength_nm)
        )
    if config.detuning_ratio is not None:
        drive = dataclasses.replace(
            drive,
            detuning_rad_s=config.detuning_ratio * drive.rabi_magnitude_rad_s,
        )

    kind = config.interaction or next(iter(_given_kinds(config)), None)
    if kind is not None:
        key, scale, unit = _INTERACTIONS[kind]
        value = getattr(config, key)
        if value is not None:
            interaction = InteractionModel(
                kind=InteractionKind(kind), coefficient=TWOPI * value * scale * unit)
        elif interaction is None or interaction.kind is not InteractionKind(kind):
            raise ValueError(f"interaction {kind} requires {key}")
    if interaction is None:
        raise ValueError("either preset or an interaction definition must be given")
    return drive, interaction
