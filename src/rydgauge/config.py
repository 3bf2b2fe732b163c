"""Run configuration: key=value files, flag overrides, validation.

Schema (one ``key = value`` per line, ``#`` starts a comment):

    preset          built-in experiment name (gaetan2009, beguin2013)
    interaction     rdd or vdw
    c3              RDD coefficient, 2*pi MHz um^3, signed
    c6              vdW coefficient, 2*pi GHz um^6, signed
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
from dataclasses import dataclass

from .constants import ATOMIC_MASS, TWOPI
from .model import (
    DriveParams,
    InteractionKind,
    InteractionModel,
    get_preset,
)
from .spectrum import LABELS

DEFAULT_MASS_KG = 87.0 * ATOMIC_MASS

_FLOAT_KEYS = ("c3", "c6", "rabi_mhz", "wavelength_nm", "detuning_ratio", "rmin", "rmax")


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
        if self.interaction is not None and self.interaction not in ("rdd", "vdw"):
            raise ValueError("interaction must be 'rdd' or 'vdw'")
        if self.interaction == "vdw" and self.c3 is not None:
            raise ValueError("c3 invalid for vdw")
        if self.interaction == "rdd" and self.c6 is not None:
            raise ValueError("c6 invalid for rdd")
        for label in self.labels:
            if label not in LABELS:
                raise ValueError(f"labels must come from {LABELS}")
        if not self.labels:
            raise ValueError("labels must not be empty")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
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
                rabi_phase_rad=0.0,
                detuning_rad_s=0.0,
                wavenumber_rad_m=TWOPI / (config.wavelength_nm * 1e-9),
                wavevector_direction=(0.0, 0.0, 1.0),
                mass_a_kg=DEFAULT_MASS_KG,
                mass_b_kg=DEFAULT_MASS_KG,
            )
        else:
            drive = dataclasses.replace(drive, rabi_magnitude_rad_s=rabi)
    if drive is None:
        raise ValueError("either preset or rabi_mhz must be given")
    if config.wavelength_nm is not None:
        drive = dataclasses.replace(
            drive, wavenumber_rad_m=TWOPI / (config.wavelength_nm * 1e-9)
        )
    if config.detuning_ratio is not None:
        drive = dataclasses.replace(
            drive,
            detuning_rad_s=config.detuning_ratio * drive.rabi_magnitude_rad_s,
        )

    if config.interaction == "rdd" or (config.interaction is None and config.c3 is not None):
        if config.c3 is None:
            if interaction is None or interaction.kind is not InteractionKind.RDD:
                raise ValueError("interaction rdd requires c3")
        else:
            interaction = InteractionModel(
                kind=InteractionKind.RDD, coefficient=TWOPI * config.c3 * 1e6 * 1e-18
            )
    elif config.interaction == "vdw" or config.c6 is not None:
        if config.c6 is None:
            if interaction is None or interaction.kind is not InteractionKind.VDW:
                raise ValueError("interaction vdw requires c6")
        else:
            interaction = InteractionModel(
                kind=InteractionKind.VDW, coefficient=TWOPI * config.c6 * 1e9 * 1e-36
            )
    if interaction is None:
        raise ValueError("either preset or an interaction definition must be given")
    return drive, interaction
