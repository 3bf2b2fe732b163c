"""Experiment-level description of the driven two-atom system.

SI quantities live here: laser drive parameters, the binary interaction
model (resonant dipole-dipole or van der Waals), derived scales (crossover
distance, characteristic field), and the named experimental presets used
throughout the test suite and CLI.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .constants import ATOMIC_MASS, ELEMENTARY_CHARGE, HBAR, TWOPI


class InteractionKind(enum.Enum):
    """Power law of the pair interaction."""

    RDD = "rdd"  # resonant dipole-dipole, C3/r^3
    VDW = "vdw"  # van der Waals, C6/r^6

    @property
    def power(self) -> int:
        return 3 if self is InteractionKind.RDD else 6


@dataclass(frozen=True)
class InteractionModel:
    """Pair interaction V(r) = coefficient / r**power.

    coefficient is an angular frequency times metres**power (rad/s·m^3 for
    RDD, rad/s·m^6 for vdW); its sign selects attractive (<0) or
    repulsive (>0) interactions.
    """

    kind: InteractionKind
    coefficient: float  # rad/s · m^power, signed, nonzero

    def __post_init__(self):
        if not math.isfinite(self.coefficient) or self.coefficient == 0.0:
            raise ValueError("interaction coefficient must be finite and nonzero")

    @property
    def power(self) -> int:
        return self.kind.power

    @property
    def sign(self) -> float:
        return math.copysign(1.0, self.coefficient)


@dataclass(frozen=True)
class DriveParams:
    """Uniform laser drive shared by both atoms, plus the atomic masses.

    The frame is fixed: the beam runs along +z and Omega is real and
    positive.  Neither choice loses generality.  Another beam axis is a
    rotation of the separations, and a global phase of Omega is a phase of
    each internal state, on which no gauge potential depends.
    """

    wavevector_direction: ClassVar[tuple] = (0.0, 0.0, 1.0)  # the beam's unit vector

    rabi_magnitude_rad_s: float  # Omega > 0 (rad/s)
    detuning_rad_s: float  # delta, signed (rad/s)
    wavenumber_rad_m: float  # k_L > 0 (rad/m)
    mass_a_kg: float
    mass_b_kg: float

    def __post_init__(self):
        for name in ("rabi_magnitude_rad_s", "detuning_rad_s", "wavenumber_rad_m",
                     "mass_a_kg", "mass_b_kg"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.rabi_magnitude_rad_s > 0.0):
            raise ValueError("rabi_magnitude_rad_s must be positive")
        if not (self.wavenumber_rad_m > 0.0):
            raise ValueError("wavenumber_rad_m must be positive")
        if not (self.mass_a_kg > 0.0 and self.mass_b_kg > 0.0):
            raise ValueError("atomic masses must be positive")

    @property
    def detuning_ratio(self) -> float:
        """delta / |Omega|, the reduced detuning."""
        return self.detuning_rad_s / self.rabi_magnitude_rad_s


def generalized_rabi(params: DriveParams) -> float:
    """Dressed coupling strength sqrt(|Omega|^2 + delta^2) in rad/s."""
    return math.hypot(params.rabi_magnitude_rad_s, params.detuning_rad_s)


def crossover_distance(model: InteractionModel, params: DriveParams) -> float:
    """Distance where |V| equals the generalized Rabi frequency (metres)."""
    return (abs(model.coefficient) / generalized_rabi(params)) ** (1.0 / model.power)


def characteristic_field(params: DriveParams, crossover_m: float) -> float:
    """Magnetic-field scale hbar·k_L/(e·r_c) in tesla for unit charge e."""
    if not (crossover_m > 0.0):
        raise ValueError("characteristic_field requires a positive crossover distance")
    return HBAR * params.wavenumber_rad_m / (ELEMENTARY_CHARGE * crossover_m)


@dataclass(frozen=True)
class ModelUnits:
    """The SI value of each model unit; a model-unit value times its
    attribute is that value in SI.

    Lengths are measured in r_c, vector potentials in hbar·k_L, magnetic
    fields in B0 = hbar·k_L/(e·r_c) and scalar potentials in the
    recoil-like unit hbar^2·k_L^2/(2m_a) of atom a.
    """

    length_m: float
    vector_potential_kg_m_s: float
    field_T: float
    scalar_a_J: float

    @classmethod
    def from_experiment(cls, params: DriveParams, model: InteractionModel) -> "ModelUnits":
        r_c = crossover_distance(model, params)
        k_l = params.wavenumber_rad_m
        return cls(
            length_m=r_c,
            vector_potential_kg_m_s=HBAR * k_l,
            field_T=characteristic_field(params, r_c),
            scalar_a_J=HBAR**2 * k_l**2 / (2.0 * params.mass_a_kg),
        )


@dataclass(frozen=True)
class ReducedParameters:
    """Dimensionless knobs that fully determine the internal spectrum.

    detuning_ratio  w = delta/|Omega|
    dressing_ratio  sqrt(1 + w^2), the generalized Rabi in |Omega| units
    interaction_sign  +1 repulsive, -1 attractive
    power  3 (RDD) or 6 (vdW)
    kappa  k_L·r_c, laser phase accumulated over one crossover distance

    w, the dressing ratio and kappa may be arrays, one entry per drive, that
    broadcast against the separations.
    """

    detuning_ratio: float
    dressing_ratio: float
    interaction_sign: float
    power: int
    kappa: float

    def shift_ratio(self, x_over_rc):
        """u = V/|Omega| at separation x in crossover units."""
        x = np.asarray(x_over_rc, dtype=float)
        return self.interaction_sign * self.dressing_ratio * x ** (-float(self.power))


def reduced_parameters(params: DriveParams, model: InteractionModel) -> ReducedParameters:
    """Collapse SI inputs to the dimensionless parameter set."""
    w = params.detuning_ratio
    return ReducedParameters(
        detuning_ratio=w,
        dressing_ratio=math.hypot(1.0, w),
        interaction_sign=model.sign,
        power=model.power,
        kappa=params.wavenumber_rad_m * crossover_distance(model, params),
    )


@dataclass(frozen=True)
class ExperimentPreset:
    """Named bundle of a drive, an interaction and the Rydberg lifetime."""

    name: str
    drive: DriveParams
    interaction: InteractionModel
    lifetime_s: float


_RB87_KG = 87.0 * ATOMIC_MASS
_LAMBDA_L_M = 296e-9
_K_L_RAD_M = TWOPI / _LAMBDA_L_M

# Rabi-frequency and dispersion-coefficient windows accessible in the vdW
# reference experiment; the named preset sits at their geometric means.
BEGUIN2013_RABI_RANGE_RAD_S = (TWOPI * 0.5e6, TWOPI * 5.0e6)
BEGUIN2013_C6_RANGE_RAD_S_M6 = (TWOPI * 10e9 * 1e-36, TWOPI * 10000e9 * 1e-36)

PRESETS: dict[str, ExperimentPreset] = {
    "gaetan2009": ExperimentPreset(
        name="gaetan2009",
        drive=DriveParams(
            rabi_magnitude_rad_s=TWOPI * 6.5e6,
            detuning_rad_s=0.0,
            wavenumber_rad_m=_K_L_RAD_M,
            mass_a_kg=_RB87_KG,
            mass_b_kg=_RB87_KG,
        ),
        interaction=InteractionModel(
            kind=InteractionKind.RDD,
            coefficient=-TWOPI * 3200e6 * 1e-18,  # attractive branch by default
        ),
        lifetime_s=500e-6,
    ),
    "beguin2013": ExperimentPreset(
        name="beguin2013",
        drive=DriveParams(
            rabi_magnitude_rad_s=math.sqrt(
                BEGUIN2013_RABI_RANGE_RAD_S[0] * BEGUIN2013_RABI_RANGE_RAD_S[1]
            ),
            detuning_rad_s=0.0,
            wavenumber_rad_m=_K_L_RAD_M,
            mass_a_kg=_RB87_KG,
            mass_b_kg=_RB87_KG,
        ),
        interaction=InteractionModel(
            kind=InteractionKind.VDW,
            coefficient=-math.sqrt(
                BEGUIN2013_C6_RANGE_RAD_S_M6[0] * BEGUIN2013_C6_RANGE_RAD_S_M6[1]
            ),
        ),
        lifetime_s=200e-6,
    ),
}


def get_preset(name: str) -> ExperimentPreset:
    """Look up a built-in preset by name."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r} (known: {known})") from None
