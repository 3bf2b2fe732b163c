"""Tests for the experiment-level model layer."""

import dataclasses
import math

import pytest

from rydgauge.constants import BOLTZMANN, HBAR, TWOPI
from rydgauge.model import (
    DriveParams,
    InteractionKind,
    InteractionModel,
    ModelUnits,
    characteristic_field,
    crossover_distance,
    generalized_rabi,
    get_preset,
    reduced_parameters,
)

GAETAN = get_preset("gaetan2009")


def test_interaction_power_law():
    rdd = InteractionModel(kind=InteractionKind.RDD, coefficient=-2.0e-12)
    vdw = InteractionModel(kind=InteractionKind.VDW, coefficient=3.0e-40)
    assert rdd.power == 3 and vdw.power == 6
    assert rdd.sign == -1.0 and vdw.sign == 1.0
    # doubling the distance divides the shift by 2**power
    for model in (rdd, vdw):
        reduced = reduced_parameters(GAETAN.drive, model)
        ratio = reduced.shift_ratio(1.0) / reduced.shift_ratio(2.0)
        assert ratio == pytest.approx(2.0**model.power, rel=1e-12)


def test_interaction_coefficient_must_be_nonzero():
    with pytest.raises(ValueError):
        InteractionModel(kind=InteractionKind.RDD, coefficient=0.0)


def test_generalized_rabi_is_hypot():
    drive = GAETAN.drive
    assert generalized_rabi(drive) == drive.rabi_magnitude_rad_s
    detuned = DriveParams(
        rabi_magnitude_rad_s=drive.rabi_magnitude_rad_s,
        detuning_rad_s=-2.0 * drive.rabi_magnitude_rad_s,
        wavenumber_rad_m=drive.wavenumber_rad_m,
        mass_a_kg=drive.mass_a_kg,
        mass_b_kg=drive.mass_b_kg,
    )
    assert generalized_rabi(detuned) == pytest.approx(
        math.sqrt(5.0) * drive.rabi_magnitude_rad_s, rel=1e-15
    )


def test_drive_validation():
    drive = GAETAN.drive
    with pytest.raises(ValueError):
        DriveParams(
            rabi_magnitude_rad_s=-1.0,
            detuning_rad_s=0.0,
            wavenumber_rad_m=drive.wavenumber_rad_m,
            mass_a_kg=drive.mass_a_kg,
            mass_b_kg=drive.mass_b_kg,
        )
    for field in ("rabi_magnitude_rad_s", "detuning_rad_s", "wavenumber_rad_m",
                  "mass_a_kg", "mass_b_kg"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                dataclasses.replace(drive, **{field: bad})
    # com_frame takes the masses from here, so a non-positive one stops at the drive
    for field in ("mass_a_kg", "mass_b_kg"):
        for bad in (0.0, -drive.mass_a_kg):
            with pytest.raises(ValueError, match="atomic masses must be positive"):
                dataclasses.replace(drive, **{field: bad})


def test_gaetan_scales():
    """Crossover distance and field scale of the RDD reference experiment."""
    units = ModelUnits.from_experiment(GAETAN.drive, GAETAN.interaction)
    assert units.length_m == pytest.approx(7.8960921349942906e-06, rel=1e-12, abs=0)
    assert units.field_T == pytest.approx(0.0017694639424182391, rel=1e-12)
    # recoil-like scalar unit for Rb-87 at 296 nm, in kelvin
    assert units.scalar_a_J / BOLTZMANN == pytest.approx(1.2562e-6, rel=1e-3)


def test_crossover_uses_generalized_rabi():
    drive = GAETAN.drive
    detuned = DriveParams(
        rabi_magnitude_rad_s=drive.rabi_magnitude_rad_s,
        detuning_rad_s=-drive.rabi_magnitude_rad_s,
        wavenumber_rad_m=drive.wavenumber_rad_m,
        mass_a_kg=drive.mass_a_kg,
        mass_b_kg=drive.mass_b_kg,
    )
    r0 = crossover_distance(GAETAN.interaction, drive)
    r1 = crossover_distance(GAETAN.interaction, detuned)
    assert r1 == pytest.approx(r0 / 2.0 ** (1.0 / 6.0), rel=1e-12, abs=0)
    # |V(r_c)| = sqrt(|Omega|^2 + delta^2) by construction
    shift = GAETAN.interaction.coefficient / r1**GAETAN.interaction.power
    assert abs(shift) == pytest.approx(generalized_rabi(detuned), rel=1e-12)


def test_reduced_shift_ratio():
    reduced = reduced_parameters(GAETAN.drive, GAETAN.interaction)
    assert reduced.interaction_sign == -1.0
    assert reduced.power == 3
    assert reduced.shift_ratio(1.0) == pytest.approx(-1.0, rel=1e-12)
    assert reduced.shift_ratio(2.0) == pytest.approx(-0.125, rel=1e-12)
    assert reduced.kappa == pytest.approx(167.61016921193385, rel=1e-12)


def test_characteristic_field_formula():
    drive = GAETAN.drive
    b0 = characteristic_field(drive, 8e-6)
    assert b0 == pytest.approx(
        HBAR * drive.wavenumber_rad_m / (1.602176634e-19 * 8e-6), rel=1e-12, abs=0
    )


def test_presets():
    assert GAETAN.interaction.kind is InteractionKind.RDD
    assert GAETAN.interaction.sign == -1.0
    assert GAETAN.drive.rabi_magnitude_rad_s == pytest.approx(TWOPI * 6.5e6)
    beguin = get_preset("beguin2013")
    assert beguin.interaction.kind is InteractionKind.VDW
    assert beguin.lifetime_s == pytest.approx(200e-6)
    with pytest.raises(ValueError, match="unknown preset"):
        get_preset("nope")
