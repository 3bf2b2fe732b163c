"""Tests for the center-of-mass / relative-coordinate decomposition."""

import dataclasses

import numpy as np
import pytest

from rydgauge.com_frame import com_scalar_potentials, com_vector_potentials
from rydgauge.gauge import scalar_potential, vector_potential
from rydgauge.model import get_preset

GAETAN = get_preset("gaetan2009")
MASS_A = GAETAN.drive.mass_a_kg
MASS_B = MASS_A * 40.0 / 87.0  # unequal masses expose the cross terms


def _drive(w, mass_b=MASS_B):
    base = GAETAN.drive
    return dataclasses.replace(
        base,
        detuning_rad_s=w * base.rabi_magnitude_rad_s,
        mass_b_kg=mass_b,
    )


def test_com_vector_potential_is_the_plain_sum():
    rng = np.random.default_rng(11)
    vec_a = rng.normal(size=3)
    vec_b = rng.normal(size=3)
    a_com, _ = com_vector_potentials(vec_a, vec_b, MASS_A, MASS_B)
    assert np.array_equal(a_com, vec_a + vec_b)


@pytest.mark.parametrize("label", ["1", "+", "-"])
@pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 50.0])
def test_momentum_variance_identity(label, x):
    # phi is tagged per atom mass, phi_com per total mass, phi_relative per
    # reduced mass; the weighted sum of variances must be frame independent
    drive = _drive(-1.0)
    model = GAETAN.interaction
    phi = scalar_potential(drive, model, label, x)
    com = com_scalar_potentials(drive, model, label, x)
    m_total = MASS_A + MASS_B
    mu = MASS_A * MASS_B / m_total
    lhs = phi / MASS_A + phi / MASS_B
    rhs = com.phi_com / m_total + com.phi_relative / mu
    assert rhs == pytest.approx(lhs, rel=1e-9)


def test_equal_masses_drop_the_phase_cross_term():
    # the relative part carries the phase-gradient contribution damped by
    # ((m_b - m_a)/M)^2, which is exactly phi_com/4 per unit of that factor
    drive = _drive(0.7)
    model = GAETAN.interaction
    x = 0.8
    equal = com_scalar_potentials(drive, model, "+", x, MASS_A, MASS_A)
    mixed = com_scalar_potentials(drive, model, "+", x, MASS_A, MASS_B)
    assert mixed.phi_com == equal.phi_com
    dm = (MASS_B - MASS_A) / (MASS_A + MASS_B)
    expected = equal.phi_relative + dm * dm * mixed.phi_com / 4.0
    assert mixed.phi_relative == pytest.approx(expected, rel=1e-12)


def test_scalar_potentials_are_nonnegative():
    drive = _drive(-1.0)
    model = GAETAN.interaction
    for label in ("1", "+", "-"):
        for x in np.geomspace(0.1, 10.0, 7):
            com = com_scalar_potentials(drive, model, label, float(x))
            assert com.phi_com >= 0.0
            assert com.phi_relative >= 0.0


def test_far_separation_flags_near_degeneracy():
    drive = _drive(0.0)
    com = com_scalar_potentials(drive, GAETAN.interaction, "+", 5000.0)
    assert "near_degenerate" in com.flags


def test_vector_identity_against_gauge_outputs():
    # both atoms see the same connection, so A_R doubles it and A_r picks
    # up only the mass asymmetry
    drive = _drive(-0.5)
    single = vector_potential(drive, GAETAN.interaction, "-", 1.4)
    a_com, a_rel = com_vector_potentials(single, single, MASS_A, MASS_B)
    assert np.array_equal(a_com, 2.0 * single)
    scale = (MASS_B - MASS_A) / (MASS_A + MASS_B)
    assert a_rel == pytest.approx(scale * single, rel=1e-13)


def test_input_validation():
    drive = _drive(0.3)
    with pytest.raises(ValueError, match="label"):
        com_scalar_potentials(drive, GAETAN.interaction, "x", 1.0)
    with pytest.raises(ValueError, match="r_ab"):
        com_scalar_potentials(drive, GAETAN.interaction, "1", 0.0)
    with pytest.raises(ValueError, match="positive"):
        com_scalar_potentials(drive, GAETAN.interaction, "1", 1.0, -1.0, MASS_B)
    with pytest.raises(ValueError, match="positive"):
        com_vector_potentials((0, 0, 1.0), (0, 0, 1.0), -MASS_A, MASS_B)
