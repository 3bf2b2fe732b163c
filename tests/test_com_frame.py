"""Tests for the center-of-mass / relative-coordinate decomposition."""

import dataclasses

import numpy as np
import pytest

from rydgauge.com_frame import com_scalar_potentials, com_vector_potentials
from rydgauge.gauge import connection_profile, scalar_profile
from rydgauge.model import get_preset, reduced_parameters
from rydgauge.spectrum import LABEL_INDEX

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
    row = LABEL_INDEX[label]
    phi = scalar_profile(x, reduced_parameters(drive, model))[row]
    com = com_scalar_potentials(drive, model, x)
    m_total = MASS_A + MASS_B
    mu = MASS_A * MASS_B / m_total
    lhs = phi / MASS_A + phi / MASS_B
    rhs = com.phi_com[row] / m_total + com.phi_relative[row] / mu
    assert rhs == pytest.approx(lhs, rel=1e-9)


def test_equal_masses_drop_the_phase_cross_term():
    # the relative part carries the phase-gradient contribution damped by
    # ((m_b - m_a)/M)^2, which is exactly phi_com/4 per unit of that factor
    model = GAETAN.interaction
    x = np.array([0.8, 2.0])
    equal = com_scalar_potentials(_drive(0.7, mass_b=MASS_A), model, x)
    mixed = com_scalar_potentials(_drive(0.7), model, x)
    assert np.array_equal(mixed.phi_com, equal.phi_com)
    dm = (MASS_B - MASS_A) / (MASS_A + MASS_B)
    expected = equal.phi_relative + dm * dm * mixed.phi_com / 4.0
    assert mixed.phi_relative == pytest.approx(expected, rel=1e-12)


def test_scalar_potentials_are_nonnegative():
    com = com_scalar_potentials(_drive(-1.0), GAETAN.interaction, np.geomspace(0.1, 10.0, 7))
    assert com.phi_com.shape == com.phi_relative.shape == (3, 7)
    assert np.all(com.phi_com >= 0.0)
    assert np.all(com.phi_relative >= 0.0)


def test_batch_rows_are_the_single_points():
    drive = _drive(0.4)
    x = np.geomspace(0.05, 20.0, 9)
    batch = com_scalar_potentials(drive, GAETAN.interaction, x)
    for j, xj in enumerate(x):
        one = com_scalar_potentials(drive, GAETAN.interaction, float(xj))
        assert one.phi_com.shape == (3,) and one.near_degenerate.shape == ()
        assert batch.phi_com[:, j].tobytes() == one.phi_com.tobytes()
        assert batch.phi_relative[:, j].tobytes() == one.phi_relative.tobytes()
        assert batch.near_degenerate[j] == one.near_degenerate


def test_far_separation_flags_near_degeneracy():
    # far out the '-' level collides with the dark zero
    drive = _drive(0.0)
    com = com_scalar_potentials(drive, GAETAN.interaction, np.array([1.2, 5000.0]))
    assert com.near_degenerate.tolist() == [False, True]


def test_vector_identity_against_gauge_outputs():
    # both atoms see the same connection, so A_R doubles it and A_r picks
    # up only the mass asymmetry
    drive = _drive(-0.5)
    a = connection_profile(1.4, reduced_parameters(drive, GAETAN.interaction))[LABEL_INDEX["-"]]
    single = a * np.asarray(drive.wavevector_direction, dtype=float)
    a_com, a_rel = com_vector_potentials(single, single, MASS_A, MASS_B)
    assert np.array_equal(a_com, 2.0 * single)
    scale = (MASS_B - MASS_A) / (MASS_A + MASS_B)
    assert a_rel == pytest.approx(scale * single, rel=1e-13)


def test_input_validation():
    drive = _drive(0.3)
    with pytest.raises(ValueError, match="r_ab"):
        com_scalar_potentials(drive, GAETAN.interaction, 0.0)
    with pytest.raises(ValueError, match="r_ab"):
        com_scalar_potentials(drive, GAETAN.interaction, np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="positive"):
        com_vector_potentials((0, 0, 1.0), (0, 0, 1.0), -MASS_A, MASS_B)
