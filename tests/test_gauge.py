"""Tests for the geometric gauge potentials and the magnetic field."""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from rydgauge import dense, gauge, spectrum
from rydgauge.com_frame import com_scalar_potentials, com_vector_potentials
from rydgauge.constants import TWOPI
from rydgauge.dynamics import adiabaticity, deflection_scenario
from rydgauge.gauge import (
    connection_profile,
    field_map,
    field_profile,
    magnetic_field,
    scalar_profile,
)
from rydgauge.model import (
    InteractionKind,
    InteractionModel,
    ReducedParameters,
    get_preset,
    reduced_parameters,
)
from rydgauge.regimes import blockade_gauge, effective_hamiltonian, single_atom_gauge
from rydgauge.spectrum import LABEL_INDEX, LABELS, _label_rows

GAETAN = get_preset("gaetan2009")
VDW_ATT = InteractionModel(kind=InteractionKind.VDW, coefficient=-TWOPI * 300e9 * 1e-36)
RDD_REP = InteractionModel(kind=InteractionKind.RDD, coefficient=+TWOPI * 3200e6 * 1e-18)


def _drive(w):
    base = GAETAN.drive
    return dataclasses.replace(base, detuning_rad_s=w * base.rabi_magnitude_rad_s)


# Closed-form values pinned after validating against the dense oracle
# below; keyed (drive detuning ratio, model, x).
FROZEN = [
    (0.0, GAETAN.interaction, 1.0, {
        "1": (-0.35267367313531095, 0.22830225160975401),
        "-": (-0.34719289468391334, 0.226703673652038),
        "+": (-0.80013343218077571, 0.15997266948850911),
    }),
    (-1.0, VDW_ATT, 0.5, {
        "1": (-0.39490095410890841, 0.23895470412178674),
        "-": (-0.10513025124038947, 0.094078042137364204),
        "+": (-0.99996879465070199, 3.184258369719332e-05),
    }),
    (0.0, RDD_REP, 2.0, {
        "1": (-0.53317147061698189, 0.24889986428163555),
        "-": (-0.49612420613708846, 0.24998529336932765),
        "+": (-0.47070432324592981, 0.24914190660295657),
    }),
]


@pytest.mark.parametrize("w,model,x,expected", FROZEN)
def test_frozen_gauge_values(w, model, x, expected):
    reduced = reduced_parameters(_drive(w), model)
    a, phi = connection_profile(x, reduced), scalar_profile(x, reduced)
    for label, (a_ref, phi_ref) in expected.items():
        assert a[LABEL_INDEX[label]] == pytest.approx(a_ref, rel=1e-13)
        assert phi[LABEL_INDEX[label]] == pytest.approx(phi_ref, rel=1e-13)


def _dense_errors(drive, model, labels, x, rabi_phase=0.0):
    """Relative errors of A and phi of the closed form against
    ``dense.gauge_potentials`` at separations x, one label each, with the
    dense Hamiltonian's Omega at phase ``rabi_phase``."""
    reduced = reduced_parameters(drive, model)
    a, phi = dense.gauge_potentials(reduced, x, _label_rows(labels), rabi_phase)
    rows = [LABEL_INDEX[label] for label in labels], np.arange(np.size(x))
    closed_a = connection_profile(x, reduced)[rows]
    closed_phi = scalar_profile(x, reduced)[rows]
    return (np.hypot(a[:, 0], a[:, 1] - closed_a) / np.abs(closed_a),
            np.abs(phi - closed_phi) / closed_phi)


@pytest.mark.parametrize("w", [-2.0, 0.0, 1.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_berry_connection_oracle(w, x):
    """Closed-form A of every label against the dense Berry connection."""
    rel_a, _ = _dense_errors(_drive(w), GAETAN.interaction, np.array(LABELS), np.full(3, x))
    assert rel_a.max() <= 1.2e-13  # measured 1.14e-13 at w = 1, x = 0.1


def test_berry_connection_oracle_vdw():
    rel_a, _ = _dense_errors(_drive(-1.0), VDW_ATT, np.array(["+"]), np.array([0.7]))
    assert rel_a.max() <= 1.5e-15  # measured 1.45e-15


@pytest.mark.parametrize("w,x", [(-2.0, 0.4), (0.0, 1.0), (1.0, 3.0)])
def test_scalar_potential_oracle(w, x):
    _, rel_phi = _dense_errors(_drive(w), GAETAN.interaction, np.array(LABELS), np.full(3, x))
    assert rel_phi.max() <= 2.8e-15  # measured 2.78e-15 at w = 0, x = 1


@pytest.mark.parametrize("rabi_phase", [0.7, 2.5, -3.0])
def test_dense_oracle_holds_at_any_rabi_phase(rabi_phase):
    """arg(Omega) makes eigh's eigenvectors complex, each with a phase of its
    own; the dense A and phi still match the closed forms, which do not
    depend on it."""
    x, labels = np.repeat(np.geomspace(0.1, 10.0, 5), 3), np.array(LABELS * 5)
    worst = 0.0
    for w in (-1.0, 0.0, 2.0):
        rel_a, rel_phi = _dense_errors(_drive(w), GAETAN.interaction, labels, x, rabi_phase)
        worst = max(worst, rel_a.max(), rel_phi.max())
    assert worst <= 1.8e-12  # measured 1.73e-12 at 0.7 rad


# phi's radial part per label on beguin2013 deep in blockade (|u| ~ 1e11-1e12),
# from 60-digit eigenvectors of the bright block differentiated numerically
# (mpmath), at the float64 u, w and kappa of each point; keyed (w, x).
DEEP_BLOCKADE_RADIAL = [
    (-3.0, 0.0101, (1.056979582963043e-24, 5.515540530166626e-26, 1.1075583010701957e-24)),
    (-1.0, 0.01029, (4.1659375220785534e-24, 1.2200172940462039e-24, 5.102483510012628e-24)),
    (0.0, 0.012, (2.3791464667125393e-23, 2.3791464667437957e-23, 4.2295937186278535e-23)),
]


def test_radial_part_of_phi_matches_high_precision_deep_in_blockade():
    """The Hellmann-Feynman couplings keep their digits where the '1' and '-'
    eigenvectors are near-identical functions of x."""
    beguin = get_preset("beguin2013")
    for w, x, reference in DEEP_BLOCKADE_RADIAL:
        drive = dataclasses.replace(beguin.drive, detuning_rad_s=w * beguin.drive.rabi_magnitude_rad_s)
        reduced = reduced_parameters(drive, beguin.interaction)
        _, radial, _ = gauge._scalar_terms(gauge._radial_spectrum(x, reduced), reduced.kappa)
        assert radial == pytest.approx(reference, rel=1e-12, abs=0.0), (w, x)


def _dense_rows_match_single_points(reduced, x, labels, quantity):
    """Every row of ``dense.gauge_potentials``' A (quantity 0) or phi (1)
    over the separations x has the bytes of its one-point call."""
    batch = dense.gauge_potentials(reduced, x, _label_rows(labels))[quantity]
    assert batch.shape[0] == x.size
    for i, (label, r) in enumerate(zip(labels, x)):
        one = dense.gauge_potentials(reduced, float(r), _label_rows(label))[quantity]
        assert batch[i].tobytes() == np.asarray(one).tobytes()


@pytest.mark.parametrize("w", [-1.5, 1.0])
def test_berry_oracle_batch_equals_single_points(w):
    """Separations from 0.05 r_c (the deflated branch of the closed form) to 3 r_c."""
    reduced = reduced_parameters(_drive(w), GAETAN.interaction)
    _dense_rows_match_single_points(reduced, np.geomspace(0.05, 3.0, 12), np.array(LABELS * 4), 0)


@pytest.mark.parametrize("w", [-1.5, 1.0])
def test_scalar_oracle_batch_equals_single_points(w):
    """Both solver branches (0.05 r_c is deflated), every label, one call."""
    reduced = reduced_parameters(_drive(w), VDW_ATT)
    x = np.repeat(np.geomspace(0.05, 20.0, 6), 3)
    _dense_rows_match_single_points(reduced, x, np.array(LABELS * 6), 1)


def test_single_atom_gauge():
    lam = np.hypot(1.0, 3.0)
    a, phi = single_atom_gauge(3.0)  # rows: branch '+', branch '-'
    assert a[0] == pytest.approx(0.5 * (-1.0 + 3.0 / lam), rel=1e-15)
    assert a[1] == pytest.approx(0.5 * (-1.0 - 3.0 / lam), rel=1e-15)
    assert phi.tolist() == [1.0 / (4.0 * lam * lam)] * 2
    # the r -> infinity limit of the pair: label '1' holds both atoms on
    # branch '+', where the drive's uniformity leaves no field
    reduced = reduced_parameters(_drive(3.0), GAETAN.interaction)
    assert connection_profile(1e4, reduced)[0] == pytest.approx(a[0], rel=1e-9)
    assert abs(field_profile(1e4, reduced)[0]) < 1e-12
    rows, _ = single_atom_gauge(np.array([3.0, -1.0, 0.0]))
    assert rows.shape == (2, 3) and rows[0, 0] == a[0]


def test_plateaus_at_zero_detuning():
    reduced = reduced_parameters(_drive(0.0), GAETAN.interaction)
    near = np.sort(connection_profile(0.02, reduced))
    assert near[0] == pytest.approx(-1.0, abs=1e-3)
    assert near[1:] == pytest.approx([-0.25, -0.25], abs=1e-3)
    far = connection_profile(50.0, reduced)
    assert far == pytest.approx([-0.5, -0.5, -0.5], abs=1e-3)


def test_magnetic_field_is_azimuthal():
    drive = _drive(-1.3)
    r_vec = np.array([0.8, 0.3, 0.6])
    e_r = r_vec / np.linalg.norm(r_vec)
    khat = np.array([0.0, 0.0, 1.0])
    b = magnetic_field(drive, GAETAN.interaction, "1", r_vec)
    assert abs(np.dot(b, e_r)) < 1e-10
    assert abs(np.dot(b, khat)) < 1e-10
    assert np.linalg.norm(b) > 1e-3  # nontrivial sample


def test_magnetic_field_parallel_to_the_beam_is_zero():
    # separation along the beam: azimuthal direction degenerates to zero
    along = magnetic_field(_drive(0.0), GAETAN.interaction, "-", np.array([0.0, 0.0, 0.9]))
    assert not along.any()


def test_magnetic_field_divergence_free():
    """div B vanishes: B = f(r) e_r x e_k is built from a gradient."""
    drive = _drive(-0.7)
    point = np.array([0.9, 0.4, 0.5])
    # step large enough that the noise of the inner derivative (~1e-11)
    # does not dominate; Richardson kills the truncation term
    h = 3e-3
    div = 0.0
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = 1.0

        def b_at(s, axis_vec=step):
            return magnetic_field(
                drive, GAETAN.interaction, "+", point + s * axis_vec
            )[axis]

        d1 = (b_at(h) - b_at(-h)) / (2.0 * h)
        d2 = (b_at(h / 2) - b_at(-h / 2)) / h
        div += (4.0 * d2 - d1) / 3.0
    assert abs(div) < 1e-7  # |B| is ~0.3 here; the floor is FD truncation


@pytest.mark.parametrize("preset, x", [("gaetan2009", 0.79378), ("beguin2013", 0.89095)])
def test_field_matches_difference_of_connection(preset, x):
    """Closed-form B against a Richardson difference of A at sharp minima.

    The label "-" minima at w = -40 sit on the antiblockade resonance,
    where B changes fastest, so an error in the derivative shows here first.
    """
    exp = get_preset(preset)
    drive = dataclasses.replace(exp.drive, detuning_rad_s=-40.0 * exp.drive.rabi_magnitude_rad_s)
    reduced = reduced_parameters(drive, exp.interaction)
    h = 1e-5 * x

    def a_at(q):
        return connection_profile(q, reduced)[1]

    d1 = (a_at(x + h) - a_at(x - h)) / (2.0 * h)
    d2 = (a_at(x + h / 2) - a_at(x - h / 2)) / h
    assert field_profile(x, reduced)[1] == pytest.approx((4.0 * d2 - d1) / 3.0, rel=1e-3)


def _reduced_at(preset, w):
    exp = get_preset(preset)
    drive = dataclasses.replace(exp.drive, detuning_rad_s=w * exp.drive.rabi_magnitude_rad_s)
    return reduced_parameters(drive, exp.interaction)


@pytest.mark.parametrize("preset", ["gaetan2009", "beguin2013"])
@pytest.mark.parametrize("w", [-40.0, -3.0, -1.0, 0.0, 1.0, 3.0])
def test_field_slope_matches_central_differences(preset, w):
    """Closed-form dB/dx against a central difference of B, h = 1e-6·x."""
    reduced = _reduced_at(preset, w)
    x = np.geomspace(0.05, 10.0, 200)
    spec, slope = gauge._field_slope(x, reduced)
    assert np.array_equal(spec.da_dx, field_profile(x, reduced))  # B bit for bit
    h = 1e-6 * x
    fd = (field_profile(x + h, reduced) - field_profile(x - h, reduced)) / (2.0 * h)
    # the difference's truncation h^2 B'''/6 grows with |w| as the crossings at
    # u = w and u = 2w sharpen: at most 6.5e-9 for |w| <= 3 and 1.8e-8 at w = -40
    tol = 1e-8 if abs(w) <= 3.0 else 4e-8
    assert np.max(np.abs(slope - fd)) <= tol * np.max(np.abs(slope))


# dB/dx per label ("1", "-", "+") 0.1% off the defective line u = 2w, where
# the central difference above does not resolve B: 60-digit mpmath (the
# cubic's roots Newton-polished, a(x) in closed form, mp.diff twice)
SLOPES_NEAR_LINE = [
    ("gaetan2009", -3.0, 0.8085688273,
     (-3.5929445035530049974, 797.69547347552731489, -794.1025289719743099)),
    ("gaetan2009", -40.0, 0.7945769648,
     (-0.042171918192911737777, 25198.344508027759007, -25198.302336109566095)),
    ("beguin2013", -3.0, 0.8996540425,
     (-12.332432145118926609, 3633.8223904722951569, -3621.4899583271762303)),
    ("beguin2013", -40.0, 0.8918360509,
     (-0.14130390338906210451, 5118.5195699615169309, -5118.3782660581278688)),
]


@pytest.mark.parametrize("preset, w, x, expected", SLOPES_NEAR_LINE)
def test_field_slope_near_the_defective_line(preset, w, x, expected):
    _, slope = gauge._field_slope(x, _reduced_at(preset, w))
    assert slope == pytest.approx(expected, rel=1e-9, abs=0.0)  # measured <= 6.7e-11


def _closed_connection(u, w):
    """Closed-form a and da/du at (u, w), rows per LABELS: the radial spectrum
    at x = 1 of a reduced set whose shift ratio is u / x."""
    reduced = ReducedParameters(w, np.abs(u), np.sign(u), 1, 1.0)
    spec = gauge._radial_spectrum(np.ones(np.shape(u)), reduced)
    return spec.connection.T, (spec.da_dx / spec.du_dx).T


def _dense_connection(u, w, phase_a=0.0, rabi_phase=0.0):
    """(a, da/du) per bright label from the dense oracle, shape (..., 3):
    a = -P_a, minus the probability that atom a is excited, and

        da_i/du = -2 Re sum_j <i|Pi_a|j><j|ee><ee|i> / (E_i - E_j)

    over the other bright states j; the dark state has <dark|ee> = 0."""
    energies, vectors, h = dense.eigensystem(u, w, phase_a, rabi_phase)
    radial, _ = dense.couplings(energies, vectors, h)
    excited = vectors[..., :2, :3]  # the bright states' amplitudes with atom a excited
    p_a = np.sum(np.abs(excited) ** 2, axis=-2)
    pi_a = excited.conj().swapaxes(-1, -2) @ excited  # [i, j]: <i|Pi_a|j>
    terms = (pi_a * radial[..., :3, :3].swapaxes(-1, -2)).real
    return -p_a, -2.0 * np.sum(terms, axis=-1)


def test_connection_and_its_slope_match_the_dense_oracle_at_seeded_random_draws():
    """a = -P_a and da/du at 10,000 seeded uniform draws of |u| <= 100,
    |w| <= 5 and both phases.  The bounds are these draws': the closed-form
    '-' row loses digits nearer u = 2w (LINE_BOUNDS below)."""
    rng = np.random.default_rng(20260819)
    w = rng.uniform(-5.0, 5.0, size=10_000)
    u = rng.uniform(-100.0, 100.0, size=w.size)
    rabi_phase, phase_a = rng.uniform(0.0, TWOPI, size=(w.size, 2)).T
    a, da_du = _closed_connection(u, w)
    dense_a, dense_da_du = _dense_connection(u, w, phase_a, rabi_phase)
    assert np.max(np.abs(a - dense_a)) <= 6.4e-13
    assert np.max(np.abs(da_du - dense_da_du) / np.abs(dense_da_du)) <= 4.5e-11


# worst |a| error and da/du relative error over u/2w - 1 = +-offset, the
# closed form against the dense oracle: the near-line loss of the closed form
LINE_BOUNDS = [
    (-10.0, 1e-3, 1.1e-11, 8.4e-12), (-10.0, 1e-6, 1.6e-8, 1.6e-8), (-10.0, 1e-9, 1.5e-5, 1.5e-5),
    (-40.0, 1e-3, 6.4e-12, 1.7e-10), (-40.0, 1e-6, 2.6e-7, 2.6e-7), (-40.0, 1e-9, 2.3e-4, 2.3e-4),
    (-160.0, 1e-3, 3.8e-13, 2.8e-9), (-160.0, 1e-6, 4.9e-6, 5.6e-6), (-160.0, 1e-9, 3.6e-3, 3.6e-3),
]


@pytest.mark.parametrize("w, offset, a_bound, slope_bound", LINE_BOUNDS)
def test_connection_and_its_slope_near_the_defective_line(w, offset, a_bound, slope_bound):
    u = 2.0 * w * (1.0 + np.array([offset, -offset]))
    a, da_du = _closed_connection(u, np.full(2, w))
    dense_a, dense_da_du = _dense_connection(u, w)
    assert np.max(np.abs(a - dense_a)) <= a_bound
    assert np.max(np.abs(da_du - dense_da_du) / np.abs(dense_da_du)) <= slope_bound


def test_connection_symmetry_is_bitwise():
    """A^1(V, delta) = A^+(-V, -delta), exact to the last bit."""
    xs = np.geomspace(0.2, 4.0, 9)
    fwd = connection_profile(xs, reduced_parameters(_drive(-1.3), GAETAN.interaction))
    rev = connection_profile(xs, reduced_parameters(_drive(1.3), RDD_REP))
    assert np.array_equal(fwd[0], rev[2])
    assert np.array_equal(fwd[1], rev[1])


def test_profiles_vectorize_consistently():
    reduced = reduced_parameters(_drive(0.5), GAETAN.interaction)
    xs = np.array([0.3, 0.9, 2.7])
    batch = scalar_profile(xs, reduced)
    for j, x in enumerate(xs):
        single = scalar_profile(x, reduced)
        assert np.allclose(batch[:, j], single, rtol=1e-14)
    batch_b = field_profile(xs, reduced)
    assert batch_b.shape == (3, 3)


def test_field_map_grid_handling():
    drive = _drive(0.0)
    grid = np.array([-1.0, 0.0, 1.0])
    result = field_map(drive, GAETAN.interaction, "1", grid, grid)
    assert (0.0, 0.0) in result.skipped
    assert result.positions.shape == (8, 2)
    assert result.field.shape == (8, 3)
    for (x, z), b in zip(result.positions, result.field):
        assert b[0] == b[2] == 0.0  # azimuthal: only the y component survives
        if x == 0.0:  # separation parallel to the beam
            assert b[1] == 0.0


def test_field_map_rows_match_single_points(solves):
    """The grid is one batch whose rows are the one-point fields bit for bit.

    At w = -1 the points at r = 0.15 have |u| ~ 419, on the Newton
    deflation branch, and the rest of the grid is on the trigonometric one.
    """
    drive = _drive(-1.0)
    x_grid = np.array([-0.15, 0.0, 0.15, 0.6, 2.0])
    z_grid = np.array([-0.15, 0.0, 0.15, 1.1])
    result = field_map(drive, GAETAN.interaction, "+", x_grid, z_grid)
    assert solves == [19]
    assert result.skipped == ((0.0, 0.0),)
    expected = [[x, z] for x in x_grid for z in z_grid if (x, z) != (0.0, 0.0)]
    assert result.positions.tolist() == expected
    for (x, z), b in zip(result.positions, result.field):
        one = magnetic_field(drive, GAETAN.interaction, "+", (x, 0.0, z))
        assert b.tobytes() == one.tobytes(), (x, z)


def test_field_map_empty_and_origin_only_grids():
    drive = _drive(-1.0)
    empty = field_map(drive, GAETAN.interaction, "1", [], [])
    assert empty.positions.shape == (0, 2)
    assert empty.field.shape == (0, 3)
    assert empty.skipped == ()
    origin = field_map(drive, GAETAN.interaction, "1", [0.0], [0.0])
    assert origin.field.shape == (0, 3)
    assert origin.skipped == ((0.0, 0.0),)


def test_input_validation():
    drive = _drive(0.0)
    # every check comes before the solve: no overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="label"):
            magnetic_field(drive, GAETAN.interaction, "2", (1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="r_vec"):
            magnetic_field(drive, GAETAN.interaction, "1", (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="shape"):
            magnetic_field(drive, GAETAN.interaction, "1", (1.0, 0.0))


_NAN, _INF = float("nan"), float("inf")
_PAIR = (_drive(0.0), GAETAN.interaction)
_REDUCED = reduced_parameters(*_PAIR)
_FLYBY = deflection_scenario()


@pytest.mark.parametrize("call, quantity", [
    (lambda: scalar_profile(_INF, _REDUCED), "x_over_rc"),
    (lambda: scalar_profile(_NAN, _REDUCED), "x_over_rc"),
    (lambda: connection_profile(_INF, _REDUCED), "x_over_rc"),
    (lambda: magnetic_field(*_PAIR, "1", [_INF, 0.0, 0.0]), "r_vec"),
    (lambda: magnetic_field(*_PAIR, "1", [[1.0, 0.0, 0.0], [_NAN, 0.0, 0.0]]), "r_vec"),
    (lambda: com_scalar_potentials(*_PAIR, _INF), "r_ab"),
    (lambda: com_vector_potentials([0, 0, 1.0], [0, 0, 1.0], 1.0, -1.0), "masses"),
    (lambda: com_vector_potentials([0, 0, 1.0], [0, 0, 1.0], -1.0, 2.0), "masses"),
    (lambda: com_vector_potentials([0, 0, 1.0], [0, 0, 1.0], _INF, 1.0), "masses"),
    (lambda: blockade_gauge(_INF, reduced_parameters(*_PAIR)), "separations"),
    (lambda: blockade_gauge(np.array([0.1, _NAN]), reduced_parameters(*_PAIR)), "separations"),
    (lambda: effective_hamiltonian(_INF, 0.0), "u and w"),
    (lambda: connection_profile(-1.0, _REDUCED), "x_over_rc"),
    (lambda: scalar_profile(0.0, _REDUCED), "x_over_rc"),
    (lambda: field_profile(np.array([1.0, 0.0]), _REDUCED), "x_over_rc"),
    (lambda: field_profile(_NAN, _REDUCED), "x_over_rc"),
    (lambda: scalar_profile(np.array([[0.5], [-_INF]]), _REDUCED), "x_over_rc"),
    (lambda: com_scalar_potentials(*_PAIR, np.array([1.0, _NAN])), "r_ab"),
    (lambda: adiabaticity(_FLYBY, [[1e-6, 0.0, 0.0], [_NAN, 0.0, 0.0]], np.zeros((2, 3))),
     "position_m"),
    (lambda: adiabaticity(_FLYBY, [0.0, 0.0, 0.0], [0.1, 0.0, 0.0]), "position_m"),
    (lambda: adiabaticity(_FLYBY, [1e-6, 0.0], [0.1, 0.0]), "position_m"),
    (lambda: adiabaticity(_FLYBY, [1e-6, 0.0, 0.0], [_INF, 0.0, 0.0]), "velocity_m_s"),
    (lambda: adiabaticity(_FLYBY, [1e-6, 0.0, 0.0], [[0.1, 0.0, 0.0]]), "velocity_m_s"),
], ids=[
    "scalar-inf", "scalar-nan", "vector-inf", "field-inf", "field-nan-row", "com-scalar-inf",
    "com-vector-zero-total-mass", "com-vector-negative-mass",
    "com-vector-inf-mass", "blockade-inf", "blockade-nan", "effective-inf-u",
    "connection-negative", "scalar-zero", "field-zero-row", "field-nan", "scalar-minus-inf-row",
    "com-scalar-nan-row", "adiabaticity-nan-row", "adiabaticity-origin", "adiabaticity-shape",
    "adiabaticity-inf-velocity", "adiabaticity-velocity-shape",
])
def test_non_finite_inputs_raise_naming_the_quantity(call, quantity):
    """No NaN and no wrong error: each bad input names itself."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=quantity):
            call()


def _gauge_outputs(x, reduced):
    """dB/dx, the scalar potential and the three pair amplitudes at x."""
    spec, slope = gauge._field_slope(x, reduced)
    return [np.asarray(v) for v in (slope, spec.scalar(reduced.kappa),
                                    *gauge._pair_amplitudes(spec))]


def _at_shift_ratios(u, w):
    """Parameters whose shift ratio at x = 1 is u itself, point by point."""
    u = np.asarray(u, dtype=float)
    return ReducedParameters(np.asarray(w, dtype=float), np.abs(u), np.sign(u), 3, 1.7)


def _fallback_batches():
    """(x, reduced, alone) batches whose points take each masked path of the
    solve; ``alone(k)`` gives point k's own x and parameters.

    Non-finite shift ratios (u = +-inf, NaN; x = 0 and NaN), u overflowing
    on vdW (x = 1e-110), the defective point u = 2w = 0 (x = inf at w = 0)
    and points on u = 2w, batches on both sides of the half-plane map
    (both signs of w, or of u at w = 0), both solver branches, and rows
    whose ground amplitude takes the direct form.  In the last two batches a
    pair coupling c, then a pair's phase overlap 1 + gg_i gg_j, has
    pow(c, 2) != c * c, which a numpy scalar's ``** 2`` would give the
    point alone, and phi shows it.
    """
    u = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 0.3, -0.3, 2.0, -2.0, 150.0, -150.0,
                  1e160, -1e160])
    w = np.array([0.0, -1.0, 0.5, -3.0, 3.0, -0.0])
    u, w = (a.ravel() for a in np.meshgrid(u, w))
    line = np.array([-3.0, -1.0, -0.5, 0.5, 1.0, 3.0])
    u, w = np.concatenate([u, 2.0 * line, [2.0, -2.0]]), np.concatenate([w, line, [1.0, -1.0]])
    yield 1.0, _at_shift_ratios(u, w), lambda k: (1.0, _at_shift_ratios(u[k], w[k]))
    vdw = dataclasses.replace(GAETAN.interaction, kind=InteractionKind.VDW)
    for model, w, x in ((vdw, -1.0, [1e-110, 1e-60, 1e-40, 0.01, 0.5, 1.0, 3.0, np.inf]),
                        (GAETAN.interaction, 0.0,
                         [np.nan, -2.0, -0.5, 0.0, 0.5, 1.0, 2.0, np.inf]),
                        (GAETAN.interaction, 0.3,
                         [0.06008862400353537, 1.9192641500282297, 3.060275142039819]),
                        (GAETAN.interaction, 0.3,
                         [0.2979661303129228, 0.7710695705218847, 1.7019362046503588])):
        reduced, x = reduced_parameters(_drive(w), model), np.array(x)
        yield x, reduced, lambda k, x=x, reduced=reduced: (x[k], reduced)


# SHA-256 of the bytes of test_slopes_couplings_and_fallbacks_keep_their_bytes,
# beside test_spectrum's _SOLVE_DIGEST: the masked fallbacks of the solve
# and what gauge builds on it keep every bit through a rewrite for speed
_FALLBACK_DIGEST = "44563354066649a2194887000bb9f1749b65f2062af28a25729e580cd8123532"


def test_slopes_couplings_and_fallbacks_keep_their_bytes():
    """dB/dx, phi and the pair amplitudes over the _SOLVE_DIGEST grid, then
    over batches whose points take the masked paths; each of those points
    gives the same bytes alone as inside its batch."""
    digest = hashlib.sha256()
    x = np.geomspace(0.01, 20.0, 97)
    for name in ("gaetan2009", "beguin2013"):
        preset = get_preset(name)
        for w in (-3.0, -1.0, -0.0, 0.0, 0.3, 3.0):
            drive = dataclasses.replace(
                preset.drive, detuning_rad_s=w * preset.drive.rabi_magnitude_rad_s
            )
            reduced = reduced_parameters(drive, preset.interaction)
            for xs in (x, *x[::8].tolist()):
                for value in _gauge_outputs(xs, reduced):
                    digest.update(value.tobytes())
    with np.errstate(all="ignore"):
        for x, reduced, alone in _fallback_batches():
            batch = _gauge_outputs(x, reduced)
            for value in batch:
                digest.update(value.tobytes())
            for k in range(batch[0].shape[-1]):
                one = [value.tobytes() for value in _gauge_outputs(*alone(k))]
                assert [value[..., k].tobytes() for value in batch] == one, k
    # two masked paths no input above reaches: a Newton step where the
    # derivative vanishes (e = 0 at u = 2, w = 1, where c = uw - w^2 - 1 = 0)
    # and two equal energies, set by hand on the first point
    u, w = np.array([2.0, 2.0]), np.array([1.0, 1.0])
    roots = np.array([[0.0, 0.3], [1.0, 1.0], [-1.0, -1.0]])
    polished = spectrum._polish(roots, u, w)
    digest.update(polished.tobytes())
    for k in range(2):
        assert spectrum._polish(roots[:, k], u[k], w[k]).tobytes() == polished[:, k].tobytes()
    spec = gauge._radial_spectrum(np.array([0.7, 1.3]), reduced_parameters(_drive(-1.0), VDW_ATT))
    energies = spec.energies.copy()
    energies[1, 0] = energies[0, 0]
    spec = dataclasses.replace(spec, energies=energies)
    batch = [spec.scalar(1.7), *gauge._pair_amplitudes(spec)]
    for value in batch:
        digest.update(value.tobytes())
    for k in range(2):
        one = gauge._RadialSpectrum(**{field.name: getattr(spec, field.name)[..., k]
                                       for field in dataclasses.fields(spec)})
        assert [value[..., k].tobytes() for value in batch] == [
            np.asarray(value).tobytes() for value in (one.scalar(1.7), *gauge._pair_amplitudes(one))]
    assert digest.hexdigest() == _FALLBACK_DIGEST
