"""Tests for the geometric gauge potentials and the magnetic field."""

import dataclasses
import warnings

import numpy as np
import pytest

from rydgauge import gauge
from rydgauge.com_frame import com_scalar_potentials, com_vector_potentials
from rydgauge.constants import TWOPI
from rydgauge.gauge import (
    adiabaticity_fd,
    berry_connection_fd,
    connection_profile,
    field_map,
    field_profile,
    magnetic_field,
    scalar_potential_fd,
    scalar_profile,
)
from rydgauge.model import (
    InteractionKind,
    InteractionModel,
    get_preset,
    reduced_parameters,
)
from rydgauge.regimes import blockade_gauge, effective_hamiltonian, single_atom_gauge
from rydgauge.spectrum import LABEL_INDEX, LABELS

GAETAN = get_preset("gaetan2009")
VDW_ATT = InteractionModel(kind=InteractionKind.VDW, coefficient=-TWOPI * 300e9 * 1e-36)
RDD_REP = InteractionModel(kind=InteractionKind.RDD, coefficient=+TWOPI * 3200e6 * 1e-18)


def _drive(w):
    base = GAETAN.drive
    return dataclasses.replace(base, detuning_rad_s=w * base.rabi_magnitude_rad_s)


def _vector(drive, model, label, x):
    """The closed-form vector potential a(x)·e_k of one label."""
    a = connection_profile(x, reduced_parameters(drive, model))[LABEL_INDEX[label]]
    return a * np.asarray(drive.wavevector_direction, dtype=float)


# Closed-form values pinned after validating against the finite-difference
# oracles below; keyed (drive detuning ratio, model, x).
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


@pytest.mark.parametrize("w", [-2.0, 0.0, 1.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_berry_connection_oracle(w, x):
    """Closed form against i<chi|grad chi> finite differences."""
    drive = _drive(w)
    for label in LABELS:
        closed = _vector(drive, GAETAN.interaction, label, x)
        fd = berry_connection_fd(drive, GAETAN.interaction, label, (x, 0, 0))
        assert not fd.gauge_discontinuity
        assert np.linalg.norm(fd.vector - closed) < 1e-6 * np.linalg.norm(closed)
        assert fd.imag_residual < 1e-6


def test_berry_connection_oracle_vdw():
    drive = _drive(-1.0)
    closed = _vector(drive, VDW_ATT, "+", 0.7)
    fd = berry_connection_fd(drive, VDW_ATT, "+", (0.0, 0.7, 0.0))
    assert np.linalg.norm(fd.vector - closed) < 1e-6 * np.linalg.norm(closed)


@pytest.mark.parametrize("w,x", [(-2.0, 0.4), (0.0, 1.0), (1.0, 3.0)])
def test_scalar_potential_oracle(w, x):
    drive = _drive(w)
    closed = scalar_profile(x, reduced_parameters(drive, GAETAN.interaction))
    for label in LABELS:
        fd = scalar_potential_fd(drive, GAETAN.interaction, label, x)
        assert fd == pytest.approx(closed[LABEL_INDEX[label]], rel=1e-6)


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


def _counting(monkeypatch, module, name):
    """Wrap module.name so each call is recorded; return the record."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("w", [-1.5, 1.0])
@pytest.mark.parametrize("step", [1e-6, 3e-3, 1e-2])
def test_berry_oracle_batch_equals_single_points(monkeypatch, w, step):
    """Every sample of a batched call has the bytes of its one-point call.

    Separations from 0.05 to 3 r_c reach both solver branches.  The laser
    phase turns the eigenvectors quickly along the beam (kappa ~ 150), so
    at 3e-3 r_c some components halve their step while others keep it,
    and at 1e-2 r_c some samples stay flagged after four attempts.
    """
    drive = _drive(w)
    rng = np.random.default_rng(11)
    direction = rng.normal(size=(12, 3))
    r_vec = direction / np.linalg.norm(direction, axis=1)[:, None]
    r_vec *= np.geomspace(0.05, 3.0, 12)[:, None]
    labels = np.array(LABELS * 4)
    calls = _counting(monkeypatch, gauge, "bare_state_vector")
    batch = berry_connection_fd(drive, GAETAN.interaction, labels, r_vec, step=step)
    halvings = (len(calls) - 5) // 2  # centre, +-h and +-h/2, plus one +-h pair per retry
    assert batch.vector.shape == (12, 3)
    for i, (label, r) in enumerate(zip(labels, r_vec)):
        one = berry_connection_fd(drive, GAETAN.interaction, label, r, step=step)
        assert batch.vector[i].tobytes() == one.vector.tobytes()
        assert batch.imag_residual[i].tobytes() == one.imag_residual.tobytes()
        assert batch.gauge_discontinuity[i] == one.gauge_discontinuity
    if step == 1e-6:
        assert halvings == 0 and not batch.gauge_discontinuity.any()
    elif step == 3e-3:
        assert halvings > 0 and not batch.gauge_discontinuity.any()
    else:
        assert 0 < batch.gauge_discontinuity.sum() < 12


def test_overlap_squares_have_the_bits_of_abs_vdot_squared():
    rng = np.random.default_rng(2)
    bra, ket = rng.normal(size=(2, 200, 4)) + 1j * rng.normal(size=(2, 200, 4))
    ket *= np.geomspace(1e-8, 1e8, 200)[:, None]
    batch = gauge._overlap_sq(bra, ket)
    for i in range(200):
        assert batch[i].tobytes() == (abs(np.vdot(bra[i], ket[i])) ** 2).tobytes()


@pytest.mark.parametrize("w", [-1.5, 1.0])
def test_scalar_oracle_batch_equals_single_points(w):
    """Both solver branches (0.05 r_c is deflated), every label, one call."""
    drive = _drive(w)
    x = np.repeat(np.geomspace(0.05, 20.0, 6), 3)
    labels = np.array(LABELS * 6)
    batch = scalar_potential_fd(drive, VDW_ATT, labels, x)
    assert batch.shape == x.shape
    for i, (label, r) in enumerate(zip(labels, x)):
        one = scalar_potential_fd(drive, VDW_ATT, label, float(r))
        assert batch[i].tobytes() == np.float64(one).tobytes()


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
    tilted = dataclasses.replace(drive, wavevector_direction=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="beam"):
        field_map(tilted, GAETAN.interaction, "1", grid, grid)


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
    (lambda: scalar_potential_fd(*_PAIR, "1", _INF), "r_ab"),
    (lambda: scalar_potential_fd(*_PAIR, "1", np.array([1.0, _NAN])), "r_ab"),
    (lambda: berry_connection_fd(*_PAIR, "1", [_INF, 0.0, 0.0]), "r_vec"),
    (lambda: berry_connection_fd(*_PAIR, "1", [[1.0, 0.0, 0.0], [_NAN, 0.0, 0.0]]), "r_vec"),
    (lambda: berry_connection_fd(*_PAIR, "1", [0.0, 0.0, 0.0]), "r_vec"),
    (lambda: adiabaticity_fd(*_PAIR, "1", [_NAN, 0.0, 1.0], [0.0, 0.0, 1.0]), "r_vec"),
    (lambda: adiabaticity_fd(*_PAIR, "1", [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]), "r_vec"),
    (lambda: adiabaticity_fd(*_PAIR, "1", [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]), "velocity"),
    (lambda: adiabaticity_fd(*_PAIR, "1", [1.0, 0.0, 0.0], [_INF, 0.0, 0.0]), "velocity"),
], ids=[
    "scalar-inf", "scalar-nan", "vector-inf", "field-inf", "field-nan-row", "com-scalar-inf",
    "com-vector-zero-total-mass", "com-vector-negative-mass",
    "com-vector-inf-mass", "blockade-inf", "blockade-nan", "effective-inf-u",
    "connection-negative", "scalar-zero", "field-zero-row", "field-nan", "scalar-minus-inf-row",
    "com-scalar-nan-row", "scalar-fd-inf", "scalar-fd-nan-row", "berry-fd-inf",
    "berry-fd-nan-row", "berry-fd-origin", "adiabaticity-fd-nan", "adiabaticity-fd-origin",
    "adiabaticity-fd-zero-velocity", "adiabaticity-fd-inf-velocity",
])
def test_non_finite_inputs_raise_naming_the_quantity(call, quantity):
    """No NaN and no wrong error: each bad input names itself."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=quantity):
            call()
