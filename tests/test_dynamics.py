"""Tests for the semiclassical trajectory integrator."""

import dataclasses
import hashlib
import itertools
import re

import numpy as np
import pytest

from rydgauge import dynamics
from rydgauge.constants import ELEMENTARY_CHARGE, TWOPI
from rydgauge.dynamics import (
    TrajectoryConfig,
    _cross,
    _engine,
    _force,
    adiabaticity,
    deflection_scenario,
    integrate,
)
from rydgauge.gauge import (
    FD_STEP,
    _pair_amplitudes,
    _radial_spectrum,
    adiabaticity_fd,
    field_profile,
)
from rydgauge.spectrum import LABELS, bare_state_vector, labeled_spectrum
from rydgauge.model import (
    InteractionKind,
    InteractionModel,
    ModelUnits,
    get_preset,
    reduced_parameters,
)

GAETAN = get_preset("gaetan2009")
BEGUIN = get_preset("beguin2013")
RDD_REP = InteractionModel(kind=InteractionKind.RDD, coefficient=+TWOPI * 3200e6 * 1e-18)
R_C = ModelUnits.from_experiment(GAETAN.drive, GAETAN.interaction).length_m


def _config(**overrides):
    base = dict(
        drive=GAETAN.drive,
        interaction=GAETAN.interaction,
        initial_position_m=(-3.0 * R_C, 1.0 * R_C, 0.0),
        initial_velocity_m_s=(0.10, 0.0, 0.0),
        max_time_s=20e-6,
        label="+",
        time_step_s=50e-9,
    )
    base.update(overrides)
    return TrajectoryConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="label"):
        _config(label="x")
    assert _config(time_step_s=None).time_step_s is None  # adaptive
    for bad_step in (0.0, -50e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time step"):
            _config(time_step_s=bad_step)
    with pytest.raises(ValueError, match="max time"):
        _config(max_time_s=-1.0)
    with pytest.raises(ValueError, match="stride"):
        _config(output_stride=0)
    with pytest.raises(ValueError, match="separation"):
        _config(initial_position_m=(0.0, 0.0, 0.0))


def _no_record_times(config, step_s):
    raise AssertionError("record times built for a run the config should have rejected")


@pytest.mark.parametrize("overrides, records", [
    ({"time_step_s": None, "max_time_s": 1.1 * dynamics.MAX_RECORDS * dynamics.RECORD_STEP_S},
     "1.1e+06"),
    ({"time_step_s": 1e-12, "max_time_s": 2e-6, "output_stride": 1}, "2e+06"),
    ({"time_step_s": None, "max_time_s": 9.5e25, "output_stride": 200}, "9.5e+30"),
    ({"time_step_s": 5e-324, "max_time_s": 1e300}, "inf"),  # the ratio overflows
], ids=["adaptive", "rk4", "speed-1e-30", "overflow"])
def test_config_rejects_a_run_with_too_many_records(overrides, records, monkeypatch):
    # the unbounded list of record times is never built, not even to be counted
    monkeypatch.setattr(dynamics, "_record_times", _no_record_times)
    with pytest.raises(ValueError, match=rf"max time \S+ s makes about {re.escape(records)} records"):
        _config(**overrides)


def test_config_keeps_a_run_below_the_record_bound():
    max_time_s = 0.9 * dynamics.MAX_RECORDS * dynamics.RECORD_STEP_S
    assert _config(time_step_s=None, max_time_s=max_time_s).max_time_s == max_time_s
    assert _config(max_time_s=200 * max_time_s, output_stride=200).output_stride == 200


@pytest.mark.parametrize("overrides, message", [
    ({"initial_velocity_m_s": (float("nan"), 0.0, 0.0)}, "initial velocity must be finite"),
    ({"initial_velocity_m_s": (0.1, float("inf"), 0.0)}, "initial velocity must be finite"),
    ({"initial_position_m": (float("-inf"), R_C, 0.0)}, "initial position must be finite"),
    ({"initial_position_m": (-R_C, 0.0, float("nan"))}, "initial position must be finite"),
], ids=["nan-velocity", "inf-velocity", "inf-position", "nan-position"])
def test_config_rejects_a_non_finite_start(overrides, message):
    with pytest.raises(ValueError, match=message):
        _config(time_step_s=None, **overrides)


def test_no_forces_gives_a_straight_line():
    # max times off the 50 ns grid end with a shortened step, exactly on
    # max_time_s whether max_time_s/dt rounds down (400.2) or up (400.8)
    for max_time_s in (20e-6, 20.01e-6, 20.04e-6):
        config = _config(
            include_lorentz=False, include_adiabatic_potential=False, max_time_s=max_time_s
        )
        traj = integrate(config)
        assert not traj.aborted
        final = traj.states[-1]
        assert final.t_s == max_time_s
        expected = np.asarray(config.initial_position_m) + max_time_s * np.asarray(
            config.initial_velocity_m_s
        )
        # each of the n records rounds a coordinate by at most eps*max|x0|
        x0 = np.abs(config.initial_position_m).max()
        bound = len(traj.states) * np.finfo(float).eps * x0
        assert np.abs(np.asarray(final.position_m) - expected).max() <= bound
        assert np.array_equal(final.velocity_m_s, config.initial_velocity_m_s)


def test_lorentz_force_is_perpendicular_to_velocity_and_scales_with_charge():
    config = _config(include_adiabatic_potential=False)
    pos = (-1.5 * R_C, 1.0 * R_C, 0.0)
    vel = (0.10, 0.02, 0.0)
    f1 = _force(config, _engine(config), pos, vel)
    assert abs(np.dot(f1, vel)) <= 1e-12 * np.linalg.norm(f1) * np.linalg.norm(vel)
    doubled_config = dataclasses.replace(config, charge_C=2.0 * ELEMENTARY_CHARGE)
    doubled = _force(doubled_config, _engine(doubled_config), pos, vel)
    assert doubled == pytest.approx(2.0 * f1, rel=1e-14, abs=0)


def test_lorentz_force_matches_np_cross_bit_for_bit():
    """q v x (B0 B_phi e_r x k) on Python floats gives np.cross's bytes, signed zeros included."""
    signed = (-1.3, -0.0, 0.0, 0.7)
    vectors = [np.array(c) for c in itertools.product(signed, repeat=3)]
    for a in vectors:
        for b in vectors:
            assert _cross(a, b).tobytes() == np.cross(a, b).tobytes(), (a, b)
    config = _config(include_adiabatic_potential=False)
    engine = _engine(config)
    reduced = reduced_parameters(GAETAN.drive, GAETAN.interaction)
    field_T = ModelUnits.from_experiment(GAETAN.drive, GAETAN.interaction).field_T
    khat = np.asarray(GAETAN.drive.wavevector_direction)
    for pos in vectors:
        if not np.any(pos):
            continue
        pos = pos * R_C
        r_m = float(np.linalg.norm(pos))
        da_dx = field_profile(r_m / R_C, reduced)[2]  # label "+"
        b_si = field_T * da_dx * np.cross(pos / r_m, khat)
        for vel in vectors:
            vel = 0.1 * vel
            expected = np.zeros(3)  # force sums its terms into zeros: -0.0 reads +0.0
            expected += config.charge_C * np.cross(vel, b_si)
            got = _force(config, engine, pos, vel)
            assert got.tobytes() == expected.tobytes(), (pos, vel)


def test_force_matches_a_norm_and_cross_reference_bit_for_bit():
    """Both terms on, every label, random positions and velocities: the
    bytes of a reference written with np.linalg.norm and np.cross."""
    rng = np.random.default_rng(7)
    positions = rng.normal(size=(200, 3)) * rng.uniform(0.05, 5.0, size=(200, 1)) * R_C
    velocities = rng.normal(scale=0.1, size=(200, 3))
    reduced = reduced_parameters(GAETAN.drive, GAETAN.interaction)
    units = ModelUnits.from_experiment(GAETAN.drive, GAETAN.interaction)
    khat = np.asarray(GAETAN.drive.wavevector_direction)
    for j, (pos, vel) in enumerate(zip(positions, velocities)):
        label = LABELS[j % 3]
        config = _config(label=label)
        assert config.include_lorentz and config.include_adiabatic_potential
        r_m = float(np.linalg.norm(pos))
        e_r = pos / r_m
        spec = _radial_spectrum(r_m / R_C, reduced)
        row = LABELS.index(label)
        b_si = units.field_T * spec.da_dx[row] * np.cross(e_r, khat)
        expected = np.zeros(3)
        expected += config.charge_C * np.cross(vel, b_si)
        expected += -spec.de_dx[row] * (units.energy_J / R_C) * e_r
        got = _force(config, _engine(config), pos, vel)
        assert got.tobytes() == expected.tobytes(), (pos, vel, label)


def test_adiabatic_force_is_radial():
    config = _config(include_lorentz=False)
    pos = np.array([-1.5 * R_C, 1.0 * R_C, 0.0])
    f = _force(config, _engine(config), pos, (0.0, 0.0, 0.0))
    assert np.linalg.norm(np.cross(f, pos)) <= 1e-12 * np.linalg.norm(f) * np.linalg.norm(pos)


def test_force_skips_the_solve_when_no_term_needs_it(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return radial(*args)

    radial = dynamics._radial_spectrum
    monkeypatch.setattr(dynamics, "_radial_spectrum", counted)
    off = _config(include_lorentz=False, include_adiabatic_potential=False)
    pos, vel = (-1.2 * R_C, 0.8 * R_C, 0.0), (0.1, 0.05, 0.0)
    assert _force(off, _engine(off), pos, vel).tobytes() == np.zeros(3).tobytes()
    assert calls == []
    _force(_config(include_adiabatic_potential=False), _engine(off), pos, vel)
    assert len(calls) == 1


def test_kinetic_energy_is_conserved_under_lorentz_only():
    config = _config(include_adiabatic_potential=False, output_stride=100)
    traj = integrate(config)
    assert not traj.aborted
    v0 = np.linalg.norm(traj.states[0].velocity_m_s)
    v1 = np.linalg.norm(traj.states[-1].velocity_m_s)
    assert abs(v1 - v0) / v0 < 1e-10


def test_rk4_is_fourth_order():
    # halving the step must shrink the endpoint error about sixteenfold;
    # the repulsive branch keeps the flyby away from the validity floor
    def endpoint(dt_s):
        config = _config(
            interaction=RDD_REP,
            initial_velocity_m_s=(0.15, 0.0, 0.0),
            max_time_s=160e-6,
            time_step_s=dt_s,
            output_stride=10**6,
        )
        traj = integrate(config)
        assert not traj.aborted
        return traj.states[-1].position_m

    p4, p2, p1 = endpoint(4e-6), endpoint(2e-6), endpoint(1e-6)
    ratio = np.linalg.norm(p4 - p2) / np.linalg.norm(p2 - p1)
    assert 8.0 <= ratio <= 32.0


def test_abort_below_the_validity_floor():
    # drift in slowly with the steep core force off, so the integrator
    # samples the floor band instead of leaping across it in one substep
    config = _config(
        initial_position_m=(0.05 * R_C, 0.0, 0.0),
        initial_velocity_m_s=(-0.2, 0.0, 0.0),
        max_time_s=5e-6,
        time_step_s=10e-9,
        include_adiabatic_potential=False,
        output_stride=50,
    )
    traj = integrate(config)
    assert traj.aborted
    assert "validity floor" in traj.reason
    assert len(traj.states) >= 1
    # the recorded path never crosses the floor itself
    for state in traj.states:
        assert np.linalg.norm(state.position_m) / R_C >= 0.01


def test_adaptive_run_aborts_below_the_validity_floor():
    # the drift-in case above without a fixed step
    config = _config(
        initial_position_m=(0.05 * R_C, 0.0, 0.0),
        initial_velocity_m_s=(-0.2, 0.0, 0.0),
        max_time_s=5e-6,
        time_step_s=None,
        include_adiabatic_potential=False,
        output_stride=50,
    )
    traj = integrate(config)
    assert traj.aborted
    assert "validity floor" in traj.reason
    assert len(traj.states) >= 1
    for state in traj.states:
        assert np.linalg.norm(state.position_m) / R_C >= 0.01


# final z (um) of the DOP853 flyby in bench/reference.py (rtol 1e-13),
# integrated to each scenario's max_time_s
@pytest.mark.parametrize(
    "scenario_args, z_dop853_um",
    [
        ({}, 0.7000195652292),  # the README flyby
        (dict(preset_name="beguin2013", speed_m_s=1.0, impact_parameter_rc=0.5), 0.1126333630437),
    ],
    ids=["readme", "beguin2013"],
)
def test_adaptive_flyby_matches_the_dop853_reference(monkeypatch, scenario_args, z_dop853_um):
    scenario = deflection_scenario(**scenario_args)
    assert scenario.time_step_s is None
    calls = 0

    def counted_force(*args):
        nonlocal calls
        calls += 1
        return _force(*args)

    monkeypatch.setattr(dynamics, "_force", counted_force)
    traj = integrate(scenario)
    assert not traj.aborted, traj.reason
    # fixed 50 ns RK4 takes 75,800 and 7,342 force evaluations
    assert calls <= 4000
    final = traj.states[-1]
    assert final.t_s == scenario.max_time_s
    assert abs(final.position_m[2] * 1e6 - z_dop853_um) <= 1e-9
    speed = np.linalg.norm(scenario.initial_velocity_m_s)
    drift = max(abs(np.linalg.norm(s.velocity_m_s) / speed - 1.0) for s in traj.states)
    assert drift < 1e-12

    # the fixed 50 ns path records at the same times, bit for bit; its
    # record grid does not depend on the force, so a null force builds it
    monkeypatch.setattr(dynamics, "_force", lambda *args: np.zeros(3))
    fixed = integrate(dataclasses.replace(scenario, time_step_s=50e-9))
    times = np.array([s.t_s for s in traj.states])
    assert times.tobytes() == np.array([s.t_s for s in fixed.states]).tobytes()


def test_readme_flyby_keeps_the_bytes_of_its_path():
    """t_s, positions and velocities of the README flyby, as written before
    the adiabaticity monitor went closed-form (SHA-256 of the float64 rows)."""
    traj = integrate(deflection_scenario())
    rows = np.array([[s.t_s, *s.position_m, *s.velocity_m_s] for s in traj.states])
    assert rows.shape == (96, 7)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == (
        "82227cc0a5f0a5a50ba601849b055f6dab759a742c30bad34418c4f379c00e14"
    )


def test_adiabaticity_vanishes_at_rest_and_is_linear_in_speed():
    config = _config()
    pos = (-1.5 * R_C, 1.0 * R_C, 0.0)
    assert adiabaticity(config, pos, (0.0, 0.0, 0.0)) == 0.0
    vel = np.array([0.10, -0.03, 0.02])
    batch = adiabaticity(config, np.tile(pos, (4, 1)), np.outer([0.0, 1.0, 2.0, 4.0], vel))
    assert batch[0] == 0.0 and batch[1] > 0.0
    assert batch[2:] == pytest.approx([2.0 * batch[1], 4.0 * batch[1]], rel=1e-14, abs=0.0)


def _oracle_cases():
    """(preset, label, positions / r_c, velocities in m/s): in-plane motion,
    motion with a beam-axis component, and the deflated branch at 0.03 r_c."""
    positions = np.array([
        [-1.5, 1.0, 0.0], [0.6, -0.2, 0.0], [1.2, 0.5, 0.0],
        [0.8, 0.3, 0.5], [-0.4, 0.9, -1.2], [1.7, -1.1, 0.8],
        [0.012, 0.02, 0.019], [0.0, 0.03, 0.0],
    ])
    velocities = np.array([
        [0.1, -0.08, 0.0], [0.07, 0.02, 0.0], [0.1, 0.05, 0.0],
        [0.1, 0.0, 0.05], [0.03, -0.02, 0.3], [-0.2, 0.1, 0.05],
        [0.02, -0.05, 0.3], [0.01, 0.02, 0.1],
    ])
    for preset, label in itertools.product((GAETAN, BEGUIN), LABELS):
        yield preset, label, positions, velocities


def test_adiabaticity_matches_the_fd_oracle():
    """Closed form against the FD probe: 8 points x 3 labels on each preset.

    In-plane motion in deep blockade is left out: there the couplings are
    ~1e-7 of the eigenvector's scale, below what a 1e-6 stencil resolves."""
    for preset, label, positions, velocities in _oracle_cases():
        units = ModelUnits.from_experiment(preset.drive, preset.interaction)
        config = _config(drive=preset.drive, interaction=preset.interaction, label=label)
        closed = adiabaticity(config, positions * units.length_m, velocities)
        reduced_velocity = velocities / (units.length_m * abs(preset.drive.rabi_complex))
        oracle = adiabaticity_fd(preset.drive, preset.interaction, label, positions, reduced_velocity)
        assert closed == pytest.approx(oracle, rel=1e-8, abs=0.0), (preset.name, label)


def test_adiabaticity_of_a_row_alone_has_the_bits_it_has_in_the_batch():
    """Both the closed form and the FD oracle."""
    for preset, label, positions, velocities in _oracle_cases():
        r_c = ModelUnits.from_experiment(preset.drive, preset.interaction).length_m
        config = _config(drive=preset.drive, interaction=preset.interaction, label=label)
        batch = adiabaticity(config, positions * r_c, velocities)
        oracle = adiabaticity_fd(preset.drive, preset.interaction, label, positions, velocities)
        for i, (pos, vel) in enumerate(zip(positions, velocities)):
            assert np.float64(adiabaticity(config, pos * r_c, vel)).tobytes() == batch[i].tobytes()
            alone = adiabaticity_fd(preset.drive, preset.interaction, label, pos, vel)
            assert alone.tobytes() == oracle[i].tobytes()


def test_adiabaticity_at_a_bright_dark_crossing():
    """Far out the '-' level (w = 0) sinks below DEGENERACY_GAP of the dark
    state, which couples only through motion along the beam."""
    config = _config(label="-")
    far = np.array([1e5 * R_C, 0.0, 0.0])
    energy = _radial_spectrum(1e5, reduced_parameters(GAETAN.drive, GAETAN.interaction)).energies[1]
    assert abs(energy) < dynamics.DEGENERACY_GAP
    in_plane = adiabaticity(config, far, (0.1, 0.05, 0.0))
    assert np.isfinite(in_plane) and in_plane > 0.0
    assert adiabaticity(config, far, (0.1, 0.05, 1e-3)) == np.inf


def test_pair_amplitudes_square_to_the_scalar_potential():
    x = np.geomspace(0.02, 20.0, 40)
    for preset, w in itertools.product((GAETAN, BEGUIN), (-2.0, 0.0, 1.5)):
        drive = dataclasses.replace(preset.drive, detuning_rad_s=w * preset.drive.rabi_magnitude_rad_s)
        reduced = reduced_parameters(drive, preset.interaction)
        spec = _radial_spectrum(x, reduced)
        radial, phase, dark = _pair_amplitudes(spec)
        summed = np.sum(radial**2 / reduced.kappa**2 + phase**2, axis=1) + dark**2
        assert summed == pytest.approx(spec.scalar(reduced.kappa), rel=1e-14, abs=0.0)


def test_radial_coupling_is_antisymmetric_bit_for_bit():
    x = np.geomspace(0.0101, 20.0, 80)
    for preset, w in itertools.product((GAETAN, BEGUIN), (-3.0, 0.0, 1.5)):
        drive = dataclasses.replace(preset.drive, detuning_rad_s=w * preset.drive.rabi_magnitude_rad_s)
        radial, _, _ = _pair_amplitudes(_radial_spectrum(x, reduced_parameters(drive, preset.interaction)))
        assert np.array_equal(radial, -radial.swapaxes(0, 1)), (preset.name, w)


def _adiabaticity_one_point(params, model, label, r_vec, velocity):
    """adiabaticity_fd at one point, with one bare_state_vector call per
    label and stencil point and the oracle's order of operations."""
    reduced = reduced_parameters(params, model)
    khat = np.asarray(params.wavevector_direction, dtype=float)
    r_vec, velocity = np.asarray(r_vec, dtype=float), np.asarray(velocity, dtype=float)
    row = LABELS.index(label)

    def state(pos, lab):
        return bare_state_vector(
            float(reduced.shift_ratio(float(np.linalg.norm(pos)))),
            reduced.detuning_ratio,
            lab,
            phase_a=reduced.kappa * float(np.dot(pos, khat)),
            rabi_phase=params.rabi_phase_rad,
        )

    speed = float(np.linalg.norm(velocity))
    direction = velocity / speed
    h = FD_STEP
    op, om, ip, im = (state(r_vec + d * direction, label) for d in (h, -h, h / 2, -h / 2))
    dv = (4.0 * ((ip - im) / h) - (op - om) / (2.0 * h)) / 3.0
    phase = reduced.kappa * float(np.dot(r_vec, khat))
    dark = abs(np.exp(-1j * phase) * dv[1] - dv[2]) / np.sqrt(2.0)
    energies, _, _ = labeled_spectrum(
        reduced.shift_ratio(float(np.linalg.norm(r_vec))), reduced.detuning_ratio
    )
    worst = max(
        abs(np.vdot(state(r_vec, LABELS[j]), dv)) / abs(energies[row] - energies[j])
        for j in range(3) if j != row
    )
    return speed * max(worst, dark / abs(energies[row]))


@pytest.mark.parametrize("label", ["1", "-", "+"])
def test_batched_adiabaticity_matches_one_point_probe(label):
    """The batched FD oracle gives each row the bytes of the per-label, per-point probe."""
    drive = dataclasses.replace(GAETAN.drive, rabi_phase_rad=0.7)
    positions = np.array([[-1.5, 1.0, 0.0], [0.03, 0.02, 0.01], [4.0, -2.0, 1.0]])  # 0.03: deflated
    velocities = np.array([[0.1, 0.0, 0.0], [0.02, -0.05, 0.3], [-0.2, 0.1, 0.05]])
    batch = adiabaticity_fd(drive, GAETAN.interaction, label, positions, velocities)
    for i, (pos, vel) in enumerate(zip(positions, velocities)):
        one = _adiabaticity_one_point(drive, GAETAN.interaction, label, pos, vel)
        assert np.float64(one).tobytes() == batch[i].tobytes()


def test_dressed_energy_limits_far_out():
    # w = 0: far out the labels '1', '-', '+' tend to +1, 0 and -1 hbar|Omega|
    # (|gg> mixes evenly with |ee> in '-'); each record carries its energy
    # plus the uniform background
    hbar_omega = ModelUnits.from_experiment(GAETAN.drive, GAETAN.interaction).energy_J
    far = _config(
        initial_position_m=(-100.0 * R_C, 0.0, 0.0),
        max_time_s=50e-9,
        include_lorentz=False,
        include_adiabatic_potential=False,
        background_energy_J=1e-27,
    )
    for label, limit in (("1", 1.0), ("-", 0.0), ("+", -1.0)):
        energy = integrate(dataclasses.replace(far, label=label)).states[0].energy_J
        assert energy == pytest.approx(limit * hbar_omega + 1e-27, rel=1e-4, abs=0.0), label


def test_label_swap_matches_between_branches():
    # with zero detuning the '1' state over an attractive interaction sees
    # the same connection as '+' over a repulsive one, so Lorentz-only
    # trajectories coincide step for step
    drive0 = dataclasses.replace(GAETAN.drive, detuning_rad_s=0.0)
    shared = dict(
        initial_position_m=(-2.0 * R_C, 1.0 * R_C, 0.0),
        initial_velocity_m_s=(0.10, 0.0, 0.0),
        max_time_s=40e-6,
        time_step_s=100e-9,
        include_adiabatic_potential=False,
        output_stride=100,
    )
    attractive = TrajectoryConfig(
        drive=drive0, interaction=GAETAN.interaction, label="1", **shared
    )
    repulsive = TrajectoryConfig(
        drive=drive0, interaction=RDD_REP, label="+", **shared
    )
    t_att = integrate(attractive)
    t_rep = integrate(repulsive)
    assert not t_att.aborted and not t_rep.aborted
    a_final = t_att.states[-1].position_m
    r_final = t_rep.states[-1].position_m
    assert a_final == pytest.approx(r_final, rel=1e-13, abs=0)


def test_traversal_time_of_a_straight_crossing():
    speed = 0.20
    config = _config(
        include_lorentz=False,
        include_adiabatic_potential=False,
        initial_velocity_m_s=(speed, 0.0, 0.0),
        max_time_s=6.0 * R_C / speed,
        output_stride=20,
    )
    traj = integrate(config)
    ts = np.array([s.t_s for s in traj.states])
    xs = np.array([s.position_m[0] for s in traj.states])
    crossing = np.interp(R_C, xs, ts) - np.interp(-R_C, xs, ts)
    assert crossing == pytest.approx(2.0 * R_C / speed, rel=1e-9)


def test_deflection_scenario_wiring():
    scenario = deflection_scenario(speed_m_s=0.12, impact_parameter_rc=0.8)
    assert scenario.include_lorentz
    assert not scenario.include_adiabatic_potential
    assert scenario.label == "+"
    assert scenario.initial_position_m[0] == pytest.approx(-6.0 * R_C)
    assert scenario.initial_position_m[1] == pytest.approx(0.8 * R_C)
    assert scenario.initial_velocity_m_s == (0.12, 0.0, 0.0)
    assert scenario.max_time_s == pytest.approx(12.0 * R_C / 0.12)
    # smoke: the first microseconds integrate cleanly
    probe = dataclasses.replace(scenario, max_time_s=2e-6, output_stride=10)
    assert not integrate(probe).aborted


@pytest.mark.parametrize("kwargs, message", [
    ({"speed_m_s": 0.0}, "speed must be finite and positive"),
    ({"speed_m_s": -0.1}, "speed must be finite and positive"),
    ({"speed_m_s": float("nan")}, "speed must be finite and positive"),
    ({"speed_m_s": float("inf")}, "speed must be finite and positive"),
    ({"impact_parameter_rc": float("nan")}, "impact parameter must be finite"),
    ({"impact_parameter_rc": float("-inf")}, "impact parameter must be finite"),
    ({"approach_rc": 0.0}, "approach distance must be finite and positive"),
    ({"approach_rc": float("nan")}, "approach distance must be finite and positive"),
])
def test_deflection_scenario_rejects_bad_input(kwargs, message):
    with pytest.raises(ValueError, match=message):
        deflection_scenario(**kwargs)


def test_head_on_deflection_scenario_is_valid():
    scenario = deflection_scenario(impact_parameter_rc=0.0)
    assert scenario.initial_position_m[1] == 0.0
