"""Tests for the semiclassical trajectory integrator."""

import dataclasses
import hashlib
import itertools
import re

import numpy as np
import pytest

import dense_oracle
from rydgauge import dynamics
from rydgauge.constants import ELEMENTARY_CHARGE, TWOPI
from rydgauge.dynamics import (
    Trajectory,
    TrajectoryConfig,
    _cross,
    _engine,
    _force,
    adiabaticity,
    deflection_scenario,
    integrate,
)
from rydgauge.gauge import _pair_amplitudes, _radial_spectrum
from rydgauge.spectrum import LABELS
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
    )
    base.update(overrides)
    return TrajectoryConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="label"):
        _config(label="x")
    assert _config().time_step_s == dynamics.RECORD_STEP_S
    for bad_step in (0.0, -50e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time step"):
            _config(time_step_s=bad_step)
    with pytest.raises(ValueError, match="max time"):
        _config(max_time_s=-1.0)
    with pytest.raises(ValueError, match="separation"):
        _config(initial_position_m=(0.0, 0.0, 0.0))


def _no_record_times(config):
    raise AssertionError("record times built for a run the config should have rejected")


STRIDE_S = dynamics.SCENARIO_STRIDE * dynamics.RECORD_STEP_S  # 10 us between default records


@pytest.mark.parametrize("overrides, records", [
    ({"max_time_s": 1.1 * dynamics.MAX_RECORDS * STRIDE_S}, "1.1e+06"),
    ({"time_step_s": 1e-12, "max_time_s": 400e-6}, "2e+06"),
    ({"max_time_s": 9.5e25}, "9.5e+30"),
    ({"time_step_s": 5e-324, "max_time_s": 1e300}, "inf"),  # the ratio overflows
], ids=["adaptive", "1ps-record-grid", "speed-1e-30", "overflow"])
def test_config_rejects_a_run_with_too_many_records(overrides, records, monkeypatch):
    # the unbounded list of record times is never built, not even to be counted
    monkeypatch.setattr(dynamics, "_record_times", _no_record_times)
    with pytest.raises(ValueError, match=rf"max time \S+ s makes about {re.escape(records)} records"):
        _config(**overrides)


def test_config_keeps_a_run_below_the_record_bound():
    max_time_s = 0.9 * dynamics.MAX_RECORDS * STRIDE_S
    assert _config(max_time_s=max_time_s).max_time_s == max_time_s


@pytest.mark.parametrize("overrides, message", [
    ({"initial_velocity_m_s": (float("nan"), 0.0, 0.0)}, "initial velocity must be finite"),
    ({"initial_velocity_m_s": (0.1, float("inf"), 0.0)}, "initial velocity must be finite"),
    ({"initial_position_m": (float("-inf"), R_C, 0.0)}, "initial position must be finite"),
    ({"initial_position_m": (-R_C, 0.0, float("nan"))}, "initial position must be finite"),
], ids=["nan-velocity", "inf-velocity", "inf-position", "nan-position"])
def test_config_rejects_a_non_finite_start(overrides, message):
    with pytest.raises(ValueError, match=message):
        _config(**overrides)


def _null_force(engine, position_m, velocity_m_s):
    return np.zeros(3)


def test_no_forces_gives_a_straight_line(monkeypatch):
    # max times off the 50 ns record grid end exactly on max_time_s whether
    # max_time_s/dt rounds down (400.2) or up (400.8)
    calls = 0

    def counted_null_force(*args):
        nonlocal calls
        calls += 1
        return _null_force(*args)

    monkeypatch.setattr(dynamics, "_force", counted_null_force)
    for max_time_s in (20e-6, 20.01e-6, 20.04e-6):
        config = _config(max_time_s=max_time_s)
        calls = 0
        traj = integrate(config)
        assert not traj.aborted
        assert traj.t_s[-1] == max_time_s
        expected = np.asarray(config.initial_position_m) + max_time_s * np.asarray(
            config.initial_velocity_m_s
        )
        # each of the n steps rounds a coordinate by at most eps*max|x0|; a
        # zero error estimate rejects no step, so n is (evaluations - 1) / 6
        steps, rest = divmod(calls - 1, 6)
        assert rest == 0 and 1 <= steps <= 5
        x0 = np.abs(config.initial_position_m).max()
        bound = steps * np.finfo(float).eps * x0
        assert np.abs(traj.position_m[-1] - expected).max() <= bound
        assert np.array_equal(traj.velocity_m_s[-1], config.initial_velocity_m_s)


def test_lorentz_force_is_perpendicular_to_velocity():
    config = _config()
    pos = (-1.5 * R_C, 1.0 * R_C, 0.0)
    vel = (0.10, 0.02, 0.0)
    f1 = _force(_engine(config), pos, vel)
    assert abs(np.dot(f1, vel)) <= 1e-12 * np.linalg.norm(f1) * np.linalg.norm(vel)


def _force_reference(pos_vels):
    """For every label, assert _force has the bytes of a reference written
    with np.linalg.norm and np.cross at each (position, velocities) pair."""
    reduced = reduced_parameters(GAETAN.drive, GAETAN.interaction)
    field_T = ModelUnits.from_experiment(GAETAN.drive, GAETAN.interaction).field_T
    khat = np.asarray(GAETAN.drive.wavevector_direction)
    for row, label in enumerate(LABELS):
        engine = _engine(_config(label=label))
        for pos, vels in pos_vels(row):
            r_m = float(np.linalg.norm(pos))
            da_dx = _radial_spectrum(r_m / R_C, reduced).da_dx[row]
            b_si = field_T * da_dx * np.cross(pos / r_m, khat)
            expected = ELEMENTARY_CHARGE * np.cross(vels, b_si)  # row by row, np.cross's bits
            for vel, want in zip(vels, expected):
                got = _force(engine, pos, vel)
                assert got.tobytes() == want.tobytes(), (pos, vel, label)


def test_lorentz_force_matches_np_cross_bit_for_bit():
    """q v x (B0 B_phi e_r x k) on Python floats gives np.cross's bytes,
    signed zeros included, on every label."""
    signed = (-1.3, -0.0, 0.0, 0.7)
    vectors = [np.array(c) for c in itertools.product(signed, repeat=3)]
    for a in vectors:
        for b in vectors:
            assert _cross(a, b).tobytes() == np.cross(a, b).tobytes(), (a, b)
    grid = [(pos * R_C, 0.1 * np.array(vectors)) for pos in vectors if np.any(pos)]
    _force_reference(lambda row: grid)


def test_force_matches_a_norm_and_cross_reference_bit_for_bit():
    """Every label, 200 random positions and velocities: the bytes of a
    reference written with np.linalg.norm and np.cross."""
    rng = np.random.default_rng(7)
    positions = rng.normal(size=(200, 3)) * rng.uniform(0.05, 5.0, size=(200, 1)) * R_C
    velocities = rng.normal(scale=0.1, size=(200, 3))
    _force_reference(lambda row: [
        (pos, vel[None]) for pos, vel in zip(positions[row::3], velocities[row::3])
    ])


def test_kinetic_energy_is_conserved_under_lorentz_only():
    config = _config()
    traj = integrate(config)
    assert not traj.aborted
    v0, v1 = np.linalg.norm(traj.velocity_m_s[[0, -1]], axis=1)
    assert abs(v1 - v0) / v0 < 1e-10


# final z (um) of the DOP853 flyby in bench/reference.py (rtol 1e-13),
# integrated to each scenario's max_time_s
DOP853_Z_UM = {"readme": 0.7000195652292, "beguin2013": 0.1126333630437}
SCENARIOS = {"readme": {}, "beguin2013": dict(preset_name="beguin2013", speed_m_s=1.0,
                                              impact_parameter_rc=0.5)}


@pytest.mark.parametrize("name", ["readme", "beguin2013"])
def test_dp54_error_falls_with_rtol(name, monkeypatch):
    # |final z - DOP853| falls 2.8e-7 -> 2.4e-11 um (readme) and 2.4e-7 ->
    # 1.1e-11 um (beguin2013) from RTOL 1e-6 to 1e-10: at most 0.28 RTOL um,
    # each decade cutting it 5.6-21x; the bounds of RTOL um and 3x per
    # decade leave 3.5x and 1.9x of headroom
    scenario = deflection_scenario(**SCENARIOS[name])
    rtols = (1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
    errors = []
    for rtol in rtols:
        monkeypatch.setattr(dynamics, "RTOL", rtol)
        traj = integrate(scenario)
        assert not traj.aborted, traj.reason
        errors.append(abs(traj.position_m[-1, 2] * 1e6 - DOP853_Z_UM[name]))
    assert all(err <= rtol for err, rtol in zip(errors, rtols))
    assert all(coarse >= 3.0 * fine for coarse, fine in zip(errors, errors[1:]))


def test_abort_below_the_validity_floor():
    # drift in slowly, so the integrator samples the floor band instead of
    # leaping across it in one substep; a 2.5 ns record grid records every
    # 0.5 us, so the path on the way in is recorded too
    config = _config(
        initial_position_m=(0.05 * R_C, 0.0, 0.0),
        initial_velocity_m_s=(-0.2, 0.0, 0.0),
        max_time_s=5e-6,
        time_step_s=2.5e-9,
    )
    traj = integrate(config)
    assert traj.aborted
    assert "validity floor" in traj.reason
    assert traj.t_s.size >= 1
    # the recorded path never crosses the floor itself
    assert np.all(np.linalg.norm(traj.position_m, axis=1) / R_C >= 0.01)


def test_adaptive_run_aborts_below_the_validity_floor():
    # the drift-in case above on the default record grid: no interior record
    config = _config(
        initial_position_m=(0.05 * R_C, 0.0, 0.0),
        initial_velocity_m_s=(-0.2, 0.0, 0.0),
        max_time_s=5e-6,
    )
    traj = integrate(config)
    assert traj.aborted
    assert "validity floor" in traj.reason
    assert traj.t_s.size >= 1
    assert np.all(np.linalg.norm(traj.position_m, axis=1) / R_C >= 0.01)


# the force evaluations the adaptive run may make (1,363 and 1,207 while
# steps landed on the records)
@pytest.mark.parametrize("name, max_calls", [("readme", 1000), ("beguin2013", 1150)],
                         ids=["readme", "beguin2013"])
def test_adaptive_flyby_matches_the_dop853_reference(monkeypatch, name, max_calls):
    scenario = deflection_scenario(**SCENARIOS[name])
    calls = 0

    def counted_force(*args):
        nonlocal calls
        calls += 1
        return _force(*args)

    monkeypatch.setattr(dynamics, "_force", counted_force)
    traj = integrate(scenario)
    assert not traj.aborted, traj.reason
    assert calls <= max_calls
    assert traj.t_s[-1] == scenario.max_time_s
    assert abs(traj.position_m[-1, 2] * 1e6 - DOP853_Z_UM[name]) <= 1e-9
    speed = np.linalg.norm(scenario.initial_velocity_m_s)
    drift = np.max(np.abs(np.linalg.norm(traj.velocity_m_s, axis=1) / speed - 1.0))
    assert drift < 1e-12


# record index -> (z um, vz m/s) of the DOP853 flyby in bench/reference.py
# (rtol 1e-13), integrated to that record's t_s: interior records come from
# the dense output of a step, not from a step end
@pytest.mark.parametrize(
    "scenario_args, dop853",
    [
        ({}, {  # the README flyby: before, at and after the crossing (t = 474 us)
            20: (0.004416185542733681, 6.607365168292861e-05),
            40: (0.09371970668109743, 0.0017548990851488544),
            47: (0.32831329929892233, 0.004607351005944958),
            48: (0.3744095641763209, 0.004581631560775583),
            87: (0.6976286853917474, 3.73710114926478e-05),
        }),
        (dict(preset_name="beguin2013", speed_m_s=1.0, impact_parameter_rc=0.5), {
            2: (1.0359248969711768e-05, 2.334359511431085e-06),
            5: (0.08813756986611147, 0.007650572657479747),
            9: (0.11263236540698378, 5.758165701599986e-07),
        }),
    ],
    ids=["readme", "beguin2013"],
)
def test_adaptive_flyby_records_match_the_dop853_reference(scenario_args, dop853):
    scenario = deflection_scenario(**scenario_args)
    traj = integrate(scenario)
    speed = np.linalg.norm(scenario.initial_velocity_m_s)
    for index, (z_um, vz_m_s) in dop853.items():
        assert 0 < index < traj.t_s.size - 1
        assert abs(traj.position_m[index, 2] * 1e6 - z_um) <= 1e-9
        assert abs(traj.velocity_m_s[index, 2] - vz_m_s) <= 1e-10 * speed


def test_readme_flyby_keeps_the_bytes_of_its_path():
    """t_s, positions and velocities of the README flyby, its interior records
    from the steps' dense output (SHA-256 of the float64 rows)."""
    traj = integrate(deflection_scenario())
    rows = np.column_stack([traj.t_s, traj.position_m, traj.velocity_m_s])
    assert rows.shape == (96, 7)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == (
        "92a0219e7bfa09edaf853722387855f5593f1056d60aec3692e9c32129bc5a29"
    )


@pytest.mark.parametrize("bad", [-1e-3, np.nan])
def test_trajectory_rejects_a_negative_or_nan_monitor(bad):
    columns = dict(t_s=np.zeros(2), position_m=np.ones((2, 3)), velocity_m_s=np.zeros((2, 3)))
    assert Trajectory(**columns, adiabaticity=np.zeros(2)).adiabaticity.shape == (2,)
    with pytest.raises(ValueError, match="adiabaticity parameter must be >= 0"):
        Trajectory(**columns, adiabaticity=np.array([0.0, bad]))


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
    motion with a beam-axis component, the deflated branch at 0.03 r_c, and
    in-plane motion in deep blockade at 0.02-0.2 r_c; beguin2013 with a Rabi
    phase of 0.7 rad."""
    x, angle = np.geomspace(0.02, 0.2, 6), np.linspace(0.3, 5.9, 6)
    positions = np.concatenate([[
        [-1.5, 1.0, 0.0], [0.6, -0.2, 0.0], [1.2, 0.5, 0.0],
        [0.8, 0.3, 0.5], [-0.4, 0.9, -1.2], [1.7, -1.1, 0.8],
        [0.012, 0.02, 0.019], [0.0, 0.03, 0.0],
    ], np.stack([x * np.cos(angle), x * np.sin(angle), 0.0 * x], axis=1)])
    velocities = np.concatenate([[
        [0.1, -0.08, 0.0], [0.07, 0.02, 0.0], [0.1, 0.05, 0.0],
        [0.1, 0.0, 0.05], [0.03, -0.02, 0.3], [-0.2, 0.1, 0.05],
        [0.02, -0.05, 0.3], [0.01, 0.02, 0.1],
    ], 0.1 * np.stack([np.cos(angle + 1.1), np.sin(angle + 1.1), 0.0 * x], axis=1)])
    phased = dataclasses.replace(BEGUIN, drive=dataclasses.replace(BEGUIN.drive, rabi_phase_rad=0.7))
    for preset, label in itertools.product((GAETAN, phased), LABELS):
        yield preset, label, positions, velocities


def _dense_adiabaticity(preset, label, positions, velocities):
    """:func:`dense_oracle.adiabaticity` at positions in r_c and velocities in m/s."""
    drive = preset.drive
    reduced = reduced_parameters(drive, preset.interaction)
    r_c = ModelUnits.from_experiment(drive, preset.interaction).length_m
    khat = np.asarray(drive.wavevector_direction, dtype=float)
    x = np.linalg.norm(positions, axis=-1)
    v = velocities / (r_c * abs(drive.rabi_complex))  # r_c·|Omega|
    u = reduced.shift_ratio(x)
    du_dt = -reduced.power * u / x * np.sum(v * positions, axis=-1) / x
    return dense_oracle.adiabaticity(
        u, reduced.detuning_ratio, reduced.kappa * (positions @ khat), drive.rabi_phase_rad,
        du_dt, reduced.kappa * (v @ khat), LABELS.index(label),
    )


def test_adiabaticity_matches_the_dense_oracle():
    """Closed form against the dense couplings: 14 points x 3 labels on each preset."""
    for preset, label, positions, velocities in _oracle_cases():
        r_c = ModelUnits.from_experiment(preset.drive, preset.interaction).length_m
        config = _config(drive=preset.drive, interaction=preset.interaction, label=label)
        closed = adiabaticity(config, positions * r_c, velocities)
        oracle = _dense_adiabaticity(preset, label, positions, velocities)
        assert closed == pytest.approx(oracle, rel=1e-10, abs=0.0), (preset.name, label)


def test_adiabaticity_of_a_row_alone_has_the_bits_it_has_in_the_batch():
    """Both the closed form and the dense oracle."""
    for preset, label, positions, velocities in _oracle_cases():
        r_c = ModelUnits.from_experiment(preset.drive, preset.interaction).length_m
        config = _config(drive=preset.drive, interaction=preset.interaction, label=label)
        batch = adiabaticity(config, positions * r_c, velocities)
        oracle = _dense_adiabaticity(preset, label, positions, velocities)
        for i, (pos, vel) in enumerate(zip(positions, velocities)):
            assert np.float64(adiabaticity(config, pos * r_c, vel)).tobytes() == batch[i].tobytes()
            alone = _dense_adiabaticity(preset, label, pos, vel)
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
    assert t_att.position_m[-1] == pytest.approx(t_rep.position_m[-1], rel=1e-13, abs=0)


def test_traversal_time_of_a_straight_crossing(monkeypatch):
    monkeypatch.setattr(dynamics, "_force", _null_force)
    speed = 0.20
    config = _config(
        initial_velocity_m_s=(speed, 0.0, 0.0),
        max_time_s=6.0 * R_C / speed,
    )
    traj = integrate(config)
    xs = traj.position_m[:, 0]
    crossing = np.interp(R_C, xs, traj.t_s) - np.interp(-R_C, xs, traj.t_s)
    assert crossing == pytest.approx(2.0 * R_C / speed, rel=1e-9)


def test_deflection_scenario_wiring():
    scenario = deflection_scenario(speed_m_s=0.12, impact_parameter_rc=0.8)
    assert scenario.label == "+"
    assert scenario.initial_position_m[0] == pytest.approx(-6.0 * R_C)
    assert scenario.initial_position_m[1] == pytest.approx(0.8 * R_C)
    assert scenario.initial_velocity_m_s == (0.12, 0.0, 0.0)
    assert scenario.max_time_s == pytest.approx(12.0 * R_C / 0.12)
    # smoke: the first microseconds integrate cleanly
    probe = dataclasses.replace(scenario, max_time_s=2e-6)
    assert not integrate(probe).aborted


@pytest.mark.parametrize("kwargs, message", [
    ({"speed_m_s": 0.0}, "speed must be finite and positive"),
    ({"speed_m_s": -0.1}, "speed must be finite and positive"),
    ({"speed_m_s": float("nan")}, "speed must be finite and positive"),
    ({"speed_m_s": float("inf")}, "speed must be finite and positive"),
    ({"impact_parameter_rc": float("nan")}, "impact parameter must be finite"),
    ({"impact_parameter_rc": float("-inf")}, "impact parameter must be finite"),
])
def test_deflection_scenario_rejects_bad_input(kwargs, message):
    with pytest.raises(ValueError, match=message):
        deflection_scenario(**kwargs)


def test_head_on_deflection_scenario_is_valid():
    scenario = deflection_scenario(impact_parameter_rc=0.0)
    assert scenario.initial_position_m[1] == 0.0


# head on, the Lorentz force lifts the atom off the axis by about 0.0093 r_c
# m/s / speed on gaetan2009 and 0.0084 r_c m/s / speed on beguin2013 (closest
# approach of the DOP853 flyby in bench/reference.py); at these speeds that is
# below the floor, and the steps stride across the partner between stages.
# None keeps the default record grid; on the 1 us grid the first interior
# record would be at 200 us, so only the start is returned
@pytest.mark.parametrize("preset_name, speed_m_s, time_step_s", [
    ("gaetan2009", 1.0, None),
    ("gaetan2009", 3.0, None),
    ("beguin2013", 3.0, None),
    ("beguin2013", 10.0, None),
    ("gaetan2009", 3.0, 1e-6),
])
def test_head_on_flyby_aborts_at_the_validity_floor(preset_name, speed_m_s, time_step_s):
    grid = {} if time_step_s is None else {"time_step_s": time_step_s}
    scenario = deflection_scenario(preset_name, speed_m_s, 0.0, **grid)
    traj = integrate(scenario)
    assert traj.aborted
    assert "validity floor" in traj.reason
    r_c = _engine(scenario).r_c_m
    assert np.all(np.linalg.norm(traj.position_m, axis=1) / r_c >= 0.01)
    assert np.all(traj.position_m[:, 0] < 0.0)  # no record past the partner


@pytest.mark.parametrize("preset_name", ["gaetan2009", "beguin2013"])
def test_slow_head_on_flyby_is_lifted_over_the_floor(preset_name):
    # at 0.3 m/s the DOP853 flyby comes no closer than 0.031 (gaetan2009) and
    # 0.028 r_c (beguin2013), so the chord check must not end it
    traj = integrate(deflection_scenario(preset_name, 0.3, 0.0))
    assert not traj.aborted, traj.reason
    assert traj.position_m[-1, 0] > 0.0
