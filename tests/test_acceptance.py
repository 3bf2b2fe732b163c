"""Acceptance suite: every headline guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print; each test asserts its own criterion at the stated tolerance.
"""

import dataclasses
import time

import numpy as np
import pytest

from rydgauge import dynamics
from rydgauge.analysis import scaling_fit
from rydgauge.cli import main
from rydgauge.constants import BOLTZMANN, TWOPI
from rydgauge.dynamics import deflection_scenario, integrate
from rydgauge.model import InteractionKind, InteractionModel, ModelUnits, get_preset
from rydgauge.validate import (
    _check_blockade,
    _check_com,
    _check_eigenvalues,
    _check_gauge,
    _check_plateaus,
    _check_symmetry,
    _check_weak,
    report,
    run_checks,
)

GAETAN = get_preset("gaetan2009")
RDD_ATT = GAETAN.interaction
VDW_ATT = InteractionModel(kind=InteractionKind.VDW, coefficient=-TWOPI * 300e9 * 1e-36)


def _drive(w: float):
    base = GAETAN.drive
    return dataclasses.replace(base, detuning_rad_s=w * base.rabi_magnitude_rad_s)


def _emit(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_analytic_energies_match_dense_diagonalization():
    started = time.perf_counter()
    result = _check_eigenvalues(10_000)
    elapsed = time.perf_counter() - started
    _emit(
        "analytic energies vs dense solver",
        result.passed and elapsed < 10.0,
        f"{result.detail} (< 1e-10), {elapsed:.1f} s (< 10 s)",
    )


def _oracle_grid():
    """(x, w, kind, label) points; the shared checks solve each at the
    gaetan2009 drive detuned by w, with the attractive interaction of that kind."""
    return [
        (float(x), w, kind, label)
        for x in np.geomspace(0.1, 10.0, 12)
        for w in (-3.0, -2.0, -1.0, 0.0, 1.0)
        for kind in (InteractionKind.RDD, InteractionKind.VDW)
        for label in ("1", "+", "-")
    ]


@pytest.fixture(scope="module")
def gauge_checks():
    """The A and phi checks over the grid, from one dense eigh per kind."""
    return _check_gauge(_oracle_grid())


def test_vector_potential_matches_berry_connection_oracle(gauge_checks):
    result, _ = gauge_checks
    _emit(
        "vector potential vs dense Berry connection",
        result.passed,
        f"{result.detail} (< 1e-6)",
    )


def test_scalar_potential_matches_summed_overlap_oracle(gauge_checks):
    _, result = gauge_checks
    _emit(
        "scalar potential vs summed dense couplings",
        result.passed,
        f"{result.detail} (< 1e-6)",
    )


def test_connection_plateaus_at_zero_detuning():
    result = _check_plateaus()
    _emit(
        "short- and long-range plateaus of A at zero detuning",
        result.passed,
        f"targets {{-1, -1/4}} inward, -1/2 outward; {result.detail} (< 1e-3)",
    )


def test_blockade_effective_theory_tracks_the_general_result():
    result = _check_blockade()
    _emit(
        "blockade effective theory vs general connection",
        result.passed,
        f"{result.detail} (< 1% at 0.05 r_c, monotone over {{0.1, 0.05, 0.02}} r_c, "
        f"w in {{0, -1}})",
    )


def test_weak_interaction_residual_is_second_order():
    result = _check_weak()
    _emit(
        "weak-interaction expansion residual order",
        result.passed,
        f"{result.detail} (4.0 +/- 0.4) at 20 r_c",
    )


def test_field_symmetries():
    xs = np.geomspace(0.3, 3.0, 9)
    result = _check_symmetry(xs)
    _emit(
        "field symmetry suite",
        result.passed,
        f"sign-swap, antisymmetric-in-detuning, opposite-atom, non-azimuthal over "
        f"{xs.size} separations: {result.detail} (all < 1e-10 B0)",
    )


def test_peak_scaling_coefficients_at_large_detuning():
    started = time.perf_counter()
    ratios = (-10.0, -20.0, -40.0)
    checks = []

    fit = scaling_fit(GAETAN.drive, RDD_ATT, "1", ratios)
    target = 3.0 / (4.0 * np.sqrt(2.0))
    checks.append(("beta1 rdd", fit.coefficient, target, 0.03))

    fit = scaling_fit(GAETAN.drive, VDW_ATT, "1", ratios)
    target = 3.0 / (2.0 * np.sqrt(2.0))
    checks.append(("beta1 vdw", fit.coefficient, target, 0.03))

    fit = scaling_fit(GAETAN.drive, RDD_ATT, "+", ratios)
    checks.append(("betaplus rdd", fit.coefficient, 3.0 * 2.0 ** (1.0 / 3.0), 0.03))
    checks.append(("gammaplus rdd", fit.position, 2.0 ** (-1.0 / 3.0), 0.02))

    fit = scaling_fit(GAETAN.drive, VDW_ATT, "+", ratios)
    checks.append(("betaplus vdw", fit.coefficient, 6.0 * 2.0 ** (1.0 / 6.0), 0.03))
    checks.append(("gammaplus vdw", fit.position, 2.0 ** (-1.0 / 6.0), 0.02))

    quad = scaling_fit(GAETAN.drive, RDD_ATT, "-", ratios, kind="min")
    checks.append(("minus quadratic-minimum position", quad.position, 2.0 ** (-1.0 / 3.0), 0.02))
    lin = scaling_fit(GAETAN.drive, RDD_ATT, "-", ratios, kind="max")
    checks.append(("minus linear-maximum position", lin.position, 1.0, 0.05))

    ok = all(abs(got / want - 1.0) <= tol for _, got, want, tol in checks)
    ok = ok and 1.6 <= quad.exponent <= 2.4 and 0.8 <= lin.exponent <= 1.2
    elapsed = time.perf_counter() - started
    worst = max(abs(got / want - 1.0) / tol for _, got, want, tol in checks)
    _emit(
        "large-detuning peak scaling coefficients",
        ok and elapsed < 120.0,
        f"8 targets, worst deviation at {worst:.2f} of its tolerance; "
        f"exponents {quad.exponent:.3f} (quadratic), {lin.exponent:.3f} (linear); "
        f"{elapsed:.1f} s (< 2 min)",
    )


def test_preset_scales_match_the_experiments():
    units = ModelUnits.from_experiment(GAETAN.drive, GAETAN.interaction)
    r_c_um = units.length_m * 1e6
    b0_mt = units.field_T * 1e3
    ok = abs(r_c_um - 7.9) <= 0.4 and abs(b0_mt - 1.8) <= 0.2

    from rydgauge.model import (
        BEGUIN2013_C6_RANGE_RAD_S_M6,
        BEGUIN2013_RABI_RANGE_RAD_S,
    )

    beguin = get_preset("beguin2013")
    r_values, b_values = [], []
    for rabi in BEGUIN2013_RABI_RANGE_RAD_S:
        for c6 in BEGUIN2013_C6_RANGE_RAD_S_M6:
            drive = dataclasses.replace(beguin.drive, rabi_magnitude_rad_s=rabi)
            model = dataclasses.replace(beguin.interaction, coefficient=-c6)
            corner = ModelUnits.from_experiment(drive, model)
            r_values.append(corner.length_m * 1e6)
            b_values.append(corner.field_T * 1e3)
    ok = ok and 3.2 <= min(r_values) and max(r_values) <= 17.0
    ok = ok and 0.7 <= min(b_values) and max(b_values) <= 4.4

    recoil_uk = units.scalar_a_J / BOLTZMANN * 1e6
    ok = ok and 1.0 <= recoil_uk <= 1.5
    _emit(
        "experiment-scale presets",
        ok,
        f"gaetan2009 r_c {r_c_um:.2f} um (7.9 +/- 0.4), B0 {b0_mt:.2f} mT "
        f"(1.8 +/- 0.2); beguin2013 r_c {min(r_values):.1f}-{max(r_values):.1f} um "
        f"(within [3.2, 17]), B0 {min(b_values):.2f}-{max(b_values):.2f} mT "
        f"(within [0.7, 4.4]); recoil unit {recoil_uk:.2f} uK (1.0-1.5)",
    )


# final z (um) of the README flyby by the DOP853 integrator of
# bench/reference.py at rtol 1e-13
README_FLYBY_Z_DOP853_UM = 0.7000195652292


def test_flyby_deflection_scenario(monkeypatch):
    started = time.perf_counter()
    scenario = deflection_scenario()
    trajectory = integrate(scenario)
    assert not trajectory.aborted, trajectory.reason
    deflection_um = trajectory.position_m[-1, 2] * 1e6
    r_c = ModelUnits.from_experiment(scenario.drive, scenario.interaction).length_m
    ts, xs = trajectory.t_s, trajectory.position_m[:, 0]
    assert xs[0] < -r_c and xs[-1] > r_c  # the path spans the crossing region
    crossing_us = (np.interp(r_c, xs, ts) - np.interp(-r_c, xs, ts)) * 1e6
    worst_adiabaticity = trajectory.adiabaticity.max()
    speeds = np.linalg.norm(trajectory.velocity_m_s, axis=1)
    energy_drift = (speeds.max() - speeds.min()) / speeds[0]

    # convergence: the final z error falls with the tolerance, at most
    # RTOL um and at least 3x per decade (0.28 RTOL and 5.6x measured)
    rtols = (1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
    errors = []
    for rtol in rtols:
        monkeypatch.setattr(dynamics, "RTOL", rtol)
        errors.append(abs(integrate(scenario).position_m[-1, 2] * 1e6 - README_FLYBY_Z_DOP853_UM))
    decade_cut = min(coarse / fine for coarse, fine in zip(errors, errors[1:]))
    elapsed = time.perf_counter() - started
    ok = (
        0.3 <= abs(deflection_um) <= 3.0
        and abs(crossing_us - 160.0) <= 5.0
        and worst_adiabaticity <= 0.05
        and energy_drift < 1e-8
        and all(err <= rtol for err, rtol in zip(errors, rtols))
        and decade_cut >= 3.0
        and elapsed < 60.0
    )
    _emit(
        "flyby deflection scenario",
        ok,
        f"z-deflection {deflection_um:.3f} um (in [0.3, 3]), crossing "
        f"{crossing_us:.1f} us (160 +/- 5), adiabaticity {worst_adiabaticity:.1e} "
        f"(<= 0.05), speed drift {energy_drift:.1e} (< 1e-8), error vs DOP853 "
        f"{errors[0]:.1e} -> {errors[-1]:.1e} um at RTOL 1e-6 -> 1e-10 (<= RTOL um), "
        f"cut >= {decade_cut:.1f}x per decade (>= 3), {elapsed:.1f} s (< 1 min)",
    )


def test_com_frame_decomposition():
    # validate's check at 1 separation, here on 200: the A sum, the variance
    # identity, the equal-mass cross term and nonnegativity, all three labels
    grid = np.geomspace(0.1, 10.0, 200)
    result = _check_com(grid)
    _emit("center-of-mass decomposition", result.passed,
          f"{result.detail} (< 1e-10) over a {grid.size}-point grid x 3 labels")


def test_deterministic_outputs(capsys):
    scan_args = [
        "scan", "--preset", "gaetan2009", "--detuning-ratio", "0",
        "--rmin", "0.1", "--rmax", "5", "--points", "400",
    ]
    assert main(scan_args) == 0
    first_scan = capsys.readouterr().out
    assert main(scan_args) == 0
    second_scan = capsys.readouterr().out

    first_report = report(run_checks(quick=True))
    second_report = report(run_checks(quick=True))
    ok = first_scan == second_scan and first_report == second_report
    with capsys.disabled():
        _emit(
            "deterministic outputs",
            ok and first_report.splitlines()[-1].endswith("0 failed"),
            f"reference scan byte-identical: {first_scan == second_scan}; "
            f"quick validation byte-identical: {first_report == second_report}",
        )
