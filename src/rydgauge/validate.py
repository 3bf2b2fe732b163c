"""Self-contained oracle and invariant checks behind `validate`.

Every check is deterministic (a fixed draw design, fixed grids) and
returns a named pass/fail with a one-line detail, so two consecutive
runs produce byte-identical reports.  The closed forms are compared
with the oracle in ``dense``, which cannot read them: this module keeps
the draws, the point sets and the comparisons, and hands ``dense`` label
rows (``spectrum._label_rows``) rather than names.  The energies are
compared at the draws of :func:`_draws`: four fifths fill the box
|u| <= 100, |w| <= 5 with a low-discrepancy sequence, one fifth lies in
the band around the antiblockade line u = 2w at |w| in [50, 200].  The
quick tier compares 2,000 dense spectra and checks A and phi at 6
points; the full tier compares 10,000 and checks 240 points (8
separations x 5 detunings x 2 interactions x 3 labels), as one batch per
interaction kind with one drive per point: each closed form is one call
per kind, and so is the oracle, one eigensystem that serves A and phi.
The acceptance tests run the same check functions at 10,000 draws and
360 points (12 separations), the field symmetries on 9 separations
instead of 7 and the COM split on 200 separations instead of 1.  The
checks of the limits work in reduced units on (u, w) grids: one general
solve and one call of the limit's array function in ``regimes`` each.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import dense
from .analysis import scan_1d
from .com_frame import com_scalar_potentials, com_vector_potentials
from .constants import TWOPI
from .gauge import (
    _radial_spectrum,
    connection_profile,
    field_profile,
    magnetic_field,
    scalar_profile,
)
from .model import (
    DriveParams,
    InteractionKind,
    InteractionModel,
    ReducedParameters,
    get_preset,
    reduced_parameters,
)
from .regimes import (
    antiblockade_distances,
    blockade_correspondence,
    blockade_effective,
    blockade_gauge,
    effective_hamiltonian,
    single_atom_gauge,
    weak_expansion,
)
from .spectrum import LABELS, _label_rows, labeled_spectrum
from .tables import scan_table, to_csv

_DRAW_CHUNK = 1000  # eigenvalue draws checked at once
_G = 1.1673039782614187  # real root of g**5 = g + 1, the generalized golden ratio of R_4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _drive(detuning_ratio: float = 0.0) -> DriveParams:
    base = get_preset("gaetan2009").drive
    return dataclasses.replace(base, detuning_rad_s=detuning_ratio * base.rabi_magnitude_rad_s)


def _model(kind: InteractionKind, sign: float) -> InteractionModel:
    coefficient = {
        InteractionKind.RDD: TWOPI * 3200e6 * 1e-18,
        InteractionKind.VDW: TWOPI * 300e9 * 1e-36,
    }[kind]
    return InteractionModel(kind=kind, coefficient=sign * coefficient)


def _draws(n: int):
    """The eigenvalue check's n draws (u, w, rabi_phase, phase_a), the same
    bits on every call.

    Draw i = 1..n starts from the R_4 low-discrepancy point
    frac(0.5 + i / g**[1, 2, 3, 4]), g**5 = g + 1, scaled to the box
    |u| <= 100, |w| <= 5 and phases in [0, 2 pi).  The last n // 5 draws
    move to the band around the antiblockade line u = 2w instead: |w| in
    [50, 200], of alternating sign, and u = 2w (1 + s) with |s| log-spaced
    from 1e-12 to 1 and the sign of s alternating in pairs, so both sides
    of the line are drawn and |u| runs past ``spectrum.DEFLATE_AT``.
    """
    x = (0.5 + np.arange(1, n + 1)[:, None] / _G ** np.arange(1, 5)) % 1.0
    u, w = 200.0 * x[:, 0] - 100.0, 10.0 * x[:, 1] - 5.0
    k = np.arange(n // 5)
    band = slice(n - k.size, n)
    w[band] = np.where(k % 2, -1.0, 1.0) * (50.0 + 150.0 * x[band, 1])
    s = np.where(k // 2 % 2, -1.0, 1.0) * np.geomspace(1e-12, 1.0, k.size)
    u[band] = 2.0 * w[band] * (1.0 + s)
    return u, w, TWOPI * x[:, 2], TWOPI * x[:, 3]


def _check_eigenvalues(draws: int) -> CheckResult:
    """Closed-form energies against the dense ones, sorted with the dark zero, and
    in label order: sorted equality plus E_1 >= E_- >= E_+ at every draw
    is equality label by label."""
    u, w, rabi_phase, phase_a = _draws(draws)
    chunk_worst = []  # the dense 4x4s of all draws at once would set validate's peak memory
    ordered = True
    for start in range(0, draws, _DRAW_CHUNK):
        part = slice(start, start + _DRAW_CHUNK)
        energies, _, _ = labeled_spectrum(u[part], w[part])
        ordered &= bool(np.all(energies[:-1] >= energies[1:]))
        analytic = np.sort(np.vstack([np.zeros(energies.shape[1]), energies]).T, axis=1)  # dark 0
        numeric = dense.eigvalsh(
            dense.dense_hamiltonian(u[part], w[part], phase_a[part], rabi_phase[part]))
        chunk_worst.append(np.max(np.abs(numeric - analytic) / np.maximum(1.0, np.abs(analytic))))
    worst = float(np.max(chunk_worst))  # a NaN in any chunk propagates and fails the check
    return CheckResult(
        name="eigenvalues_analytic_vs_dense",
        passed=ordered and worst < 1e-10,
        detail=f"{draws} draws, worst rel {worst:.2e}",
    )


def _per_drive(model: InteractionModel, detunings) -> ReducedParameters:
    """``model`` under one drive per entry of ``detunings``: w, the dressing
    ratio and kappa take its shape, each entry with the bits of
    ``reduced_parameters(_drive(w), model)``."""
    ws = np.asarray(detunings, dtype=float)
    per_w = {w: reduced_parameters(_drive(w), model) for w in set(ws.ravel().tolist())}
    w, lam, kappa = (
        np.array([getattr(per_w[w], field) for w in ws.ravel().tolist()]).reshape(ws.shape)
        for field in ("detuning_ratio", "dressing_ratio", "kappa")
    )
    return ReducedParameters(w, lam, model.sign, model.power, kappa)


def _kind_batches(points):
    """Yield (reduced, separations, labels) per interaction kind of the
    (x, w, kind, label) points, with one drive per point (:func:`_per_drive`)."""
    for kind in InteractionKind:
        members = [(x, w, label) for x, w, k, label in points if k is kind]
        if members:
            xs, ws, labels = zip(*members)
            yield _per_drive(_model(kind, -1.0), ws), np.array(xs, dtype=float), np.array(labels)


def _own_rows(per_label: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each point's own row of a (3, n) closed-form profile."""
    return per_label[rows, np.arange(rows.size)]


def _check_gauge(points) -> tuple[CheckResult, CheckResult]:
    """Closed-form A against the dense Berry connection and closed-form phi
    against the dense coupling sum, from one eigensystem per interaction kind."""
    worst = []
    for reduced, x, labels in _kind_batches(points):
        rows = _label_rows(labels)
        closed_a = _own_rows(connection_profile(x, reduced), rows)
        closed_phi = _own_rows(scalar_profile(x, reduced), rows)
        a, phi = dense.gauge_potentials(reduced, x, rows)
        worst.append([(np.hypot(a[:, 0], a[:, 1] - closed_a) / np.abs(closed_a)).max(),
                      (np.abs(phi - closed_phi) / np.abs(closed_phi)).max()])
    worst = np.max(worst, axis=0).tolist()  # a NaN in any batch propagates and fails its check
    names = ("berry_connection_closed_vs_dense", "scalar_potential_closed_vs_dense")
    return tuple(
        CheckResult(name=name, passed=rel < 1e-6,
                    detail=f"{len(points)} samples, worst rel {rel:.2e}")
        for name, rel in zip(names, worst)
    )


def _check_plateaus() -> CheckResult:
    drive = _drive(0.0)
    model = _model(InteractionKind.RDD, -1.0)
    reduced = reduced_parameters(drive, model)
    near, far = connection_profile([0.02, 50.0], reduced).T
    near = np.sort(near)
    dev = float(np.max([  # unlike max(), np.max keeps a NaN, which fails the check
        abs(near[0] + 1.0),
        abs(near[1] + 0.25),
        abs(near[2] + 0.25),
        np.abs(far + 0.5).max(),
    ]))
    return CheckResult(
        name="vector_potential_plateaus",
        passed=dev < 1e-3,
        detail=f"worst plateau deviation {dev:.2e} hbar*k_L",
    )


def _check_blockade() -> CheckResult:
    """Both effective branches against the general solve on one (drive, x) grid."""
    model = _model(InteractionKind.RDD, -1.0)
    mapping = blockade_correspondence(model.sign)
    reduced = _per_drive(model, [[0.0], [-1.0]])  # one drive per row
    x = np.array([0.1, 0.05, 0.02])
    general = _radial_spectrum(x, reduced)
    rows = _label_rows([mapping["eff_plus"], mapping["eff_minus"]])
    a, phi = blockade_gauge(x, reduced)
    a_gen, phi_gen = general.connection[rows], general.scalar(reduced.kappa)[rows]
    dev_a, dev_phi = np.abs(a - a_gen) / np.abs(a_gen), np.abs(phi - phi_gen) / np.abs(phi_gen)
    devs = np.maximum(dev_a, dev_phi).max(axis=0)  # (drive, x), worst over both branches
    monotone = bool(np.all(np.diff(devs, axis=1) < 0.0))
    worst_tail = float(devs[:, 1].max())
    passed = monotone and worst_tail < 0.01
    return CheckResult(
        name="blockade_limit_matches_general",
        passed=passed,
        detail=f"dev at 0.05 r_c {worst_tail:.2e}, monotone {monotone}",
    )


def _check_weak() -> CheckResult:
    reduced = reduced_parameters(_drive(-1.0), _model(InteractionKind.RDD, -1.0))
    # x -> x*2^(1/3) halves the cube-law shift, so the quadratic error
    # of the first-order expansion must drop by a factor of 4.
    x = np.array([20.0, 20.0 * 2.0 ** (1.0 / 3.0)])
    general = connection_profile(x, reduced)
    weak = weak_expansion(reduced.shift_ratio(x), reduced.detuning_ratio)
    residuals = np.abs(general[0] - weak[0])
    ratio = residuals[0] / residuals[1]
    return CheckResult(
        name="weak_expansion_quadratic_residual",
        passed=abs(ratio - 4.0) <= 0.4,
        detail=f"residual ratio under V halving {ratio:.4f}",
    )


def _check_symmetry(xs) -> CheckResult:
    """Label-swap and detuning symmetries of B over the separations ``xs``,
    plus its azimuthal direction at one separation vector."""
    w = -1.3
    drive_fwd = _drive(w)
    drive_rev = _drive(-w)
    model_att = _model(InteractionKind.RDD, -1.0)
    model_rep = _model(InteractionKind.RDD, +1.0)
    b_fwd = field_profile(xs, reduced_parameters(drive_fwd, model_att))
    b_rev = field_profile(xs, reduced_parameters(drive_rev, model_rep))
    one_plus = np.abs(b_fwd[0] - b_rev[2]).max()
    minus = np.abs(b_fwd[1] - b_rev[1]).max()
    r_vec = np.array([0.8, 0.3, 0.6])
    b = magnetic_field(drive_fwd, model_att, "1", r_vec)
    khat = np.asarray(drive_fwd.wavevector_direction, dtype=float)
    azim = np.abs([np.dot(b, r_vec / np.linalg.norm(r_vec)), np.dot(b, khat)])
    worst = float(np.max([one_plus, minus, *azim]))  # a NaN propagates and fails the check
    return CheckResult(
        name="field_symmetries",
        passed=worst < 1e-10,
        detail=f"worst deviation {worst:.2e} B0",
    )


def _check_com(xs) -> CheckResult:
    """The COM split of every label over the separations ``xs``, atom b at
    40/87 of atom a's mass: A_R is the plain sum, the momentum variances
    weighted by 1/m_a + 1/m_b equal the COM and relative ones, the phase
    cross term leaves the relative part exactly as equal masses remove it,
    and both scalar parts are nonnegative."""
    even = _drive(-1.0)  # both atoms of the preset's mass
    drive = dataclasses.replace(even, mass_b_kg=even.mass_b_kg * 40.0 / 87.0)
    model = _model(InteractionKind.RDD, -1.0)
    m_a, m_b = drive.mass_a_kg, drive.mass_b_kg
    m_total = m_a + m_b
    reduced = reduced_parameters(drive, model)
    khat = np.asarray(drive.wavevector_direction, dtype=float)
    a_single = connection_profile(xs, reduced)[..., None] * khat
    a_com, _ = com_vector_potentials(a_single, a_single, m_a, m_b)
    sum_exact = bool(np.all(a_com == 2.0 * a_single))
    phi = scalar_profile(xs, reduced)
    com = com_scalar_potentials(drive, model, xs)
    lhs = phi / m_a + phi / m_b
    rhs = com.phi_com / m_total + com.phi_relative / (m_a * m_b / m_total)
    identity = float(np.max(np.abs(lhs - rhs) / lhs))
    cross = com.phi_relative - com_scalar_potentials(even, model, xs).phi_relative
    expected = ((m_b - m_a) / m_total) ** 2 * com.phi_com / 4.0
    cross_dev = float(np.max(np.abs(cross - expected) / expected))
    nonneg = bool(np.all(com.phi_com >= 0.0) and np.all(com.phi_relative >= 0.0))
    return CheckResult(
        name="com_frame_decomposition",
        passed=sum_exact and identity < 1e-10 and cross_dev < 1e-10 and nonneg,
        detail=f"variance identity rel {identity:.2e}",
    )


def _check_antiblockade() -> CheckResult:
    model = _model(InteractionKind.RDD, -1.0)
    reduced = reduced_parameters(_drive(-1.0), model)
    radii, _ = antiblockade_distances(reduced)
    targets = reduced.detuning_ratio * np.array([1.0, 2.0])  # u = w and u = 2w
    dev = float((np.abs(reduced.shift_ratio(radii) - targets) / np.abs(targets)).max())
    empty, reason = antiblockade_distances(reduced_parameters(_drive(1.0), model))
    passed = dev < 1e-12 and empty.size == 0 and bool(reason)
    return CheckResult(
        name="antiblockade_distances_solve_resonance",
        passed=passed,
        detail=f"residual of V(r) at resonance {dev:.2e}",
    )


def _check_effective_hamiltonian() -> CheckResult:
    reduced = reduced_parameters(_drive(-0.7), _model(InteractionKind.RDD, -1.0))
    u, w = reduced.shift_ratio(0.05), reduced.detuning_ratio
    h = effective_hamiltonian(u, w)
    light_shift = 1.0 / (2.0 * (u - 4.0 * w / 3.0))
    trace_dev = abs(np.trace(h) + light_shift)
    dark_dev = abs(h[0, 0] + w / 3.0)
    spectrum_dev = np.abs(dense.eigvalsh(h) - np.sort(blockade_effective(u, w))).max()
    worst = float(np.max([trace_dev, dark_dev, spectrum_dev]))  # a NaN propagates and fails
    return CheckResult(
        name="blockade_effective_spectrum",
        passed=worst < 1e-12,
        detail=f"worst deviation {worst:.2e} (hbar*|Omega| units)",
    )


def _check_single_atom() -> CheckResult:
    a, phi = single_atom_gauge(0.0)  # rows: branch '+', branch '-'
    dev = float(np.max(np.abs([a[0] + 0.5, phi[0] - 0.25])))  # a NaN propagates and fails
    return CheckResult(
        name="single_atom_limits",
        passed=dev < 1e-14,
        detail=f"delta=0 branch '+' deviation {dev:.2e}",
    )


def _check_determinism() -> CheckResult:
    drive = _drive(0.0)
    model = _model(InteractionKind.RDD, -1.0)
    grid = np.geomspace(0.5, 2.0, 11)
    first = to_csv(scan_table(scan_1d(drive, model, grid)))
    second = to_csv(scan_table(scan_1d(drive, model, grid)))
    return CheckResult(
        name="scan_serialization_deterministic",
        passed=first == second,
        detail=f"{len(first)} bytes, identical {first == second}",
    )


def run_checks(quick: bool = True) -> list[CheckResult]:
    """Run the named validation suite; full mode widens draws and grids."""
    if quick:
        draws = 2000
        oracle_points = [
            (1.0, 0.0, InteractionKind.RDD, "1"),
            (1.0, 0.0, InteractionKind.RDD, "-"),
            (1.0, 0.0, InteractionKind.RDD, "+"),
            (0.5, -2.0, InteractionKind.VDW, "+"),
            (0.9427, -1.0, InteractionKind.VDW, "-"),
            (5.0, 1.0, InteractionKind.RDD, "1"),
        ]
    else:
        draws = 10000
        oracle_points = [
            (x, w, kind, label)
            for kind in (InteractionKind.RDD, InteractionKind.VDW)
            for w in (-3.0, -2.0, -1.0, 0.0, 1.0)
            for label in LABELS
            for x in np.geomspace(0.1, 10.0, 8)
        ]
    return [
        _check_eigenvalues(draws),
        *_check_gauge(oracle_points),
        _check_plateaus(),
        _check_blockade(),
        _check_weak(),
        _check_symmetry(np.geomspace(0.3, 3.0, 7)),
        _check_com(np.array([1.0])),
        _check_antiblockade(),
        _check_effective_hamiltonian(),
        _check_single_atom(),
        _check_determinism(),
    ]


def summary_line(results: list[CheckResult]) -> str:
    passed = sum(1 for r in results if r.passed)
    return f"oracles: {passed} passed, {len(results) - passed} failed"


def report(results: list[CheckResult]) -> str:
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    lines.append(summary_line(results))
    return "\n".join(lines) + "\n"
