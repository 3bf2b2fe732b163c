"""Tests for the shared oracle checks behind `rydgauge validate`."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rydgauge
from rydgauge import gauge, spectrum, validate
from rydgauge.cli import main
from rydgauge.constants import TWOPI
from rydgauge.model import InteractionKind, reduced_parameters
from rydgauge.spectrum import DEFLATE_AT, LABELS

RDD, VDW = InteractionKind.RDD, InteractionKind.VDW
POINTS = [
    (1.0, 0.0, RDD, "1"),
    (0.3, -2.0, VDW, "+"),
    (0.05, -2.0, VDW, "-"),  # deflated branch
    (5.0, 1.0, RDD, "-"),
]
CHUNKED = 7500  # draws: the box, then 1,500 band draws in chunks 6 and 7 of 1,000
BAND_CHUNKS = {6: "band", 7: "last, partial"}
CHECK_NAMES = [
    "eigenvalues_analytic_vs_dense",
    "berry_connection_closed_vs_dense",
    "scalar_potential_closed_vs_dense",
    "vector_potential_plateaus",
    "blockade_limit_matches_general",
    "weak_expansion_quadratic_residual",
    "field_symmetries",
    "com_frame_decomposition",
    "antiblockade_distances_solve_resonance",
    "blockade_effective_spectrum",
    "single_atom_limits",
    "scan_serialization_deterministic",
]


def _energies_scaled(spectrum, factor):
    def scaled(*args):
        energies, ee, gg = spectrum(*args)
        return energies * factor, ee, gg

    return scaled


def _scaled(profile, factor):
    return lambda *args: profile(*args) * factor


CHECK_OF = {  # the check that reads each closed form
    "labeled_spectrum": "eigenvalues_analytic_vs_dense",
    "connection_profile": "berry_connection_closed_vs_dense",
    "scalar_profile": "scalar_potential_closed_vs_dense",
}


@pytest.mark.parametrize(
    "name,perturb,check",
    [
        ("labeled_spectrum", _energies_scaled, lambda: [validate._check_eigenvalues(200)]),
        ("connection_profile", _scaled, lambda: validate._check_gauge(POINTS)),
        ("scalar_profile", _scaled, lambda: validate._check_gauge(POINTS)),
    ],
)
def test_checks_fail_on_a_closed_form_off_by_1e5(monkeypatch, name, perturb, check):
    """Each oracle check resolves a 1e-5 relative error of its closed form,
    and the A and phi checks, which share one eigh, fail only on their own."""
    assert all(r.passed for r in check())
    monkeypatch.setattr(validate, name, perturb(getattr(validate, name), 1.0 + 1e-5))
    assert [r.name for r in check() if not r.passed] == [CHECK_OF[name]]


@pytest.mark.parametrize("draws", [10_000, CHUNKED])
def test_draws_are_fixed_and_fill_the_box_and_the_band(draws):
    """The same bits on every call; four fifths of the draws in the box
    |u| <= 100, |w| <= 5, the rest in the band around u = 2w with both signs
    of w and points past DEFLATE_AT on each side of the line."""
    first, second = validate._draws(draws), validate._draws(draws)
    assert [v.tobytes() for v in first] == [v.tobytes() for v in second]
    u, w, rabi_phase, phase_a = first
    for phase in (rabi_phase, phase_a):
        assert np.all((phase >= 0.0) & (phase < TWOPI))
    box, band = slice(0, draws - draws // 5), slice(draws - draws // 5, None)
    assert np.all(np.abs(u[box]) <= 100.0) and np.all(np.abs(w[box]) <= 5.0)
    assert np.all((np.abs(w[band]) >= 50.0) & (np.abs(w[band]) <= 200.0))
    side = u[band] / (2.0 * w[band]) - 1.0
    assert np.abs(side).min() < 1e-11 and np.abs(side).max() > 0.99
    deflated = np.abs(u[band]) > DEFLATE_AT
    for w_sign in (-1.0, 1.0):
        for s_sign in (-1.0, 1.0):
            assert np.any(deflated & (np.sign(w[band]) == w_sign) & (np.sign(side) == s_sign))


def _deflated_roots_as_swapped(roots_deflated):
    """``roots_deflated`` with the interaction root (the one nearest u - w)
    put first where u > 0 and last where u < 0 instead of by value, the
    order that swaps '-' and '+' between u = 2w and |u| = DEFLATE_AT."""
    def swapped(u, w):
        roots = roots_deflated(u, w)
        rows = np.arange(3).reshape(-1, *([1] * np.ndim(u)))
        interaction = rows == np.abs(roots - (u - w)).argmin(axis=0)
        key = np.where(interaction, np.copysign(np.inf, -u), -roots)
        return np.take_along_axis(roots, np.argsort(key, axis=0, kind="stable"), 0)

    return swapped


@pytest.mark.parametrize("draws", [2000, 10_000])
def test_eigenvalue_check_fails_on_the_deflated_swap(monkeypatch, draws):
    """Both tiers' energy checks see '-' and '+' swapped on the deflated
    branch: only the band reaches it, and no box draw is out of order."""
    assert validate._check_eigenvalues(draws).passed
    monkeypatch.setattr(spectrum, "_roots_deflated",
                        _deflated_roots_as_swapped(spectrum._roots_deflated))
    u, w, _, _ = validate._draws(draws)
    energies, _, _ = spectrum.labeled_spectrum(u, w)
    unordered = np.any(energies[:-1] < energies[1:], axis=0)
    box = draws - draws // 5
    assert not unordered[:box].any() and unordered[box:].any()
    assert not validate._check_eigenvalues(draws).passed


def test_validate_loads_no_random_number_generator():
    """A fresh ``rydgauge validate --full`` imports neither numpy.random nor
    the OpenSSL hashing that its seeding pulls in."""
    env = dict(os.environ, PYTHONPATH=str(Path(rydgauge.__file__).resolve().parents[1]))
    script = ("import sys; from rydgauge.cli import main; code = main(['validate', '--full']); "
              "print(code, sorted({'numpy.random', '_hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"


def _last_energy_times(bad):
    """Edit of ``labeled_spectrum``'s (energies, ee, gg): the '1' energy of
    the last draw times ``bad``."""
    def edit(value):
        energies = value[0].copy()
        energies[0, -1] *= bad
        return (energies, *value[1:])

    return edit


@pytest.mark.parametrize("bad", [np.nan, 1.0 + 1e-5])
def test_eigenvalue_check_reads_every_chunk(monkeypatch, bad):
    """The draws are checked in chunks with the report of one chunk, and one
    wrong energy in a chunk of band draws or in the last, partial chunk still
    fails the check."""
    whole = validate._check_eigenvalues(CHUNKED)
    monkeypatch.setattr(validate, "_DRAW_CHUNK", CHUNKED)
    assert validate._check_eigenvalues(CHUNKED) == whole
    monkeypatch.undo()
    for chunk, where in BAND_CHUNKS.items():
        calls = _nan_at_call(monkeypatch, "labeled_spectrum", chunk, _last_energy_times(bad))
        assert not validate._check_eigenvalues(CHUNKED).passed, where
        assert len(calls) == 8
        monkeypatch.undo()


@pytest.mark.parametrize("rows", [[0, 1], [1, 2]], ids=["1-minus", "minus-plus"])
def test_eigenvalue_check_fails_on_two_labels_swapped_at_one_draw(monkeypatch, rows):
    """Sorted with the dark zero, swapped energies would still match eigvalsh;
    the label order E_1 >= E_- >= E_+ catches them."""
    solve = validate.labeled_spectrum

    def swapped(u, w):
        energies, ee, gg = solve(u, w)
        energies[rows, 7] = energies[rows[::-1], 7]  # two labels at one draw
        return energies, ee, gg

    before = validate._check_eigenvalues(200)
    assert before.passed
    monkeypatch.setattr(validate, "labeled_spectrum", swapped)
    after = validate._check_eigenvalues(200)
    assert not after.passed and after.detail == before.detail


def test_dense_oracle_does_not_use_the_closed_form(monkeypatch):
    """The dense A and phi agree with the closed forms while every
    closed-form solve raises."""
    drive = validate._drive(-1.0)
    model = validate._model(RDD, -1.0)
    reduced = reduced_parameters(drive, model)
    x = np.repeat(np.geomspace(0.1, 10.0, 4), 3)
    labels = np.array(LABELS * 4)
    pick = ([validate.LABELS.index(label) for label in labels], np.arange(x.size))
    a = gauge.connection_profile(x, reduced)[pick]
    phi = gauge.scalar_profile(x, reduced)[pick]

    def forbidden(*args, **kwargs):
        raise AssertionError("oracle called the closed-form solver")

    for module in (spectrum, gauge, validate):
        monkeypatch.setattr(module, "labeled_spectrum", forbidden)
    monkeypatch.setattr(gauge, "_radial_spectrum", forbidden)
    with pytest.raises(AssertionError):
        gauge.connection_profile(x, reduced)
    dense_a, dense_phi = validate._dense_gauge(reduced, x, labels, drive.rabi_phase_rad)
    assert np.abs(dense_a[:, 1] / a - 1.0).max() < 1e-6
    assert np.abs(dense_a[:, 0]).max() < 1e-6 * np.abs(a).min()
    assert np.abs(dense_phi / phi - 1.0).max() < 1e-6


def test_full_tier_passes_with_its_report_names_in_order():
    results = validate.run_checks(quick=False)
    assert [r.name for r in results] == CHECK_NAMES
    assert [r.passed for r in results] == [True] * 12
    assert results[0].detail.startswith("10000 draws")
    assert results[1].detail.startswith("240 samples")
    assert validate.report(results).splitlines()[-1] == "oracles: 12 passed, 0 failed"


def _nan_at_call(monkeypatch, name, first, edit):
    """Patch validate.<name> so that its ``first``-th call (0-based) returns
    ``edit`` of its value, a copy with one wrong entry, most often a NaN."""
    original, calls = getattr(validate, name), []

    def poisoned(*args, **kwargs):
        value = original(*args, **kwargs)
        calls.append(name)
        return edit(value) if len(calls) == first + 1 else value

    monkeypatch.setattr(validate, name, poisoned)
    return calls


def _nan_at(index):
    def edit(value):
        value = np.array(value, dtype=float)
        value[index] = np.nan
        return value

    return edit


def _dense_nan(quantity, index):
    """Edit of ``_dense_gauge``'s (a, phi): a NaN at ``index`` of one of them."""
    def edit(value):
        value = list(value)
        value[quantity] = _nan_at(index)(value[quantity])
        return tuple(value)

    return edit


_LAST = _nan_at((Ellipsis, -1))


@pytest.mark.parametrize("check,name,first,edit", [
    # A and phi: a NaN in the batch after the first, at the closed form or the
    # oracle, whose A has a component along the beam and a radial one
    (lambda: validate._check_gauge(POINTS)[0], "connection_profile", 1, _LAST),
    (lambda: validate._check_gauge(POINTS)[0], "_dense_gauge", 1, _dense_nan(0, (-1, 1))),
    (lambda: validate._check_gauge(POINTS)[0], "_dense_gauge", 1, _dense_nan(0, (-1, 0))),
    (lambda: validate._check_gauge(POINTS)[1], "scalar_profile", 1, _LAST),
    (lambda: validate._check_gauge(POINTS)[1], "_dense_gauge", 1, _dense_nan(1, -1)),
    # the plateaus, both separations in one call: the near one ('+' sorts a
    # NaN last) and the far one
    (validate._check_plateaus, "connection_profile", 0, _nan_at((1, 0))),
    (validate._check_plateaus, "connection_profile", 0, _nan_at((1, 1))),
    # B's label swap ('1' against '+'), its '-' row, its azimuthal direction
    (lambda: validate._check_symmetry(np.geomspace(0.3, 3.0, 7)), "field_profile", 1,
     _nan_at((2, -1))),
    (lambda: validate._check_symmetry(np.geomspace(0.3, 3.0, 7)), "field_profile", 1,
     _nan_at((1, -1))),
    (lambda: validate._check_symmetry(np.geomspace(0.3, 3.0, 7)), "magnetic_field", 0,
     _nan_at(0)),
    # the effective spectrum (a NaN in h itself: the eigvalsh test below)
    (validate._check_effective_hamiltonian, "blockade_effective", 0, _nan_at(1)),
    # the single atom's A and phi
    (validate._check_single_atom, "single_atom_gauge", 0, lambda v: (_nan_at(0)(v[0]), v[1])),
    (validate._check_single_atom, "single_atom_gauge", 0, lambda v: (v[0], _nan_at(0)(v[1]))),
], ids=["berry-closed", "berry-oracle", "berry-radial", "scalar-closed", "scalar-oracle",
        "plateau-near", "plateau-far", "symmetry-one-plus", "symmetry-minus", "symmetry-azimuth",
        "effective-spectrum", "single-atom-a", "single-atom-phi"])
def test_a_nan_in_any_term_fails_its_check(monkeypatch, check, name, first, edit):
    """Python's max drops a NaN after its first argument; every check must not."""
    assert check().passed
    calls = _nan_at_call(monkeypatch, name, first, edit)
    result = check()
    assert len(calls) > first
    assert not result.passed and "nan" in result.detail


def _nan_below_diagonal(h):
    """A copy of a stack of Hamiltonians with a NaN below the diagonal of its
    last matrix, where eigvalsh and eigh alone read it."""
    h = h.copy()
    h.reshape(-1, *h.shape[-2:])[-1, 2, 1] = np.nan
    return h


SHARED_EIGH = ("berry_connection_closed_vs_dense", "scalar_potential_closed_vs_dense")


@pytest.mark.parametrize("name,first,check", [
    # the last chunk's last draw, a band draw
    ("dense_hamiltonian", 1, "eigenvalues_analytic_vs_dense"),
    ("effective_hamiltonian", 0, "blockade_effective_spectrum"),
    ("dense_hamiltonian", 2, "berry_connection_closed_vs_dense"),  # the first kind's last point
])
def test_a_nan_handed_to_eigvalsh_fails_its_check_by_name(monkeypatch, name, first, check):
    """LAPACK raises or returns finite values on a NaN, by build; either way
    the run goes on and reports that check, and only it, as failed.  The A
    and phi checks read one eigh, so a NaN handed to it fails both."""
    calls = _nan_at_call(monkeypatch, name, first, _nan_below_diagonal)
    results = validate.run_checks(quick=True)
    assert len(calls) > first
    assert len(results) == 12
    failing = SHARED_EIGH if check in SHARED_EIGH else (check,)
    failed = [line for line in validate.report(results).splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL {r.name}: {r.detail}" for r in results if r.name in failing]
    assert all("nan" in line for line in failed)


@pytest.mark.parametrize("chunk", list(BAND_CHUNKS), ids=["band", "last-partial"])
def test_a_nan_handed_to_eigvalsh_in_a_late_chunk_fails_the_energy_check(monkeypatch, chunk):
    calls = _nan_at_call(monkeypatch, "dense_hamiltonian", chunk, _nan_below_diagonal)
    result = validate._check_eigenvalues(CHUNKED)
    assert len(calls) == 8
    assert not result.passed and "nan" in result.detail


def test_kind_batches_keep_the_bits_of_one_drive_calls():
    """The batched oracle and closed forms give every point the bytes of
    one call at its own drive and interaction."""
    columns = []
    for reduced, x, labels in validate._kind_batches(POINTS):
        dense_a, dense_phi = validate._dense_gauge(reduced, x, labels)
        a, phi = gauge.connection_profile(x, reduced), gauge.scalar_profile(x, reduced)
        columns += zip(dense_a, dense_phi, a.T, phi.T)
    in_batch_order = [p for kind in InteractionKind for p in POINTS if p[2] is kind]
    assert len(columns) == len(in_batch_order) == len(POINTS)
    for (x, w, kind, label), batched in zip(in_batch_order, columns):
        reduced = reduced_parameters(validate._drive(w), validate._model(kind, -1.0))
        single = (*validate._dense_gauge(reduced, x, label),
                  gauge.connection_profile(x, reduced), gauge.scalar_profile(x, reduced))
        assert [v.tobytes() for v in batched] == [np.asarray(v).tobytes() for v in single]


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_a_and_phi_share_one_eigh_per_kind(monkeypatch, quick):
    """A and phi at 6 or 240 points: one dense eigensystem per interaction
    kind serves both checks."""
    calls = []
    solve = validate._eigensystem

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(validate, "_eigensystem", counted)
    results = [r for r in validate.run_checks(quick=quick) if r.name in SHARED_EIGH]
    assert [r.passed for r in results] == [True, True]
    assert len(calls) == 2


QUICK_REPORT = """\
PASS eigenvalues_analytic_vs_dense: 2000 draws, worst rel 1.68e-11
PASS berry_connection_closed_vs_dense: 6 samples, worst rel 1.48e-14
PASS scalar_potential_closed_vs_dense: 6 samples, worst rel 1.52e-14
"""
FULL_REPORT = """\
PASS eigenvalues_analytic_vs_dense: 10000 draws, worst rel 1.93e-11
PASS berry_connection_closed_vs_dense: 240 samples, worst rel 2.67e-10
PASS scalar_potential_closed_vs_dense: 240 samples, worst rel 6.77e-10
"""
SHARED_REPORT = """\
PASS vector_potential_plateaus: worst plateau deviation 2.00e-06 hbar*k_L
PASS blockade_limit_matches_general: dev at 0.05 r_c 7.88e-09, monotone True
PASS weak_expansion_quadratic_residual: residual ratio under V halving 4.0000
PASS field_symmetries: worst deviation 1.89e-17 B0
PASS com_frame_decomposition: variance identity rel 0.00e+00
PASS antiblockade_distances_solve_resonance: residual of V(r) at resonance 2.22e-16
PASS blockade_effective_spectrum: worst deviation 1.11e-16 (hbar*|Omega| units)
PASS single_atom_limits: delta=0 branch '+' deviation 0.00e+00
PASS scan_serialization_deterministic: 2656 bytes, identical True
oracles: 12 passed, 0 failed
"""


@pytest.mark.parametrize("tier,head", [("--quick", QUICK_REPORT), ("--full", FULL_REPORT)])
def test_validate_reports_keep_their_bytes(tier, head, capsys):
    assert main(["validate", tier]) == 0
    assert capsys.readouterr().out == head + SHARED_REPORT
