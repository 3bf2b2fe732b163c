"""Tests for the shared oracle checks behind `rydgauge validate`."""

import dataclasses

import numpy as np
import pytest

from rydgauge import gauge, spectrum, validate
from rydgauge.cli import main
from rydgauge.model import InteractionKind, reduced_parameters
from rydgauge.spectrum import LABELS

RDD, VDW = InteractionKind.RDD, InteractionKind.VDW
POINTS = [
    (1.0, 0.0, RDD, "1"),
    (0.3, -2.0, VDW, "+"),
    (0.05, -2.0, VDW, "-"),  # deflated branch
    (5.0, 1.0, RDD, "-"),
]
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


@pytest.mark.parametrize(
    "name,perturb,check",
    [
        ("labeled_spectrum", _energies_scaled, lambda: validate._check_eigenvalues(200)),
        ("connection_profile", _scaled, lambda: validate._check_berry(POINTS)),
        ("scalar_profile", _scaled, lambda: validate._check_scalar(POINTS)),
    ],
)
def test_checks_fail_on_a_closed_form_off_by_1e5(monkeypatch, name, perturb, check):
    """Each oracle check resolves a 1e-5 relative error of its closed form."""
    assert check().passed
    monkeypatch.setattr(validate, name, perturb(getattr(validate, name), 1.0 + 1e-5))
    assert not check().passed


@pytest.mark.parametrize("bad", [np.nan, 1.0 + 1e-5])
def test_eigenvalue_check_reads_every_chunk(monkeypatch, bad):
    """The draws are checked in chunks with the report of one chunk, and one wrong
    energy in the last, partial chunk still fails the check."""
    whole = validate._check_eigenvalues(2500)
    monkeypatch.setattr(validate, "_DRAW_CHUNK", 2500)
    assert validate._check_eigenvalues(2500) == whole
    monkeypatch.setattr(validate, "_DRAW_CHUNK", 1000)
    spectrum = validate.labeled_spectrum

    def last_chunk_off(u, w):
        energies, ee, gg = spectrum(u, w)
        if u.size < 1000:
            energies[0, -1] *= bad
        return energies, ee, gg

    monkeypatch.setattr(validate, "labeled_spectrum", last_chunk_off)
    assert not validate._check_eigenvalues(2500).passed


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
    ``edit`` of its value, a copy holding a NaN."""
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
    (lambda: validate._check_berry(POINTS), "connection_profile", 1, _LAST),
    (lambda: validate._check_berry(POINTS), "_dense_gauge", 1, _dense_nan(0, (-1, 1))),
    (lambda: validate._check_berry(POINTS), "_dense_gauge", 1, _dense_nan(0, (-1, 0))),
    (lambda: validate._check_scalar(POINTS), "scalar_profile", 1, _LAST),
    (lambda: validate._check_scalar(POINTS), "_dense_gauge", 1, _dense_nan(1, -1)),
    # the plateaus: the near one ('+' sorts a NaN last) and the far one
    (validate._check_plateaus, "connection_profile", 0, _nan_at(1)),
    (validate._check_plateaus, "connection_profile", 1, _nan_at(1)),
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


@pytest.mark.parametrize("name,first,check", [
    ("dense_hamiltonian", 1, "eigenvalues_analytic_vs_dense"),  # the last chunk's last draw
    ("effective_hamiltonian", 0, "blockade_effective_spectrum"),
    ("dense_hamiltonian", 2, "berry_connection_closed_vs_dense"),  # the first kind's last point
])
def test_a_nan_handed_to_eigvalsh_fails_its_check_by_name(monkeypatch, name, first, check):
    """LAPACK raises or returns finite values on a NaN, by build; either way
    the run goes on and reports that check, and only it, as failed.  The NaN
    sits below the diagonal, where eigvalsh and eigh alone read it."""
    def edit(h):
        h = h.copy()
        h.reshape(-1, *h.shape[-2:])[-1, 2, 1] = np.nan  # the last matrix of the stack
        return h

    calls = _nan_at_call(monkeypatch, name, first, edit)
    results = validate.run_checks(quick=True)
    assert len(calls) > first
    assert len(results) == 12
    failed = [line for line in validate.report(results).splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL {check}: {r.detail}" for r in results if r.name == check]
    assert "nan" in failed[0]


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


def test_full_tier_oracles_make_one_eigh_per_kind_per_check(monkeypatch):
    """A and phi at 240 points: one dense eigensystem per interaction kind
    in each of the two checks."""
    calls = []
    solve = validate._eigensystem

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(validate, "_eigensystem", counted)
    results = [r for r in validate.run_checks(quick=False) if r.name.endswith("_closed_vs_dense")]
    assert [r.passed for r in results] == [True, True]
    assert len(calls) == 4


QUICK_REPORT = """\
PASS eigenvalues_analytic_vs_dense: 2000 draws, worst rel 2.58e-15
PASS berry_connection_closed_vs_dense: 6 samples, worst rel 1.48e-14
PASS scalar_potential_closed_vs_dense: 6 samples, worst rel 1.52e-14
"""
FULL_REPORT = """\
PASS eigenvalues_analytic_vs_dense: 10000 draws, worst rel 2.96e-15
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
