"""Tests for the shared oracle checks behind `rydgauge validate`."""

import numpy as np
import pytest

from rydgauge import gauge, validate
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
    "berry_connection_closed_vs_fd",
    "scalar_potential_closed_vs_fd",
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


def test_fd_oracles_do_not_use_the_closed_form(monkeypatch):
    """The oracles agree with A and phi while the closed-form solve raises."""
    drive = validate._drive(-1.0)
    model = validate._model(RDD, -1.0)
    reduced = reduced_parameters(drive, model)
    x = np.repeat(np.geomspace(0.1, 10.0, 4), 3)
    labels = np.array(LABELS * 4)
    pick = ([validate.LABELS.index(label) for label in labels], np.arange(x.size))
    a = gauge.connection_profile(x, reduced)[pick]
    phi = gauge.scalar_profile(x, reduced)[pick]

    def forbidden(*args, **kwargs):
        raise AssertionError("oracle called gauge._radial_spectrum")

    monkeypatch.setattr(gauge, "_radial_spectrum", forbidden)
    with pytest.raises(AssertionError):
        gauge.connection_profile(x, reduced)
    berry = gauge.berry_connection_fd(drive, model, labels, np.outer(x, [1.0, 0.0, 0.0]))
    overlap = gauge.scalar_potential_fd(drive, model, labels, x)
    assert np.abs(berry.vector[:, 2] / a - 1.0).max() < 1e-6
    assert np.abs(berry.vector[:, :2]).max() < 1e-6 * np.abs(a).min()
    assert np.abs(overlap / phi - 1.0).max() < 1e-6


def test_full_tier_passes_with_its_report_names_in_order():
    results = validate.run_checks(quick=False)
    assert [r.name for r in results] == CHECK_NAMES
    assert [r.passed for r in results] == [True] * 12
    assert results[0].detail.startswith("10000 draws")
    assert results[1].detail.startswith("240 samples")
    assert validate.report(results).splitlines()[-1] == "oracles: 12 passed, 0 failed"
