"""Tests for the blockade, weak-dressing, single-atom and antiblockade limits."""

import dataclasses

import numpy as np
import pytest

from rydgauge.constants import HBAR, TWOPI
from rydgauge.gauge import connection_profile
from rydgauge.model import (
    InteractionKind,
    InteractionModel,
    crossover_distance,
    get_preset,
    reduced_parameters,
)
from rydgauge.regimes import (
    antiblockade_distances,
    blockade_correspondence,
    blockade_effective,
    blockade_gauge,
    effective_hamiltonian,
    single_atom_gauge,
    weak_expansion,
)
from rydgauge.spectrum import LABEL_INDEX, labeled_spectrum

GAETAN = get_preset("gaetan2009")
RDD_REP = InteractionModel(kind=InteractionKind.RDD, coefficient=+TWOPI * 3200e6 * 1e-18)
OMEGA = GAETAN.drive.rabi_magnitude_rad_s  # |Omega|: the frozen SI values divide by it


def _drive(w):
    base = GAETAN.drive
    return dataclasses.replace(base, detuning_rad_s=w * base.rabi_magnitude_rad_s)


def _reduced(w, model=GAETAN.interaction):
    return reduced_parameters(_drive(w), model)


def _effective_inputs():
    """(u, w) of the frozen effective spectrum: w = -0.7 at 0.05 r_c."""
    reduced = _reduced(-0.7)
    return reduced.shift_ratio(0.05), reduced.detuning_ratio


def test_effective_spectrum_frozen():
    u, w = _effective_inputs()
    h = effective_hamiltonian(u, w)
    dark, plus, minus = blockade_effective(u, w)
    # the light shift is minus the trace, where the +-w/3 shifts cancel
    assert -np.trace(h) == pytest.approx(-2091.3254314905112 / OMEGA, rel=1e-12, abs=0)
    scale = HBAR * OMEGA
    assert plus == pytest.approx(-3.9005383896703685e-27 / scale, rel=1e-12, abs=0)
    assert minus == pytest.approx(2.8958049628221455e-27 / scale, rel=1e-12, abs=0)
    assert dark == pytest.approx(-w / 3.0, rel=1e-12, abs=0)
    assert plus <= minus


def test_effective_hamiltonian_structure():
    u, w = _effective_inputs()
    h = effective_hamiltonian(u, w)
    assert h[0, 0] == pytest.approx(-w / 3.0, rel=1e-12, abs=0)
    assert h[0, 1] == h[0, 2] == 0.0  # dark state decouples
    assert np.trace(h) == pytest.approx(-1.0 / (2.0 * (u - 4.0 * w / 3.0)), rel=1e-12, abs=0)
    assert h[1, 2] == h[2, 1] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12, abs=0)
    # the closed-form energies are the eigenvalues, dark state included
    closed = np.sort(blockade_effective(u, w))
    assert np.abs(np.linalg.eigvalsh(h) - closed).max() < 1e-14
    # one call over a grid gives each point's own matrix and energies
    grid_u, grid_w = np.array([u, 2.0 * u]), np.array([[w], [-w]])
    grid_h = effective_hamiltonian(grid_u, grid_w)
    assert grid_h.shape == (2, 2, 3, 3)
    assert np.array_equal(grid_h[0, 0], h)
    assert blockade_effective(grid_u, grid_w).shape == (3, 2, 2)


def test_deep_blockade_splitting():
    """u -> infinity at w = 0 leaves the sqrt(2)-enhanced doublet."""
    reduced = _reduced(0.0)
    _, plus, minus = blockade_effective(reduced.shift_ratio(1e-3), 0.0)
    assert plus == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-6)
    assert minus == pytest.approx(+1.0 / np.sqrt(2.0), abs=1e-6)


def test_effective_theory_singularity():
    # place the atoms where u = 4w/3 up to the rounding of x
    reduced = _reduced(-0.9)
    resonant = 4.0 * reduced.detuning_ratio / 3.0
    x = (reduced.dressing_ratio / abs(resonant)) ** (1.0 / 3.0)
    with pytest.raises(ValueError, match="antiblockade"):
        blockade_gauge(np.array([0.05, x]), reduced)
    for closed_form in (effective_hamiltonian, blockade_effective):
        with pytest.raises(ValueError, match="antiblockade"):
            closed_form(resonant, reduced.detuning_ratio)


def test_blockade_gauge_zero_detuning_closed_form():
    """At w = 0 the branch potentials collapse to one ratio of u."""
    x = np.array([0.05, 0.3])
    u = -np.hypot(1.0, 0.0) / x**3
    a, _ = blockade_gauge(x, _reduced(0.0))
    expected = [
        (-1.0 - np.sign(u) / np.sqrt(1.0 + 8.0 * u * u)) / 4.0,  # eff+
        (-1.0 + np.sign(u) / np.sqrt(1.0 + 8.0 * u * u)) / 4.0,  # eff-
    ]
    for row, value in zip(a, expected):
        assert row == pytest.approx(value, rel=1e-12, abs=0)


def test_blockade_matches_general_in_the_deep_limit():
    reduced = _reduced(0.0)
    mapping = blockade_correspondence(GAETAN.interaction.sign)
    x = 0.05
    # attractive interaction maps eff+ -> '-', eff- -> '1'
    assert mapping == {"eff_plus": "-", "eff_minus": "1", "ee_like": "+"}
    a, phi = blockade_gauge(x, reduced)
    general = connection_profile(x, reduced)
    for row, branch in enumerate(("eff_plus", "eff_minus")):
        assert abs(a[row] - general[LABEL_INDEX[mapping[branch]]]) < 1e-4
    assert phi.shape == (2,)
    assert blockade_correspondence(+1.0) == {
        "eff_plus": "+", "eff_minus": "-", "ee_like": "1"
    }
    with pytest.raises(ValueError):
        blockade_correspondence(0.0)


def test_blockade_gauge_takes_one_drive_per_row():
    """Per-drive ReducedParameters arrays give each drive's own call, bit for bit."""
    x = np.array([0.1, 0.05, 0.02])
    drives = [_reduced(w) for w in (0.0, -1.0)]
    w, lam, kappa = (
        np.array([[getattr(r, f)] for r in drives])
        for f in ("detuning_ratio", "dressing_ratio", "kappa")
    )
    stacked = dataclasses.replace(drives[0], detuning_ratio=w, dressing_ratio=lam, kappa=kappa)
    a, phi = blockade_gauge(x, stacked)
    assert a.shape == phi.shape == (2, 2, 3)
    for i, reduced in enumerate(drives):
        one_a, one_phi = blockade_gauge(x, reduced)
        assert a[:, i].tobytes() == one_a.tobytes()
        assert phi[:, i].tobytes() == one_phi.tobytes()


def test_blockade_gauge_validation():
    reduced = _reduced(0.0)
    for bad in (0.0, -0.05):
        with pytest.raises(ValueError, match="separations"):
            blockade_gauge(np.array([0.05, bad]), reduced)


def test_weak_expansion_reduces_to_single_atom():
    for w in (0.0, -1.0, 2.5):
        lam = np.hypot(1.0, w)
        a1, aminus, aplus = weak_expansion(0.0, w)
        assert a1 == pytest.approx(0.5 * (-1.0 + w / lam), rel=1e-15)
        assert aplus == pytest.approx(0.5 * (-1.0 - w / lam), rel=1e-15)
        assert aminus == pytest.approx(-0.5, rel=1e-15)
        # r -> infinity: '1' carries both atoms on branch '+', '+' on branch '-'
        single, _ = single_atom_gauge(w)
        assert (a1, aplus) == (single[0], single[1])


def test_weak_expansion_total_is_constant():
    """The three linear coefficients cancel, pinning the summed a."""
    total = weak_expansion(np.array([0.0, 0.02, -0.05]), -1.4).sum(axis=0)
    assert total == pytest.approx([-1.5] * 3, abs=1e-14)


@pytest.mark.parametrize("w", [0.0, -1.0, 0.7, -2.5])
def test_weak_expansion_slope_matches_spectrum(w):
    """Linear coefficients against a numeric derivative of the general a."""
    h = 1e-6

    def general(u):
        _, ee, gg = labeled_spectrum(u, w)
        n2 = 1.0 / (ee * ee + gg * gg + 2.0 * ee * ee * gg * gg)
        return -n2 * ee * ee * (1.0 + gg * gg)

    slope = (8.0 * (general(h / 2) - general(-h / 2)) - (general(h) - general(-h))) / (
        6.0 * h
    )
    c1 = (weak_expansion(h, w) - weak_expansion(0.0, w)) / h
    assert c1 == pytest.approx(slope, abs=1e-8)


def test_antiblockade_frozen_distances():
    reduced = _reduced(-1.0)
    radii, reason = antiblockade_distances(reduced)
    assert reason == ""
    r_c = crossover_distance(GAETAN.interaction, _drive(-1.0))
    frozen_m = np.array([7.8960921349942906e-06, 6.2671324807638812e-06])
    assert radii == pytest.approx(frozen_m / r_c, rel=1e-12, abs=0)
    # crossover-unit ratios (lambda/|w|)^(1/3), (lambda/|2w|)^(1/3)
    lam = np.hypot(1.0, 1.0)
    assert radii == pytest.approx([lam ** (1 / 3), (lam / 2.0) ** (1 / 3)], rel=1e-12, abs=0)
    # the distances actually solve the resonance conditions u = w, u = 2w
    assert reduced.shift_ratio(radii) == pytest.approx([-1.0, -2.0], rel=1e-12, abs=0)


def test_antiblockade_vdw_power():
    vdw = InteractionModel(kind=InteractionKind.VDW, coefficient=-TWOPI * 300e9 * 1e-36)
    radii, _ = antiblockade_distances(_reduced(-1.0, vdw))
    lam = np.hypot(1.0, 1.0)
    assert radii == pytest.approx([lam ** (1 / 6), (lam / 2.0) ** (1 / 6)], rel=1e-12, abs=0)


def test_antiblockade_empty_cases():
    radii, reason = antiblockade_distances(_reduced(0.0))
    assert radii.size == 0
    assert "zero detuning" in reason
    radii, reason = antiblockade_distances(_reduced(1.0))
    assert radii.size == 0
    assert "opposite signs" in reason
    # repulsive model with positive detuning does resonate
    radii, reason = antiblockade_distances(_reduced(1.0, RDD_REP))
    assert reason == "" and np.all(radii > 0.0)
