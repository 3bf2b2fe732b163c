"""Tests for the closed-form internal spectrum and its eigenvectors."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydgauge.constants import HBAR
from rydgauge.model import crossover_distance, get_preset, interaction_shift
from rydgauge.spectrum import (
    DEFLATE_AT,
    LABELS,
    PairConfiguration,
    bare_state_vector,
    build_hamiltonian,
    dark_state_vector,
    eigensystem,
    eigenvalues_analytic,
    eigenvalues_numeric,
    labeled_spectrum,
)

GAETAN = get_preset("gaetan2009")


def _drive(w):
    base = GAETAN.drive
    return dataclasses.replace(base, detuning_rad_s=w * base.rabi_magnitude_rad_s)


def test_frozen_roots():
    """Two pinned parameter points, one per solver branch."""
    e, _, _ = labeled_spectrum(3.7, -1.2)
    assert e == pytest.approx(
        [5.0016057474183739, 0.23994153029659274, -1.5415472777149664], rel=1e-14
    )
    e, _, _ = labeled_spectrum(-120.0, 2.0)  # deflated branch
    assert e == pytest.approx(
        [2.225114719410195, -0.22101636097945065, -122.00409835843074], rel=1e-14
    )


def test_interaction_free_point():
    e, _, _ = labeled_spectrum(0.0, 0.0)
    assert e == pytest.approx([1.0, 0.0, -1.0], abs=1e-15)


finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-100.0, max_value=100.0, **finite),
    st.floats(min_value=-5.0, max_value=5.0, **finite),
)
def test_vieta_and_ordering(u, w):
    """Roots satisfy the characteristic cubic's Vieta relations, descending."""
    e, ee_amp, _ = labeled_spectrum(u, w)
    scale = max(1.0, abs(u), abs(w)) ** 2
    assert e[0] >= e[1] >= e[2]
    assert np.sum(e) == pytest.approx(u, abs=1e-12 * scale)
    pairwise = e[0] * e[1] + e[0] * e[2] + e[1] * e[2]
    assert pairwise == pytest.approx(u * w - w * w - 1.0, abs=1e-11 * scale)
    assert np.prod(e) == pytest.approx(-u / 2.0, abs=1e-11 * scale)
    assert np.allclose(ee_amp, e - w)


def test_analytic_matches_dense_with_phases():
    rng = np.random.default_rng(7)
    model = GAETAN.interaction
    for _ in range(200):
        w = rng.uniform(-5.0, 5.0)
        drive = dataclasses.replace(
            _drive(w), rabi_phase_rad=rng.uniform(0.0, 2 * np.pi)
        )
        config = PairConfiguration(rng.uniform(-2, 2, 3), rng.uniform(2, 4, 3))
        h = build_hamiltonian(drive, model, config)
        numeric = eigenvalues_numeric(h) / (HBAR * drive.rabi_magnitude_rad_s)
        r_m = config.separation * crossover_distance(model, drive)
        labeled = eigenvalues_analytic(
            drive.rabi_complex, drive.detuning_rad_s, interaction_shift(model, r_m)
        )
        # compare as sorted sets; the dark zero is part of the spectrum
        analytic = np.sort([0.0, labeled.e1, labeled.eminus, labeled.eplus])
        assert np.allclose(numeric, analytic, atol=1e-10 * max(1.0, np.abs(analytic).max()))


def test_hellmann_feynman_slope():
    """dE/du equals the doubly-excited weight of the eigenvector."""
    h = 1e-6
    for u, w in ((0.8, -0.5), (-2.5, 1.3), (12.0, 0.0)):
        e_plus, _, _ = labeled_spectrum(u + h, w)
        e_minus, _, _ = labeled_spectrum(u - h, w)
        slope = (e_plus - e_minus) / (2.0 * h)
        for i, label in enumerate(LABELS):
            vec = bare_state_vector(u, w, label)
            assert slope[i] == pytest.approx(abs(vec[0]) ** 2, abs=2e-6)


@pytest.mark.parametrize("w", [-3.0, -1.0, -0.2, 0.0, 1.0])
def test_deflated_roots_match_dense(w):
    """Deep blockade (Newton deflation branch) against eigvalsh of the bright block."""
    half = np.sqrt(0.5)
    for magnitude in np.geomspace(1e2, 1e7, 11):
        for u in (magnitude, -magnitude):
            block = np.array([[u - w, half, 0.0], [half, 0.0, half], [0.0, half, w]])
            dense = np.linalg.eigvalsh(block)[::-1]
            e, _, _ = labeled_spectrum(u, w)
            np.testing.assert_allclose(e, dense, rtol=1e-13)


def test_batch_equals_single_points():
    """A point's roots and amplitudes do not depend on the rest of its batch.

    Both branches, |u| from 1e2 to 1e12 with both signs and u = +-0, w in
    both half-planes; the Newton deflation used to keep stepping converged
    elements until the whole batch had converged, which moved
    (-132.26436681992374, -3) by an ulp.  A batch that lies on one branch
    skips the masked copies and must give the bytes of the mixed batch.
    """
    magnitudes = np.geomspace(1e2, 1e12, 150)
    u_set = np.concatenate([magnitudes, -magnitudes, np.linspace(-99.0, 99.0, 21),
                            [-132.26436681992374, 0.0, -0.0]])
    w_set = [-3.0, -1.0, -0.2, -0.0, 0.0, 0.3, 1.0, 3.0]
    u, w = (a.ravel() for a in np.meshgrid(u_set, w_set))
    batch = labeled_spectrum(u, w)
    for j in range(u.size):
        single = labeled_spectrum(float(u[j]), float(w[j]))
        for block, one in zip(batch, single):
            assert block[:, j].tobytes() == one.tobytes(), (u[j], w[j])
    deflated = np.abs(u) > DEFLATE_AT
    for branch in (deflated, ~deflated):
        for block, part in zip(batch, labeled_spectrum(u[branch], w[branch])):
            assert block[:, branch].tobytes() == part.tobytes()


def test_eigenvector_residual():
    model = GAETAN.interaction
    drive = dataclasses.replace(_drive(-0.8), rabi_phase_rad=0.4)
    config = PairConfiguration((0.9, 0.3, 0.2), (0.0, 0.1, -0.5))
    h = build_hamiltonian(drive, model, config).matrix
    scale = HBAR * drive.rabi_magnitude_rad_s
    for label in LABELS:
        sys = eigensystem(drive, model, config, label=label)
        full = np.zeros(4, dtype=complex)
        full[1:] = sys.coefficients
        resid = np.linalg.norm(h @ full - sys.energy() * scale * full)
        assert resid < 1e-12 * scale
        assert sys.flags == ()


def test_defective_point_falls_back():
    """At u = 2w the closed-form '-' eigenvector degenerates."""
    drive = _drive(-2.0)
    x = (np.hypot(1.0, 2.0) / 4.0) ** (1.0 / 3.0)  # u(x) = -4
    config = PairConfiguration((x, 0.0, 0.0), (0.0, 0.0, 0.0))
    sys = eigensystem(drive, GAETAN.interaction, config, label="-")
    assert "numeric_fallback" in sys.flags
    assert sys.energy() == pytest.approx(-2.0, abs=1e-12)
    assert np.abs(sys.coefficients) == pytest.approx(
        [1.0 / np.sqrt(2.0), 0.0, 1.0 / np.sqrt(2.0)], abs=1e-12
    )
    # the fallback vector is still an exact eigenvector
    h = build_hamiltonian(drive, GAETAN.interaction, config).matrix
    full = np.zeros(4, dtype=complex)
    full[1:] = sys.coefficients
    scale = HBAR * drive.rabi_magnitude_rad_s
    assert np.linalg.norm(h @ full - sys.energy() * scale * full) < 1e-12 * scale


def test_state_vectors_orthonormal():
    u, w = -1.7, 0.6
    vectors = [bare_state_vector(u, w, label, 0.8, -0.3, 0.25) for label in LABELS]
    vectors.append(dark_state_vector(0.8, -0.3))
    gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_dark_state_is_zero_mode():
    drive = dataclasses.replace(_drive(1.1), rabi_phase_rad=1.0)
    config = PairConfiguration((0.7, 0.0, 0.4), (0.0, 0.0, 0.0))
    h = build_hamiltonian(drive, GAETAN.interaction, config).matrix
    # dark state in the blockade basis occupies the first slot
    dark = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    assert np.linalg.norm(h @ dark) == 0.0


def test_eigenvalues_numeric_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        eigenvalues_numeric(bad)


def test_labeled_spectrum_broadcasts():
    u = np.linspace(-2.0, 2.0, 7)
    e, ee, gg = labeled_spectrum(u, -0.5)
    assert e.shape == ee.shape == gg.shape == (3, 7)
    # scalar input stays scalar-shaped
    e1, _, _ = labeled_spectrum(0.3, -0.5)
    assert e1.shape == (3,)
    assert np.allclose(e1, labeled_spectrum(np.array([0.3]), -0.5)[0][:, 0])


def test_pair_configuration_validation():
    with pytest.raises(ValueError, match="coincide"):
        PairConfiguration((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    config = PairConfiguration((3.0, 4.0, 0.0), (0.0, 0.0, 0.0))
    assert config.separation == pytest.approx(5.0)
