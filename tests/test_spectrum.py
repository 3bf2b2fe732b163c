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
    eigenvalues_numeric,
    labeled_spectrum,
    near_degenerate,
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
        mag = abs(drive.rabi_complex)
        energies, _, _ = labeled_spectrum(
            interaction_shift(model, r_m) / mag, drive.detuning_rad_s / mag
        )
        # compare as sorted sets; the dark zero is part of the spectrum
        analytic = np.sort([0.0, *energies])
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


def _pair_inputs(drive, model, config):
    """(u, w, phase_a, phase_b, theta) of a drive at a pair configuration."""
    r_c = crossover_distance(model, drive)
    mag = drive.rabi_magnitude_rad_s
    kappa = drive.wavenumber_rad_m * r_c
    khat = np.asarray(drive.wavevector_direction, dtype=float)
    return (
        interaction_shift(model, config.separation * r_c) / mag,
        drive.detuning_ratio,
        kappa * float(np.dot(khat, config.position_a)),
        kappa * float(np.dot(khat, config.position_b)),
        drive.rabi_phase_rad,
    )


def _to_blockade_basis(vec, phase_a, phase_b):
    """Bare-basis coefficients in BLOCKADE_BASIS, where
    psi_pm = (e^{i phase_a}|eg> +- e^{i phase_b}|ge>)/sqrt(2)."""
    minus = dark_state_vector(phase_a, phase_b)
    plus = np.array([0.0, np.exp(1j * phase_a), np.exp(1j * phase_b), 0.0]) / np.sqrt(2.0)
    return np.array([np.vdot(minus, vec), vec[0], np.vdot(plus, vec), vec[3]])


def test_eigenvector_residual():
    """The gauge-fixed bare vectors are eigenvectors of the dense Hamiltonian."""
    model = GAETAN.interaction
    drive = dataclasses.replace(_drive(-0.8), rabi_phase_rad=0.4)
    config = PairConfiguration((0.9, 0.3, 0.2), (0.0, 0.1, -0.5))
    h = build_hamiltonian(drive, model, config).matrix
    scale = HBAR * drive.rabi_magnitude_rad_s
    u, w, phase_a, phase_b, theta = _pair_inputs(drive, model, config)
    energies, _, _ = labeled_spectrum(u, w)
    assert not near_degenerate(energies)
    vectors = bare_state_vector(u, w, LABELS, phase_a, phase_b, theta)
    for energy, vec in zip(energies, vectors):
        full = _to_blockade_basis(vec, phase_a, phase_b)
        assert np.linalg.norm(full) == pytest.approx(1.0, abs=1e-14)
        resid = np.linalg.norm(h @ full - energy * scale * full)
        assert resid < 1e-12 * scale
        # gauge fix: the |gg> coefficient carries the phase of Omega*
        assert np.angle(vec[3]) == pytest.approx(-theta, abs=1e-12)


def test_defective_point_falls_back():
    """At u = 2w the closed-form '-' eigenvector degenerates; the dense oracle does not."""
    drive = _drive(-2.0)
    x = (np.hypot(1.0, 2.0) / 4.0) ** (1.0 / 3.0)  # u(x) = -4
    config = PairConfiguration((x, 0.0, 0.0), (0.0, 0.0, 0.0))
    u, w, phase_a, phase_b, theta = _pair_inputs(drive, GAETAN.interaction, config)
    energies, _, _ = labeled_spectrum(u, w)
    assert energies[1] == pytest.approx(-2.0, abs=1e-12)
    with pytest.raises(ValueError, match="defective"):
        bare_state_vector(u, w, "-", phase_a, phase_b, theta)
    with pytest.raises(ValueError, match="defective"):  # also inside a batch
        bare_state_vector([0.5, u], w, "-")
    # the dense eigenpair exists: E = -2 with weight 1/2 on |ee> and on |gg>
    h = build_hamiltonian(drive, GAETAN.interaction, config).matrix
    scale = HBAR * drive.rabi_magnitude_rad_s
    evals, evecs = np.linalg.eigh(h)
    col = int(np.argmin(np.abs(evals - energies[1] * scale)))
    vec = evecs[:, col]
    assert evals[col] / scale == pytest.approx(-2.0, abs=1e-12)
    assert np.abs(vec[1:]) == pytest.approx(
        [1.0 / np.sqrt(2.0), 0.0, 1.0 / np.sqrt(2.0)], abs=1e-12
    )
    assert np.linalg.norm(h @ vec - energies[1] * scale * vec) < 1e-12 * scale


def test_bare_state_vector_batch_equals_single_points():
    """A point's eigenvector has the same bytes alone or inside a batch.

    Both solver branches (|u| up to 1e7), both half-planes of w, every
    label and random laser phases; a label axis broadcasts like the rest.
    """
    rng = np.random.default_rng(5)
    n = 120
    u = np.concatenate([rng.uniform(-99.0, 99.0, n // 2),
                        rng.choice([-1.0, 1.0], n // 2) * np.geomspace(1e2, 1e7, n // 2)])
    w = rng.uniform(-4.0, 4.0, n)
    labels = rng.choice(LABELS, n)
    phase_a, phase_b, theta = rng.uniform(-9.0, 9.0, (3, n))
    batch = bare_state_vector(u, w, labels, phase_a, phase_b, theta)
    assert batch.shape == (n, 4)
    for i in range(n):
        one = bare_state_vector(u[i], w[i], labels[i], phase_a[i], phase_b[i], theta[i])
        assert one.shape == (4,)
        assert batch[i].tobytes() == one.tobytes(), (u[i], w[i], labels[i])
    every = bare_state_vector(u, w, np.reshape(LABELS, (3, 1)), phase_a, phase_b, theta)
    assert every.shape == (3, n, 4)
    for row, label in enumerate(LABELS):
        pick = labels == label
        assert every[row, pick].tobytes() == batch[pick].tobytes()
    with pytest.raises(ValueError, match="label"):
        bare_state_vector(0.3, 0.1, "x")


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
