"""Tests for the closed-form internal spectrum, its amplitude factors and the
dense Hamiltonian they are checked against."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydgauge.dense import dense_hamiltonian, eigensystem
from rydgauge.gauge import _radial_spectrum
from rydgauge.model import ReducedParameters, get_preset, reduced_parameters
from rydgauge.spectrum import (
    DEFLATE_AT,
    DEGENERACY_TOL,
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
    """The three roots and the dark zero are the dense spectrum at any laser phases."""
    rng = np.random.default_rng(7)
    n = 200
    w = rng.uniform(-5.0, 5.0, n)
    x = np.linalg.norm(rng.uniform(-2, 2, (n, 3)) - rng.uniform(2, 4, (n, 3)), axis=1)
    reduced = ReducedParameters(w, np.hypot(1.0, w), -1.0, 3, 1.0)  # one drive per draw
    u = reduced.shift_ratio(x)
    phase_a, theta = rng.uniform(0.0, 2 * np.pi, (2, n))
    numeric = np.linalg.eigvalsh(dense_hamiltonian(u, w, phase_a, theta))
    energies, _, _ = labeled_spectrum(u, w)
    analytic = np.sort(np.vstack([np.zeros(n), energies]), axis=0).T
    scale = np.maximum(1.0, np.abs(analytic).max(axis=1, keepdims=True))
    assert np.all(np.abs(numeric - analytic) <= 1e-10 * scale)


def test_dense_hamiltonian_layout():
    """Diagonal {u - w, 0, 0, w}; Omega/2 with atom a's laser phase, or none for atom b
    at the origin, per excitation."""
    h = dense_hamiltonian(3.0, -0.5, 0.7, 0.4)
    via_a, via_b = 0.5 * np.exp(1j * (0.4 + 0.7)), 0.5 * np.exp(1j * 0.4)
    expected = np.array([
        [3.5, via_b, via_a, 0.0],
        [np.conj(via_b), 0.0, 0.0, via_a],
        [np.conj(via_a), 0.0, 0.0, via_b],
        [0.0, np.conj(via_a), np.conj(via_b), -0.5],
    ])
    np.testing.assert_array_equal(h, expected)
    batch = dense_hamiltonian([1.0, 2.0], 0.3, [[0.0], [1.0], [2.0]])
    assert batch.shape == (3, 2, 4, 4)
    assert batch[2, 1].tobytes() == dense_hamiltonian(2.0, 0.3, 2.0).tobytes()


def test_dark_state_is_zero_mode():
    """H times the antisymmetric dark vector is a difference of two products of
    the same phases: zero up to rounding, not by construction."""
    reduced = reduced_parameters(_drive(1.1), GAETAN.interaction)
    r_a = np.array([0.7, 0.0, 0.4])  # atom b at the origin, k_L along z
    phase_a = reduced.kappa * r_a[2]
    h = dense_hamiltonian(reduced.shift_ratio(np.linalg.norm(r_a)), reduced.detuning_ratio,
                          phase_a, 1.0)
    dark = np.array([0.0, np.exp(1j * phase_a), -1.0, 0.0]) / np.sqrt(2.0)
    assert np.linalg.norm(h @ dark) <= 1e-15


def _gauge_spectrum(u, w):
    """The radial spectrum gauge reads, at shift ratios u: at x = 1 the
    shift ratio is sign * dressing, u itself."""
    u = np.asarray(u, dtype=float)
    return _radial_spectrum(1.0, ReducedParameters(w, np.abs(u), np.sign(u), 3, 1.0))


def test_hellmann_feynman_slope():
    """dE/du equals the doubly-excited weight n2 ee^2 of the eigenvector."""
    h = 1e-6
    for u, w in ((0.8, -0.5), (-2.5, 1.3), (12.0, 0.0)):
        e_plus, _, _ = labeled_spectrum(u + h, w)
        e_minus, _, _ = labeled_spectrum(u - h, w)
        slope = (e_plus - e_minus) / (2.0 * h)
        spec = _gauge_spectrum(u, w)
        np.testing.assert_allclose(slope, spec.n2 * spec.ee ** 2, rtol=0.0, atol=2e-6)


def test_gauge_amplitudes_are_dense_populations():
    """The populations gauge reads from labeled_spectrum, n2 ee^2 on |ee>,
    n2 ee^2 gg^2 on |eg> and on |ge> and n2 gg^2 on |gg>, are the |V[k, i]|^2
    of the dense oracle's eigenvectors, label by label.

    Both solver branches (|u| up to 1e7), both signs of u and w, random
    laser phases.  Near the defective line u = 2w the '-' amplitudes lose
    digits to cancellation (ROADMAP item 3); these draws stay at least 1.6
    from the line.
    """
    rng = np.random.default_rng(11)
    n = 200
    u = np.concatenate([rng.uniform(-99.0, 99.0, n // 2),
                        rng.choice([-1.0, 1.0], n // 2) * np.geomspace(1e2, 1e7, n // 2)])
    w = rng.uniform(-4.0, 4.0, n)
    phase_a, _, theta = rng.uniform(-9.0, 9.0, (3, n))
    assert (np.abs(u) > DEFLATE_AT).any() and (np.abs(u) < DEFLATE_AT).any()
    assert (w > 0).any() and (w < 0).any()
    spec = _gauge_spectrum(u, w)
    ee2, gg2 = spec.n2 * spec.ee ** 2, spec.n2 * spec.gg ** 2
    closed = np.stack([ee2, ee2 * spec.gg ** 2, ee2 * spec.gg ** 2, gg2])  # [k, label, point]
    _, vectors, _ = eigensystem(u, w, phase_a, theta)
    dense = np.abs(vectors[..., :3]) ** 2  # [point, k, label], the dark column dropped
    assert np.max(np.abs(dense - closed.transpose(2, 0, 1))) <= 1e-14


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


def test_labels_stay_descending_between_the_antiblockade_line_and_deflation():
    """Across u = 2w at |w| >= 50 the deflated root u - t is the middle or the
    top one while u < 0 (and the mirror for u > 0): energies stay descending
    and equal the dense levels in label order."""
    rng = np.random.default_rng(20261019)
    w = rng.uniform(-200.0, -50.0, 10_000)
    u = 2.0 * w * (1.0 + rng.uniform(-0.6, 0.6, w.size))
    u, w = np.concatenate([u, -u]), np.concatenate([w, -w])
    energies, _, _ = labeled_spectrum(u, w)
    assert np.all(energies[0] >= energies[1]) and np.all(energies[1] >= energies[2])
    dense, _, _ = eigensystem(u, w)
    labeled = dense[:, :3].T
    assert np.all(np.abs(energies - labeled) <= 1e-10 * np.maximum(1.0, np.abs(labeled)))


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
    # sub-batches that lie in one half-plane of the symmetry map, or in both
    flipped = (w > 0.0) | ((w == 0.0) & (u > 0.0))
    mixed = np.arange(u.size) % 3 == 0
    assert flipped[mixed].any() and not flipped[mixed].all()
    for half in (flipped, ~flipped, mixed, flipped & deflated, ~flipped & ~deflated):
        for block, part in zip(batch, labeled_spectrum(u[half], w[half])):
            assert block[:, half].tobytes() == part.tobytes()
    # a 2-d batch, whose deflated points leave the Newton loop at different steps
    for block, grid in zip(batch, labeled_spectrum(u.reshape(8, -1), w.reshape(8, -1))):
        assert block.tobytes() == grid.reshape(3, -1).tobytes()
    # a 0-d point and a (1,) batch of it give the same bytes, whichever input is 0-d
    for j in range(u.size):
        one = [block[:, j].tobytes() for block in batch]
        for args in ((u[j:j + 1], w[j:j + 1]), (u[j], w[j:j + 1]), (u[j:j + 1], w[j])):
            assert [block[:, 0].tobytes() for block in labeled_spectrum(*args)] == one


# SHA-256 of the bytes of test_solve_keeps_its_bytes: a rewrite of the solve
# for speed must keep every bit of the cubic, its amplitudes and its slopes
_SOLVE_DIGEST = "4234f235aed7c6b8c2aa442e859dd6021e4529168cce633a103d3f5e0880650d"


def test_solve_keeps_its_bytes():
    """labeled_spectrum and every _radial_spectrum field over a fixed grid.

    Both presets, w in {-3, -1, -0, 0, 0.3, 3}, separations from 0.01 to
    20 r_c (both solver branches) and u = +-0, as batches and as single
    points.
    """
    w_set = (-3.0, -1.0, -0.0, 0.0, 0.3, 3.0)
    digest = hashlib.sha256()
    magnitudes = np.geomspace(1e-3, 1e12, 61)
    u = np.concatenate([magnitudes, -magnitudes, [0.0, -0.0, 99.5, -100.5, -132.26436681992374]])
    for w in w_set:
        for block in labeled_spectrum(u, w):
            digest.update(block.tobytes())
        for j in range(0, u.size, 7):
            for block in labeled_spectrum(float(u[j]), w):
                digest.update(block.tobytes())
    x = np.geomspace(0.01, 20.0, 97)
    for name in ("gaetan2009", "beguin2013"):
        preset = get_preset(name)
        for w in w_set:
            drive = dataclasses.replace(
                preset.drive, detuning_rad_s=w * preset.drive.rabi_magnitude_rad_s
            )
            reduced = reduced_parameters(drive, preset.interaction)
            for xs in (x, *x[::8].tolist()):
                spec = _radial_spectrum(xs, reduced)
                for field in dataclasses.fields(spec):
                    digest.update(np.asarray(getattr(spec, field.name)).tobytes())
    assert digest.hexdigest() == _SOLVE_DIGEST


def test_near_degenerate_is_the_sorted_ladder_rule():
    """The six pairwise gaps give the booleans of the smallest adjacent gap of
    the sorted ladder {0, E_1, E_-, E_+}: on 1e5 random spectra (both solver
    branches) and on every triple of signed zeros, ties, near-ties, NaN and
    infinities."""
    rng = np.random.default_rng(23)
    u = rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-3.0, 7.0, 100_000)
    random, _, _ = labeled_spectrum(u, rng.uniform(-5.0, 5.0, 100_000))
    specials = [0.0, -0.0, 1e-10, -1e-10, 5e-11, 1e-10 + 5e-11, 1.0, 1.0 + 5e-11, -1.0,
                np.nan, np.inf, -np.inf]
    triples = np.array(np.meshgrid(specials, specials, specials, indexing="ij")).reshape(3, -1)
    for energies in (random, triples):
        ladder = np.concatenate([np.zeros((1,) + energies.shape[1:]), energies])
        with np.errstate(invalid="ignore"):  # inf - inf
            expected = np.diff(np.sort(ladder, axis=0), axis=0).min(axis=0) < DEGENERACY_TOL
            assert np.array_equal(near_degenerate(energies), expected)
    assert 0 < expected.sum() < expected.size
    for row in triples.T[:50]:  # a single spectrum is a batch of one
        with np.errstate(invalid="ignore"):
            assert near_degenerate(row) == near_degenerate(row[:, None])[0]


def test_defective_point_falls_back():
    """At u = 2w the closed-form '-' amplitudes degenerate; the dense oracle does not."""
    reduced = reduced_parameters(_drive(-2.0), GAETAN.interaction)
    x = (np.hypot(1.0, 2.0) / 4.0) ** (1.0 / 3.0)  # u(x) = -4
    u, w = reduced.shift_ratio(x), reduced.detuning_ratio
    energies, _, _ = labeled_spectrum(u, w)
    assert energies[1] == pytest.approx(-2.0, abs=1e-12)
    # ee = gg = 0 on '-': the squared norm 1/n2 of its unnormalised amplitudes
    # vanishes to rounding, so n2 is not finite or has no digits left
    with np.errstate(divide="ignore", invalid="ignore"):
        spec = _gauge_spectrum(u, w)
    assert spec.ee[1] == pytest.approx(0.0, abs=1e-12)
    assert 1.0 / spec.n2[1] <= 1e-20
    # the dense eigenpair exists: E = -2 with weight 1/2 on |ee> and on |gg>
    h = dense_hamiltonian(u, w)
    evals, evecs = np.linalg.eigh(h)
    col = int(np.argmin(np.abs(evals - energies[1])))
    vec = evecs[:, col]
    assert evals[col] == pytest.approx(-2.0, abs=1e-12)
    assert np.abs(vec) == pytest.approx(
        [1.0 / np.sqrt(2.0), 0.0, 0.0, 1.0 / np.sqrt(2.0)], abs=1e-12
    )
    assert np.linalg.norm(h @ vec - energies[1] * vec) < 1e-12


def test_labeled_spectrum_broadcasts():
    u = np.linspace(-2.0, 2.0, 7)
    e, ee, gg = labeled_spectrum(u, -0.5)
    assert e.shape == ee.shape == gg.shape == (3, 7)
    # scalar input stays scalar-shaped
    e1, _, _ = labeled_spectrum(0.3, -0.5)
    assert e1.shape == (3,)
    assert np.allclose(e1, labeled_spectrum(np.array([0.3]), -0.5)[0][:, 0])
