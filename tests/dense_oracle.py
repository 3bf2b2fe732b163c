"""Dense oracle of the pair's states, numpy only, for the tests.

Batched ``eigh`` of ``spectrum.dense_hamiltonian`` and first-order
perturbation theory on its eigenvectors; ``labeled_spectrum`` and the
closed forms are never called.  The dark state is the eigenvector of
largest overlap with (0, e^{i phase_a}, -1, 0)/sqrt(2); the other three
are labeled "1", "-", "+" by descending energy.
"""

import numpy as np

from rydgauge.spectrum import dense_hamiltonian

EXCITED_A = np.array([1.0, 1.0, 0.0, 0.0])  # atom a excited in (ee, eg, ge, gg)
EE = np.diag([1.0, 0.0, 0.0, 0.0])  # dH/du


def eigensystem(u, w, phase_a=0.0, rabi_phase=0.0):
    """(energies, vectors, h): levels "1", "-", "+", dark along the last axis
    of ``energies`` (..., 4) and of ``vectors`` (..., 4, 4), whose columns
    are the states; ``h`` is the dense Hamiltonian (phase_b = 0)."""
    h = dense_hamiltonian(u, w, phase_a, 0.0, rabi_phase)
    energies, vectors = np.linalg.eigh(h)
    phase_a = np.broadcast_to(phase_a, energies.shape[:-1])
    dark = np.stack(np.broadcast_arrays(0.0, np.exp(1j * phase_a), -1.0, 0.0), axis=-1)
    overlap = np.abs((dark.conj()[..., None, :] @ vectors)[..., 0, :])
    is_dark = np.arange(4) == overlap.argmax(axis=-1)[..., None]
    order = np.argsort(np.where(is_dark, np.inf, -energies), axis=-1, kind="stable")
    return (np.take_along_axis(energies, order, -1),
            np.take_along_axis(vectors, order[..., None, :], -1), h)


def connection(u, w, phase_a=0.0, rabi_phase=0.0):
    """(a, da/du) per bright label, shape (..., 3): a = -P_a, minus the
    probability that atom a is excited, and

        da_i/du = -2 Re sum_j <i|Pi_a|j><j|ee><ee|i> / (E_i - E_j)

    over the other bright states j; the dark state has <dark|ee> = 0."""
    energies, vectors, _ = eigensystem(u, w, phase_a, rabi_phase)
    bright = vectors[..., :3]
    excited = bright[..., :2, :]
    p_a = np.sum(np.abs(excited) ** 2, axis=-2)
    pi_a = excited.conj().swapaxes(-1, -2) @ excited  # [i, j]: <i|Pi_a|j>
    ee = bright[..., 0, :]
    gap = energies[..., :3, None] - energies[..., None, :3]
    terms = (pi_a * ee.conj()[..., None, :] * ee[..., :, None]).real
    pairs = np.divide(terms, gap, out=np.zeros(gap.shape), where=gap != 0.0)
    return -p_a, -2.0 * np.sum(pairs, axis=-1)


def adiabaticity(u, w, phase_a, rabi_phase, du_dt, dphase_dt, row):
    """Worst |<j|dH/dt|i>| / (E_i - E_j)^2 over j != i for the label in
    ``row``, the dark state included; times in 1/|Omega|.

    dH/dt = |ee><ee| du/dt + dH/dphase_a dphase_a/dt, where phase_a
    enters H as e^{i phase_a} on every transition that excites atom a.
    """
    energies, vectors, h = eigensystem(u, w, phase_a, rabi_phase)
    dh_dphase = 1j * (EXCITED_A[:, None] - EXCITED_A[None, :]) * h
    dh_dt = (np.asarray(du_dt)[..., None, None] * EE
             + np.asarray(dphase_dt)[..., None, None] * dh_dphase)
    coupling = np.abs(vectors.conj().swapaxes(-1, -2) @ dh_dt @ vectors)[..., :, row]
    gap = energies[..., row, None] - energies
    others = np.arange(4) != row
    return (coupling[..., others] / gap[..., others] ** 2).max(axis=-1)
