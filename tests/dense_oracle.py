"""Test-side reductions of the dense oracle in ``validate``.

``validate._eigensystem`` diagonalizes ``spectrum.dense_hamiltonian``
with ``eigh`` and labels its states "1", "-", "+" by descending energy,
the dark state last; ``validate._couplings`` gives their first-order
couplings <j|dH|i>/(E_i - E_j).  ``labeled_spectrum`` and the closed
forms are never called.
"""

import numpy as np

from rydgauge.validate import _couplings, _eigensystem


def connection(u, w, phase_a=0.0, rabi_phase=0.0):
    """(a, da/du) per bright label, shape (..., 3): a = -P_a, minus the
    probability that atom a is excited, and

        da_i/du = -2 Re sum_j <i|Pi_a|j><j|ee><ee|i> / (E_i - E_j)

    over the other bright states j; the dark state has <dark|ee> = 0."""
    energies, vectors, h = _eigensystem(u, w, phase_a, rabi_phase)
    radial, _ = _couplings(energies, vectors, h)
    excited = vectors[..., :2, :3]  # the bright states' amplitudes with atom a excited
    p_a = np.sum(np.abs(excited) ** 2, axis=-2)
    pi_a = excited.conj().swapaxes(-1, -2) @ excited  # [i, j]: <i|Pi_a|j>
    terms = (pi_a * radial[..., :3, :3].swapaxes(-1, -2)).real
    return -p_a, -2.0 * np.sum(terms, axis=-1)


def adiabaticity(u, w, phase_a, rabi_phase, du_dt, dphase_dt, row):
    """Worst |<j|dH/dt|i>| / (E_i - E_j)^2 over j != i for the label in
    ``row``, the dark state included; times in 1/|Omega|.

    dH/dt = |ee><ee| du/dt + dH/dphase_a dphase_a/dt, where phase_a
    enters H as e^{i phase_a} on every transition that excites atom a.
    """
    energies, vectors, h = _eigensystem(u, w, phase_a, rabi_phase)
    radial, phase = _couplings(energies, vectors, h)
    rate = (np.asarray(du_dt)[..., None] * radial[..., :, row]
            + np.asarray(dphase_dt)[..., None] * phase[..., :, row])
    gap = energies[..., row, None] - energies
    others = np.arange(4) != row
    return (np.abs(rate[..., others]) / np.abs(gap[..., others])).max(axis=-1)
