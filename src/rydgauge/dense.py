"""Dense oracle of the pair: the 4x4 Hamiltonian and its numerical eigenstates.

``dense_hamiltonian`` builds the pair Hamiltonian in the reduced units and
the bare basis (ee, eg, ge, gg) of the closed forms; ``eigvalsh`` and
``eigensystem`` diagonalize it with LAPACK, and first-order couplings
<j|dH|i>/(E_i - E_j) of its eigenvectors give A and phi.  This module
reads only numpy and ``model``: it shares no code with the closed forms
it checks, and it labels states without ``labeled_spectrum``.
"""

from __future__ import annotations

import numpy as np

from .model import ReducedParameters

_EXCITED_A = np.array([1.0, 1.0, 0.0, 0.0])  # atom a excited, in the bare basis (ee, eg, ge, gg)


def dense_hamiltonian(shift_ratio, detuning_ratio, phase_a=0.0, rabi_phase=0.0) -> np.ndarray:
    """The 4x4 pair Hamiltonian in units of hbar|Omega|, in the bare basis
    (ee, eg, ge, gg); :func:`eigvalsh` and :func:`eigensystem` diagonalize
    it as the oracle of the energies, A and phi.

    Every argument broadcasts against the others; the result has the
    broadcast shape plus two last axes of length 4.  The diagonal is
    {u - w, 0, 0, w}.  Exciting atom a (ge -> ee, gg -> eg) carries
    Omega/2 with the laser phase ``phase_a`` = k_L·r_a, exciting atom b
    (eg -> ee, gg -> ge), at the origin, carries Omega/2, and
    ``rabi_phase`` is arg(Omega).
    """
    u, w, phase_a, theta = np.broadcast_arrays(shift_ratio, detuning_ratio, phase_a, rabi_phase)
    via_a = 0.5 * np.exp(1j * (theta + phase_a))
    via_b = 0.5 * np.exp(1j * theta)
    h = np.zeros(u.shape + (4, 4), dtype=complex)
    h[..., 0, 0] = u - w
    h[..., 3, 3] = w
    h[..., 0, 1] = h[..., 2, 3] = via_b
    h[..., 0, 2] = h[..., 1, 3] = via_a
    h[..., 1, 0] = h[..., 3, 2] = np.conj(via_b)
    h[..., 2, 0] = h[..., 3, 1] = np.conj(via_a)
    return h


def _finite_stack(h: np.ndarray):
    """(h, finite): a stack of Hermitian matrices with each one that has a
    non-finite entry zeroed, and the mask of the others.  LAPACK is never
    handed those: given one it raises or returns finite values, depending
    on the build, and either would keep a NaN from failing the check that
    asked."""
    finite = np.isfinite(h).all(axis=(-2, -1))
    if not finite.all():
        h = np.where(finite[..., None, None], h, 0.0)
    return h, finite


def eigvalsh(h: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh of a stack of Hermitian matrices; NaN for each one
    with a non-finite entry."""
    h, finite = _finite_stack(h)
    return np.where(finite[..., None], np.linalg.eigvalsh(h), np.nan)


def eigensystem(u, w, phase_a=0.0, rabi_phase=0.0):
    """Dense oracle of the pair's states: (energies, vectors, h).

    ``h`` is :func:`dense_hamiltonian` and ``eigh``
    diagonalizes it, so ``labeled_spectrum`` is never called.  The dark
    state is the eigenvector of largest overlap with (0, e^{i phase_a},
    -1, 0)/sqrt(2) and comes last; the other three are "1", "-", "+" by
    descending energy.  Levels run along the last axis of ``energies``
    (..., 4) and of ``vectors`` (..., 4, 4), whose columns are the states;
    both are NaN where ``h`` has a non-finite entry.
    """
    h = dense_hamiltonian(u, w, phase_a, rabi_phase)
    safe, finite = _finite_stack(h)
    energies, vectors = np.linalg.eigh(safe)
    energies = np.where(finite[..., None], energies, np.nan)
    vectors = np.where(finite[..., None, None], vectors, np.nan)
    phase_a = np.broadcast_to(phase_a, energies.shape[:-1])
    dark = np.stack(np.broadcast_arrays(0.0, np.exp(1j * phase_a), -1.0, 0.0), axis=-1)
    overlap = np.abs((dark.conj()[..., None, :] @ vectors)[..., 0, :])
    is_dark = np.arange(4) == overlap.argmax(axis=-1)[..., None]
    order = np.argsort(np.where(is_dark, np.inf, -energies), axis=-1, kind="stable")
    return (np.take_along_axis(energies, order, -1),
            np.take_along_axis(vectors, order[..., None, :], -1), h)


def couplings(energies, vectors, h):
    """First-order couplings of the states of :func:`eigensystem`.

    Returns (radial, phase), each (..., 4, 4) with [..., j, i] =
    <j|dH|i> / (E_i - E_j) and a zero diagonal: <j|d i> for dH = |ee><ee|,
    per unit u, and for dH = i (n_a,row - n_a,col) H, per unit phase_a,
    which enters H as e^{i phase_a} on each transition that excites atom a.
    """
    gap = energies[..., None, :] - energies[..., :, None]  # [j, i]: E_i - E_j
    bra = vectors.conj().swapaxes(-1, -2)
    radial = bra[..., :, :1] * vectors[..., None, 0, :]  # <j|ee><ee|i>
    phase = bra @ (1j * (_EXCITED_A[:, None] - _EXCITED_A[None, :]) * h) @ vectors
    inverse = np.divide(1.0, gap, out=np.zeros(gap.shape), where=~np.eye(4, dtype=bool))
    return radial * inverse, phase * inverse


def gauge_potentials(reduced: ReducedParameters, x, rows, rabi_phase: float = 0.0):
    """A and phi of each point's own label from the dense oracle: (a, phi).

    ``rows`` is an integer array, each point's row in ``spectrum.LABELS``.
    Atom a sits at separation ``x`` (crossover units) from atom b,
    perpendicular to the beam, so a radial step moves only u (du/dx =
    -p u/x) and a step along the beam only phase_a (by kappa).  A is
    stated in the gauge where each state's |gg> coefficient c_gg has the
    phase of Omega* (real positive for a real drive).  With C_j the
    couplings of :func:`couplings` along one direction, that gauge gives
    A = Im(sum_j c_j,gg C_j / c_i,gg) / kappa:
    ``a`` (..., 2) holds it along e_r and e_k in hbar·k_L.  ``phi`` is
    sum_j |C_j|^2 / kappa^2 over both directions and every j != i, the
    dark state included, in hbar^2·k_L^2/(2m).
    """
    u = reduced.shift_ratio(x)
    kappa = np.broadcast_to(reduced.kappa, u.shape)
    energies, vectors, h = eigensystem(u, reduced.detuning_ratio, 0.0, rabi_phase)
    own = rows[..., None, None]
    radial, phase = (np.take_along_axis(m, own, -1)[..., 0]
                     for m in couplings(energies, vectors, h))
    coupling = np.stack([radial * (-reduced.power * u / x)[..., None],
                         phase * kappa[..., None]], axis=-2)  # [..., direction, j]
    gg = vectors[..., 3, :]
    own_gg = np.take_along_axis(gg, own[..., 0], -1)
    shift = (coupling @ gg[..., :, None])[..., 0] * own_gg.conj()  # times |c_i,gg|^2
    a = shift.imag / ((own_gg.real ** 2 + own_gg.imag ** 2) * kappa[..., None])
    phi = np.sum(coupling.real ** 2 + coupling.imag ** 2, axis=(-2, -1)) / kappa ** 2
    return a, phi
