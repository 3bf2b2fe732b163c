"""Limiting regimes of the dressed pair, as array functions in reduced units.

The blockade effective theory (interaction dominates the drive), the
weak-interaction expansion (drive dominates), the single-atom limit
r -> infinity and the antiblockade radii, on the inputs of the general
solve in :mod:`rydgauge.gauge`: (u, w) = (V, delta)/|Omega|, or separations
x in r_c with their ReducedParameters.  Energies are in hbar*|Omega|, a in
hbar*k_L along e_k, phi in hbar^2*k_L^2/(2m), as in Dalibard et al., Rev.
Mod. Phys. 83, 1523 (2011).  Outside its domain a limit is only a
reference; the general solve stays the answer.
"""

from __future__ import annotations

import numpy as np

from .model import ReducedParameters

def _markov_gap(u, w) -> np.ndarray:
    """u - 4w/3, the denominator of the light shift; raises at its pole."""
    u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    resonant = 4.0 * w / 3.0
    gap = u - resonant
    if not np.all(np.isfinite(gap)):
        raise ValueError("the effective theory needs finite u and w")
    # equality at machine precision: an ulp off the pole the closed forms
    # return rounding noise, so that band counts as the pole itself
    band = 4.0 * np.finfo(float).eps * np.maximum(np.abs(u), np.abs(resonant))
    if np.any(np.abs(gap) <= band):
        raise ValueError(
            "effective theory singular at V = 4*delta/3 "
            "(single-photon antiblockade resonance)"
        )
    return gap


def effective_hamiltonian(u, w) -> np.ndarray:
    """Effective pair Hamiltonian over {|psi_minus>, |psi_plus>, |gg>}.

    Shape broadcast(u, w).shape + (3, 3), units hbar*|Omega|, with the Rabi
    phase gauged into |gg>.  Valid deep in the blockade regime; the doubly
    excited state only survives as the second-order light shift
    Gamma = 1/(2(u - 4w/3)) on the diagonal.  The trace equals -Gamma: the
    +-w/3 bookkeeping shifts cancel.
    """
    gap = _markov_gap(u, w)
    w = np.broadcast_to(w, gap.shape)
    gamma = 1.0 / (2.0 * gap)
    h = np.zeros(gap.shape + (3, 3))
    h[..., 0, 0] = -w / 3.0
    h[..., 1, 1] = -(3.0 * gamma + w) / 3.0
    h[..., 2, 2] = 2.0 * w / 3.0
    h[..., 1, 2] = h[..., 2, 1] = 1.0 / np.sqrt(2.0)
    return h


def blockade_effective(u, w) -> np.ndarray:
    """Eigenvalues of :func:`effective_hamiltonian` in closed form.

    Rows (dark, eff+, eff-), shape (3,) + broadcast(u, w).shape, units
    hbar*|Omega|: |psi_minus> stays at -w/3 and the bright doublet sits at
    (w - 3 Gamma -+ 3 sqrt(Xi))/6 with Xi = (Gamma + w)^2 + 2, so
    eff+ <= eff-.
    """
    gap = _markov_gap(u, w)
    gamma = 1.0 / (2.0 * gap)
    root = np.sqrt((gamma + w) ** 2 + 2.0)
    return np.stack([
        np.broadcast_to(-np.asarray(w, dtype=float) / 3.0, gap.shape),
        (w - 3.0 * gamma - 3.0 * root) / 6.0,
        (w - 3.0 * gamma + 3.0 * root) / 6.0,
    ])


def blockade_gauge(x_over_rc, reduced: ReducedParameters):
    """Closed-form (a, phi) of the blockade effective branches at separations x.

    Returns two arrays of shape (2,) + broadcast shape, rows (eff+, eff-);
    :func:`blockade_correspondence` names the general label of each row.
    Everything reduces to the ratio X = (Gamma + w)/sqrt(Xi): a is
    (-X - 1)/4 on eff+ and (X - 1)/4 on eff-, and phi adds the gradient of
    the light shift through the interaction power law.
    """
    x = np.asarray(x_over_rc, dtype=float)
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise ValueError("blockade_gauge requires finite separations x > 0")
    w = reduced.detuning_ratio
    u = reduced.shift_ratio(x)
    gap = _markov_gap(u, w)
    gamma = 1.0 / (2.0 * gap)
    xi = (gamma + w) ** 2 + 2.0
    ratio = (gamma + w) / np.sqrt(xi)
    # d(Gamma)/dx through the power law, for the gradient term of phi
    dgamma = reduced.power * u / (2.0 * x * gap * gap)
    a = np.stack([-ratio - 1.0, ratio - 1.0]) / 4.0
    phi = (
        1.0
        + np.stack([ratio, -ratio])
        + 1.0 / xi
        + 4.0 * dgamma * dgamma / (reduced.kappa**2 * xi * xi)
    ) / 8.0
    return a, phi


def blockade_correspondence(sign_of_shift: float) -> dict:
    """Map effective branches onto the general labels.

    Keys: 'eff_plus', 'eff_minus' for the two bright branches and
    'ee_like' for the general label the effective theory drops (its
    vector potential tends to the constant -hbar*k_L at short range).
    """
    if sign_of_shift > 0.0:
        return {"eff_plus": "+", "eff_minus": "-", "ee_like": "1"}
    if sign_of_shift < 0.0:
        return {"eff_plus": "-", "eff_minus": "1", "ee_like": "+"}
    raise ValueError("sign_of_shift must be nonzero")


def weak_expansion(u, w) -> np.ndarray:
    """Vector potential a to first order in u, all labels, units hbar*k_L.

    Rows per spectrum.LABELS, shape (3,) + broadcast(u, w).shape.  Valid
    for |u| well below sqrt(1 + w^2).  At u = 0 the labels take the
    single-atom values (the '-' label the constant -1/2).
    """
    u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    lam = np.hypot(1.0, w)
    lam4 = lam**4
    # Linear coefficients sum to zero: the total a stays -3/2 at every
    # interaction strength.
    return np.stack([
        0.5 * (-1.0 + w / lam) + (w - lam) / (4.0 * lam4) * u,
        -0.5 - w / (2.0 * lam4) * u,
        0.5 * (-1.0 - w / lam) + (w + lam) / (4.0 * lam4) * u,
    ])


def single_atom_gauge(w):
    """(a, phi) of one isolated dressed atom, the r -> infinity limit.

    Two arrays of shape (2,) + w.shape, rows (branch '+', branch '-'):
    a = (-1 +- w/Lambda)/2 with Lambda = sqrt(1 + w^2), and
    phi = 1/(4 Lambda^2) on both branches.  A uniform drive carries no
    gradient, so there is no magnetic field.
    """
    w = np.asarray(w, dtype=float)
    lam = np.hypot(1.0, w)
    phi = 1.0 / (4.0 * lam * lam)
    return 0.5 * (-1.0 + np.stack([w, -w]) / lam), np.stack([phi, phi])


def antiblockade_distances(reduced: ReducedParameters):
    """Separations where u(x) = w and u(x) = 2w, in crossover units.

    Returns (radii, reason): radii = [(Lambda/|w|)^(1/p),
    (Lambda/|2w|)^(1/p)] with Lambda = sqrt(1 + w^2), and reason "".  Both
    conditions need the interaction shift and the detuning to have the same
    sign; otherwise radii is empty and reason says why, rather than raising.
    """
    w = reduced.detuning_ratio
    if w == 0.0:
        return np.empty(0), "zero detuning: no finite resonance distance"
    if np.sign(w) != reduced.interaction_sign:
        return np.empty(0), "detuning and interaction shift have opposite signs"
    targets = np.abs(np.array([w, 2.0 * w]))
    return (reduced.dressing_ratio / targets) ** (1.0 / reduced.power), ""
