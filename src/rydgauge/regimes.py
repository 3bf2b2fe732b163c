"""Limiting regimes of the dressed pair.

Three approximations with closed forms: the blockade effective theory
(interaction dominates the drive), the weak-interaction expansion (drive
dominates), and the antiblockade resonance distances.  Each comes with
its domain of validity; outside it the general machinery in
:mod:`rydgauge.gauge` stays the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .model import (
    DriveParams,
    InteractionModel,
    crossover_distance,
    generalized_rabi,
    interaction_shift,
    reduced_parameters,
)
from .spectrum import PairConfiguration, _check_label

EFFECTIVE_BASIS = ("psi_minus", "psi_plus", "gg")

# advisory threshold: the elimination of the doubly excited state needs
# the interaction to dominate the drive
VALIDITY_RATIO = 0.2

_EPS = float(np.finfo(float).eps)

_SINGULAR_MESSAGE = (
    "effective theory singular at V = 4*delta/3 "
    "(single-photon antiblockade resonance)"
)


def _guard_gap(gap: float, shift: float, resonant: float) -> float:
    # equality at machine precision: an ulp off the pole the closed forms
    # return rounding noise, so that band counts as the pole itself
    if abs(gap) <= 4.0 * _EPS * max(abs(shift), abs(resonant)):
        raise ValueError(_SINGULAR_MESSAGE)
    return gap


def _markov_denominator(params: DriveParams, shift_rad_s: float) -> float:
    resonant = 4.0 * params.detuning_rad_s / 3.0
    return _guard_gap(shift_rad_s - resonant, shift_rad_s, resonant)


def _advisory(params: DriveParams, shift_rad_s: float) -> tuple:
    if generalized_rabi(params) >= VALIDITY_RATIO * abs(shift_rad_s):
        return ("validity: drive not negligible against the interaction",)
    return ()


@dataclass(frozen=True)
class BlockadeEffective:
    """Effective three-level description once |ee> is eliminated.

    Energies are exact eigenvalues of the effective Hamiltonian; the
    bright eigenvectors live in the {|psi_plus>, |gg>} plane while
    |psi_minus> stays decoupled.
    """

    light_shift_rad_s: float  # second-order shift of |psi_plus>
    markov_denominator_rad_s: float  # V - 4*delta/3
    xi_rad2_s2: float  # squared splitting scale
    dark_energy_J: float
    energy_plus_J: float
    energy_minus_J: float
    eigenvector_plus: np.ndarray  # (psi_plus, gg) components
    eigenvector_minus: np.ndarray
    advisory: tuple = ()

    def __post_init__(self) -> None:
        if not self.xi_rad2_s2 > 0.0:
            raise ValueError("splitting scale must be positive")
        if self.energy_plus_J > self.energy_minus_J:
            raise ValueError("branch ordering violated")


def effective_hamiltonian(
    params: DriveParams, model: InteractionModel, config: PairConfiguration
) -> np.ndarray:
    """Effective pair Hamiltonian over {|psi_minus>, |psi_plus>, |gg>} in J.

    Valid deep in the blockade regime; the doubly excited state only
    survives as the second-order light shift on the diagonal.  The
    trace equals -hbar*Gamma: the +-delta/3 bookkeeping shifts cancel.
    """
    r_c = crossover_distance(model, params)
    shift = interaction_shift(model, config.separation * r_c)
    gap = _markov_denominator(params, shift)
    gamma = abs(params.rabi_complex) ** 2 / (2.0 * gap)
    delta = params.detuning_rad_s
    h = np.zeros((3, 3), dtype=complex)
    h[0, 0] = -HBAR * delta / 3.0
    h[1, 1] = -HBAR * (3.0 * gamma + delta) / 3.0
    h[2, 2] = 2.0 * HBAR * delta / 3.0
    h[1, 2] = HBAR * params.rabi_complex / np.sqrt(2.0)
    h[2, 1] = np.conj(h[1, 2])
    return h


def blockade_effective(
    params: DriveParams, model: InteractionModel, config: PairConfiguration
) -> BlockadeEffective:
    """Diagonalize the blockade effective Hamiltonian in closed form."""
    r_c = crossover_distance(model, params)
    shift = interaction_shift(model, config.separation * r_c)
    gap = _markov_denominator(params, shift)
    rabi2 = abs(params.rabi_complex) ** 2
    gamma = rabi2 / (2.0 * gap)
    delta = params.detuning_rad_s
    xi = (gamma + delta) ** 2 + 2.0 * rabi2
    root = np.sqrt(xi)
    e_plus = HBAR * (delta - 3.0 * gamma - 3.0 * root) / 6.0
    e_minus = HBAR * (delta - 3.0 * gamma + 3.0 * root) / 6.0
    # Eigenvectors of the 2x2 bright block, (psi_plus, gg) components.
    vecs = []
    for energy in (e_plus, e_minus):
        raw = np.array(
            [
                params.rabi_complex / np.sqrt(2.0),
                energy / HBAR + (3.0 * gamma + delta) / 3.0,
            ],
            dtype=complex,
        )
        vecs.append(raw / np.linalg.norm(raw))
    return BlockadeEffective(
        light_shift_rad_s=gamma,
        markov_denominator_rad_s=gap,
        xi_rad2_s2=xi,
        dark_energy_J=-HBAR * delta / 3.0,
        energy_plus_J=e_plus,
        energy_minus_J=e_minus,
        eigenvector_plus=vecs[0],
        eigenvector_minus=vecs[1],
        advisory=_advisory(params, shift),
    )


@dataclass(frozen=True)
class BlockadeGauge:
    """Gauge potentials of one effective branch at one separation."""

    branch: str  # "+" or "-"
    r_ab: float  # crossover units
    vector_potential: np.ndarray  # hbar*k_L units, along e_k
    scalar_potential: float  # hbar^2*k_L^2/(2m) of atom a
    advisory: tuple = ()


def blockade_gauge(
    params: DriveParams, model: InteractionModel, r_ab: float, branch: str = "+"
) -> BlockadeGauge:
    """Closed-form gauge potentials of the blockade effective branches.

    Everything reduces to the ratio X = (Gamma + delta)/sqrt(Xi): the
    vector potential is (-X - 1)/4 on the '+' branch and (X - 1)/4 on
    the '-' branch, and the scalar potential adds the gradient of the
    light shift through the interaction power law.
    """
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    if not (r_ab > 0.0):
        raise ValueError("blockade_gauge requires r_ab > 0")
    sign = 1.0 if branch == "+" else -1.0
    reduced = reduced_parameters(params, model)
    u = reduced.shift_ratio(r_ab)
    w = reduced.detuning_ratio
    resonant = 4.0 * w / 3.0
    gap = _guard_gap(u - resonant, u, resonant)
    gamma = 1.0 / (2.0 * gap)
    xi = (gamma + w) ** 2 + 2.0
    x_ratio = (gamma + w) / np.sqrt(xi)
    a_eff = (-sign * x_ratio - 1.0) / 4.0
    # d(Gamma)/dx through the power law, for the gradient term of phi
    dgamma = reduced.power * u / (2.0 * r_ab * gap * gap)
    phi_eff = (
        1.0
        + sign * x_ratio
        + 1.0 / xi
        + 4.0 * dgamma * dgamma / (reduced.kappa**2 * xi * xi)
    ) / 8.0
    khat = np.asarray(params.wavevector_direction, dtype=float)
    shift = u * abs(params.rabi_complex)
    return BlockadeGauge(
        branch=branch,
        r_ab=float(r_ab),
        vector_potential=a_eff * khat,
        scalar_potential=float(phi_eff),
        advisory=_advisory(params, shift),
    )


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


def weak_expansion(
    params: DriveParams, label: str, shift_rad_s: float
) -> np.ndarray:
    """Vector potential to first order in the interaction, hbar*k_L units.

    Valid for |V| well below the generalized Rabi frequency.  At V = 0
    the three labels reduce to the single-atom branch values (the '-'
    label to the constant -1/2).
    """
    _check_label(label)
    w = params.detuning_ratio
    u = shift_rad_s / abs(params.rabi_complex)
    lam = np.hypot(1.0, w)
    lam4 = lam**4
    # Linear coefficients sum to zero: the total A stays -3/2 hbar*k_L
    # at every interaction strength.
    if label == "1":
        a = 0.5 * (-1.0 + w / lam) + (w - lam) / (4.0 * lam4) * u
    elif label == "+":
        a = 0.5 * (-1.0 - w / lam) + (w + lam) / (4.0 * lam4) * u
    else:
        a = -0.5 - w / (2.0 * lam4) * u
    return a * np.asarray(params.wavevector_direction, dtype=float)


@dataclass(frozen=True)
class AntiblockadeDistances:
    """Separations where the interaction compensates the detuning."""

    r_single_photon_m: float | None
    r_two_photon_m: float | None
    reason: str = ""


def antiblockade_distances(
    params: DriveParams, model: InteractionModel
) -> AntiblockadeDistances:
    """Solve V(r) = delta and V(r) = 2*delta for the resonance radii.

    Both conditions need the interaction shift and the detuning to have
    the same sign; otherwise the result is empty with the reason spelled
    out rather than an error.
    """
    delta = params.detuning_rad_s
    if delta == 0.0:
        return AntiblockadeDistances(
            None, None, reason="zero detuning: no finite resonance distance"
        )
    if np.sign(delta) != model.sign:
        return AntiblockadeDistances(
            None,
            None,
            reason="detuning and interaction shift have opposite signs",
        )
    p = model.power
    magnitude = abs(model.coefficient)
    r_single = (magnitude / abs(delta)) ** (1.0 / p)
    r_two = (magnitude / abs(2.0 * delta)) ** (1.0 / p)
    return AntiblockadeDistances(r_single, r_two)
