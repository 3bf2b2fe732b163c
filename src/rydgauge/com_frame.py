"""Center-of-mass and relative-coordinate form of the gauge potentials.

The lab-frame potentials transform linearly, so this module consumes
lab-frame results instead of re-deriving eigenstates: vector potentials
combine with the same mass weights as the momenta, and the scalar
potentials split the total momentum variance into a center-of-mass part
(weight 1/2M) and a relative part (weight 1/2mu).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauge import _positive_finite, _radial_spectrum, _scalar_terms
from .model import DriveParams, InteractionModel, reduced_parameters
from .spectrum import near_degenerate


def _check_masses(mass_a_kg: float, mass_b_kg: float) -> None:
    if not (0.0 < mass_a_kg < np.inf and 0.0 < mass_b_kg < np.inf):
        raise ValueError("masses must be finite and positive")


def com_vector_potentials(
    vector_a, vector_b, mass_a_kg: float, mass_b_kg: float
) -> tuple[np.ndarray, np.ndarray]:
    """Combine per-atom vector potentials into (A_R, A_r).

    Same mass weights as the momentum map: the COM potential is the
    plain sum, the relative one is the mass-weighted difference.
    """
    _check_masses(mass_a_kg, mass_b_kg)
    a_vec = np.asarray(vector_a, dtype=float)
    b_vec = np.asarray(vector_b, dtype=float)
    total = mass_a_kg + mass_b_kg
    return a_vec + b_vec, (mass_b_kg * a_vec - mass_a_kg * b_vec) / total


@dataclass(frozen=True)
class ComScalarPotentials:
    """Scalar potentials of the COM split, dimensionless.

    ``phi_com`` is in units hbar^2*k_L^2/(2M), ``phi_relative`` in units
    hbar^2*k_L^2/(2mu).  Both are momentum variances, hence nonnegative,
    of shape (3,) + r_ab.shape with rows per spectrum.LABELS;
    ``near_degenerate`` has the shape of r_ab.
    """

    phi_com: np.ndarray
    phi_relative: np.ndarray
    near_degenerate: np.ndarray


def com_scalar_potentials(params: DriveParams, model: InteractionModel, r_ab) -> ComScalarPotentials:
    """Scalar potentials of every labeled state in COM variables, one solve.

    ``r_ab`` is one separation or an array of them, crossover units, each
    finite and > 0; the masses are the drive's.  The COM part keeps only
    the phase-gradient (total-momentum) terms; displacing both atoms
    together leaves the amplitudes unchanged, so each cross-label overlap
    picks up twice the single-photon recoil, hence the factor 4.  The
    relative part keeps the amplitude derivatives plus the phase terms
    damped by ((m_b - m_a)/M)^2.
    """
    m_a, m_b = params.mass_a_kg, params.mass_b_kg
    dm = (m_b - m_a) / (m_a + m_b)

    reduced = reduced_parameters(params, model)
    spec = _radial_spectrum(_positive_finite(r_ab, "separation r_ab"), reduced)
    dark, radial, phase = _scalar_terms(spec, reduced.kappa)
    return ComScalarPotentials(
        phi_com=4.0 * phase,
        phi_relative=dark + radial + dm * dm * phase,
        near_degenerate=near_degenerate(spec.energies),
    )
