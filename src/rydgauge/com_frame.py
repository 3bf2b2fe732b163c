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

from .gauge import _radial_spectrum, _scalar_terms
from .model import DriveParams, InteractionModel, reduced_parameters
from .spectrum import LABEL_INDEX, _check_label, near_degenerate


@dataclass(frozen=True)
class ComFrame:
    """Mass-weighted coordinates of the pair."""

    mass_a_kg: float
    mass_b_kg: float
    total_mass_kg: float
    reduced_mass_kg: float
    com_position: np.ndarray
    relative_position: np.ndarray  # points from atom b to atom a

    def __post_init__(self) -> None:
        m_sum = self.mass_a_kg + self.mass_b_kg
        mu = self.mass_a_kg * self.mass_b_kg / m_sum
        # atol=0: masses in kg are ~1e-25, the default atol would mask any error
        if not np.isclose(self.total_mass_kg, m_sum, rtol=1e-12, atol=0.0):
            raise ValueError("total mass inconsistent with per-atom masses")
        if not np.isclose(self.reduced_mass_kg, mu, rtol=1e-12, atol=0.0):
            raise ValueError("reduced mass inconsistent with per-atom masses")

    def lab_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Invert back to (position_a, position_b)."""
        frac_a = self.mass_a_kg / self.total_mass_kg
        pos_a = self.com_position + (1.0 - frac_a) * self.relative_position
        pos_b = self.com_position - frac_a * self.relative_position
        return pos_a, pos_b


def to_com(position_a, position_b, mass_a_kg: float, mass_b_kg: float) -> ComFrame:
    """Build the COM description of a pair of lab positions."""
    if mass_a_kg <= 0.0 or mass_b_kg <= 0.0:
        raise ValueError("masses must be positive")
    pos_a = np.asarray(position_a, dtype=float)
    pos_b = np.asarray(position_b, dtype=float)
    total = mass_a_kg + mass_b_kg
    return ComFrame(
        mass_a_kg=mass_a_kg,
        mass_b_kg=mass_b_kg,
        total_mass_kg=total,
        reduced_mass_kg=mass_a_kg * mass_b_kg / total,
        com_position=(mass_a_kg * pos_a + mass_b_kg * pos_b) / total,
        relative_position=pos_a - pos_b,
    )


def com_vector_potentials(
    vector_a, vector_b, mass_a_kg: float, mass_b_kg: float
) -> tuple[np.ndarray, np.ndarray]:
    """Combine per-atom vector potentials into (A_R, A_r).

    Same mass weights as the momentum map: the COM potential is the
    plain sum, the relative one is the mass-weighted difference.
    """
    a_vec = np.asarray(vector_a, dtype=float)
    b_vec = np.asarray(vector_b, dtype=float)
    total = mass_a_kg + mass_b_kg
    return a_vec + b_vec, (mass_b_kg * a_vec - mass_a_kg * b_vec) / total


def lab_vector_potentials(
    vector_com, vector_rel, mass_a_kg: float, mass_b_kg: float
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`com_vector_potentials`."""
    com = np.asarray(vector_com, dtype=float)
    rel = np.asarray(vector_rel, dtype=float)
    total = mass_a_kg + mass_b_kg
    return mass_a_kg / total * com + rel, mass_b_kg / total * com - rel


@dataclass(frozen=True)
class ComScalarPotentials:
    """Scalar potentials of the COM split, dimensionless.

    ``phi_com`` is in units hbar^2*k_L^2/(2M), ``phi_relative`` in units
    hbar^2*k_L^2/(2mu).  Both are momentum variances, hence nonnegative.
    """

    phi_com: float
    phi_relative: float
    flags: tuple = ()


def com_scalar_potentials(
    params: DriveParams,
    model: InteractionModel,
    label: str,
    r_ab: float,
    mass_a_kg: float | None = None,
    mass_b_kg: float | None = None,
) -> ComScalarPotentials:
    """Scalar potentials of one labeled state in COM variables.

    The COM part keeps only the phase-gradient (total-momentum) terms;
    displacing both atoms together leaves the amplitudes unchanged, so
    each cross-label overlap picks up twice the single-photon recoil,
    hence the factor 4.  The relative part keeps the amplitude
    derivatives plus the phase terms damped by ((m_b - m_a)/M)^2.
    """
    _check_label(label)
    if not (r_ab > 0.0):
        raise ValueError("com_scalar_potentials requires r_ab > 0")
    m_a = params.mass_a_kg if mass_a_kg is None else mass_a_kg
    m_b = params.mass_b_kg if mass_b_kg is None else mass_b_kg
    if m_a <= 0.0 or m_b <= 0.0:
        raise ValueError("masses must be positive")
    dm = (m_b - m_a) / (m_a + m_b)

    reduced = reduced_parameters(params, model)
    spec = _radial_spectrum(float(r_ab), reduced)
    flags = ("near_degenerate",) if near_degenerate(spec.energies) else ()
    dark, radial, phase = _scalar_terms(spec, reduced.kappa)
    i = LABEL_INDEX[label]
    return ComScalarPotentials(
        phi_com=float(4.0 * phase[i]),
        phi_relative=float(dark[i] + radial[i] + dm * dm * phase[i]),
        flags=flags,
    )
