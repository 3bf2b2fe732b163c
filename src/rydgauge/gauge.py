"""Artificial gauge potentials of the dressed atom pair.

Closed-form vector potential, magnetic field and scalar potential for each
labeled internal state, all from one solve of the cubic over a batch of
separations (a single point is a batch of one).  The radial coupling
<chi_j|d chi_i/dx> between labels is Hellmann-Feynman's; phi, the
adiabaticity monitor and the center-of-mass split all read it.
``validate`` checks A and phi against the couplings of ``dense``'s
eigenvectors of the 4x4 Hamiltonian, which never call this module.

Outputs are in model units: A in hbar·k_L, B in B0 = hbar·k_L/(e·r_c),
scalar potentials in hbar^2·k_L^2/(2m) of the tagged atom.  Separations
are in crossover-distance units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DriveParams,
    InteractionModel,
    ReducedParameters,
    reduced_parameters,
)
from .spectrum import LABEL_INDEX, _check_label, _divide_where, _row_norms, labeled_spectrum


@dataclass(frozen=True)
class _RadialSpectrum:
    """Bright-state quantities at separations x and their exact x-slopes.

    Rows follow spectrum.LABELS.  ``n2`` is the squared normalization
    1/(ee^2 + gg^2 + 2 ee^2 gg^2); ``du_dx`` has the shape of x.
    """

    energies: np.ndarray
    ee: np.ndarray
    gg: np.ndarray
    n2: np.ndarray
    du_dx: np.ndarray
    da_dx: np.ndarray  # slope of the vector potential a, i.e. B in B0 units

    @property
    def connection(self) -> np.ndarray:
        """Vector-potential magnitude a per label, units hbar·k_L."""
        return -self.n2 * self.ee * self.ee * (1.0 + self.gg * self.gg)

    def scalar(self, kappa: float) -> np.ndarray:
        """Scalar potential per label, units hbar^2·k_L^2/(2m)."""
        dark, radial, phase = _scalar_terms(self, kappa)
        return dark + radial + phase


def _radial_solve(x: np.ndarray, reduced: ReducedParameters):
    """u at separations x and the labeled spectrum there, as ``_radial_spectrum`` solves it."""
    u = reduced.shift_ratio(x)
    return u, labeled_spectrum(u, reduced.detuning_ratio)


def _radial_spectrum(x_over_rc, reduced: ReducedParameters) -> _RadialSpectrum:
    """One solve of the cubic plus closed-form radial derivatives.

    Hellmann-Feynman with dH/du = |ee><ee| gives dE/du = n2 ee^2, and
    du/dx = -p u/x.  da/du comes from first-order perturbation
    theory over the other two bright states,

        da_i/du = -n2_i ee_i sum_{j != i} n2_j ee_j (ee_i ee_j - gg_i gg_j) / (E_i - E_j),

    and the tridiagonal bright block has non-zero couplings, so its
    energies never coincide.
    """
    x = np.asarray(x_over_rc, dtype=float)[()]  # one point: a numpy scalar, as in the solve
    u, (energies, ee, gg) = _radial_solve(x, reduced)
    n2 = 1.0 / (ee * ee + gg * gg + 2.0 * ee * ee * gg * gg)
    du_dx = -reduced.power * u / x
    weight = n2 * ee
    overlap = ee[:, None] * ee - gg[:, None] * gg  # [i, j]: ee broadcasts as ee[None, :]
    da_du = -weight * np.add.reduce(_pair_quotients(weight * overlap, energies), axis=1)
    return _RadialSpectrum(
        energies=energies,
        ee=ee,
        gg=gg,
        n2=n2,
        du_dx=du_dx,
        da_dx=da_du * du_dx,
    )


def _pair_quotients(num, energies) -> np.ndarray:
    """[i, j]: num / (E_i - E_j), +0.0 where that gap is zero.  The zero diagonal
    keeps every call on the masked divide: a divisor with 1 on it and +0.0 written
    back takes more numpy calls than that saves, at one point as in a block."""
    gap = energies[:, None] - energies
    return _divide_where(num, gap, lambda: np.zeros(gap.shape))


def _field_slope(x_over_rc, reduced: ReducedParameters):
    """One solve: the radial spectrum and the slope dB/dx of every label's field.

    B is the spectrum's ``da_dx``.  The perturbation sum of da/du is
    differentiated once more with E' = ee' = n2 ee^2, gg' = E' - 1 =
    -n2 gg^2 (1 + 2 ee^2) (formed without cancellation) and n2' by the
    quotient rule; then dB/dx = d^2a/du^2 (du/dx)^2 + da/du d^2u/dx^2,
    where d^2u/dx^2 = p (p + 1) u / x^2 makes the last term -(p + 1) B / x.
    Only the peak search needs it.
    """
    spec = _radial_spectrum(x_over_rc, reduced)
    x = np.asarray(x_over_rc, dtype=float)
    energies, ee, gg, n2 = spec.energies, spec.ee, spec.gg, spec.n2
    de = n2 * ee * ee  # dE/du = d ee/du
    dgg = -n2 * gg * gg * (1.0 + 2.0 * ee * ee)
    dn2 = -2.0 * n2 * n2 * (ee * de * (1.0 + 2.0 * gg * gg) + gg * dgg * (1.0 + 2.0 * ee * ee))
    weight = n2 * ee
    dweight = dn2 * ee + n2 * de
    inverse = _pair_quotients(1.0, energies)
    overlap = ee[:, None] * ee - gg[:, None] * gg
    doverlap = (de[:, None] * ee[None, :] + ee[:, None] * de[None, :]
                - dgg[:, None] * gg[None, :] - gg[:, None] * dgg[None, :])
    term = weight[None] * overlap * inverse  # [i, j]: the j-th term of da_i/du over -weight_i
    dterm = (dweight[None] * overlap + weight[None] * doverlap
             - term * (de[:, None] - de[None, :])) * inverse
    d2a_du2 = -(dweight * np.add.reduce(term, axis=1) + weight * np.add.reduce(dterm, axis=1))
    slope = d2a_du2 * spec.du_dx * spec.du_dx - (reduced.power + 1.0) * spec.da_dx / x
    return spec, slope


def _radial_coupling(spec: _RadialSpectrum) -> np.ndarray:
    """[i, j]: <chi_j|d chi_i/dx> = du/dx · a_i a_j / (E_i - E_j), a = n ee.

    Hellmann-Feynman with dH/du = |ee><ee|; the diagonal is zero.  The
    product a_i a_j is formed first, so [j, i] is -[i, j] bit for bit.
    """
    a = np.sqrt(spec.n2) * spec.ee
    return _pair_quotients(spec.du_dx * (a[:, None] * a), spec.energies)


def _scalar_terms(spec: _RadialSpectrum, kappa: float):
    """The three parts of the scalar potential per label, hbar^2·k_L^2/(2m).

    Returns (dark, radial, phase): the dark-state channel, and the sums
    over the other bright labels of the squared radial couplings
    (:func:`_radial_coupling`) and of the laser-phase-gradient overlaps.
    Each pair's two terms are formed once, and each row sums its two
    terms in label order: the zero diagonal term changes no float.
    """
    ee, gg, n2 = spec.ee, spec.gg, spec.n2
    a, ee2 = np.sqrt(n2) * ee, ee**2
    radial, phase = {}, {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        gap = spec.energies[i] - spec.energies[j]
        coupling = _divide_where(spec.du_dx * (a[i] * a[j]), gap, lambda: np.zeros(gap.shape))
        radial[i, j] = radial[j, i] = coupling * coupling  # ** 2 on a numpy scalar calls pow
        overlap = 1.0 + gg[i] * gg[j]
        phase[i, j] = phase[j, i] = ee2[i] * ee2[j] * (overlap * overlap)
    others = ((1, 2), (0, 2), (0, 1))  # each label's two others, in label order
    radial = np.stack([radial[i, j] + radial[i, k] for i, (j, k) in enumerate(others)])
    phase = np.stack([n2[j] * phase[i, j] + n2[k] * phase[i, k] for i, (j, k) in enumerate(others)])
    return n2 * ee * ee * gg * gg / 2.0, radial / kappa**2, n2 * phase


def _pair_amplitudes(spec: _RadialSpectrum):
    """Couplings <chi_j|d chi_i> per unit step, up to each vector's gauge sign.

    Returns (radial, phase, dark): ``radial[i, j]`` is
    :func:`_radial_coupling`, for a radial step of one r_c, and
    antisymmetric; ``phase[i, j]`` and, for the dark state, ``dark[i]`` are
    for a step along the beam, per i·kappa.  Diagonals are zero; the
    squares, radial over kappa^2, sum to :meth:`_RadialSpectrum.scalar`.
    """
    n, ee, gg = np.sqrt(spec.n2), spec.ee, spec.gg
    phase = n[:, None] * n[None, :] * ee[:, None] * ee[None, :] * (1.0 + gg[:, None] * gg[None, :])
    diag = np.arange(3)
    phase[diag, diag] = 0.0
    return _radial_coupling(spec), phase, n * ee * gg / np.sqrt(2.0)


def _positive_finite(values, quantity: str) -> np.ndarray:
    """values as a float array; raises naming ``quantity`` unless each is finite and > 0."""
    values = np.asarray(values, dtype=float)
    if not np.all((values > 0.0) & np.isfinite(values)):
        raise ValueError(f"every {quantity} must be finite and > 0")
    return values


def _separation_vectors(r_vec, quantity: str = "r_vec"):
    """Check r_vec, shape (3,) or (n, 3); return it and its nonzero, finite lengths.

    Each length has the bits of ``np.linalg.norm`` of its vector alone.
    Errors name ``quantity``.
    """
    r_vec = np.asarray(r_vec, dtype=float)
    if r_vec.ndim not in (1, 2) or r_vec.shape[-1] != 3:
        raise ValueError(f"{quantity} must have shape (3,) or (n, 3)")
    return r_vec, _positive_finite(_row_norms(r_vec), f"separation in {quantity}")


def _profile_spectrum(x_over_rc, reduced: ReducedParameters) -> _RadialSpectrum:
    """The radial spectrum of the profiles, after checking their separations."""
    return _radial_spectrum(_positive_finite(x_over_rc, "separation x_over_rc"), reduced)


def connection_profile(x_over_rc, reduced: ReducedParameters) -> np.ndarray:
    """Vector-potential magnitude a(x) for all labels, units hbar·k_L.

    Returns shape (3,) + x.shape, rows ordered per spectrum.LABELS.  The
    full vector potential is a(x)·e_k.  Every separation must be finite
    and > 0, as for the other two profiles.
    """
    return _profile_spectrum(x_over_rc, reduced).connection


def field_profile(x_over_rc, reduced: ReducedParameters) -> np.ndarray:
    """Radial derivative da/dx for all labels (azimuthal field magnitude, B0 units)."""
    return _profile_spectrum(x_over_rc, reduced).da_dx


def scalar_profile(x_over_rc, reduced: ReducedParameters) -> np.ndarray:
    """Scalar potential for all labels, units hbar^2·k_L^2/(2m).

    Implements the closed form: the dark-state channel plus the cross-label
    sum of radial and phase-gradient couplings squared.  In units of the
    tagged atom's mass the number is mass independent.
    """
    return _profile_spectrum(x_over_rc, reduced).scalar(reduced.kappa)


def magnetic_field(params: DriveParams, model: InteractionModel, label: str, r_vec) -> np.ndarray:
    """Artificial magnetic field on atom a at separation vectors r_vec (B0 units).

    r_vec, of shape (3,) or (n, 3), points from atom b to atom a; the
    field on atom b is the exact negative of the returned one.  B = da/dx ·
    (e_r x e_z), with the beam along +z, and one closed-form
    :func:`field_profile` call serves all n; separations along z give
    exactly zero (the azimuthal direction degenerates).
    """
    _check_label(label)
    r_vec, r = _separation_vectors(r_vec)
    da_dx = field_profile(r, reduced_parameters(params, model))[LABEL_INDEX[label]]
    khat = np.asarray(params.wavevector_direction, dtype=float)
    return da_dx[..., None] * np.cross(r_vec / r[..., None], khat)


@dataclass(frozen=True)
class FieldMap:
    """Plane map of the artificial magnetic field around the pinned atom."""

    positions: np.ndarray  # (n, 2): the (x, z) grid point of each row
    field: np.ndarray  # (n, 3): B at each position, B0 units
    skipped: tuple = ()  # (x, z) grid points dropped (atom positions coincide)


def field_map(
    params: DriveParams, model: InteractionModel, label: str, x_grid, z_grid
) -> FieldMap:
    """Sample B of one labeled state over an (x, z) grid.

    Atom b sits at the origin and the beam runs along +z, as for every
    drive; atom a is placed at each grid point (crossover units), x-major.
    Points at the origin are skipped and recorded rather than raised; the
    rest share one solve.
    """
    x, z = np.meshgrid(np.asarray(x_grid, float), np.asarray(z_grid, float), indexing="ij")
    x, z = x.ravel(), z.ravel()
    origin = (x == 0.0) & (z == 0.0)
    skipped = tuple(zip(x[origin].tolist(), z[origin].tolist()))
    x, z = x[~origin], z[~origin]
    r_vec = np.stack([x, np.zeros_like(x), z], axis=1)
    return FieldMap(
        positions=np.stack([x, z], axis=1),
        field=magnetic_field(params, model, label, r_vec),
        skipped=skipped,
    )
