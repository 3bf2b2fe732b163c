"""Internal spectrum of the driven, interacting atom pair.

The two-atom internal Hamiltonian decouples an antisymmetric dark state
(energy exactly zero) from a 3x3 bright block.  This module solves the
bright block's characteristic cubic in closed form with a stable labeling
scheme, builds the 4x4 Hamiltonian with explicit laser phases, and
produces gauge-fixed eigenvectors.

Dimensionless conventions used by the closed-form solvers:
    u = V/|Omega|   (interaction shift over Rabi magnitude)
    w = delta/|Omega|
    energies in units of hbar|Omega|
The three bright labels are "1", "-", "+" ordered by descending energy,
E_1 >= E_- >= E_+.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR, TWOPI
from .model import DriveParams, InteractionModel, crossover_distance, interaction_shift

LABELS = ("1", "-", "+")
LABEL_INDEX = {"1": 0, "-": 1, "+": 2}

BLOCKADE_BASIS = ("psi_minus", "ee", "psi_plus", "gg")
BARE_BASIS = ("ee", "eg", "ge", "gg")

# Beyond this |u| the trigonometric cubic loses relative accuracy on the
# small roots; switch to Newton deflation of the dominant root.
DEFLATE_AT = 100.0

DEGENERACY_TOL = 1e-10  # model units

_TRIG_OFFSETS = np.array([0.0, -TWOPI / 3.0, TWOPI / 3.0])  # angles of E_1, E_-, E_+


def _polish(e, u, w, steps=2):
    """Newton-polish roots of the monic characteristic cubic."""
    c = u * w - w * w - 1.0
    d = 0.5 * u
    for _ in range(steps):
        f = ((e - u) * e + c) * e + d
        fp = (3.0 * e - 2.0 * u) * e + c
        e = e - np.where(fp != 0.0, f / np.where(fp == 0.0, 1.0, fp), 0.0)
    return e


def _roots_trig(u, w):
    """Three real roots by the trigonometric method, shape (3,) + u.shape, descending."""
    eta = (4.0 / 3.0) * (w * (u - w) - 1.0 - u * u / 3.0)
    gam = (u / 3.0) * ((8.0 / 9.0) * u * u - 4.0 * w * (u - w) - 2.0)
    s = np.sqrt(np.maximum(-eta, 0.0))
    s3 = s * s * s
    arg = np.divide(gam, s3, out=np.ones_like(gam + 0.0), where=s3 > 0)
    third = np.arccos(np.clip(arg, -1.0, 1.0)) / 3.0
    offsets = _TRIG_OFFSETS.reshape((3,) + (1,) * u.ndim)
    return _polish(s * np.cos(third + offsets) + u / 3.0, u, w)


def _roots_deflated(u, w):
    """Roots for |u| >> 1: Newton on the dominant root, then deflation.

    The substitution e = u - t maps the dominant (interaction-like) root to
    t = O(1/u), which Newton iteration from t = w resolves at full relative
    precision; the remaining quadratic pair follows from Vieta.  Each
    element stops once its own step is below a few ulp, so its roots do
    not depend on the rest of the batch.
    """
    t = w + np.zeros_like(u)
    tol = 4.0 * np.finfo(float).eps  # a few ulp: the smallest step doubles resolve
    active = np.ones(t.shape, dtype=bool)
    for _ in range(40):
        ua, wa, ta = u[active], w[active], t[active]
        f = ua * ua * (wa - ta) + ua * (2.0 * ta * ta - wa * ta - wa * wa - 0.5) + ta * (
            wa * wa + 1.0 - ta * ta
        )
        fp = -ua * ua + ua * (4.0 * ta - wa) + wa * wa + 1.0 - 3.0 * ta * ta
        step = f / fp
        ta = ta - step
        t[active] = ta
        active[active] = np.abs(step) > tol * np.maximum(1.0, np.abs(ta))
        if not active.any():
            break
    e_big = u - t
    q = -u / (2.0 * (u - t))  # product of the two remaining roots
    disc = np.sqrt(t * t - 4.0 * q)
    pair = _polish(0.5 * (t + np.stack([disc, -disc])), u, w)
    # descending: the dominant root leads for u > 0 and trails for u < 0
    ladder = np.concatenate([e_big[None], pair, e_big[None]])
    return np.where(u > 0, ladder[:3], ladder[1:])


def _roots_canonical_half(u, w):
    """Descending roots, shape (3,) + u.shape, for w < 0 (or w = 0, u <= 0)."""
    big = np.abs(u) > DEFLATE_AT
    if not big.any():
        return _roots_trig(u, w)
    if big.all():
        return _roots_deflated(u, w)
    roots = np.empty((3,) + u.shape)
    roots[:, ~big] = _roots_trig(u[~big], w[~big])
    roots[:, big] = _roots_deflated(u[big], w[big])
    return roots


def labeled_spectrum(shift_ratio, detuning_ratio):
    """Bright-state energies and eigenvector amplitude factors.

    Parameters
    ----------
    shift_ratio : array_like
        u = V/|Omega|, any sign, any magnitude.
    detuning_ratio : array_like
        w = delta/|Omega|, broadcast against ``shift_ratio``.

    Returns
    -------
    energies, ee_amplitude, gg_amplitude : ndarray
        Each of shape (3,) + broadcast shape, rows ordered per ``LABELS``.
        ``ee_amplitude`` is E - w and ``gg_amplitude`` is E + w - u, the
        unnormalized doubly-excited and ground amplitudes of the
        eigenvectors.

    Notes
    -----
    Inputs are canonicalized to the half-plane w < 0 (w = 0, u <= 0) and
    mapped back through E_1(u, w) = -E_+(-u, -w), E_-(u, w) = -E_-(-u, -w),
    so that symmetry holds bitwise.  The ground amplitude uses the on-shell
    identity (E - w) / (2 (E^2 - wE - 1/2)) wherever the denominator is
    well conditioned; the direct form E + w - u cancels catastrophically
    for the dominant root at large |u|.
    """
    u = np.asarray(shift_ratio, dtype=float)
    w = np.asarray(detuning_ratio, dtype=float)
    scalar = u.ndim == 0 and w.ndim == 0
    u, w = np.atleast_1d(u), np.atleast_1d(w)
    u, w = np.broadcast_arrays(u + 0.0, w + 0.0)
    flip = (w > 0.0) | ((w == 0.0) & (u > 0.0))
    uc = np.where(flip, -u, u)
    wc = np.where(flip, -w, w)
    roots = _roots_canonical_half(uc, wc)
    energies = np.where(flip, -roots[::-1], roots)
    ee_amp = energies - w
    denom = energies * energies - w * energies - 0.5
    direct = energies + w - u
    stable = np.divide(ee_amp, 2.0 * denom, out=np.zeros_like(energies), where=denom != 0)
    gg_amp = np.where(np.abs(denom) > 1.0, stable, direct)
    if scalar:
        return energies[:, 0], ee_amp[:, 0], gg_amp[:, 0]
    return energies, ee_amp, gg_amp


def near_degenerate(energies) -> np.ndarray:
    """True where two of the four levels lie within DEGENERACY_TOL.

    ``energies`` has the bright energies along its first axis, as
    returned by :func:`labeled_spectrum`; the dark level at zero is added.
    The result has the shape of the remaining axes.
    """
    energies = np.asarray(energies, dtype=float)
    ladder = np.concatenate([np.zeros((1,) + energies.shape[1:]), energies])
    gaps = np.diff(np.sort(ladder, axis=0), axis=0)
    return gaps.min(axis=0) < DEGENERACY_TOL


@dataclass(frozen=True)
class LabeledEnergies:
    """The four internal energies in units of hbar|Omega|."""

    e0: float  # dark state, exactly zero
    e1: float
    eminus: float
    eplus: float

    def by_label(self, label: str) -> float:
        return {"0": self.e0, "1": self.e1, "-": self.eminus, "+": self.eplus}[label]


def eigenvalues_analytic(rabi_rad_s, detuning_rad_s: float, shift_rad_s: float) -> LabeledEnergies:
    """Closed-form eigenvalues of the full 4x4 problem.

    Parameters
    ----------
    rabi_rad_s : complex or float
        Rabi frequency; only its magnitude enters the spectrum.
    detuning_rad_s, shift_rad_s : float
        Laser detuning delta and interaction shift V, in rad/s.

    Returns
    -------
    LabeledEnergies in units of hbar|Omega| (dark-state energy exactly 0).
    """
    mag = abs(rabi_rad_s)
    if not mag > 0.0:
        raise ValueError("eigenvalues_analytic requires |Omega| > 0")
    energies, _, _ = labeled_spectrum(shift_rad_s / mag, detuning_rad_s / mag)
    return LabeledEnergies(
        e0=0.0,
        e1=float(energies[0]),
        eminus=float(energies[1]),
        eplus=float(energies[2]),
    )


@dataclass(frozen=True)
class PairConfiguration:
    """Positions of the two atoms in crossover-distance units."""

    position_a: tuple[float, float, float]
    position_b: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "position_a", tuple(float(c) for c in self.position_a))
        object.__setattr__(self, "position_b", tuple(float(c) for c in self.position_b))
        if not (self.separation > 0.0):
            raise ValueError("atoms must not coincide (r_ab > 0)")

    @property
    def separation(self) -> float:
        d = np.subtract(self.position_a, self.position_b)
        return float(np.sqrt(np.dot(d, d)))


@dataclass(frozen=True)
class HamiltonianMatrix:
    """4x4 internal Hamiltonian in the ordered basis ``BLOCKADE_BASIS``.

    Entries are in joules and the laser phase factors appear explicitly on
    the couplings.  The first row and column (antisymmetric state) vanish
    identically.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError("HamiltonianMatrix must be 4x4")
        scale = np.linalg.norm(m)
        if scale > 0 and np.linalg.norm(m - m.conj().T) > 1e-14 * scale:
            raise ValueError("HamiltonianMatrix must be Hermitian")
        object.__setattr__(self, "matrix", m)


def build_hamiltonian(
    params: DriveParams, model: InteractionModel, config: PairConfiguration
) -> HamiltonianMatrix:
    """Assemble the two-atom Hamiltonian at the configured positions.

    The diagonal is {0, hbar(V - delta), 0, hbar·delta}; the doubly excited
    state couples to the symmetric singly excited state with the two-photon
    phase exp(i k_L·(r_a + r_b)) attached.
    """
    r_c = crossover_distance(model, params)
    shift = interaction_shift(model, config.separation * r_c)
    kappa = params.wavenumber_rad_m * r_c
    khat = np.asarray(params.wavevector_direction, dtype=float)
    phase_a = kappa * float(np.dot(khat, config.position_a))
    phase_b = kappa * float(np.dot(khat, config.position_b))
    coupling = HBAR * params.rabi_complex / np.sqrt(2.0)
    h = np.zeros((4, 4), dtype=complex)
    h[1, 1] = HBAR * (shift - params.detuning_rad_s)
    h[3, 3] = HBAR * params.detuning_rad_s
    h[1, 2] = coupling * np.exp(1j * (phase_a + phase_b))
    h[2, 1] = np.conj(h[1, 2])
    h[2, 3] = coupling
    h[3, 2] = np.conj(h[2, 3])
    return HamiltonianMatrix(matrix=h)


def eigenvalues_numeric(hamiltonian) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending (dense solver oracle).

    Accepts a HamiltonianMatrix or a plain array.  Raises if the input is
    not Hermitian within 1e-12 relative.
    """
    m = hamiltonian.matrix if isinstance(hamiltonian, HamiltonianMatrix) else np.asarray(
        hamiltonian, dtype=complex
    )
    scale = np.linalg.norm(m)
    if scale > 0 and np.linalg.norm(m - m.conj().T) > 1e-12 * scale:
        raise ValueError("eigenvalues_numeric requires a Hermitian matrix")
    return np.linalg.eigvalsh(m)


def bare_state_vector(
    shift_ratio: float,
    detuning_ratio: float,
    label: str,
    phase_a: float = 0.0,
    phase_b: float = 0.0,
    rabi_phase: float = 0.0,
) -> np.ndarray:
    """Normalized, gauge-fixed eigenvector in the bare basis ``BARE_BASIS``.

    ``phase_a``/``phase_b`` are the accumulated laser phases k_L·r at the
    two atom positions.  The gauge is fixed so the |gg> coefficient carries
    the phase of Omega* (real positive for a real drive), which keeps the
    vector field smooth for finite-difference derivatives.
    """
    _, ee_amp, gg_amp = labeled_spectrum(shift_ratio, detuning_ratio)
    idx = LABEL_INDEX[label]
    ee = float(ee_amp[idx])
    gg = float(gg_amp[idx])
    theta = rabi_phase
    raw = np.array(
        [
            ee * np.exp(1j * (theta + phase_a + phase_b)),
            ee * gg * np.exp(1j * phase_a),
            ee * gg * np.exp(1j * phase_b),
            gg * np.exp(-1j * theta),
        ]
    )
    nrm = np.linalg.norm(raw)
    if nrm < 1e-13:
        raise ValueError("eigenvector construction degenerate; use eigensystem()")
    vec = raw / nrm
    return _fix_gauge(vec, theta, gg_index=3)


def dark_state_vector(phase_a: float = 0.0, phase_b: float = 0.0) -> np.ndarray:
    """Antisymmetric zero-energy eigenvector in the bare basis."""
    return np.array(
        [0.0, np.exp(1j * phase_a), -np.exp(1j * phase_b), 0.0]
    ) / np.sqrt(2.0)


def _fix_gauge(vec: np.ndarray, rabi_phase: float, gg_index: int) -> np.ndarray:
    """Rotate a global phase so vec[gg_index] has the phase of Omega*."""
    g = vec[gg_index]
    if abs(g) > 1e-12:
        vec = vec * (np.exp(-1j * rabi_phase) * np.conj(g) / abs(g))
    return vec


@dataclass(frozen=True)
class EigenSystem:
    """One labeled eigenpair plus the full energy ladder.

    Energies are in hbar|Omega| units.  ``ee_amplitude``, ``gg_amplitude``
    and ``normalization`` are tabulated for all three bright labels;
    ``coefficients`` is the normalized eigenvector of ``label`` in the
    bright blockade basis (|ee>, |psi_plus>, |gg>).
    """

    label: str
    e0: float
    e1: float
    eminus: float
    eplus: float
    ee_amplitude: dict
    gg_amplitude: dict
    normalization: dict
    coefficients: np.ndarray
    flags: tuple = ()

    def energy(self, label: str | None = None) -> float:
        label = self.label if label is None else label
        return {"0": self.e0, "1": self.e1, "-": self.eminus, "+": self.eplus}[label]


def eigensystem(
    params: DriveParams,
    model: InteractionModel,
    config: PairConfiguration,
    label: str = "+",
) -> EigenSystem:
    """Gauge-fixed eigenpair of the bright block at a pair configuration.

    Falls back to the dense numeric eigenvector (same gauge fix, flagged)
    when the closed-form coefficient vector degenerates, which happens at
    isolated defective parameter points.
    """
    if label not in LABELS:
        raise ValueError(f"label must be one of {LABELS}")
    mag = params.rabi_magnitude_rad_s
    r_c = crossover_distance(model, params)
    shift = interaction_shift(model, config.separation * r_c)
    u = shift / mag
    w = params.detuning_ratio
    energies, ee_amp, gg_amp = labeled_spectrum(u, w)

    norms_sq = ee_amp**2 + gg_amp**2 + 2.0 * ee_amp**2 * gg_amp**2
    flags = ["near_degenerate"] if near_degenerate(energies) else []

    kappa = params.wavenumber_rad_m * r_c
    khat = np.asarray(params.wavevector_direction, dtype=float)
    phase_a = kappa * float(np.dot(khat, config.position_a))
    phase_b = kappa * float(np.dot(khat, config.position_b))
    theta = params.rabi_phase_rad
    idx = LABEL_INDEX[label]

    if np.sqrt(norms_sq[idx]) < 1e-13:
        # defective closed form: take the dense eigenvector nearest in energy
        h = build_hamiltonian(params, model, config)
        evals, evecs = np.linalg.eigh(h.matrix)
        target = energies[idx] * HBAR * mag
        col = int(np.argmin(np.abs(evals - target)))
        coeff = _fix_gauge(evecs[1:, col].copy(), theta, gg_index=2)
        flags.append("numeric_fallback")
    else:
        n = 1.0 / np.sqrt(norms_sq[idx])
        coeff = n * np.array(
            [
                ee_amp[idx] * np.exp(1j * (theta + phase_a + phase_b)),
                np.sqrt(2.0) * ee_amp[idx] * gg_amp[idx],
                gg_amp[idx] * np.exp(-1j * theta),
            ]
        )
        coeff = _fix_gauge(coeff, theta, gg_index=2)

    inv_norms = 1.0 / np.sqrt(np.where(norms_sq > 0, norms_sq, np.inf))
    return EigenSystem(
        label=label,
        e0=0.0,
        e1=float(energies[0]),
        eminus=float(energies[1]),
        eplus=float(energies[2]),
        ee_amplitude={lab: float(ee_amp[i]) for i, lab in enumerate(LABELS)},
        gg_amplitude={lab: float(gg_amp[i]) for i, lab in enumerate(LABELS)},
        normalization={lab: float(inv_norms[i]) for i, lab in enumerate(LABELS)},
        coefficients=coeff,
        flags=tuple(flags),
    )
