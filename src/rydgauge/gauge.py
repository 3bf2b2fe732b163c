"""Artificial gauge potentials of the dressed atom pair.

Closed-form vector potential, magnetic field and scalar potential for each
labeled internal state, the couplings between labels behind phi and the
adiabaticity monitor, and finite-difference Berry-connection, overlap
and adiabaticity oracles for the closed forms.

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
from .spectrum import (
    LABEL_INDEX,
    LABELS,
    _check_label,
    _label_rows,
    _row_dots,
    _row_norms,
    bare_state_vector,
    dark_state_vector,
    labeled_spectrum,
    near_degenerate,
)

FD_STEP = 1e-6  # finite-difference step of the oracles, crossover units


@dataclass(frozen=True)
class _RadialSpectrum:
    """Bright-state quantities at separations x and their exact x-slopes.

    Rows follow spectrum.LABELS.  ``n2`` is the squared normalization
    1/(ee^2 + gg^2 + 2 ee^2 gg^2); ``de_dx`` is also the slope of ``ee``.
    """

    energies: np.ndarray
    ee: np.ndarray
    gg: np.ndarray
    n2: np.ndarray
    de_dx: np.ndarray
    dgg_dx: np.ndarray
    da_dx: np.ndarray  # slope of the vector potential a, i.e. B in B0 units

    @property
    def connection(self) -> np.ndarray:
        """Vector-potential magnitude a per label, units hbar·k_L."""
        return -self.n2 * self.ee * self.ee * (1.0 + self.gg * self.gg)

    def scalar(self, kappa: float) -> np.ndarray:
        """Scalar potential per label, units hbar^2·k_L^2/(2m)."""
        dark, radial, phase = _scalar_terms(self, kappa)
        return dark + radial + phase


def _radial_spectrum(x_over_rc, reduced: ReducedParameters) -> _RadialSpectrum:
    """One solve of the cubic plus closed-form radial derivatives.

    Hellmann-Feynman with dH/du = |ee><ee| gives dE/du = n2 ee^2, and
    du/dx = -p u/x.  The ground amplitude's slope is written as
    -n2 gg^2 (1 + 2 ee^2) du/dx, which keeps its relative precision where
    dE/du - 1 would cancel.  da/du comes from first-order perturbation
    theory over the other two bright states,

        da_i/du = -n2_i ee_i sum_{j != i} n2_j ee_j (ee_i ee_j - gg_i gg_j) / (E_i - E_j),

    and the tridiagonal bright block has non-zero couplings, so its
    energies never coincide.
    """
    x = np.asarray(x_over_rc, dtype=float)
    u = reduced.shift_ratio(x)
    energies, ee, gg = labeled_spectrum(u, reduced.detuning_ratio)
    n2 = 1.0 / (ee * ee + gg * gg + 2.0 * ee * ee * gg * gg)
    du_dx = -reduced.power * u / x
    weight = n2 * ee
    gap = energies[:, None] - energies[None, :]  # zero only on the diagonal
    overlap = ee[:, None] * ee[None, :] - gg[:, None] * gg[None, :]
    pairs = np.divide(weight[None] * overlap, gap, out=np.zeros_like(gap), where=gap != 0.0)
    da_du = -weight * pairs.sum(axis=1)
    return _RadialSpectrum(
        energies=energies,
        ee=ee,
        gg=gg,
        n2=n2,
        de_dx=weight * ee * du_dx,
        dgg_dx=-n2 * gg * gg * (1.0 + 2.0 * ee * ee) * du_dx,
        da_dx=da_du * du_dx,
    )


def _radial_bracket(spec: _RadialSpectrum) -> np.ndarray:
    """[i, j]: de_dx_i ee_j (1 + 2 gg_i gg_j) + (1 + 2 ee_i ee_j) dgg_dx_i gg_j,
    the radial coupling of labels i and j without the norms n_i n_j."""
    ee_i, ee_j = spec.ee[:, None], spec.ee[None, :]
    gg_i, gg_j = spec.gg[:, None], spec.gg[None, :]
    return (
        spec.de_dx[:, None] * ee_j * (1.0 + 2.0 * gg_i * gg_j)
        + (1.0 + 2.0 * ee_i * ee_j) * spec.dgg_dx[:, None] * gg_j
    )


def _scalar_terms(spec: _RadialSpectrum, kappa: float):
    """The three parts of the scalar potential per label, hbar^2·k_L^2/(2m).

    Returns (dark, radial, phase): the dark-state channel, and the sums
    over the other bright labels of the amplitude-derivative and of the
    laser-phase-gradient overlaps.
    """
    ee, gg, n2 = spec.ee, spec.gg, spec.n2
    ee_i, ee_j = ee[:, None], ee[None, :]
    gg_i, gg_j = gg[:, None], gg[None, :]
    derivative = _radial_bracket(spec) ** 2 / kappa**2
    phase = ee_i**2 * ee_j**2 * (1.0 + gg_i * gg_j) ** 2
    diag = np.arange(3)
    derivative[diag, diag] = 0.0
    phase[diag, diag] = 0.0
    dark = n2 * ee * ee * gg * gg / 2.0
    radial = n2 * np.sum(n2[None] * derivative, axis=1)
    return dark, radial, n2 * np.sum(n2[None] * phase, axis=1)


def _pair_amplitudes(spec: _RadialSpectrum):
    """Couplings <chi_j|d chi_i> per unit step, up to each vector's gauge sign.

    Returns (radial, phase, dark): ``radial[i, j]`` for a radial step of
    one r_c; ``phase[i, j]`` and, for the dark state, ``dark[i]`` for a
    step along the beam, per i·kappa.  Diagonals are zero; the squares,
    radial over kappa^2, sum to :meth:`_RadialSpectrum.scalar`.
    """
    n, ee, gg = np.sqrt(spec.n2), spec.ee, spec.gg
    norms = n[:, None] * n[None, :]
    radial = norms * _radial_bracket(spec)
    phase = norms * ee[:, None] * ee[None, :] * (1.0 + gg[:, None] * gg[None, :])
    diag = np.arange(3)
    radial[diag, diag] = 0.0
    phase[diag, diag] = 0.0
    return radial, phase, n * ee * gg / np.sqrt(2.0)


def connection_profile(x_over_rc, reduced: ReducedParameters) -> np.ndarray:
    """Vector-potential magnitude a(x) for all labels, units hbar·k_L.

    Returns shape (3,) + x.shape, rows ordered per spectrum.LABELS.  The
    full vector potential is a(x)·e_k.
    """
    return _radial_spectrum(x_over_rc, reduced).connection


def field_profile(x_over_rc, reduced: ReducedParameters) -> np.ndarray:
    """Radial derivative da/dx for all labels (azimuthal field magnitude, B0 units)."""
    return _radial_spectrum(x_over_rc, reduced).da_dx


def scalar_profile(x_over_rc, reduced: ReducedParameters) -> np.ndarray:
    """Scalar potential for all labels, units hbar^2·k_L^2/(2m).

    Implements the closed form: the dark-state channel plus the cross-label
    sum of derivative and phase-gradient terms, with the exact amplitude
    slopes of the radial spectrum.
    """
    return _radial_spectrum(x_over_rc, reduced).scalar(reduced.kappa)


@dataclass(frozen=True)
class GaugeSample:
    """Gauge potentials of one labeled pair state at one separation."""

    label: str
    r_ab: float  # crossover units
    vector_potential: np.ndarray  # hbar·k_L
    scalar_potential: float  # hbar^2·k_L^2/(2m) of the frame atom
    magnetic_field: np.ndarray  # B0 units
    frame: str = "atom_a"
    flags: tuple = ()


def _field_inputs(label: str, r_vec, frame: str):
    """Check label and frame; return r_vec, shape (3,) or (n, 3), and its lengths.

    Each length has the bits of ``np.linalg.norm`` of its vector alone.
    """
    _check_label(label)
    if frame not in ("atom_a", "atom_b"):
        raise ValueError("frame must be 'atom_a' or 'atom_b'")
    r_vec = np.asarray(r_vec, dtype=float)
    if r_vec.ndim not in (1, 2) or r_vec.shape[-1] != 3:
        raise ValueError("r_vec must have shape (3,) or (n, 3)")
    r = _row_norms(r_vec)
    if not np.all((r > 0.0) & np.isfinite(r)):
        raise ValueError("every separation in r_vec must be finite and nonzero")
    return r_vec, r


def _azimuthal_field(da_dx, r_vec, r, params: DriveParams, frame: str) -> np.ndarray:
    """B = da/dx · (e_r x e_k) for atom a, its negative for atom b."""
    khat = np.asarray(params.wavevector_direction, dtype=float)
    b = np.asarray(da_dx)[..., None] * np.cross(r_vec / r[..., None], khat)
    return -b if frame == "atom_b" else b


def vector_potential(
    params: DriveParams, model: InteractionModel, label: str, r_ab: float
) -> np.ndarray:
    """Two-atom vector potential at separation r_ab (crossover units).

    Identical for both atoms and directed along e_k; depends on the
    positions only through their distance.
    """
    _check_label(label)
    if not (0.0 < r_ab < np.inf):
        raise ValueError("vector_potential requires a finite r_ab > 0")
    reduced = reduced_parameters(params, model)
    a = connection_profile(float(r_ab), reduced)[LABEL_INDEX[label]]
    return a * np.asarray(params.wavevector_direction, dtype=float)


def magnetic_field(
    params: DriveParams,
    model: InteractionModel,
    label: str,
    r_vec,
    frame: str = "atom_a",
) -> np.ndarray:
    """Artificial magnetic field at separation vectors r_vec (B0 units).

    r_vec, of shape (3,) or (n, 3), points from atom b to atom a; the
    field for atom b is the exact negative.  One closed-form
    :func:`field_profile` call serves all n; separations parallel to the
    beam give exactly zero (the azimuthal direction degenerates).
    """
    r_vec, r = _field_inputs(label, r_vec, frame)
    da_dx = field_profile(r, reduced_parameters(params, model))[LABEL_INDEX[label]]
    return _azimuthal_field(da_dx, r_vec, r, params, frame)


def scalar_potential(
    params: DriveParams,
    model: InteractionModel,
    label: str,
    r_ab: float,
) -> float:
    """Two-atom scalar potential at separation r_ab (crossover units).

    The value is in units hbar^2·k_L^2/(2m); in these units the number
    is mass independent.
    """
    _check_label(label)
    if not (0.0 < r_ab < np.inf):
        raise ValueError("scalar_potential requires a finite r_ab > 0")
    reduced = reduced_parameters(params, model)
    return float(scalar_profile(float(r_ab), reduced)[LABEL_INDEX[label]])


def gauge_sample(
    params: DriveParams,
    model: InteractionModel,
    label: str,
    r_vec,
    frame: str = "atom_a",
) -> GaugeSample:
    """Bundle A, phi and B of one labeled state at one separation vector.

    All three and the near-degeneracy flag come from one cubic solve.
    """
    if np.shape(r_vec) != (3,):
        raise ValueError("gauge_sample takes one separation vector of shape (3,)")
    r_vec, r = _field_inputs(label, r_vec, frame)
    reduced = reduced_parameters(params, model)
    spec = _radial_spectrum(r, reduced)
    i = LABEL_INDEX[label]
    khat = np.asarray(params.wavevector_direction, dtype=float)
    return GaugeSample(
        label=label,
        r_ab=float(r),
        vector_potential=spec.connection[i] * khat,
        scalar_potential=float(spec.scalar(reduced.kappa)[i]),
        magnetic_field=_azimuthal_field(spec.da_dx[i], r_vec, r, params, frame),
        frame=frame,
        flags=("near_degenerate",) if near_degenerate(spec.energies) else (),
    )


@dataclass(frozen=True)
class BerryConnection:
    """Finite-difference Berry connection with its quality diagnostics.

    Shapes follow the separations: ``vector`` is (3,) or (n, 3), the other
    two fields () or (n,).
    """

    vector: np.ndarray  # hbar·k_L units
    imag_residual: np.ndarray  # largest |imaginary part| over the components
    gauge_discontinuity: np.ndarray  # step halving never restored a smooth stencil


def _eigenvector_field(params: DriveParams, reduced: ReducedParameters):
    """states(pos_a, label): the gauge-fixed eigenvectors of ``label`` with
    atom a at ``pos_a`` (..., 3) and atom b at the origin, crossover
    units, as the finite-difference oracles sample them."""
    khat = np.asarray(params.wavevector_direction, dtype=float)

    def states(pos_a, label):
        return bare_state_vector(
            reduced.shift_ratio(_row_norms(pos_a)),
            reduced.detuning_ratio,
            label,
            phase_a=reduced.kappa * _row_dots(pos_a, khat),
            phase_b=0.0,
            rabi_phase=params.rabi_phase_rad,
        )

    return states


def _richardson(outer_p, outer_m, inner_p, inner_m, h):
    """Derivative from states at offsets +-h and +-h/2: central differences
    at both steps, Richardson-extrapolated to (4 d(h/2) - d(h)) / 3."""
    d1 = (outer_p - outer_m) / (2.0 * h)
    d2 = (inner_p - inner_m) / h
    return (4.0 * d2 - d1) / 3.0


def berry_connection_fd(
    params: DriveParams,
    model: InteractionModel,
    label,
    r_vec,
    step: float = FD_STEP,
) -> BerryConnection:
    """Berry connection i·hbar<chi|grad_a chi> by central differences.

    ``r_vec``, of shape (3,) or (n, 3), is the position of atom a with
    atom b at the origin; ``label`` is one label or one per separation.
    Differentiates the gauge-fixed eigenvector with respect to the
    position of atom a, component by component, with Richardson
    extrapolation; each stencil offset is one batched
    :func:`bare_state_vector` call over every sample and component.  If
    the eigenvector field is not smooth across a component's stencil
    (overlap of the outer samples < 0.99) that step is halved and the
    outer pair retried, four attempts in all; persistent failure flags
    the sample.
    """
    r_vec = np.asarray(r_vec, dtype=float)
    if r_vec.ndim not in (1, 2) or r_vec.shape[-1] != 3:
        raise ValueError("r_vec must have shape (3,) or (n, 3)")
    reduced = reduced_parameters(params, model)
    states = _eigenvector_field(params, reduced)
    label = np.asarray(label)[..., None]  # one label per sample, for all three axes

    def state(offset):  # offset (..., 3): the displacement along each axis
        return states(r_vec[..., None, :] + offset[..., None] * np.eye(3), label)

    h = np.full(np.broadcast_shapes(r_vec.shape[:-1] + (3,), label.shape), step)
    for attempt in range(4):
        outer_p, outer_m = state(h), state(-h)
        smooth = np.abs(_row_dots(outer_p.conj(), outer_m)) >= 0.99
        if smooth.all() or attempt == 3:
            break
        h = np.where(smooth, h, h / 2.0)
    derivative = _richardson(outer_p, outer_m, state(h / 2.0), state(-h / 2.0), h[..., None])
    center = states(r_vec[..., None, :], label)
    value = 1j * _row_dots(center.conj(), derivative) / reduced.kappa
    return BerryConnection(
        vector=value.real,
        imag_residual=np.abs(value.imag).max(axis=-1),
        gauge_discontinuity=~smooth.all(axis=-1),
    )


def _overlap(bra, ket) -> np.ndarray:
    """|<bra|ket>| over the last axis, with the bits of abs(np.vdot(...)) per row."""
    z = _row_dots(bra.conj(), ket)
    return np.hypot(z.real, z.imag)


def _overlap_sq(bra, ket) -> np.ndarray:
    """|<bra|ket>|^2 over the last axis, with the bits of abs(np.vdot(...)) ** 2."""
    return np.float_power(_overlap(bra, ket), 2)


def scalar_potential_fd(
    params: DriveParams,
    model: InteractionModel,
    label,
    r_ab,
    step: float = 1e-5,
):
    """Scalar potential as a summed finite-difference overlap oracle.

    Places the separation perpendicular to the beam and accumulates
    |<chi_j|grad_a chi_i>|^2 over the three other internal states (the
    dark state included) for the radial and beam-axis displacements; the
    third axis contributes nothing at first order in this geometry.
    ``r_ab`` is one separation or an array of them and ``label`` one label
    or an array broadcasting against it; each stencil offset is one
    batched :func:`bare_state_vector` call.  Units hbar^2*k_L^2/(2m), like
    :func:`scalar_potential`.
    """
    r_ab = np.asarray(r_ab, dtype=float)
    if not np.all(r_ab > 0.0):
        raise ValueError("scalar_potential_fd requires r_ab > 0")
    reduced = reduced_parameters(params, model)
    khat = np.asarray(params.wavevector_direction, dtype=float)
    rows = _label_rows(label)
    states = _eigenvector_field(params, reduced)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(helper, khat)) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e_sep = helper - np.dot(helper, khat) * khat
    e_sep = e_sep / np.linalg.norm(e_sep)

    base = r_ab[..., None] * e_sep
    bright = bare_state_vector(
        reduced.shift_ratio(r_ab),
        reduced.detuning_ratio,
        np.reshape(LABELS, (3,) + (1,) * r_ab.ndim),
        rabi_phase=params.rabi_phase_rad,
    )
    dark = dark_state_vector(0.0, 0.0)
    total = np.zeros(np.broadcast_shapes(r_ab.shape, rows.shape))
    for axis in (e_sep, khat):
        derivative = _richardson(
            *(states(base + offset * axis, label) for offset in (step, -step, step / 2, -step / 2)),
            step,
        )
        for row, other in enumerate(bright):  # the other bright labels, then the dark state
            total += np.where(rows == row, 0.0, _overlap_sq(other, derivative))
        total += _overlap_sq(dark, derivative)
    return total / reduced.kappa**2


def adiabaticity_fd(
    params: DriveParams, model: InteractionModel, label: str, r_vec, velocity, step: float = FD_STEP
) -> np.ndarray:
    """Adiabaticity hbar|<chi_j|d/dt chi_i>| / |E_i - E_j|, worst over j != i, by central differences.

    ``r_vec``, of shape (3,) or (n, 3), places atom a with atom b at the
    origin, crossover units; ``velocity``, of the same shape, is nonzero
    and in r_c·|Omega|.  The eigenvector is differentiated along the
    velocity at a fixed step and projected on the other bright states and
    on the dark state at zero energy.  Oracle for ``dynamics.adiabaticity``.
    """
    r_vec, velocity = np.asarray(r_vec, dtype=float), np.asarray(velocity, dtype=float)
    reduced = reduced_parameters(params, model)
    states = _eigenvector_field(params, reduced)
    speed = _row_norms(velocity)
    direction = velocity / speed[..., None]
    derivative = _richardson(
        *(states(r_vec + offset * direction, label) for offset in (step, -step, step / 2, -step / 2)),
        step,
    )
    bright = states(r_vec, np.reshape(LABELS, (3,) + (1,) * (r_vec.ndim - 1)))
    phase = reduced.kappa * _row_dots(r_vec, np.asarray(params.wavevector_direction, dtype=float))
    z = np.exp(-1j * phase) * derivative[..., 1] - derivative[..., 2]  # sqrt(2) <dark|d chi>
    dark = np.hypot(z.real, z.imag) / np.sqrt(2.0)
    energies, _, _ = labeled_spectrum(reduced.shift_ratio(_row_norms(r_vec)), reduced.detuning_ratio)
    row = LABEL_INDEX[label]
    gaps = np.abs(energies[row] - energies)
    with np.errstate(divide="ignore", invalid="ignore"):  # the label's own zero gap
        worst = np.delete(_overlap(bright, derivative) / gaps, row, axis=0)
    return speed * np.maximum(worst.max(axis=0), dark / np.abs(energies[row]))


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

    Atom b sits at the origin with the beam along z; atom a is placed at
    each grid point (crossover units), x-major.  Points at the origin are
    skipped and recorded rather than raised; the rest share one solve.
    """
    if tuple(params.wavevector_direction) != (0.0, 0.0, 1.0):
        raise ValueError("field_map assumes the beam along +z")
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
