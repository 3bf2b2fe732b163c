"""Artificial gauge potentials of the dressed atom pair.

Closed-form vector potential, magnetic field and scalar potential for each
labeled internal state, all from one solve of the cubic over a batch of
separations (a single point is a batch of one).  The radial coupling
<chi_j|d chi_i/dx> between labels is Hellmann-Feynman's; phi, the
adiabaticity monitor and the center-of-mass split all read it.  The
finite-difference Berry-connection, overlap and adiabaticity oracles check
the closed forms.

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
)

FD_STEP = 1e-6  # finite-difference step of the oracles, crossover units


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
    x = np.asarray(x_over_rc, dtype=float)
    u, (energies, ee, gg) = _radial_solve(x, reduced)
    n2 = 1.0 / (ee * ee + gg * gg + 2.0 * ee * ee * gg * gg)
    du_dx = -reduced.power * u / x
    weight = n2 * ee
    gap = energies[:, None] - energies[None, :]  # zero only on the diagonal
    overlap = ee[:, None] * ee[None, :] - gg[:, None] * gg[None, :]
    pairs = np.divide(weight[None] * overlap, gap, out=np.zeros(gap.shape), where=gap != 0.0)
    da_du = -weight * np.add.reduce(pairs, axis=1)
    return _RadialSpectrum(
        energies=energies,
        ee=ee,
        gg=gg,
        n2=n2,
        du_dx=du_dx,
        da_dx=da_du * du_dx,
    )


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
    gap = energies[:, None] - energies[None, :]  # zero only on the diagonal
    inverse = np.divide(1.0, gap, out=np.zeros(gap.shape), where=gap != 0.0)
    overlap = ee[:, None] * ee[None, :] - gg[:, None] * gg[None, :]
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
    gap = spec.energies[:, None] - spec.energies[None, :]  # zero only on the diagonal
    pairs = spec.du_dx * (a[:, None] * a[None, :])
    return np.divide(pairs, gap, out=np.zeros(gap.shape), where=gap != 0.0)


def _scalar_terms(spec: _RadialSpectrum, kappa: float):
    """The three parts of the scalar potential per label, hbar^2·k_L^2/(2m).

    Returns (dark, radial, phase): the dark-state channel, and the sums
    over the other bright labels of the squared radial couplings
    (:func:`_radial_coupling`) and of the laser-phase-gradient overlaps.
    """
    ee, gg, n2 = spec.ee, spec.gg, spec.n2
    ee_i, ee_j = ee[:, None], ee[None, :]
    gg_i, gg_j = gg[:, None], gg[None, :]
    phase = ee_i**2 * ee_j**2 * (1.0 + gg_i * gg_j) ** 2
    diag = np.arange(3)
    phase[diag, diag] = 0.0
    dark = n2 * ee * ee * gg * gg / 2.0
    radial = np.sum(_radial_coupling(spec) ** 2, axis=1) / kappa**2
    return dark, radial, n2 * np.sum(n2[None] * phase, axis=1)


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


def _separation_vectors(r_vec):
    """Check r_vec, shape (3,) or (n, 3); return it and its nonzero, finite lengths.

    Each length has the bits of ``np.linalg.norm`` of its vector alone.
    """
    r_vec = np.asarray(r_vec, dtype=float)
    if r_vec.ndim not in (1, 2) or r_vec.shape[-1] != 3:
        raise ValueError("r_vec must have shape (3,) or (n, 3)")
    return r_vec, _positive_finite(_row_norms(r_vec), "separation in r_vec")


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
    (e_r x e_k), and one closed-form :func:`field_profile` call serves all
    n; separations parallel to the beam give exactly zero (the azimuthal
    direction degenerates).
    """
    _check_label(label)
    r_vec, r = _separation_vectors(r_vec)
    da_dx = field_profile(r, reduced_parameters(params, model))[LABEL_INDEX[label]]
    khat = np.asarray(params.wavevector_direction, dtype=float)
    return da_dx[..., None] * np.cross(r_vec / r[..., None], khat)


@dataclass(frozen=True)
class BerryConnection:
    """Finite-difference Berry connection with its quality diagnostics.

    Shapes follow the separations: ``vector`` is (3,) or (n, 3), the other
    two fields () or (n,).
    """

    vector: np.ndarray  # hbar·k_L units
    imag_residual: np.ndarray  # largest |imaginary part| over the components
    gauge_discontinuity: np.ndarray  # step halving never restored a smooth stencil


def _eigenvector_field(params: DriveParams, reduced: ReducedParameters, stencil_axes: int = 0):
    """states(pos_a, label): the gauge-fixed eigenvectors of ``label`` with
    atom a at ``pos_a`` (..., 3) and atom b at the origin, crossover
    units, as the finite-difference oracles sample them.

    The detuning ratio, dressing ratio and kappa of ``reduced`` may hold
    one entry per sample; they broadcast against the sample axes of
    ``pos_a``, which ``stencil_axes`` stencil axes follow.
    """
    khat = np.asarray(params.wavevector_direction, dtype=float)
    w, lam, kappa = (
        np.reshape(value, np.shape(value) + (1,) * stencil_axes)
        for value in (reduced.detuning_ratio, reduced.dressing_ratio, reduced.kappa)
    )
    per_sample = ReducedParameters(w, lam, reduced.interaction_sign, reduced.power, kappa)

    def states(pos_a, label):
        return bare_state_vector(
            per_sample.shift_ratio(_row_norms(pos_a)),
            w,
            label,
            phase_a=kappa * _row_dots(pos_a, khat),
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
    reduced: ReducedParameters,
    label,
    r_vec,
    step: float = FD_STEP,
) -> BerryConnection:
    """Berry connection i·hbar<chi|grad_a chi> by central differences.

    ``r_vec``, of shape (3,) or (n, 3), is the position of atom a with
    atom b at the origin; ``label`` is one label or one per separation.
    ``params`` gives the Rabi phase and the beam direction; the detuning
    ratio, dressing ratio and kappa of ``reduced`` are one drive or
    arrays with one entry per separation.  Differentiates the gauge-fixed
    eigenvector with respect to the position of atom a, component by
    component, with Richardson extrapolation.  The +-h pair is one
    :func:`bare_state_vector` call over every sample and component, and
    +-h/2 with the centre one more.  If the eigenvector field is not
    smooth across a component's stencil (overlap of the outer samples
    < 0.99) that step is halved and the outer pair retried, four attempts
    in all; persistent failure flags the sample.
    """
    r_vec, _ = _separation_vectors(r_vec)
    states = _eigenvector_field(params, reduced, stencil_axes=1)
    label = np.asarray(label)[..., None]  # one label per sample, for all three axes

    def state(offsets):  # offsets (k, ..., 3): k displacements along each axis
        return states(r_vec[..., None, :] + offsets[..., None] * np.eye(3), label)

    h = np.full(np.broadcast_shapes(r_vec.shape[:-1] + (3,), label.shape), step)
    for attempt in range(4):
        outer_p, outer_m = state(np.stack([h, -h]))
        smooth = np.abs(_row_dots(outer_p.conj(), outer_m)) >= 0.99
        if smooth.all() or attempt == 3:
            break
        h = np.where(smooth, h, h / 2.0)
    inner_p, inner_m, center = state(np.stack([h / 2.0, -h / 2.0, np.zeros(h.shape)]))
    derivative = _richardson(outer_p, outer_m, inner_p, inner_m, h[..., None])
    value = 1j * _row_dots(center.conj(), derivative) / np.expand_dims(reduced.kappa, -1)
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
    reduced: ReducedParameters,
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
    or an array broadcasting against it; ``params`` gives the Rabi phase
    and the beam direction, and the detuning ratio, dressing ratio and
    kappa of ``reduced`` are one drive or arrays broadcasting against
    ``r_ab``.  Both axes' four stencil offsets are one batched
    :func:`bare_state_vector` call, the bright states at ``r_ab`` one more.
    Units hbar^2*k_L^2/(2m), like :func:`scalar_profile`.
    """
    r_ab = _positive_finite(r_ab, "separation r_ab")
    rows = _label_rows(label)
    r_ab = np.broadcast_to(r_ab, np.broadcast_shapes(r_ab.shape, rows.shape))
    khat = np.asarray(params.wavevector_direction, dtype=float)
    states = _eigenvector_field(params, reduced)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(helper, khat)) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e_sep = helper - np.dot(helper, khat) * khat
    e_sep = e_sep / np.linalg.norm(e_sep)

    offsets = np.array([step, -step, step / 2, -step / 2])
    moves = offsets[None, :, None] * np.stack([e_sep, khat])[:, None, :]  # (axis, offset, 3)
    base = r_ab[..., None] * e_sep
    stencil = states(base + moves.reshape((2, 4) + (1,) * r_ab.ndim + (3,)), label)
    bright = bare_state_vector(
        reduced.shift_ratio(r_ab),
        reduced.detuning_ratio,
        np.reshape(LABELS, (3,) + (1,) * r_ab.ndim),
        rabi_phase=params.rabi_phase_rad,
    )
    dark = dark_state_vector(0.0, 0.0)
    total = np.zeros(r_ab.shape)
    for samples in stencil:  # the radial axis, then the beam axis
        derivative = _richardson(*samples, step)
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
    r_vec, r = _separation_vectors(r_vec)
    velocity = np.asarray(velocity, dtype=float)
    speed = _positive_finite(_row_norms(velocity), "speed in velocity")
    reduced = reduced_parameters(params, model)
    states = _eigenvector_field(params, reduced)
    direction = velocity / speed[..., None]
    derivative = _richardson(
        *(states(r_vec + offset * direction, label) for offset in (step, -step, step / 2, -step / 2)),
        step,
    )
    bright = states(r_vec, np.reshape(LABELS, (3,) + (1,) * (r_vec.ndim - 1)))
    phase = reduced.kappa * _row_dots(r_vec, np.asarray(params.wavevector_direction, dtype=float))
    z = np.exp(-1j * phase) * derivative[..., 1] - derivative[..., 2]  # sqrt(2) <dark|d chi>
    dark = np.hypot(z.real, z.imag) / np.sqrt(2.0)
    energies, _, _ = labeled_spectrum(reduced.shift_ratio(r), reduced.detuning_ratio)
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
