"""Internal spectrum of the driven, interacting atom pair.

The two-atom internal Hamiltonian decouples an antisymmetric dark state
(energy exactly zero) from a 3x3 bright block.  This module solves the
bright block's characteristic cubic in closed form with a stable labeling
scheme and produces gauge-fixed eigenvectors.  ``dense_hamiltonian`` builds
the 4x4 Hamiltonian itself, in the same reduced units and bare basis, as
the reference for dense diagonalization.

Dimensionless conventions used by the closed-form solvers:
    u = V/|Omega|   (interaction shift over Rabi magnitude)
    w = delta/|Omega|
    energies in units of hbar|Omega|
The three bright labels are "1", "-", "+" ordered by descending energy,
E_1 >= E_- >= E_+.
"""

from __future__ import annotations

import numpy as np

from .constants import TWOPI

LABELS = ("1", "-", "+")
LABEL_INDEX = {"1": 0, "-": 1, "+": 2}

# Beyond this |u| the trigonometric cubic loses relative accuracy on the
# small roots; switch to Newton deflation of the dominant root.
DEFLATE_AT = 100.0

DEGENERACY_TOL = 1e-10  # model units

_TRIG_OFFSETS = np.array([0.0, -TWOPI / 3.0, TWOPI / 3.0])  # angles of E_1, E_-, E_+


def _polish(e, u, w):
    """Two Newton steps on roots of the monic characteristic cubic."""
    c = u * w - w * w - 1.0
    d = 0.5 * u
    two_u = 2.0 * u
    for _ in range(2):
        f = ((e - u) * e + c) * e + d
        fp = (3.0 * e - two_u) * e + c
        e = e - np.divide(f, fp, out=np.zeros(fp.shape), where=fp != 0.0)
    return e


def _roots_trig(u, w):
    """Three real roots by the trigonometric method, shape (3,) + u.shape, descending."""
    u_w, u_3 = u - w, u / 3.0
    eta = (4.0 / 3.0) * (w * u_w - 1.0 - u * u / 3.0)
    gam = u_3 * ((8.0 / 9.0) * u * u - 4.0 * w * u_w - 2.0)
    s = np.sqrt(np.maximum(-eta, 0.0))
    s3 = s * s * s
    arg = np.divide(gam, s3, out=np.ones(gam.shape), where=s3 > 0)
    third = np.arccos(np.minimum(np.maximum(arg, -1.0), 1.0)) / 3.0
    offsets = _TRIG_OFFSETS.reshape((3,) + (1,) * u.ndim)
    return _polish(s * np.cos(third + offsets) + u_3, u, w)


def _roots_deflated(u, w):
    """Roots for |u| >> 1: Newton on the dominant root, then deflation.

    The substitution e = u - t maps the dominant (interaction-like) root to
    t = O(1/u), which Newton iteration from t = w resolves at full relative
    precision; the remaining quadratic pair follows from Vieta.  Each
    element stops once its own step is below a few ulp, so its roots do
    not depend on the rest of the batch.
    """
    t = np.zeros(u.shape)
    t += w  # in place: t stays an array that the loop can write, one point included
    tol = 4.0 * np.finfo(float).eps  # a few ulp: the smallest step doubles resolve
    active = np.ones(t.shape, dtype=bool)
    ua, wa, ta = u, w, t
    for _ in range(40):
        f = ua * ua * (wa - ta) + ua * (2.0 * ta * ta - wa * ta - wa * wa - 0.5) + ta * (
            wa * wa + 1.0 - ta * ta
        )
        fp = -ua * ua + ua * (4.0 * ta - wa) + wa * wa + 1.0 - 3.0 * ta * ta
        step = f / fp
        ta = ta - step
        going = np.abs(step) > tol * np.maximum(1.0, np.abs(ta))
        n_going = np.count_nonzero(going)
        if n_going < going.size:  # the active set shrinks: write back, then gather
            t[active] = ta.ravel()  # ta and going have the shape of t until the first gather
            if not n_going:
                break
            active[active] = going.ravel()
            ua, wa, ta = ua[going], wa[going], ta[going]
    else:
        t[active] = ta.ravel()
    e_big = u - t
    q = -u / (2.0 * e_big)  # product of the two remaining roots
    disc = np.sqrt(t * t - 4.0 * q)
    pair = _polish(0.5 * (t + np.concatenate([disc[None], -disc[None]])), u, w)
    # descending: the dominant root leads for u > 0 and trails for u < 0
    ladder = np.concatenate([e_big[None], pair, e_big[None]])
    return np.where(u > 0, ladder[:3], ladder[1:])


def _roots_canonical_half(u, w):
    """Descending roots, shape (3,) + u.shape, for w < 0 (or w = 0, u <= 0)."""
    big = np.abs(u) > DEFLATE_AT
    n_big = np.count_nonzero(big)
    if not n_big:
        return _roots_trig(u, w)
    if n_big == big.size:
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
    u = np.asarray(shift_ratio, dtype=float) + 0.0  # -0.0 becomes +0.0
    w = np.asarray(detuning_ratio, dtype=float) + 0.0
    if u.shape != w.shape:  # a single point stays 0-d: a batch of shape ()
        u, w = np.broadcast_arrays(u, w)
    flip = (w > 0.0) | ((w == 0.0) & (u > 0.0))
    uc = np.where(flip, -u, u)
    wc = np.where(flip, -w, w)
    roots = _roots_canonical_half(uc, wc)
    energies = np.where(flip, -roots[::-1], roots)
    ee_amp = energies - w
    denom = energies * energies - w * energies - 0.5
    direct = energies + w - u
    stable = np.divide(ee_amp, 2.0 * denom, out=np.zeros(energies.shape), where=denom != 0)
    gg_amp = np.where(np.abs(denom) > 1.0, stable, direct)
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


def dense_hamiltonian(
    shift_ratio, detuning_ratio, phase_a=0.0, phase_b=0.0, rabi_phase=0.0
) -> np.ndarray:
    """The 4x4 pair Hamiltonian in units of hbar|Omega|, in the bare basis
    (ee, eg, ge, gg) of :func:`bare_state_vector` (the dense oracle).

    Every argument broadcasts against the others; the result has the
    broadcast shape plus two last axes of length 4.  The diagonal is
    {u - w, 0, 0, w}.  Exciting atom a (ge -> ee, gg -> eg) carries
    Omega/2 with the laser phase ``phase_a`` = k_L·r_a, exciting atom b
    (eg -> ee, gg -> ge) carries Omega/2 with ``phase_b``, and
    ``rabi_phase`` is arg(Omega).
    """
    u, w, phase_a, phase_b, theta = np.broadcast_arrays(
        shift_ratio, detuning_ratio, phase_a, phase_b, rabi_phase
    )
    via_a = 0.5 * np.exp(1j * (theta + phase_a))
    via_b = 0.5 * np.exp(1j * (theta + phase_b))
    h = np.zeros(u.shape + (4, 4), dtype=complex)
    h[..., 0, 0] = u - w
    h[..., 3, 3] = w
    h[..., 0, 1] = h[..., 2, 3] = via_b
    h[..., 0, 2] = h[..., 1, 3] = via_a
    h[..., 1, 0] = h[..., 3, 2] = np.conj(via_b)
    h[..., 2, 0] = h[..., 3, 1] = np.conj(via_a)
    return h


def _check_label(label) -> None:
    """Raise unless ``label`` is one of ``LABELS``."""
    if label not in LABELS:
        raise ValueError(f"label must be one of {LABELS}")


def _label_rows(label) -> np.ndarray:
    """Row of each label in ``LABELS``: one label, or an array of them."""
    labels = np.asarray(label)
    names = labels.ravel().tolist()
    for name in set(names):
        _check_label(name)
    return np.array([LABEL_INDEX[name] for name in names], dtype=int).reshape(labels.shape)


def _row_dots(a, b) -> np.ndarray:
    """Dot products over the last axis, broadcast over the leading axes.

    Each row goes through the BLAS dot that ``np.dot``, ``np.vdot`` (pass
    ``a.conj()``) and ``np.linalg.norm`` use for a single vector, so a row
    gives the same bits alone or inside a batch; ``einsum`` and
    ``sum(axis=-1)`` can differ in the last bit.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_norms(v) -> np.ndarray:
    """Euclidean norms over the last axis, with the bits of ``np.linalg.norm`` per row."""
    v = np.asarray(v)
    if np.iscomplexobj(v):
        return np.sqrt(_row_dots(v.real, v.real) + _row_dots(v.imag, v.imag))
    return np.sqrt(_row_dots(v, v))


def _product(a, b) -> np.ndarray:
    """a * b of complex arrays, with the operations of numpy's complex scalar
    multiply; the vectorized complex multiply fuses multiply-adds on some
    CPUs, which would give a point other bits alone than inside a batch."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def bare_state_vector(
    shift_ratio,
    detuning_ratio,
    label,
    phase_a=0.0,
    phase_b=0.0,
    rabi_phase=0.0,
) -> np.ndarray:
    """Normalized, gauge-fixed eigenvectors in the bare basis (ee, eg, ge, gg).

    Every argument broadcasts against the others, ``label`` included (one
    label or an array of them); the result has the broadcast shape plus a
    last axis of length 4, and a point gives the same bits alone or inside
    a batch.  ``phase_a``/``phase_b`` are the accumulated laser phases
    k_L·r at the two atom positions.  The gauge is fixed so the |gg>
    coefficient carries the phase of Omega* (real positive for a real
    drive), which keeps the vector field smooth for finite-difference
    derivatives.

    Raises ValueError where the closed-form vector vanishes, at isolated
    defective points such as u = 2w for the "-" label; the eigenvectors
    of :func:`dense_hamiltonian` still exist there.
    """
    rows = _label_rows(label)
    _, ee_amp, gg_amp = labeled_spectrum(shift_ratio, detuning_ratio)
    ee, gg, theta, phase_a, phase_b = np.broadcast_arrays(
        np.choose(rows, ee_amp), np.choose(rows, gg_amp), rabi_phase, phase_a, phase_b
    )
    raw = np.stack(
        [
            ee * np.exp(1j * (theta + phase_a + phase_b)),
            ee * gg * np.exp(1j * phase_a),
            ee * gg * np.exp(1j * phase_b),
            gg * np.exp(-1j * theta),
        ],
        axis=-1,
    )
    nrm = _row_norms(raw)
    if np.any(nrm < 1e-13):
        raise ValueError(
            "closed-form eigenvector vanishes at a defective (u, w); "
            "diagonalize dense_hamiltonian there instead"
        )
    vec = raw / nrm[..., None]
    # rotate the global phase so the |gg> coefficient has the phase of Omega*
    g = vec[..., 3]
    size = np.hypot(g.real, g.imag)  # abs() of one complex number, bit for bit
    fix = size > 1e-12
    factor = _product(np.exp(-1j * theta), np.conj(g)) / np.where(fix, size, 1.0)
    return np.where(fix[..., None], vec * factor[..., None], vec)


def dark_state_vector(phase_a: float = 0.0, phase_b: float = 0.0) -> np.ndarray:
    """Antisymmetric zero-energy eigenvector in the bare basis."""
    return np.array(
        [0.0, np.exp(1j * phase_a), -np.exp(1j * phase_b), 0.0]
    ) / np.sqrt(2.0)
