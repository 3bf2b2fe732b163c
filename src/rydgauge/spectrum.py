"""Internal spectrum of the driven, interacting atom pair.

The two-atom internal Hamiltonian decouples an antisymmetric dark state
(energy exactly zero) from a 3x3 bright block.  This module solves the
bright block's characteristic cubic in closed form with a stable labeling
scheme and gives the eigenvectors' amplitude factors.  The dense 4x4
Hamiltonian it is checked against lives in ``dense``.

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
_SURE_GAP = 10.0 * DEGENERACY_TOL  # a gap ``_clear_of_degeneracy`` proves is never flagged

_TRIG_OFFSETS = np.array([0.0, -TWOPI / 3.0, TWOPI / 3.0])  # angles of E_1, E_-, E_+


def _divide_where(num, den, fill, where=None):
    """num / den where ``where`` holds (by default where den != 0), else the array
    ``fill()``.  A batch wholly on one side takes the plain divide or the fill
    alone, with the masked form's bits; only a mixed batch pays for that form."""
    n_where = np.count_nonzero(den if where is None else where)
    if n_where == den.size:
        return num / den
    if not n_where:
        return fill()
    return np.divide(num, den, out=fill(), where=den != 0.0 if where is None else where)


def _polish(e, u, w):
    """Two Newton steps on roots of the monic characteristic cubic; a root
    where the derivative vanishes takes no step."""
    c = u * w - w * w - 1.0
    d = 0.5 * u
    two_u = 2.0 * u
    for _ in range(2):
        f = ((e - u) * e + c) * e + d
        fp = (3.0 * e - two_u) * e + c
        e = e - _divide_where(f, fp, lambda: np.zeros(fp.shape))
    return e


def _roots_trig(u, w):
    """Three real roots by the trigonometric method, shape (3,) + u.shape, descending;
    the arccos argument is gamma / s^3, or 1 where s^3 is not > 0 (0 or NaN)."""
    u_w, u_3 = u - w, u / 3.0
    eta = (4.0 / 3.0) * (w * u_w - 1.0 - u * u / 3.0)
    gam = u_3 * ((8.0 / 9.0) * u * u - 4.0 * w * u_w - 2.0)
    s = np.sqrt(np.maximum(-eta, 0.0))
    s3 = s * s * s
    arg = _divide_where(gam, s3, lambda: np.ones(gam.shape), s3 > 0)
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
    high, low = _polish(0.5 * (t + np.concatenate([disc[None], -disc[None]])), u, w)
    # descending by value: between the antiblockade line u = 2w and
    # |u| = DEFLATE_AT the dominant root is the middle or the top one
    middle = np.minimum(np.maximum(e_big, low), high)
    return np.stack([np.maximum(e_big, high), middle, np.minimum(e_big, low)])


def _roots_canonical_half(u, w):
    """Descending roots, shape (3,) + u.shape, for w < 0 (or w = 0, u <= 0)."""
    big = abs(u) > DEFLATE_AT
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
    so that symmetry holds bitwise; only a batch on both sides of the
    half-plane pays for the selects.  The ground amplitude uses the on-shell
    identity (E - w) / (2 (E^2 - wE - 1/2)) wherever |E^2 - wE - 1/2| > 1;
    the direct form E + w - u, which cancels catastrophically for the
    dominant root at large |u|, is formed only when some point needs it, and
    the masked divide runs only on a batch that mixes both kinds of point.
    """
    # [()] turns a 0-d array into a numpy scalar, whose arithmetic skips the ufuncs;
    # adding +0.0 turns -0.0 into +0.0, and a zero of the broadcast shape broadcasts
    u = np.asarray(shift_ratio, dtype=float)[()]
    w = np.asarray(detuning_ratio, dtype=float)[()]
    zero = 0.0 if u.shape == w.shape else np.zeros(np.broadcast(u, w).shape)
    u, w = u + zero, w + zero  # a single point stays 0-d: a batch of shape ()
    flip = (w > 0.0) | ((w == 0.0) & (u > 0.0))
    n_flip = np.count_nonzero(flip)
    if not n_flip:
        energies = _roots_canonical_half(u, w)
    elif n_flip == flip.size:
        energies = -_roots_canonical_half(-u, -w)[::-1]
    else:
        roots = _roots_canonical_half(np.where(flip, -u, u), np.where(flip, -w, w))
        energies = np.where(flip, -roots[::-1], roots)
    ee_amp = energies - w
    denom = energies * energies - w * energies - 0.5
    gg_amp = _divide_where(ee_amp, 2.0 * denom, lambda: energies + w - u, abs(denom) > 1.0)
    return energies, ee_amp, gg_amp


def near_degenerate(energies) -> np.ndarray:
    """True where two of the four levels lie within DEGENERACY_TOL.

    ``energies`` has the bright energies along its first axis, as
    returned by :func:`labeled_spectrum`; the dark level at zero is added.
    The result has the shape of the remaining axes.  The smallest of the
    six pairwise gaps is the same float as the smallest adjacent gap of
    the sorted ladder (rounding is monotone), with no sort.
    """
    e1, e2, e3 = np.asarray(energies, dtype=float)
    gaps = np.abs([e1, e2, e3, e1 - e2, e1 - e3, e2 - e3])  # |0 - E| is |E| exactly
    return gaps.min(axis=0) < DEGENERACY_TOL


def _clear_of_degeneracy(u, w) -> np.ndarray:
    """True where :func:`near_degenerate` cannot flag the solved levels at (u, w),
    from the cubic p(E) = E^3 - u E^2 + c E + u/2, c = u w - w^2 - 1, alone.

    A point is cleared when every true gap of the four levels is at least
    ``_SURE_GAP``, ten times ``DEGENERACY_TOL``, and the cubic is well
    conditioned.  No bright level lies within g of the dark one if |u|/2 >
    g (3 g^2 + 2 |u| g + C), by the mean value theorem, with C = |u w| +
    w^2 + 1 >= |c|.  The discriminant Delta = prod (E_i - E_j)^2 bounds the
    smallest bright gap below by sqrt(Delta) / (2R)^2, with R = |u| + |w| +
    1.5 above Gershgorin's bound on |E|.  Delta must exceed 1e-8 of Sigma,
    its terms' absolute sum: its rounding error, within 32 eps Sigma, is then
    below 1e-6 of it, and the solver's gaps move by at most about 2 eps
    Sigma / Delta of themselves (measured against mpmath roots).  Points where
    any of this is not finite are not cleared.
    """
    a, w_abs = np.abs(u), np.abs(w)
    c = u * w - (w * w + 1.0)
    big_c = a * w_abs + (w * w + 1.0)
    u2 = u * u
    delta = u2 * (2.0 * u2 + c * c - 9.0 * c - 6.75) - 4.0 * c * c * c
    sigma = u2 * (2.0 * u2 + big_c * big_c + 9.0 * big_c + 6.75) + 4.0 * big_c * big_c * big_c
    r = a + (w_abs + 1.5)
    g = _SURE_GAP
    dark = 0.5 * a > g * (3.0 * g * g + 2.0 * g * a + big_c)
    bright = (delta > 1e-8 * sigma) & (np.sqrt(delta) > 4.0 * g * r * r)
    return dark & bright


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

    Each row goes through the BLAS dot that ``np.dot`` and
    ``np.linalg.norm`` use for a single vector, so a row gives the same
    bits alone or inside a batch; ``einsum`` and ``sum(axis=-1)`` can
    differ in the last bit.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_norms(v) -> np.ndarray:
    """Euclidean norms of real rows over the last axis, with the bits of
    ``np.linalg.norm`` per row."""
    return np.sqrt(_row_dots(v, v))
