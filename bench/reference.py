"""Independent reference for the dressed-pair gauge fields and the flyby.

Nothing here comes from rydgauge's spectrum, gauge, analysis or dynamics
modules.  The preset constants (model.PRESETS) and the physical constants
are read as inputs; everything else is recomputed from the Hamiltonian:

* the 3x3 bright block in the basis (ee, psi_plus, gg) is diagonalised
  densely with numpy ``eigh`` (model units hbar*|Omega|),
* A is minus the probability that atom a is excited,
  -(|c_ee|^2 + |c_psi|^2 / 2), in hbar*k_L,
* B_phi = dA/dx and the radial part of phi come from first-order
  perturbation theory of the eigenvectors in u (dH/du = |ee><ee|),
* phi is the summed overlap sum_{j != n} |<j|grad n>|^2 / k_L^2, whose
  laser-phase part reduces to the variance P_a (1 - P_a),
* the flyby is integrated with scipy's DOP853 at tight tolerance under the
  Lorentz-like force built from that B_phi.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from rydgauge.constants import ELEMENTARY_CHARGE, HBAR
from rydgauge.model import PRESETS

LABELS = ("1", "-", "+")  # descending dressed energy
LABEL_ROW = {label: i for i, label in enumerate(LABELS)}
SQRT_HALF = math.sqrt(0.5)
SQRT2 = math.sqrt(2.0)
REFINE_AT = 1e3  # |u| above which eigh loses the small eigenvector components


class Setup:
    """Reduced parameters of one preset at one detuning ratio w."""

    def __init__(self, preset: str, detuning_ratio: float = 0.0):
        exp = PRESETS[preset]
        self.w = float(detuning_ratio)
        self.power = exp.interaction.kind.power
        self.sign = math.copysign(1.0, exp.interaction.coefficient)
        rabi = exp.drive.rabi_magnitude_rad_s
        self.r_c_m = (abs(exp.interaction.coefficient) / (rabi * math.hypot(1.0, self.w))) ** (
            1.0 / self.power
        )
        self.k_l = exp.drive.wavenumber_rad_m
        self.kappa = self.k_l * self.r_c_m
        self.field_T = HBAR * self.k_l / (ELEMENTARY_CHARGE * self.r_c_m)
        self.mass_kg = exp.drive.mass_a_kg
        self.khat = np.asarray(exp.drive.wavevector_direction, dtype=float)

    def shift_ratio(self, x):
        return self.sign * math.hypot(1.0, self.w) * np.asarray(x, dtype=float) ** (-self.power)


def bright_block(u, w: float) -> np.ndarray:
    """Bright-block Hamiltonian, shape u.shape + (3, 3), basis (ee, psi_plus, gg)."""
    u = np.asarray(u, dtype=float)
    h = np.zeros(u.shape + (3, 3))
    h[..., 0, 0] = u - w
    h[..., 0, 1] = h[..., 1, 0] = h[..., 1, 2] = h[..., 2, 1] = SQRT_HALF
    h[..., 2, 2] = w
    return h


def dressed(u, w: float):
    """Energies, excitation probabilities of atom a, and u-derivatives.

    Returns (energies, pop_a, pop_g, dpop_du, coupling_sq), each of shape
    (3,) + u.shape with rows in LABELS order.  ``pop_g`` = 1 - pop_a is
    summed from the ground-state weights, so it keeps its relative
    precision deep in the blockade; ``coupling_sq`` is
    sum_{m != n} <m|d n/du>^2.
    """
    u = np.asarray(u, dtype=float)
    evals, evecs = np.linalg.eigh(bright_block(u, w))
    energies = np.moveaxis(evals[..., ::-1], -1, 0)
    vecs = np.moveaxis(evecs[..., ::-1], -1, 0).copy()  # (state, ..., component)
    _refine_blockade(vecs, energies, u, w)
    pop_a = vecs[..., 0] ** 2 + 0.5 * vecs[..., 1] ** 2
    pop_g = 0.5 * vecs[..., 1] ** 2 + vecs[..., 2] ** 2
    dpop_du = np.empty_like(pop_a)
    coupling_sq = np.zeros_like(pop_a)
    with np.errstate(divide="ignore", invalid="ignore"):
        for n in range(3):
            dvec = np.zeros_like(vecs[n])
            for m in range(3):
                if m != n:
                    c = vecs[m][..., 0] * vecs[n][..., 0] / (energies[n] - energies[m])
                    dvec += c[..., None] * vecs[m]
                    coupling_sq[n] += c * c
            dpop_du[n] = 2.0 * vecs[n][..., 0] * dvec[..., 0] + vecs[n][..., 1] * dvec[..., 1]
    return energies, pop_a, pop_g, dpop_du, coupling_sq


def _refine_blockade(vecs, energies, u, w: float) -> None:
    """Recover the O(1/u) eigenvector components for |u| > REFINE_AT, in place.

    eigh resolves each component only to eps*|u| absolute, which loses
    the small components of a graded matrix.  Two rows of (H - E) v = 0
    give them back at full relative precision: row 0 for the doubly
    excited weight of the two light states, rows 1 and 2 for the
    psi_plus and gg weights of the interaction-like state.
    """
    big = np.abs(u) > REFINE_AT
    if not np.any(big):
        return
    heavy = np.argmax(np.abs(energies), axis=0)
    for n in range(3):
        e = energies[n]
        v = vecs[n]
        light = big & (heavy != n)
        v[light, 0] = -v[light, 1] / (SQRT2 * (u[light] - w - e[light]))
        hv = big & (heavy == n)
        v1 = v[hv, 0] / (SQRT2 * e[hv] + SQRT_HALF / (w - e[hv]))
        v[hv, 1] = v1
        v[hv, 2] = -v1 / (SQRT2 * (w - e[hv]))


def profiles(setup: Setup, x):
    """A, B_phi and phi at separations x (r_c units); each (3,) + x.shape."""
    x = np.asarray(x, dtype=float)
    u = setup.shift_ratio(x)
    _, pop_a, pop_g, dpop_du, coupling_sq = dressed(u, setup.w)
    du_dx = -setup.power * u / x
    a = -pop_a
    b = -dpop_du * du_dx
    phi = coupling_sq * du_dx**2 / setup.kappa**2 + pop_a * pop_g
    return a, b, phi


def field(setup: Setup, x, label: str):
    """B_phi of one label at x (r_c units), B0 units."""
    return profiles(setup, x)[1][LABEL_ROW[label]]


def extremum(setup: Setup, label: str, kind: str, lo: float, hi: float, tol: float = 1e-13):
    """Golden-section extremum of the reference B_phi on [lo, hi]."""
    sgn = 1.0 if kind == "max" else -1.0

    def f(x):
        return sgn * float(field(setup, x, label))

    g = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, sgn * f(x)


def flyby(
    preset: str,
    speed_m_s: float,
    impact_parameter_rc: float,
    label: str,
    t_end_s: float,
    approach_rc: float = 6.0,
    rtol: float = 1e-13,
):
    """Integrate the Lorentz-only flyby to ``t_end_s``.

    The mobile atom starts at (-approach, b, 0) r_c with velocity
    (speed, 0, 0) past a partner pinned at the origin; the force is
    e v x (B0 * B_phi(r) * (e_r x k_hat)).  Returns (position_m,
    velocity_m_s, field evaluations).
    """
    setup = Setup(preset)
    row = LABEL_ROW[label]
    q_over_m = ELEMENTARY_CHARGE / setup.mass_kg
    r_c = setup.r_c_m

    def rhs(_t, y):
        pos, vel = y[:3], y[3:]
        r = math.sqrt(pos @ pos)
        b_phi = profiles(setup, r / r_c)[1][row]
        b_vec = setup.field_T * b_phi * np.cross(pos / r, setup.khat)
        return np.concatenate([vel, q_over_m * np.cross(vel, b_vec)])

    y0 = np.array([-approach_rc * r_c, impact_parameter_rc * r_c, 0.0, speed_m_s, 0.0, 0.0])
    atol = np.array([r_c, r_c, r_c, speed_m_s, speed_m_s, speed_m_s]) * rtol * 1e-2
    sol = solve_ivp(rhs, (0.0, t_end_s), y0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference flyby failed: {sol.message}")
    return sol.y[:3, -1], sol.y[3:, -1], int(sol.nfev)
