"""The independent reference reproduces limits, exact roots and its own symmetries."""

import math

import mpmath as mp
import numpy as np
import pytest

import reference as ref


def test_connection_plateaus_at_zero_detuning():
    # Near the pair the interaction-like state is |ee> (A = -1) and the two
    # light states are (psi_plus +- gg)/sqrt2 (A = -1/4); far away each atom
    # is an equal superposition (A = -1/2).
    for preset in ("gaetan2009", "beguin2013"):
        setup = ref.Setup(preset, 0.0)
        near = np.sort(ref.profiles(setup, 0.02)[0])
        far = ref.profiles(setup, 50.0)[0]
        np.testing.assert_allclose(near, [-1.0, -0.25, -0.25], atol=1e-4)
        np.testing.assert_allclose(far, [-0.5, -0.5, -0.5], atol=1e-4)


def _cubic_roots(u: float, w: float) -> list:
    # det(H - E) = -(E^3 - u E^2 + (u w - w^2 - 1) E + u/2) for the bright block
    roots = mp.polyroots([1, -u, u * w - w * w - 1, u / 2], maxsteps=400, extraprec=400)
    return sorted((mp.re(r) for r in roots), reverse=True)


@pytest.mark.parametrize("u", [-1e12, -1e6, -1e3, -5.0, -0.3, 0.5, 7.0, 1e4, 1e9])
@pytest.mark.parametrize("w", [-3.0, -1.0, 0.0, 0.3, 2.0])
def test_eigenvalues_match_mpmath_roots_of_the_cubic(u, w):
    mp.mp.dps = 60
    energies = ref.dressed(np.array([u]), w)[0][:, 0]
    for e, root in zip(energies, _cubic_roots(u, w)):
        assert abs(mp.mpf(float(e)) - root) <= 2e-15 * max(1.0, abs(float(root)))


def _mp_populations(setup, x):
    """Descending-energy eigenvectors of the bright block at 60 digits."""
    u = setup.sign * mp.sqrt(1 + mp.mpf(setup.w) ** 2) * mp.mpf(x) ** (-setup.power)
    s = mp.sqrt(2) / 2
    energies, vectors = mp.eigsy(mp.matrix([[u - setup.w, s, 0], [s, 0, s], [0, s, setup.w]]))
    order = sorted(range(3), key=lambda i: -energies[i])
    return [[vectors[k, i] for k in range(3)] for i in order]


@pytest.mark.parametrize("preset,w,x", [
    ("gaetan2009", -3.0, 0.8077899985),  # antiblockade resonance, sharpest B
    ("gaetan2009", 0.0, 0.05),
    ("beguin2013", 0.0, 0.2),
    ("beguin2013", -1.0, 0.012),  # |u| ~ 1e11: graded eigenvectors
    ("beguin2013", 0.7, 3.0),
])
def test_fields_match_high_precision_derivatives(preset, w, x):
    """B and phi from perturbation theory against 60-digit central differences."""
    mp.mp.dps = 60
    setup = ref.Setup(preset, w)
    h = mp.mpf(x) * mp.mpf("1e-20")
    centre = _mp_populations(setup, x)
    plus = _mp_populations(setup, mp.mpf(x) + h)
    minus = _mp_populations(setup, mp.mpf(x) - h)
    a, b, phi = (q[:, 0] for q in ref.profiles(setup, np.array([x])))
    for n in range(3):
        def pop(v):
            return v[0] ** 2 + v[1] ** 2 / 2

        def aligned(v):
            return v if mp.fsum(vi * ci for vi, ci in zip(v, centre[n])) > 0 else [-vi for vi in v]

        vp, vm = aligned(plus[n]), aligned(minus[n])
        b_mp = -(pop(vp) - pop(vm)) / (2 * h)
        dv = [(p_ - m_) / (2 * h) for p_, m_ in zip(vp, vm)]
        radial = mp.fsum(mp.fsum(c * d for c, d in zip(centre[m], dv)) ** 2
                         for m in range(3) if m != n)
        phi_mp = radial / mp.mpf(setup.kappa) ** 2 + pop(centre[n]) * (1 - pop(centre[n]))
        assert abs(a[n] + float(pop(centre[n]))) <= 1e-14
        assert abs(b[n] - float(b_mp)) <= 1e-13 * max(1.0, abs(b[n]))
        assert abs(phi[n] / float(phi_mp) - 1.0) <= 1e-12


def test_label_exchange_symmetry():
    # H(-u, -w) = -D H(u, w) D with D = diag(1, -1, 1): populations are kept
    # and the energy order reverses, so label '1' maps to '+' and '-' to '-'.
    x = np.geomspace(0.05, 20.0, 301)
    for preset in ("gaetan2009", "beguin2013"):
        fwd = ref.Setup(preset, -1.3)
        rev = ref.Setup(preset, 1.3)
        rev.sign = -fwd.sign
        for q_fwd, q_rev in zip(ref.profiles(fwd, x), ref.profiles(rev, x)):
            np.testing.assert_allclose(q_fwd, q_rev[::-1], rtol=1e-11, atol=1e-13)


def test_flyby_conserves_speed_and_converges():
    setup = ref.Setup("gaetan2009")
    t_end = 12.0 * setup.r_c_m / 0.10
    pos, vel, _ = ref.flyby("gaetan2009", 0.10, 1.0, "+", t_end)
    pos_loose, _, _ = ref.flyby("gaetan2009", 0.10, 1.0, "+", t_end, rtol=1e-11)
    assert abs(math.sqrt(vel @ vel) / 0.10 - 1.0) < 1e-12
    assert abs(pos[2] - pos_loose[2]) < 1e-16  # metres: 1e-10 um
    assert 0.3e-6 < pos[2] < 3e-6  # the out-of-plane deflection is a fraction of a micron
