"""Semiclassical motion of one dressed atom past a pinned partner.

The mobile atom (atom a) feels the artificial Lorentz force of its
labeled internal state, the gradient of the dressed energy, and
optionally the gradient of the scalar potential; the partner sits at the
origin and does not recoil.  Classic fixed-step RK4, with an abort guard
where the adiabatic model itself stops being trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import ELEMENTARY_CHARGE
from .gauge import _radial_spectrum, scalar_profile
from .model import (
    DriveParams,
    InteractionModel,
    ModelUnits,
    get_preset,
    reduced_parameters,
)
from .spectrum import (
    LABEL_INDEX,
    LABELS,
    bare_state_vector,
    dark_state_vector,
    labeled_spectrum,
)

MIN_SEPARATION_RC = 0.01  # below this the adiabatic pair model is not credible
FD_STEP = 1e-6  # crossover units, adiabaticity and scalar-slope stencils
DEGENERACY_GAP = 1e-12


class ModelValidityError(RuntimeError):
    """Trajectory entered separations where the pair model breaks down."""


@dataclass(frozen=True)
class TrajectoryConfig:
    """Everything one integration needs.

    Positions and velocities are SI; the pinned atom is at the origin.
    Switches pick force terms independently; the scalar-gradient term is
    off by default (recoil scale, usually compensated by light shifts).
    """

    drive: DriveParams
    interaction: InteractionModel
    initial_position_m: tuple  # (x, y, z)
    initial_velocity_m_s: tuple
    max_time_s: float
    label: str = "+"  # connects to |gg> at large separation
    charge_C: float = ELEMENTARY_CHARGE
    time_step_s: float = 50e-9
    include_lorentz: bool = True
    include_adiabatic_potential: bool = True
    include_scalar_gradient: bool = False
    background_energy_J: float = 0.0
    output_stride: int = 1

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}")
        if not (self.time_step_s > 0.0):
            raise ValueError("time step must be positive")
        if not (self.max_time_s > 0.0):
            raise ValueError("max time must be positive")
        if self.output_stride < 1:
            raise ValueError("output stride must be >= 1")
        if not np.linalg.norm(self.initial_position_m) > 0.0:
            raise ValueError("initial separation must be nonzero")


@dataclass(frozen=True)
class TrajectoryState:
    """One recorded sample along the path."""

    t_s: float
    position_m: np.ndarray
    velocity_m_s: np.ndarray
    energy_J: float  # dressed-state energy plus the uniform background
    adiabaticity: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.energy_J):
            raise ValueError("energy diagnostic must be finite")
        if not self.adiabaticity >= 0.0:
            raise ValueError("adiabaticity parameter must be >= 0")


@dataclass(frozen=True)
class Trajectory:
    """Recorded states plus how the integration ended."""

    states: tuple = ()
    aborted: bool = False
    reason: str = ""


@dataclass(frozen=True)
class _Engine:
    """Precomputed conversion factors for one configuration."""

    reduced: object
    khat: np.ndarray
    r_c_m: float
    energy_J: float  # hbar*|Omega|
    field_T: float
    scalar_J: float
    mass_kg: float


def _engine(config: TrajectoryConfig) -> _Engine:
    units = ModelUnits.from_experiment(config.drive, config.interaction)
    return _Engine(
        reduced=reduced_parameters(config.drive, config.interaction),
        khat=np.asarray(config.drive.wavevector_direction, dtype=float),
        r_c_m=units.length_m,
        energy_J=units.energy_J,
        field_T=units.field_T,
        scalar_J=units.scalar_a_J,
        mass_kg=config.drive.mass_a_kg,
    )


def _scalar_slope(engine: _Engine, x: float) -> np.ndarray:
    """Radial slope of the scalar potential, Richardson of the closed form."""
    h = min(FD_STEP, x / 8.0)
    xs = np.array([x - h, x - h / 2.0, x + h / 2.0, x + h])
    phi = scalar_profile(xs, engine.reduced)
    return (4.0 * (phi[:, 2] - phi[:, 1]) / h - (phi[:, 3] - phi[:, 0]) / (2.0 * h)) / 3.0


def _cross(a, b) -> np.ndarray:
    """a x b of two 3-vectors on Python floats, in np.cross's order of operations (same bits)."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _force(config: TrajectoryConfig, engine: _Engine, position_m, velocity_m_s):
    pos = np.asarray(position_m, dtype=float)
    vel = np.asarray(velocity_m_s, dtype=float)
    r_m = float(np.linalg.norm(pos))
    x = r_m / engine.r_c_m
    if x < MIN_SEPARATION_RC:
        raise ModelValidityError(
            f"separation {x:.4f} r_c below validity floor {MIN_SEPARATION_RC} r_c"
        )
    row = LABEL_INDEX[config.label]
    e_r = pos / r_m
    spec = _radial_spectrum(x, engine.reduced)
    total = np.zeros(3)
    if config.include_lorentz:
        b_si = engine.field_T * spec.da_dx[row] * _cross(e_r, engine.khat)
        total += config.charge_C * _cross(vel, b_si)
    if config.include_adiabatic_potential:
        total += -spec.de_dx[row] * (engine.energy_J / engine.r_c_m) * e_r
    if config.include_scalar_gradient:
        dphi_dx = _scalar_slope(engine, x)[row]
        # q normalized by the elementary charge that defines the field unit
        total += (
            -(config.charge_C / ELEMENTARY_CHARGE)
            * dphi_dx
            * (engine.scalar_J / engine.r_c_m)
            * e_r
        )
    return total


def force(config: TrajectoryConfig, position_m, velocity_m_s) -> np.ndarray:
    """Instantaneous force on the mobile atom, newtons.

    Sum of the enabled terms: artificial Lorentz force q v x B, the
    dressed-energy gradient, and the scalar-potential gradient.  The
    uniform background energy contributes nothing.  Separations below
    the validity floor raise :class:`ModelValidityError`.
    """
    return _force(config, _engine(config), position_m, velocity_m_s)


def dressed_energy(config: TrajectoryConfig, position_m) -> float:
    """Dressed-state energy at a position, joules, plus the background."""
    engine = _engine(config)
    x = float(np.linalg.norm(position_m)) / engine.r_c_m
    energy = _radial_spectrum(x, engine.reduced).energies[LABEL_INDEX[config.label]]
    return energy.item() * engine.energy_J + config.background_energy_J


def adiabaticity(config: TrajectoryConfig, position_m, velocity_m_s) -> float:
    """Worst ratio hbar|<chi_j|d/dt chi_i>| / |E_i - E_j| over j != i.

    The time derivative is |v| times a directional derivative along the
    velocity, taken by Richardson differences of the gauge-fixed
    eigenvectors with a fixed position step, so the parameter is exactly
    linear in speed.  Near-degenerate gaps report infinity.
    """
    engine = _engine(config)
    pos = np.asarray(position_m, dtype=float)
    vel = np.asarray(velocity_m_s, dtype=float)
    speed = float(np.linalg.norm(vel))
    if speed == 0.0:
        return 0.0
    direction = vel / speed
    x_a = pos / engine.r_c_m
    reduced = engine.reduced
    row = LABEL_INDEX[config.label]

    def states_at(displacement_rc: float) -> list[np.ndarray]:
        pa = x_a + displacement_rc * direction
        r = float(np.linalg.norm(pa))
        phase_a = reduced.kappa * float(np.dot(engine.khat, pa))
        return [
            bare_state_vector(
                float(reduced.shift_ratio(r)),
                reduced.detuning_ratio,
                lab,
                phase_a=phase_a,
                phase_b=0.0,
                rabi_phase=config.drive.rabi_phase_rad,
            )
            for lab in LABELS
        ]

    h = FD_STEP
    outer_p, outer_m = states_at(h), states_at(-h)
    inner_p, inner_m = states_at(h / 2.0), states_at(-h / 2.0)
    dv_i = (
        4.0 * (inner_p[row] - inner_m[row]) / h
        - (outer_p[row] - outer_m[row]) / (2.0 * h)
    ) / 3.0

    r0 = float(np.linalg.norm(x_a))
    energies, _, _ = labeled_spectrum(reduced.shift_ratio(r0), reduced.detuning_ratio)
    center = states_at(0.0)
    worst = 0.0
    ladder = {lab: energies[LABEL_INDEX[lab]].item() for lab in LABELS}
    ladder["0"] = 0.0
    phase_a = reduced.kappa * float(np.dot(engine.khat, x_a))
    others = {lab: center[LABEL_INDEX[lab]] for lab in LABELS if lab != config.label}
    others["0"] = dark_state_vector(phase_a, 0.0)
    for lab, vec in others.items():
        gap = abs(ladder[config.label] - ladder[lab])
        coupling = abs(np.vdot(vec, dv_i))
        if gap < DEGENERACY_GAP:
            if coupling * speed == 0.0:
                continue
            return float("inf")
        worst = max(worst, speed * coupling / (engine.r_c_m * gap * abs(config.drive.rabi_complex)))
    return worst


def integrate(config: TrajectoryConfig) -> Trajectory:
    """Run fixed-step RK4 until max time or a validity abort.

    The last step is shortened so the run ends exactly at ``max_time_s``.
    States are recorded every ``output_stride`` steps plus the final
    one; on abort the partial trajectory is returned with the reason.
    """
    engine = _engine(config)
    # a ratio within 1e-9 of an integer is that integer, so rounding in
    # max_time_s/time_step_s never leaves a sliver of a last step
    n_steps = max(1, int(np.ceil(config.max_time_s / config.time_step_s - 1e-9)))
    row = LABEL_INDEX[config.label]

    def acceleration(pos: np.ndarray, vel: np.ndarray) -> np.ndarray:
        return _force(config, engine, pos, vel) / engine.mass_kg

    def record(t: float, pos: np.ndarray, vel: np.ndarray) -> TrajectoryState:
        x = float(np.linalg.norm(pos)) / engine.r_c_m
        energy = _radial_spectrum(x, engine.reduced).energies[row].item()
        return TrajectoryState(
            t_s=t,
            position_m=pos.copy(),
            velocity_m_s=vel.copy(),
            energy_J=energy * engine.energy_J + config.background_energy_J,
            adiabaticity=adiabaticity(config, pos, vel),
        )

    pos = np.asarray(config.initial_position_m, dtype=float)
    vel = np.asarray(config.initial_velocity_m_s, dtype=float)
    states = [record(0.0, pos, vel)]
    for step in range(1, n_steps + 1):
        dt = config.time_step_s
        t = step * dt
        if step == n_steps:
            dt = config.max_time_s - (n_steps - 1) * dt
            t = config.max_time_s
        try:
            k1v = acceleration(pos, vel)
            k1p = vel
            k2v = acceleration(pos + 0.5 * dt * k1p, vel + 0.5 * dt * k1v)
            k2p = vel + 0.5 * dt * k1v
            k3v = acceleration(pos + 0.5 * dt * k2p, vel + 0.5 * dt * k2v)
            k3p = vel + 0.5 * dt * k2v
            k4v = acceleration(pos + dt * k3p, vel + dt * k3v)
            k4p = vel + dt * k3v
        except ModelValidityError as exc:
            return Trajectory(states=tuple(states), aborted=True, reason=str(exc))
        pos = pos + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        vel = vel + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if step % config.output_stride == 0 or step == n_steps:
            states.append(record(t, pos, vel))
    return Trajectory(states=tuple(states))


def deflection_scenario(
    preset_name: str = "gaetan2009",
    speed_m_s: float = 0.10,
    impact_parameter_rc: float = 1.0,
    label: str = "+",
    time_step_s: float = TrajectoryConfig.time_step_s,
    approach_rc: float = 6.0,
    output_stride: int = 200,
) -> TrajectoryConfig:
    """Far-approach flyby probing the transverse Lorentz deflection.

    The atom crosses the interaction region in the plane perpendicular
    to the beam, starting ``approach_rc`` crossover distances out, so
    the deflection along the beam axis is the integrated signature of
    the azimuthal field.  Only the Lorentz term is enabled: the in-plane
    energy gradient would dominate the motion long before the crossing
    and bury the transverse signal this scenario measures.
    """
    preset = get_preset(preset_name)
    units = ModelUnits.from_experiment(preset.drive, preset.interaction)
    r_c = units.length_m
    return TrajectoryConfig(
        drive=preset.drive,
        interaction=preset.interaction,
        initial_position_m=(-approach_rc * r_c, impact_parameter_rc * r_c, 0.0),
        initial_velocity_m_s=(speed_m_s, 0.0, 0.0),
        max_time_s=2.0 * approach_rc * r_c / speed_m_s,
        label=label,
        time_step_s=time_step_s,
        include_adiabatic_potential=False,
        output_stride=output_stride,
    )


def traversal_time_s(trajectory: Trajectory, r_c_m: float) -> float:
    """Time spent between the x = -r_c and x = +r_c crossings."""
    ts = np.array([s.t_s for s in trajectory.states])
    xs = np.array([s.position_m[0] for s in trajectory.states])
    if xs[0] > -r_c_m or xs[-1] < r_c_m:
        raise ValueError("trajectory does not span the crossing region")
    t_in = np.interp(-r_c_m, xs, ts)
    t_out = np.interp(r_c_m, xs, ts)
    return float(t_out - t_in)
