"""Semiclassical motion of one dressed atom past a pinned partner.

The mobile atom (atom a) feels the artificial Lorentz force of its
labeled internal state and the gradient of the dressed energy; the
partner sits at the origin and does not recoil.  By default the motion
is integrated with adaptive Dormand-Prince 5(4) (Dormand & Prince,
J. Comput. Appl. Math. 6, 19 (1980)); an explicit time step selects
classic fixed-step RK4.  Both abort where the adiabatic model itself
stops being trustworthy.  Each recorded state carries the closed-form
adiabaticity parameter (Dalibard et al., Rev. Mod. Phys. 83, 1523 (2011)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ELEMENTARY_CHARGE
from .gauge import _pair_amplitudes, _radial_spectrum
from .model import (
    DriveParams,
    InteractionModel,
    ModelUnits,
    get_preset,
    reduced_parameters,
)
from .spectrum import LABEL_INDEX, _check_label, _row_dots, _row_norms

MIN_SEPARATION_RC = 0.01  # below this the adiabatic pair model is not credible
DEGENERACY_GAP = 1e-12

# adaptive path: relative tolerance, absolute floor as a fraction of the
# problem's scales (r_c, |v0|), floor of the previous error norm in the PI
# controller; states are recorded on the grid of a RECORD_STEP_S fixed step
RTOL = 1e-10
ATOL_FRACTION = 1e-12
ERR_FLOOR = 1e-4
RECORD_STEP_S = 50e-9
# records one run may keep, about the rows of a bulk scan table: far past it a
# run would not finish building its list of record times before its first step
MAX_RECORDS = 1_000_000

# Dormand-Prince 5(4): stage matrix (row 6 is the fifth-order solution,
# so its stage is the next step's first) and fifth minus fourth order weights
_DP_A = np.zeros((7, 6))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 10.0  # step shrinks at most 5x, grows at most 10x
_PI_BETA = 0.04
_PI_ALPHA = 0.2 - 0.75 * _PI_BETA


class ModelValidityError(RuntimeError):
    """Trajectory entered separations where the pair model breaks down."""


@dataclass(frozen=True)
class TrajectoryConfig:
    """Everything one integration needs.

    Positions and velocities are SI; the pinned atom is at the origin.
    Switches pick force terms independently.  The scalar potential's
    gradient is left out: it is of recoil scale and usually compensated
    by light shifts.  A run may record at most ``MAX_RECORDS`` states.
    """

    drive: DriveParams
    interaction: InteractionModel
    initial_position_m: tuple  # (x, y, z)
    initial_velocity_m_s: tuple
    max_time_s: float
    label: str = "+"  # connects to |gg> at large separation
    charge_C: float = ELEMENTARY_CHARGE
    time_step_s: float | None = None  # None: adaptive Dormand-Prince 5(4)
    include_lorentz: bool = True
    include_adiabatic_potential: bool = True
    background_energy_J: float = 0.0
    output_stride: int = 1

    def __post_init__(self) -> None:
        _check_label(self.label)
        if self.time_step_s is not None and not (
            math.isfinite(self.time_step_s) and self.time_step_s > 0.0
        ):
            raise ValueError(f"time step must be finite and positive, got {self.time_step_s!r}")
        if not (math.isfinite(self.max_time_s) and self.max_time_s > 0.0):
            raise ValueError(f"max time must be finite and positive, got {self.max_time_s!r}")
        if self.output_stride < 1:
            raise ValueError("output stride must be >= 1")
        step_s = RECORD_STEP_S if self.time_step_s is None else self.time_step_s
        records = self.max_time_s / step_s / self.output_stride  # a float: it may be inf
        if records > MAX_RECORDS:
            raise ValueError(
                f"max time {self.max_time_s:.6g} s makes about {records:.3g} records, one per "
                f"{self.output_stride} steps of {step_s:g} s; at most {MAX_RECORDS:,} are kept"
            )
        for name, value in (("initial position", self.initial_position_m),
                            ("initial velocity", self.initial_velocity_m_s)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
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
    mass_kg: float


def _engine(config: TrajectoryConfig) -> _Engine:
    units = ModelUnits.from_experiment(config.drive, config.interaction)
    return _Engine(
        reduced=reduced_parameters(config.drive, config.interaction),
        khat=np.asarray(config.drive.wavevector_direction, dtype=float),
        r_c_m=units.length_m,
        energy_J=units.energy_J,
        field_T=units.field_T,
        mass_kg=config.drive.mass_a_kg,
    )


def _cross(a, b) -> np.ndarray:
    """a x b of two 3-vectors on Python floats, in np.cross's order of operations (same bits)."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _force(config: TrajectoryConfig, engine: _Engine, position_m, velocity_m_s):
    pos = np.asarray(position_m, dtype=float)
    vel = np.asarray(velocity_m_s, dtype=float)
    r_m = math.sqrt(pos.dot(pos))  # the bits of np.linalg.norm, without its overhead
    x = r_m / engine.r_c_m
    if x < MIN_SEPARATION_RC:
        raise ModelValidityError(
            f"separation {x:.4f} r_c below validity floor {MIN_SEPARATION_RC} r_c"
        )
    row = LABEL_INDEX[config.label]
    e_r = pos / r_m
    total = np.zeros(3)
    if config.include_lorentz or config.include_adiabatic_potential:
        spec = _radial_spectrum(x, engine.reduced)  # solved only for a term that reads it
    if config.include_lorentz:
        b_si = engine.field_T * spec.da_dx[row] * _cross(e_r, engine.khat)
        total += config.charge_C * _cross(vel, b_si)
    if config.include_adiabatic_potential:
        total += -spec.de_dx[row] * (engine.energy_J / engine.r_c_m) * e_r
    return total


def adiabaticity(config: TrajectoryConfig, position_m, velocity_m_s):
    """Worst ratio hbar|<chi_j|d/dt chi_i>| / |E_i - E_j| over j != i.

    Positions and velocities are (3,) or (n, 3).  With the couplings of
    ``gauge._pair_amplitudes`` (R_ij the Hellmann-Feynman radial coupling
    that phi also reads), |<chi_j|d/dt chi_i>| is |v·e_r R_ij +
    i kappa v·k Q_ij| / r_c for bright j and |kappa v·k D_i| / r_c for the
    dark state at zero energy.  One solve serves every row.  A gap below
    ``DEGENERACY_GAP`` is skipped if its coupling is zero, else infinite.
    """
    engine = _engine(config)
    pos = np.asarray(position_m, dtype=float)
    vel = np.asarray(velocity_m_s, dtype=float)
    r_m = _row_norms(pos)
    spectrum = _radial_spectrum(r_m / engine.r_c_m, engine.reduced)
    row = LABEL_INDEX[config.label]
    radial, phase, dark = _pair_amplitudes(spectrum)
    along_r = _row_dots(vel, pos) / r_m
    along_k = engine.reduced.kappa * _row_dots(vel, engine.khat)
    coupling = np.concatenate(
        [np.hypot(along_r * radial[row], along_k * phase[row]), np.abs(along_k * dark[row])[None]]
    )
    energies = spectrum.energies
    gap = np.abs(energies[row] - np.concatenate([energies, np.zeros_like(energies[:1])]))
    with np.errstate(divide="ignore", invalid="ignore"):  # the label's own zero gap
        ratio = coupling / (engine.r_c_m * abs(config.drive.rabi_complex) * gap)
    return np.where(gap < DEGENERACY_GAP, np.where(coupling == 0.0, 0.0, np.inf), ratio).max(axis=0)


def _step_count(max_time_s: float, step_s: float) -> int:
    """Fixed steps to reach max_time_s, the last one shortened to land on it."""
    # a ratio within 1e-9 of an integer is that integer, so rounding in
    # max_time_s/step_s never leaves a sliver of a last step
    return max(1, int(np.ceil(max_time_s / step_s - 1e-9)))


def _record_times(config: TrajectoryConfig, step_s: float) -> list[float]:
    """Times of the recorded states after t = 0 on the fixed-step grid of
    ``step_s``: every ``output_stride`` steps and, last, ``max_time_s``."""
    n_steps = _step_count(config.max_time_s, step_s)
    stride = config.output_stride
    return [step * step_s for step in range(stride, n_steps, stride)] + [config.max_time_s]


def _rk4_records(config: TrajectoryConfig, engine: _Engine):
    """Classic fixed-step RK4; yields (t, position, velocity) at each record time."""
    n_steps = _step_count(config.max_time_s, config.time_step_s)

    def acceleration(pos: np.ndarray, vel: np.ndarray) -> np.ndarray:
        return _force(config, engine, pos, vel) / engine.mass_kg

    pos = np.asarray(config.initial_position_m, dtype=float)
    vel = np.asarray(config.initial_velocity_m_s, dtype=float)
    for step in range(1, n_steps + 1):
        dt = config.time_step_s
        t = step * dt
        if step == n_steps:
            dt = config.max_time_s - (n_steps - 1) * dt
            t = config.max_time_s
        k1v = acceleration(pos, vel)
        k1p = vel
        k2v = acceleration(pos + 0.5 * dt * k1p, vel + 0.5 * dt * k1v)
        k2p = vel + 0.5 * dt * k1v
        k3v = acceleration(pos + 0.5 * dt * k2p, vel + 0.5 * dt * k2v)
        k3p = vel + 0.5 * dt * k2v
        k4v = acceleration(pos + dt * k3p, vel + dt * k3v)
        k4p = vel + dt * k3v
        pos = pos + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        vel = vel + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if step % config.output_stride == 0 or step == n_steps:
            yield t, pos, vel


def _dp54_records(config: TrajectoryConfig, engine: _Engine):
    """Adaptive Dormand-Prince 5(4); yields (t, position, velocity) at each record time.

    FSAL, the PI step controller of Hairer, Norsett & Wanner (Solving
    ODEs I, II.4-II.5) on the mixed error norm with scales
    ``atol_i + RTOL * max(|y_i|, |y_new_i|)``.  The steps up to the next
    record time split it evenly, so every record is an accepted step
    that lands on it exactly, with no interpolation.
    """
    y = np.array([*config.initial_position_m, *config.initial_velocity_m_s], dtype=float)
    # absolute floors from the problem's own scales: r_c for positions and
    # the initial speed (or r_c per run time, starting at rest) for velocities
    speed = float(np.linalg.norm(y[3:])) or engine.r_c_m / config.max_time_s
    atol = ATOL_FRACTION * np.repeat([engine.r_c_m, speed], 3)

    def rhs(y: np.ndarray, out: np.ndarray) -> None:
        out[:3] = y[3:]
        np.divide(_force(config, engine, y[:3], y[3:]), engine.mass_kg, out=out[3:])

    def norm(v: np.ndarray, scale: np.ndarray) -> float:
        return math.sqrt(np.add.reduce((v / scale) ** 2) / v.size)  # np.mean's bits

    k = np.empty((7, 6))
    rhs(y, k[0])
    # first step: Hairer's guess 0.01 |y| / |y'| in the error norm
    scale = atol + RTOL * np.abs(y)
    d0, d1 = norm(y, scale), norm(k[0], scale)
    h = 0.01 * d0 / d1 if d1 > 0.0 else config.max_time_s
    t = 0.0
    err_old = ERR_FLOOR
    rejected = False
    for t_record in _record_times(config, RECORD_STEP_S):
        while t < t_record:
            n_left = math.ceil((t_record - t) / h)
            h_step = (t_record - t) / n_left
            for i in range(1, 7):
                y_new = y + h_step * (_DP_A[i, :i] @ k[:i])
                rhs(y_new, k[i])
            err = norm(h_step * (_DP_E @ k), atol + RTOL * np.maximum(np.abs(y), np.abs(y_new)))
            if err <= 1.0:
                fac = err**_PI_ALPHA / err_old**_PI_BETA / _SAFETY
                h = h_step / min(1.0 / _FAC_MIN, max(1.0 / _FAC_MAX, fac))
                if rejected:
                    h = min(h, h_step)
                err_old = max(err, ERR_FLOOR)
                rejected = False
                t = t_record if n_left == 1 else t + h_step
                y = y_new
                k[0] = k[6]
            else:
                h = h_step / min(1.0 / _FAC_MIN, err**_PI_ALPHA / _SAFETY)
                rejected = True
        yield t, y[:3], y[3:]


def integrate(config: TrajectoryConfig) -> Trajectory:
    """Integrate until max time or a validity abort.

    With ``time_step_s`` unset the default path is adaptive Dormand-Prince
    5(4) at relative tolerance ``RTOL``; an explicit ``time_step_s`` runs
    classic fixed-step RK4.  Either way the run ends exactly at
    ``max_time_s`` and states are recorded at t = 0, at every
    ``output_stride`` steps of the fixed step (50 ns on the adaptive
    path), and at the end.  A force evaluation below the validity floor
    ends the run: the partial trajectory is returned with the reason.
    The energies and adiabaticity of all recorded states, a partial run's
    included, come from batched calls after the run.
    """
    engine = _engine(config)
    records = [(0.0, config.initial_position_m, config.initial_velocity_m_s)]
    stepper = _dp54_records if config.time_step_s is None else _rk4_records
    aborted, reason = False, ""
    try:
        for record in stepper(config, engine):
            records.append(record)
    except ModelValidityError as exc:
        aborted, reason = True, str(exc)
    times, positions, velocities = zip(*records)
    positions = np.array(positions, dtype=float)
    velocities = np.array(velocities, dtype=float)
    spec = _radial_spectrum(_row_norms(positions) / engine.r_c_m, engine.reduced)
    energies = spec.energies[LABEL_INDEX[config.label]] * engine.energy_J + config.background_energy_J
    monitor = adiabaticity(config, positions, velocities)
    states = map(TrajectoryState, times, positions, velocities, energies.tolist(), monitor.tolist())
    return Trajectory(states=tuple(states), aborted=aborted, reason=reason)


def deflection_scenario(
    preset_name: str = "gaetan2009",
    speed_m_s: float = 0.10,
    impact_parameter_rc: float = 1.0,
    label: str = "+",
    time_step_s: float | None = None,
    approach_rc: float = 6.0,
    output_stride: int = 200,
) -> TrajectoryConfig:
    """Far-approach flyby probing the transverse Lorentz deflection.

    The atom crosses the interaction region in the plane perpendicular
    to the beam, starting ``approach_rc`` crossover distances out, so
    the deflection along the beam axis is the integrated signature of
    the azimuthal field.  Only the Lorentz term is enabled: the in-plane
    energy gradient would dominate the motion long before the crossing
    and bury the transverse signal this scenario measures.  Without
    ``time_step_s`` the run uses the adaptive integrator; a step given
    here selects fixed-step RK4 at that step.
    """
    if not (math.isfinite(speed_m_s) and speed_m_s > 0):
        raise ValueError(f"speed must be finite and positive, got {speed_m_s!r} m/s")
    if not math.isfinite(impact_parameter_rc):
        raise ValueError(f"impact parameter must be finite, got {impact_parameter_rc!r} r_c")
    if not (math.isfinite(approach_rc) and approach_rc > 0):
        raise ValueError(f"approach distance must be finite and positive, got {approach_rc!r} r_c")
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
