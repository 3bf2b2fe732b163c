"""Semiclassical motion of one dressed atom past a pinned partner.

The mobile atom (atom a) feels the artificial Lorentz force of its
labeled internal state; the partner sits at the origin and does not
recoil.  The motion is integrated with adaptive Dormand-Prince 5(4)
(Dormand & Prince, J. Comput. Appl. Math. 6, 19 (1980)), whose records
between step ends come from its fourth-order dense output on a fixed
record grid; a run aborts where the adiabatic model itself stops being
trustworthy.  A run is returned as columns: times, positions, velocities
and the closed-form adiabaticity parameter (Dalibard et al., Rev. Mod.
Phys. 83, 1523 (2011)) of every record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ELEMENTARY_CHARGE
from .gauge import _pair_amplitudes, _radial_spectrum, _separation_vectors
from .model import (
    DriveParams,
    InteractionModel,
    ModelUnits,
    get_preset,
    reduced_parameters,
)
from .spectrum import LABEL_INDEX, _check_label, _row_dots

MIN_SEPARATION_RC = 0.01  # below this the adiabatic pair model is not credible
DEGENERACY_GAP = 1e-12

# relative tolerance, absolute floor as a fraction of the problem's scales
# (r_c, |v0|), floor of the previous error norm in the PI controller, and
# the default step of the record grid
RTOL = 1e-10
ATOL_FRACTION = 1e-12
ERR_FLOOR = 1e-4
RECORD_STEP_S = 50e-9
# records one run may keep, about the rows of a bulk scan table: far past it a
# run would not finish building its list of record times before its first step
MAX_RECORDS = 1_000_000
# the deflection scenario starts this many r_c out; every run records every this many steps
APPROACH_RC = 6.0
SCENARIO_STRIDE = 200

# Dormand-Prince 5(4): stage matrix (row 6 is the fifth-order solution,
# so its stage is the next step's first), fifth minus fourth order weights
# and the weights of the fourth-order dense output (Hairer's dopri5 d_i)
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
_DP_D = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
])
_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 10.0  # step shrinks at most 5x, grows at most 10x
_PI_BETA = 0.04
_PI_ALPHA = 0.2 - 0.75 * _PI_BETA


class ModelValidityError(RuntimeError):
    """Trajectory entered separations where the pair model breaks down."""


@dataclass(frozen=True)
class TrajectoryConfig:
    """Everything one integration needs.

    Positions and velocities are SI; the pinned atom is at the origin.
    Every run feels the same Lorentz force, so only what a flyby varies is
    here.  ``time_step_s`` is the step of the record grid, not of the
    integrator: a state is recorded every ``SCENARIO_STRIDE`` steps of it.
    A run may record at most ``MAX_RECORDS`` states.
    """

    drive: DriveParams
    interaction: InteractionModel
    initial_position_m: tuple  # (x, y, z)
    initial_velocity_m_s: tuple
    max_time_s: float
    label: str = "+"  # connects to |gg> at large separation
    time_step_s: float = RECORD_STEP_S

    def __post_init__(self) -> None:
        _check_label(self.label)
        if not (math.isfinite(self.time_step_s) and self.time_step_s > 0.0):
            raise ValueError(f"time step must be finite and positive, got {self.time_step_s!r}")
        if not (math.isfinite(self.max_time_s) and self.max_time_s > 0.0):
            raise ValueError(f"max time must be finite and positive, got {self.max_time_s!r}")
        records = self.max_time_s / self.time_step_s / SCENARIO_STRIDE  # a float: it may be inf
        if records > MAX_RECORDS:
            raise ValueError(
                f"max time {self.max_time_s:.6g} s makes about {records:.3g} records, one per "
                f"{SCENARIO_STRIDE} steps of {self.time_step_s:g} s; at most {MAX_RECORDS:,} "
                "are kept"
            )
        for name, value in (("initial position", self.initial_position_m),
                            ("initial velocity", self.initial_velocity_m_s)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not np.linalg.norm(self.initial_position_m) > 0.0:
            raise ValueError("initial separation must be nonzero")


@dataclass(frozen=True)
class Trajectory:
    """The recorded path as columns, one row per record, plus how the run ended."""

    t_s: np.ndarray  # (n,)
    position_m: np.ndarray  # (n, 3)
    velocity_m_s: np.ndarray  # (n, 3)
    adiabaticity: np.ndarray  # (n,)
    aborted: bool = False
    reason: str = ""

    def __post_init__(self) -> None:
        if not np.all(self.adiabaticity >= 0.0):  # a NaN fails too
            raise ValueError("adiabaticity parameter must be >= 0")


@dataclass(frozen=True)
class _Engine:
    """Precomputed conversion factors and the label's row for one configuration."""

    reduced: object
    khat: np.ndarray
    r_c_m: float
    field_T: float
    mass_kg: float
    row: int  # the label's row of the spectrum


def _engine(config: TrajectoryConfig) -> _Engine:
    units = ModelUnits.from_experiment(config.drive, config.interaction)
    return _Engine(
        reduced=reduced_parameters(config.drive, config.interaction),
        khat=np.asarray(config.drive.wavevector_direction, dtype=float),
        r_c_m=units.length_m,
        field_T=units.field_T,
        mass_kg=config.drive.mass_a_kg,
        row=LABEL_INDEX[config.label],
    )


def _cross(a, b) -> list:
    """a x b of two 3-vectors of Python floats, in np.cross's order of operations (same bits)."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _force(engine: _Engine, position_m, velocity_m_s):
    """The artificial Lorentz force q v x B on atom a, B = B0 B_phi e_r x k, in N.

    Only this term acts: the in-plane gradient of the dressed energy would
    dominate the motion long before the crossing and bury the transverse
    deflection that a flyby measures.  A later workload that needs the
    dressed-energy force can add it back as a closed form on the same solve:
    Hellmann-Feynman's dE/dx = n2 ee^2 du/dx reads only fields that
    ``_RadialSpectrum`` already carries.  Position and velocity are float
    arrays of shape (3,); the vector algebra runs on Python floats.
    """
    pos = position_m
    r_m = math.sqrt(pos.dot(pos))  # the bits of np.linalg.norm, without its overhead
    x = r_m / engine.r_c_m
    if x < MIN_SEPARATION_RC:
        raise ModelValidityError(
            f"separation {x:.4f} r_c below validity floor {MIN_SEPARATION_RC} r_c"
        )
    b_T = engine.field_T * float(_radial_spectrum(x, engine.reduced).da_dx[engine.row])
    b_si = [b_T * c for c in _cross([c / r_m for c in pos.tolist()], engine.khat.tolist())]
    return np.array([ELEMENTARY_CHARGE * c for c in _cross(velocity_m_s.tolist(), b_si)])


def adiabaticity(config: TrajectoryConfig, position_m, velocity_m_s):
    """Worst ratio hbar|<chi_j|d/dt chi_i>| / |E_i - E_j| over j != i.

    Positions and velocities are finite, of one shape, (3,) or (n, 3), and
    no position is at the origin; a ValueError names the argument that is
    not.  With the couplings of ``gauge._pair_amplitudes`` (R_ij the
    Hellmann-Feynman radial coupling that phi also reads),
    |<chi_j|d/dt chi_i>| is |v·e_r R_ij + i kappa v·k Q_ij| / r_c for
    bright j and |kappa v·k D_i| / r_c for the dark state at zero energy.
    One solve serves every row.  A gap below ``DEGENERACY_GAP`` is skipped
    if its coupling is zero, else infinite.
    """
    engine = _engine(config)
    pos, r_m = _separation_vectors(position_m, "position_m")
    vel = np.asarray(velocity_m_s, dtype=float)
    if vel.shape != pos.shape or not np.isfinite(vel).all():
        raise ValueError("velocity_m_s must be finite, with the shape of position_m")
    spectrum = _radial_spectrum(r_m / engine.r_c_m, engine.reduced)
    row = engine.row
    radial, phase, dark = _pair_amplitudes(spectrum)
    along_r = _row_dots(vel, pos) / r_m
    along_k = engine.reduced.kappa * _row_dots(vel, engine.khat)
    coupling = np.concatenate(
        [np.hypot(along_r * radial[row], along_k * phase[row]), np.abs(along_k * dark[row])[None]]
    )
    energies = spectrum.energies
    gap = np.abs(energies[row] - np.concatenate([energies, np.zeros_like(energies[:1])]))
    with np.errstate(divide="ignore", invalid="ignore"):  # the label's own zero gap
        ratio = coupling / (engine.r_c_m * config.drive.rabi_magnitude_rad_s * gap)
    return np.where(gap < DEGENERACY_GAP, np.where(coupling == 0.0, 0.0, np.inf), ratio).max(axis=0)


def _check_chord(engine: _Engine, start: np.ndarray, end: np.ndarray) -> None:
    """Raise if the straight path of an accepted step passes below the validity floor.

    The force checks the floor only where a stage lands, and a step can
    leap across the partner between stages; the chord from ``start`` to
    ``end`` (positions, m) catches that.
    """
    chord = end - start
    length2 = chord.dot(chord)
    s = min(1.0, max(0.0, -start.dot(chord) / length2)) if length2 > 0.0 else 0.0
    closest = start + s * chord
    x = math.sqrt(closest.dot(closest)) / engine.r_c_m
    if x < MIN_SEPARATION_RC:
        raise ModelValidityError(
            f"step passes {x:.4f} r_c from the partner, below validity floor "
            f"{MIN_SEPARATION_RC} r_c"
        )


def _record_times(config: TrajectoryConfig) -> list[float]:
    """Times of the interior records: every ``SCENARIO_STRIDE`` steps of the
    record grid before ``max_time_s``, where the last record is."""
    step_s = config.time_step_s
    # a ratio within 1e-9 of an integer is that integer, so rounding in
    # max_time_s/step_s never puts a record a sliver before the end
    n_steps = max(1, int(np.ceil(config.max_time_s / step_s - 1e-9)))
    return [step * step_s for step in range(SCENARIO_STRIDE, n_steps, SCENARIO_STRIDE)]


def _dp54_records(config: TrajectoryConfig, engine: _Engine):
    """Adaptive Dormand-Prince 5(4); yields (t, position, velocity) at each record time.

    FSAL, the PI step controller of Hairer, Norsett & Wanner (Solving
    ODEs I, II.4-II.5) on the mixed error norm with scales
    ``atol_i + RTOL * max(|y_i|, |y_new_i|)``.  Steps run at the length
    the controller chooses; a record time inside an accepted step is
    written from the fourth-order dense output of that step (ibid.
    II.6), built from its seven stages.  Only the last step is clipped,
    so the final record is a step end at ``max_time_s`` exactly.
    """
    y = np.array([*config.initial_position_m, *config.initial_velocity_m_s], dtype=float)
    # absolute floors from the problem's own scales: r_c for positions and
    # the initial speed (or r_c per run time, starting at rest) for velocities
    speed = float(np.linalg.norm(y[3:])) or engine.r_c_m / config.max_time_s
    atol = ATOL_FRACTION * np.repeat([engine.r_c_m, speed], 3)

    def rhs(y: np.ndarray, out: np.ndarray) -> None:
        out[:3] = y[3:]
        out[3:] = _force(engine, y[:3], y[3:]) / engine.mass_kg

    def norm(v: np.ndarray, scale: np.ndarray) -> float:
        return math.sqrt(np.add.reduce((v / scale) ** 2) / v.size)  # np.mean's bits

    k = np.empty((7, 6))
    stages = [(_DP_A[i, :i], k[:i], k[i]) for i in range(1, 7)]  # row, earlier slopes, slot
    rhs(y, k[0])
    # first step: Hairer's guess 0.01 |y| / |y'| in the error norm
    scale = atol + RTOL * np.abs(y)
    d0, d1 = norm(y, scale), norm(k[0], scale)
    h = 0.01 * d0 / d1 if d1 > 0.0 else config.max_time_s
    t, t_end = 0.0, config.max_time_s
    records = iter(_record_times(config))
    t_record = next(records, math.inf)
    err_old = ERR_FLOOR
    rejected = False
    while True:
        last = h >= t_end - t
        h_step = t_end - t if last else h
        for row, slopes, slot in stages:
            y_new = y + h_step * (row @ slopes)
            rhs(y_new, slot)
        err = norm(h_step * (_DP_E @ k), atol + RTOL * np.maximum(np.abs(y), np.abs(y_new)))
        if err > 1.0:
            h = h_step / min(1.0 / _FAC_MIN, err**_PI_ALPHA / _SAFETY)
            rejected = True
            continue
        _check_chord(engine, y[:3], y_new[:3])
        t_new = t_end if last else t + h_step
        if t_record <= t_new:
            # Hairer's contd5: y + th (dy + (1 - th)(b + th (dy - h k7 - b + (1 - th) h D.k)))
            dy = y_new - y
            bspl = h_step * k[0] - dy
            tail = dy - h_step * k[6] - bspl
            hdk = h_step * (_DP_D @ k)
            while t_record <= t_new:
                th = (t_record - t) / h_step
                y_rec = y + th * (dy + (1.0 - th) * (bspl + th * (tail + (1.0 - th) * hdk)))
                yield t_record, y_rec[:3], y_rec[3:]
                t_record = next(records, math.inf)
        if last:
            yield t_end, y_new[:3], y_new[3:]
            return
        fac = err**_PI_ALPHA / err_old**_PI_BETA / _SAFETY
        h = h_step / min(1.0 / _FAC_MIN, max(1.0 / _FAC_MAX, fac))
        if rejected:
            h = min(h, h_step)
        err_old = max(err, ERR_FLOOR)
        rejected = False
        t, y = t_new, y_new
        k[0] = k[6]


def integrate(config: TrajectoryConfig) -> Trajectory:
    """Integrate until max time or a validity abort.

    Adaptive Dormand-Prince 5(4) at relative tolerance ``RTOL`` runs to
    ``max_time_s`` exactly.  States are recorded at t = 0, at every
    ``SCENARIO_STRIDE`` steps of the record grid ``time_step_s``, and at
    the end.  Only the final record is a step end; the others are
    interpolated from the dense output of the step that holds them, so
    the record grid moves no step.  A force evaluation below the validity
    floor, or an accepted step whose chord passes below it, ends the
    run: the partial trajectory is returned with the reason.
    The adiabaticity of all records, a partial run's included, comes from
    one batched call after the run.
    """
    engine = _engine(config)
    records = [(0.0, config.initial_position_m, config.initial_velocity_m_s)]
    aborted, reason = False, ""
    try:
        for record in _dp54_records(config, engine):
            records.append(record)
    except ModelValidityError as exc:
        aborted, reason = True, str(exc)
    times, positions, velocities = zip(*records)
    positions = np.array(positions, dtype=float)
    velocities = np.array(velocities, dtype=float)
    return Trajectory(
        t_s=np.array(times, dtype=float),
        position_m=positions,
        velocity_m_s=velocities,
        adiabaticity=adiabaticity(config, positions, velocities),
        aborted=aborted,
        reason=reason,
    )


def deflection_scenario(
    preset_name: str = "gaetan2009",
    speed_m_s: float = 0.10,
    impact_parameter_rc: float = 1.0,
    label: str = "+",
    time_step_s: float = RECORD_STEP_S,
) -> TrajectoryConfig:
    """Far-approach flyby probing the transverse Lorentz deflection.

    The atom crosses the interaction region in the plane perpendicular
    to the beam, from ``APPROACH_RC`` crossover distances out to as far
    past the partner, so the deflection along the beam axis is the
    integrated signature of the azimuthal field.  ``time_step_s`` sets
    only the record grid; the path is the same at every grid.
    """
    if not (math.isfinite(speed_m_s) and speed_m_s > 0):
        raise ValueError(f"speed must be finite and positive, got {speed_m_s!r} m/s")
    if not math.isfinite(impact_parameter_rc):
        raise ValueError(f"impact parameter must be finite, got {impact_parameter_rc!r} r_c")
    preset = get_preset(preset_name)
    units = ModelUnits.from_experiment(preset.drive, preset.interaction)
    r_c = units.length_m
    return TrajectoryConfig(
        drive=preset.drive,
        interaction=preset.interaction,
        initial_position_m=(-APPROACH_RC * r_c, impact_parameter_rc * r_c, 0.0),
        initial_velocity_m_s=(speed_m_s, 0.0, 0.0),
        max_time_s=2.0 * APPROACH_RC * r_c / speed_m_s,
        label=label,
        time_step_s=time_step_s,
    )
