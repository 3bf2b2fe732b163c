"""Artificial gauge potentials of laser-driven interacting Rydberg pairs.

The package exposes the internal pair spectrum in closed form, the
geometric vector, scalar and magnetic potentials that emerge from it,
the blockade and weak-dressing limits, center-of-mass decompositions,
peak/scaling analysis tools and a semiclassical trajectory integrator,
all behind SI-level experiment descriptions.
"""

from .analysis import (
    PeakReport, ScalingFit, ScanTable, find_peak, find_peaks, scaling_fit, scan_1d,
)
from .com_frame import (
    ComFrame,
    ComScalarPotentials,
    com_scalar_potentials,
    com_vector_potentials,
    lab_vector_potentials,
    to_com,
)
from .config import RunConfig, build_experiment, parse_config, read_config_file
from .dynamics import (
    ModelValidityError,
    Trajectory,
    TrajectoryConfig,
    TrajectoryState,
    adiabaticity,
    deflection_scenario,
    integrate,
    traversal_time_s,
)
from .gauge import (
    BerryConnection,
    FieldMap,
    GaugeSample,
    SingleAtomGauge,
    adiabaticity_fd,
    berry_connection_fd,
    connection_profile,
    field_map,
    field_profile,
    gauge_sample,
    magnetic_field,
    scalar_potential,
    scalar_potential_fd,
    scalar_profile,
    single_atom_gauge,
    vector_potential,
)
from .model import (
    PRESETS,
    DriveParams,
    ExperimentPreset,
    InteractionKind,
    InteractionModel,
    ModelUnits,
    ReducedParameters,
    characteristic_field,
    crossover_distance,
    generalized_rabi,
    get_preset,
    interaction_shift,
    reduced_parameters,
)
from .regimes import (
    AntiblockadeDistances,
    BlockadeEffective,
    BlockadeGauge,
    antiblockade_distances,
    blockade_correspondence,
    blockade_effective,
    blockade_gauge,
    effective_hamiltonian,
    weak_expansion,
)
from .spectrum import (
    LABELS,
    PairConfiguration,
    bare_state_vector,
    build_hamiltonian,
    dark_state_vector,
    eigenvalues_numeric,
    labeled_spectrum,
)
from .validate import CheckResult, run_checks

__version__ = "0.1.0"
