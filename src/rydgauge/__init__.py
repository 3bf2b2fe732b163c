"""Artificial gauge potentials of laser-driven interacting Rydberg pairs.

The package exposes the internal pair spectrum in closed form, the
geometric vector, scalar and magnetic potentials that emerge from it,
peak/scaling analysis tools and a semiclassical trajectory integrator,
behind SI-level experiment descriptions.  All of them rest on one
dimensionless solve in (u, w) = (V, delta)/|Omega|; the blockade,
weak-dressing, single-atom and antiblockade limits (``regimes``) are array
functions of the same reduced inputs, and ``com_frame`` splits the
potentials into center-of-mass and relative parts.
"""

from .analysis import (
    PeakReport, ScalingFit, ScanTable, find_peaks, scaling_fit, scan_1d,
)
from .com_frame import (
    ComScalarPotentials,
    com_scalar_potentials,
    com_vector_potentials,
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
)
from .gauge import (
    BerryConnection,
    FieldMap,
    adiabaticity_fd,
    berry_connection_fd,
    connection_profile,
    field_map,
    field_profile,
    magnetic_field,
    scalar_potential_fd,
    scalar_profile,
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
    reduced_parameters,
)
from .regimes import (
    antiblockade_distances,
    blockade_correspondence,
    blockade_effective,
    blockade_gauge,
    effective_hamiltonian,
    single_atom_gauge,
    validity_advisory,
    weak_expansion,
)
from .spectrum import (
    LABELS,
    bare_state_vector,
    dark_state_vector,
    dense_hamiltonian,
    labeled_spectrum,
)
from .validate import CheckResult, run_checks

__version__ = "0.1.0"
