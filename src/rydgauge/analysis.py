"""Scans, magnetic-field extrema, and large-detuning scaling fits.

The scan table is the data behind every 1D figure; the peak finder
refines grid-bracketed field extrema by golden section; the scaling fit
extracts the asymptotic peak coefficients from a list of detunings.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .gauge import _radial_spectrum, field_profile
from .model import DriveParams, InteractionModel, reduced_parameters
from .spectrum import LABEL_INDEX, LABELS, _check_label, near_degenerate

# bracketing grid: log-spaced, wide enough for every documented extremum
# while keeping the vdW peaks resolved
BRACKET_RMIN = 0.05
BRACKET_RMAX = 10.0
BRACKET_POINTS = 400

GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)
REFINE_TOL = 1e-12  # crossover units; contract asks for 1e-10
FIT_RESIDUAL_LIMIT = 0.05


@dataclass(frozen=True)
class ScanTable:
    """Gauge quantities per label over a separation grid, model units."""

    metadata: dict
    labels: tuple
    r_over_rc: np.ndarray  # (n,)
    vector_potential: np.ndarray  # (len(labels), n), hbar*k_L
    azimuthal_field: np.ndarray  # (len(labels), n), B0
    scalar_potential: np.ndarray  # (len(labels), n), hbar^2*k_L^2/(2m)
    excluded_count: int = 0

    def __post_init__(self) -> None:
        if self.r_over_rc.size and not np.all(np.diff(self.r_over_rc) > 0.0):
            raise ValueError("scan grid must be strictly increasing")
        for block in (self.vector_potential, self.azimuthal_field, self.scalar_potential):
            if np.any(~np.isfinite(block)):
                raise ValueError("scan rows must be finite")


def scan_1d(
    params: DriveParams,
    model: InteractionModel,
    labels: tuple = LABELS,
    r_grid=(),
) -> ScanTable:
    """Tabulate A, B_phi and phi for the requested labels.

    One cubic solve over the grid gives every row and the degeneracy
    flag.  Grid points whose dressed ladder is near degenerate are
    excluded and counted instead of producing unreliable rows.  An empty
    grid gives an empty table.
    """
    for label in labels:
        _check_label(label)
    grid = np.asarray(r_grid, dtype=float)
    if grid.size and not np.all(np.diff(grid) > 0.0):
        raise ValueError("scan grid must be strictly increasing")
    if grid.size and not np.all(grid > 0.0):
        raise ValueError("scan grid must be positive")
    reduced = reduced_parameters(params, model)
    metadata = {
        "interaction": model.kind.name.lower(),
        "coefficient_rad_s_m_p": model.coefficient,
        "rabi_rad_s": abs(params.rabi_complex),
        "detuning_ratio": params.detuning_ratio,
        "kappa": reduced.kappa,
        "labels": ",".join(labels),
    }
    rows = [LABEL_INDEX[label] for label in labels]
    spec = _radial_spectrum(grid, reduced)
    keep = ~near_degenerate(spec.energies)
    excluded = int(np.count_nonzero(~keep))
    # for peak memory: phi first, while the spectrum is the only other large
    # array alive, and the spectrum dropped before the rows are copied out
    phi = spec.scalar(reduced.kappa)
    a, b = spec.connection, spec.da_dx
    del spec
    cols = keep if excluded else slice(None)  # a mask copies, a slice does not
    return ScanTable(
        metadata=metadata,
        labels=tuple(labels),
        r_over_rc=grid[cols],
        vector_potential=a[rows][:, cols],
        azimuthal_field=b[rows][:, cols],
        scalar_potential=phi[rows][:, cols],
        excluded_count=excluded,
    )


@dataclass(frozen=True)
class PeakReport:
    """One refined extremum of the azimuthal field."""

    label: str
    kind: str  # "max" or "min" of the signed field
    r_peak_over_rc: float
    field_peak: float  # signed, B0 units
    detuning_ratio: float
    found: bool = True
    note: str = ""


def _golden_refine(func, lo: float, hi: float, kind: str) -> tuple[float, float]:
    """Golden-section extremum of a unimodal bracket, signed values."""
    sgn = 1.0 if kind == "max" else -1.0
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = func(c), func(d)
    while (b - a) > REFINE_TOL * max(1.0, abs(a)):
        if sgn * fc > sgn * fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = func(d)
    mid = 0.5 * (a + b)
    return mid, func(mid)


def find_peak(
    params: DriveParams,
    model: InteractionModel,
    label: str,
    kind: str,
    rmin: float = BRACKET_RMIN,
    rmax: float = BRACKET_RMAX,
    points: int = BRACKET_POINTS,
) -> PeakReport:
    """Locate one extremum of the signed azimuthal field B_phi(r).

    A log grid brackets the extremum (interior grid point beating both
    neighbors), then golden section refines it.  Without an interior
    bracket a not-found report carries the grid diagnostics instead of
    raising.
    """
    _check_label(label)
    if kind not in ("max", "min"):
        raise ValueError("kind must be 'max' or 'min'")
    reduced = reduced_parameters(params, model)
    row = LABEL_INDEX[label]
    grid = np.geomspace(rmin, rmax, points)
    values = field_profile(grid, reduced)[row]
    idx = int(np.argmax(values)) if kind == "max" else int(np.argmin(values))
    if idx == 0 or idx == len(grid) - 1:
        return PeakReport(
            label=label,
            kind=kind,
            r_peak_over_rc=float(grid[idx]),
            field_peak=float(values[idx]),
            detuning_ratio=params.detuning_ratio,
            found=False,
            note=(
                f"no interior bracket on [{rmin}, {rmax}] with {points} points; "
                f"grid extremum at index {idx}"
            ),
        )

    def field_at(x: float) -> float:
        return field_profile(x, reduced)[row].item()

    r_peak, b_peak = _golden_refine(field_at, grid[idx - 1], grid[idx + 1], kind)
    return PeakReport(
        label=label,
        kind=kind,
        r_peak_over_rc=float(r_peak),
        field_peak=float(b_peak),
        detuning_ratio=params.detuning_ratio,
    )


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit of peak field against detuning ratio."""

    label: str
    kind: str
    exponent: float
    coefficient: float  # prefactor of |B_peak| = coefficient * |w|^exponent
    position: float  # mean r_peak/r_c over the fitted detunings
    residual: float  # worst relative deviation from the fitted law
    reports: tuple
    flags: tuple = ()


def scaling_fit(
    params: DriveParams,
    model: InteractionModel,
    label: str,
    detuning_ratios,
    kind: str | None = None,
) -> ScalingFit:
    """Fit |B_peak| = beta * |delta/Omega|^n over large detunings.

    The detunings must share a sign, satisfy |delta/Omega| >= 10 (the
    coefficients are leading-order results) and provide at least three
    points.  When ``kind`` is omitted the dominant extremum (largest
    |B_phi|) at the first detuning selects it.
    """
    ratios = [float(w) for w in detuning_ratios]
    if len(ratios) < 3:
        raise ValueError("scaling_fit needs at least 3 detuning ratios")
    if np.any(np.sign(ratios) != np.sign(ratios[0])) or ratios[0] == 0.0:
        raise ValueError("detuning ratios must share one sign")
    if min(abs(w) for w in ratios) < 10.0:
        raise ValueError("scaling_fit requires |delta/Omega| >= 10")

    rabi = abs(params.rabi_complex)
    if kind is None:
        probe = dataclasses.replace(params, detuning_rad_s=ratios[0] * rabi)
        candidates = [find_peak(probe, model, label, k) for k in ("max", "min")]
        candidates = [rep for rep in candidates if rep.found]
        if not candidates:
            raise ValueError("no field extremum found to select a kind")
        kind = max(candidates, key=lambda rep: abs(rep.field_peak)).kind

    reports = []
    for w in ratios:
        probe = dataclasses.replace(params, detuning_rad_s=w * rabi)
        report = find_peak(probe, model, label, kind)
        if not report.found:
            raise ValueError(f"no {kind} bracket at detuning ratio {w}: {report.note}")
        reports.append(report)

    log_w = np.log(np.abs(ratios))
    log_b = np.log([abs(rep.field_peak) for rep in reports])
    n = len(ratios)
    slope = (n * np.sum(log_w * log_b) - log_w.sum() * log_b.sum()) / (
        n * np.sum(log_w**2) - log_w.sum() ** 2
    )
    coefficient = float(np.exp((log_b.sum() - slope * log_w.sum()) / n))
    fitted = coefficient * np.abs(ratios) ** slope
    measured = np.abs([rep.field_peak for rep in reports])
    residual = float(np.max(np.abs(fitted - measured) / measured))
    return ScalingFit(
        label=label,
        kind=kind,
        exponent=float(slope),
        coefficient=coefficient,
        position=float(np.mean([rep.r_peak_over_rc for rep in reports])),
        residual=residual,
        reports=tuple(reports),
        flags=("low_confidence",) if residual > FIT_RESIDUAL_LIMIT else (),
    )
