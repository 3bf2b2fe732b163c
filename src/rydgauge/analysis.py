"""Scans, magnetic-field extrema, and large-detuning scaling fits.

The scan table is the data behind every 1D figure; ``find_peaks``
refines grid-bracketed field extrema by golden section, every search of a
call in lockstep with one field solve per step; the scaling fit extracts
the asymptotic peak coefficients from a list of detunings in one such call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .gauge import _radial_spectrum, field_profile
from .model import DriveParams, InteractionModel, ReducedParameters, reduced_parameters
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


def _golden_refine(func, lo, hi, sgn) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section extrema of k unimodal brackets, advanced in lockstep.

    ``lo``, ``hi`` and ``sgn`` (+1 for a maximum, -1 for a minimum) hold one
    entry per search; ``func(x, i)`` gives the field of searches ``i`` at
    ``x``.  Each step is one call over the searches still open, and each
    search keeps the comparisons, updates and stop rule it has alone, so
    every abscissa and result is the float a search run by itself gives.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    every = np.arange(a.size)
    fc, fd = np.split(func(np.concatenate([c, d]), np.concatenate([every, every])), 2)
    live = every
    while True:
        live = live[(b[live] - a[live]) > REFINE_TOL * np.maximum(1.0, np.abs(a[live]))]
        if not live.size:
            break
        left = sgn[live] * fc[live] > sgn[live] * fd[live]
        i, j = live[left], live[~left]
        b[i], d[i], fd[i] = d[i], c[i], fc[i]
        c[i] = b[i] - GOLDEN * (b[i] - a[i])
        a[j], c[j], fc[j] = c[j], d[j], fd[j]
        d[j] = a[j] + GOLDEN * (b[j] - a[j])
        f = func(np.where(left, c[live], d[live]), live)
        fc[i], fd[j] = f[left], f[~left]
    mid = 0.5 * (a + b)
    return mid, func(mid, every)


def find_peaks(
    model: InteractionModel,
    requests,
    rmin: float = BRACKET_RMIN,
    rmax: float = BRACKET_RMAX,
    points: int = BRACKET_POINTS,
) -> list[PeakReport]:
    """Locate extrema of the signed azimuthal field B_phi(r), one per request.

    ``requests`` lists (drive, label, kind) with kind "max" or "min".  A log
    grid brackets each extremum (interior grid point beating both
    neighbors), one field solve per distinct drive; golden section then
    refines all brackets in lockstep, one solve per step.  Without an
    interior bracket a not-found report carries the grid diagnostics
    instead of raising.
    """
    if not rmin > 0.0:
        raise ValueError("rmin must be positive")
    if not rmax > rmin:
        raise ValueError("rmax must exceed rmin")
    if points < 3:
        raise ValueError("points must be >= 3")
    for _, label, kind in requests:
        _check_label(label)
        if kind not in ("max", "min"):
            raise ValueError("kind must be 'max' or 'min'")
    grid = np.geomspace(rmin, rmax, points)
    reduced = {drive: reduced_parameters(drive, model) for drive, _, _ in requests}
    profiles = {drive: field_profile(grid, rp) for drive, rp in reduced.items()}
    reports, open_ = [], []  # open_: one row per refined search
    for drive, label, kind in requests:
        values = profiles[drive][LABEL_INDEX[label]]
        idx = int(np.argmax(values)) if kind == "max" else int(np.argmin(values))
        found = 0 < idx < points - 1
        if found:
            rp = reduced[drive]  # each search keeps its own drive's scalar parameters
            open_.append((len(reports), grid[idx - 1], grid[idx + 1],
                          1.0 if kind == "max" else -1.0, LABEL_INDEX[label],
                          rp.detuning_ratio, rp.dressing_ratio, rp.kappa))
        reports.append(PeakReport(
            label=label,
            kind=kind,
            r_peak_over_rc=float(grid[idx]),
            field_peak=float(values[idx]),
            detuning_ratio=drive.detuning_ratio,
            found=found,
            note="" if found else (
                f"no interior bracket on [{rmin}, {rmax}] with {points} points; "
                f"grid extremum at index {idx}"
            ),
        ))
    if not open_:
        return reports
    at, lo, hi, sgn, rows, w, lam, kappa = (np.array(col) for col in zip(*open_))

    def field_at(x: np.ndarray, i: np.ndarray) -> np.ndarray:
        part = ReducedParameters(w[i], lam[i], model.sign, model.power, kappa[i])
        return field_profile(x, part)[rows[i], np.arange(i.size)]

    for n, r, b in zip(at, *_golden_refine(field_at, lo, hi, sgn)):
        reports[n] = dataclasses.replace(reports[n], r_peak_over_rc=float(r), field_peak=float(b))
    return reports


def find_peak(
    params: DriveParams,
    model: InteractionModel,
    label: str,
    kind: str,
    rmin: float = BRACKET_RMIN,
    rmax: float = BRACKET_RMAX,
    points: int = BRACKET_POINTS,
) -> PeakReport:
    """Locate one extremum of the signed azimuthal field: find_peaks of one request."""
    return find_peaks(model, [(params, label, kind)], rmin, rmax, points)[0]


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
    drives = [dataclasses.replace(params, detuning_rad_s=w * rabi) for w in ratios]
    kinds = ("max", "min") if kind is None else (kind,)
    peaks = find_peaks(model, [(drive, label, k) for drive in drives for k in kinds])
    if kind is None:
        candidates = [rep for rep in peaks[:2] if rep.found]
        if not candidates:
            raise ValueError("no field extremum found to select a kind")
        kind = max(candidates, key=lambda rep: abs(rep.field_peak)).kind
    reports = [rep for rep in peaks if rep.kind == kind]
    for w, report in zip(ratios, reports):
        if not report.found:
            raise ValueError(f"no {kind} bracket at detuning ratio {w}: {report.note}")

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
