"""Scans, magnetic-field extrema, and large-detuning scaling fits.

The scan table is the data behind every 1D figure; ``find_peaks``
refines grid-bracketed field extrema to zeros of the closed-form slope
dB/dx by Brent's zeroin, every search of a call in lockstep with one
solve per step; the scaling fit extracts the asymptotic peak coefficients
from a list of detunings in one such call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .gauge import _field_slope, _positive_finite, _radial_solve, _radial_spectrum
from .model import DriveParams, InteractionModel, ReducedParameters, reduced_parameters
from .spectrum import LABEL_INDEX, _check_label, _clear_of_degeneracy, near_degenerate

# bracketing grid: log-spaced, wide enough for every documented extremum
# while keeping the vdW peaks resolved
BRACKET_RMIN = 0.05
BRACKET_RMAX = 10.0
BRACKET_POINTS = 400

SCAN_LABELS = ("1", "+", "-")  # row order of a scan, column order of its table
REFINE_TOL = 1e-12  # crossover units; contract asks for 1e-10
FIT_RESIDUAL_LIMIT = 0.05
# points a scan solves, and rows ``tables.render`` formats and writes, at once: a
# block's temporaries stay near the 2 MiB L2 cache, so their pages are reused, not
# faulted in again
_BLOCK = 1024


@dataclass(frozen=True)
class ScanTable:
    """A scan of A, B_phi and phi of the three labels over a separation grid.

    Nothing is solved until its rows are asked for: ``blocks`` solves the
    grid ``_BLOCK`` points at a time, and ``count_excluded`` counts the
    near-degenerate points from the cubic's coefficients, solving only the
    points they cannot clear, so a scan holds its grid and one block, never
    its whole table.
    """

    metadata: dict
    grid: np.ndarray  # (n,) r/r_c, finite, > 0 and strictly increasing
    reduced: ReducedParameters

    def _grid_blocks(self):
        for start in range(0, self.grid.size, _BLOCK):
            yield self.grid[start : start + _BLOCK]

    def blocks(self):
        """Per block of the grid, its kept rows as one (k, 10) array, model units.

        The columns are ``tables.SCAN_HEADER``'s: r/r_c, then A (hbar*k_L),
        B_phi (B0) and phi (hbar^2*k_L^2/(2m)) in ``SCAN_LABELS`` order.  A
        block's one cubic solve gives its rows and their degeneracy flags, and
        a point's numbers do not depend on its block.  Each block is checked
        before it is yielded: a row that is not finite raises, after the
        blocks before it and before any after it.
        """
        rows = [LABEL_INDEX[label] for label in SCAN_LABELS]
        for x in self._grid_blocks():
            # where u overflows, or underflows to the defective point u = 2w = 0, the
            # point is excluded as near degenerate or its row rejected as not finite
            with np.errstate(all="ignore"):
                spec = _radial_spectrum(x, self.reduced)
                keep = ~near_degenerate(spec.energies)
                if np.count_nonzero(keep) == keep.size:
                    keep = slice(None)  # nothing excluded: views, not boolean copies
                block = np.concatenate([x[keep, None], *(v[rows][:, keep].T for v in (
                    spec.connection, spec.da_dx, spec.scalar(self.reduced.kappa)))], axis=1)
            if not np.isfinite(block).all():
                raise ValueError("scan rows must be finite")
            yield block

    def count_excluded(self) -> int:
        """How many grid points ``blocks`` leaves out as near degenerate.

        ``_clear_of_degeneracy`` clears points from the cubic's coefficients;
        only the rest are solved, a block's at once, with the bits of the row
        solve and the same exclusion rule.  Away from the degenerate limits
        (u -> 0, |u| beyond 1e77, u = 2w at large |w|) nothing is solved.
        """
        excluded = 0
        for x in self._grid_blocks():
            with np.errstate(all="ignore"):
                u = self.reduced.shift_ratio(x)
                unsure = x[~_clear_of_degeneracy(u, self.reduced.detuning_ratio)]
                if unsure.size:
                    _, (energies, _, _) = _radial_solve(unsure, self.reduced)
                    excluded += int(np.count_nonzero(near_degenerate(energies)))
        return excluded


def scan_1d(params: DriveParams, model: InteractionModel, r_grid) -> ScanTable:
    """The scan of A, B_phi and phi of the three labels over ``r_grid``.

    The grid is checked here, and nothing is solved: the returned table
    solves it one block at a time as its rows are read.  Grid points whose
    dressed ladder is near degenerate are excluded and counted instead of
    producing unreliable rows.  An empty grid gives an empty table; the
    grid must be one-dimensional and strictly increasing, every separation
    finite and > 0.
    """
    grid = _positive_finite(r_grid, "separation in r_grid")
    if grid.ndim != 1:
        raise ValueError(f"scan grid must be one-dimensional, got shape {grid.shape}")
    if grid.size and not np.all(np.diff(grid) > 0.0):
        raise ValueError("scan grid must be strictly increasing")
    reduced = reduced_parameters(params, model)
    metadata = {
        "interaction": model.kind.name.lower(),
        "coefficient_rad_s_m_p": model.coefficient,
        "rabi_rad_s": params.rabi_magnitude_rad_s,
        "detuning_ratio": params.detuning_ratio,
        "kappa": reduced.kappa,
        "labels": ",".join(SCAN_LABELS),
    }
    return ScanTable(metadata=metadata, grid=grid, reduced=reduced)


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


def _zeroin(a, b, fa, fb, va, vb):
    """Brent's zeroin (Brent 1973, ch. 4) as a coroutine, for one bracket.

    f changes sign over [a, b], with f(a) = ``fa`` and f(b) = ``fb``;
    ``va``, ``vb`` are values that travel with their abscissa.  Yields
    each abscissa it needs and is sent (value, f) there.  It stops once
    its bracket [b, c] is at most ``REFINE_TOL`` * max(1, |b|) wide or
    f(b) = 0 and returns (b, value at b), or returns None where f is not
    finite.
    """
    c, fc, vc = a, fa, va
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):  # b is the end of [b, c] with the smaller |f|
            a, b, c, fa, fb, fc, va, vb, vc = b, c, b, fb, fc, fb, vb, vc, vb
        tol = 0.5 * REFINE_TOL * max(1.0, abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol or fb == 0.0:
            return b, vb
        d_last, e_last = d, e
        d = e = xm  # bisection, unless an interpolation is accepted
        if abs(e_last) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * xm * q - abs(tol * q) and p < abs(0.5 * e_last * q):
                d, e = p / q, d_last
        a, fa, va = b, fb, vb
        b += d if abs(d) > tol else math.copysign(tol, xm)
        vb, fb = yield b
        if not math.isfinite(fb):
            return None
        if fb * math.copysign(1.0, fc) > 0.0:  # the root lies in [a, b]
            c, fc, vc = a, fa, va
            d = e = b - a


def _lockstep(searches, func) -> list:
    """Run coroutine searches side by side, one ``func`` call per step.

    ``func(x, i)`` returns (values, f) at the abscissas ``x`` that the open
    searches ``i`` asked for; each search sees only its own numbers, so it
    ends as it would alone.  Returns each search's return value.
    """
    results = [None] * len(searches)
    asks = {}
    for n, search in enumerate(searches):
        try:
            asks[n] = next(search)
        except StopIteration as stop:
            results[n] = stop.value
    while asks:
        i = np.fromiter(asks, dtype=int, count=len(asks))
        values, f = func(np.fromiter(asks.values(), dtype=float, count=i.size), i)
        for n, value, f_n in zip(i.tolist(), values.tolist(), f.tolist()):
            try:
                asks[n] = searches[n].send((value, f_n))
            except StopIteration as stop:
                results[n] = stop.value
                del asks[n]
    return results


def _bracket_grid(grid: np.ndarray, reduced: ReducedParameters):
    """Indices of the grid points fit to bracket on, with B there.

    One solve of B over the grid; points where some label's field is not
    finite (u overflows or underflows to a defective point) or whose
    ladder is near degenerate are dropped, as ``scan_1d`` drops them.
    """
    with np.errstate(all="ignore"):  # non-finite points are dropped below
        spec = _radial_spectrum(grid, reduced)
        keep = np.isfinite(spec.da_dx).all(axis=0) & ~near_degenerate(spec.energies)
    kept = np.flatnonzero(keep)
    return kept, spec.da_dx[:, kept]


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
    neighbors), one solve of B per distinct drive; grid points with a
    non-finite field or a near-degenerate ladder are skipped.  One solve
    of the closed-form slope dB/dx at every interior extremum's grid point
    and its two neighbors follows, and the slope at the grid point halves
    its bracket.  Brent's zeroin then finds the zero of the slope in every
    bracket, all searches in lockstep with one solve per step, and reports
    B from the solve at the final abscissa.  Without an interior bracket,
    or where the slopes on the bracket are not finite or do not turn the
    right way, a not-found report carries the grid diagnostics instead of
    raising.
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
    grid = _positive_finite(np.geomspace(rmin, rmax, points), "bracket grid point")
    reduced = {drive: reduced_parameters(drive, model) for drive, _, _ in requests}
    brackets = {drive: _bracket_grid(grid, rp) for drive, rp in reduced.items()}
    # per request: grid (r, B), refined in place; note if not found; 3 points if interior
    peaks, notes, near = [], {}, {}
    for n, (drive, label, kind) in enumerate(requests):
        kept, fields = brackets[drive]
        if not kept.size:
            raise ValueError(f"no finite, non-degenerate field on the bracket grid "
                             f"[{rmin}, {rmax}] at detuning ratio {drive.detuning_ratio}")
        values = fields[LABEL_INDEX[label]]
        idx = int(np.argmax(values)) if kind == "max" else int(np.argmin(values))
        peaks.append((float(grid[kept[idx]]), float(values[idx])))
        if 0 < idx < kept.size - 1:
            near[n] = kept[idx - 1 : idx + 2]
        else:
            notes[n] = (f"no interior bracket on [{rmin}, {rmax}] with {points} points; "
                        f"grid extremum at index {kept[idx]}")
            if kept.size < points:
                notes[n] += (f" of the {kept.size} points with a finite field and a "
                             f"non-degenerate ladder")
    inner = list(near)  # each search keeps its own drive's scalar parameters
    w, lam, kappa = (np.array([getattr(reduced[requests[n][0]], name) for n in inner])
                     for name in ("detuning_ratio", "dressing_ratio", "kappa"))
    rows = np.array([LABEL_INDEX[requests[n][1]] for n in inner], dtype=int)
    sgn = np.array([1.0 if requests[n][2] == "max" else -1.0 for n in inner])

    def slope_at(x: np.ndarray, i: np.ndarray):
        part = ReducedParameters(w[i], lam[i], model.sign, model.power, kappa[i])
        spec, slope = _field_slope(x, part)
        cols = np.arange(i.size)
        return spec.da_dx[rows[i], cols], sgn[i] * slope[rows[i], cols]

    x = grid[np.array(list(near.values()), dtype=int).reshape(-1, 3)]
    with np.errstate(all="ignore"):  # a slope that is not finite fails its bracket below
        v, f = (col.reshape(x.shape) for col in slope_at(x.ravel(), np.arange(x.size) // 3))
    searches, searched = [], []
    for m, n in enumerate(inner):
        lo, hi = x[m, 0], x[m, 2]
        if not np.all(np.isfinite(f[m])):
            notes[n] = f"slope of the field not finite on the bracket [{lo}, {hi}]"
        elif not f[m, 0] >= 0.0 >= f[m, 2]:
            notes[n] = f"slope of the field does not change sign over the bracket [{lo}, {hi}]"
        else:
            ends = [0, 1] if f[m, 1] < 0.0 else [1, 2]  # the grid point's own slope halves it
            searches.append(_zeroin(*x[m, ends].tolist(), *f[m, ends].tolist(),
                                    *v[m, ends].tolist()))
            searched.append(m)
    searched = np.array(searched, dtype=int)
    results = _lockstep(searches, lambda at, i: slope_at(at, searched[i]))
    for m, result in zip(searched.tolist(), results):
        if result is None:
            notes[inner[m]] = "slope of the field not finite inside the bracket"
        else:
            peaks[inner[m]] = result
    return [PeakReport(label=label, kind=kind, r_peak_over_rc=r, field_peak=b,
                       detuning_ratio=drive.detuning_ratio, found=n not in notes,
                       note=notes.get(n, ""))
            for n, ((drive, label, kind), (r, b)) in enumerate(zip(requests, peaks))]


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

    The detunings must be finite, share a sign, satisfy |delta/Omega| >= 10
    (the coefficients are leading-order results) and provide at least three
    distinct points: repeated ones leave the log-log slope undefined.  When
    ``kind`` is omitted the dominant extremum (largest |B_phi|) at the first
    detuning selects it.
    """
    ratios = [float(w) for w in detuning_ratios]
    for w in ratios:
        if not math.isfinite(w):
            raise ValueError(f"detuning ratios must be finite, got {w}")
    if len(set(ratios)) < 3:
        raise ValueError("scaling_fit needs at least 3 distinct detuning ratios")
    if np.any(np.sign(ratios) != np.sign(ratios[0])) or ratios[0] == 0.0:
        raise ValueError("detuning ratios must share one sign")
    if min(abs(w) for w in ratios) < 10.0:
        raise ValueError("scaling_fit requires |delta/Omega| >= 10")

    rabi = params.rabi_magnitude_rad_s
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
