"""Checks of every workload output against the independent reference.

Each check compares a measured discrepancy with a fixed tolerance.  The
tolerances sit well above today's agreement (README.md lists both) and
well below what a wrong result gives; they also leave room for the
method corrections the roadmap plans (closed-form B, an exact end time),
which move results by less than the program's present finite-difference
and end-time errors.  No check compares against a stored copy of
earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from reference import LABEL_ROW, Setup

# tolerance name -> value; units in the comments
TOL = {
    "flyby_z_um": 1e-7,  # final z against DOP853 at the program's final t_s, um
    "flyby_speed_drift": 1e-9,  # max | |v|/v0 - 1 | under the Lorentz-only force
    "peak_extremum": 1e-6,  # B_ref short of its extremum at the peak r, share of max|B_ref|
    "peak_value": 1e-6,  # |B - B_ref| at the peak r, share of max|B_ref| on the grid
    "scaling_exponent": 1e-3,  # |n - n_ref|
    "scaling_coefficient": 2e-3,  # relative
    "scaling_position": 1e-5,  # relative
    "map_zero": 1e-14,  # |Bx|, |Bz|, share of max|By|
    "map_symmetry": 1e-8,  # mirror images of By, share of max|By|
    "map_field": 1e-8,  # By against -(x/r) B_ref(r), share of max|By|
    "scan_a": 1e-12,  # |A - A_ref|, hbar k_L
    "scan_b": 1e-7,  # |B - B_ref|, share of max|B_ref| over the scan range
    "scan_phi": 1e-9,  # |phi - phi_ref| / |phi_ref|
}

SCAN_SAMPLES = 4096  # seeded rows compared per scan file
MAP_SAMPLES = 256  # seeded map points compared with the reference
SCALING_GRID = (0.05, 10.0, 2001)  # the reference's own bracket for scaling peaks
SCAN_COLUMNS = ("1", "+", "-")  # label order of the scan's A, B and phi columns


@dataclass(frozen=True)
class Check:
    name: str
    value: float  # measured discrepancy
    tol: float

    @property
    def ok(self) -> bool:
        return bool(self.value <= self.tol)  # NaN fails


def _check(name: str, value: float, tol_key: str) -> Check:
    return Check(name, float(value), TOL[tol_key])


def _flag(name: str, holds: bool) -> Check:
    return Check(name, 0.0 if holds else 1.0, 0.0)


def read_csv_floats(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a numeric CSV, parsed exactly with float()."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in handle]
    return header, np.array(rows, dtype=float).reshape(-1, len(header))


def check_trajectory(path: Path, stdout: str, p: dict) -> list[Check]:
    _, rows = read_csv_floats(path)
    t_final, z_final = rows[-1, 0], rows[-1, 3]
    setup = Setup(p["preset"])
    max_time_s = 2.0 * p["approach_rc"] * setup.r_c_m / p["speed"]
    pos, _, _ = reference.flyby(p["preset"], p["speed"], p["impact_rc"], p["label"],
                                t_final, p["approach_rc"])
    speed = np.linalg.norm(rows[:, 4:7], axis=1)
    printed = f"z-deflection: {z_final * 1e6:.6f} um"
    return [
        _check("flyby final z vs DOP853 (um)", abs(z_final - pos[2]) * 1e6, "flyby_z_um"),
        _check("flyby speed drift", np.max(np.abs(speed / p["speed"] - 1.0)),
               "flyby_speed_drift"),
        Check("flyby |t_final - max_time_s| (s)", abs(t_final - max_time_s),
              p["time_step_s"]),
        _flag("flyby printed deflection matches the table", stdout.strip() == printed),
    ]


def _grid_peak(values: np.ndarray, kind: str) -> int:
    return int(np.argmax(values)) if kind == "max" else int(np.argmin(values))


def check_peaks(path: Path, p: dict) -> list[Check]:
    """Each row's r is an extremiser of the reference B_phi and B matches it.

    Extremality is judged by value: the reference field at the reported r
    may fall short of the reference's own extremum on the bracket grid
    (golden-refined when interior) by at most ``peak_extremum`` of
    max|B_ref|.  A row reported not found must sit on the grid edge where
    the reference's grid extremum lies.
    """
    setup = Setup(p["preset"], p["detuning"])
    grid = np.geomspace(p["rmin"], p["rmax"], p["points"])
    b_grid = reference.profiles(setup, grid)[1]
    tag = f"peaks {p['preset']} w={p['detuning']:g}"
    with open(path, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    out = [_flag(f"{tag}: one max and one min per label",
                 sorted((r["label"], r["kind"]) for r in rows)
                 == sorted((lab, k) for lab in LABEL_ROW for k in ("max", "min")))]
    for row in rows:
        label, kind = row["label"], row["kind"]
        sgn = 1.0 if kind == "max" else -1.0
        values = b_grid[LABEL_ROW[label]]
        scale = float(np.max(np.abs(values)))
        idx = _grid_peak(values, kind)
        if 0 < idx < len(grid) - 1:
            _, b_best = reference.extremum(setup, label, kind, grid[idx - 1], grid[idx + 1])
        else:
            b_best = values[idx]
        r, b = float(row["r_peak_over_rc"]), float(row["field_peak"])
        b_at_r = float(reference.field(setup, r, label))
        name = f"{tag} {label} {kind}"
        if row["found"] != "true":
            out.append(_flag(f"{name}: not found, and the reference extremum is at that "
                             "grid edge", idx in (0, len(grid) - 1) and r == grid[idx]))
        out.append(_check(f"{name}: extremum shortfall", sgn * (b_best - b_at_r) / scale,
                          "peak_extremum"))
        out.append(_check(f"{name}: value", abs(b - b_at_r) / scale, "peak_value"))
    return out


def reference_scaling(preset: str, label: str, kind: str, ratios) -> tuple:
    """Exponent, coefficient and mean position of the reference's own peaks."""
    grid = np.geomspace(*SCALING_GRID)
    peaks = []
    for w in ratios:
        setup = Setup(preset, w)
        values = reference.field(setup, grid, label)
        idx = _grid_peak(values, kind)
        if not 0 < idx < len(grid) - 1:
            raise ValueError(f"reference {kind} of {label} at w={w} not interior")
        peaks.append(reference.extremum(setup, label, kind, grid[idx - 1], grid[idx + 1]))
    log_w = np.log(np.abs(ratios))
    log_b = np.log([abs(b) for _, b in peaks])
    slope, intercept = np.polyfit(log_w, log_b, 1)
    return slope, math.exp(intercept), float(np.mean([r for r, _ in peaks]))


def dominant_kind(preset: str, label: str, w: float) -> str:
    values = reference.field(Setup(preset, w), np.geomspace(*SCALING_GRID), label)
    return "max" if abs(values.max()) >= abs(values.min()) else "min"


def check_scaling(path: Path, p: dict) -> list[Check]:
    with open(path, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    tag = f"scaling {p['preset']} {p['label']}"
    out = [_flag(f"{tag}: one row for the label",
                 len(rows) == 1 and rows[0]["label"] == p["label"])]
    for row in rows[:1]:
        kind = row["kind"]
        out.append(_flag(f"{tag}: dominant extremum kind",
                         kind == dominant_kind(p["preset"], p["label"], p["ratios"][0])))
        n_ref, c_ref, pos_ref = reference_scaling(p["preset"], p["label"], kind, p["ratios"])
        out += [
            _check(f"{tag}: exponent", abs(float(row["exponent"]) - n_ref),
                   "scaling_exponent"),
            _check(f"{tag}: coefficient", abs(float(row["coefficient"]) / c_ref - 1.0),
                   "scaling_coefficient"),
            _check(f"{tag}: position", abs(float(row["position"]) / pos_ref - 1.0),
                   "scaling_position"),
        ]
    return out


def check_map(path: Path, p: dict, rng: np.random.Generator) -> list[Check]:
    _, rows = read_csv_floats(path)
    n = p["points"]
    axis = np.linspace(-p["half_extent"], p["half_extent"], n)
    expected = [(x, z) for x in axis for z in axis if math.hypot(x, z) != 0.0]
    positions_ok = rows.shape[0] == len(expected) and np.array_equal(rows[:, :2], expected)
    out = [_flag("map: grid positions", positions_ok)]
    if not positions_ok:
        return out
    by = rows[:, 3]
    scale = float(np.max(np.abs(by)))
    out.append(_check("map: |Bx|, |Bz| / max|By|",
                      max(np.max(np.abs(rows[:, 2])), np.max(np.abs(rows[:, 4]))) / scale,
                      "map_zero"))
    grid = np.full((n, n), np.nan)
    index = {v: i for i, v in enumerate(axis)}
    for (x, z), value in zip(rows[:, :2], by):
        grid[index[x], index[z]] = value
    anti = np.nanmax(np.abs(grid + grid[::-1, :]))
    mirror = np.nanmax(np.abs(grid - grid[:, ::-1]))
    out.append(_check("map: By(-x,z) = -By(x,z)", anti / scale, "map_symmetry"))
    out.append(_check("map: By(x,-z) = By(x,z)", mirror / scale, "map_symmetry"))
    setup = Setup(p["preset"], p["detuning"])
    pick = rng.choice(rows.shape[0], size=min(MAP_SAMPLES, rows.shape[0]), replace=False)
    x, z = rows[pick, 0], rows[pick, 1]
    r = np.hypot(x, z)
    by_ref = -(x / r) * reference.field(setup, r, p["label"])
    out.append(_check("map: By vs -(x/r) B_ref(r)", np.max(np.abs(by[pick] - by_ref)) / scale,
                      "map_field"))
    return out


def read_scan(path: Path, fmt: str) -> tuple[np.ndarray, int | None]:
    """Rows of a scan output and, for JSON, its excluded-row count."""
    if fmt == "json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        rows = np.array(doc["rows"], dtype=float).reshape(-1, len(doc["metadata"]["columns"]))
        return rows, int(doc["metadata"]["excluded_rows"])
    return read_csv_floats(path)[1], None


def check_scan(rows: np.ndarray, excluded: int | None, p: dict,
               rng: np.random.Generator) -> list[Check]:
    tag = f"scan {p['preset']} {p['format']}"
    grid = np.geomspace(p["rmin"], p["rmax"], p["points"])
    r = rows[:, 0]
    on_grid = bool(np.all(np.isin(r, grid))) and bool(np.all(np.diff(r) > 0))
    out = [_flag(f"{tag}: rows lie on the requested grid, ascending", on_grid)]
    if excluded is not None:
        out.append(_flag(f"{tag}: rows + excluded_rows = grid size",
                         rows.shape[0] + excluded == p["points"]))
    setup = Setup(p["preset"], p["detuning"])
    _, b_wide, _ = reference.profiles(setup, np.geomspace(p["rmin"], p["rmax"], 2001))
    pick = np.sort(rng.choice(rows.shape[0], size=min(SCAN_SAMPLES, rows.shape[0]),
                              replace=False))
    a_ref, b_ref, phi_ref = reference.profiles(setup, r[pick])
    worst = {"a": 0.0, "b": 0.0, "phi": 0.0}
    for col, label in enumerate(SCAN_COLUMNS):
        k = LABEL_ROW[label]
        a, b, phi = rows[pick, 1 + col], rows[pick, 4 + col], rows[pick, 7 + col]
        worst["a"] = max(worst["a"], np.max(np.abs(a - a_ref[k])))
        worst["b"] = max(worst["b"], np.max(np.abs(b - b_ref[k])) / np.max(np.abs(b_wide[k])))
        worst["phi"] = max(worst["phi"], np.max(np.abs(phi - phi_ref[k]) / np.abs(phi_ref[k])))
    out += [
        _check(f"{tag}: A vs reference", worst["a"], "scan_a"),
        _check(f"{tag}: B_phi vs reference", worst["b"], "scan_b"),
        _check(f"{tag}: phi vs reference", worst["phi"], "scan_phi"),
    ]
    return out


def check_validate(stdout: str, code: int, p: dict) -> list[Check]:
    lines = stdout.strip().splitlines()
    passes = [line for line in lines[:-1] if line.startswith("PASS ")]
    n = p["checks"]
    return [
        _flag("validate exit status 0", code == 0),
        _flag(f"validate reports {n} PASS lines", len(passes) == n == len(lines) - 1),
        _flag("validate summary line",
              bool(lines) and lines[-1] == f"oracles: {n} passed, 0 failed"),
    ]


def check_workload(commands, out_dir: Path, codes: list[int], seed: int) -> list[Check]:
    """All checks of one round's outputs; ``commands`` from workloads.commands."""
    rng = np.random.default_rng(seed)
    out = []
    scans = {}
    for cmd, code in zip(commands, codes):
        stdout = (out_dir / f"{cmd.name}.stdout").read_text(encoding="utf-8")
        path = out_dir / cmd.output if cmd.output else None
        if cmd.kind == "validate":
            out += check_validate(stdout, code, cmd.params)
            continue
        if code != 0:
            continue  # counted as failed, not checked
        if cmd.kind == "trajectory":
            out += check_trajectory(path, stdout, cmd.params)
        elif cmd.kind == "peaks":
            out += check_peaks(path, cmd.params)
        elif cmd.kind == "scaling":
            out += check_scaling(path, cmd.params)
        elif cmd.kind == "map":
            out += check_map(path, cmd.params, rng)
        elif cmd.kind == "scan":
            rows, excluded = read_scan(path, cmd.params["format"])
            scans.setdefault(cmd.params["preset"], {})[cmd.params["format"]] = rows
            out += check_scan(rows, excluded, cmd.params, rng)
    for preset, pair in scans.items():
        if len(pair) == 2:
            out.append(_flag(f"scan {preset}: JSON rows equal the CSV values exactly",
                             np.array_equal(pair["csv"], pair["json"])))
    return out
