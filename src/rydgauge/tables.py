"""Deterministic CSV and JSON serialization of result tables.

Fixed column schemas, 17-significant-digit floats, newline endings, no
timestamps: identical inputs must produce byte-identical files, and the
JSON rows parse back to exactly the CSV values.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .analysis import PeakReport, ScalingFit, ScanTable
from .dynamics import Trajectory
from .gauge import FieldMap
from .model import ModelUnits

SCAN_LABELS = ("1", "+", "-")  # column order of the scan's value blocks
SCAN_HEADER = (
    "r_over_rc,A1,Aplus,Aminus,Bphi1,Bphiplus,Bphiminus,phi1,phiplus,phiminus"
)
SCAN_HEADER_SI = "r_m,A1,Aplus,Aminus,Bphi1,Bphiplus,Bphiminus,phi1,phiplus,phiminus"
TRAJECTORY_HEADER = "t_s,x_m,y_m,z_m,vx,vy,vz,adiabaticity"
MAP_HEADER = "x_over_rc,z_over_rc,Bx,By,Bz"
PEAKS_HEADER = "label,kind,r_peak_over_rc,field_peak,detuning_ratio,found,note"
SCALING_HEADER = "label,kind,exponent,coefficient,position,residual,flags"
_ROW_BLOCK = 4096  # scan rows per conversion: a whole 1e5-row table as floats raises peak memory


def format_float(value: float) -> str:
    return f"{value:.16e}"


def _numbers(values) -> list[str]:
    return [format_float(v) for v in values]


def _csv(header: str, rows) -> str:
    """The header line, then one line per row of formatted fields."""
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def _json(metadata: dict, rows: list) -> str:
    return json.dumps({"metadata": metadata, "rows": rows}, sort_keys=True) + "\n"


def _scan_blocks(table: ScanTable, si: bool, units: ModelUnits | None):
    """The rows as lists of Python floats, in blocks; the table is checked before the first."""
    if si and units is None:
        raise ValueError("SI scan output needs the model units")
    if sorted(table.labels) != sorted(SCAN_LABELS):
        raise ValueError(f"scan serialization expects the labels {SCAN_LABELS} in any order")
    order = [table.labels.index(label) for label in SCAN_LABELS]
    r = table.r_over_rc
    a, b, phi = table.vector_potential, table.azimuthal_field, table.scalar_potential
    if si:
        r = units.to_si(r, "length")
        a = units.to_si(a, "vector_potential")
        b = units.to_si(b, "field")
        phi = units.to_si(phi, "scalar_a")
    columns = [r] + [block[i] for block in (a, b, phi) for i in order]
    return (
        np.column_stack([c[start : start + _ROW_BLOCK] for c in columns]).tolist()
        for start in range(0, r.size, _ROW_BLOCK)
    )


def scan_to_csv(table: ScanTable, si: bool = False, units: ModelUnits | None = None) -> str:
    rows = (row for block in _scan_blocks(table, si, units) for row in block)
    return _csv(SCAN_HEADER_SI if si else SCAN_HEADER, map(_numbers, rows))


def scan_to_json(table: ScanTable, si: bool = False, units: ModelUnits | None = None) -> str:
    blocks = _scan_blocks(table, si, units)
    header = SCAN_HEADER_SI if si else SCAN_HEADER
    metadata = dict(
        table.metadata, columns=header.split(","), excluded_rows=table.excluded_count
    )
    # "rows" is the last key: splice its blocks into the document with the
    # bytes json.dumps gives the whole list
    head = _json(metadata, [])[: -len("]}\n")]
    return head + ", ".join(json.dumps(block)[1:-1] for block in blocks) + "]}\n"


def _trajectory_rows(trajectory: Trajectory):
    for state in trajectory.states:
        yield [state.t_s, *state.position_m, *state.velocity_m_s, state.adiabaticity]


def trajectory_to_csv(trajectory: Trajectory) -> str:
    return _csv(TRAJECTORY_HEADER, map(_numbers, _trajectory_rows(trajectory)))


def trajectory_to_json(trajectory: Trajectory) -> str:
    metadata = {
        "columns": TRAJECTORY_HEADER.split(","),
        "aborted": trajectory.aborted,
        "reason": trajectory.reason,
    }
    return _json(metadata, [[float(v) for v in row] for row in _trajectory_rows(trajectory)])


def peaks_to_csv(reports: list[PeakReport]) -> str:
    rows = []
    for rep in reports:
        values = _numbers([rep.r_peak_over_rc, rep.field_peak, rep.detuning_ratio])
        note = rep.note.replace(",", ";")
        rows.append([rep.label, rep.kind, *values, str(rep.found).lower(), note])
    return _csv(PEAKS_HEADER, rows)


def peaks_to_json(reports: list[PeakReport]) -> str:
    rows = [
        {
            "label": rep.label,
            "kind": rep.kind,
            "r_peak_over_rc": float(rep.r_peak_over_rc),
            "field_peak": float(rep.field_peak),
            "detuning_ratio": float(rep.detuning_ratio),
            "found": rep.found,
            "note": rep.note,
        }
        for rep in reports
    ]
    return _json({"columns": PEAKS_HEADER.split(",")}, rows)


def _map_rows(field_map: FieldMap) -> np.ndarray:
    return np.column_stack([field_map.positions, field_map.field])


def map_to_csv(field_map: FieldMap) -> str:
    return _csv(MAP_HEADER, map(_numbers, _map_rows(field_map)))


def map_to_json(field_map: FieldMap) -> str:
    metadata = {
        "columns": MAP_HEADER.split(","),
        "skipped": [list(point) for point in field_map.skipped],
    }
    return _json(metadata, _map_rows(field_map).tolist())


def scaling_to_csv(fits: list[ScalingFit]) -> str:
    rows = []
    for fit in fits:
        values = _numbers([fit.exponent, fit.coefficient, fit.position, fit.residual])
        rows.append([fit.label, fit.kind, *values, ";".join(fit.flags)])
    return _csv(SCALING_HEADER, rows)


def scaling_to_json(fits: list[ScalingFit]) -> str:
    rows = [
        {
            "label": fit.label,
            "kind": fit.kind,
            "exponent": float(fit.exponent),
            "coefficient": float(fit.coefficient),
            "position": float(fit.position),
            "residual": float(fit.residual),
            "flags": list(fit.flags),
        }
        for fit in fits
    ]
    return _json({"columns": SCALING_HEADER.split(",")}, rows)


def write_text(path: str | None, text: str) -> None:
    """Write to a file with plain newline endings, or to stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
