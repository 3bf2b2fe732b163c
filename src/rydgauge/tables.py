"""Deterministic CSV and JSON serialization of result tables.

Each output is a ``Table`` built by one schema function (scan, trajectory,
map, peaks, scaling) and rendered by ``to_csv`` or ``to_json``: fixed
columns, 17-significant-digit floats, newline endings, no timestamps.
Identical inputs produce byte-identical files, and the JSON rows parse
back to exactly the CSV values.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .analysis import PeakReport, ScalingFit, ScanTable
from .dynamics import Trajectory
from .gauge import FieldMap
from .model import ModelUnits

SCAN_LABELS = ("1", "+", "-")  # column order of the scan's value blocks
SCAN_HEADER = (
    "r_over_rc,A1,Aplus,Aminus,Bphi1,Bphiplus,Bphiminus,phi1,phiplus,phiminus"
)
_ROW_BLOCK = 4096  # scan rows per conversion: a whole 1e5-row table as floats raises peak memory


@dataclass(frozen=True)
class Table:
    """One output table: column names, rows in blocks, JSON-only metadata.

    ``blocks`` returns a fresh iterable of row blocks on every call, so a
    table renders the same bytes however often it is written.  Rows hold
    Python floats; a ``keyed`` table also holds text, bools and tuples of
    flags, and writes its JSON rows as objects keyed by column name.
    """

    columns: tuple
    blocks: Callable[[], Iterable[list]]
    metadata: dict = field(default_factory=dict)
    keyed: bool = False


def format_float(value: float) -> str:
    return f"{value:.16e}"


def _cell(value) -> str:
    """One CSV cell of a keyed table."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ";".join(value)
    if isinstance(value, str):
        return value.replace(",", ";")
    return format_float(value)


def to_csv(table: Table) -> str:
    """The header line, then one line per row."""
    cell = _cell if table.keyed else format_float
    lines = [",".join(table.columns)]
    for block in table.blocks():
        lines.extend([",".join(map(cell, row)) for row in block])
    lines.append("")  # the final newline, without copying the joined text once more
    return "\n".join(lines)


def to_json(table: Table) -> str:
    """``{"metadata": ..., "rows": [...]}`` with the rows spliced in block by block.

    "rows" is the last key, and each block is written with the bytes
    json.dumps gives the whole list.
    """
    metadata = dict(table.metadata, columns=list(table.columns))
    head = json.dumps({"metadata": metadata, "rows": []}, sort_keys=True)[: -len("]}")]
    blocks = table.blocks()
    if table.keyed:
        blocks = ([dict(zip(table.columns, row)) for row in block] for block in blocks)
    # one expression: a named body would stay alive through both concatenations
    return head + ", ".join(json.dumps(block, sort_keys=True)[1:-1] for block in blocks) + "]}\n"


def scan_table(table: ScanTable, units: ModelUnits | None = None) -> Table:
    """The nine value columns in ``SCAN_LABELS`` order; SI exactly when ``units`` is given."""
    if sorted(table.labels) != sorted(SCAN_LABELS):
        raise ValueError(f"scan serialization expects the labels {SCAN_LABELS} in any order")
    order = [table.labels.index(label) for label in SCAN_LABELS]
    r = table.r_over_rc
    a, b, phi = table.vector_potential, table.azimuthal_field, table.scalar_potential
    names = SCAN_HEADER.split(",")
    if units is not None:
        names[0] = "r_m"
        r = units.to_si(r, "length")
        a = units.to_si(a, "vector_potential")
        b = units.to_si(b, "field")
        phi = units.to_si(phi, "scalar_a")
    columns = [r] + [block[i] for block in (a, b, phi) for i in order]

    def blocks():
        for start in range(0, r.size, _ROW_BLOCK):
            yield np.column_stack([c[start : start + _ROW_BLOCK] for c in columns]).tolist()

    metadata = dict(table.metadata, excluded_rows=table.excluded_count)
    return Table(tuple(names), blocks, metadata)


def trajectory_table(trajectory: Trajectory) -> Table:
    rows = [
        [float(v) for v in (s.t_s, *s.position_m, *s.velocity_m_s, s.adiabaticity)]
        for s in trajectory.states
    ]
    return Table(
        ("t_s", "x_m", "y_m", "z_m", "vx", "vy", "vz", "adiabaticity"),
        lambda: [rows],
        {"aborted": trajectory.aborted, "reason": trajectory.reason},
    )


def map_table(field_map: FieldMap) -> Table:
    rows = np.column_stack([field_map.positions, field_map.field]).tolist()
    return Table(
        ("x_over_rc", "z_over_rc", "Bx", "By", "Bz"),
        lambda: [rows],
        {"skipped": [list(point) for point in field_map.skipped]},
    )


def peaks_table(reports: list[PeakReport]) -> Table:
    rows = [
        [rep.label, rep.kind, float(rep.r_peak_over_rc), float(rep.field_peak),
         float(rep.detuning_ratio), rep.found, rep.note]
        for rep in reports
    ]
    columns = ("label", "kind", "r_peak_over_rc", "field_peak", "detuning_ratio", "found", "note")
    return Table(columns, lambda: [rows], keyed=True)


def scaling_table(fits: list[ScalingFit]) -> Table:
    rows = [
        [fit.label, fit.kind, float(fit.exponent), float(fit.coefficient),
         float(fit.position), float(fit.residual), tuple(fit.flags)]
        for fit in fits
    ]
    columns = ("label", "kind", "exponent", "coefficient", "position", "residual", "flags")
    return Table(columns, lambda: [rows], keyed=True)


def write_text(path: str | None, text: str) -> None:
    """Write to a file with plain newline endings, or to stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
