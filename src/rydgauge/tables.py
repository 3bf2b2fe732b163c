"""Deterministic CSV and JSON serialization of result tables.

Each output is a ``Table`` built by one schema function (scan, trajectory,
map, peaks, scaling) and rendered piece by piece by ``render``, whose
pieces ``to_csv`` and ``to_json`` join: fixed columns, newline endings, no
timestamps.  CSV floats carry 17 significant digits; JSON numbers are the
shortest text that reads back to the same double.  Identical inputs
produce byte-identical files, and the JSON rows parse back to exactly the
CSV values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _floattext
from .analysis import _BLOCK, PeakReport, ScalingFit, ScanTable
from .dynamics import Trajectory
from .gauge import FieldMap
from .model import ModelUnits

SCAN_HEADER = (
    "r_over_rc,A1,Aplus,Aminus,Bphi1,Bphiplus,Bphiminus,phi1,phiplus,phiminus"
)


@dataclass(frozen=True)
class Table:
    """One output table: column names, its values, JSON-only metadata.

    A numeric table holds one float64 array per column in ``values``;
    ``_floattext`` writes its text ``analysis._BLOCK`` rows at a time.  A keyed
    table holds ``rows`` that also carry text, bools and tuples of flags,
    and writes its JSON rows as objects keyed by column name.
    """

    columns: tuple
    values: tuple = ()
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def keyed(self) -> bool:
        return not self.values


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


def render(table: Table, fmt: str):
    """The table's CSV (or, for ``fmt`` "json", JSON) text, piece by piece.

    A numeric table yields its head, the text ``_floattext`` gives for each
    ``analysis._BLOCK`` rows, then its tail, so the whole document is never
    held at once and a block's temporaries stay near L2 size.  The JSON
    document is ``{"metadata": ..., "rows": [...]}`` with "rows" the last
    key, spliced in as text.
    """
    as_json = fmt == "json"
    if as_json:
        metadata = dict(table.metadata, columns=list(table.columns))
        yield json.dumps({"metadata": metadata, "rows": []}, sort_keys=True)[: -len("]}")]
    else:
        yield ",".join(table.columns) + "\n"
    if table.keyed and as_json:
        yield json.dumps([dict(zip(table.columns, row)) for row in table.rows], sort_keys=True)[1:-1]
    elif table.keyed:
        yield "".join([",".join(map(_cell, row)) + "\n" for row in table.rows])
    else:
        rows_text = _floattext.json_rows if as_json else _floattext.csv_rows
        for start in range(0, table.values[0].size, _BLOCK):
            block = np.column_stack([c[start : start + _BLOCK] for c in table.values])
            yield ", " * (as_json and start > 0) + rows_text(block).decode("ascii")
    if as_json:
        yield "]}\n"


def to_csv(table: Table) -> str:
    """The header line, then one line per row."""
    return "".join(render(table, "csv"))


def to_json(table: Table) -> str:
    """``{"metadata": ..., "rows": [...]}``, metadata keys sorted."""
    return "".join(render(table, "json"))


def scan_table(table: ScanTable, units: ModelUnits | None = None) -> Table:
    """The nine value columns, each block in ``analysis.SCAN_LABELS`` order; SI
    exactly when ``units`` is given."""
    r = table.r_over_rc
    a, b, phi = table.vector_potential, table.azimuthal_field, table.scalar_potential
    names = SCAN_HEADER.split(",")
    if units is not None:
        names[0] = "r_m"
        r = units.to_si(r, "length")
        a = units.to_si(a, "vector_potential")
        b = units.to_si(b, "field")
        phi = units.to_si(phi, "scalar_a")
    columns = [r, *a, *b, *phi]
    metadata = dict(table.metadata, excluded_rows=table.excluded_count)
    return Table(tuple(names), tuple(columns), metadata=metadata)


def trajectory_table(trajectory: Trajectory) -> Table:
    return Table(
        ("t_s", "x_m", "y_m", "z_m", "vx", "vy", "vz", "adiabaticity"),
        (trajectory.t_s, *trajectory.position_m.T, *trajectory.velocity_m_s.T,
         trajectory.adiabaticity),
        metadata={"aborted": trajectory.aborted, "reason": trajectory.reason},
    )


def map_table(field_map: FieldMap) -> Table:
    return Table(
        ("x_over_rc", "z_over_rc", "Bx", "By", "Bz"),
        (*field_map.positions.T, *field_map.field.T),
        metadata={"skipped": [list(point) for point in field_map.skipped]},
    )


def peaks_table(reports: list[PeakReport]) -> Table:
    rows = [
        [rep.label, rep.kind, float(rep.r_peak_over_rc), float(rep.field_peak),
         float(rep.detuning_ratio), rep.found, rep.note]
        for rep in reports
    ]
    columns = ("label", "kind", "r_peak_over_rc", "field_peak", "detuning_ratio", "found", "note")
    return Table(columns, rows=rows)


def scaling_table(fits: list[ScalingFit]) -> Table:
    rows = [
        [fit.label, fit.kind, float(fit.exponent), float(fit.coefficient),
         float(fit.position), float(fit.residual), tuple(fit.flags)]
        for fit in fits
    ]
    columns = ("label", "kind", "exponent", "coefficient", "position", "residual", "flags")
    return Table(columns, rows=rows)


def write_text(out, text: str) -> None:
    """Write one piece of a document to an open text stream, a file or stdout.

    Every byte of table output passes here, one ``render`` piece at a time.
    """
    out.write(text)
