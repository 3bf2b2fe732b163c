"""Deterministic CSV and JSON serialization of result tables.

Each output is a ``Table`` built by one schema function (scan, trajectory,
map, peaks, scaling) and rendered piece by piece by ``render``: fixed
columns, newline endings, no timestamps.  CSV floats carry 17 significant
digits; JSON numbers are the shortest text that reads back to the same
double.  Identical inputs produce byte-identical files, and the JSON rows
parse back to exactly the CSV values.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields

import numpy as np

from . import _floattext, analysis
from .analysis import PeakReport, ScalingFit, ScanTable
from .dynamics import Trajectory
from .gauge import FieldMap
from .model import ModelUnits

SCAN_HEADER = (
    "r_over_rc,A1,Aplus,Aminus,Bphi1,Bphiplus,Bphiminus,phi1,phiplus,phiminus"
)


@dataclass(frozen=True)
class Table:
    """One output table: column names, its rows, JSON-only metadata.

    A numeric table's ``blocks`` is called once per document and gives its
    rows as (rows, columns) float64 blocks, which ``_floattext`` writes one
    at a time; a keyed table (no ``blocks``) holds ``rows`` that also carry
    text, bools and tuples of flags, and writes its JSON rows as objects
    keyed by column name.  ``metadata`` is called only for a JSON head, so
    what it costs (a scan's count of excluded points, which solves only
    the points the cubic's coefficients cannot clear) CSV never pays.
    """

    columns: tuple
    blocks: Callable[[], Iterable[np.ndarray]] | None = None
    rows: list = field(default_factory=list)
    metadata: Callable[[], dict] = dict

    @property
    def keyed(self) -> bool:
        return self.blocks is None


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

    The pieces are the head, the text ``_floattext`` gives for each
    non-empty block of rows, then the tail, so the whole document is never
    held at once.  The head waits for the first block: a scan whose first
    block fails to solve or check yields nothing, and one whose later block
    fails stops after the complete rows of the blocks before it.  Only JSON
    calls ``metadata``, before the first block.  The JSON document is
    ``{"metadata": ..., "rows": [...]}`` with "rows" the last key, spliced
    in as text.
    """
    as_json = fmt == "json"
    if as_json:
        metadata = dict(table.metadata(), columns=list(table.columns))
        head = json.dumps({"metadata": metadata, "rows": []}, sort_keys=True)[: -len("]}")]
    else:
        head = ",".join(table.columns) + "\n"
    blocks = iter(() if table.keyed else table.blocks())
    first = list(itertools.islice(blocks, 1))
    yield head
    if table.keyed and as_json:
        yield json.dumps([dict(zip(table.columns, row)) for row in table.rows], sort_keys=True)[1:-1]
    elif table.keyed:
        yield "".join([",".join(map(_cell, row)) + "\n" for row in table.rows])
    rows_text = _floattext.json_rows if as_json else _floattext.csv_rows
    separator = ""
    for block in itertools.chain(first, blocks):
        if len(block):
            yield separator + rows_text(block).decode("ascii")
            separator = ", " if as_json else ""
    if as_json:
        yield "]}\n"


def _column_blocks(values: tuple):
    """Blocks of ``analysis._BLOCK`` rows sliced from equal-length columns."""
    for start in range(0, values[0].size, analysis._BLOCK):
        yield np.column_stack([c[start : start + analysis._BLOCK] for c in values])


def to_csv(table: Table) -> str:
    """The header line, then one line per row."""
    return "".join(render(table, "csv"))


def scan_table(scan: ScanTable, units: ModelUnits | None = None) -> Table:
    """The nine value columns, each group in ``analysis.SCAN_LABELS`` order, a
    block of the scan at a time; SI exactly when ``units`` is given."""
    names = SCAN_HEADER.split(",")
    blocks = scan.blocks
    if units is not None:
        names[0] = "r_m"
        scale = np.repeat([units.length_m, units.vector_potential_kg_m_s, units.field_T,
                           units.scalar_a_J], [1, 3, 3, 3])

        def blocks():
            for block in scan.blocks():
                block *= scale  # each column times its unit, in place
                yield block

    def metadata():
        return dict(scan.metadata, excluded_rows=scan.count_excluded())

    return Table(tuple(names), blocks, metadata=metadata)


def trajectory_table(trajectory: Trajectory) -> Table:
    values = (trajectory.t_s, *trajectory.position_m.T, *trajectory.velocity_m_s.T,
              trajectory.adiabaticity)
    return Table(
        ("t_s", "x_m", "y_m", "z_m", "vx", "vy", "vz", "adiabaticity"),
        functools.partial(_column_blocks, values),
        metadata=functools.partial(dict, aborted=trajectory.aborted, reason=trajectory.reason),
    )


def map_table(field_map: FieldMap) -> Table:
    return Table(
        ("x_over_rc", "z_over_rc", "Bx", "By", "Bz"),
        functools.partial(_column_blocks, (*field_map.positions.T, *field_map.field.T)),
        metadata=functools.partial(dict, skipped=[list(point) for point in field_map.skipped]),
    )


def _record_table(cls, records: list, skip: tuple = ()) -> Table:
    """A keyed table of ``cls`` records: one column per field of the
    dataclass, in declaration order, less the fields named in ``skip``."""
    columns = tuple(f.name for f in fields(cls) if f.name not in skip)
    return Table(columns, rows=[[getattr(rec, name) for name in columns] for rec in records])


def peaks_table(reports: list[PeakReport]) -> Table:
    return _record_table(PeakReport, reports)


def scaling_table(fits: list[ScalingFit]) -> Table:
    return _record_table(ScalingFit, fits, skip=("reports",))


def write_text(out, text: str) -> None:
    """Write one piece of a document to an open text stream, a file or stdout.

    Every byte of table output passes here, one ``render`` piece at a time.
    """
    out.write(text)
