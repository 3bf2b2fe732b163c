"""Tests for the table schemas and their CSV and JSON documents."""

import json

import numpy as np

from rydgauge.analysis import PeakReport, ScalingFit
from rydgauge.dynamics import Trajectory, TrajectoryState
from rydgauge.gauge import FieldMap
from rydgauge.tables import (
    map_table,
    peaks_table,
    scaling_table,
    to_csv,
    to_json,
    trajectory_table,
)


def _csv_values(text):
    lines = text.splitlines()
    return lines[0].split(","), [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def test_documents_of_every_table_kind():
    peaks = peaks_table([
        PeakReport("1", "max", 10.0, -7.5e-05, 0.5, False, "no interior bracket on [0.1, 10.0]"),
        PeakReport("-", "min", 0.975, -0.5, 0.5),
    ])
    assert to_csv(peaks) == (
        "label,kind,r_peak_over_rc,field_peak,detuning_ratio,found,note\n"
        "1,max,1.0000000000000000e+01,-7.4999999999999993e-05,5.0000000000000000e-01,"
        "false,no interior bracket on [0.1; 10.0]\n"
        "-,min,9.7499999999999998e-01,-5.0000000000000000e-01,5.0000000000000000e-01,"
        "true,\n"
    )
    assert to_json(peaks) == (
        '{"metadata": {"columns": ["label", "kind", "r_peak_over_rc", "field_peak", '
        '"detuning_ratio", "found", "note"]}, "rows": ['
        '{"detuning_ratio": 0.5, "field_peak": -7.5e-05, "found": false, "kind": "max", '
        '"label": "1", "note": "no interior bracket on [0.1, 10.0]", "r_peak_over_rc": 10.0}, '
        '{"detuning_ratio": 0.5, "field_peak": -0.5, "found": true, "kind": "min", '
        '"label": "-", "note": "", "r_peak_over_rc": 0.975}]}\n'
    )

    # two flags, to pin the separator
    scaling = scaling_table([
        ScalingFit("1", "min", 1.0, 0.5, 1.25, 0.0025, reports=(), flags=("low_confidence", "edge")),
        ScalingFit("+", "max", -2.0, 3.0, 0.75, 0.0, reports=()),
    ])
    assert to_csv(scaling) == (
        "label,kind,exponent,coefficient,position,residual,flags\n"
        "1,min,1.0000000000000000e+00,5.0000000000000000e-01,1.2500000000000000e+00,"
        "2.5000000000000001e-03,low_confidence;edge\n"
        "+,max,-2.0000000000000000e+00,3.0000000000000000e+00,7.5000000000000000e-01,"
        "0.0000000000000000e+00,\n"
    )
    assert to_json(scaling) == (
        '{"metadata": {"columns": ["label", "kind", "exponent", "coefficient", "position", '
        '"residual", "flags"]}, "rows": ['
        '{"coefficient": 0.5, "exponent": 1.0, "flags": ["low_confidence", "edge"], '
        '"kind": "min", "label": "1", "position": 1.25, "residual": 0.0025}, '
        '{"coefficient": 3.0, "exponent": -2.0, "flags": [], "kind": "max", "label": "+", '
        '"position": 0.75, "residual": 0.0}]}\n'
    )

    # float tables: plain JSON rows that parse back to exactly the CSV values
    field = FieldMap(
        positions=np.array([[-1.0, 0.5], [0.5, 0.1]]),
        field=np.array([[0.0, -2.4555703912, 0.0], [0.0, 1.0 / 3.0, 0.0]]),
        skipped=((0.0, 0.0),),
    )
    states = tuple(
        TrajectoryState(t_s=t, position_m=np.array([1e-6, -t, 3.3e-7]),
                        velocity_m_s=np.array([0.1, 0.2 / 3.0, 0.0]), energy_J=0.0,
                        adiabaticity=1e-3 * t)
        for t in (0.0, 1e-5, 2.5e-5)
    )
    path = Trajectory(states=states, aborted=True, reason="separation below the floor")
    for table, metadata, expected in (
        (map_table(field), {"skipped": [[0.0, 0.0]]},
         np.column_stack([field.positions, field.field]).tolist()),
        (trajectory_table(path), {"aborted": True, "reason": "separation below the floor"},
         [[s.t_s, *s.position_m, *s.velocity_m_s, s.adiabaticity] for s in states]),
    ):
        columns, rows = _csv_values(to_csv(table))
        doc = json.loads(to_json(table))
        assert doc["metadata"] == dict(metadata, columns=columns)
        assert rows == expected
        assert doc["rows"] == expected
