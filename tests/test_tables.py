"""Tests for the table schemas and their CSV and JSON documents."""

import json

import numpy as np
import pytest

from rydgauge import analysis, tables
from rydgauge.analysis import PeakReport, ScalingFit, scan_1d
from rydgauge.cli import main
from rydgauge.config import RunConfig, build_experiment
from rydgauge.dynamics import Trajectory
from rydgauge.gauge import FieldMap
from rydgauge.model import ModelUnits
from rydgauge.tables import (
    map_table,
    peaks_table,
    render,
    scan_table,
    scaling_table,
    to_csv,
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
    assert "".join(render(peaks, "json")) == (
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
    assert "".join(render(scaling, "json")) == (
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
    t = np.array([0.0, 1e-5, 2.5e-5])
    path = Trajectory(
        t_s=t,
        position_m=np.column_stack([np.full(3, 1e-6), -t, np.full(3, 3.3e-7)]),
        velocity_m_s=np.tile([0.1, 0.2 / 3.0, 0.0], (3, 1)),
        adiabaticity=1e-3 * t,
        aborted=True,
        reason="separation below the floor",
    )
    for table, metadata, expected in (
        (map_table(field), {"skipped": [[0.0, 0.0]]},
         np.column_stack([field.positions, field.field]).tolist()),
        (trajectory_table(path), {"aborted": True, "reason": "separation below the floor"},
         np.column_stack([t, path.position_m, path.velocity_m_s, 1e-3 * t]).tolist()),
    ):
        columns, rows = _csv_values(to_csv(table))
        doc = json.loads("".join(render(table, "json")))
        assert doc["metadata"] == dict(metadata, columns=columns)
        assert rows == expected
        assert doc["rows"] == expected


MAP = ["map", "--preset", "gaetan2009", "--detuning-ratio", "-1", "--map-points"]
MAP_HEAD = '{"metadata": {"columns": ["x_over_rc", "z_over_rc", "Bx", "By", "Bz"], "skipped": []}, '
SCAN_CSV = "r_over_rc,A1,Aplus,Aminus,Bphi1,Bphiplus,Bphiminus,phi1,phiplus,phiminus\n"
SCAN_COLUMNS = '"columns": ' + json.dumps(SCAN_CSV.strip().split(","))
SCAN_HEAD = ('{"metadata": {"coefficient_rad_s_m_p": -2.0106192982974674e-08, ' + SCAN_COLUMNS
             + ', "detuning_ratio": -1.0, "excluded_rows": 0, "interaction": "rdd", '
             '"kappa": 149.32368489819723, "labels": "1,+,-", "rabi_rad_s": 40840704.49666731}, ')
TRAJECTORY_HEAD = '"columns": ["t_s", "x_m", "y_m", "z_m", "vx", "vy", "vz", "adiabaticity"]'
TRAJECTORY_CSV = "t_s,x_m,y_m,z_m,vx,vy,vz,adiabaticity\n"

# Whole documents of small numeric tables, each value in the builtins' text:
# empty, one-row and 2 x 2 tables, zeros of both signs, integral values, and a
# short and an aborted flyby.
# The adiabaticity cells are the closed-form monitor's, with the Hellmann-Feynman radial
# coupling; each is within 1e-15 relative of a 60-digit evaluation of the same monitor.
PINNED = [
    (MAP + ["0"], "x_over_rc,z_over_rc,Bx,By,Bz\n", MAP_HEAD + '"rows": []}\n'),
    (MAP + ["2"],
     "x_over_rc,z_over_rc,Bx,By,Bz\n"
     "-3.0000000000000000e+00,-3.0000000000000000e+00,"
     "-0.0000000000000000e+00,-1.4235247178996705e-03,0.0000000000000000e+00\n"
     "-3.0000000000000000e+00,3.0000000000000000e+00,"
     "-0.0000000000000000e+00,-1.4235247178996705e-03,0.0000000000000000e+00\n"
     "3.0000000000000000e+00,-3.0000000000000000e+00,"
     "-0.0000000000000000e+00,1.4235247178996705e-03,-0.0000000000000000e+00\n"
     "3.0000000000000000e+00,3.0000000000000000e+00,"
     "-0.0000000000000000e+00,1.4235247178996705e-03,-0.0000000000000000e+00\n",
     MAP_HEAD + '"rows": [[-3.0, -3.0, -0.0, -0.0014235247178996705, 0.0], '
     '[-3.0, 3.0, -0.0, -0.0014235247178996705, 0.0], '
     '[3.0, -3.0, -0.0, 0.0014235247178996705, -0.0], '
     '[3.0, 3.0, -0.0, 0.0014235247178996705, -0.0]]}\n'),
    (["scan", "--preset", "gaetan2009", "--detuning-ratio", "-1", "--rmin", "0.5", "--points", "1"],
     SCAN_CSV
     + "5.0000000000000000e-01,-4.0080366896690872e-01,-9.9763190006015523e-01,"
     "-1.0156443097293595e-01,-5.3256414871623241e-02,3.1455117360467424e-02,"
     "2.1801297511155813e-02,2.4016651761627125e-01,2.3718006304226376e-03,"
     "9.1252554759983964e-02\n",
     SCAN_HEAD + '"rows": [[0.5, -0.4008036689669087, -0.9976319000601552, '
     '-0.10156443097293595, -0.05325641487162324, 0.031455117360467424, 0.021801297511155813, '
     '0.24016651761627125, 0.0023718006304226376, 0.09125255475998396]]}\n'),
    (["trajectory", "--speed", "10"],
     TRAJECTORY_CSV
     + "0.0000000000000000e+00,-4.7376552809965747e-05,7.8960921349942906e-06,"
     "0.0000000000000000e+00,1.0000000000000000e+01,0.0000000000000000e+00,"
     "0.0000000000000000e+00,2.3816784517516722e-05\n"
     "9.4753105619931498e-06,4.7376551806135644e-05,7.8961202472588583e-06,"
     "6.9214463627491722e-09,9.9999999999982361e+00,5.9337925831912564e-06,"
     "2.5972696636921660e-09,2.3816776102319008e-05\n",
     '{"metadata": {"aborted": false, ' + TRAJECTORY_HEAD + ', "reason": ""}, "rows": ['
     "[0.0, -4.737655280996575e-05, 7.89609213499429e-06, 0.0, 10.0, 0.0, 0.0, "
     "2.3816784517516722e-05], [9.47531056199315e-06, 4.7376551806135644e-05, "
     "7.896120247258858e-06, 6.921446362749172e-09, 9.999999999998236, 5.933792583191256e-06, "
     "2.597269663692166e-09, 2.3816776102319008e-05]]}\n"),
    (["trajectory", "--speed", "10", "--impact-parameter-rc", "0"],
     TRAJECTORY_CSV
     + "0.0000000000000000e+00,-4.7376552809965747e-05,0.0000000000000000e+00,"
     "0.0000000000000000e+00,1.0000000000000000e+01,0.0000000000000000e+00,"
     "0.0000000000000000e+00,2.5510665636262077e-05\n",
     '{"metadata": {"aborted": true, ' + TRAJECTORY_HEAD
     + ', "reason": "step passes 0.0009 r_c from the partner, below validity floor 0.01 r_c"}, '
     '"rows": ['
     "[0.0, -4.737655280996575e-05, 0.0, 0.0, 10.0, 0.0, 0.0, 2.5510665636262077e-05]]}\n"),
]


@pytest.mark.parametrize("argv, csv_text, json_text", PINNED,
                         ids=["map0", "map2", "scan1", "flyby", "flyby_aborted"])
def test_small_numeric_tables_keep_their_bytes(argv, csv_text, json_text, capsys):
    for fmt, expected in (("csv", csv_text), ("json", json_text)):
        main(argv + ["--format", fmt])
        assert capsys.readouterr().out == expected


def test_empty_scan_keeps_its_bytes(solves):
    """The empty grid, which the CLI's --points refuses, in model units and SI: no solve."""
    drive, model = build_experiment(RunConfig(preset="gaetan2009", detuning_ratio=-1.0))
    scan = scan_1d(drive, model, r_grid=())
    for table, r in ((scan_table(scan), "r_over_rc"),
                     (scan_table(scan, ModelUnits.from_experiment(drive, model)), "r_m")):
        assert to_csv(table) == SCAN_CSV.replace("r_over_rc", r)
        assert "".join(render(table, "json")) == (
            SCAN_HEAD.replace("r_over_rc", r) + '"rows": []}\n')
    assert solves == []


# one small command per table kind
STREAMED = {
    "scan": ["scan", "--preset", "gaetan2009", "--detuning-ratio", "-1", "--rmin", "0.05",
             "--points", "9"],
    "map": MAP + ["3"],
    "peaks": ["peaks", "--preset", "gaetan2009", "--labels", "1,-"],
    "scaling": ["scaling", "--preset", "gaetan2009", "--labels", "1",
                "--detuning-ratios=-10,-20,-40"],
    "trajectory": ["trajectory", "--speed", "10"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", sorted(STREAMED))
def test_streamed_documents_are_the_joined_text(kind, fmt, tmp_path, monkeypatch, capsys):
    """The CLI writes a table piece by piece, to a file or stdout, with the bytes of
    the whole document render gives; every byte goes through tables.write_text,
    which counts them."""
    monkeypatch.setattr(analysis, "_BLOCK", 4)  # several row blocks per numeric table
    rendered, pieces = [], []
    write_text = tables.write_text

    def recording_render(table, fmt):
        rendered.append(table)
        return render(table, fmt)

    def recording_write(out, text):
        pieces.append(text)
        write_text(out, text)

    monkeypatch.setattr(tables, "render", recording_render)
    monkeypatch.setattr(tables, "write_text", recording_write)
    argv = STREAMED[kind] + ["--format", fmt]
    path = tmp_path / f"{kind}.{fmt}"
    assert main(argv + ["--output", str(path)]) == 0
    in_file = path.read_bytes()
    assert sum(len(text.encode("utf-8")) for text in pieces) == len(in_file)
    capsys.readouterr()
    pieces.clear()
    assert main(argv) == 0
    on_stdout = capsys.readouterr().out
    expected = "".join(render(rendered[0], fmt))
    assert in_file.decode("utf-8") == on_stdout == "".join(pieces) == expected
    if kind == "scan":
        assert len(pieces) == 4 + (fmt == "json")  # head, three row blocks, JSON tail
