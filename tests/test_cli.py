"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import rydgauge
from rydgauge import analysis, dynamics
from rydgauge.cli import build_parser, main
from rydgauge.config import RunConfig, build_experiment, parse_config, read_config_file
from rydgauge.model import ModelUnits
from rydgauge.tables import SCAN_HEADER

SCAN_ARGS = [
    "scan",
    "--preset", "gaetan2009",
    "--detuning-ratio", "0",
    "--rmin", "0.5",
    "--rmax", "2",
    "--points", "7",
]


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["scan", "--no-such-flag"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_scan_header_and_byte_stability(capsys):
    assert main(SCAN_ARGS) == 0
    first = capsys.readouterr().out
    assert first.splitlines()[0] == SCAN_HEADER
    assert (
        SCAN_HEADER
        == "r_over_rc,A1,Aplus,Aminus,Bphi1,Bphiplus,Bphiminus,phi1,phiplus,phiminus"
    )
    assert len(first.splitlines()) == 1 + 7
    assert main(SCAN_ARGS) == 0
    second = capsys.readouterr().out
    assert first == second


def test_scan_csv_and_json_carry_identical_values(capsys):
    assert main(SCAN_ARGS) == 0
    csv_text = capsys.readouterr().out
    assert main(SCAN_ARGS + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["columns"] == SCAN_HEADER.split(",")
    csv_rows = [
        [float(cell) for cell in line.split(",")]
        for line in csv_text.splitlines()[1:]
    ]
    assert len(doc["rows"]) == len(csv_rows)
    for parsed, row in zip(csv_rows, doc["rows"]):
        assert parsed == pytest.approx(row, rel=0.0, abs=0.0)


def _scan_peak_bytes(points, fmt, out_dir):
    argv = ["scan", "--preset", "beguin2013", "--detuning-ratio", "0", "--rmin", "0.01",
            "--rmax", "20", "--points", str(points), "--format", fmt,
            "--output", str(out_dir / f"scan.{fmt}")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bulk_scan_memory_stays_a_block_plus_the_grid(fmt, tmp_path):
    """A scan holds its 8-byte-per-point grid, one solve block and one block of text:
    a 1e5-point scan peaks near 2.5 MiB, and 9e4 more points add little beyond their
    0.7 MiB of grid.  A whole table of values (8 MB) or the whole document would not fit."""
    big = _scan_peak_bytes(100_000, fmt, tmp_path)
    small = _scan_peak_bytes(10_000, fmt, tmp_path)
    assert big <= 4 * 2**20
    assert big - small < 2**20


def test_scan_with_more_points_than_memory_is_a_usage_error(capsys):
    # 8e15 bytes of grid: the allocation fails at once, before anything is solved
    assert main(["scan", "--preset", "gaetan2009", "--points", str(10**15)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Unable to allocate")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_a_reader_that_leaves_early_ends_the_scan_quietly():
    """``rydgauge scan ... | head -1``: once the reader closes the pipe the scan stops,
    exits 141 (128 + SIGPIPE) and writes nothing to stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(rydgauge.__file__).resolve().parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "rydgauge", "scan", "--preset", "gaetan2009", "--points", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as scan:
        assert scan.stdout.readline().decode() == SCAN_HEADER + "\n"
        scan.stdout.close()
        assert scan.wait(timeout=120) == 141
        assert scan.stderr.read() == b""


def _scan_document(argv, fmt, capsys):
    """A scan's column names and its rows parsed to floats, from CSV or JSON."""
    assert main(argv + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        document = json.loads(out)
        return document["metadata"]["columns"], document["rows"]
    lines = out.splitlines()
    return lines[0].split(","), [[float(cell) for cell in line.split(",")] for line in lines[1:]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_si_flag_switches_the_length_column(fmt, capsys):
    """Each SI column is its model-unit column times its ModelUnits scale, bit for bit."""
    columns, rows = _scan_document(SCAN_ARGS, fmt, capsys)
    si_columns, si_rows = _scan_document(SCAN_ARGS + ["--si"], fmt, capsys)
    assert si_columns == ["r_m"] + columns[1:]
    assert si_rows[0][0] == pytest.approx(0.5 * 7.896e-6, rel=1e-3)
    units = ModelUnits.from_experiment(*build_experiment(RunConfig(preset="gaetan2009")))
    scales = [units.length_m] + [units.vector_potential_kg_m_s] * 3 + [units.field_T] * 3 \
        + [units.scalar_a_J] * 3
    assert len(si_rows) == len(rows) == 7
    for row, si_row in zip(rows, si_rows):
        assert si_row == [value * scale for value, scale in zip(row, scales)]


def test_scan_output_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    assert main(SCAN_ARGS + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().splitlines()[0] == SCAN_HEADER


def test_a_scan_failing_in_its_first_block_opens_no_file(tmp_path, capsys):
    # every point overflows u; the head waits for the first block, so no file is made
    target = tmp_path / "scan.csv"
    argv = ["scan", "--preset", "beguin2013", "--rmin", "1e-300", "--rmax", "1e-299",
            "--points", "3", "--output", str(target)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: scan rows must be finite\n"
    assert not target.exists()
    target.write_text("kept\n")  # nor is an existing file touched
    assert main(argv) == 2
    assert target.read_text() == "kept\n"


# 22 points in blocks of 7: the last point lies exactly on u = 2w, where the rows are 0/0
LATE_FAILURE = ["scan", "--preset", "gaetan2009", "--detuning-ratio=-0.5", "--rmin", "0.5",
                "--rmax", "1.0378908155562134", "--points", "22"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_scan_failing_in_a_later_block_leaves_no_file(fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(analysis, "_BLOCK", 7)
    target = tmp_path / f"scan.{fmt}"
    target.write_text("an earlier table\n")
    assert main(LATE_FAILURE + ["--format", fmt, "--output", str(target)]) == 2
    assert capsys.readouterr().err == "error: scan rows must be finite\n"
    assert not target.exists()


def test_a_late_failure_through_a_symlink_removes_only_a_regular_file(tmp_path, monkeypatch,
                                                                       capsys):
    monkeypatch.setattr(analysis, "_BLOCK", 7)
    null, link = tmp_path / "null", tmp_path / "link.csv"
    null.symlink_to(os.devnull)
    assert main(LATE_FAILURE + ["--output", str(null)]) == 2
    assert null.is_symlink()
    assert Path(os.devnull).is_char_device()
    target = tmp_path / "target.csv"
    target.write_text("an earlier table\n")
    link.symlink_to(target)
    assert main(LATE_FAILURE + ["--output", str(link)]) == 2
    assert not target.exists()  # the file written, not just the link to it
    assert capsys.readouterr().err == "error: scan rows must be finite\n" * 2


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# flyby scan\n"
        "preset = gaetan2009\n"
        "detuning_ratio = -1.0  # delta/|Omega|\n"
        "labels = 1, -\n"
        "points = 50\n"
        "si = true\n"
    )
    values = read_config_file(str(path))
    assert values["preset"] == "gaetan2009"
    assert values["detuning_ratio"] == -1.0
    assert values["labels"] == ("1", "-")
    assert values["points"] == 50
    assert values["si"] is True


def test_config_file_errors_name_the_line(tmp_path):
    bad_key = tmp_path / "bad.conf"
    bad_key.write_text("preset = gaetan2009\nwibble = 3\n")
    with pytest.raises(ValueError, match=r"bad\.conf:2: unknown key 'wibble'"):
        read_config_file(str(bad_key))
    no_eq = tmp_path / "noeq.conf"
    no_eq.write_text("just words\n")
    with pytest.raises(ValueError, match=r"noeq\.conf:1: expected"):
        read_config_file(str(no_eq))
    bad_num = tmp_path / "num.conf"
    bad_num.write_text("rmin = fast\n")
    with pytest.raises(ValueError, match="malformed number"):
        read_config_file(str(bad_num))


def test_flags_override_the_config_file(tmp_path, capsys):
    path = tmp_path / "run.conf"
    path.write_text("preset = gaetan2009\ndetuning_ratio = -1.0\npoints = 5\n")
    config = parse_config(str(path), {"points": 9, "detuning_ratio": None})
    assert config.points == 9  # flag wins
    assert config.detuning_ratio == -1.0  # unset flag defers to the file
    assert (
        main(
            ["scan", "--config", str(path), "--rmin", "0.5", "--rmax", "2", "--points", "3"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 4


def test_run_config_validation():
    with pytest.raises(ValueError, match="c3 invalid for vdw"):
        RunConfig(interaction="vdw", c3=100.0)
    with pytest.raises(ValueError, match="c6 invalid for rdd"):
        RunConfig(interaction="rdd", c6=100.0)
    with pytest.raises(ValueError, match="c3 and c6 cannot both be given"):
        RunConfig(c3=-3200.0, c6=-300.0)
    with pytest.raises(ValueError, match="rmax"):
        RunConfig(rmin=2.0, rmax=1.0)
    with pytest.raises(ValueError, match="labels"):
        RunConfig(labels=("q",))
    for key in ("rmin", "rmax", "rabi_mhz", "wavelength_nm"):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                RunConfig(**{key: bad})


@pytest.mark.parametrize("flags, message", [
    (["--interaction", "vdw", "--c3", "3200"], "c3 invalid for vdw"),
    (["--interaction", "vdw"], "interaction vdw requires c6"),
    (["--c3", "-3200", "--c6", "-300"], "c3 and c6 cannot both be given: choose one interaction"),
], ids=["c3-for-vdw", "vdw-without-c6", "c3-and-c6"])
def test_config_errors_surface_as_exit_2(flags, message, capsys):
    code = main(["scan", "--preset", "gaetan2009", *flags, "--rmin", "0.5", "--rmax", "2",
                 "--points", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_a_config_file_with_both_coefficients_is_refused(tmp_path, capsys):
    path = tmp_path / "both.conf"
    path.write_text("preset = gaetan2009\nc3 = -3200\nc6 = -300\n")
    with pytest.raises(ValueError, match="c3 and c6 cannot both be given"):
        parse_config(str(path))
    assert main(["scan", "--config", str(path), "--points", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: c3 and c6 cannot both be given")


def test_peaks_subcommand(capsys):
    code = main(
        ["peaks", "--preset", "gaetan2009", "--detuning-ratio", "0", "--labels", "-"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("label,kind,")
    assert len(lines) == 3  # max and min rows for one label
    cells = lines[1].split(",")
    assert cells[0] == "-" and cells[1] == "max"


@pytest.mark.parametrize("bounds", [["--rmax", "1e308"], ["--rmin", "1e-320"]])
def test_peaks_never_report_a_nan_peak(bounds, capsys):
    # u underflows to the defective point u = 2w = 0 far out and overflows close in;
    # those grid points are skipped, and no bracket reaches past them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["peaks", "--preset", "gaetan2009", "--labels", "1,-,+", *bounds]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 6
    for row in rows:
        assert math.isfinite(float(row["r_peak_over_rc"])), row
        assert math.isfinite(float(row["field_peak"])), row
        assert (row["found"] == "true") == (row["note"] == ""), row
    assert any(row["found"] == "false" and "slope of the field does not change sign" in row["note"]
               for row in rows)


def test_peaks_rejects_a_grid_too_small_to_bracket(capsys):
    code = main(["peaks", "--preset", "gaetan2009", "--labels", "-", "--points", "2"])
    assert code == 2
    assert "error: points must be >= 3" in capsys.readouterr().err


def test_map_rejects_a_one_point_axis(capsys):
    # linspace(-h, h, 1) is [-h]: one point would be the corner (-h, -h), not the grid
    assert main(["map", "--preset", "gaetan2009", "--map-points", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: map points must be 0 or >= 2")
    assert captured.out == ""


def test_scaling_subcommand(capsys):
    # the '=' form keeps argparse from reading the leading '-' as a flag
    code = main(
        ["scaling", "--preset", "gaetan2009", "--labels", "1",
         "--detuning-ratios=-10,-20,-40"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("label,kind,exponent,")
    exponent = float(lines[1].split(",")[2])
    assert exponent == pytest.approx(1.0, abs=0.01)


def test_map_subcommand(capsys):
    code = main(
        ["map", "--preset", "gaetan2009", "--detuning-ratio", "0",
         "--label", "-", "--half-extent", "2", "--map-points", "5"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x_over_rc,z_over_rc,Bx,By,Bz"
    assert len(lines) > 5
    for line in lines[1:]:
        bx, by, bz = (float(cell) for cell in line.split(",")[2:])
        assert bx == 0.0 and bz == 0.0  # in-plane separations give By only


@pytest.mark.parametrize("argv, message", [
    (["trajectory", "--speed", "0"], "speed must be finite and positive, got 0.0 m/s"),
    (["trajectory", "--speed", "nan"], "speed must be finite and positive"),
    (["trajectory", "--speed", "-0.1"], "speed must be finite and positive"),
    (["trajectory", "--impact-parameter-rc", "nan"], "impact parameter must be finite"),
    (["trajectory", "--impact-parameter-rc", "inf"], "impact parameter must be finite"),
    (["map", "--map-points", "-2"], "map points must be >= 0, got -2"),
    (["map", "--half-extent", "nan"], "half extent must be finite and positive"),
    (["map", "--half-extent", "-1"], "half extent must be finite and positive"),
    (["map", "--half-extent", "0"], "half extent must be finite and positive"),
    (["map", "--half-extent", "inf"], "half extent must be finite and positive"),
    (["trajectory", "--time-step-s", "inf"], "time step must be finite and positive"),
    (["peaks", "--preset", "gaetan2009", "--rabi-mhz", "inf"], "rabi_mhz must be finite"),
    (["map", "--preset", "gaetan2009", "--rabi-mhz", "inf"], "rabi_mhz must be finite"),
    (["scan", "--preset", "gaetan2009", "--rabi-mhz", "inf"], "rabi_mhz must be finite"),
    (["peaks", "--preset", "gaetan2009", "--rabi-mhz", "1e305"],
     "rabi_magnitude_rad_s must be finite"),  # finite in MHz, overflows in rad/s
    (["scan", "--preset", "gaetan2009", "--rmax", "inf"], "rmax must be finite"),
    (["peaks", "--preset", "gaetan2009", "--rmax", "inf"], "rmax must be finite"),
    # positive and finite in nm, but 0 in metres: 2*pi / lambda once divided by zero
    (["scan", "--preset", "gaetan2009", "--wavelength-nm", "1e-320", "--points", "3"],
     "wavelength_nm 1e-320 underflows to 0 m"),
    (["scan", "--rabi-mhz", "1", "--wavelength-nm", "1e-320", "--c3", "-3200"],
     "wavelength_nm 1e-320 underflows to 0 m"),
    # every grid point overflows u: nothing to bracket on
    (["peaks", "--preset", "beguin2013", "--rmin", "1e-320", "--rmax", "1e-300"],
     "no finite, non-degenerate field on the bracket grid"),
    (["scan", "--preset", "beguin2013", "--rmin", "1e-300", "--rmax", "1e-299", "--points", "3"],
     "scan rows must be finite"),
    # repeated ratios leave the fit's slope 0/0: it would print -inf, inf and nan
    (["scaling", "--preset", "gaetan2009", "--labels", "-", "--detuning-ratios=-10,-10,-10"],
     "scaling_fit needs at least 3 distinct detuning ratios"),
    (["scaling", "--preset", "gaetan2009", "--labels", "-", "--detuning-ratios=-10,-10,-10",
      "--format", "json"], "scaling_fit needs at least 3 distinct detuning ratios"),
    (["scaling", "--preset", "gaetan2009", "--labels", "-", "--detuning-ratios=nan,-20,-30"],
     "detuning ratios must be finite, got nan"),
])
def test_trajectory_and_map_inputs_are_checked(argv, message, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert "RuntimeWarning" not in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert captured.out == ""


def test_scan_past_the_finite_range_of_u_warns_nothing(capsys):
    # u underflows to the defective point u = 2w = 0: four of five points are excluded
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["scan", "--preset", "gaetan2009", "--rmax", "1e308", "--points", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(captured.out.splitlines()) == 2


def test_trajectory_rejects_a_run_with_too_many_records(monkeypatch, capsys):
    # 12 r_c at 1e-30 m/s is 9.5e25 s; its list of record times would never finish
    def never(config):
        raise AssertionError("record times built for a rejected run")

    monkeypatch.setattr(dynamics, "_record_times", never)
    assert main(["trajectory", "--speed", "1e-30"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: max time 9.47531e+25 s makes about 9.48e+30 records")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_trajectory_subcommand_reports_deflection(capsys):
    code = main(
        ["trajectory", "--preset", "gaetan2009", "--speed", "0.4",
         "--time-step-s", "2e-7", "--output", "/dev/null"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("z-deflection: ")
    assert out.splitlines()[-1].endswith(" um")


def _readme_flyby_csv(grid_flags, path) -> bytes:
    argv = ["trajectory", "--preset", "gaetan2009", "--speed", "0.10",
            "--impact-parameter-rc", "1.0", *grid_flags, "--output", str(path)]
    assert main(argv) == 0
    return path.read_bytes()


@pytest.mark.parametrize("grid_flags, sha256", [
    ([], "13223c97724bc1f6d9779d96b63caa88fe6d75277eef464432a141ce2bcbedea"),
    (["--time-step-s", "2e-6"], "fc21c1282e85a0ba5f175aaf58e97ac27669873328761077fe92ed9f513d52f9"),
], ids=["adaptive", "2us-record-grid"])
def test_readme_trajectory_csv_keeps_its_bytes(grid_flags, sha256, tmp_path, capsys):
    """The README flyby CSV on the default and on a 2 us record grid (SHA-256 of the file)."""
    data = _readme_flyby_csv(grid_flags, tmp_path / "traj.csv")
    assert hashlib.sha256(data).hexdigest() == sha256


@pytest.mark.parametrize("preset, fmt, sha256", [
    ("gaetan2009", "csv", "616acccf69efb65bd6e8ff2caa7e9a6a9ff15731968863f863551971316cbfde"),
    ("gaetan2009", "json", "f518f856ac9bc2c643ff76e484b3f54962aa8f392b71f0d088b1b2ecbe4c4671"),
    ("beguin2013", "csv", "85c70e7b48bbd99e13c3eb1bdf85e4c108aea3452cd49e1a1a35c7d9cc8d5363"),
    ("beguin2013", "json", "a03bf4751cc3e78cc8ed6eec31087d424ebbc2d75d58a6c0ba07289bd095445b"),
])
def test_bulk_shaped_scan_keeps_its_bytes(preset, fmt, sha256, capsys):
    """A scan shaped as the benchmark's bulk scan, 2e4 points from 0.01 to 20 r_c at zero
    detuning, from deep blockade to weak dressing (SHA-256 of stdout)."""
    assert main(["scan", "--preset", preset, "--rmin", "0.01", "--rmax", "20.0",
                 "--points", "20000", "--detuning-ratio=0.0", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_the_record_grid_moves_no_step(tmp_path, capsys):
    """Each of the four rows on a 2 us record grid (t = 0, 400 us, 800 us and
    the end) is byte for byte a row of the default run."""
    default = _readme_flyby_csv([], tmp_path / "default.csv").decode().splitlines()
    coarse = _readme_flyby_csv(["--time-step-s", "2e-6"], tmp_path / "coarse.csv").decode()
    header, *rows = coarse.splitlines()
    assert header == default[0] and len(rows) == 4
    assert set(rows) <= set(default[1:])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trajectory_table_on_stdout_stays_parseable(fmt, capsys):
    assert main(["trajectory", "--speed", "0.4", "--format", fmt]) == 0
    captured = capsys.readouterr()
    if fmt == "json":
        assert len(json.loads(captured.out)["rows"]) > 1
    else:
        lines = captured.out.splitlines()
        assert lines[0] == "t_s,x_m,y_m,z_m,vx,vy,vz,adiabaticity"
        assert len(lines) > 2
        for line in lines[1:]:
            assert len([float(cell) for cell in line.split(",")]) == 8
    assert captured.err.startswith("z-deflection: ")


def test_benchmark_commands_still_parse(tmp_path):
    """Every command of the benchmark workloads parses; none is run.

    ``bench/workloads.py`` imports only the standard library, so it loads
    without the benchmark harness; a removed or renamed flag fails here.
    """
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench/workloads.py"))
    parser = build_parser()
    seen = set()
    for name in workloads["WORKLOADS"]:
        for cmd in workloads["commands"](name):
            args = parser.parse_args(workloads["argv_with_output"](cmd, tmp_path))
            assert args.command == cmd.kind
            seen.add(cmd.kind)
    assert seen == {"trajectory", "peaks", "scaling", "map", "scan", "validate"}
    # the coarse flyby of bench/tests/test_checks.py, its arguments as it passes them
    argv = ["trajectory", "--preset", workloads["FLYBY"]["preset"], "--time-step-s", 2e-6,
            "--output", tmp_path / "t.csv"]
    assert parser.parse_args([str(arg) for arg in argv]).time_step_s == 2e-6


def test_sweep_commands_repeat_in_one_process(tmp_path, capsys):
    """The sweep workload's 21 commands, twice through ``main`` in one interpreter.

    The benchmark runs a workload's commands in one process; a usage error
    and a help page between the passes must leave the one parser as it was.
    """
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench/workloads.py"))
    commands = workloads["commands"]("sweep")
    assert len(commands) == 21
    build_parser.cache_clear()

    def sweep(out_dir):
        out_dir.mkdir()
        results = []
        for cmd in commands:
            code = main(workloads["argv_with_output"](cmd, out_dir))
            captured = capsys.readouterr()
            results.append((cmd.name, code, captured.out, captured.err,
                            (out_dir / cmd.output).read_bytes()))
        return results

    first = sweep(tmp_path / "first")
    assert main(["peaks", "--no-such-flag"]) == 2
    assert main(["peaks", "--help"]) == 0
    captured = capsys.readouterr()
    assert "unrecognized arguments: --no-such-flag" in captured.err
    assert captured.out.startswith("usage: rydgauge peaks")
    second = sweep(tmp_path / "second")
    assert [code for _, code, *_ in first] == [0] * 21
    assert second == first
    assert build_parser.cache_info().misses == 1


# SHA-256 of each sweep command's output file: 14 peaks tables, 6 scaling tables, the map
SWEEP_SHA256 = {
    "peaks_gaetan2009_-3": "acff4a9a40c06526ae040fefcaeb5914119729dd83688cc29c22aaa8e2ab985b",
    "peaks_gaetan2009_-1": "f95584b3ea1af0168b046dfa35a061af66730a3e48cf924ffacec3c057c05f72",
    "peaks_gaetan2009_-0.3": "8f804d11020b51a2dbbb29f0e92b927e9e78e1ccd25250e1778fd83a78b1756d",
    "peaks_gaetan2009_+0": "3de84d28d73ac731415feb0e49a8ddf32c94eaaefd7babee7406eca5bc868697",
    "peaks_gaetan2009_+0.3": "028825271124c8ae0c47966eaeba3bc7c7e138340e78dc7130540bc438b78c4f",
    "peaks_gaetan2009_+1": "52d8c4404da8fb5ec88960d4c83de123c7e91bf0493e097b05a0c2b4911105c5",
    "peaks_gaetan2009_+3": "f591beb26b761935148a9862b86f00f2e88e4a2b5b4d2c1d99b7a84270663299",
    "peaks_beguin2013_-3": "f8df1e83cf33353485bb1084814550907468838ac32c56c0c75ad9f929c66711",
    "peaks_beguin2013_-1": "21bcd4bad9cde62195a3e9da7da4903666fbd96565a99aefa8da8fce4d591f50",
    "peaks_beguin2013_-0.3": "195190ba7445a94b0ac1818498d980f97b4fdbd1413addcda618d2ecc8228ce5",
    "peaks_beguin2013_+0": "3fecba904c0f4313161fc05bcc28083db3f1c3e101a8ee5f2cec856890c9235e",
    "peaks_beguin2013_+0.3": "480fef445ea4e5bc626050d4093446ea6a905fa33a5fa795e7d5a26e96f3a328",
    "peaks_beguin2013_+1": "24329cc0f027834b455e941c003b5a20a86079329544013a71c4f2c4cac90cee",
    "peaks_beguin2013_+3": "55920666279c6c325efa1fc1c5b774810a7adbf9bc791d89c950b10aa18a4f51",
    "scaling_gaetan2009_1": "15f4abc7b93afc80458740f9d1d8554a656fd47f849c9c94dbd4853e06a6398c",
    "scaling_gaetan2009_minus": "80d2ba625a4f2d1c33fabdbcdef69f6647fd76b71412262794220e8dccd3eced",
    "scaling_gaetan2009_plus": "6db430f34c0b46782618d68e46534fcca5e69c50a1eaa28c9281449672ec9d94",
    "scaling_beguin2013_1": "a668c0278d3952672ff3d56d2d3bc34c8fd4db8b95b402b2cd98fc97241f41cb",
    "scaling_beguin2013_minus": "f5ebb69718903fcf0c08f6634d0c696aa4a80dc67c2e3f7d00d66936e0748cb6",
    "scaling_beguin2013_plus": "1072f9ef2a1e71e452405c559413f0b22cbe18a366136f65d26bbc3333197fd0",
    "map": "36d5a224b294698d237a390e83d54ba81960c7f4318b825ada2da07aec3dbc18",
}


def test_sweep_outputs_keep_their_bytes(tmp_path, capsys):
    """Each of the sweep workload's 21 commands writes its file with the pinned
    SHA-256 and prints nothing."""
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench/workloads.py"))
    digests = {}
    for cmd in workloads["commands"]("sweep"):
        assert main(workloads["argv_with_output"](cmd, tmp_path)) == 0
        assert capsys.readouterr().out == ""
        digests[cmd.name] = hashlib.sha256((tmp_path / cmd.output).read_bytes()).hexdigest()
    assert digests == SWEEP_SHA256


def test_presets_subcommand(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "gaetan2009" in out
    assert "beguin2013" in out
    assert "r_c" in out and "B0" in out


def test_python_m_rydgauge_runs_the_cli(monkeypatch, capsys):
    main(["presets"])
    expected = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["rydgauge", "presets"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("rydgauge", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out == expected


def test_validate_quick_summary(capsys):
    assert main(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    summary = out.splitlines()[-1]
    assert summary.startswith("oracles: ")
    assert summary.endswith(" passed, 0 failed")
