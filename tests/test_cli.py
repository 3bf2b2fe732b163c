"""End-to-end tests of the command-line interface."""

import json

import pytest

from rydgauge.cli import main
from rydgauge.config import RunConfig, parse_config, read_config_file
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


def test_scan_si_flag_switches_the_length_column(capsys):
    assert main(SCAN_ARGS + ["--si"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("r_m,")
    first_r = float(out.splitlines()[1].split(",")[0])
    assert first_r == pytest.approx(0.5 * 7.896e-6, rel=1e-3)


def test_scan_output_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    assert main(SCAN_ARGS + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().splitlines()[0] == SCAN_HEADER


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
    with pytest.raises(ValueError, match="rmax"):
        RunConfig(rmin=2.0, rmax=1.0)
    with pytest.raises(ValueError, match="labels"):
        RunConfig(labels=("q",))


def test_config_errors_surface_as_exit_2(capsys):
    code = main(
        ["scan", "--preset", "gaetan2009", "--interaction", "vdw",
         "--c3", "3200", "--rmin", "0.5", "--rmax", "2", "--points", "3"]
    )
    assert code == 2
    assert "error: c3 invalid for vdw" in capsys.readouterr().err


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


def test_peaks_rejects_a_grid_too_small_to_bracket(capsys):
    code = main(["peaks", "--preset", "gaetan2009", "--labels", "-", "--points", "2"])
    assert code == 2
    assert "error: points must be >= 3" in capsys.readouterr().err


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
])
def test_trajectory_and_map_inputs_are_checked(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
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


def test_presets_subcommand(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "gaetan2009" in out
    assert "beguin2013" in out
    assert "r_c" in out and "B0" in out


def test_validate_quick_summary(capsys):
    assert main(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    summary = out.splitlines()[-1]
    assert summary.startswith("oracles: ")
    assert summary.endswith(" passed, 0 failed")
