"""Each workload check passes on real program output and rejects a perturbed copy.

The outputs come from small versions of the workload commands (coarser
flyby step, smaller map and scan), run in-process through the CLI.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from rydgauge import cli

import checks
import workloads


def run_cli(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main([str(a) for a in argv]) == 0
    return buffer.getvalue()


def failing(results) -> list:
    return [c.name for c in results if not c.ok]


def edit_csv_cell(path, row: int, col: int, change) -> None:
    """Apply ``change`` to one numeric cell (row 0 is the first data row, -1 the last)."""
    lines = path.read_text().splitlines()
    line = row + 1 if row >= 0 else row
    cells = lines[line].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[line] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def flyby(tmp_path_factory):
    out = tmp_path_factory.mktemp("flyby")
    params = dict(workloads.FLYBY, time_step_s=2e-6)
    stdout = run_cli(["trajectory", "--preset", params["preset"], "--time-step-s",
                      params["time_step_s"], "--output", out / "t.csv"])
    return out / "t.csv", stdout, params


def test_flyby_checks(flyby):
    path, stdout, params = flyby
    assert failing(checks.check_trajectory(path, stdout, params)) == []
    text = path.read_text()
    edit_csv_cell(path, -1, 3, lambda z: z * (1.0 + 1e-5))  # final z off by 7e-6 um
    assert any("final z" in n for n in failing(checks.check_trajectory(path, stdout, params)))
    path.write_text(text)
    edit_csv_cell(path, 2, 4, lambda vx: vx + 1e-9)
    assert any("speed" in n for n in failing(checks.check_trajectory(path, stdout, params)))
    path.write_text("\n".join(text.splitlines()[:-1]) + "\n")  # ends one stride early
    assert any("max_time" in n for n in failing(checks.check_trajectory(path, stdout, params)))
    path.write_text(text)


def test_peaks_checks(tmp_path):
    params = {"preset": "gaetan2009", "detuning": -1.0, **workloads.PEAK_GRID}
    path = tmp_path / "p.csv"
    run_cli(["peaks", "--preset", "gaetan2009", "--labels", "1,-,+",
             "--detuning-ratio=-1.0", "--output", path])
    assert failing(checks.check_peaks(path, params)) == []
    lines = path.read_text().splitlines()
    found = next(i for i, line in enumerate(lines) if line.endswith(",true,"))
    edit_csv_cell(path, found - 1, 3, lambda b: b + 1e-4)
    assert any(n.endswith("value") for n in failing(checks.check_peaks(path, params)))
    lines[found] = lines[found].replace(",true,", ",false,")
    path.write_text("\n".join(lines) + "\n")
    assert any("not found" in n for n in failing(checks.check_peaks(path, params)))
    edge = next(i for i, line in enumerate(lines) if line.endswith("199"))
    lines[edge] = lines[edge].replace("1.0000000000000000e+01", "5.0000000000000000e+00")
    path.write_text("\n".join(lines) + "\n")
    assert any("shortfall" in n for n in failing(checks.check_peaks(path, params)))


def test_scaling_checks(tmp_path):
    params = {"preset": "gaetan2009", "label": "1", "ratios": workloads.SCALING_RATIOS}
    path = tmp_path / "s.csv"
    run_cli(["scaling", "--preset", "gaetan2009", "--labels", "1",
             "--detuning-ratios=-10,-20,-40", "--output", path])
    assert failing(checks.check_scaling(path, params)) == []
    edit_csv_cell(path, 0, 2, lambda n: n + 1e-2)
    assert any("exponent" in n for n in failing(checks.check_scaling(path, params)))


def test_map_checks(tmp_path):
    params = dict(workloads.MAP, points=11)
    path = tmp_path / "m.csv"
    run_cli(["map", "--preset", "gaetan2009", "--detuning-ratio=-1.0", "--label", "+",
             "--half-extent", "3", "--map-points", "11", "--output", path])
    rng = np.random.default_rng(0)
    assert failing(checks.check_map(path, params, rng)) == []
    text = path.read_text()
    edit_csv_cell(path, 7, 3, lambda by: by + 1e-6)
    assert any("By(" in n for n in failing(checks.check_map(path, params, rng)))
    path.write_text(text)
    edit_csv_cell(path, 7, 4, lambda bz: 1e-3)
    assert any("Bz" in n for n in failing(checks.check_map(path, params, rng)))


@pytest.fixture(scope="module")
def scans(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan")
    params = dict(workloads.SCAN, points=500, preset="beguin2013")
    for fmt in ("csv", "json"):
        run_cli(["scan", "--preset", "beguin2013", "--rmin", params["rmin"], "--rmax",
                 params["rmax"], "--points", 500, "--format", fmt, "--output",
                 out / f"s.{fmt}"])
    return out, params


def _scan_results(out, params):
    results = []
    for fmt in ("csv", "json"):
        rows, excluded = checks.read_scan(out / f"s.{fmt}", fmt)
        results += checks.check_scan(rows, excluded, dict(params, format=fmt),
                                     np.random.default_rng(0))
    return results


def test_scan_checks(scans):
    out, params = scans
    assert failing(_scan_results(out, params)) == []
    text = (out / "s.csv").read_text()
    edit_csv_cell(out / "s.csv", 250, 8, lambda phi: phi * (1.0 + 1e-6))
    assert any("phi vs" in n for n in failing(_scan_results(out, params)))
    (out / "s.csv").write_text(text)
    edit_csv_cell(out / "s.csv", 10, 4, lambda b: b + 1e-6)
    assert any("B_phi" in n for n in failing(_scan_results(out, params)))
    (out / "s.csv").write_text(text)
    doc = json.loads((out / "s.json").read_text())
    doc["rows"].pop(3)
    (out / "s.json").write_text(json.dumps(doc))
    assert any("excluded" in n for n in failing(_scan_results(out, params)))


def test_validate_checks():
    stdout = run_cli(["validate", "--quick"])
    params = {"checks": 12}
    assert failing(checks.check_validate(stdout, 0, params)) == []
    assert failing(checks.check_validate(stdout.replace("PASS", "FAIL", 1), 0, params))
    assert failing(checks.check_validate(stdout, 1, params))


def test_json_must_equal_csv_exactly(tmp_path):
    (tmp_path / "a.stdout").write_text("")
    (tmp_path / "b.stdout").write_text("")
    params = dict(workloads.SCAN, points=50, preset="gaetan2009")
    cmds = []
    for name, fmt in (("a", "csv"), ("b", "json")):
        cmd = workloads.Command(name, "scan", (), f"{name}.{fmt}", dict(params, format=fmt))
        run_cli(["scan", "--preset", "gaetan2009", "--rmin", params["rmin"], "--rmax",
                 params["rmax"], "--points", 50, "--format", fmt, "--output",
                 tmp_path / cmd.output])
        cmds.append(cmd)
    assert failing(checks.check_workload(cmds, tmp_path, [0, 0], seed=1)) == []
    doc = json.loads((tmp_path / "b.json").read_text())
    doc["rows"][7][5] = float(np.nextafter(doc["rows"][7][5], np.inf))
    (tmp_path / "b.json").write_text(json.dumps(doc))
    assert failing(checks.check_workload(cmds, tmp_path, [0, 0], seed=1)) == [
        "scan gaetan2009: JSON rows equal the CSV values exactly"]
