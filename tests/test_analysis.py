"""Tests for scans, field-extremum search, and scaling fits."""

import dataclasses
import json
import math

import numpy as np
import pytest

from rydgauge import analysis, tables
from rydgauge.analysis import (
    SCAN_LABELS,
    PeakReport,
    _zeroin,
    find_peaks,
    scaling_fit,
    scan_1d,
)
from rydgauge.cli import main
from rydgauge.gauge import (
    _field_slope,
    connection_profile,
    field_profile,
    magnetic_field,
    scalar_profile,
)
from rydgauge.model import PRESETS, get_preset, reduced_parameters
from rydgauge.spectrum import (
    DEFLATE_AT,
    LABEL_INDEX,
    _clear_of_degeneracy,
    labeled_spectrum,
    near_degenerate,
)
from rydgauge.tables import SCAN_HEADER, format_float, render, scan_table, to_csv

GAETAN = get_preset("gaetan2009")


def _drive_of(preset, w):
    base = PRESETS[preset].drive
    return dataclasses.replace(base, detuning_rad_s=w * base.rabi_magnitude_rad_s)


def _drive(w):
    return _drive_of("gaetan2009", w)


def _rows(table):
    """A scan's kept rows, its blocks joined: r/r_c (n,) and A, B_phi, phi (3, n)."""
    rows = np.concatenate([np.empty((0, 10)), *table.blocks()])
    return [rows[:, 0], rows[:, 1:4].T, rows[:, 4:7].T, rows[:, 7:10].T]


def test_scan_shapes_and_metadata():
    drive = _drive(-1.0)
    grid = np.geomspace(0.5, 2.0, 5)
    table = scan_1d(drive, GAETAN.interaction, grid)
    r, a, b, phi = _rows(table)
    assert r.shape == (5,)
    assert a.shape == b.shape == phi.shape == (3, 5)
    assert table.count_excluded() == 0
    assert table.metadata["interaction"] == "rdd"
    assert table.metadata["labels"] == "1,+,-"
    assert table.metadata["detuning_ratio"] == pytest.approx(-1.0)


def test_scan_rows_agree_with_single_point_gauge_calls():
    # the scan batches over the grid; a batch of one recomputes each entry
    # independently, and the beam axis is z so A reduces to a scalar
    drive = _drive(0.7)
    reduced = reduced_parameters(drive, GAETAN.interaction)
    row, scan_row = LABEL_INDEX["+"], SCAN_LABELS.index("+")
    grid = np.array([0.4, 1.0, 3.0])
    _, vector, azimuthal, scalar = _rows(scan_1d(drive, GAETAN.interaction, r_grid=grid))
    for j, x in enumerate(grid):
        a = connection_profile(float(x), reduced)[row]
        assert vector[scan_row, j] == pytest.approx(a, rel=1e-12)
        phi = scalar_profile(float(x), reduced)[row]
        assert scalar[scan_row, j] == pytest.approx(phi, rel=1e-12)
        b_vec = magnetic_field(drive, GAETAN.interaction, "+", (float(x), 0.0, 0.0))
        # the scan's azimuthal column is the coefficient along e_r x khat,
        # which points along -y for a separation on the x axis
        phi_hat = np.cross([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert azimuthal[scan_row, j] == pytest.approx(b_vec @ phi_hat, rel=1e-12)


def test_scan_excludes_near_degenerate_points():
    # at zero detuning the dressed ladder collapses far out; that grid
    # point is dropped and counted rather than emitted as noise
    table = scan_1d(_drive(0.0), GAETAN.interaction, r_grid=[0.5, 1.0, 5000.0])
    r, a, _, _ = _rows(table)
    assert table.count_excluded() == 1
    assert r.tolist() == [0.5, 1.0]
    assert np.all(np.isfinite(a))


def test_scan_is_one_solve_over_the_grid(solves):
    table = scan_1d(_drive(0.0), GAETAN.interaction, r_grid=np.geomspace(0.5, 5000.0, 50))
    assert solves == []  # nothing is solved before the rows are read
    r, *_ = _rows(table)
    assert solves == [50]  # the degeneracy flag and every row from one solve
    assert table.count_excluded() == 50 - r.size > 0
    # the count solves only the far points the coefficients cannot clear, rows not formed
    assert solves == [50, 10]


BLOCK = 7  # a solve block small enough for every boundary case
# scans at zero detuning; at 0 detuning gaetan2009's ladder is near degenerate
# beyond 1708 r_c, so the excluded points are a tail of the grid
SCAN_GRIDS = {
    "deflated": ("beguin2013", 0.01, 20.0),  # vdW: deflated points below 0.46 r_c, trig beyond
    "excluded_from_first": ("gaetan2009", 1000.0, 1e5),  # from the first block's 4th point
    "excluded_from_middle": ("gaetan2009", 1.0, 1e5),  # from the third block's first point
    "excluded_last": ("gaetan2009", 0.5, 2000.0),  # the last block's one point
}


@pytest.mark.parametrize("si", [False, True], ids=["model", "si"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid, points, excluded", [
    ("deflated", 1, 0),
    ("deflated", BLOCK - 1, 0),
    ("deflated", BLOCK, 0),
    ("deflated", BLOCK + 1, 0),
    ("deflated", 3 * BLOCK + 1, 0),
    ("excluded_from_first", 3 * BLOCK + 1, 3 * BLOCK + 1 - 3),
    ("excluded_from_middle", 3 * BLOCK + 1, BLOCK + 1),
    ("excluded_last", 3 * BLOCK + 1, 1),
])
def test_blocked_scan_matches_the_one_block_solve_bit_for_bit(grid, points, excluded, fmt, si,
                                                              solves, monkeypatch, capsys):
    """Blocks of 7 give the CLI's bytes of one block: a point's numbers never depend on
    its block.  CSV solves each block once; JSON first counts its excluded rows, solving
    only each block's points the coefficients cannot clear, none on the deflated grid.
    The empty grid, which the CLI refuses, is in test_tables."""
    preset, rmin, rmax = SCAN_GRIDS[grid]
    argv = ["scan", "--preset", preset, "--detuning-ratio", "0", "--rmin", repr(rmin),
            "--rmax", repr(rmax), "--points", str(points), "--format", fmt] + ["--si"] * si
    assert main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(analysis, "_BLOCK", BLOCK)
    solves.clear()
    assert main(argv) == 0
    assert capsys.readouterr().out == whole
    sizes = [min(BLOCK, points - start) for start in range(0, points, BLOCK)]
    drive, model = _drive_of(preset, 0.0), PRESETS[preset].interaction
    u = reduced_parameters(drive, model).shift_ratio(np.geomspace(rmin, rmax, points))
    unsure = [np.count_nonzero(~_clear_of_degeneracy(u[start : start + BLOCK], 0.0))
              for start in range(0, points, BLOCK)]
    count_pass = [n for n in unsure if n] if fmt == "json" else []
    assert solves == count_pass + sizes
    assert (count_pass == []) == (grid == "deflated" or fmt == "csv")
    if fmt == "json":
        doc = json.loads(whole)
        assert doc["metadata"]["excluded_rows"] == points - len(doc["rows"]) == excluded
    else:
        assert len(whole.splitlines()) == 1 + points - excluded
    if grid == "deflated" and points == 3 * BLOCK + 1:  # blocks carrying what they are meant to
        deflated = np.abs(u) > DEFLATE_AT
        assert deflated[:BLOCK].all() and not deflated[-BLOCK:].any()


@pytest.mark.parametrize("points", [3 * BLOCK + 1, 1000])
@pytest.mark.parametrize("grid", sorted(SCAN_GRIDS))
def test_count_excluded_matches_the_full_solve(grid, points, monkeypatch):
    preset, rmin, rmax = SCAN_GRIDS[grid]
    drive, model = _drive_of(preset, 0.0), PRESETS[preset].interaction
    x = np.geomspace(rmin, rmax, points)
    u = reduced_parameters(drive, model).shift_ratio(x)
    flagged = np.count_nonzero(near_degenerate(labeled_spectrum(u, 0.0)[0]))
    monkeypatch.setattr(analysis, "_BLOCK", BLOCK)
    assert scan_1d(drive, model, x).count_excluded() == flagged


def test_certificate_never_clears_a_flagged_point():
    """Over |u| from 1e-300 to 1e300, on and beside the defective line u = 2w with
    |w| up to 1e6, u -> 0 and non-finite u: a point the coefficients clear is
    never flagged on its solved levels."""
    rng = np.random.default_rng(36)
    n = 100_000
    sign = rng.choice([-1.0, 1.0], n)
    w = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
    w[: n // 10] = 0.0
    beside = 1.0 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-17.0, -1.0, n)
    beside[::7] = 1.0
    shifts = {
        "wide": sign * 10.0 ** rng.uniform(-300.0, 300.0, n),
        "line": 2.0 * w * beside,  # u = 2w = 0 at the defective point
        "to_zero": sign * 10.0 ** rng.uniform(-14.0, -6.0, n),
        "non_finite": rng.choice([np.nan, np.inf, -np.inf], n),
    }
    for name, u in shifts.items():
        with np.errstate(all="ignore"):
            flagged = near_degenerate(labeled_spectrum(u, w)[0])
            clear = _clear_of_degeneracy(u, w)
        assert not (clear & flagged).any(), name
        if name != "non_finite":
            assert clear.any() and flagged.any(), name
        else:
            assert not clear.any()
    # near the line at |w| = 1.2e4 the solved bright gap is 2e-11 against a true 1/|w|:
    # the gap bounds alone clear these points, the conditioning of Delta does not
    u = np.array([-23168.359436223152, 23168.53619721053])
    w = np.array([-11584.179718111576, 11584.268098605258])
    assert near_degenerate(labeled_spectrum(u, w)[0]).all()
    assert not _clear_of_degeneracy(u, w).any()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_certificate_clears_the_bulk_grids(preset):
    """At zero detuning from 0.01 to 20 r_c a JSON scan solves no point twice."""
    drive, model = _drive_of(preset, 0.0), PRESETS[preset].interaction
    u = reduced_parameters(drive, model).shift_ratio(np.geomspace(0.01, 20.0, 100_000))
    assert _clear_of_degeneracy(u, 0.0).all()


def test_scan_solves_once_per_block(solves, monkeypatch):
    monkeypatch.setattr(analysis, "_BLOCK", BLOCK)
    table = scan_1d(_drive(-1.0), GAETAN.interaction, r_grid=np.geomspace(0.5, 5.0, 2 * BLOCK + 1))
    assert [len(block) for block in table.blocks()] == [BLOCK, BLOCK, 1]
    assert solves == [BLOCK, BLOCK, 1]


@pytest.mark.parametrize("points", [0, 1, 3, 7])
def test_scan_serialization_matches_the_per_value_loop(points, monkeypatch):
    """Rows converted and spliced block by block give the bytes of one value at a time."""
    monkeypatch.setattr(analysis, "_BLOCK", 3)  # empty, partial, whole and several blocks
    grid = np.geomspace(0.05, 5.0, points)
    table = scan_1d(_drive(-1.0), GAETAN.interaction, r_grid=grid)
    r, a, b, phi = _rows(table)
    columns = [r, *a, *b, *phi]
    lines = [",".join(format_float(col[i]) for col in columns) for i in range(points)]
    rendered = scan_table(table)
    assert to_csv(rendered) == "\n".join([SCAN_HEADER, *lines]) + "\n"
    assert to_csv(rendered) == to_csv(rendered)  # a table renders again with the same bytes
    metadata = dict(table.metadata, columns=SCAN_HEADER.split(","), excluded_rows=0)
    rows = [[float(col[i]) for col in columns] for i in range(points)]
    document = json.dumps({"metadata": metadata, "rows": rows}, sort_keys=True) + "\n"
    assert "".join(render(rendered, "json")) == document


def test_scan_empty_grid():
    table = scan_1d(_drive(-1.0), GAETAN.interaction, r_grid=())
    assert list(table.blocks()) == []
    assert table.count_excluded() == 0


def test_scan_rejects_bad_input():
    drive = _drive(-1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        scan_1d(drive, GAETAN.interaction, r_grid=[1.0, 0.5])
    with pytest.raises(ValueError, match="separation in r_grid must be finite and > 0"):
        scan_1d(drive, GAETAN.interaction, r_grid=[-1.0, 0.5])
    for grid in (1.0, [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="scan grid must be one-dimensional"):
            scan_1d(drive, GAETAN.interaction, r_grid=grid)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_scan_rejects_non_finite_separations(bad):
    """A non-finite grid point is named, not excluded as near-degenerate
    after warnings, nor reported as an ordering fault."""
    for grid in ([1.0, bad], [bad, 1.0]):
        with pytest.raises(ValueError, match="separation in r_grid must be finite and > 0"):
            scan_1d(_drive(-1.0), GAETAN.interaction, r_grid=grid)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_non_finite_row_stops_the_scan_after_the_blocks_before_it(fmt, monkeypatch, capsys):
    """The last grid point lies exactly on the defective point u = 2w, where the rows are
    0/0: the scan exits 2, and stdout holds the complete rows of the blocks before it."""
    rmax = 1.0378908155562134  # u = 2w bit for bit at w = -0.5
    points = 3 * BLOCK + 1
    argv = ["scan", "--preset", "gaetan2009", "--detuning-ratio", "-0.5", "--rmin", "0.5",
            "--rmax", repr(rmax), "--points", str(points), "--format", fmt]
    monkeypatch.setattr(analysis, "_BLOCK", BLOCK)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: scan rows must be finite\n"
    drive = _drive_of("gaetan2009", -0.5)
    reduced = reduced_parameters(drive, GAETAN.interaction)
    grid = np.geomspace(0.5, rmax, points)
    assert reduced.shift_ratio(grid[-1]) == 2.0 * reduced.detuning_ratio
    earlier = scan_table(scan_1d(drive, GAETAN.interaction, grid[:-1]))
    document = "".join(render(earlier, fmt))
    assert captured.out == (document if fmt == "csv" else document[: -len("]}\n")])
    assert len(json.loads("".join(render(earlier, "json")))["rows"]) == 3 * BLOCK


# extrema of the signed azimuthal field at zero detuning, attractive
# dipole-dipole coupling, far from the defective line u = 2w: 60-digit
# mpmath roots of dB/dx (Newton-polished roots of the cubic, a(x) in closed
# form, derivatives by mp.diff) and B there
PEAKS = [
    ("-", "min", 0.97576803565015267475, -0.51129947424545152489),
    ("-", "max", 0.46514377436869001833, 0.036911657799383293021),
    ("1", "min", 0.93458561629552185425, -0.23076980552114516659),
]


@pytest.mark.parametrize("label, kind, r_peak, b_peak", PEAKS)
def test_peak_goldens(label, kind, r_peak, b_peak):
    rep = find_peaks(GAETAN.interaction, [(_drive(0.0), label, kind)])[0]
    assert rep.found
    assert rep.r_peak_over_rc == pytest.approx(r_peak, rel=1e-12, abs=0.0)
    assert rep.field_peak == pytest.approx(b_peak, rel=1e-14, abs=0.0)
    assert rep.detuning_ratio == pytest.approx(0.0)


@pytest.mark.parametrize("label, kind, r_peak, b_peak", PEAKS)
def test_peaks_are_true_local_extrema(label, kind, r_peak, b_peak):
    reduced = reduced_parameters(_drive(0.0), GAETAN.interaction)
    row = LABEL_INDEX[label]
    center = field_profile(r_peak, reduced)[row].item()
    left = field_profile(r_peak * (1.0 - 1e-4), reduced)[row].item()
    right = field_profile(r_peak * (1.0 + 1e-4), reduced)[row].item()
    if kind == "max":
        assert center >= left and center >= right
    else:
        assert center <= left and center <= right


def test_peak_without_interior_bracket_reports_instead_of_raising():
    rep = find_peaks(GAETAN.interaction, [(_drive(0.0), "1", "max")], rmin=0.3, rmax=5.0)[0]
    assert isinstance(rep, PeakReport)
    assert not rep.found
    assert "no interior bracket" in rep.note
    assert rep.r_peak_over_rc in (0.3, 5.0) or rep.note  # boundary diagnostics


def test_peak_validation():
    with pytest.raises(ValueError, match="label"):
        find_peaks(GAETAN.interaction, [(_drive(0.0), "x", "max")])
    with pytest.raises(ValueError, match="kind"):
        find_peaks(GAETAN.interaction, [(_drive(0.0), "1", "saddle")])
    # a reversed bracket once refined nothing and reported a grid point as found
    with pytest.raises(ValueError, match="rmax must exceed rmin"):
        find_peaks(GAETAN.interaction, [(_drive(0.0), "-", "min")], rmin=10.0, rmax=0.1)
    with pytest.raises(ValueError, match="rmax must exceed rmin"):
        find_peaks(GAETAN.interaction, [(_drive(0.0), "-", "min")], rmin=1.0, rmax=1.0)
    with pytest.raises(ValueError, match="rmin must be positive"):
        find_peaks(GAETAN.interaction, [(_drive(0.0), "-", "min")], rmin=0.0)
    for points in (0, 2):
        with pytest.raises(ValueError, match="points must be >= 3"):
            find_peaks(GAETAN.interaction, [(_drive(0.0), "-", "min")], points=points)


def _peak_alone(drive, model, label, kind, rmin, rmax, points):
    """One search by itself: the grid bracket, then its zeroin with a one-point solve per step."""
    reduced = reduced_parameters(drive, model)
    row, sgn = LABEL_INDEX[label], 1.0 if kind == "max" else -1.0
    grid = np.geomspace(rmin, rmax, points)
    spec, slope = _field_slope(grid, reduced)
    values = spec.da_dx[row]
    idx = int(np.argmax(values)) if kind == "max" else int(np.argmin(values))
    if idx == 0 or idx == points - 1:
        return False, float(grid[idx]), float(values[idx])
    ends = [idx - 1, idx] if sgn * slope[row, idx] < 0.0 else [idx, idx + 1]
    search = _zeroin(*grid[ends].tolist(), *(sgn * slope[row, ends]).tolist(),
                     *values[ends].tolist())
    x = next(search)
    while True:
        spec, slope = _field_slope(x, reduced)
        try:
            x = search.send((spec.da_dx[row].item(), sgn * slope[row].item()))
        except StopIteration as stop:
            r, b = stop.value
            return True, r, b


SWEEP_RATIOS = (-3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("ratios, grid", [
    (SWEEP_RATIOS, (0.1, 10.0, 200)),  # the peaks command's grid, not-found rows included
    ((-10.0, -20.0, -40.0), (0.05, 10.0, 400)),  # the scaling fit's ratios and grid
])
def test_lockstep_peaks_match_each_search_alone_bit_for_bit(preset, ratios, grid):
    base, model = PRESETS[preset].drive, PRESETS[preset].interaction
    drives = [dataclasses.replace(base, detuning_rad_s=w * base.rabi_magnitude_rad_s)
              for w in ratios]
    requests = [(drive, label, kind) for drive in drives for label in ("1", "-", "+")
                for kind in ("max", "min")]
    reports = find_peaks(model, requests, *grid)
    assert len(reports) == len(requests)
    for (drive, label, kind), rep in zip(requests, reports):
        assert (rep.label, rep.kind, rep.detuning_ratio) == (label, kind, drive.detuning_ratio)
        got = (rep.found, rep.r_peak_over_rc, rep.field_peak)
        assert got == _peak_alone(drive, model, label, kind, *grid), (label, kind, rep)
    if grid[2] == 200:
        assert not all(rep.found for rep in reports)


def test_zeroin_returns_the_value_of_its_abscissa_or_none_where_f_is_not_finite():
    def run(f):  # f: the function; each abscissa's value is 10 x
        search = _zeroin(1.0, 2.0, float(f(1.0)), float(f(2.0)), 10.0, 20.0)
        return analysis._lockstep([search], lambda x, i: (10.0 * x, f(x)))[0]

    r, value = run(np.cos)
    assert r == pytest.approx(np.pi / 2.0, rel=1e-12, abs=0.0)
    assert value == 10.0 * r
    assert run(lambda x: np.where(np.abs(x - 1.5) < 0.2, np.nan, np.cos(x))) is None


def test_peaks_and_scaling_commands_solve_once_per_step(solves, capsys):
    assert main(["peaks", "--preset", "gaetan2009", "--labels", "1,-,+"]) == 0
    # one bracket solve of B, one slope solve at the three grid points of each of the
    # four interior extrema, then one per zeroin step (5 measured)
    assert solves[:2] == [200, 12] and len(solves) <= 9 and max(solves[2:]) <= 4
    solves.clear()
    assert main(["scaling", "--preset", "beguin2013", "--labels", "-",
                 "--detuning-ratios=-10,-20,-40"]) == 0
    # three bracket solves, one slope solve around both kinds' extrema at every ratio,
    # then their searches in lockstep (28 measured; the searches near the defective
    # line u = 2w take the most steps)
    assert solves[:4] == [400] * 3 + [18] and len(solves) <= 36 and max(solves[4:]) <= 6
    capsys.readouterr()


def _csv_rows(text):
    """The rows of a CSV report as dicts keyed by its header."""
    header, *lines = text.splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_scaling_at_large_detuning_fits_the_antiblockade_asymptote(capsys):
    """At |w| >= 40 the '-' minimum and '+' maximum of B sit on the crossing
    u = 2w, where |B_peak| x* tends to p w^2 (x* the second antiblockade
    radius, which tends to 2^(-1/p)): exponent 2, coefficient p 2^(1/p)."""
    assert main(["scaling", "--preset", "beguin2013", "--labels=-,+",
                 "--detuning-ratios=-40,-80,-160"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert [(row["label"], row["kind"], row["flags"]) for row in rows] == [
        ("-", "min", ""), ("+", "max", "")]
    for row in rows:  # measured: exponents 2.00003 and 2.00021, coefficients 6.7338 and 6.7291
        assert float(row["exponent"]) == pytest.approx(2.0, rel=2e-4, abs=0.0)
        coefficient = float(row["coefficient"])
        assert coefficient == pytest.approx(6.0 * 2.0 ** (1.0 / 6.0), rel=1e-3, abs=0.0)


def test_peaks_at_w_minus_160_find_the_antiblockade_field(capsys):
    """Both crossing extrema are found at x*, with |B| = p w^2 / x* (1.724e5 B0)."""
    assert main(["peaks", "--preset", "beguin2013", "--labels=-,+", "--detuning-ratio=-160",
                 "--rmin", "0.85", "--rmax", "0.95"]) == 0
    found = [row for row in _csv_rows(capsys.readouterr().out) if row["found"] == "true"]
    assert [(row["label"], row["kind"]) for row in found] == [("-", "min"), ("+", "max")]
    x_star = (math.hypot(1.0, 160.0) / 320.0) ** (1.0 / 6.0)
    for row in found:
        assert float(row["r_peak_over_rc"]) == pytest.approx(x_star, rel=1e-6, abs=0.0)
        field = abs(float(row["field_peak"]))
        assert field == pytest.approx(6.0 * 160.0**2 / x_star, rel=1e-3, abs=0.0)


def test_scaling_fit_frozen():
    fit = scaling_fit(GAETAN.drive, GAETAN.interaction, "1", (-10.0, -20.0, -40.0))
    assert fit.kind == "min"
    # the same least-squares fit of the three 60-digit mpmath peaks (as for PEAKS)
    assert fit.exponent == pytest.approx(0.99664161331635793042, rel=1e-11, abs=0.0)
    assert fit.coefficient == pytest.approx(0.53686457661363060984, rel=1e-11, abs=0.0)
    assert fit.position == pytest.approx(1.0001556204659100744, rel=1e-12, abs=0.0)
    assert fit.residual < 0.005
    assert fit.flags == ()
    assert len(fit.reports) == 3
    assert all(rep.found for rep in fit.reports)


def test_scaling_fit_respects_requested_kind():
    fit = scaling_fit(
        GAETAN.drive, GAETAN.interaction, "-", (-10.0, -20.0, -40.0), kind="min"
    )
    assert fit.kind == "min"
    assert all(rep.kind == "min" for rep in fit.reports)


def test_scaling_fit_validation():
    drive = GAETAN.drive
    with pytest.raises(ValueError, match="at least 3"):
        scaling_fit(drive, GAETAN.interaction, "1", (-10.0, -20.0))
    with pytest.raises(ValueError, match="share one sign"):
        scaling_fit(drive, GAETAN.interaction, "1", (-10.0, 20.0, -40.0))
    with pytest.raises(ValueError, match=">= 10"):
        scaling_fit(drive, GAETAN.interaction, "1", (-5.0, -20.0, -40.0))
    # repeated ratios leave the slope 0/0: three points, but not three distinct ones
    for ratios in ((-10.0, -10.0, -10.0), (-10.0, -10.0, -20.0), (-10.0, -20.0, -10.0, -20.0)):
        with pytest.raises(ValueError, match="at least 3 distinct detuning ratios"):
            scaling_fit(drive, GAETAN.interaction, "1", ratios)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"detuning ratios must be finite, got {bad}"):
            scaling_fit(drive, GAETAN.interaction, "1", (bad, -20.0, -30.0))
