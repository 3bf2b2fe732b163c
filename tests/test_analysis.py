"""Tests for scans, field-extremum search, and scaling fits."""

import dataclasses
import json

import numpy as np
import pytest

from rydgauge import analysis, tables
from rydgauge.analysis import (
    GOLDEN,
    REFINE_TOL,
    PeakReport,
    ScanTable,
    find_peaks,
    scaling_fit,
    scan_1d,
)
from rydgauge.cli import main
from rydgauge.gauge import connection_profile, field_profile, magnetic_field, scalar_profile
from rydgauge.model import PRESETS, get_preset, reduced_parameters
from rydgauge.spectrum import DEFLATE_AT, LABEL_INDEX
from rydgauge.tables import SCAN_HEADER, SCAN_LABELS, format_float, scan_table, to_csv, to_json

GAETAN = get_preset("gaetan2009")


def _drive_of(preset, w):
    base = PRESETS[preset].drive
    return dataclasses.replace(base, detuning_rad_s=w * base.rabi_magnitude_rad_s)


def _drive(w):
    return _drive_of("gaetan2009", w)


def test_scan_shapes_and_metadata():
    drive = _drive(-1.0)
    grid = np.geomspace(0.5, 2.0, 5)
    table = scan_1d(drive, GAETAN.interaction, labels=("-", "1"), r_grid=grid)
    assert table.labels == ("-", "1")
    assert table.r_over_rc.shape == (5,)
    assert table.vector_potential.shape == (2, 5)
    assert table.azimuthal_field.shape == (2, 5)
    assert table.scalar_potential.shape == (2, 5)
    assert table.excluded_count == 0
    assert table.metadata["interaction"] == "rdd"
    assert table.metadata["labels"] == "-,1"
    assert table.metadata["detuning_ratio"] == pytest.approx(-1.0)


def test_scan_rows_agree_with_single_point_gauge_calls():
    # the scan batches over the grid; a batch of one recomputes each entry
    # independently, and the beam axis is z so A reduces to a scalar
    drive = _drive(0.7)
    reduced = reduced_parameters(drive, GAETAN.interaction)
    row = LABEL_INDEX["+"]
    grid = np.array([0.4, 1.0, 3.0])
    table = scan_1d(drive, GAETAN.interaction, labels=("+",), r_grid=grid)
    for j, x in enumerate(grid):
        a = connection_profile(float(x), reduced)[row]
        assert table.vector_potential[0, j] == pytest.approx(a, rel=1e-12)
        phi = scalar_profile(float(x), reduced)[row]
        assert table.scalar_potential[0, j] == pytest.approx(phi, rel=1e-12)
        b_vec = magnetic_field(drive, GAETAN.interaction, "+", (float(x), 0.0, 0.0))
        # the scan's azimuthal column is the coefficient along e_r x khat,
        # which points along -y for a separation on the x axis
        phi_hat = np.cross([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert table.azimuthal_field[0, j] == pytest.approx(b_vec @ phi_hat, rel=1e-12)


def test_scan_excludes_near_degenerate_points():
    # at zero detuning the dressed ladder collapses far out; that grid
    # point is dropped and counted rather than emitted as noise
    table = scan_1d(_drive(0.0), GAETAN.interaction, r_grid=[0.5, 1.0, 5000.0])
    assert table.excluded_count == 1
    assert table.r_over_rc.tolist() == [0.5, 1.0]
    assert np.all(np.isfinite(table.vector_potential))


def test_scan_is_one_solve_over_the_grid(solves):
    table = scan_1d(_drive(0.0), GAETAN.interaction, r_grid=np.geomspace(0.5, 5000.0, 50))
    assert solves == [50]  # the degeneracy flag and every row from one solve
    assert table.excluded_count > 0


BLOCK = 7  # a solve block small enough for every boundary case


def _scan_documents(drive, model, grid):
    table = scan_1d(drive, model, SCAN_LABELS, grid)
    return table.excluded_count, to_csv(scan_table(table)), to_json(scan_table(table))


@pytest.mark.parametrize("points", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 4 * BLOCK + 3])
@pytest.mark.parametrize("preset, rmin, rmax", [
    ("beguin2013", 0.01, 20.0),  # vdW: deflated points below 0.46 r_c, trig beyond
    ("gaetan2009", 0.5, 5000.0),  # the far points are near degenerate: excluded
])
def test_blocked_scan_matches_the_one_block_solve_bit_for_bit(preset, rmin, rmax, points,
                                                              monkeypatch):
    """Blocks of 7 give the bytes of one block: a point's numbers never depend on its block."""
    drive, model = _drive_of(preset, 0.0), PRESETS[preset].interaction
    grid = np.geomspace(rmin, rmax, points)
    whole = _scan_documents(drive, model, grid)
    monkeypatch.setattr(analysis, "_SOLVE_BLOCK", BLOCK)
    assert _scan_documents(drive, model, grid) == whole
    if points == 4 * BLOCK + 3:  # several blocks, carrying the cases they are meant to
        deflated = np.abs(reduced_parameters(drive, model).shift_ratio(grid)) > DEFLATE_AT
        excluded = whole[0]
        if preset == "beguin2013":
            assert deflated[:BLOCK].all() and not deflated[-BLOCK:].any() and excluded == 0
        else:
            assert not deflated.any() and 0 < excluded < BLOCK


def test_scan_solves_once_per_block(solves, monkeypatch):
    monkeypatch.setattr(analysis, "_SOLVE_BLOCK", BLOCK)
    scan_1d(_drive(-1.0), GAETAN.interaction, r_grid=np.geomspace(0.5, 5.0, 2 * BLOCK + 1))
    assert solves == [BLOCK, BLOCK, 1]


def test_default_scan_serializes_like_the_cli_order():
    """The rows are picked by label, so any order of the three labels writes the same bytes."""
    drive = _drive(-1.0)
    grid = np.geomspace(0.3, 3.0, 7)
    default = scan_1d(drive, GAETAN.interaction, r_grid=grid)
    cli_order = scan_1d(drive, GAETAN.interaction, labels=("1", "+", "-"), r_grid=grid)
    assert to_csv(scan_table(default)) == to_csv(scan_table(cli_order))
    got = to_json(scan_table(default)).replace('"1,-,+"', '"1,+,-"')
    assert got == to_json(scan_table(cli_order))
    with pytest.raises(ValueError, match="labels"):
        scan_table(scan_1d(drive, GAETAN.interaction, labels=("1", "+"), r_grid=grid))


@pytest.mark.parametrize("points", [0, 1, 3, 7])
def test_scan_serialization_matches_the_per_value_loop(points, monkeypatch):
    """Rows converted and spliced block by block give the bytes of one value at a time."""
    monkeypatch.setattr(tables, "_ROW_BLOCK", 3)  # empty, partial, whole and several blocks
    grid = np.geomspace(0.05, 5.0, points)
    table = scan_1d(_drive(-1.0), GAETAN.interaction, labels=SCAN_LABELS, r_grid=grid)
    columns = [table.r_over_rc, *table.vector_potential, *table.azimuthal_field,
               *table.scalar_potential]
    lines = [",".join(format_float(col[i]) for col in columns) for i in range(points)]
    rendered = scan_table(table)
    assert to_csv(rendered) == "\n".join([SCAN_HEADER, *lines]) + "\n"
    assert to_csv(rendered) == to_csv(rendered)  # a table renders again with the same bytes
    metadata = dict(table.metadata, columns=SCAN_HEADER.split(","), excluded_rows=0)
    rows = [[float(col[i]) for col in columns] for i in range(points)]
    document = json.dumps({"metadata": metadata, "rows": rows}, sort_keys=True) + "\n"
    assert to_json(rendered) == document


def test_scan_empty_grid():
    table = scan_1d(_drive(-1.0), GAETAN.interaction, r_grid=())
    assert table.r_over_rc.size == 0
    assert table.vector_potential.shape == (3, 0)
    assert table.excluded_count == 0


def test_scan_rejects_bad_input():
    drive = _drive(-1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        scan_1d(drive, GAETAN.interaction, r_grid=[1.0, 0.5])
    with pytest.raises(ValueError, match="separation in r_grid must be finite and > 0"):
        scan_1d(drive, GAETAN.interaction, r_grid=[-1.0, 0.5])
    with pytest.raises(ValueError, match="label"):
        scan_1d(drive, GAETAN.interaction, labels=("q",), r_grid=[1.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_scan_rejects_non_finite_separations(bad):
    """A non-finite grid point is named, not excluded as near-degenerate
    after warnings, nor reported as an ordering fault."""
    for grid in ([1.0, bad], [bad, 1.0]):
        with pytest.raises(ValueError, match="separation in r_grid must be finite and > 0"):
            scan_1d(_drive(-1.0), GAETAN.interaction, r_grid=grid)


def test_scan_table_guards_its_own_rows():
    with pytest.raises(ValueError, match="finite"):
        ScanTable(
            metadata={},
            labels=("1",),
            r_over_rc=np.array([1.0]),
            vector_potential=np.array([[np.nan]]),
            azimuthal_field=np.array([[0.0]]),
            scalar_potential=np.array([[0.0]]),
        )


# refined extrema of the signed azimuthal field at zero detuning,
# attractive dipole-dipole coupling; positions sit on flat maxima so they
# reproduce less tightly than the field values
PEAKS = [
    ("-", "min", 0.9757677718874176, -0.5112994741207633),
    ("-", "max", 0.4651437752132255, 0.036911657799383296),
    ("1", "min", 0.9345856251247315, -0.230769805521145),
]


@pytest.mark.parametrize("label, kind, r_peak, b_peak", PEAKS)
def test_peak_goldens(label, kind, r_peak, b_peak):
    rep = find_peaks(GAETAN.interaction, [(_drive(0.0), label, kind)])[0]
    assert rep.found
    assert rep.r_peak_over_rc == pytest.approx(r_peak, rel=1e-6)
    assert rep.field_peak == pytest.approx(b_peak, rel=1e-9)
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
    """One search by itself: the scalar golden-section loop, one field solve per step."""
    reduced = reduced_parameters(drive, model)
    row = LABEL_INDEX[label]
    grid = np.geomspace(rmin, rmax, points)
    values = field_profile(grid, reduced)[row]
    idx = int(np.argmax(values)) if kind == "max" else int(np.argmin(values))
    if idx == 0 or idx == points - 1:
        return False, float(grid[idx]), float(values[idx])

    def func(x):
        return field_profile(x, reduced)[row].item()

    sgn = 1.0 if kind == "max" else -1.0
    a, b = grid[idx - 1], grid[idx + 1]
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = func(c), func(d)
    while (b - a) > REFINE_TOL * max(1.0, abs(a)):
        if sgn * fc > sgn * fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = func(d)
    mid = 0.5 * (a + b)
    return True, float(mid), func(mid)


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


def test_peaks_and_scaling_commands_solve_once_per_step(solves, capsys):
    assert main(["peaks", "--preset", "gaetan2009", "--labels", "1,-,+"]) == 0
    assert len(solves) <= 60  # one bracket, then one solve per golden step for all six
    solves.clear()
    assert main(["scaling", "--preset", "beguin2013", "--labels", "-",
                 "--detuning-ratios=-10,-20,-40"]) == 0
    assert len(solves) <= 60  # three brackets, then both kinds at every ratio in lockstep
    capsys.readouterr()


def test_scaling_fit_frozen():
    fit = scaling_fit(GAETAN.drive, GAETAN.interaction, "1", (-10.0, -20.0, -40.0))
    assert fit.kind == "min"
    assert fit.exponent == pytest.approx(0.9966416133386741, rel=1e-9)
    assert fit.coefficient == pytest.approx(0.5368645766748603, rel=1e-9)
    assert fit.position == pytest.approx(1.000155577993819, rel=1e-6)
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
