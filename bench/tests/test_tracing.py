"""Spans give exact counts and self times that add up."""

import contextlib
import io

import pytest

from rydgauge import cli

import tracing


def test_self_time_and_entry_counts_from_synthetic_spans():
    names = ["analysis.find_peak", "gauge.field_profile", "gauge.connection_profile",
             "spectrum.labeled_spectrum", "dynamics.integrate"]
    spans = [
        [0, 0.0, 10.0, -1, 0, 0],  # find_peak
        [1, 1.0, 5.0, 0, 7, 0],  # field_profile called by find_peak
        [2, 2.0, 4.0, 1, 9, 0],  # nested gauge call: not a new entry
        [3, 2.5, 3.5, 2, 9, 4],  # spectrum entered from gauge, 4 deflated points
        [4, 20.0, 30.0, -1, 0, 0],  # integrate
        [3, 21.0, 22.0, 4, 1, 0],  # spectrum call made by integrate
    ]
    m = tracing.layer_metrics({"names": names, "spans": spans})
    assert m["analysis.self_s"] == pytest.approx(6.0)
    assert m["gauge.self_s"] == pytest.approx(3.0)
    assert m["spectrum.self_s"] == pytest.approx(2.0)
    assert m["dynamics.self_s"] == pytest.approx(9.0)
    assert (m["gauge.calls"], m["gauge.points"]) == (1, 7)
    assert (m["spectrum.calls"], m["spectrum.points"]) == (2, 10)
    assert m["spectrum.deflated_points"] == 4
    assert m["analysis.field_evals"] == 1
    assert m["dynamics.spectrum_calls"] == 1
    assert m["spectrum.us_per_point"] == pytest.approx(2.0 / 10 * 1e6)


def _traced_peaks() -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["peaks", "--preset", "beguin2013", "--labels", "-",
                             "--points", "50"]) == 0
    finally:
        tracer.uninstall()
    return tracing.layer_metrics({"names": tracer.names, "spans": tracer.spans})


def test_tracer_reaches_names_bound_by_import_and_counts_repeat():
    original = cli.main
    first = _traced_peaks()
    assert cli.main is original  # uninstall restored the CLI
    # find_peak calls field_profile through the name analysis imported
    assert first["analysis.calls"] == 2 and first["analysis.field_evals"] > 10
    assert first["gauge.calls"] == first["analysis.field_evals"]  # bracket grids included
    assert first["spectrum.deflated_points"] > 0  # vdW at 0.1 r_c: |u| = 1e6
    assert first["tables.bytes"] > 0
    second = _traced_peaks()
    for key in ("spectrum.calls", "spectrum.points", "gauge.points", "analysis.field_evals",
                "spectrum.deflated_points", "tables.bytes"):
        assert first[key] == second[key]
