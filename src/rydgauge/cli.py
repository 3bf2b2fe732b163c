"""Command-line entry point.

Subcommands: scan, map, peaks, scaling, trajectory, validate, presets.
All numeric output is dimensionless by default (--si switches the scan
columns to SI); errors go to stderr with exit code 2 for usage problems
(an allocation that fails is one) and 1 for failed validations or aborted
runs.  A reader that closes stdout early ends the run with 141, as SIGPIPE
would, and no message.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

import numpy as np

from . import analysis, dynamics, tables
from .config import KEYS, build_experiment, parse_config, parse_value
from .gauge import field_map
from .constants import TWOPI
from .model import PRESETS, ModelUnits
from .validate import report, run_checks


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key = value config file")
    parser.add_argument("--preset", help="named experiment preset (see 'presets')")
    parser.add_argument("--interaction", choices=("rdd", "vdw"))
    parser.add_argument("--c3", type=float, help="C3/2pi in MHz*um^3, signed")
    parser.add_argument("--c6", type=float, help="C6/2pi in GHz*um^6, signed")
    parser.add_argument("--rabi-mhz", type=float, dest="rabi_mhz", help="|Omega|/2pi in MHz")
    parser.add_argument(
        "--wavelength-nm", type=float, dest="wavelength_nm", help="laser wavelength in nm"
    )
    parser.add_argument(
        "--detuning-ratio", type=float, dest="detuning_ratio", help="delta/|Omega|"
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", metavar="FILE", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"))


def _overrides(args: argparse.Namespace) -> dict:
    values = {key: getattr(args, key) for key in KEYS if hasattr(args, key)}
    if values.get("labels") is not None:
        values["labels"] = parse_value("labels", values["labels"])
    return values


def _write(config, table: tables.Table) -> None:
    """Write a table in the run's format to its output file or stdout, a piece at a time.

    The output file is opened once the head is ready, that is once a scan's
    first block is solved and checked: a scan that fails there writes nothing.
    A run that fails after the file is opened removes the file it wrote, if
    that is a regular file, so no partial table is left behind; a device such
    as /dev/null stays, also behind a symlink.
    """
    pieces = tables.render(table, config.format)
    head = next(pieces)
    path = config.output
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="\n")) as out:
        try:
            tables.write_text(out, head)
            for text in pieces:
                tables.write_text(out, text)
        except BaseException:
            if path is not None and os.path.isfile(path):
                os.unlink(os.path.realpath(path))
            raise


def _load_config(args: argparse.Namespace):
    return parse_config(getattr(args, "config", None), _overrides(args))


def _cmd_scan(args: argparse.Namespace) -> int:
    config = _load_config(args)
    drive, model = build_experiment(config)
    grid = np.geomspace(config.rmin, config.rmax, config.points)
    # A scan carries all three labels; the label subset in the config only
    # narrows peaks/scaling.  It is solved, checked and written a block at a time.
    scan = analysis.scan_1d(drive, model, grid)
    units = ModelUnits.from_experiment(drive, model) if config.si else None
    _write(config, tables.scan_table(scan, units))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    if args.map_points < 0:
        raise ValueError(f"map points must be >= 0, got {args.map_points}")
    if args.map_points == 1:
        raise ValueError("map points must be 0 or >= 2: one point per axis is only the corner")
    if not (math.isfinite(args.half_extent) and args.half_extent > 0):
        raise ValueError(f"half extent must be finite and positive, got {args.half_extent!r}")
    config = _load_config(args)
    drive, model = build_experiment(config)
    axis = np.linspace(-args.half_extent, args.half_extent, args.map_points)
    grid = field_map(drive, model, args.label, axis, axis)
    _write(config, tables.map_table(grid))
    return 0


def _cmd_peaks(args: argparse.Namespace) -> int:
    config = _load_config(args)
    drive, model = build_experiment(config)
    requests = [(drive, label, kind) for label in config.labels for kind in ("max", "min")]
    reports = analysis.find_peaks(model, requests, config.rmin, config.rmax, config.points)
    _write(config, tables.peaks_table(reports))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    config = _load_config(args)
    drive, model = build_experiment(config)
    ratios = [float(part) for part in args.detuning_ratios.split(",") if part.strip()]
    fits = [
        analysis.scaling_fit(drive, model, label, ratios, kind=args.kind)
        for label in config.labels
    ]
    _write(config, tables.scaling_table(fits))
    return 0


def _cmd_trajectory(args: argparse.Namespace) -> int:
    scenario = dynamics.deflection_scenario(
        preset_name=args.preset,
        speed_m_s=args.speed,
        impact_parameter_rc=args.impact_parameter_rc,
        label=args.label,
        time_step_s=args.time_step_s,
    )
    trajectory = dynamics.integrate(scenario)
    _write(args, tables.trajectory_table(trajectory))
    if trajectory.aborted:
        print(f"aborted: {trajectory.reason}", file=sys.stderr)
        return 1
    deflection_um = trajectory.position_m[-1, 2] * 1e6
    # beside a table on stdout the summary goes to stderr: stdout stays one document
    print(f"z-deflection: {deflection_um:.6f} um", file=sys.stdout if args.output else sys.stderr)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    results = run_checks(quick=not args.full)
    sys.stdout.write(report(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_presets(args: argparse.Namespace) -> int:
    del args
    for name, preset in PRESETS.items():
        units = ModelUnits.from_experiment(preset.drive, preset.interaction)
        rabi_mhz = preset.drive.rabi_magnitude_rad_s / (TWOPI * 1e6)
        print(
            f"{name}: {preset.interaction.kind.value}, "
            f"|Omega|/2pi = {rabi_mhz:.3f} MHz, "
            f"r_c = {units.length_m * 1e6:.3f} um, "
            f"B0 = {units.field_T * 1e3:.3f} mT, "
            f"lifetime = {preset.lifetime_s * 1e6:.0f} us"
        )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call: one per process.

    Every call returns that same parser, so a process that runs many
    commands builds its seven subparsers once.  Parsing leaves it as it
    was; callers must not mutate it (add arguments, change defaults).
    """
    parser = argparse.ArgumentParser(
        prog="rydgauge",
        description="Artificial gauge potentials of laser-driven interacting atom pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="1D radial scan of A, B_phi and phi")
    _add_experiment_flags(scan)
    scan.add_argument("--rmin", type=float, help="grid start, r/r_c")
    scan.add_argument("--rmax", type=float, help="grid end, r/r_c")
    scan.add_argument("--points", type=int, help="log-spaced sample count")
    scan.add_argument(
        "--si",
        action="store_const",
        const=True,
        default=None,
        help="SI columns instead of model units",
    )
    _add_output_flags(scan)
    scan.set_defaults(handler=_cmd_scan)

    fmap = sub.add_parser("map", help="planar map of the magnetic field")
    _add_experiment_flags(fmap)
    fmap.add_argument("--label", default="1", choices=("1", "+", "-"))
    fmap.add_argument(
        "--half-extent", type=float, default=3.0, dest="half_extent",
        help="half width of the square grid, r_c units",
    )
    fmap.add_argument(
        "--map-points", type=int, default=21, dest="map_points",
        help="grid points per axis",
    )
    _add_output_flags(fmap)
    fmap.set_defaults(handler=_cmd_map)

    peaks = sub.add_parser("peaks", help="locate extrema of the azimuthal field")
    _add_experiment_flags(peaks)
    peaks.add_argument("--labels", help="comma list from {1,+,-}")
    peaks.add_argument("--rmin", type=float, help="bracket start, r/r_c")
    peaks.add_argument("--rmax", type=float, help="bracket end, r/r_c")
    peaks.add_argument("--points", type=int, help="bracket grid size")
    _add_output_flags(peaks)
    peaks.set_defaults(handler=_cmd_peaks)

    scaling = sub.add_parser("scaling", help="power-law fit of peak fields vs detuning")
    _add_experiment_flags(scaling)
    scaling.add_argument("--labels", help="comma list from {1,+,-}")
    scaling.add_argument(
        "--detuning-ratios",
        required=True,
        dest="detuning_ratios",
        help="comma list of delta/|Omega|, same sign, |w| >= 10",
    )
    scaling.add_argument("--kind", choices=("max", "min"), help="extremum kind (default: dominant)")
    _add_output_flags(scaling)
    scaling.set_defaults(handler=_cmd_scaling)

    traj = sub.add_parser("trajectory", help="flyby deflection scenario")
    traj.add_argument("--preset", default="gaetan2009")
    traj.add_argument("--speed", type=float, default=0.10, help="approach speed in m/s")
    traj.add_argument(
        "--impact-parameter-rc", type=float, default=1.0, dest="impact_parameter_rc",
        help="impact parameter in r_c units",
    )
    traj.add_argument("--label", default="+", choices=("1", "+", "-"))
    traj.add_argument(
        "--time-step-s", type=float, default=dynamics.RECORD_STEP_S,
        help=f"step of the record grid in seconds, a record every {dynamics.SCENARIO_STRIDE} "
        "steps; the adaptive integrator's steps do not depend on it (default: %(default)g)",
    )
    _add_output_flags(traj)
    traj.set_defaults(handler=_cmd_trajectory)

    validate = sub.add_parser("validate", help="run the oracle and invariant suite")
    tier = validate.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_true", help="small grids (default)")
    tier.add_argument("--full", action="store_true", help="10,000 spectra and 240 oracle points")
    validate.set_defaults(handler=_cmd_validate)

    presets = sub.add_parser("presets", help="list built-in experiment presets")
    presets.set_defaults(handler=_cmd_presets)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return code if isinstance(code, int) else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit-time flush
        return code
    except BrokenPipeError:
        # the reader of stdout left (``| head``): say nothing, exit as SIGPIPE would,
        # and point fd 1 at devnull so the exit-time flush of what is left stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
