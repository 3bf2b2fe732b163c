"""The four benchmark workloads as rydgauge CLI commands.

Each command is the argument list a user would pass to ``rydgauge``, plus
the parameters its checks need.  The program's inputs are fixed: the
``--seed`` of a run only picks which output rows the checks sample, so
every run of a workload does the same work and writes the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

PRESETS = ("gaetan2009", "beguin2013")
LABELS = ("1", "-", "+")
LABEL_TAG = {"1": "1", "-": "minus", "+": "plus"}  # labels in file names

# flyby: the README trajectory command at the program's defaults
FLYBY = {"preset": "gaetan2009", "speed": 0.10, "impact_rc": 1.0, "label": "+",
         "time_step_s": 50e-9, "approach_rc": 6.0}

# sweep: where B peaks (blockade to weak dressing) and how the peak scales
SWEEP_DETUNINGS = (-3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0)
PEAK_GRID = {"rmin": 0.1, "rmax": 10.0, "points": 200}  # the CLI's peaks defaults
SCALING_RATIOS = (-10.0, -20.0, -40.0)
MAP = {"preset": "gaetan2009", "detuning": -1.0, "label": "+", "half_extent": 3.0,
       "points": 41}

# bulk_scan: N = 1e5 from deep blockade (|u| = 1e12 on vdW) to weak dressing
SCAN = {"rmin": 0.01, "rmax": 20.0, "points": 100_000, "detuning": 0.0}

WORKLOADS = ("flyby", "sweep", "bulk_scan", "oracles")


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments, output file and check parameters."""

    name: str  # unique within the workload; stem of its output files
    kind: str  # trajectory, peaks, scaling, map, scan or validate
    argv: tuple
    output: str | None  # file name the command writes, None for stdout only
    params: dict = field(default_factory=dict)


def _fmt(value: float) -> str:
    return repr(float(value))


def _flyby() -> list[Command]:
    p = FLYBY
    return [Command(
        "trajectory", "trajectory",
        ("trajectory", "--preset", p["preset"], "--speed", _fmt(p["speed"]),
         "--impact-parameter-rc", _fmt(p["impact_rc"])),
        "trajectory.csv", dict(p),
    )]


def _sweep() -> list[Command]:
    cmds = []
    for preset in PRESETS:
        for w in SWEEP_DETUNINGS:
            cmds.append(Command(
                f"peaks_{preset}_{w:+g}", "peaks",
                ("peaks", "--preset", preset, "--labels", ",".join(LABELS),
                 f"--detuning-ratio={_fmt(w)}"),
                f"peaks_{preset}_{w:+g}.csv",
                {"preset": preset, "detuning": w, **PEAK_GRID},
            ))
    ratios = ",".join(_fmt(r) for r in SCALING_RATIOS)
    for preset in PRESETS:
        for label in LABELS:
            cmds.append(Command(
                f"scaling_{preset}_{LABEL_TAG[label]}", "scaling",
                ("scaling", "--preset", preset, "--labels", label,
                 f"--detuning-ratios={ratios}"),
                f"scaling_{preset}_{LABEL_TAG[label]}.csv",
                {"preset": preset, "label": label, "ratios": SCALING_RATIOS},
            ))
    m = MAP
    cmds.append(Command(
        "map", "map",
        ("map", "--preset", m["preset"], f"--detuning-ratio={_fmt(m['detuning'])}",
         "--label", m["label"], "--half-extent", _fmt(m["half_extent"]),
         "--map-points", str(m["points"])),
        "map.csv", dict(m),
    ))
    return cmds


def _bulk_scan() -> list[Command]:
    s = SCAN
    cmds = []
    for preset in PRESETS:
        for fmt in ("csv", "json"):
            cmds.append(Command(
                f"scan_{preset}_{fmt}", "scan",
                ("scan", "--preset", preset, "--rmin", _fmt(s["rmin"]),
                 "--rmax", _fmt(s["rmax"]), "--points", str(s["points"]),
                 f"--detuning-ratio={_fmt(s['detuning'])}", "--format", fmt),
                f"scan_{preset}.{fmt}",
                {"preset": preset, "format": fmt, **s},
            ))
    return cmds


def _oracles() -> list[Command]:
    return [Command("validate", "validate", ("validate", "--full"), None, {"checks": 12})]


def commands(workload: str) -> list[Command]:
    """The commands of one workload, in the order they run."""
    by_name = {"flyby": _flyby, "sweep": _sweep, "bulk_scan": _bulk_scan,
               "oracles": _oracles}
    return by_name[workload]()


def argv_with_output(cmd: Command, out_dir: Path) -> list[str]:
    """The command's arguments with its output file placed in ``out_dir``."""
    argv = list(cmd.argv)
    if cmd.output is not None:
        argv += ["--output", str(out_dir / cmd.output)]
    return argv
