"""Benchmark of the rydgauge CLI: end-to-end times, per-layer spans, checks.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {flyby,sweep,bulk_scan,oracles} \
        --seed N --seconds S --trace {0,1}

Each round of a workload is one fresh, single-threaded interpreter
(bench/child.py) that runs the workload's CLI commands through
``rydgauge.cli.main``.  With ``--trace 0`` whole rounds run until S
seconds have passed (at least one) and the run reports the medians of
``wall_s`` and ``peak_rss_mb`` over its rounds, and of ``setup_s`` over
at least SETUP_SAMPLES start-ups (the rounds' own and set-up-only ones).
With ``--trace 1`` it runs one plain round and one traced round and
reports the per-layer metrics.  Every round's outputs are checked against
bench/reference.py after the timed part, and must be byte-identical to
every other round run on the same source.  The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 9  # start-ups per run at least; setup_s is their median
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a child that hung)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(workload: str, out_dir: Path, mode: str) -> dict:
    """Run one child to completion; its report plus set-up and wall time."""
    report = out_dir / "child.json"
    report.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(out_dir), mode]
    with open(out_dir / "child.log", "w", encoding="utf-8") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=log, stderr=log,
                                stdin=subprocess.DEVNULL)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} child ran longer than {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not report.is_file():
        log_text = (out_dir / "child.log").read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"{mode} child exited with {proc.returncode}:\n{log_text}")
    result = json.loads(report.read_text(encoding="utf-8"))
    result["setup_s"] = result["t_ready"] - t_spawn
    result["wall_s"] = result["t_done"] - result["t_ready"]
    result["peak_rss_mb"] = result["peak_rss_kib"] / 1024.0
    return result


def output_digest(commands, out_dir: Path) -> str:
    digest = hashlib.sha256()
    for cmd in commands:
        names = [f"{cmd.name}.stdout"] + ([cmd.output] if cmd.output else [])
        for name in names:
            digest.update(name.encode())
            digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rydgauge").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def same_as_earlier_runs(workload: str, digest: str) -> bool:
    """Record this run's output digest; False if an earlier run of the same
    source wrote different bytes."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.is_file() else {}
    key = f"{source_digest()}:{workload}"
    known.setdefault(key, digest)
    store.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return known[key] == digest


def run(args) -> dict:
    if not (SRC / "rydgauge" / "cli.py").is_file():
        raise BenchError(f"no rydgauge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import checks
    import tracing

    commands = workloads.commands(args.workload)
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    spawn(args.workload, out_dir, "setup")  # untimed: byte-compiles, pages files in

    rounds, digests = [], []

    def one_round(mode: str) -> dict:
        result = spawn(args.workload, out_dir, mode)
        rounds.append(result)
        digests.append(output_digest(commands, out_dir))
        return result

    if args.trace:
        plain = one_round("run")
        traced = one_round("trace")
        spans = json.loads((out_dir / "spans.json").read_text(encoding="utf-8"))
        layer = tracing.layer_metrics(spans)
        layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        # A set-up-only start-up before each round spreads the set-up samples
        # over the run instead of bunching them after the last round.
        setups = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            setups.append(spawn(args.workload, out_dir, "setup")["setup_s"])
            setups.append(one_round("run")["setup_s"])
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args.workload, out_dir, "setup")["setup_s"])
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }

    codes = [code for r in rounds for code in r["codes"]]
    failed = sum(1 for code in codes if code != 0)
    results = checks.check_workload(commands, out_dir, rounds[-1]["codes"], args.seed)
    results.append(checks.Check("outputs identical across the run's rounds",
                                float(len(set(digests)) - 1), 0.0))
    results.append(checks.Check("outputs identical to earlier runs of this source",
                                0.0 if same_as_earlier_runs(args.workload, digests[0]) else 1.0,
                                0.0))
    for check in results:
        if not check.ok:
            print(f"FAIL {check.name}: {check.value:.3e} > {check.tol:.3e}", file=sys.stderr)
    walls = " ".join(f"{r['wall_s']:.3f}" for r in rounds)
    print(f"{args.workload}: rounds of {walls} s; {len(results)} checks, "
          f"{sum(not c.ok for c in results)} failing", file=sys.stderr)
    return {"correct": all(c.ok for c in results), "attempted": len(codes),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
