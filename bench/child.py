"""One round of a workload in a fresh interpreter.

Usage: python3 bench/child.py WORKLOAD OUT_DIR MODE, where MODE is
``setup`` (start up, build the inputs, stop), ``run`` (start up, then
run the workload's CLI commands in order) or ``trace`` (as ``run``, with
the span tracer installed).  The parent sets PYTHONPATH to the checkout's
``src`` and pins BLAS/OpenMP to one thread.  The child writes
OUT_DIR/child.json with its timestamps (``time.perf_counter``, the
system-wide monotonic clock, comparable with the parent's), the exit code
of every command and its own peak resident set, and for ``trace`` the
spans to OUT_DIR/spans.json.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

from rydgauge import cli  # imports numpy: part of set-up, as for a user

import workloads


def peak_rss_kib() -> int:
    """High-water resident set of this process since exec (VmHWM).

    getrusage's ru_maxrss would also count the parent's pages that the
    child held between fork and exec.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    workload, out_dir, mode = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
    commands = [(cmd, workloads.argv_with_output(cmd, out_dir))
                for cmd in workloads.commands(workload)]
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()  # rebinds cli.main too
    t_ready = time.perf_counter()
    codes = []
    if mode != "setup":
        for cmd, argv in commands:
            with open(out_dir / f"{cmd.name}.stdout", "w", encoding="utf-8") as out, \
                    contextlib.redirect_stdout(out):
                codes.append(cli.main(argv))
    t_done = time.perf_counter()
    if tracer is not None:
        tracer.dump(out_dir / "spans.json")
    result = {"t_ready": t_ready, "t_done": t_done, "codes": codes,
              "peak_rss_kib": peak_rss_kib()}
    (out_dir / "child.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
