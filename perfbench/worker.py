"""One benchmark process: set up a workload, then time it, trace it or stop.

Usage (run.py starts it; it is not meant to be run by hand):
    python perfbench/worker.py --workload NAME --seed S --seconds T
        --mode {setup,e2e,trace} --t0 MONOTONIC --results DIR

`--t0` is the parent's `time.monotonic()` just before it started this
process; CLOCK_MONOTONIC is shared by all processes on the machine, so
`setup_s` counts interpreter start, imports, building the workload's fixed
objects and the warm-up op.  The result is one JSON object on the last line
of stdout.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Measurement:
    """Per-op wall times and failures of one closed-loop run."""

    def __init__(self):
        self.latencies = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure(wl, seconds: float = 0.0, count: int | None = None,
            recorder=None) -> Measurement:
    """Run ops 0, 1, ... until their summed wall time reaches `seconds`, or
    exactly `count` ops.  An op fails if it raises or misses its check.
    Checks are untimed, and `recorder` (a tracer or profiler) is enabled
    around each op only."""
    m = Measurement()
    k = 0
    while True:
        if recorder is not None:
            recorder.enable()
        t0 = time.perf_counter()
        try:
            out = wl.op(k)
        except Exception:  # a failing op is counted, not fatal
            out = None
            ok = False
            if m.failed == 0:
                traceback.print_exc(file=sys.stderr)
        else:
            ok = None
        dt = time.perf_counter() - t0
        if recorder is not None:
            recorder.disable()
        if ok is None:
            try:
                ok = bool(wl.check(k, out))
            except Exception:
                ok = False
                if m.failed == 0:
                    traceback.print_exc(file=sys.stderr)
        m.latencies.append(dt)
        m.failed += not ok
        k += 1
        if (k >= count) if count is not None else (sum(m.latencies) >= seconds):
            return m


def peak_rss_mb(wl) -> float:
    """Peak resident memory of the process doing the work: this one, or the
    largest child for a workload that runs the program in child processes."""
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def write_profile(wl, seconds: float, path: Path):
    """cProfile top-10 (by own time) of ops run after the traced phase."""
    prof_file = path.with_suffix(".prof")
    if wl.in_process:
        prof = cProfile.Profile()
        measure(wl, seconds, recorder=prof)
        stats = pstats.Stats(prof, stream=io.StringIO())
    else:
        wl.set_mode("profile", prof_file)
        measure(wl, count=1)
        wl.set_mode("plain")
        stats = pstats.Stats(str(prof_file), stream=io.StringIO())
        prof_file.unlink()
    stats.sort_stats("tottime").print_stats(10)
    path.write_text(f"cProfile top-10 by own time, workload {wl.name}\n"
                    + stats.stream.getvalue())


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--results", required=True)
    args = p.parse_args(argv)

    import numpy
    import scipy
    import vertstar

    src = (ROOT / "src").resolve()
    if src not in Path(vertstar.__file__).resolve().parents:
        print(f"vertstar was imported from {vertstar.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads

    results = Path(args.results)
    wl = workloads.make(args.workload, args.seed, results)
    wl.setup()
    wl.warmup()
    out = {"setup_s": time.monotonic() - args.t0,
           "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                        "scipy": scipy.__version__}}

    if args.mode == "e2e":
        m = measure(wl, args.seconds)
        out.update(latencies=m.latencies, failed=m.failed, units_per_op=wl.units_per_op,
                   control_ok=bool(wl.control()), peak_rss_mb=peak_rss_mb(wl))
    elif args.mode == "trace":
        from tracing import Tracer, merge_raw, mul_microprobe, per_layer_metrics

        # the same ops untraced, then traced: their time ratio is the overhead
        plain = measure(wl, args.seconds / 4)
        tracer = Tracer()
        tracer.install()
        if not wl.in_process:
            wl.set_mode("traced")
        traced = measure(wl, count=plain.attempted, recorder=tracer)
        tracer.uninstall()
        if not wl.in_process:
            wl.set_mode("plain")
        raw = merge_raw([tracer.raw()] + getattr(wl, "child_raws", []))
        units = traced.attempted * wl.units_per_op
        metrics = per_layer_metrics(raw, units)
        metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
        write_profile(wl, args.seconds / 8, results / f"profile_{wl.name}.txt")
        metrics.update(mul_microprobe(args.seed))
        out.update(metrics=metrics, raw=raw, ops=traced.attempted, units=units,
                   failed=plain.failed + traced.failed,
                   attempted=plain.attempted + traced.attempted,
                   control_ok=bool(wl.control()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
