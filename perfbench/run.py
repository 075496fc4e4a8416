"""vertstar benchmark: one workload, end to end or traced.

Usage, from the repository root:
    python3 perfbench/run.py --workload jacobi-ball --seed 1 --seconds 15 --trace 0

Workloads: jacobi-ball, moyal-assoc, coherent-vertical, cli-check (see
perfbench/README.md).  `--trace 0` measures the end-to-end metrics with
tracing off; `--trace 1` runs the same ops untraced and then traced and
reports the per-layer metrics.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  Reports are also written to perfbench/results/.

The program is vertstar from `src/` of the checkout this file sits in; the
run fails (exit 2, no result line) when it is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("jacobi-ball", "moyal-assoc", "coherent-vertical", "cli-check")
DEFAULT_SEED = 1      # seed 7919 is held out for confirming a claimed gain
BUDGET_S = 170.0       # the whole run, all child processes included
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 7
SETUP_MIN_TOTAL_S = 3.0
P90_MIN_OPS = 100

E2E_UNITS = {"throughput": "units/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


class RunFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # the machine has two cores; one single-threaded client per run
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, mode: str, deadline: float) -> dict:
    """Start one worker process, wait for it, return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--t0", repr(t0), "--results", str(RESULTS)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{mode} worker exceeded the {BUDGET_S:.0f} s budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def provenance(args, worker: dict) -> dict:
    commit = ""
    if (ROOT / ".git").exists():  # a plain checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"git_commit": commit or None, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
            "platform": platform.platform(), "src_lines": src_lines, **worker["versions"]}


def nearest_rank(values, q: float) -> float:
    """The q-quantile by the nearest-rank rule, an observed value."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(args, deadline: float):
    main = run_worker(args, "e2e", deadline)
    setups = [main["setup_s"]]
    while len(setups) < SETUP_MIN_SAMPLES or (
            sum(setups) < SETUP_MIN_TOTAL_S and len(setups) < SETUP_MAX_SAMPLES):
        setups.append(run_worker(args, "setup", deadline)["setup_s"])
    lat = main["latencies"]
    units = len(lat) * main["units_per_op"]
    values = {
        "throughput": units / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * nearest_rank(lat, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    notes = {"ops": len(lat), "units": units, "setup_samples": setups}
    return main, metrics, notes


def traced(args, deadline: float):
    main = run_worker(args, "trace", deadline)
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in main["metrics"].items()}
    notes = {"ops": main["ops"], "units": main["units"], "raw_totals": main["raw"]}
    return main, metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "vertstar" / "__init__.py").is_file():
        print(f"no vertstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    RESULTS.mkdir(exist_ok=True)
    try:
        main_out, metrics, notes = (traced if args.trace else end_to_end)(args, deadline)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted = len(main_out["latencies"]) if not args.trace else main_out["attempted"]
    failed = main_out["failed"]
    correct = failed == 0 and main_out["control_ok"]
    report = {"provenance": provenance(args, main_out), "correct": correct,
              "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
              "control_ok": main_out["control_ok"], "metrics": metrics, **notes}
    kind = "trace" if args.trace else "e2e"
    (RESULTS / f"{kind}_{args.workload}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  {kind}  ops {notes['ops']}"
          f"  work units {notes['units']}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} fraction"
          f"  ({failed} of {attempted} ops failed)")
    if not args.trace and notes["ops"] < P90_MIN_OPS:
        print(f"  note: latency_p90_ms is the nearest-rank p90 of only {notes['ops']} ops")
    print(f"  control check {'passed' if main_out['control_ok'] else 'FAILED'}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
