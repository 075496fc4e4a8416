"""Tests of the benchmark harness itself, not of vertstar.

Run from the repository root:
    PYTHONPATH=src python -m pytest perfbench/tests -q

Every workload runs for a fraction of a second.  Nothing here asserts a
timing: timings are not pass/fail gates.
"""

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
IN_PROCESS = ["jacobi-ball", "moyal-assoc", "coherent-vertical"]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
import worker  # noqa: E402
import workloads  # noqa: E402


def _run(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / BENCH.name / "run.py"), *args],
                          capture_output=True, text=True, cwd=root, timeout=175)


@lru_cache(maxsize=None)
def bench(workload: str, trace: int):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_error_rate(workload):
    lines, res = bench(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert _units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["attempted"] >= 1 and res["failed"] == 0 and res["correct"]
    rate = [ln.split() for ln in lines if ln.split()[:1] == ["error_rate"]]
    assert rate and float(rate[0][1]) == 0.0 and rate[0][2] == "fraction"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    _, res = bench(workload, 1)
    assert _units(res) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert res["failed"] == 0 and res["correct"]
    assert res["metrics"]["trace.overhead_ratio"]["value"] > 0


def _layer(workload):
    return {k: m["value"] for k, m in bench(workload, 1)[1]["metrics"].items()}


@pytest.mark.parametrize("workload", ["moyal-assoc", "coherent-vertical"])
def test_poisson_idle_on_fiber_product_workloads(workload):
    poisson = {k: v for k, v in _layer(workload).items() if k.startswith("poisson.")}
    assert len(poisson) == 5 and all(v == 0 for v in poisson.values())


def test_solve_C2_runs_only_where_predicted():
    assert _layer("jacobi-ball")["starprod.solve_C2_calls"] == 0
    assert _layer("moyal-assoc")["starprod.solve_C2_calls"] == 0
    # check all builds the product for 7 of its 8 checks (not for jacobi)
    assert _layer("cli-check")["starprod.solve_C2_calls"] == 7


@pytest.mark.parametrize("workload, counts", [
    # one bracket per block of 4 points; n=4 gives 4 bracket components
    ("jacobi-ball", {"poisson.schouten_calls": 0.25, "poisson.bracket_components": 1}),
    # associativity_defect reaches eval_jet through the name starprod
    # imported from smoothfn, so this count shows the patch at that site
    ("moyal-assoc", {"smoothfn.eval_jet_calls": 3, "starprod.star_jets_calls": 4}),
    ("coherent-vertical", {"starprod.star_jets_calls": 2, "states.expect_jets_calls": 3,
                           "smoothfn.eval_jet_calls": 29}),
    ("cli-check", {"cli.build_star_calls": 7}),
])
def test_exact_counts_per_work_unit(workload, counts):
    layer = _layer(workload)
    assert {k: layer[k] for k in counts} == counts


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_warm_up_fills_the_jet_tables(workload):
    assert _layer(workload)["jets.table_builds"] == 0


@pytest.mark.parametrize("workload", ["jacobi-ball", "moyal-assoc", "cli-check"])
def test_inputs_follow_the_seed(workload, tmp_path):
    def inputs(seed):
        wl = workloads.make(workload, seed, tmp_path)
        wl.setup()
        if workload == "jacobi-ball":
            return [tuple(x) for x in wl.points]
        if workload == "moyal-assoc":
            return [tuple(wl.points.ravel())] + [tuple(sorted(p.payload.items()))
                                                 for t in wl.triples for p in t]
        return wl.cli_seeds

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_wrong_op_is_counted_in_error_rate(tmp_path):
    wl = workloads.make("moyal-assoc", 3, tmp_path)
    wl.setup()
    wl.warmup()
    right = wl.op

    def wrong(k):
        if k % 3 == 1:
            raise RuntimeError("injected failure")
        out = right(k)
        return out + 1.0 if k % 3 == 2 else out  # misses the 1e-10 bound

    wl.op = wrong
    m = worker.measure(wl, count=9)
    assert (m.attempted, m.failed) == (9, 6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
