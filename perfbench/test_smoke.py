"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload must print every metric that BENCHMARK.json names, with its
unit, and check its outputs; traced runs must leave spans whose self times
are non-negative.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 3


def _run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(np.isfinite(values))
    if not trace:
        assert all(v > 0 for v in values)
        return
    spans = np.load(os.path.join(ROOT, ".bench_cache", "spans",
                                 f"{workload}-seed{SEED}-trace1-smoke.npz"))
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    children = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                           minlength=dur.size)
    assert dur.size > 0
    assert np.all(dur >= 0.0)
    assert np.all(dur - children >= -1e-9)


@pytest.fixture(scope="module")
def bench_modules():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import run
    import workloads
    yield run, workloads
    del sys.path[:2]


def test_oracle_reference_is_stable_under_step_halving(bench_modules, tmp_path):
    _, workloads = bench_modules
    wl = workloads.NllOracle(SEED, workloads.SMOKE, str(tmp_path))
    wl.prepare()
    wl.setup()
    for i in range(8):
        x = wl.point(i)
        ref = wl.reference(x, workloads.REF_STEP)
        half = wl.reference(x, workloads.REF_STEP / 2)
        assert abs(half - ref) <= workloads.REF_HALVING_MAX * max(abs(ref), 1.0)


def test_one_failing_operation_does_not_end_the_run(bench_modules):
    run, _ = bench_modules

    class Flaky:
        ops_per_group = 1

        def op(self, i, tracer=None):
            if i == 1:
                raise ValueError("not a package error")
            return [float(i)]

    records = run.run_ops(Flaky(), 0.0)
    assert len(records) == 1
    records = run.run_ops(Flaky(), 0.05)
    assert records[1].error.startswith("ValueError")
    assert records[1].out is None
    assert all(r.out is not None for r in records if r.index != 1)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
