"""Smoke test of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests/smoke.py

Every workload runs at the tiny size, untraced and traced; each metric named
in BENCHMARK.json must be printed with its unit.  Injected failures (a
raising operation and a wrong output) must be counted.  The file name keeps
these runs out of the package's own test collection.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                    "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float))
        assert f"  {name} = " in out.stdout
    assert "environment: " in out.stdout
    if workload == "family_sweep":  # the linear law raises today and must be counted
        assert result["failed"] >= 1
        assert "linear: ZeroDivisionError" in out.stdout


def test_injected_failures_are_counted(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import wavedecay as wd
    from workloads import WORKLOADS, Ops

    workload = WORKLOADS["reference_cubic"](wd, 3, ROOT, str(tmp_path), tiny=True)
    workload.setup()
    ops = Ops()
    workload.run_round(ops)
    assert (ops.attempted, ops.failed, ops.wrong) == (1, 0, 0)
    steps = ops.steps["cubic"]
    assert steps == 889  # t_final 2 at dt = 0.9 / 400

    real = wd.harness.run_experiment

    def boom(cfg, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(wd.harness, "run_experiment", boom)
    workload.run_round(ops)
    assert (ops.attempted, ops.failed, ops.wrong) == (2, 1, 0)
    assert ops.failures == {"cubic: RuntimeError": 1}
    assert len(ops.seconds["cubic"]) == 2  # a raising call is timed
    assert ops.steps == {"cubic": steps}  # but credited with no steps

    monkeypatch.setattr(wd.harness, "run_experiment",
                        lambda cfg, **kw: dataclasses.replace(real(cfg, **kw), passed=False))
    workload.run_round(ops)
    assert (ops.attempted, ops.failed, ops.wrong) == (3, 2, 1)
    assert ops.failures["cubic: failed check passed"] == 1


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(str(tmp_path), "--workload", "reference_cubic", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
