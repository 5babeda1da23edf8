"""Tests of the benchmark itself, at the tiny sizes of ``--smoke``.

Run from the repository root: ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, script=HERE / "run.py", cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "1", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace, section):
    proc, result = bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC[section]} == {
        name: m["unit"] for name, m in metrics.items()
    }
    for name, m in metrics.items():  # also printed by name, with the unit
        assert f"{workload} {name} = " in proc.stdout and m["unit"] in proc.stdout
    if trace:
        # the layers each workload calls are seen through every binding,
        # including the ones inside separate CLI processes
        layer = {
            "structure": ["kernel.calls", "core.multiply.calls", "enumeration.elements",
                          "level_metric.distance.calls", "enumeration.oracle.words"],
            "montecarlo": ["stochastic.trials", "stochastic.crosscheck_trials",
                           "level_metric.level_by_definition.calls", "stochastic.pmf.support"],
            "words": ["kernel.calls", "morphisms.delete.calls", "core.reduce.calls"],
            "cli": ["kernel.calls", "cli.process_s", "cli.import_s"],
        }[workload]
        assert all(metrics[name]["value"] > 0 for name in layer)
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_wrong_expected_answer_fails_the_run(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / "workloads.py").read_text()
    assert "4: 115," in source
    (copy / "workloads.py").write_text(source.replace("4: 115,", "4: 116,", 1))
    proc, result = bench("--workload", "structure", "--trace", "0", script=copy / "run.py")
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] >= 1
    failed_frac = next(line for line in proc.stdout.splitlines() if "failed_frac" in line)
    assert float(failed_frac.split("=")[1].split()[0]) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, result = bench("--workload", "words", "--trace", "0",
                         script=tmp_path / "perfbench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
