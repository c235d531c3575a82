"""Self-test of the benchmark: every workload at about 1 s scale.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench -q

Checks that each run emits exactly the metrics ``BENCHMARK.json`` names,
with their units, that names are well-formed, that output digests repeat
across two runs (and match between ``svc_hot`` and ``fleet_hot``), and
that the benchmark refuses to run where there is no program to measure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TAG = "bench-detail "


def _run(script: Path, workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    # run.py finds the program itself; an inherited path must not help it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd, env=env,
    )


@pytest.fixture(scope="module")
def runs():
    cache: dict[tuple[str, int, int], tuple[dict, dict]] = {}

    def get(workload: str, trace: int, rep: int = 0) -> "tuple[dict, dict]":
        key = (workload, trace, rep)
        if key not in cache:
            done = _run(BENCH / "run.py", workload, trace, ROOT)
            assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
            lines = done.stdout.splitlines()
            detail = json.loads(next(l for l in lines if l.startswith(TAG))[len(TAG):])
            cache[key] = json.loads(lines[-1]), detail
        return cache[key]

    return get


def test_names_are_well_formed_and_unique():
    groups = [SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"]]
    names = [entry["name"] for group in groups for entry in group]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_declared_metric(runs, workload, trace):
    result, _ = runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_across_runs(runs, workload):
    assert runs(workload, 0)[1]["digest"] == runs(workload, 0, rep=1)[1]["digest"]


def test_fleet_and_service_agree(runs):
    assert runs("svc_hot", 0)[1]["digest"] == runs("fleet_hot", 0)[1]["digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path / "bench" / "run.py", "svc_hot", 0, tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
