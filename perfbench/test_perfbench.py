"""Self-test of the benchmark at toy size: python3 -m pytest perfbench -q

Runs every workload with ``--tiny``, traced and untraced, and checks the
result line against BENCHMARK.json: its keys, the metric names and units,
and that every check passed.  It does not gate on speed.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402  (every workload, gated or not)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = BENCH["command"][1:]
    return subprocess.run([sys.executable, *cmd, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_benchmark_json_follows_its_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert 1 <= BENCH["run_seconds"] <= 60 and isinstance(BENCH["run_seconds"], int)
    assert 2 <= len(BENCH["workloads"]) <= 8
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_tiny_trace_zeroes_training_layers_on_eval():
    done = run_bench(ROOT, "--workload", "eval-bigbag", "--seed", "3", "--seconds", "0.5",
                     "--trace", "1", "--tiny")
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    for name in ("mil.mask_ms", "mil.mask_renorm_ratio", "mil.mask_discards",
                 "losses.backward_ms_p50", "losses.backward_ms_p90", "optim.adam_ms_p50",
                 "optim.steps"):
        assert metrics[name]["value"] == 0, name
    assert metrics["mil.forward_ms_p50"]["value"] > 0


def test_tiny_trace_measures_input_generation_on_train():
    done = run_bench(ROOT, "--workload", "train-default", "--seed", "3", "--seconds", "0.5",
                     "--trace", "1", "--tiny")
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    for name in ("data.generate_s", "data.split_ms", "rng.ns_per_draw", "optim.steps"):
        assert metrics[name]["value"] > 0, name


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        done = run_bench(bare, "--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
