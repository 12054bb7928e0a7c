"""Tests of the benchmark itself, on a handful of operations per workload.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, GroupConj, NonConj  # noqa: E402

NAMES = sorted(WORKLOADS)
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Every span of the traced loop lies inside an operation's root span, so the
# layers' self times add up to the operation time up to float rounding.
SELF_TIME_TOLERANCE = 1e-6


@pytest.fixture(autouse=True)
def _short_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)


@lru_cache(maxsize=None)
def traced(name: str, seed: int, attempt: int) -> dict:
    return run.measure_traced(WORKLOADS[name], seed, 0)


def test_spec_names_the_printed_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert list(summary["metrics"]) == [metric for metric, _ in table]
    for metric, unit in table:
        assert summary["metrics"][metric]["unit"] == unit
        assert any(line.strip().startswith(f"{metric} = ") and f" {unit}" in line for line in lines[:-1]), metric
    if not trace:
        assert any(line.strip().startswith("error_rate = 0 fraction") for line in lines)


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_account_for_operation_time(name):
    m = traced(name, 1, 0)["metrics"]
    layers = sum(m[f"{layer}.self_ms"] for layer in run.LAYERS)
    assert layers == pytest.approx(m["trace.op_ms"], rel=SELF_TIME_TOLERANCE)


COUNTS = (
    "perm.mul_calls",
    "perm.conjugated_by_calls",
    "perm.inverse_calls",
    "engine.build_chain_calls",
    "engine.contains_calls",
    "engine.random_element_calls",
    "engine.tuple_attempts",
    "nonconjugacy.u_scan_contains",
    "simulator.restarts_per_view",
)


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly_for_a_fixed_seed(name):
    first, second = traced(name, 1, 0), traced(name, 1, 1)
    assert first["digest"] == second["digest"]
    assert {c: first["metrics"][c] for c in COUNTS} == {c: second["metrics"][c] for c in COUNTS}
    assert first["metrics"]["perm.mul_calls"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_digest_follows_the_seed(name):
    def digest(seed):
        loop = run.Loop(WORKLOADS[name](seed))
        loop.run(0)
        return loop.digest.hexdigest()

    assert digest(1) == traced(name, 1, 0)["digest"]
    assert digest(2) != digest(1)
    assert digest(run.DEFAULT_SEED) == json.loads(run.REFERENCE.read_text())[name]


def test_run_level_checks_flag_impossible_rates():
    wl = object.__new__(GroupConj)
    wl.guesses, wl.guess_wins = 400, 200
    assert wl.run_failures() == []
    wl.guess_wins = 400
    assert wl.run_failures()
    wl = object.__new__(NonConj)
    wl.runs, wl.wins = 400, 400
    assert wl.run_failures() == []
    wl.wins = 300
    assert wl.run_failures()


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "non-conj-m8", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
