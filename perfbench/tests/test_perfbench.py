"""Tests of the benchmark itself: BENCHMARK.json, output schema, smoke runs.

    python3 -m pytest perfbench/tests

The smoke runs use ``--smoke`` (one set-up probe, 4-depth profiles) and a
fraction of a second per workload, so the whole file takes well under a
minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import clock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    return proc


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _, _ in tracer.LAYER_METRICS]


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    detail = next(json.loads(ln[len("detail "):])
                  for ln in proc.stdout.splitlines() if ln.startswith("detail "))
    assert {"nproc", "python", "numpy", "scipy", "seed"} <= set(detail["machine"])
    return result, detail


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced(workload):
    result, detail = _result(_run("--workload", workload, "--seed", "3",
                                  "--seconds", "0.3", "--trace", "0", "--smoke"))
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    failed = result["failed"] + detail["declined"]
    assert detail["failed_frac"] == failed / result["attempted"]
    assert sum(detail["failure_kinds"].values()) == failed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    result, detail = _result(_run("--workload", workload, "--seed", "3",
                                  "--seconds", "0.3", "--trace", "1", "--smoke"))
    assert result["correct"]
    assert detail["transparency"]["mismatched"] == 0
    assert detail["missing_bindings"] == []
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert (ROOT / detail["spans_file"]).is_file()


def test_refuses_to_run_without_sources():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "sweep_wide", "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=tmp)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_binding_is_absent_not_zero(monkeypatch):
    from plasmaskin import spectrum
    original = spectrum.count_zeros
    monkeypatch.setattr(tracer, "BINDINGS", tracer.BINDINGS + (
        ("spectrum", "no_such_function", "one"),
        ("no_such_module", "f", "one")))
    t = tracer.Tracer()
    missing = t.install()
    try:
        assert spectrum.count_zeros is not original
        spectrum.analyze(__import__("plasmaskin").make_params(0.5, 1e-3, 1e-3))
    finally:
        t.uninstall()
    assert spectrum.count_zeros is original
    assert missing == ["spectrum.no_such_function", "no_such_module.f"]
    spans = tracer.Spans.from_tracer(t)
    outputs = {"output_bytes": 0, "statuses": {}, "traced_items_per_s": 1.0,
               "untraced_items_per_s": 1.0}
    metrics = tracer.layer_metrics(spans, 1, missing + ["spectrum.count_zeros"],
                                   outputs)
    assert metrics["spectrum.count_zeros_s"]["value"] is None
    assert metrics["spectrum.count_zeros_calls"]["value"] is None
    assert metrics["spectrum.find_zeros_calls"]["value"] == 1.0
    assert metrics["numerics.winding_batches"]["value"] > 0


def test_inputs_follow_the_seed():
    def first(w, seed, n=10):
        steps = workloads.WORKLOADS[w](seed).steps()
        return [repr(next(steps).inputs) for _ in range(n)]
    for w in WORKLOADS:
        assert first(w, 5) == first(w, 5)
        assert first(w, 5) != first(w, 6)


def test_strata_prefix_is_spread():
    import numpy as np
    u = workloads._stratified(np.random.default_rng(0), 8)
    assert sorted(np.floor(u * 8).astype(int)) == list(range(8))
    assert sorted(np.floor(u[:4] * 4).astype(int)) == [0, 1, 2, 3]


def test_load_clock_rescales_by_kernel_time():
    load = clock.LoadClock()
    py, nump = clock.REFERENCE_S
    load.samples = [(0.5, 0, 4 * py, 0.001), (1.5, 1, nump, 0.001),
                    (3.0, 0, py, 0.001)]
    wall, adj = load.interval(0.0, 2.0)
    assert wall == pytest.approx(1.998)
    assert adj == pytest.approx(1.998 / 2)     # sqrt(4 * 1)
    assert load.interval(2.5, 4.0) == (1.5 - 0.001, 1.5 - 0.001)
