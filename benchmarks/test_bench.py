"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import ops  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def _one_of_each_kind():
    for workload, (cells, make) in ops.WORKLOADS.items():
        seen = set()
        for kind, n in cells:
            if kind not in seen:
                seen.add(kind)
                yield workload, kind, n, make


def _results(block: int):
    out = []
    for workload, kind, n, make in _one_of_each_kind():
        call, check = make(kind, n, ops.Gen(f"test:{workload}:{kind}"), block)
        result = call()
        assert check(result), (workload, kind, n)
        out.append(result)
    registry = importlib.import_module("umbralcalc.registry")
    out.append(registry.run_check("UMBVIR", order=8, seed=0))
    return out


def test_wrapping_keeps_results():
    for block in range(5):  # every outer function of expr, every mode_shift level
        plain = _results(block)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _results(block)
        finally:
            tracer.uninstall()
        assert traced == plain
        assert not tracer.missing
        assert tracer.calls[tracer.index["umbral.umbral_shift"]] > 0


_TRACE_ONE_BLOCK = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import ops, run
from tracer import Tracer
tracer = Tracer()
tracer.install()
record = run.Run({workload!r}, 5, 1, True)
run.run_blocks(record, ops, {workload!r}, 5, "traced", [0], tracer=tracer)
print(json.dumps({{"calls": dict(zip(tracer.names, tracer.calls)), "failed": record.failed}}))
"""


def _traced_calls(workload: str) -> dict:
    code = _TRACE_ONE_BLOCK.format(here=str(HERE), src=str(SRC), workload=workload)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["failed"] == 0
    return out["calls"]


def _traced_verify_calls(name: str) -> dict:
    run.RESULTS.mkdir(exist_ok=True)
    out = run.RESULTS / name
    argv = ["verify", "--id", "UMBVIR", "--order", "8", "--seed", "0"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "verify_child.py"), str(out), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0 and proc.stdout.startswith("PASS UMBVIR: ")
    try:
        return {k: v["calls"] for k, v in json.loads(out.read_text())["functions"].items()}
    finally:
        out.unlink()


def test_calls_repeat_across_traced_runs():
    for workload in ops.WORKLOADS:
        first = _traced_calls(workload)
        assert first == _traced_calls(workload)
        assert sum(first.values()) > 0
    first = _traced_verify_calls("test-trace-a.json")
    assert first == _traced_verify_calls("test-trace-b.json")
    assert first["registry.UMBVIR"] == 1 and first["virasoro.virasoro"] > 0
