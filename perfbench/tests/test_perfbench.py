"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each workload runs twice with one seed and a fixed operation count; the
deterministic work counts must repeat exactly.  A second seed must give
another operation stream, a wrong read must fail the run, and a
directory without the library must make the benchmark exit non-zero.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
from workloads import WORKLOADS, OperationStream  # noqa: E402

OPS = 300
DETERMINISTIC = (
    "transport.rpcs", "transport.latency_waves", "storage.fsyncs",
    "storage.bytes_written", "storage.docs_flushed", "kv.bg_fetches",
    "gsi.scan_rows",
) + tuple(f"transport.rpcs.{method}" for method in bench_run.RPC_METHODS)


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--ops", str(OPS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == OPS
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_for_a_fixed_seed(workload):
    first = result_of(run(workload, 7, trace=1))["metrics"]
    second = result_of(run(workload, 7, trace=1))["metrics"]
    assert set(first) == declared("per_layer")
    for name in DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name
    assert first["transport.rpcs"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_are_all_reported(workload):
    metrics = result_of(run(workload, 7, trace=0))["metrics"]
    assert set(metrics) == declared("end_to_end")
    assert all(metric["value"] > 0 for metric in metrics.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_the_seed_chooses_the_operation_stream(workload):
    spec = WORKLOADS[workload]
    assert OperationStream(spec, 7).take(500) == OperationStream(spec, 7).take(500)
    assert OperationStream(spec, 7).take(500) != OperationStream(spec, 8).take(500)
    assert OperationStream(spec, 7).records != OperationStream(spec, 8).records


def test_a_stale_read_fails_the_run(monkeypatch, capsys):
    bench_run.load_repro()
    from repro.kv.engine import KVEngine

    served = KVEngine.get

    def stale_get(self, vbucket_id, key):
        doc = served(self, vbucket_id, key)
        doc.value["field0"] = "stale"
        return doc

    monkeypatch.setattr(KVEngine, "get", stale_get)
    code = bench_run.main(["--workload", "kv-mixed", "--seed", "1",
                           "--ops", "100"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False
    assert any(line.startswith("CHECK FAILED: read") for line in lines)


def test_a_lost_durable_write_fails_the_run(monkeypatch, capsys):
    bench_run.load_repro()
    from repro.common.disk import SimulatedDisk

    def lose_everything(disk):
        for name in disk.list_files():
            disk.open(name).truncate(0)

    monkeypatch.setattr(SimulatedDisk, "crash", lose_everything)
    code = bench_run.main(["--workload", "kv-dgm-durable", "--seed", "1",
                           "--ops", "400"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert any(line.startswith("CHECK FAILED: crash check") or
               line.startswith("CHECK FAILED: after restart") for line in lines)


def test_without_the_library_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run("kv-mixed", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
